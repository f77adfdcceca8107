"""Strict partitions, shifted (skew) Young diagrams and removable boxes.

Boxes are (row, col) pairs with 1-based matrix coordinates: row increases
downward, col increases to the right.  A box (i, j) is *diagonal* iff j == i.

The removable-box rule is stated once, in ``_corner_rows``, and subsets of
corners are removed in one loop, ``_minus_corners``.  On them rest the
double-skew inner shapes nu = mu - B for B in Rem(mu) (``inner_shapes``,
each with its weight exponent |mu/nu|), the toggle ``pi`` of mu's bottom
removable box that pairs them, and the set-valued letter factors of
``genfunc``, whose corners are those of a shape outside mu.  Beside it the
interlacing rule, nu_(r+1) <= rho_r <= nu_r, is stated once, in
``_strips_above``: the shapes nu one more letter can fill rho out to, which
are the transitions of ``genfunc``'s level recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import le
from typing import Iterator

Box = tuple[int, int]


@dataclass(frozen=True)
class StrictPartition:
    """A strictly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = self.parts
        if type(parts) is not tuple:
            parts = tuple(parts)
            object.__setattr__(self, "parts", parts)
        prev = None  # one pass: a part's type and sign before its order
        for p in parts:
            if not isinstance(p, int) or p <= 0:
                raise ValueError(f"parts must be positive integers, got {parts}")
            if prev is not None and p >= prev:
                raise ValueError(f"parts must be strictly decreasing, got {parts}")
            prev = p

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """Row length of the 1-based row i, zero-padded beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __bool__(self) -> bool:
        return bool(self.parts)

    @classmethod
    def parse(cls, text: str) -> "StrictPartition":
        """Parse a comma-separated list such as "4,2,1"; "" or "0" is empty."""
        text = text.strip()
        if text in ("", "0", "-"):
            return cls(())
        try:
            parts = tuple(map(int, text.split(",")))
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"


def is_subpartition(mu: StrictPartition, lam: StrictPartition) -> bool:
    """True iff mu fits inside lam row by row (mu zero-padded)."""
    if len(mu.parts) > len(lam.parts):
        return False
    return all(map(le, mu.parts, lam.parts))


@dataclass(frozen=True)
class SkewShape:
    """A shifted skew diagram lam/mu; mu empty gives the straight shape."""

    outer: StrictPartition
    inner: StrictPartition = StrictPartition(())

    def __post_init__(self):
        if not is_subpartition(self.inner, self.outer):
            raise ValueError(f"{self.inner} is not contained in {self.outer}")

    @cached_property
    def boxes(self) -> frozenset[Box]:
        out = []
        for i in range(1, self.outer.length + 1):
            lo = self.inner.part(i) + i
            hi = self.outer.part(i) + i - 1
            out.extend((i, j) for j in range(lo, hi + 1))
        return frozenset(out)

    @cached_property
    def row_major(self) -> tuple[Box, ...]:
        """The boxes row by row, left to right (the enumeration fill order)."""
        return tuple(sorted(self.boxes))

    @cached_property
    def col_major(self) -> tuple[Box, ...]:
        """The boxes column by column, top of each column first: (i, j)
        precedes (i~, j~) iff j < j~, or j == j~ and i < i~."""
        return tuple(sorted(self.boxes, key=lambda b: (b[1], b[0])))

    @cached_property
    def rows(self) -> tuple[tuple[Box, ...], ...]:
        """The boxes of each row 1..len(outer), left to right (maybe none)."""
        return tuple(tuple((i, j) for j in self.row_cols(i))
                     for i in range(1, self.outer.length + 1))

    @property
    def size(self) -> int:
        """Number of boxes, |lam| - |mu|."""
        return self.outer.weight - self.inner.weight

    def row_cols(self, i: int) -> range:
        """Columns occupied by row i (possibly empty)."""
        return range(self.inner.part(i) + i, self.outer.part(i) + i)

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        """Parse "outer/inner" such as "6,4,3,1/4,2"; bare "4,2,1" is straight."""
        if "/" in text:
            outer, inner = text.split("/", 1)
            return cls(StrictPartition.parse(outer), StrictPartition.parse(inner))
        return cls(StrictPartition.parse(text))

    def __str__(self) -> str:
        if self.inner:
            return f"{self.outer}/{self.inner}"
        return str(self.outer)

    def to_json(self) -> dict:
        return {
            "outer": list(self.outer.parts),
            "inner": list(self.inner.parts),
            "boxes": [[i, j] for (i, j) in self.col_major],
        }


def _corner_rows(parts: tuple) -> list[int]:
    """The 0-based rows whose last box can go and leave a strict partition:
    a row longer than the next by two or more, or the last row, which may
    vanish.  This is the one statement of the removable-box rule."""
    last = len(parts) - 1
    return [r for r, p in enumerate(parts)
            if r == last or p - 1 > parts[r + 1]]


def _minus_corners(parts: tuple,
                   rows: list[int]) -> list[tuple[int, tuple]]:
    """(|S|, parts - S) for every subset S of ``rows``, some of the corner
    rows of parts: entry k drops the last box of the rows whose bit is set
    in k, so the entries of each next row go after all earlier ones."""
    out = [(0, parts)]
    for r in rows:  # a part of 1 is the last row, which vanishes
        out += [(s + 1, p[:r] + ((p[r] - 1,) if p[r] > 1 else ()) + p[r + 1:])
                for s, p in out]
    return out


def _strips_above(rho: tuple, lam: tuple) -> list[tuple]:
    """Every strict nu inside lam with nu/rho a shifted horizontal strip:
    nu_(r+1) <= rho_r <= nu_r in every row r, rho zero-padded (rho inside
    lam).  This is the one statement of the interlacing rule: one letter
    fills nu/rho only for these nu, so they are the level recursion's
    transitions.  Row r of nu lies in [rho_r, min(lam_r, rho_(r-1))] and
    below nu_(r-1); only row len(rho) may be 0, and then nu ends there."""
    nus = [()]
    for r in range(min(len(rho) + 1, len(lam))):
        lo = rho[r] if r < len(rho) else 0
        top = lam[r] if r == 0 else min(lam[r], rho[r - 1])
        nus = [nu + (p,) if p else nu for nu in nus
               for p in range(lo, min(top, nu[r - 1] - 1 if r else top) + 1)]
    return nus


def removable_boxes(mu: StrictPartition) -> frozenset[Box]:
    """The last boxes of rows whose single removal leaves a strict partition."""
    if not mu:
        raise ValueError("no removable boxes of the empty partition")
    return frozenset((r + 1, mu.parts[r] + r) for r in _corner_rows(mu.parts))


def inner_shapes(mu: StrictPartition) -> list[tuple[int, StrictPartition]]:
    """(|mu/nu|, nu) for every nu = mu minus a subset B of Rem(mu): entry k
    removes the boxes of sorted Rem(mu) whose bit is set in k.  These are
    the double-skew inner shapes, in the order certificates list them; the
    empty mu has the one inner shape (0, mu)."""
    return [(s, StrictPartition(nu))
            for s, nu in _minus_corners(mu.parts, _corner_rows(mu.parts))]


def pi(mu: StrictPartition, nu: StrictPartition) -> StrictPartition:
    """The inner shape nu of the nonempty mu with mu's bottom removable box,
    the last box of its last row, toggled: removed if nu has it, put back
    if not."""
    r = mu.length - 1
    parts = list(nu.parts) + [0] * (mu.length - nu.length)
    parts[r] += 1 if parts[r] < mu.parts[r] else -1
    return StrictPartition(tuple(p for p in parts if p))


def strict_partitions_of_weight(l: int) -> Iterator[StrictPartition]:
    """All strict partitions of the nonnegative integer l."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - first, first - 1):
                yield (first, *rest)

    for parts in rec(l, l):
        yield StrictPartition(parts)


def strict_partitions_up_to_weight(l: int) -> Iterator[StrictPartition]:
    """All strict partitions of weight 0..l, lighter first."""
    for w in range(l + 1):
        yield from strict_partitions_of_weight(w)


def strict_subpartitions(lam: StrictPartition) -> Iterator[StrictPartition]:
    """All strict mu contained in lam (including the empty one and lam)."""

    def rec(i: int, prev: int):
        # rows i.. of mu, each part < prev and <= lam_i; rows may stop anytime
        if i > lam.length or prev <= 1:
            yield ()
            return
        yield ()
        for p in range(min(lam.part(i), prev - 1), 0, -1):
            for rest in rec(i + 1, p):
                yield (p, *rest)

    for parts in rec(1, lam.part(1) + 1):
        yield StrictPartition(parts)
