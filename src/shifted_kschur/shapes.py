"""Strict partitions, shifted (skew) Young diagrams and removable boxes.

Boxes are (row, col) pairs with 1-based matrix coordinates: row increases
downward, col increases to the right.  A box (i, j) is *diagonal* iff j == i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

Box = tuple[int, int]


@dataclass(frozen=True)
class StrictPartition:
    """A strictly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if not isinstance(p, int) or p <= 0:
                raise ValueError(f"parts must be positive integers, got {parts}")
            if i + 1 < len(parts) and parts[i + 1] >= p:
                raise ValueError(f"parts must be strictly decreasing, got {parts}")

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

    def __iter__(self):
        return iter(self.parts)

    def __le__(self, other: "StrictPartition") -> bool:
        return is_subpartition(self, other)

    @classmethod
    def parse(cls, text: str) -> "StrictPartition":
        """Parse a comma-separated list such as "4,2,1"; "" or "0" is empty."""
        text = text.strip()
        if text in ("", "0", "-"):
            return cls(())
        try:
            parts = tuple(int(t) for t in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"


def is_subpartition(mu: StrictPartition, lam: StrictPartition) -> bool:
    """True iff mu fits inside lam row by row (mu zero-padded)."""
    if mu.length > lam.length:
        return False
    return all(m <= l for m, l in zip(mu.parts, lam.parts))


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
        """The boxes column by column, top first; see ``boxes_in_order``."""
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

    def __contains__(self, box: Box) -> bool:
        return box in self.boxes

    @staticmethod
    def is_diagonal(box: Box) -> bool:
        return box[0] == box[1]

    @property
    def is_straight(self) -> bool:
        return not self.inner

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


def boxes_in_order(shape: SkewShape) -> list[Box]:
    """All boxes column by column, top of each column first.

    (i, j) precedes (i~, j~) iff j < j~, or j == j~ and i < i~.
    """
    return list(shape.col_major)


def removable_boxes(mu: StrictPartition) -> frozenset[Box]:
    """The last boxes of rows whose single removal leaves a strict partition."""
    if not mu:
        raise ValueError("no removable boxes of the empty partition")
    out = []
    for i in range(1, mu.length + 1):
        row = mu.part(i)
        below = mu.part(i + 1)
        # shrinking row i by one must keep strictness; the last row may vanish
        if (i == mu.length and row >= 1) or row - 1 > below:
            out.append((i, row + i - 1))
    return frozenset(out)


def removable_subsets(mu: StrictPartition) -> list[frozenset[Box]]:
    """Every subset of Rem(mu): subset k holds the boxes of sorted Rem(mu)
    whose bit is set in k.  Certificates list inner shapes in this order."""
    rem = sorted(removable_boxes(mu))
    return [frozenset(box for k, box in enumerate(rem) if mask >> k & 1)
            for mask in range(1 << len(rem))]


def remove_subset(mu: StrictPartition, B) -> StrictPartition:
    """Delete one box from each row touched by B, a subset of Rem(mu)."""
    B = frozenset(B)
    if not B <= removable_boxes(mu):
        raise ValueError(f"{sorted(B)} is not a subset of Rem({mu})")
    rows = {i for (i, _) in B}
    parts = tuple(
        p - 1 if i + 1 in rows else p for i, p in enumerate(mu.parts)
    )
    return StrictPartition(tuple(p for p in parts if p > 0))


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
