"""Strict partitions, shifted (skew) Young diagrams and their corners.

Boxes are (row, col) pairs with 1-based matrix coordinates: row increases
downward, col increases to the right.  A box (i, j) is *diagonal* iff j == i.
A shape's rows (``row_cols``) state its boxes once; the box set and both
box orders are read off them.  ``strict_subpartitions`` walks a partition's
rows for the strict partitions inside it, and ``skew_shapes``, the one
statement of the sweeps' domain, reads it per outer shape;
``skew_shape_count`` counts that domain with no shape built.

The removable-box rule is stated once, in ``_corner_rows``, as the rows
whose last box can go, and subsets of corners are removed in one loop,
``_minus_corners``.  On them rest the
double-skew inner shapes nu = mu - B for B in Rem(mu) (``inner_shapes``,
each with its weight exponent |mu/nu|) and the toggle ``pi`` of mu's
bottom removable box that pairs them; the set-valued letter factors of
``genfunc`` read the corner rows of a shape outside mu.  Beside it the
interlacing rule, nu_(r+1) <= rho_r <= nu_r, is stated once, in
``_strips_above``: the shapes nu one more letter can fill rho out to, which
are the transitions of ``genfunc``'s level recursion, kept per
(rho, lam).  ``_index_table`` holds a shape's facts by row-major index,
and ``_parse_skew`` the one shape of each parsed text, so a shape is
frozen (``_Frozen``)."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import le
from typing import Iterator

Box = tuple[int, int]


class _Record:
    """Equality, hash and repr by ``_fields``, as a dataclass has them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose fields, set in ``__init__`` by ``object.__setattr__``,
    cannot change: one shape serves every parse of its text."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class StrictPartition(_Frozen):
    """A strictly decreasing sequence of positive integers (possibly empty)."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = tuple(parts)
        prev = None  # one pass: a part's type and sign before its order
        for p in parts:  # a bool or a float would pass as a number
            if type(p) is not int or p <= 0:
                raise ValueError(f"parts must be positive integers, got {parts}")
            if prev is not None and p >= prev:
                raise ValueError(f"parts must be strictly decreasing, got {parts}")
            prev = p
        object.__setattr__(self, "parts", parts)

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
        """Parse a comma-separated list such as "4,2,1"; "", "0" and "-"
        (what ``str`` prints for the empty partition) are empty."""
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
    """True iff mu fits inside lam row by row (mu zero-padded); ValueError
    unless both are strict partitions (a text or a tuple is not)."""
    for p in (mu, lam):
        if not isinstance(p, StrictPartition):
            raise ValueError(f"partition must be a StrictPartition, got {p!r}")
    if len(mu.parts) > len(lam.parts):
        return False
    return all(map(le, mu.parts, lam.parts))


class SkewShape(_Frozen):
    """A shifted skew diagram lam/mu; mu empty gives the straight shape."""

    _fields = ("outer", "inner")

    def __init__(self, outer: StrictPartition,
                 inner: StrictPartition = StrictPartition(())):
        if not is_subpartition(inner, outer):
            raise ValueError(f"{inner} is not contained in {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @cached_property
    def rows(self) -> tuple[tuple[Box, ...], ...]:
        """The boxes of each row 1..len(outer), left to right (maybe none)."""
        return tuple(tuple((i, j) for j in self.row_cols(i))
                     for i in range(1, self.outer.length + 1))

    @cached_property
    def row_major(self) -> tuple[Box, ...]:
        """The boxes row by row, left to right (the enumeration fill order)."""
        return sum(self.rows, ())

    @cached_property
    def boxes(self) -> frozenset[Box]:
        return frozenset(self.row_major)

    @cached_property
    def col_major(self) -> tuple[Box, ...]:
        """The boxes column by column, top of each column first: (i, j)
        precedes (i~, j~) iff j < j~, or j == j~ and i < i~."""
        return tuple(sorted(self.row_major, key=lambda b: (b[1], b[0])))

    @cached_property
    def size(self) -> int:
        """Number of boxes, |lam| - |mu|."""
        return self.outer.weight - self.inner.weight

    def row_cols(self, i: int) -> range:
        """Columns occupied by row i (possibly empty)."""
        return range(self.inner.part(i) + i, self.outer.part(i) + i)

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        """Parse "outer/inner" such as "6,4,3,1/4,2"; bare "4,2,1" is straight.
        Equal texts give the one shared shape (see ``_parse_skew``)."""
        return _parse_skew(text)

    def __str__(self) -> str:
        if self.inner:
            return f"{self.outer}/{self.inner}"
        return str(self.outer)

    def to_json(self) -> dict:
        """Its parts and its boxes in column-major order, read off the
        shape's index table."""
        table = _index_table(self.outer.parts, self.inner.parts)
        boxes = table.boxes
        return {
            "outer": list(self.outer.parts),
            "inner": list(self.inner.parts),
            "boxes": [list(boxes[k]) for k in table.col_order],
        }


@lru_cache(maxsize=256)
def _parse_skew(text: str) -> SkewShape:
    """The shape of ``SkewShape.parse``'s text, built once per text: a shape
    is frozen and its cached boxes and box orders are a frozenset and
    tuples, so the one object is shared.  A refused text raises on every
    call and is not kept."""
    if "/" in text:
        outer, inner = text.split("/", 1)
        return SkewShape(StrictPartition.parse(outer),
                         StrictPartition.parse(inner))
    return SkewShape(StrictPartition.parse(text))


_IndexTable = namedtuple("_IndexTable", "boxes left top pairs diagonal "
                         "col_order")


@lru_cache(maxsize=256)
def _index_table(outer: tuple, inner: tuple) -> _IndexTable:
    """The facts of outer/inner by row-major index k, which the walk, the
    tableau rules and iota read: the box at k; the index of its left and
    of its upper neighbor, or -1; rule 1's pairs (k, right neighbor), then
    (k, lower neighbor), k by k; the diagonal indices; and the indices in
    column-major order."""
    shape = SkewShape(StrictPartition(outer), StrictPartition(inner))
    boxes = shape.row_major
    index = {box: k for k, box in enumerate(boxes)}
    return _IndexTable(
        boxes, tuple(index.get((i, j - 1), -1) for i, j in boxes),
        tuple(index.get((i - 1, j), -1) for i, j in boxes),
        tuple((k, index[nb]) for k, (i, j) in enumerate(boxes)
              for nb in ((i, j + 1), (i + 1, j)) if nb in index),
        tuple(k for k, (i, j) in enumerate(boxes) if i == j),
        tuple(index[box] for box in shape.col_major))


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


@lru_cache(maxsize=4096)
def _strips_above(rho: tuple, lam: tuple) -> tuple[tuple, ...]:
    """Every strict nu inside lam with nu/rho a shifted horizontal strip:
    nu_(r+1) <= rho_r <= nu_r in every row r, rho zero-padded (rho inside
    lam).  This is the one statement of the interlacing rule: one letter
    fills nu/rho only for these nu, so they are the level recursion's
    transitions.  Row r of nu lies in [rho_r, min(lam_r, rho_(r-1))] and
    below nu_(r-1); only row len(rho) may be 0, and then nu ends there.
    Kept per (rho, lam), as every key of the recursion with that lam steps
    from rho through the same strips, whatever its mu, family and kind."""
    nus = [()]
    for r in range(min(len(rho) + 1, len(lam))):
        lo = rho[r] if r < len(rho) else 0
        top = lam[r] if r == 0 else min(lam[r], rho[r - 1])
        nus = [nu + (p,) if p else nu for nu in nus
               for p in range(lo, min(top, nu[r - 1] - 1 if r else top) + 1)]
    return tuple(nus)


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
    """Every strict mu inside lam, empty and lam included, in order of
    parts (``_subpartition_parts``)."""
    return map(StrictPartition, _subpartition_parts(lam.parts))


def _subpartition_parts(lam: tuple) -> list[tuple]:
    """The parts of every strict mu inside the strict parts lam, in order.
    The walk goes up lam's rows from the last: a mu's rows from r on are
    none, or a part p <= lam_r ahead of rows from r + 1 whose first part
    is below p, so each mu is made once, and in order."""
    tails = [()]
    for cap in reversed(lam):
        tails = [()] + [(p, *t) for p in range(1, cap + 1)
                        for t in tails if not t or t[0] < p]
    return tails


def skew_shapes(max_weight: int, skew: bool = True,
                with_empty: bool = False) -> Iterator[SkewShape]:
    """Every lam/mu with 0 < |lam| <= max_weight, lam in
    ``strict_partitions_up_to_weight``'s order and then mu in order of
    parts: every strict mu inside lam, or only the empty mu unless skew.
    The empty lam comes first if with_empty.  The one statement of the
    sweeps' domain, made as it is read."""
    for lam in strict_partitions_up_to_weight(max_weight):
        if lam or with_empty:
            inners = strict_subpartitions(lam) if skew else [StrictPartition()]
            for mu in inners:
                yield SkewShape(lam, mu)


def skew_shape_count(max_weight: int, skew: bool = True) -> int:
    """How many shapes ``skew_shapes(max_weight, skew)`` yields, with no
    shape built: the inner parts of each lam are only counted."""
    return sum(len(_subpartition_parts(lam.parts)) if skew else 1
               for lam in strict_partitions_up_to_weight(max_weight) if lam)
