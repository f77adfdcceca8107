"""Backtracking enumeration of shifted (set-valued) tableaux.

Boxes are filled row by row, left to right; candidate cell sets for a box
are tried in lexicographic order of their entry codes, so the emitted
sequence is canonical and deterministic.  A deliberately naive enumerator
over all subset assignments is provided for cross-validation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .shapes import SkewShape
from .tableaux import Filling, _check_family, primed, validate_cells

KINDS = ("single", "set-valued")

ORACLE_MAX_BOXES = 5
ORACLE_MAX_N = 2


@dataclass(frozen=True)
class EnumSpec:
    shape: SkewShape
    n: int
    family: str  # "P" or "Q"
    kind: str = "set-valued"
    size_cap: int | None = None

    def __post_init__(self):
        _check_family(self.family)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.size_cap is not None and self.size_cap < self.shape.size:
            raise ValueError("size_cap smaller than the number of boxes")


def _candidate_cells(spec, box, cells, row_primed, col_unprimed):
    """Cell sets admissible at box given the partial filling, lex order.

    ``cells`` holds the boxes before box in row-major order;
    ``row_primed[i]`` and ``col_unprimed[j]`` (defaultdicts of sets) hold
    the primed codes used in row i and the unprimed codes used in column j.
    Admissible codes are bounded below by the max of the left and top
    neighbors (weak; the equal-letter exclusions are exactly the row/column
    multiplicity rules), exclude primed letters already used in the row and
    unprimed letters already used in the column, and exclude primed letters
    on the diagonal for family P.  ``minimal_tableau`` takes the first cell.
    """
    i, j = box
    lo = 1
    left = cells.get((i, j - 1))
    if left:
        lo = left[-1]
    top = cells.get((i - 1, j))
    if top and top[-1] > lo:
        lo = top[-1]
    step = 1
    if spec.family == "P" and i == j:
        lo += lo & 1  # the even codes, unprimed letters only
        step = 2
    taken = row_primed[i] | col_unprimed[j]
    allowed = [c for c in range(lo, 2 * spec.n + 1, step) if c not in taken]
    if spec.kind == "single":
        return [(c,) for c in allowed]
    budget = len(allowed)
    if spec.size_cap is not None:
        used = sum(len(c) for c in cells.values())
        remaining_boxes = spec.shape.size - len(cells) - 1
        budget = min(budget, spec.size_cap - used - remaining_boxes)
    out = []
    for k in range(1, budget + 1):
        out.extend(combinations(allowed, k))
    out.sort()
    return out


def enumerate_fillings(spec: EnumSpec) -> Iterator[Filling]:
    """Every valid filling exactly once, in canonical order."""
    boxes = spec.shape.row_major
    row_primed, col_unprimed = defaultdict(set), defaultdict(set)
    cells: dict = {}

    def fill(k: int) -> Iterator[Filling]:
        if k == len(boxes):
            # row-major keys and sorted, in-range candidate cells: canonical
            yield Filling(spec.shape, spec.n, spec.family, dict(cells),
                          _trusted=True)
            return
        box = boxes[k]
        i, j = box
        for cell in _candidate_cells(spec, box, cells, row_primed, col_unprimed):
            cells[box] = cell
            for code in cell:
                (row_primed[i] if primed(code) else col_unprimed[j]).add(code)
            yield from fill(k + 1)
            for code in cell:
                (row_primed[i] if primed(code) else col_unprimed[j]).discard(code)
            del cells[box]

    return fill(0)


def count(spec: EnumSpec) -> int:
    """Number of valid fillings, without materializing them."""
    return sum(1 for _ in enumerate_fillings(spec))


def naive_oracle(spec: EnumSpec) -> Iterator[Filling]:
    """All subset assignments to boxes, filtered by the tableau rules.

    Guarded to at most 5 boxes and n <= 2; the point is independence from
    the backtracking logic, not speed.  Each assignment is tested as raw
    cells; a ``Filling`` is built only for the ones that pass.
    """
    if spec.shape.size > ORACLE_MAX_BOXES or spec.n > ORACLE_MAX_N:
        raise ValueError("oracle scale exceeded")
    boxes = spec.shape.row_major
    codes = range(1, 2 * spec.n + 1)
    if spec.kind == "single":
        pool = [(c,) for c in codes]
    else:
        pool = []
        for k in range(1, 2 * spec.n + 1):
            pool.extend(combinations(codes, k))
        pool.sort()

    def assign(k: int, cells: dict) -> Iterator[Filling]:
        if k == len(boxes):
            if (spec.size_cap is None
                    or sum(map(len, cells.values())) <= spec.size_cap) \
                    and validate_cells(spec.shape, spec.family, cells):
                yield Filling(spec.shape, spec.n, spec.family, dict(cells))
            return
        for cell in pool:
            cells[boxes[k]] = cell
            yield from assign(k + 1, cells)
            del cells[boxes[k]]

    return assign(0, {})
