"""Backtracking enumeration of shifted (set-valued) tableaux.

Boxes are filled row by row, left to right; candidate cell sets for a box
are tried in lexicographic order of their entry codes, so the emitted
sequence is canonical and deterministic.  The walk keeps the primed codes
of each row and the unprimed codes of each column as int bit masks, and
reads a box's candidate cells, with their code bits and letters, from a
table cached per (lowest code, step, 2n, taken mask, kind, size budget).
It carries each tableau's weight and entry count |T| as it places and
removes cells, so ``count`` and the generating-function definition
(``genfunc._tableau_sum``) read them at the leaves without building a
``Filling``; ``enumerate_fillings`` builds one per leaf.  A deliberately
naive enumerator over all subset assignments is provided for
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

from .shapes import SkewShape
from .tableaux import Filling, _check_family, _check_n, validate_cells

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
        _check_n(self.n)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.size_cap is not None and self.size_cap < self.shape.size:
            raise ValueError("size_cap smaller than the number of boxes")


def _candidate_cells(spec, box, cells, row_primed, col_unprimed):
    """Cell sets admissible at box given the partial filling, lex order.

    ``cells`` holds the boxes before box in row-major order;
    ``row_primed[i]`` and ``col_unprimed[j]`` are bit masks (bit c for code
    c) of the primed codes used in row i and the unprimed codes used in
    column j.  Admissible codes are bounded below by the max of the left
    and top neighbors (weak; the equal-letter exclusions are exactly the
    row/column multiplicity rules), exclude primed letters already used in
    the row and unprimed letters already used in the column, and exclude
    primed letters on the diagonal for family P; a size cap bounds each
    cell by what the boxes after it leave.  Each candidate comes from
    ``_cell_table`` as (cell, primed bits, unprimed bits, letters);
    ``minimal_tableau`` takes the first.
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
    budget = None
    if spec.size_cap is not None and spec.kind != "single":
        used = sum(len(c) for c in cells.values())
        remaining_boxes = spec.shape.size - len(cells) - 1
        budget = spec.size_cap - used - remaining_boxes
    return _cell_table(lo, step, 2 * spec.n, row_primed[i] | col_unprimed[j],
                       spec.kind, budget)


@lru_cache(maxsize=1 << 10)
def _cell_table(lo: int, step: int, top: int, taken: int, kind: str,
                budget: int | None) -> tuple:
    """The cells over codes lo, lo + step, ... <= top outside the bit mask
    ``taken``: single codes, or nonempty sets of at most ``budget`` codes
    (None: no bound), in lex order.  Each comes with the bits of its primed
    (odd) and unprimed (even) codes and its letters, code 2l - 1 being l'
    and 2l being l, letter l counting at l - 1."""
    allowed = [c for c in range(lo, top + 1, step) if not taken >> c & 1]
    if kind == "single":
        cells = [(c,) for c in allowed]
    else:
        most = len(allowed) if budget is None else min(len(allowed), budget)
        cells = sorted(cell for k in range(1, most + 1)
                       for cell in combinations(allowed, k))
    out = []
    for cell in cells:
        bits = [0, 0]  # unprimed, primed
        for c in cell:
            bits[c & 1] |= 1 << c
        out.append((cell, bits[1], bits[0], tuple((c - 1) >> 1 for c in cell)))
    return tuple(out)


def _leaves(spec: EnumSpec) -> Iterator[tuple[dict, list, int]]:
    """The backtracking walk: ``(cells, counts, size)`` at each leaf.

    ``cells`` maps the boxes to their cells in row-major order;
    ``counts[k]`` is the number of entries with letter k + 1 (the weight)
    and ``size`` the number of entries, |T|.  The walk adds a placed cell's
    letters to the counts and its code bits to the row and column masks,
    and takes them off on backtrack, so ``cells`` and ``counts`` are its
    own and hold only until the next step.  An explicit stack of one
    candidate iterator per box on the path hands each leaf out once.
    """
    shape = spec.shape
    boxes = shape.row_major
    row_primed = [0] * (shape.outer.length + 1)
    col_unprimed = [0] * (shape.outer.part(1) + 1)
    cells: dict = {}
    counts = [0] * spec.n
    choices, placed = [None] * len(boxes), [None] * len(boxes)
    k = size = 0
    while k >= 0:
        if k == len(boxes):
            yield cells, counts, size
            k -= 1
            continue
        i, j = box = boxes[k]
        if choices[k] is None:
            choices[k] = iter(_candidate_cells(spec, box, cells, row_primed,
                                               col_unprimed))
        else:  # take the standing cell off; its bits are in the masks
            cell, primed, unprimed, letters = placed[k]
            row_primed[i] ^= primed
            col_unprimed[j] ^= unprimed
            for letter in letters:
                counts[letter] -= 1
            size -= len(cell)
        placed[k] = next(choices[k], None)
        if placed[k] is None:  # box k is exhausted: back up
            choices[k] = None
            cells.pop(box, None)
            k -= 1
            continue
        # the cell's codes are outside both masks, so ^ sets and clears
        cells[box], primed, unprimed, letters = placed[k]
        row_primed[i] ^= primed
        col_unprimed[j] ^= unprimed
        for letter in letters:
            counts[letter] += 1
        size += len(cells[box])
        k += 1


def enumerate_fillings(spec: EnumSpec, keep=None) -> Iterator[Filling]:
    """Every valid filling exactly once, in canonical order.

    With ``keep``, a leaf's filling is built and yielded only if
    ``keep(cells)`` is true, ``cells`` being its cells in row-major order
    as a tuple; it is called as the walk reaches the leaf.
    """
    shape, n, family = spec.shape, spec.n, spec.family
    # row-major keys and sorted, in-range candidate cells: canonical
    return (Filling(shape, n, family, dict(cells), _trusted=True)
            for cells, _, _ in _leaves(spec)
            if keep is None or keep(tuple(cells.values())))


def count(spec: EnumSpec) -> int:
    """Number of valid fillings: the walk's leaves, no ``Filling`` built."""
    return sum(1 for _ in _leaves(spec))


def naive_oracle(spec: EnumSpec) -> Iterator[Filling]:
    """All subset assignments to boxes, filtered by the tableau rules.

    Guarded to at most 5 boxes and n <= 2; the point is independence from
    the backtracking logic, not speed.  Each assignment is tested as raw
    cells; a ``Filling`` is built only for the ones that pass.
    """
    if spec.shape.size > ORACLE_MAX_BOXES or spec.n > ORACLE_MAX_N:
        raise ValueError("oracle scale exceeded")
    shape, cap = spec.shape, spec.size_cap
    codes = range(1, 2 * spec.n + 1)
    sizes = (1,) if spec.kind == "single" else range(1, len(codes) + 1)
    pool = sorted(cell for k in sizes for cell in combinations(codes, k))
    return (Filling(shape, spec.n, spec.family,
                    dict(zip(shape.row_major, cells)))
            for cells in product(pool, repeat=shape.size)
            if (cap is None or sum(map(len, cells)) <= cap)
            and validate_cells(shape, spec.family, cells))
