"""Backtracking enumeration of shifted (set-valued) tableaux.

Boxes are filled row by row, left to right, onto a list of cells, with
neighbors read from ``shapes._index_table``; candidate cell sets for a box
are tried in lexicographic order of their entry codes, so the emitted
sequence is canonical and deterministic.  The walk keeps the primed codes
of each row and the unprimed codes of each column as int bit masks, and
reads a box's candidate cells, with their code bits and letters, from a
table cached per (lowest code, step, 2n, taken mask, kind).  It carries
each tableau's weight and entry count |T| as it places and removes cells,
so ``count`` and the generating-function definition
(``genfunc._tableau_sum``) read them at the leaves without building a
``Filling``; ``enumerate_fillings`` builds one per leaf.  The walk is the
definition and the oracle the branching engine is tested against, not the
production path for counts; ``naive_oracle``, judged by ``validate_cells``
alone, cross-checks it.  A request is the ``FunctionSpec`` of the family
walked, as ``EnumSpec`` builds it from P or Q and a kind.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .shapes import SkewShape, StrictPartition, _index_table
from .tableaux import Filling, FunctionSpec, _check_family, validate_cells

KINDS = ("single", "set-valued")

ORACLE_MAX_BOXES = 7
ORACLE_MAX_N = 2


def EnumSpec(shape: SkewShape, n: int, family: str,
             kind: str = "set-valued") -> FunctionSpec:
    """The walk's request for family P or Q and a kind: the engine's
    request of the family whose tableaux it walks."""
    _check_family(family)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return FunctionSpec(family if kind == "single" else "G" + family, shape, n)


def _candidate_cells(spec, k, cells, row_primed, col_unprimed, table):
    """Cell sets admissible at row-major index k, lex order.

    ``cells`` holds the cells of indices 0 to k - 1, ``table`` is the
    shape's ``shapes._index_table``; ``row_primed[i]`` and
    ``col_unprimed[j]`` are bit masks (bit c for code c) of the primed
    codes used in row i and the unprimed codes used in column j.
    Admissible codes are bounded below by the max of the left
    and top neighbors (weak; the equal-letter exclusions are exactly the
    row/column multiplicity rules), exclude primed letters already used in
    the row and unprimed letters already used in the column, and exclude
    primed letters on the diagonal for family P.  Each candidate comes from
    ``_cell_table`` as (cell, primed bits, unprimed bits, letters);
    ``minimal_tableau`` takes the first.
    """
    i, j = table.boxes[k]
    lo = 1
    left, top = table.left[k], table.top[k]
    if left >= 0:
        lo = cells[left][-1]
    if top >= 0 and cells[top][-1] > lo:
        lo = cells[top][-1]
    step = 1
    if spec.base_family == "P" and i == j:
        lo += lo & 1  # the even codes, unprimed letters only
        step = 2
    return _cell_table(lo, step, 2 * spec.n, row_primed[i] | col_unprimed[j],
                       spec.kind)


@lru_cache(maxsize=1 << 10)
def _cell_table(lo: int, step: int, top: int, taken: int, kind: str) -> tuple:
    """The cells over codes lo, lo + step, ... <= top outside the bit mask
    ``taken``: single codes, or every nonempty set of them, in lex order.
    Each comes with the bits of its primed (odd) and unprimed (even) codes
    and its letters, code 2l - 1 being l' and 2l being l, letter l counting
    at l - 1."""
    allowed = [c for c in range(lo, top + 1, step) if not taken >> c & 1]
    if kind == "single":
        cells = [(c,) for c in allowed]
    else:
        cells = sorted(cell for k in range(1, len(allowed) + 1)
                       for cell in combinations(allowed, k))
    out = []
    for cell in cells:
        bits = [0, 0]  # unprimed, primed
        for c in cell:
            bits[c & 1] |= 1 << c
        out.append((cell, bits[1], bits[0], tuple((c - 1) >> 1 for c in cell)))
    return tuple(out)


def _leaves(spec: FunctionSpec) -> Iterator[tuple[list, list, int]]:
    """The backtracking walk: ``(cells, counts, size)`` at each leaf.

    ``cells`` lists the cells in row-major order; ``counts[k]`` is the
    number of entries with letter k + 1 (the weight) and ``size`` the
    number of entries, |T|.  The walk appends a placed cell to ``cells``,
    its letters to the counts and its code bits to the row and column
    masks, and takes them off on backtrack, so ``cells`` and ``counts`` are
    its own and hold only until the next step.  An explicit stack of one
    candidate iterator per box on the path hands each leaf out once.
    """
    shape = spec.shape
    table = _index_table(shape.outer.parts, shape.inner.parts)
    boxes = table.boxes
    row_primed = [0] * (shape.outer.length + 1)
    col_unprimed = [0] * (shape.outer.part(1) + 1)
    cells: list = []
    counts = [0] * spec.n
    choices, placed = [None] * len(boxes), [None] * len(boxes)
    k = size = 0
    while k >= 0:
        if k == len(boxes):
            yield cells, counts, size
            k -= 1
            continue
        i, j = boxes[k]
        if choices[k] is None:
            choices[k] = iter(_candidate_cells(spec, k, cells, row_primed,
                                               col_unprimed, table))
        else:  # take the standing cell off; its bits are in the masks
            _, primed, unprimed, letters = placed[k]
            row_primed[i] ^= primed
            col_unprimed[j] ^= unprimed
            for letter in letters:
                counts[letter] -= 1
            size -= len(cells.pop())
        placed[k] = next(choices[k], None)
        if placed[k] is None:  # box k is exhausted: back up
            choices[k] = None
            k -= 1
            continue
        # the cell's codes are outside both masks, so ^ sets and clears
        cell, primed, unprimed, letters = placed[k]
        cells.append(cell)
        row_primed[i] ^= primed
        col_unprimed[j] ^= unprimed
        for letter in letters:
            counts[letter] += 1
        size += len(cell)
        k += 1


def enumerate_fillings(spec: FunctionSpec, keep=None) -> Iterator[Filling]:
    """Every valid filling exactly once, in canonical order.

    With ``keep``, a leaf's filling is built and yielded only if
    ``keep(cells)`` is true, ``cells`` being the row-major cell tuple the
    filling then holds; it is called as the walk reaches the leaf.
    """
    shape, n, family = spec.shape, spec.n, spec.base_family
    # row-major order and sorted, in-range candidate cells: canonical
    leaves = (tuple(cells) for cells, _, _ in _leaves(spec))
    return (Filling(shape, n, family, cells, _trusted=True)
            for cells in leaves if keep is None or keep(cells))


def count(spec: FunctionSpec) -> int:
    """Number of valid fillings: the walk's leaves, no ``Filling`` built."""
    return sum(1 for _ in _leaves(spec))


def naive_oracle(spec: FunctionSpec) -> Iterator[Filling]:
    """All subset assignments to boxes that ``validate_cells`` accepts, in
    lex order; at most 7 boxes and n <= 2, for independence, not speed.

    Boxes are filled in row-major order with every cell, and a tuple is
    kept if ``validate_cells`` accepts the prefix it fills: at box (i, j)
    the skew shape (lam_1..lam_(i-1), j - i + 1)/(mu_1..mu_i).  Each rule
    is a condition on one box (rule 4) or two (rules 1-3), and a prefix's
    boxes and pairs are the whole shape's: the rules are prefix-closed, so
    the kept tuples are the full product's valid ones, in its order.
    """
    if spec.shape.size > ORACLE_MAX_BOXES or spec.n > ORACLE_MAX_N:
        raise ValueError("oracle scale exceeded")
    shape, family = spec.shape, spec.base_family
    codes = range(1, 2 * spec.n + 1)
    sizes = (1,) if spec.kind == "single" else range(1, len(codes) + 1)
    pool = sorted(cell for k in sizes for cell in combinations(codes, k))
    lam, mu = shape.outer.parts, shape.inner.parts
    tuples = [()]
    for i, j in shape.row_major:
        prefix = SkewShape(StrictPartition(lam[:i - 1] + (j - i + 1,)),
                           StrictPartition(mu[:i]))
        tuples = [cells + (cell,) for cells in tuples for cell in pool
                  if not validate_cells(prefix, family, cells + (cell,))]
    return (Filling(shape, spec.n, family, cells) for cells in tuples)
