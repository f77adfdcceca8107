"""Backtracking enumeration of shifted (set-valued) tableaux.

Boxes are filled row by row, left to right, onto a list of cells, with
neighbors read from ``shapes._index_table``; candidate cell sets for a box
are tried in lexicographic order of their entry codes, so the emitted
sequence is canonical and deterministic.  A box's least code is read
from its left and upper neighbors' cells alone (``_least_code``; fact A,
in ``validate_cells``), by the walk and the minimal tableau's fill alike;
the walk reads its candidate cells, with their letters, from a table
cached per (least code, step, highest code, kind); the highest code is
the box's ceiling (``_ceilings``): on every nonempty
set tried the walk enters no box whose later boxes cannot be filled, but
on an empty set it searches the dead tree.  It carries each tableau's
weight and entry count |T| as it places and removes cells, so ``count``
and the generating-function definition (``genfunc._tableau_sum``) read
them at the leaves without building a ``Filling``; ``enumerate_fillings``
builds one per leaf.  The walk is the definition and the oracle the
branching engine is tested against, not the production path for counts;
``naive_oracle``, judged by ``validate_cells`` alone, cross-checks it.  A
request is the ``FunctionSpec`` of the family walked, as ``EnumSpec``
builds it from P or Q and a kind.
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


def _least_code(family: str, k: int, cells: list, table) -> tuple:
    """(lo, step): the least code row-major index k may hold and the step
    between its codes, from its left and top neighbors alone (fact B).

    ``cells`` holds the cells of indices 0 to k - 1 and ``table`` is the
    shape's ``shapes._index_table``.  lo is at least the max of the left
    and top neighbors (weak), and even on the diagonal for family P, where
    step is 2.  It is raised a step if it is primed and the left
    neighbor's max, or unprimed and the top neighbor's max: the earlier
    codes of the row (column) are at most that neighbor's max, so no
    other code can repeat there.  ``_leaves`` reads the box's candidates
    from ``_cell_table``; ``_minimal_cells`` takes (lo,).
    """
    i, j = table.boxes[k]
    left, top = table.left[k], table.top[k]
    left_max = cells[left][-1] if left >= 0 else 0
    top_max = cells[top][-1] if top >= 0 else 0
    lo = max(left_max, top_max, 1)
    step = 1
    if family == "P" and i == j:
        lo += lo & 1  # the even codes, unprimed letters only
        step = 2
    if lo == (left_max if lo & 1 else top_max):  # a repeat in row or column
        lo += step
    return lo, step


@lru_cache(maxsize=256)
def _ceilings(outer: tuple, inner: tuple, top: int) -> tuple:
    """The highest code each box of outer/inner can hold in a tableau of
    codes at most top, by row-major index: a code past it leaves some
    later box no cell, so the walk would enter a dead end there.

    A box's codes are at most the lowest code of its right neighbour, and
    equal to it only if that code is unprimed (even), as a primed code
    may not repeat along a row; they are at most the lowest code of the
    box below, and equal to it only if it is primed (odd), as an unprimed
    code may not repeat down a column.  That lowest code is at most the
    neighbour's own ceiling c, so the bound is c if c is even, else c - 1,
    from the right, and c if c is odd, else c - 1, from below.  Both
    neighbours come later in row-major order, so one backward pass over
    the boxes gives every ceiling.  Family P's rule that a diagonal box
    holds even codes only lowers no ceiling: a diagonal box has no box
    below, so its ceiling, top or a bound from the right, is even already.
    """
    table = _index_table(outer, inner)
    tops = [top] * len(table.boxes)
    for k in range(len(tops) - 1, -1, -1):
        c = tops[k]
        left, above = table.left[k], table.top[k]
        if left >= 0:
            tops[left] = min(tops[left], c - (c & 1))
        if above >= 0:
            tops[above] = min(tops[above], c - 1 + (c & 1))
    return tuple(tops)


@lru_cache(maxsize=1 << 10)
def _cell_table(lo: int, step: int, top: int, kind: str) -> tuple:
    """The cells over codes lo, lo + step, ... <= top: single codes, or
    every nonempty set of them, in lex order.  Each comes with its letters,
    code 2l - 1 being l' and 2l being l, letter l counting at l - 1."""
    allowed = range(lo, top + 1, step)
    if kind == "single":
        cells = [(c,) for c in allowed]
    else:
        cells = sorted(cell for k in range(1, len(allowed) + 1)
                       for cell in combinations(allowed, k))
    return tuple((cell, tuple((c - 1) >> 1 for c in cell)) for cell in cells)


def _leaves(spec: FunctionSpec) -> Iterator[tuple[list, list, int]]:
    """The backtracking walk: ``(cells, counts, size)`` at each leaf.

    ``cells`` lists the cells in row-major order; ``counts[k]`` is the
    number of entries with letter k + 1 (the weight) and ``size`` the
    number of entries, |T|.  The walk appends a placed cell to ``cells``
    and its letters to the counts, and takes them off on backtrack, so
    ``cells`` and ``counts`` are its own and hold only until the next
    step.  An explicit stack of one candidate iterator per box on the path
    hands each leaf out once.
    """
    family, kind = spec.base_family, spec.kind
    outer, inner = spec.shape.outer.parts, spec.shape.inner.parts
    table = _index_table(outer, inner)
    tops = _ceilings(outer, inner, 2 * spec.n)
    end = len(table.boxes)
    cells: list = []
    counts = [0] * spec.n
    choices, placed = [None] * end, [None] * end
    k = size = 0
    while k >= 0:
        if k == end:
            yield cells, counts, size
            k -= 1
            continue
        if choices[k] is None:
            lo, step = _least_code(family, k, cells, table)
            choices[k] = iter(_cell_table(lo, step, tops[k], kind))
        else:  # take the standing cell off
            for letter in placed[k][1]:
                counts[letter] -= 1
            size -= len(cells.pop())
        placed[k] = next(choices[k], None)
        if placed[k] is None:  # box k is exhausted: back up
            choices[k] = None
            k -= 1
            continue
        cell, letters = placed[k]
        cells.append(cell)
        for letter in letters:
            counts[letter] += 1
        size += len(cell)
        k += 1


def _minimal_cells(outer: tuple, inner: tuple, family: str,
                   n: int) -> tuple | None:
    """The row-major cells of outer/inner's minimal tableau, or None if it
    has no single-valued tableau; ``minimal_tableau`` checks family and n.

    Greedy row-major fill, fact B as written: each box takes its
    ``_least_code`` alone, and the fill stops at the first box whose least
    code is past its ceiling.  It equals the walk's first single-valued
    leaf on 3,560 keys (every lam/mu with |lam| <= 9, n <= 5, P and Q), and
    is None exactly when the engine counts no tableau on 28,890
    (0 < |lam| <= 14).  That first leaf searches an empty set's dead tree:
    on Q 16,5,4,3,2,1/5 at n = 4 it reads 11,958 candidate tables (12 ms)
    to the fill's 12 least codes (0.02 ms), on P 10,3,2,1/3 at n = 2 106
    to 8, and the 206 empty tables it read on |lam| <= 8, n <= 3 were all
    on empty sets.  Gated by the engine's count, it builds engine tables
    the certificate path never needs.  It is not kept: it reads one least
    code per box, from the kept index table and ceilings.
    """
    table = _index_table(outer, inner)
    cells: list = []
    for k, top in enumerate(_ceilings(outer, inner, 2 * n)):
        lo, _ = _least_code(family, k, cells, table)
        if lo > top:
            return None
        cells.append((lo,))
    return tuple(cells)


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
