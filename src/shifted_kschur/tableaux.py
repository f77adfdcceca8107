"""Primed alphabet, cell sets, fillings and their validity rules.

An entry is encoded as an integer code e in 1..2n: code 2k-1 is the primed
letter k', code 2k the unprimed letter k.  Integer order on codes realizes
1' < 1 < 2' < 2 < ... < n' < n, and the numeric value of code e is exactly
e/2 (so k' = k - 1/2 without rational arithmetic).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .shapes import Box, SkewShape, StrictPartition

CellSet = tuple[int, ...]  # strictly increasing entry codes, nonempty

FAMILIES = ("P", "Q")


def primed(code: int) -> bool:
    return code % 2 == 1


def letter(code: int) -> int:
    return (code + 1) // 2


def entry_str(code: int) -> str:
    return f"{letter(code)}'" if primed(code) else str(letter(code))


def entry_from_str(text: str) -> int:
    text = text.strip()
    if text.endswith("'"):
        return 2 * int(text[:-1]) - 1
    return 2 * int(text)


def cell_from_strs(entries) -> CellSet:
    return tuple(sorted(entry_from_str(e) for e in entries))


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family must be P or Q, got {family!r}")


def _check_cell(box: Box, cell: CellSet, n: int) -> None:
    """Raise ValueError unless the sorted cell is nonempty, without
    repeats, with every entry code in 1..2n."""
    if not cell:
        raise ValueError(f"empty cell at {box}")
    if len(set(cell)) != len(cell):
        raise ValueError(f"duplicate entries at {box}")
    if not (1 <= cell[0] and cell[-1] <= 2 * n):
        raise ValueError(f"entry out of range 1..{2 * n} at {box}")


class ValidationResult(NamedTuple):
    ok: bool
    violation: str | None

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationResult(True, None)


class Filling:
    """An assignment of one nonempty cell set to every box of a shape.

    ``cells`` is kept canonical: keys in row-major order, each cell a
    strictly increasing tuple of entry codes in 1..2n.
    """

    __slots__ = ("shape", "n", "family", "cells", "_key")

    def __init__(self, shape: SkewShape, n: int, family: str, cells: dict,
                 *, _trusted: bool = False):
        """Check and canonicalize ``cells``; ValueError on a fault.

        ``_trusted=True`` skips the checks and the sorting.  It is for the
        package's own constructions whose cells are canonical already
        (enumerator leaves, minimal tableaux, ``with_cell``, checked rows).
        """
        if not _trusted:
            _check_family(family)
            if set(cells) != shape.boxes:
                raise ValueError(
                    "cells must cover exactly the boxes of the shape")
            canonical = {}
            for box in shape.row_major:
                cell = tuple(sorted(cells[box]))
                _check_cell(box, cell, n)
                canonical[box] = cell
            cells = canonical
        self.shape = shape
        self.n = n
        self.family = family
        self.cells = cells
        self._key = (shape.outer.parts, shape.inner.parts, n, family,
                     tuple(cells.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Filling) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        rows = [" ".join(",".join(entry_str(c) for c in self.cells[box])
                         for box in row) for row in self.shape.rows]
        return f"Filling({self.shape}; " + " | ".join(rows) + ")"

    def size(self) -> int:
        """Total number of entries over all boxes, |T|."""
        return sum(len(cell) for cell in self.cells.values())

    def weight(self) -> tuple[int, ...]:
        """Occurrences of k' plus occurrences of k, for each letter k."""
        counts = [0] * self.n
        for cell in self.cells.values():
            for code in cell:
                counts[letter(code) - 1] += 1
        return tuple(counts)

    def is_single_valued(self) -> bool:
        return all(len(cell) == 1 for cell in self.cells.values())

    def with_cell(self, box: Box, cell) -> "Filling":
        """This filling with the cell at box replaced (checked)."""
        if box not in self.cells:
            raise ValueError(f"{box} is not a box of {self.shape}")
        cell = tuple(sorted(cell))
        _check_cell(box, cell, self.n)
        cells = dict(self.cells)
        cells[box] = cell
        return Filling(self.shape, self.n, self.family, cells, _trusted=True)

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "n": self.n,
            "family": self.family,
            "rows": [[[entry_str(c) for c in self.cells[box]]
                      for box in row] for row in self.shape.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Filling":
        shape = SkewShape(
            StrictPartition(tuple(data["shape"]["outer"])),
            StrictPartition(tuple(data["shape"]["inner"])),
        )
        return filling_from_rows(shape, data["n"], data["family"],
                                 data["rows"])


def _cells_from_rows(shape: SkewShape, n: int, rows, memo: dict) -> tuple:
    """The row-major cell tuple of per-row lists of cells given as entry
    strings; ValueError on a fault.

    ``rows`` holds one list per row of the outer shape, with one cell per
    box of that row, each cell a list of entry strings.  Entry strings
    parse as ``entry_from_str`` does, and the cells get the checks
    ``Filling`` makes.  ``memo`` maps a cell's entry-string tuple to its
    checked codes at this n, so each distinct cell is parsed and checked
    once; a cell that fails is never stored.
    """
    if len(rows) != len(shape.rows):
        raise ValueError(f"{len(rows)} rows, want {len(shape.rows)}")
    cells = []
    for i, (boxes, row) in enumerate(zip(shape.rows, rows), start=1):
        if type(row) is not list:
            raise ValueError(f"row {i} is not a list")
        if len(boxes) != len(row):
            raise ValueError(f"row {i} needs {len(boxes)} cells, "
                             f"got {len(row)}")
        for box, strs in zip(boxes, row):
            if type(strs) is not list:
                raise ValueError(f"cell at {box} is not a list")
            try:
                cell = memo[tuple(strs)]
            except (KeyError, TypeError):  # a new cell, or not hashable
                cell = cell_from_strs(strs)
                _check_cell(box, cell, n)
                memo[tuple(strs)] = cell  # it parsed: its entries are str
            cells.append(cell)
    return tuple(cells)


def filling_from_rows(shape: SkewShape, n: int, family: str, rows) -> Filling:
    """Build a filling from per-row lists of cells given as entry strings.

    The rows parse and check as in ``_cells_from_rows``; a fault raises
    ValueError.
    """
    _check_family(family)
    cells = _cells_from_rows(shape, n, rows, {})
    return Filling(shape, n, family, dict(zip(shape.row_major, cells)),
                   _trusted=True)


@lru_cache(maxsize=256)
def _rule_table(outer: tuple, inner: tuple, family: str) -> tuple:
    """The tableau rules of outer/inner and family, by row-major index.

    Returns (boxes, pairs, rows, cols, diagonal): the row-major boxes; the
    index pairs (a, b) of each box and its right, then its lower,
    neighbor, box by box, which rule 1 reads; the row and the column of
    each index; and, for family P, the indices of the diagonal boxes
    (rule 4), none for Q.
    """
    boxes = SkewShape(StrictPartition(outer),
                      StrictPartition(inner)).row_major
    index = {box: k for k, box in enumerate(boxes)}
    pairs = tuple((k, index[nb]) for k, (i, j) in enumerate(boxes)
                  for nb in ((i, j + 1), (i + 1, j)) if nb in index)
    diagonal = tuple(k for k, (i, j) in enumerate(boxes)
                     if family == "P" and i == j)
    return (boxes, pairs, tuple(i for i, _ in boxes),
            tuple(j for _, j in boxes), diagonal)


def validate(f: Filling) -> ValidationResult:
    """Check the set-valued tableau rules, reporting the first violation."""
    return validate_cells(f.shape, f.family, tuple(f.cells.values()))


def validate_cells(shape: SkewShape, family: str,
                   cells: tuple) -> ValidationResult:
    """The set-valued tableau rules on raw cells, first violation reported.

    ``cells`` holds the cells of the shape's boxes in row-major order,
    each a nonempty, strictly increasing tuple of entry codes (what
    ``Filling`` guarantees).
    (1) max of a cell <= min of its right and lower neighbors;
    (2) each unprimed letter appears at most once in each column;
    (3) each primed letter appears at most once in each row;
    (4) family P only: diagonal cells contain unprimed entries only.
    Rule 1 reads the shape's neighbor pairs from ``_rule_table``.  Rules 2
    and 3 keep one int bit mask per row and per column: bit e of a row's
    (column's) mask is set once the primed (unprimed) code e is seen there.
    """
    boxes, pairs, rows, cols, diagonal = _rule_table(
        shape.outer.parts, shape.inner.parts, family)
    for a, b in pairs:
        if cells[a][-1] > cells[b][0]:
            return ValidationResult(
                False, f"max of {boxes[a]} exceeds min of {boxes[b]} "
                       f"(rule 1)")
    # no row or column number is past the first row's length
    row_seen = [0] * (shape.outer.part(1) + 1)
    col_seen = row_seen[:]
    for k, cell in enumerate(cells):
        for code in cell:
            bit = 1 << code
            if code & 1:  # primed
                i = rows[k]
                if row_seen[i] & bit:
                    return _repeat(boxes, rows, cells, k, code, "row", 3)
                row_seen[i] |= bit
            else:
                j = cols[k]
                if col_seen[j] & bit:
                    return _repeat(boxes, cols, cells, k, code, "column", 2)
                col_seen[j] |= bit
    for k in diagonal:
        for code in cells[k]:
            if code & 1:
                return ValidationResult(
                    False,
                    f"primed entry on the diagonal at {boxes[k]} (rule 4)")
    return _VALID


def _repeat(boxes: tuple, lines: tuple, cells: tuple, k: int, code: int,
            name: str, rule: int) -> ValidationResult:
    """The violation of ``code`` at index k repeating in the row or column
    ``lines[k]``: the first repeat, so one earlier index of that line
    holds the code, and a scan back finds it."""
    first = next(a for a in range(k)
                 if lines[a] == lines[k] and code in cells[a])
    return ValidationResult(
        False, f"{entry_str(code)} repeats in {name} {lines[k]} "
               f"({boxes[first]} and {boxes[k]}) (rule {rule})")
