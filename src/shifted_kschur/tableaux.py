"""Primed alphabet, cell sets, fillings and their validity rules.

An entry is encoded as an integer code e in 1..2n: code 2k-1 is the primed
letter k', code 2k the unprimed letter k.  Integer order on codes realizes
1' < 1 < 2' < 2 < ... < n' < n, and the numeric value of code e is exactly
e/2 (so k' = k - 1/2 without rational arithmetic).
"""

from __future__ import annotations

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


def filling_from_rows(shape: SkewShape, n: int, family: str, rows,
                      memo: dict | None = None) -> Filling:
    """Build a filling from per-row lists of cells given as entry strings.

    ``rows`` holds one list per row of the outer shape, with one cell per
    box of that row.  Entry strings parse as ``entry_from_str`` does, and
    the cells get the checks ``Filling`` makes; a fault raises ValueError.
    Callers parsing many fillings with one n may share a ``memo`` from a
    cell's entry-string tuple to its checked codes, so each distinct cell
    is parsed and checked once; a cell that fails is never stored.
    """
    _check_family(family)
    if len(rows) != len(shape.rows):
        raise ValueError(f"{len(rows)} rows, want {len(shape.rows)}")
    memo = {} if memo is None else memo
    cells = {}
    for i, (boxes, row) in enumerate(zip(shape.rows, rows), start=1):
        if len(boxes) != len(row):
            raise ValueError(f"row {i} needs {len(boxes)} cells, "
                             f"got {len(row)}")
        for box, strs in zip(boxes, row):
            try:
                cell = memo[tuple(strs)]
            except (KeyError, TypeError):  # a new cell, or not hashable
                cell = cell_from_strs(strs)
                _check_cell(box, cell, n)
                memo[tuple(strs)] = cell  # it parsed: its entries are str
            cells[box] = cell
    return Filling(shape, n, family, cells, _trusted=True)


def validate(f: Filling) -> ValidationResult:
    """Check the set-valued tableau rules, reporting the first violation."""
    return validate_cells(f.shape, f.family, f.cells)


def validate_cells(shape: SkewShape, family: str,
                   cells: dict) -> ValidationResult:
    """The set-valued tableau rules on raw cells, first violation reported.

    ``cells`` maps every box of the shape to a nonempty, strictly
    increasing tuple of entry codes (what ``Filling`` guarantees).
    (1) max of a cell <= min of its right and lower neighbors;
    (2) each unprimed letter appears at most once in each column;
    (3) each primed letter appears at most once in each row;
    (4) family P only: diagonal cells contain unprimed entries only.
    """
    boxes = shape.row_major
    inside = shape.boxes
    for box in boxes:
        i, j = box
        top = cells[box][-1]
        right = (i, j + 1)
        if right in inside and top > cells[right][0]:
            return ValidationResult(
                False, f"max of {box} exceeds min of {right} (rule 1)")
        below = (i + 1, j)
        if below in inside and top > cells[below][0]:
            return ValidationResult(
                False, f"max of {box} exceeds min of {below} (rule 1)")
    col_seen: dict[tuple[int, int], Box] = {}
    row_seen: dict[tuple[int, int], Box] = {}
    for box in boxes:
        i, j = box
        for code in cells[box]:
            if primed(code):
                key = (i, code)
                if key in row_seen:
                    return ValidationResult(
                        False,
                        f"{entry_str(code)} repeats in row {i} "
                        f"({row_seen[key]} and {box}) (rule 3)")
                row_seen[key] = box
            else:
                key = (j, code)
                if key in col_seen:
                    return ValidationResult(
                        False,
                        f"{entry_str(code)} repeats in column {j} "
                        f"({col_seen[key]} and {box}) (rule 2)")
                col_seen[key] = box
    if family == "P":
        for box in boxes:
            if shape.is_diagonal(box) and any(primed(c) for c in cells[box]):
                return ValidationResult(
                    False, f"primed entry on the diagonal at {box} (rule 4)")
    return ValidationResult(True, None)

