"""Primed alphabet, cell sets, fillings, their validity rules and requests.

An entry is encoded as an integer code e in 1..2n: code 2k-1 is the primed
letter k', code 2k the unprimed letter k.  Integer order on codes realizes
1' < 1 < 2' < 2 < ... < n' < n, and the numeric value of code e is exactly
e/2 (so k' = k - 1/2 without rational arithmetic).  A filling holds its
cells as one row-major tuple, the form the tableau rules read, with the
shape's neighbors and diagonal from ``shapes._index_table``; the text of
the first rule a tuple breaks, or None, is ``validate_cells``'s verdict.
A request, ``FunctionSpec``, is a family, a shape and n, with the family's
base family and kind: the walk and the branching engine both read it.
"""

from __future__ import annotations

from collections.abc import Mapping

from .shapes import Box, SkewShape, StrictPartition, _index_table, _Record

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


def _check_n(n: int) -> None:
    if type(n) is not int:  # a bool or a float would pass as a number
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")


# each request family's (base family, kind): GQdouble is ("Q", "set-valued")
_FAMILY_FACTS = {f: (f.removeprefix("G")[0],
                     "set-valued" if f[0] == "G" else "single")
                 for f in ("P", "Q", "GP", "GQ", "GPdouble", "GQdouble")}


class FunctionSpec(_Record):
    """A request: family, shape and n, with the family's base family and
    kind set here, once.  Not frozen, as no cache holds a spec."""

    _fields = ("family", "shape", "n")
    __slots__ = _fields + ("base_family", "kind")

    def __init__(self, family: str, shape: SkewShape, n: int):
        facts = _FAMILY_FACTS.get(family) if isinstance(family, str) else None
        if facts is None:
            raise ValueError(f"unknown family {family!r}")
        _check_n(n)
        self.family, self.shape, self.n = family, shape, n
        self.base_family, self.kind = facts


def _check_cell(box: Box, cell, n: int) -> CellSet:
    """The cell, sorted; ValueError unless it is nonempty, without
    repeats, with every entry code an int in 1..2n.  A bool or a float
    would sort and compare as a number, so any other type is refused
    before the sort."""
    cell = tuple(cell)
    if not {int}.issuperset(map(type, cell)):
        raise ValueError(f"entry at {box} is not an int")
    cell = tuple(sorted(cell))
    if not cell:
        raise ValueError(f"empty cell at {box}")
    if len(set(cell)) != len(cell):
        raise ValueError(f"duplicate entries at {box}")
    if not (1 <= cell[0] and cell[-1] <= 2 * n):
        raise ValueError(f"entry out of range 1..{2 * n} at {box}")
    return cell


class Filling:
    """An assignment of one nonempty cell set to every box of a shape.

    ``cells`` is a tuple of one cell per box of ``shape.row_major``, each a
    strictly increasing tuple of entry codes in 1..2n.  Equality and hash
    read ``_key``, made from the shape's parts, n, family and cells when
    asked for, so a filling holds no copy of its cells.
    """

    __slots__ = ("shape", "n", "family", "cells")

    def __init__(self, shape: SkewShape, n: int, family: str, cells,
                 *, _trusted: bool = False):
        """Check and canonicalize ``cells``, one cell per box in row-major
        order; ValueError on a fault.

        ``_trusted=True`` takes a tuple of canonical cells as given.  It is
        for the package's own constructions (enumerator leaves, minimal
        tableaux, involution images, ``with_cell``, checked rows).
        """
        if not _trusted:
            _check_family(family)
            _check_n(n)
            if isinstance(cells, Mapping):  # tuple() would read its boxes
                raise ValueError("cells must be a sequence, not a mapping")
            cells = tuple(cells)
            if len(cells) != shape.size:
                raise ValueError(f"{len(cells)} cells for {shape.size} boxes")
            cells = tuple([_check_cell(box, cell, n)
                           for box, cell in zip(shape.row_major, cells)])
        self.shape = shape
        self.n = n
        self.family = family
        self.cells = cells

    @property
    def _key(self) -> tuple:
        """(outer parts, inner parts, n, family, cells)."""
        return (self.shape.outer.parts, self.shape.inner.parts, self.n,
                self.family, self.cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Filling) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        cells = iter(self.cells)
        rows = [" ".join(",".join(entry_str(c) for c in next(cells))
                         for _ in row) for row in self.shape.rows]
        return f"Filling({self.shape}; " + " | ".join(rows) + ")"

    def size(self) -> int:
        """Total number of entries over all boxes, |T|."""
        return sum(map(len, self.cells))

    def weight(self) -> tuple[int, ...]:
        """Occurrences of k' plus occurrences of k, for each letter k."""
        counts = [0] * self.n
        for cell in self.cells:
            for code in cell:
                counts[letter(code) - 1] += 1
        return tuple(counts)

    def is_single_valued(self) -> bool:
        return all(len(cell) == 1 for cell in self.cells)

    def with_cell(self, box: Box, cell) -> "Filling":
        """This filling with the cell at box replaced (checked)."""
        if box not in self.shape.boxes:
            raise ValueError(f"{box} is not a box of {self.shape}")
        cell = _check_cell(box, cell, self.n)
        k = self.shape.row_major.index(box)
        cells = self.cells[:k] + (cell,) + self.cells[k + 1:]
        return Filling(self.shape, self.n, self.family, cells, _trusted=True)

    def to_json(self) -> dict:
        cells = iter(self.cells)
        return {
            "shape": self.shape.to_json(),
            "n": self.n,
            "family": self.family,
            "rows": [[[entry_str(c) for c in next(cells)] for _ in row]
                     for row in self.shape.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Filling":
        shape = SkewShape(StrictPartition(data["shape"]["outer"]),
                          StrictPartition(data["shape"]["inner"]))
        return filling_from_rows(shape, data["n"], data["family"],
                                 data["rows"])


def _cells_from_rows(shape: SkewShape, n: int, rows, memo: dict) -> tuple:
    """The row-major cell tuple of per-row lists of cells given as entry
    strings; ValueError on a fault.

    ``rows`` holds one list per row of the outer shape, with one cell per
    box of that row, each cell a list of entry strings.  Entry strings
    parse as ``entry_from_str`` does, an entry of another type is refused,
    and the cells get the checks ``Filling`` makes.  ``memo`` maps a cell's
    entry-string tuple to its checked codes at this n, so each distinct
    cell is parsed and checked once; a cell that fails is never stored.
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
                if not {str}.issuperset(map(type, strs)):
                    raise ValueError(f"entry at {box} is not a string")
                cell = _check_cell(box, cell_from_strs(strs), n)
                memo[tuple(strs)] = cell  # it parsed: its entries are str
            cells.append(cell)
    return tuple(cells)


def filling_from_rows(shape: SkewShape, n: int, family: str, rows) -> Filling:
    """Build a filling from per-row lists of cells given as entry strings.

    The rows parse and check as in ``_cells_from_rows``; a fault raises
    ValueError.
    """
    _check_family(family)
    _check_n(n)
    cells = _cells_from_rows(shape, n, rows, {})
    return Filling(shape, n, family, cells, _trusted=True)


def validate_cells(shape: SkewShape, family: str, cells: tuple) -> str | None:
    """The text of the first tableau-rule violation in raw cells, or None.

    ``cells`` holds the cells of the shape's boxes in row-major order,
    each a nonempty, strictly increasing tuple of entry codes (what
    ``Filling`` guarantees).
    (1) max of a cell <= min of its right and lower neighbors;
    (2) each unprimed letter appears at most once in each column;
    (3) each primed letter appears at most once in each row;
    (4) family P only: diagonal cells contain unprimed entries only.
    Rules 1 and 4 read the pairs and the diagonal of the shape's
    ``shapes._index_table``.  Rules 2 and 3 keep one int bit mask per row
    and per column: bit e of a row's (column's) mask is set once the primed
    (unprimed) code e is seen there.
    """
    table = _index_table(shape.outer.parts, shape.inner.parts)
    boxes, rows, cols = table.boxes, table.rows, table.cols
    for a, b in table.pairs:
        if cells[a][-1] > cells[b][0]:
            return f"max of {boxes[a]} exceeds min of {boxes[b]} (rule 1)"
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
    for k in table.diagonal if family == "P" else ():
        for code in cells[k]:
            if code & 1:
                return f"primed entry on the diagonal at {boxes[k]} (rule 4)"
    return None


def _repeat(boxes: tuple, lines: tuple, cells: tuple, k: int, code: int,
            name: str, rule: int) -> str:
    """The violation of ``code`` at index k repeating in the row or column
    ``lines[k]``: the first repeat, so one earlier index of that line
    holds the code, and a scan back finds it."""
    first = next(a for a in range(k)
                 if lines[a] == lines[k] and code in cells[a])
    return (f"{entry_str(code)} repeats in {name} {lines[k]} "
            f"({boxes[first]} and {boxes[k]}) (rule {rule})")
