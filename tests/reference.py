"""Independent references that the tests check the package against, each
stated once.  Standard library only: nothing here imports
``shifted_kschur``, so a fault in the package is not also a fault of its
reference.

``violation`` states the tableau rules over whole rows and columns.  It
trusts the box list it is given, a shape's boxes in row-major order
(``SkewShape.row_major``), and the code convention: code 2k-1 is the
primed letter k', code 2k the unprimed letter k.

``least_code`` states fact B's least code from ``violation``: it
trusts the box list and that the neighbors' cells break no rule among
themselves.

``iota`` states the involution from its definition on the same row-major
cell tuples.  It trusts the box list and that the minimal tableau it is
given is one, single-valued, so each of its cells holds one code.

``orbit`` and ``expanded`` arrange a polynomial held by x-orbit with
``itertools.permutations``.  They trust the representation: ``reps`` maps
(rep, b) to the coefficient that every arrangement of rep carries.
"""

from itertools import permutations


def _entry(code: int) -> str:
    return f"{(code + 1) // 2}'" if code % 2 else str(code // 2)


def violation(boxes, family: str, cells) -> str | None:
    """The text of the first broken tableau rule, or None, in the words
    and order of ``tableaux.validate_cells``: rule 1 box by box, right
    neighbor then lower; then the first repeated code in row-major order;
    then rule 4.  ``cells`` holds one nonempty cell of codes per box.
    (1) max of a cell <= min of its right and lower neighbors;
    (2) each unprimed letter appears at most once in each column;
    (3) each primed letter appears at most once in each row;
    (4) family P only: diagonal cells hold unprimed letters only."""
    at = dict(zip(boxes, cells))
    for (i, j), cell in at.items():
        for nb in ((i, j + 1), (i + 1, j)):
            if nb in at and max(cell) > min(at[nb]):
                return f"max of {(i, j)} exceeds min of {nb} (rule 1)"
    first: dict = {}  # (line, code): a code's parity tells row or column
    for (i, j), cell in at.items():
        for code in cell:
            name, line, rule = ("row", i, 3) if code % 2 else ("column", j, 2)
            holder = first.setdefault((line, code), (i, j))
            if holder != (i, j):
                return (f"{_entry(code)} repeats in {name} {line} "
                        f"({holder} and {(i, j)}) (rule {rule})")
    for (i, j), cell in at.items():
        if family == "P" and i == j and any(code % 2 for code in cell):
            return f"primed entry on the diagonal at {(i, j)} (rule 4)"
    return None


def least_code(boxes, family: str, cells, k: int) -> int | None:
    """The least code the tableau rules allow at box k given its left and
    top neighbors' cells: the first code c for which those cells and the
    one-code cell (c,) at box k break no rule of ``violation``.  ``cells``
    holds a cell for each of the boxes before k at least.  A code past
    every neighbor code repeats none of them, and one of the next two is
    even, so the search stops 2 past the largest, with None if the
    neighbors' cells break a rule themselves."""
    i, j = boxes[k]
    near = [b for b in ((i, j - 1), (i - 1, j)) if b in boxes[:k]]
    at = dict(zip(boxes[:k], cells))
    top = max((max(at[b]) for b in near), default=0) + 2
    return next((c for c in range(1, top + 1)
                 if violation(near + [(i, j)], family,
                              [at[b] for b in near] + [(c,)]) is None), None)


def iota(boxes, cells, tmin) -> tuple:
    """iota of the tableau ``cells``, from its definition: at the first
    box in (column, row) order where ``cells`` and the minimal tableau's
    cells ``tmin`` differ, delete tmin's code from that cell if it holds
    it, else insert it.  ``cells`` must not be ``tmin``."""
    k = min((k for k in range(len(boxes)) if cells[k] != tmin[k]),
            key=lambda k: boxes[k][::-1])
    cell = set(cells[k]) ^ set(tmin[k])  # tmin[k] is one code
    return cells[:k] + (tuple(sorted(cell)),) + cells[k + 1:]


def orbit(rep: tuple) -> list:
    """Every distinct arrangement of rep, once each, sorted."""
    return sorted(set(permutations(rep)))


def expanded(poly) -> dict:
    """The terms {(x, b): coefficient} of ``poly``, held by x-orbit: each
    representative's coefficient at every arrangement of it."""
    return {(x, b): c for (rep, b), c in poly.terms.reps.items()
            for x in orbit(rep)}
