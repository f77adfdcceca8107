"""Minimal tableaux, the entry-toggling involution, and pairing certificates.

The involution compares a set-valued tableau against the minimal tableau of
its shape, finds the first box (in column-major order, from
``shapes._index_table``) where they differ, and either deletes the minimal
cell's content from that box or inserts it; it is stated once, on row-major
cell tuples (``_iota_cells``), and the pairs are made on them, with a
``Filling`` built for an image only when it joins a pair.  Pairing all
non-minimal tableaux this way, and pairing minimal tableaux of neighboring
inner shapes via the bottom-row toggle ``shapes.pi``, covers the
double-skew tableau family, over the inner shapes of
``shapes.inner_shapes``, with no element left over (``verify_involution``
returns (checked, violations) on one shape).  A certificate is written
straight from its tableaux, as ``json.dumps`` texts of documents with
holes, split at the holes (``_pieces``) and joined with what goes in them,
and checked as its JSON document: each element as its nu and row-major
cell tuple, each distinct cell parsed once, with a ``Filling`` built only
for a minimal tableau or to show a fault.  ``read_certificate`` reads only
the layout ``write_certificate`` writes, ``json.dumps(doc, sort_keys=True,
indent=1)``, of short lines, holding its header and one pair at a time.
The first fault is reported, in this order: a refused request
(``_setup``); the header's layout or text; the header; pair k, its layout,
text or content; the end of the file.
"""

from __future__ import annotations

import json
from itertools import chain, count
from typing import Callable, Iterator, NamedTuple

from .enumeration import EnumSpec, _candidate_cells, enumerate_fillings
from .genfunc import FunctionSpec, _at
from .shapes import (SkewShape, StrictPartition, _index_table, inner_shapes,
                     is_subpartition, pi)
from .tableaux import (Filling, _cells_from_rows, _check_family, _check_n,
                       entry_str, validate_cells)

# the most tableaux a full certificate may pair: 4 times the most written
PAIR_MAX_ELEMENTS = 20_000  # by the tests or the benchmark (4,804)


def minimal_tableau(shape: SkewShape, family: str, n: int) -> Filling:
    """The single-valued tableau minimizing the total numeric entry value.

    Greedy row-major fill: each box takes the first cell that the
    enumerator's candidate rule allows there, and the walk never backs up.
    The result is the first single-valued tableau ``enumerate_fillings``
    yields, and the walk fails exactly when there is none.  It is its own
    walk, not the first leaf of ``enumerate_fillings``, because on an empty
    set the backtracking walk searches the whole dead tree before it
    yields nothing, and because taking one leaf from that generator ran
    slower on the certificate path even with the empty set refused first.
    """
    spec = EnumSpec(shape, n, family, "single")
    table = _index_table(shape.outer.parts, shape.inner.parts)
    row_primed = [0] * (shape.outer.length + 1)
    col_unprimed = [0] * (shape.outer.part(1) + 1)
    cells: list = []
    for k, (i, j) in enumerate(table.boxes):
        candidates = _candidate_cells(spec, k, cells, row_primed,
                                      col_unprimed, table)
        if not candidates:
            raise ValueError(f"empty tableau set for {shape}, {family}, n={n}")
        cell, primed_bits, unprimed_bits, _ = candidates[0]
        cells.append(cell)
        row_primed[i] |= primed_bits
        col_unprimed[j] |= unprimed_bits
    return Filling(shape, n, family, tuple(cells), _trusted=True)


def _iota_cells(order: tuple, cells: tuple, tmin: tuple) -> tuple:
    """iota on row-major cell tuples: at the first index of ``order``
    (the index table's ``col_order``) where ``cells`` differs from
    ``tmin``, delete tmin's content from that cell if they share an entry,
    else insert it.

    ``tmin`` is the minimal tableau's cell tuple; it is single-valued, so
    the new cell is never empty, and its codes are in range.  ValueError
    if ``cells`` is ``tmin``.
    """
    for k in order:
        if cells[k] != tmin[k]:
            have, mincell = set(cells[k]), set(tmin[k])
            new = have - mincell if have & mincell else have | mincell
            return cells[:k] + (tuple(sorted(new)),) + cells[k + 1:]
    raise ValueError("iota is undefined on the minimal tableau")


def _iota_pairs(shape: SkewShape, family: str, n: int, tmin: Filling
                ) -> Iterator[tuple[Filling, tuple, str | None]]:
    """(T, the cell tuple of iota(T), fault) for the set-valued tableaux T
    of shape other than ``tmin``, in enumeration order, skipping each T an
    earlier T mapped to.  ``fault``, the pairing rule, names the first way
    the image fails to pair T: it is T, is ``tmin``, or does not map back
    to T; else it is None.  Images and leaves are told apart by their
    row-major cell tuples, so a ``Filling`` is built only for a T that is
    kept.
    """
    order = _index_table(shape.outer.parts, shape.inner.parts).col_order
    mins = tmin.cells
    # the cell tuples to skip: tmin's, and those of the images still ahead
    skip = {mins}

    def keep(cells: tuple) -> bool:
        if cells in skip:
            skip.discard(cells)
            return False
        return True

    spec = EnumSpec(shape, n, family, "set-valued")
    for T in enumerate_fillings(spec, keep):
        image = _iota_cells(order, T.cells, mins)
        skip.add(image)
        if image == T.cells:
            yield T, image, f"iota fixes {T!r}"
        elif image == mins:
            yield T, image, f"iota of {T!r} hits the minimal tableau"
        elif _iota_cells(order, image, mins) != T.cells:
            yield T, image, f"iota is not an involution at {T!r}"
        else:
            yield T, image, None


def verify_involution(shape: SkewShape, family: str, n: int) -> tuple:
    """(checked, violations): the involution checked on one tableau set.

    Each pair of ``_iota_pairs`` gets one violation at most: an invalid image,
    else the pairing rule's fault, else a |T| that moves by other than
    one.  A pair with no fault counts both its tableaux in ``checked``.
    Images are checked as cell tuples; no ``Filling`` is built for them.
    """
    tmin = minimal_tableau(shape, family, n)
    faults = []
    for T, image, fault in _iota_pairs(shape, family, n, tmin):
        if validate_cells(shape, family, image):
            fault = f"iota image of {T!r} is invalid"
        elif not fault and abs(sum(map(len, image)) - T.size()) != 1:
            fault = f"iota of {T!r} changes |T| by != 1"
        faults.append(fault)
    violations = tuple(filter(None, faults))
    return 2 * len(faults) - len(violations), violations


class Pair(NamedTuple):
    left: Filling  # a tableau of lam/nu, nu being its shape's inner shape
    right: Filling
    tag: str  # "iota" or "pi"


def _element(T: Filling) -> dict:
    """The document of a tableau T of lam/nu in the double-skew family."""
    return {"nu": list(T.shape.inner.parts), "tableau": T.to_json()}


_HEADER = ("lambda", "mu", "n", "family", "minimal_only")  # in read order


class PairingCertificate:
    """A request's header, from ``_setup``, and its pairs and leftover."""

    def __init__(self, header: dict):
        self.header = header
        self.pairs: list[Pair] = []
        self.leftover: list[Filling] = []

    def to_json(self) -> dict:
        """The document of a certificate built by ``pairing_certificate``."""
        pairs = [{"left": _element(p.left), "right": _element(p.right),
                  "tag": p.tag} for p in self.pairs]
        return {**self.header, "pairs": pairs,
                "leftover": [_element(T) for T in self.leftover]}


_HOLE = "\0"  # a slot in a document; json writes it as _SLOT
_SLOT = json.dumps(_HOLE)


def _pieces(doc, level: int) -> list[str]:
    """doc's ``json.dumps(..., sort_keys=True, indent=1)`` text as it reads
    ``level`` deep in a larger document, split at each hole.  Re-indenting
    every line break is exact: a JSON string never holds a raw newline.
    """
    return json.dumps(doc, sort_keys=True, indent=1).replace(
        "\n", "\n" + " " * level).split(_SLOT)


def _filled(pieces: list[str], texts: list[str]) -> str:
    """The pieces joined with texts[k] in hole k."""
    parts = pieces + texts
    parts[::2], parts[1::2] = pieces, texts
    return "".join(parts)


def write_certificate(cert: PairingCertificate, fh) -> None:
    """Write ``json.dumps(cert.to_json(), sort_keys=True, indent=1)`` to fh
    for a certificate built by ``pairing_certificate``, one pair at a time.

    The header and the leftover are one ``json.dumps`` of the certificate
    with a hole for its pairs; the leftover is dumped whole, as it is
    nonempty only when iota fails.  A pair's text is the pieces of its
    tag's pair document, filled with its two sides.  A side is the pieces
    of its nu's element, three levels deep with a hole per cell in
    row-major order, filled with its cells' texts.  Both are made on first
    use and kept for this call, by nu and by cell.
    """
    sides: dict = {}  # nu -> the pieces of its element as a pair's side
    texts: dict = {}  # cell -> its text in a pair's side, seven levels deep

    def cell_text(cell: tuple) -> str:  # a cell's text has no hole
        texts[cell] = text = _pieces(list(map(entry_str, cell)), 7)[0]
        return text

    def side(T: Filling) -> str:
        nu = T.shape.inner.parts
        if (pieces := sides.get(nu)) is None:
            doc = _element(T)
            doc["tableau"]["rows"] = [[_HOLE] * len(row)
                                      for row in T.shape.rows]
            sides[nu] = pieces = _pieces(doc, 3)
        return _filled(pieces, [texts.get(cell) or cell_text(cell)
                                for cell in T.cells])

    pair = {tag: _pieces({"left": _HOLE, "right": _HOLE, "tag": tag}, 2)
            for tag in ("iota", "pi")}
    top = dict(cert.header, pairs=[_HOLE] if cert.pairs else [],
               leftover=[_element(T) for T in cert.leftover])
    head, *tail = _pieces(top, 0)
    fh.write(head)
    sep = ""
    for p in cert.pairs:
        fh.write(sep + _filled(pair[p.tag], [side(p.left), side(p.right)]))
        sep = ",\n  "
    fh.writelines(tail)


def _setup(lam: StrictPartition, mu: StrictPartition, n: int, family: str,
           minimal_only: bool, limit: int | None = None) -> tuple:
    """(header, shapes, minimal, size) of the pairing request lam // mu at
    n, family: the request as a certificate states it, in ``_HEADER``
    order; lam/nu and its minimal tableau by the parts of nu, in
    ``inner_shapes(mu)`` order; and the number of elements (one per nu with
    minimal_only).  ValueError, in this order, unless mu is nonempty and
    inside lam, n an int at least 1 and family P or Q; for more than
    ``limit`` elements unless minimal_only; for an empty tableau set."""
    if not mu or not is_subpartition(mu, lam):
        raise ValueError("need a nonempty mu contained in lam")
    _check_n(n)
    _check_family(family)
    shapes = {nu.parts: SkewShape(lam, nu) for _, nu in inner_shapes(mu)}
    size = len(shapes) if minimal_only else _at(
        FunctionSpec("G" + family + "double", SkewShape(lam, mu), n))[0]
    if not minimal_only and limit is not None and size > limit:
        raise ValueError(f"infeasible scale: {size} elements, above the "
                         f"limit of {limit}; use minimal_only")
    minimal = {nu: minimal_tableau(shape, family, n)
               for nu, shape in shapes.items()}
    header = dict(zip(_HEADER, (list(lam.parts), list(mu.parts), n, family,
                                minimal_only)))
    return header, shapes, minimal, size


def pairing_certificate(lam: StrictPartition, mu: StrictPartition, n: int,
                        family: str,
                        minimal_only: bool = False) -> PairingCertificate:
    """Match every tableau of the double-skew family with a partner.

    Non-minimal tableaux pair with their involution image (tag "iota");
    the minimal tableau of lam/nu pairs with the minimal tableau of
    lam/pi(mu, nu), nu with mu's bottom removable box toggled (tag "pi").
    With minimal_only=True only the pi pairs are produced, which stays
    feasible for large shapes; a full certificate of a family of more
    than ``PAIR_MAX_ELEMENTS`` tableaux is refused.  The elements of one
    nu share one shape object, so treat them as read-only.
    """
    header, shapes, minimal, _ = _setup(lam, mu, n, family, minimal_only,
                                        PAIR_MAX_ELEMENTS)
    cert = PairingCertificate(header)
    done_pi = set()
    for nu, shape in shapes.items():
        if nu in done_pi:
            continue
        other = pi(mu, shape.inner).parts
        cert.pairs.append(Pair(minimal[nu], minimal[other], "pi"))
        done_pi.update({nu, other})
    if minimal_only:
        return cert

    for nu, shape in shapes.items():
        for T, image, fault in _iota_pairs(shape, family, n, minimal[nu]):
            if fault:
                cert.leftover.append(T)
            else:
                cert.pairs.append(Pair(T, Filling(shape, n, family, image,
                                                  _trusted=True), "iota"))
    return cert


_CHUNK = 1 << 16  # the fewest characters read from a certificate file at once
# in the layout pair --out writes, only a top-level key is indented one
# space and only a pair closes at two; no JSON string holds a raw newline
_PAIRS, _PAIR_END = '\n "pairs": [', "\n  }"
_LAYOUT = "Expecting the layout pair --out writes"
_LINE = 80  # longer than any line written: 23, or 12 more than n's digits


def read_certificate(fh) -> dict:
    """The document of the certificate in the text file fh, in the layout
    ``write_certificate`` writes: the header decoded whole, and ``"pairs"``
    an iterator that decodes one pair per step as it reads fh, ``_CHUNK``
    characters at a time or as many as are held; fh must stay open while it
    is used.  Text that leaves the layout (``_LAYOUT``), a line held
    unfinished at more than ``_LINE`` characters among it, or does not parse
    raises json.JSONDecodeError with its place in the file, a value nested
    too deep RecursionError, and text not of fh's encoding a ValueError that
    names its byte offset, each when the reader reaches it.
    """
    text, i, base, lines = "", 0, 0, 0  # text: from char base, a line start

    def more() -> bool:  # drop the lines before i's, read on; False at end
        nonlocal text, i, base, lines
        cut = text.rfind("\n", 0, i) + 1
        base, lines = base + cut, lines + text.count("\n", 0, cut)
        try:
            chunk = fh.read(max(_CHUNK, len(text) - cut))
        except UnicodeDecodeError as exc:  # its repr holds the whole block
            # exc.object: the bytes the decoder held over, then those read
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise ValueError(f"text that is not {exc.encoding} ({exc.reason})"
                             f" at byte {at} of the file") from None
        text, i = text[cut:] + chunk, i - cut
        if len(text) - (start := text.rfind("\n") + 1) > _LINE:
            raise error(_LAYOUT, start)
        return bool(chunk)

    def fill(size: int) -> str:  # the next size characters, or the rest
        while len(text) - i < size and more():
            pass
        return text[i:i + size]

    def find(s: str) -> int:  # where s is next, else the end of the file
        while (k := text.find(s, i)) < 0 and more():
            pass
        return len(text) if k < 0 else k

    def error(msg: str, p: int) -> json.JSONDecodeError:  # at text[p]
        exc = json.JSONDecodeError(msg, text, p)
        exc.pos, exc.lineno = base + p, lines + exc.lineno
        exc.args = (f"{msg}: line {exc.lineno} column {exc.colno} "
                    f"(char {exc.pos})",)
        return exc

    def loads(j: int, k: int, close: str = ""):
        try:
            return json.loads(text[j:k] + close)
        except json.JSONDecodeError as exc:
            raise error(exc.msg, min(j + exc.pos, k)) from None

    def pairs() -> Iterator:
        nonlocal i
        opener, tail = "\n  {", "]\n}"
        while fill(len(opener)) == opener:
            end = min(find(_PAIR_END) + len(_PAIR_END), len(text))
            yield loads(i + len(opener) - 1, end)  # from the pair's "{"
            i, opener, tail = end, ",\n  {", "\n ]\n}"
        if fill(len(tail) + 1) != tail:
            raise error(_LAYOUT, i)

    if fill(4) != '{\n "':
        raise error(_LAYOUT, 0)
    if (i := find(_PAIRS) + len(_PAIRS)) > len(text):  # no "pairs" line
        raise error(_LAYOUT, len(text))
    return {**loads(0, i, "]}"), "pairs": pairs()}


def certificate_checker(lam: StrictPartition, mu: StrictPartition, n: int,
                        family: str, minimal_only: bool = False
                        ) -> Callable[[dict], tuple[bool, str | None]]:
    """The check of certificate documents for a request: a function that
    takes a document and returns (True, None) if it proves the request,
    else (False, the first fault).

    The request is ``pairing_certificate``'s; one that ``_setup`` refuses,
    an empty tableau set among them, raises ValueError here, before any
    document is read.  ``PAIR_MAX_ELEMENTS`` limits making a certificate,
    not checking one.  A document is what ``to_json`` returns, or what
    ``json.load`` or ``read_certificate`` reads from a written one.  Its
    header, read in ``_HEADER`` order, must be the request as JSON text (a
    true is not a 1, nor a 2.0 a 2), before any pair is read.  Pair k is
    read only when it is checked, so a fault in pair k, or text that does
    not parse there, is found only after pairs 0 to k - 1 passed.  Every
    element must be a valid tableau of lam/nu, with n and family, for some
    nu = mu minus a subset of Rem(mu); no element may appear twice; the two
    sides of each pair must have opposite sign (-1)^(|T| - |lam/nu| +
    |mu/nu|); an "iota" pair stays on one nu; a "pi" pair joins the minimal
    tableaux of two nu that differ by mu's bottom removable box; nothing is
    left over; the elements number as many as the family holds.

    The proof that the family's signed sum is 0 needs only distinct,
    valid, opposite-signed elements of the right number.  For the rest the
    check trusts the package: the number is the branching engine's count
    (``_at``; one minimal tableau per nu with minimal_only), and each pi
    side is compared with ``minimal_tableau``, the enumerator's
    ``_candidate_cells`` walk, so a valid tableau that the walk wrongly
    called minimal would pass.
    """
    header, shapes, minimal, want = _setup(lam, mu, n, family, minimal_only)
    request = json.dumps(header)
    shape_json = {nu: shape.to_json() for nu, shape in shapes.items()}

    def parse(element, memo: dict) -> tuple[tuple, tuple]:
        """(nu, the row-major cell tuple) of a valid element; ``memo`` maps
        entry strings to checked codes."""
        nu = tuple(element["nu"])
        shape = shapes.get(nu)
        # each part an int: a float or bool part would pass as equal
        if shape is None or not {int}.issuperset(map(type, nu)):
            raise ValueError(f"nu={list(nu)} is not mu minus a subset of "
                             f"Rem(mu)")
        tab = element["tableau"]
        got = tab["shape"]
        if got != shape_json[nu] or not {int}.issuperset(map(
                type, chain(got["outer"], got["inner"], *got["boxes"]))) \
                or type(tab["n"]) is not int or tab["n"] != n \
                or tab["family"] != family:
            raise ValueError(f"tableau header does not match "
                             f"{shape}, n={n}, family {family}")
        cells = _cells_from_rows(shape, n, tab["rows"], memo)
        if violation := validate_cells(shape, family, cells):
            raise ValueError(f"invalid tableau: {violation}")
        return nu, cells

    def shown(nu: tuple, cells: tuple) -> str:
        """The repr of the element's ``Filling``, built for a fault only."""
        return repr(Filling(shapes[nu], n, family, cells, _trusted=True))

    def check(doc: dict) -> tuple[bool, str | None]:
        try:
            stated = json.dumps({key: doc[key] for key in _HEADER})
            if stated != request:
                return False, f"certificate is for {stated}"
            pairs = ((p["left"], p["right"], p["tag"]) for p in doc["pairs"])
            leftover = list(doc["leftover"])
        except (KeyError, TypeError, ValueError) as exc:
            return False, f"malformed certificate ({exc!r})"
        memo: dict = {}  # entry strings -> checked codes, for this call only
        seen: set[tuple] = set()  # (nu, cells) of every element so far
        for k in count():
            try:
                left, right, tag = next(pairs)
            except StopIteration:
                break
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                return False, f"malformed certificate ({exc!r})"
            if tag not in ("iota", "pi") or (minimal_only and tag != "pi"):
                return False, f"pair {k}: tag {tag!r} not allowed"
            sides = []
            for element in (left, right):
                try:
                    side = parse(element, memo)
                except (KeyError, TypeError, ValueError) as exc:
                    return False, f"pair {k}: malformed element ({exc})"
                known = len(seen)
                seen.add(side)
                if len(seen) == known:  # it was there (one hash, not two)
                    return False, f"pair {k}: element appears twice: " \
                                  f"{shown(*side)}"
                sides.append(side)
            (nu_l, cells_l), (nu_r, cells_r) = sides
            # |lam/nu| - |mu/nu| is |lam/mu| for every nu, so the sides'
            # signs differ iff their sizes add up to an odd number
            if (sum(map(len, cells_l)) + sum(map(len, cells_r))) % 2 == 0:
                return False, f"pair {k}: both sides have the same sign"
            if tag == "iota" and nu_l != nu_r:
                return False, f"pair {k}: iota pair across two inner shapes"
            if tag == "pi":
                if pi(mu, shapes[nu_l].inner).parts != nu_r:
                    return False, (f"pair {k}: pi pair of inner shapes that "
                                   f"do not differ by the bottom removable "
                                   f"box")
                for nu, cells in sides:
                    if cells != minimal[nu].cells:
                        return False, (f"pair {k}: pi side is not minimal: "
                                       f"{shown(nu, cells)}")
        if leftover:
            return False, f"{len(leftover)} leftover elements"
        if len(seen) != want:
            return False, f"{len(seen)} elements, the family has {want}"
        return True, None

    return check
