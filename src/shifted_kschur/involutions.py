"""Minimal tableaux, the entry-toggling involution, and pairing certificates.

The involution compares a set-valued tableau against the minimal tableau of
its shape, finds the first box (in column-major order) where they differ,
and either deletes the minimal cell's content from that box or inserts it.
Pairing all non-minimal tableaux this way, and pairing minimal tableaux of
neighboring inner shapes via the bottom-row toggle ``shapes.pi``, covers
the double-skew tableau family, over the inner shapes of
``shapes.inner_shapes``, with no element left over.  A certificate is
written straight from its tableaux, and checked as its JSON document: each
element as its nu and row-major cell tuple, each distinct cell parsed
once, with a ``Filling`` built only for a minimal tableau or to show a
fault.  ``read_certificate`` reads a certificate's text one top-level
member at a time, and its pairs one at a time, so a check holds the text
and one pair, not the parsed document; ``"pairs"`` must be the last
member.  The first fault is reported, in this order: a request that
``pairing_certificate`` refuses; text before ``"pairs"`` that does not
parse; the header; pair k, its text or its content; text after the last
pair.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from itertools import chain, count
from typing import Callable, Iterable, Iterator, NamedTuple

from .enumeration import EnumSpec, _candidate_cells, enumerate_fillings
from .genfunc import FunctionSpec, _at
from .shapes import (Box, SkewShape, StrictPartition, inner_shapes,
                     is_subpartition, pi)
from .tableaux import (Filling, _cells_from_rows, _check_family, _check_n,
                       entry_str, validate, validate_cells)

# the most tableaux a full certificate may pair: 4 times the most written
PAIR_MAX_ELEMENTS = 20_000  # by the tests or the benchmark (4,804)


def minimal_tableau(shape: SkewShape, family: str, n: int) -> Filling:
    """The single-valued tableau minimizing the total numeric entry value.

    Greedy row-major fill: each box takes the first cell that the
    enumerator's candidate rule allows there, and the walk never backs up.
    The result is the first single-valued tableau ``enumerate_fillings``
    yields, and the walk fails exactly when there is none.
    """
    spec = EnumSpec(shape, n, family, "single")
    row_primed = [0] * (shape.outer.length + 1)
    col_unprimed = [0] * (shape.outer.part(1) + 1)
    cells: dict[Box, tuple[int, ...]] = {}
    for box in shape.row_major:
        i, j = box
        candidates = _candidate_cells(spec, box, cells, row_primed,
                                      col_unprimed)
        if not candidates:
            raise ValueError(f"empty tableau set for {shape}, {family}, n={n}")
        cells[box], primed_bits, unprimed_bits, _ = candidates[0]
        row_primed[i] |= primed_bits
        col_unprimed[j] |= unprimed_bits
    return Filling(shape, n, family, cells, _trusted=True)


def iota(T: Filling, tmin: Filling | None = None) -> Filling:
    """Toggle the minimal cell content at the first differing box.

    ``tmin`` is the minimal tableau of T's shape, family and n; callers
    that hold it pass it in, otherwise it is built here.
    """
    if tmin is None:
        tmin = minimal_tableau(T.shape, T.family, T.n)
    for box in T.shape.col_major:
        if T.cells[box] != tmin.cells[box]:
            break
    else:
        raise ValueError("iota is undefined on the minimal tableau")
    have = set(T.cells[box])
    mincell = set(tmin.cells[box])
    new = have - mincell if have & mincell else have | mincell
    return T.with_cell(box, new)


class InvolutionReport(NamedTuple):
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _iota_pairs(shape: SkewShape, family: str, n: int, tmin: Filling
                ) -> Iterator[tuple[Filling, Filling, str | None]]:
    """(T, iota(T), fault) for the set-valued tableaux T of shape other
    than ``tmin``, in enumeration order, skipping each T an earlier T
    mapped to.  ``fault``, the pairing rule, names the first way the image
    fails to pair T: it is T, is ``tmin``, or does not map back to T; else
    it is None.  Leaves are told apart by their row-major cell tuples, so a
    ``Filling`` is built only for a T that is kept.
    """
    # the cell tuples to skip: tmin's, and those of the images still ahead
    skip = {tuple(tmin.cells.values())}

    def keep(cells: tuple) -> bool:
        if cells in skip:
            skip.discard(cells)
            return False
        return True

    spec = EnumSpec(shape, n, family, "set-valued")
    for T in enumerate_fillings(spec, keep):
        image = iota(T, tmin)
        skip.add(tuple(image.cells.values()))
        if image == T:
            yield T, image, f"iota fixes {T!r}"
        elif image == tmin:
            yield T, image, f"iota of {T!r} hits the minimal tableau"
        elif iota(image, tmin) != T:
            yield T, image, f"iota is not an involution at {T!r}"
        else:
            yield T, image, None


def verify_involution(shape: SkewShape, family: str, n: int) -> InvolutionReport:
    """Exhaustively check the involution properties on one tableau set.

    Each pair of ``_iota_pairs`` gets one fault at most: an invalid image,
    else the pairing rule's fault, else a |T| that moves by other than
    one.  A pair with no fault counts both its tableaux in ``checked``.
    """
    tmin = minimal_tableau(shape, family, n)
    faults = []
    for T, image, fault in _iota_pairs(shape, family, n, tmin):
        if not validate(image):
            fault = f"iota image of {T!r} is invalid"
        elif not fault and abs(image.size() - T.size()) != 1:
            fault = f"iota of {T!r} changes |T| by != 1"
        faults.append(fault)
    violations = tuple(filter(None, faults))
    return InvolutionReport(2 * len(faults) - len(violations), violations)


class Pair(NamedTuple):
    left: Filling  # a tableau of lam/nu, nu being its shape's inner shape
    right: Filling
    tag: str  # "iota" or "pi"


def _element(T: Filling) -> dict:
    """The document of a tableau T of lam/nu in the double-skew family."""
    return {"nu": list(T.shape.inner.parts), "tableau": T.to_json()}


@dataclass
class PairingCertificate:
    lam: StrictPartition
    mu: StrictPartition
    n: int
    family: str
    minimal_only: bool
    pairs: list[Pair] = field(default_factory=list)
    leftover: list[Filling] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.leftover

    def to_json(self) -> dict:
        """The document of a certificate built by ``pairing_certificate``."""
        return {
            "lambda": list(self.lam.parts), "mu": list(self.mu.parts),
            "n": self.n, "family": self.family,
            "minimal_only": self.minimal_only,
            "pairs": [
                {"left": _element(p.left), "right": _element(p.right),
                 "tag": p.tag}
                for p in self.pairs
            ],
            "leftover": [_element(T) for T in self.leftover],
        }


_HOLE = "\0"  # a slot in a document; json writes it as _SLOT
_SLOT = json.dumps(_HOLE)


def _format(doc, level: int):
    """``format`` of doc's ``json.dumps(..., sort_keys=True, indent=1)``
    text as it reads ``level`` deep in a larger document, with a field for
    each hole.  Re-indenting every line break is exact: a JSON string
    never holds a raw newline.
    """
    text = json.dumps(doc, sort_keys=True, indent=1).replace(
        "\n", "\n" + " " * level)
    return "{}".join(piece.replace("{", "{{").replace("}", "}}")
                     for piece in text.split(_SLOT)).format


def _array(texts: Iterable[str], level: int) -> Iterator[str]:
    """A JSON array ``level`` deep, one piece per item, of item texts."""
    inner, first = "\n" + " " * (level + 1), True
    for text in texts:
        yield ("[" if first else ",") + inner + text
        first = False
    yield "[]" if first else "\n" + " " * level + "]"


_PAIR_FORMATS = {tag: _format({"left": _HOLE, "right": _HOLE, "tag": tag}, 2)
                 for tag in ("iota", "pi")}


def write_certificate(cert: PairingCertificate, fh) -> None:
    """Write ``json.dumps(cert.to_json(), sort_keys=True, indent=1)`` to fh
    for a certificate built by ``pairing_certificate``, one pair at a time.

    The header is ``json.dumps`` of the certificate with a hole for each
    of its two lists.  An element's text is its nu's template, made by
    ``json.dumps`` of one element with a hole per cell, filled with its
    cells' texts in row-major order; templates and cell texts are made on
    first use and kept for this call.  A leftover element sits a level
    less deep than a pair's side: one space less on each line.
    """
    formats: dict = {}  # nu -> template of its elements as a pair's side
    texts: dict = {}  # cell -> its text in a pair's side, seven levels deep

    def cell_text(cell: tuple) -> str:  # an entry string is JSON as it is
        texts[cell] = text = "".join(
            _array((f'"{entry_str(c)}"' for c in cell), 7))
        return text

    def side(T: Filling) -> str:
        fmt = formats.get(nu := T.shape.inner)
        if fmt is None:
            doc = _element(T)
            doc["tableau"]["rows"] = [[_HOLE] * len(row)
                                      for row in T.shape.rows]
            fmt = formats[nu] = _format(doc, 3)
        return fmt(*[texts.get(cell) or cell_text(cell)
                     for cell in T.cells.values()])

    top = replace(cert, pairs=[], leftover=[]).to_json()
    top["leftover"] = top["pairs"] = _HOLE
    before, between, after = json.dumps(top, sort_keys=True,
                                        indent=1).split(_SLOT)
    fh.write(before)
    fh.writelines(_array((side(T).replace("\n ", "\n")
                          for T in cert.leftover), 1))
    fh.write(between)
    fh.writelines(_array((_PAIR_FORMATS[p.tag](side(p.left), side(p.right))
                          for p in cert.pairs), 1))
    fh.write(after)


def check_request(lam: StrictPartition, mu: StrictPartition, n: int,
                  family: str) -> None:
    """Raise ValueError unless lam // mu at n, family is a pairing request:
    a nonempty mu contained in lam, an int n at least 1, family P or Q."""
    if not mu or not is_subpartition(mu, lam):
        raise ValueError("need a nonempty mu contained in lam")
    _check_n(n)
    _check_family(family)


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
    check_request(lam, mu, n, family)
    shapes = {nu: SkewShape(lam, nu) for _, nu in inner_shapes(mu)}
    size = 0 if minimal_only else _at(
        FunctionSpec("G" + family + "double", SkewShape(lam, mu), n))[0]
    if size > PAIR_MAX_ELEMENTS:
        raise ValueError(f"infeasible scale: {size} elements, above the "
                         f"limit of {PAIR_MAX_ELEMENTS}; use minimal_only")
    cert = PairingCertificate(lam, mu, n, family, minimal_only)
    minimal = {nu: minimal_tableau(shape, family, n)
               for nu, shape in shapes.items()}
    done_pi = set()
    for nu in shapes:
        if nu in done_pi:
            continue
        other = pi(mu, nu)
        cert.pairs.append(Pair(minimal[nu], minimal[other], "pi"))
        done_pi.update({nu, other})
    if minimal_only:
        return cert

    for nu, shape in shapes.items():
        for T, partner, fault in _iota_pairs(shape, family, n, minimal[nu]):
            if fault:
                cert.leftover.append(T)
            else:
                cert.pairs.append(Pair(T, partner, "iota"))
    return cert


# JSON white space, one character (none at the end), JSON white space
_TOKEN = re.compile(r"[ \t\n\r]*(.?)[ \t\n\r]*", re.DOTALL)
_DECODE = json.JSONDecoder().raw_decode


def read_certificate(text: str) -> dict:
    """The document of a certificate's JSON text, its pairs read lazily.

    The top-level object is decoded one member at a time, each member
    whole, up to ``"pairs"``; that member must come last, where
    ``write_certificate`` and ``json.dumps(..., sort_keys=True)`` put it.
    Its value is an iterator that decodes one pair per step.  A document
    with no ``"pairs"`` is read whole.  A syntax error raises
    ``json.JSONDecodeError`` (a ValueError), and a value nested too deep
    RecursionError, when the reader reaches it: here for one before
    ``"pairs"``, else at the step that reads the pair it is in, or, for
    text after the last pair (a member after ``"pairs"``, text after the
    closing brace), at the step after the last pair.
    """
    def token(i: int, chars: str, what: str) -> re.Match:
        """The match of ``_TOKEN`` at i, its character one of chars."""
        m = _TOKEN.match(text, i)
        if not m[1] or m[1] not in chars:
            raise json.JSONDecodeError(f"Expecting {what}", text, m.start(1))
        return m

    def end(m: re.Match) -> None:
        """Raise unless the text ends with m, the closing brace."""
        if m.end() != len(text):
            raise json.JSONDecodeError("Extra data", text, m.end())

    def pairs(i: int) -> Iterator:
        m = token(i, "[", "'['")
        if text.startswith("]", m.end()):
            m = token(m.end(), "]", "']'")
        while m[1] != "]":
            pair, i = _DECODE(text, m.end())
            yield pair
            m = token(i, ",]", "',' delimiter")
        end(token(m.end(), "}", "'}': \"pairs\" must be the last member"))

    doc = {}
    m = token(token(0, "{", "'{'").end(), '"}',
              "property name enclosed in double quotes")
    while m[1] == '"':
        key, i = _DECODE(text, m.start(1))
        i = token(i, ":", "':' delimiter").end()
        if key == "pairs":
            doc[key] = pairs(i)
            return doc
        doc[key], i = _DECODE(text, i)
        m = token(i, ",}", "',' delimiter")
        if m[1] == ",":
            m = token(m.end(), '"', "property name enclosed in double quotes")
    end(m)
    return doc


_HEADER = ("lambda", "mu", "n", "family", "minimal_only")  # in read order


def certificate_checker(lam: StrictPartition, mu: StrictPartition, n: int,
                        family: str, minimal_only: bool = False
                        ) -> Callable[[dict], tuple[bool, str | None]]:
    """The check of certificate documents for a request: a function that
    takes a document and returns (True, None) if it proves the request,
    else (False, the first fault).

    The request is ``pairing_certificate``'s; one that function refuses,
    an empty tableau set among them, raises ValueError here, before any
    document is read.  A document is what ``to_json`` returns, what
    ``json.load`` reads from a written certificate, or what
    ``read_certificate`` reads.  Its header, read in ``_HEADER`` order,
    must be the request as JSON text (a true is not a 1, nor a 2.0 a 2),
    before any pair is read.  Pair k is read only when it is checked, so a
    fault in pair k, or text that does not parse there, is found only
    after pairs 0 to k - 1 passed.  Every element must be a valid tableau
    of lam/nu, with n and family, for some nu = mu minus a subset of
    Rem(mu); no element may appear twice; the two sides of each pair must
    have opposite sign (-1)^(|T| - |lam/nu| + |mu/nu|); an "iota" pair
    stays on one nu; a "pi" pair joins the minimal tableaux of two nu that
    differ by mu's bottom removable box; nothing is left over.  Distinct
    valid elements that number as many as the tableau sets hold (the
    branching engine's count; one minimal tableau per nu with
    minimal_only) are the whole family, so the pairs prove that its signed
    sum is 0.
    """
    check_request(lam, mu, n, family)
    removed = {nu.parts: b for b, nu in inner_shapes(mu)}  # |mu/nu|
    shapes = {nu: SkewShape(lam, StrictPartition(nu)) for nu in removed}
    # nu -> its minimal tableau's cells; an empty lam/nu raises here, with
    # the text pairing_certificate gives it
    minimal = {nu: tuple(minimal_tableau(shape, family, n).cells.values())
               for nu, shape in shapes.items()}
    request = json.dumps(dict(zip(_HEADER, (list(lam.parts), list(mu.parts),
                                            n, family, minimal_only))))
    shape_json = {nu: shape.to_json() for nu, shape in shapes.items()}
    # the sign of an element of nu is (-1)^(|T| - offset[nu])
    offset = {nu: shape.size - removed[nu] for nu, shape in shapes.items()}

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
        ok, violation = validate_cells(shape, family, cells)
        if not ok:
            raise ValueError(f"invalid tableau: {violation}")
        return nu, cells

    def shown(nu: tuple, cells: tuple) -> str:
        """The repr of the element's ``Filling``, built for a fault only."""
        shape = shapes[nu]
        return repr(Filling(shape, n, family,
                            dict(zip(shape.row_major, cells)),
                            _trusted=True))

    def check(doc: dict) -> tuple[bool, str | None]:
        try:
            header = json.dumps({key: doc[key] for key in _HEADER})
            if header != request:
                return False, f"certificate is for {header}"
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
                except (KeyError, TypeError, ValueError,
                        AttributeError) as exc:
                    return False, f"pair {k}: malformed element ({exc})"
                known = len(seen)
                seen.add(side)
                if len(seen) == known:  # it was there (one hash, not two)
                    return False, f"pair {k}: element appears twice: " \
                                  f"{shown(*side)}"
                sides.append(side)
            (nu_l, cells_l), (nu_r, cells_r) = sides
            size = sum(map(len, cells_l)) + sum(map(len, cells_r))
            if (size - offset[nu_l] - offset[nu_r]) % 2 == 0:
                return False, f"pair {k}: both sides have the same sign"
            if tag == "iota" and nu_l != nu_r:
                return False, f"pair {k}: iota pair across two inner shapes"
            if tag == "pi":
                if pi(mu, shapes[nu_l].inner).parts != nu_r:
                    return False, (f"pair {k}: pi pair of inner shapes that "
                                   f"do not differ by the bottom removable "
                                   f"box")
                for nu, cells in sides:
                    if cells != minimal[nu]:
                        return False, (f"pair {k}: pi side is not minimal: "
                                       f"{shown(nu, cells)}")
        if leftover:
            return False, f"{len(leftover)} leftover elements"
        want = len(shapes) if minimal_only else _at(
            FunctionSpec("G" + family + "double", SkewShape(lam, mu), n))[0]
        if len(seen) != want:
            return False, f"{len(seen)} elements, the family has {want}"
        return True, None

    return check


def check_certificate(doc: dict, lam: StrictPartition, mu: StrictPartition,
                      n: int, family: str, minimal_only: bool = False
                      ) -> tuple[bool, str | None]:
    """Verify that a certificate document proves a request, as it stands:
    ``certificate_checker(lam, mu, n, family, minimal_only)(doc)``."""
    return certificate_checker(lam, mu, n, family, minimal_only)(doc)
