"""Minimal tableaux, the entry-toggling involution, and pairing certificates.

The involution compares a set-valued tableau against the minimal tableau of
its shape, finds the first box (in column-major order) where they differ,
and either deletes the minimal cell's content from that box or inserts it.
Pairing all non-minimal tableaux this way, and pairing minimal tableaux of
neighboring inner shapes via the bottom-row toggle ``shapes.pi``, covers
the double-skew tableau family, over the inner shapes of
``shapes.inner_shapes``, with no element left over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .enumeration import EnumSpec, _candidate_cells, enumerate_fillings
from .genfunc import FunctionSpec, parity_report
from .shapes import (Box, SkewShape, StrictPartition, inner_shapes,
                     is_subpartition, pi, removable_boxes)
from .tableaux import FAMILIES, Filling, filling_from_rows, validate

# a full certificate is built only while |lam/mu| + |Rem(mu)| stays within this
PAIR_MAX_BOXES = 12


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
    shape: str
    family: str
    n: int
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _iota_pairs(shape: SkewShape, family: str, n: int,
                tmin: Filling) -> Iterator[tuple[Filling, Filling]]:
    """(T, iota(T)) for the set-valued tableaux T of shape other than
    ``tmin``, in enumeration order, skipping each T an earlier T mapped to."""
    images: set[Filling] = set()
    for T in enumerate_fillings(EnumSpec(shape, n, family, "set-valued")):
        if T == tmin:
            continue
        if T in images:
            images.discard(T)
            continue
        image = iota(T, tmin)
        images.add(image)
        yield T, image


def verify_involution(shape: SkewShape, family: str, n: int) -> InvolutionReport:
    """Exhaustively check the involution properties on one tableau set.

    Each pair (T, iota(T)) is checked once, every property on every pair;
    a pair that passes covers both its tableaux, so on success ``checked``
    counts every non-minimal tableau.
    """
    tmin = minimal_tableau(shape, family, n)
    violations = []
    checked = 0
    for T, image in _iota_pairs(shape, family, n, tmin):
        before = len(violations)
        if not validate(image):
            violations.append(f"iota image of {T!r} is invalid")
        else:
            if image == T:
                violations.append(f"iota fixes {T!r}")
            if abs(image.size() - T.size()) != 1:
                violations.append(f"iota of {T!r} changes |T| by != 1")
            if image == tmin:
                violations.append(f"iota of {T!r} hits the minimal tableau")
            elif iota(image, tmin) != T:
                violations.append(f"iota is not an involution at {T!r}")
        checked += 1 if len(violations) > before else 2
    return InvolutionReport(str(shape), family, n, checked, tuple(violations))


class Pair(NamedTuple):
    left: dict
    right: dict
    tag: str  # "iota" or "pi"


@dataclass
class PairingCertificate:
    lam: StrictPartition
    mu: StrictPartition
    n: int
    family: str
    minimal_only: bool
    pairs: list[Pair] = field(default_factory=list)
    leftover: list[dict] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.leftover

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "n": self.n,
            "family": self.family,
            "minimal_only": self.minimal_only,
            "pairs": [
                {"left": p.left, "right": p.right, "tag": p.tag}
                for p in self.pairs
            ],
            "leftover": list(self.leftover),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PairingCertificate":
        """The certificate as ``to_json`` wrote it; elements stay raw dicts."""
        cert = cls(StrictPartition(tuple(data["lambda"])),
                   StrictPartition(tuple(data["mu"])),
                   data["n"], data["family"], data["minimal_only"])
        cert.pairs = [Pair(p["left"], p["right"], p["tag"])
                      for p in data["pairs"]]
        cert.leftover = list(data["leftover"])
        return cert


def pairing_certificate(lam: StrictPartition, mu: StrictPartition, n: int,
                        family: str,
                        minimal_only: bool = False) -> PairingCertificate:
    """Match every tableau of the double-skew family with a partner.

    Non-minimal tableaux pair with their involution image (tag "iota");
    the minimal tableau of lam/nu pairs with the minimal tableau of
    lam/pi(mu, nu), nu with mu's bottom removable box toggled (tag "pi").
    With minimal_only=True only the pi pairs are produced, which stays
    feasible for large shapes.  The elements of one nu share one shape
    object, so treat them as read-only.
    """
    if not mu or not is_subpartition(mu, lam):
        raise ValueError("need a nonempty mu contained in lam")
    boxes = lam.weight - mu.weight + len(removable_boxes(mu))
    if not minimal_only and boxes > PAIR_MAX_BOXES:
        raise ValueError("infeasible scale; use minimal_only")
    cert = PairingCertificate(lam, mu, n, family, minimal_only)
    shapes = {nu: SkewShape(lam, nu) for _, nu in inner_shapes(mu)}
    shape_json = {nu: shape.to_json() for nu, shape in shapes.items()}

    def element(nu: StrictPartition, T: Filling) -> dict:
        return {"nu": list(nu.parts), "tableau": T.to_json(shape_json[nu])}

    minimal = {nu: minimal_tableau(shape, family, n)
               for nu, shape in shapes.items()}
    done_pi = set()
    for nu in shapes:
        if nu in done_pi:
            continue
        other = pi(mu, nu)
        cert.pairs.append(Pair(element(nu, minimal[nu]),
                               element(other, minimal[other]), "pi"))
        done_pi.update({nu, other})
    if minimal_only:
        return cert

    for nu, shape in shapes.items():
        tmin = minimal[nu]
        for T, partner in _iota_pairs(shape, family, n, tmin):
            if partner == T or iota(partner, tmin) != T:
                cert.leftover.append(element(nu, T))
                continue
            cert.pairs.append(Pair(element(nu, T), element(nu, partner),
                                   "iota"))
    return cert


def check_certificate(cert: PairingCertificate) -> tuple[bool, str | None]:
    """Verify a certificate as it stands, without rebuilding it.

    Every element must be a valid tableau of lam/nu, with the header's n
    and family, for some nu = mu minus a subset of Rem(mu); no element may
    appear twice; the two sides of each pair must have opposite sign
    (-1)^(|T| - |lam/nu| + |mu/nu|); an "iota" pair stays on one nu; a
    "pi" pair joins the minimal tableaux of two nu that differ by mu's
    bottom removable box; nothing is left over.  Distinct valid elements
    that number as many as the tableau sets hold (the branching engine's
    count; one minimal tableau per nu with minimal_only) are the whole
    family, so the pairs prove that its signed sum is 0.
    """
    lam, mu, n, family = cert.lam, cert.mu, cert.n, cert.family
    if family not in FAMILIES or type(n) is not int or n < 1:
        return False, f"bad header: family={family!r} n={n!r}"
    if not mu or not is_subpartition(mu, lam):
        return False, "need a nonempty mu contained in lam"
    removed = {nu.parts: b for b, nu in inner_shapes(mu)}  # |mu/nu|
    shapes = {nu: SkewShape(lam, StrictPartition(nu)) for nu in removed}
    shape_json = {nu: shape.to_json() for nu, shape in shapes.items()}
    minimal: dict[tuple, Filling] = {}

    def parse(element) -> tuple[tuple, Filling]:
        nu = tuple(element["nu"])
        if nu not in shapes:
            raise ValueError(f"nu={list(nu)} is not mu minus a subset of "
                             f"Rem(mu)")
        tab = element["tableau"]
        if tab["shape"] != shape_json[nu] or tab["n"] != n \
                or tab["family"] != family:
            raise ValueError(f"tableau header does not match "
                             f"{shapes[nu]}, n={n}, family {family}")
        T = filling_from_rows(shapes[nu], n, family, tab["rows"])
        verdict = validate(T)
        if not verdict:
            raise ValueError(f"invalid tableau: {verdict.violation}")
        return nu, T

    seen: set[Filling] = set()
    for k, p in enumerate(cert.pairs):
        if p.tag not in ("iota", "pi") or \
                (cert.minimal_only and p.tag != "pi"):
            return False, f"pair {k}: tag {p.tag!r} not allowed"
        signs = []
        sides = []
        for element in (p.left, p.right):
            try:
                nu, T = parse(element)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                return False, f"pair {k}: malformed element ({exc})"
            if T in seen:
                return False, f"pair {k}: element appears twice: {T!r}"
            seen.add(T)
            signs.append((T.size() - T.shape.size + removed[nu]) % 2)
            sides.append((nu, T))
        (nu_l, _), (nu_r, _) = sides
        if signs[0] == signs[1]:
            return False, f"pair {k}: both sides have the same sign"
        if p.tag == "iota" and nu_l != nu_r:
            return False, f"pair {k}: iota pair across two inner shapes"
        if p.tag == "pi":
            if pi(mu, shapes[nu_l].inner).parts != nu_r:
                return False, (f"pair {k}: pi pair of inner shapes that do "
                               f"not differ by the bottom removable box")
            for nu, T in sides:
                if nu not in minimal:
                    minimal[nu] = minimal_tableau(shapes[nu], family, n)
                if T != minimal[nu]:
                    return False, f"pair {k}: pi side is not minimal: {T!r}"
    if cert.leftover:
        return False, f"{len(cert.leftover)} leftover elements"
    if cert.minimal_only:
        want = len(shapes)
    else:
        want = sum(parity_report(FunctionSpec("G" + family, shape, n)).count
                   for shape in shapes.values())
    if len(seen) != want:
        return False, f"{len(seen)} elements, the family has {want}"
    return True, None
