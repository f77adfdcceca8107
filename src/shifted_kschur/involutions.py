"""Minimal tableaux, the entry-toggling involution, and pairing certificates.

The involution compares a set-valued tableau against the minimal tableau of
its shape, finds the first box (in column-major order) where they differ,
and either deletes the minimal cell's content from that box or inserts it.
Pairing all non-minimal tableaux this way, and pairing minimal tableaux of
neighboring inner shapes via the bottom-row toggle, covers the double-skew
tableau family with no element left over.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .enumeration import EnumSpec, _candidate_cells, enumerate_fillings
from .genfunc import FunctionSpec, parity_report
from .shapes import (Box, SkewShape, StrictPartition, is_subpartition,
                     removable_boxes, removable_subsets, remove_subset)
from .tableaux import FAMILIES, Filling, filling_from_rows, primed, validate


def minimal_tableau(shape: SkewShape, family: str, n: int) -> Filling:
    """The single-valued tableau minimizing the total numeric entry value.

    Greedy row-major fill: each box takes the first cell that the
    enumerator's candidate rule allows there, and the walk never backs up.
    The result is the first single-valued tableau ``enumerate_fillings``
    yields, and the walk fails exactly when there is none.
    """
    spec = EnumSpec(shape, n, family, "single")
    row_primed, col_unprimed = defaultdict(set), defaultdict(set)
    cells: dict[Box, tuple[int, ...]] = {}
    for box in shape.row_major:
        i, j = box
        candidates = _candidate_cells(spec, box, cells, row_primed,
                                      col_unprimed)
        if not candidates:
            raise ValueError(f"empty tableau set for {shape}, {family}, n={n}")
        cells[box] = candidates[0]
        code = candidates[0][0]
        (row_primed[i] if primed(code) else col_unprimed[j]).add(code)
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


@dataclass(frozen=True)
class NuSubsetState:
    """A subset of the removable boxes of mu, with the shrunk partition."""

    base: StrictPartition
    chosen: frozenset[Box] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "chosen", frozenset(self.chosen))
        if not self.chosen <= removable_boxes(self.base):
            raise ValueError("chosen boxes must be removable")

    @property
    def nu(self) -> StrictPartition:
        return remove_subset(self.base, self.chosen)

    @property
    def b(self) -> int:
        return len(self.chosen)


def bottom_removable_box(mu: StrictPartition) -> Box:
    """The removable box in the last row of mu (always present)."""
    return (mu.length, mu.part(mu.length) + mu.length - 1)


def pi(state: NuSubsetState) -> NuSubsetState:
    """Toggle membership of the bottom-row removable box."""
    corner = bottom_removable_box(state.base)
    return NuSubsetState(state.base, state.chosen ^ {corner})


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


def _nu_states(mu: StrictPartition) -> list[NuSubsetState]:
    """One state per subset of Rem(mu), in ``removable_subsets`` order."""
    return [NuSubsetState(mu, chosen) for chosen in removable_subsets(mu)]


def pairing_certificate(lam: StrictPartition, mu: StrictPartition, n: int,
                        family: str, minimal_only: bool = False,
                        max_boxes: int = 12) -> PairingCertificate:
    """Match every tableau of the double-skew family with a partner.

    Non-minimal tableaux pair with their involution image (tag "iota");
    the minimal tableau of lam/nu pairs with the minimal tableau of the
    inner shape reached by toggling the bottom-row removable box (tag
    "pi").  With minimal_only=True only the pi pairs are produced, which
    stays feasible for large shapes.  The elements of one nu share one
    shape object, so treat them as read-only.
    """
    if not mu or not is_subpartition(mu, lam):
        raise ValueError("need a nonempty mu contained in lam")
    rem = removable_boxes(mu)
    if not minimal_only and lam.weight - mu.weight + len(rem) > max_boxes:
        raise ValueError("infeasible scale; use minimal_only")
    cert = PairingCertificate(lam, mu, n, family, minimal_only)
    states = _nu_states(mu)
    shapes = {s.chosen: SkewShape(lam, s.nu) for s in states}
    shape_json = {key: shape.to_json() for key, shape in shapes.items()}

    def element(s: NuSubsetState, T: Filling) -> dict:
        return {"nu": list(shapes[s.chosen].inner.parts),
                "tableau": T.to_json(shape_json[s.chosen])}

    minimal = {key: minimal_tableau(shape, family, n)
               for key, shape in shapes.items()}
    done_pi = set()
    for s in states:
        if s.chosen in done_pi:
            continue
        t = pi(s)
        cert.pairs.append(Pair(element(s, minimal[s.chosen]),
                               element(t, minimal[t.chosen]), "pi"))
        done_pi.update({s.chosen, t.chosen})
    if minimal_only:
        return cert

    for s in states:
        tmin = minimal[s.chosen]
        for T, partner in _iota_pairs(shapes[s.chosen], family, n, tmin):
            if partner == T or iota(partner, tmin) != T:
                cert.leftover.append(element(s, T))
                continue
            cert.pairs.append(Pair(element(s, T), element(s, partner),
                                   "iota"))
    return cert


def certificate_covers(cert: PairingCertificate,
                       elements: list[dict]) -> tuple[bool, str | None]:
    """Check that a certificate matches each given element exactly once."""
    import json

    def key(e):
        return json.dumps(e, sort_keys=True)

    seen: dict[str, int] = {}
    for p in cert.pairs:
        l, r = key(p.left), key(p.right)
        if l == r:
            return False, f"self-pair {l}"
        seen[l] = seen.get(l, 0) + 1
        seen[r] = seen.get(r, 0) + 1
    want = {key(e) for e in elements}
    if set(seen) != want:
        return False, "paired elements differ from the enumerated family"
    if any(v != 1 for v in seen.values()):
        return False, "an element appears in more than one pair"
    if cert.leftover:
        return False, "nonempty leftover"
    return True, None


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
    state_of = {s.nu.parts: s for s in _nu_states(mu)}
    shapes = {nu: SkewShape(lam, StrictPartition(nu)) for nu in state_of}
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
            signs.append((T.size() - T.shape.size + state_of[nu].b) % 2)
            sides.append((nu, T))
        (nu_l, _), (nu_r, _) = sides
        if signs[0] == signs[1]:
            return False, f"pair {k}: both sides have the same sign"
        if p.tag == "iota" and nu_l != nu_r:
            return False, f"pair {k}: iota pair across two inner shapes"
        if p.tag == "pi":
            if pi(state_of[nu_l]) != state_of[nu_r]:
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
