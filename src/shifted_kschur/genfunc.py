"""Schur P/Q and their K-theoretic GP/GQ variants as exact polynomials.

Polynomials are built letter by letter: the tableaux of lam/mu in x1..xk
split by the shape nu their letters below k fill, so the sum is a
recursion over strict shapes mu <= nu <= lam with one-letter factors (the
coproduct with a single y-variable).  Folding the enumeration stream into a
polynomial (``_tableau_sum``) is kept as the definition the engine is
tested against.  The double-skew functions additionally sum over inner
shapes obtained by deleting subsets of removable boxes, and the shortcut
path evaluates that sum symbolically without touching any tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .enumeration import EnumSpec, enumerate_fillings
from .polyring import LaurentPoly
from .shapes import (SkewShape, StrictPartition, is_subpartition,
                     remove_subset, removable_boxes, removable_subsets,
                     strict_subpartitions)

FAMILIES = ("P", "Q", "GP", "GQ", "GPdouble", "GQdouble")

COPRODUCT_MAX_WEIGHT = 6


@dataclass(frozen=True)
class FunctionSpec:
    family: str
    shape: SkewShape
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def base_family(self) -> str:
        return "P" if self.family in ("P", "GP", "GPdouble") else "Q"

    @property
    def kind(self) -> str:
        return "single" if self.family in ("P", "Q") else "set-valued"


def _tableau_sum(shape: SkewShape, n: int, family: str,
                 kind: str) -> LaurentPoly:
    """The definition: each tableau adds x^weight * b^(|T| - #boxes)."""
    spec = EnumSpec(shape, n, family, kind)
    terms: dict = {}
    base = shape.size
    for f in enumerate_fillings(spec):
        key = (f.weight(), f.size() - base)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly(n, terms)


@lru_cache(maxsize=1 << 14)
def _one_letter(outer: tuple, inner: tuple, family: str,
                kind: str) -> tuple[tuple[int, int, int], ...]:
    """The tableau sum of outer/inner in one letter: (x-exp, b-exp, coeff)."""
    shape = SkewShape(StrictPartition(outer), StrictPartition(inner))
    p = _tableau_sum(shape, 1, family, kind)
    return tuple((x[0], b, c) for (x, b), c in p.terms.items())


def _letter_factor(nu: tuple, rho: tuple, mu: StrictPartition, family: str,
                   kind: str) -> dict:
    """The last letter's factor f(nu, rho), as {(x-exp, b-exp): coeff}.

    The boxes of nu/rho hold that letter only.  In set-valued tableaux it
    may also join the boxes of a set S of corners of rho outside mu; each
    such box already counts in rho, so S contributes b^|S| times the
    one-letter sum of nu/(rho - S).  A corner inside mu holds no entries.
    """
    out: dict = {}
    if not _one_letter(nu, rho, family, kind):
        return out  # a filling of nu/(rho - S) restricts to one of nu/rho
    rho_p = StrictPartition(rho)
    corners = []
    if kind == "set-valued" and rho:
        corners = sorted(box for box in removable_boxes(rho_p)
                         if rho_p.part(box[0]) > mu.part(box[0]))
    for mask in range(1 << len(corners)):
        S = [box for k, box in enumerate(corners) if mask >> k & 1]
        inner = remove_subset(rho_p, S).parts if S else rho
        for x, b, c in _one_letter(nu, inner, family, kind):
            key = (x, b + len(S))
            out[key] = out.get(key, 0) + c
    return out


def _branching_sum(shape: SkewShape, n: int, family: str,
                   kind: str) -> LaurentPoly:
    """``_tableau_sum`` by recursion over strict shapes, with no tableaux.

    Level k maps each strict nu with mu <= nu <= lam to the tableau sum of
    nu/mu in x1..xk: F_k(nu) = sum over mu <= rho <= nu of F_(k-1)(rho)
    times the letter-k factor f(nu, rho), which is the same at every level
    and so is computed once per call.
    """
    lam, mu = shape.outer.parts, shape.inner.parts
    nus = [nu.parts for nu in strict_subpartitions(shape.outer)
           if is_subpartition(shape.inner, nu)]
    factors: dict = {}
    level = {mu: {((), 0): 1}}
    for k in range(1, n + 1):
        nxt = {}
        for nu in nus if k < n else [lam]:
            terms: dict = {}
            for rho, poly in level.items():
                if len(rho) > len(nu) or any(r > v for r, v in zip(rho, nu)):
                    continue
                factor = factors.get((nu, rho))
                if factor is None:
                    factor = factors[nu, rho] = _letter_factor(
                        nu, rho, shape.inner, family, kind)
                for (x, b), c in factor.items():
                    for (xexp, bexp), d in poly.items():
                        key = (xexp + (x,), bexp + b)
                        terms[key] = terms.get(key, 0) + c * d
            if terms:
                nxt[nu] = terms
        level = nxt
    return LaurentPoly(n, level.get(lam, {}))


def compute(spec: FunctionSpec) -> LaurentPoly:
    """The polynomial of the requested family on the given shape."""
    fam, shape, n = spec.family, spec.shape, spec.n
    if fam in ("P", "Q", "GP", "GQ"):
        return _branching_sum(shape, n, spec.base_family, spec.kind)
    # double-skew: sum over inner shapes nu = mu minus a removable subset
    lam, mu = shape.outer, shape.inner
    if not is_subpartition(mu, lam):
        return LaurentPoly.zero(n)
    terms: dict = {}
    for b, nu in _nu_terms(mu):
        skew = _branching_sum(SkewShape(lam, nu), n, spec.base_family,
                              spec.kind)
        for (x, e), c in skew.terms.items():
            terms[x, e + b] = terms.get((x, e + b), 0) + c
    return LaurentPoly(n, terms)


def _nu_terms(mu: StrictPartition) -> Iterator[tuple[int, StrictPartition]]:
    """Pairs (|mu/nu|, nu) over all nu = mu minus a subset of Rem(mu)."""
    if not mu:
        yield 0, mu
        return
    for B in removable_subsets(mu):
        yield len(B), remove_subset(mu, B)


def beta_zero(spec: FunctionSpec) -> LaurentPoly:
    """The b^0 slice of GP/GQ; equals the matching P/Q polynomial."""
    if spec.family not in ("GP", "GQ"):
        raise ValueError("beta_zero applies to GP and GQ only")
    return compute(spec).beta_slice(0)


def special_value(spec: FunctionSpec) -> LaurentPoly:
    """Replace the parameter b by -1/b and every x_i by b.

    The parameter flip must happen first: each term c*x^a*b^e becomes
    c*(-1)^e*x^a*b^-e and only then do the x's collapse onto b, yielding
    c*(-1)^e*b^(|a|-e).
    """
    if spec.family not in ("GP", "GQ", "GPdouble", "GQdouble"):
        raise ValueError("special_value applies to the K-theoretic families")
    return compute(spec).subst_beta_neg_inverse().subst_x_to_beta()


def signed_count(spec: FunctionSpec) -> int:
    """Sum of (-1)^(|T| - #boxes) over all set-valued tableaux."""
    if spec.family not in ("GP", "GQ"):
        raise ValueError("signed_count applies to GP and GQ only")
    return sum(-c if b % 2 else c for (_, b), c in compute(spec).terms.items())


class NuTerm(NamedTuple):
    nu: StrictPartition
    removed: int  # |mu/nu|
    sign: int     # (-1)^removed


class DoubleSkewShortcut(NamedTuple):
    value: LaurentPoly
    terms: tuple[NuTerm, ...]


def double_skew_shortcut(lam: StrictPartition,
                         mu: StrictPartition) -> DoubleSkewShortcut:
    """The special value of the double-skew function, no tableaux involved.

    Each admissible nu contributes (-1/b)^|mu/nu| * b^|lam/nu|, which is
    (-1)^|mu/nu| * b^(|lam|-|mu|); the signs cancel pairwise whenever mu is
    nonempty.  Returns 0 outright when mu is not contained in lam.
    """
    if not is_subpartition(mu, lam):
        return DoubleSkewShortcut(LaurentPoly.zero(1), ())
    if not mu:
        return DoubleSkewShortcut(LaurentPoly.beta(1, lam.weight), ())
    terms = []
    for b, nu in _nu_terms(mu):
        terms.append(NuTerm(nu, b, -1 if b % 2 else 1))
    terms.sort(key=lambda t: (t.removed, t.nu.parts))
    coeff = sum(t.sign for t in terms)  # of b^(|lam| - |mu|)
    value = LaurentPoly(1, {((0,), lam.weight - mu.weight): coeff})
    return DoubleSkewShortcut(value, tuple(terms))


class CoproductReport(NamedTuple):
    ok: bool
    residual: LaurentPoly
    lhs: LaurentPoly
    rhs: LaurentPoly


def coproduct_check(lam: StrictPartition, n_x: int, n_y: int,
                    family: str) -> CoproductReport:
    """Compare F_lam(x,y) with the sum over nu of F_nu(x) * F_(lam over nu)(y).

    For P and Q the right factor is the plain skew function over nu inside
    lam; for GP and GQ it is the double-skew function, summed over all
    strict nu with at most n_x rows and first part at most lam_1 (terms
    with nu outside lam vanish).
    """
    if family not in ("P", "Q", "GP", "GQ"):
        raise ValueError(f"coproduct families are P, Q, GP, GQ; got {family!r}")
    if lam.weight > COPRODUCT_MAX_WEIGHT:
        raise ValueError("coproduct guard exceeded: |lambda| too large")
    total = n_x + n_y
    # enumerated, so the check does not compare the engine with itself
    spec = FunctionSpec(family, SkewShape(lam), total)
    lhs = _tableau_sum(spec.shape, total, spec.base_family, spec.kind)
    rhs: dict = {}
    if family in ("P", "Q"):
        inner_family = family
        nus = list(strict_subpartitions(lam))
    else:
        inner_family = family + "double"
        nus = [nu for nu in strict_subpartitions(lam) if nu.length <= n_x]
    for nu in nus:
        left = compute(FunctionSpec(family, SkewShape(nu), n_x))
        if not left:
            continue
        right = compute(FunctionSpec(inner_family, SkewShape(lam, nu), n_y))
        # F_nu(x) * F(y): x-exponents side by side, b-exponents added
        for (xa, ba), ca in left.terms.items():
            for (xb, bb), cb in right.terms.items():
                key = (xa + xb, ba + bb)
                rhs[key] = rhs.get(key, 0) + ca * cb
    rhs = LaurentPoly(total, rhs)
    residual = lhs - rhs
    return CoproductReport(not residual, residual, lhs, rhs)


class ParityReport(NamedTuple):
    count: int
    is_odd: bool


def parity_report(spec: FunctionSpec) -> ParityReport:
    """Count of the underlying set-valued tableau set with its parity."""
    if spec.family not in ("GP", "GQ"):
        raise ValueError("parity_report applies to GP and GQ only")
    c = sum(compute(spec).terms.values())
    return ParityReport(c, c % 2 == 1)
