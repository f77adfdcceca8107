"""Schur P/Q and their K-theoretic GP/GQ variants as exact polynomials.

Polynomials are built letter by letter: the tableaux of lam/mu in x1..xk
split by the shape nu their letters below k fill, so the sum is a
recursion over strict shapes mu <= nu <= lam with one-letter factors (the
coproduct with a single y-variable).  A step goes from rho only to the nu
of ``shapes._strips_above`` (nu/rho a shifted horizontal strip, the only
pairs with a nonzero factor), and each one-letter factor comes from a
per-row rule on the first box of each row, with no tableaux.  Each rho's
transitions, the factors with their values at x = 1 and b = 1, -1, are
made once and kept per (lam, mu, family, kind) in ``_point_levels``.
``_branching_sum`` builds the polynomial from them.  ``_point_sum`` runs
the same recursion on int pairs, the sum at x = 1 and b = 1, -1, so the
count and the signed count build no polynomial, and the special value
(b^|lam/mu| times the signed count) builds only that one monomial; its
levels are kept across calls, so one recursion to n letters serves both
scalars at every n' <= n.  Folding the tableaux into a polynomial
(``_tableau_sum``, which reads each weight and |T| off the leaves of the
backtracking walk, kept per shape and n) is kept as the definition the
engine and the rule are tested against.  The three sums take lam and mu
as part tuples.  The double-skew functions additionally sum over inner
shapes nu (mu minus a subset of its removable boxes), listed as part
tuples by ``_inner``, which ``compute`` and ``_at`` both read, so neither
builds a ``StrictPartition`` or ``SkewShape``; the shortcut path evaluates
that sum symbolically without touching any tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .enumeration import EnumSpec, _leaves
from .polyring import LaurentPoly
from .shapes import (SkewShape, StrictPartition, _corner_rows,
                     _minus_corners, _strips_above, inner_shapes,
                     is_subpartition, strict_subpartitions)
from .tableaux import _check_n

FAMILIES = ("P", "Q", "GP", "GQ", "GPdouble", "GQdouble")
K_FAMILIES = FAMILIES[2:]

COPRODUCT_MAX_WEIGHT = 6
# the most tableaux a coproduct check may enumerate on its left side; the
_COPRODUCT_MAX_TABLEAUX = 500_000  # most at n_x + n_y <= 4 is 465,777


@dataclass(frozen=True)
class FunctionSpec:
    family: str
    shape: SkewShape
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        _check_n(self.n)

    @property
    def base_family(self) -> str:
        return "P" if self.family in ("P", "GP", "GPdouble") else "Q"

    @property
    def kind(self) -> str:
        return "single" if self.family in ("P", "Q") else "set-valued"


def _tableau_sum(lam: tuple, mu: tuple, n: int, family: str,
                 kind: str) -> LaurentPoly:
    """The definition: each tableau adds x^weight * b^(|T| - #boxes).

    The backtracking walk carries each tableau's weight and |T| to its
    leaf, so the sum builds no ``Filling``.  The terms are kept per
    (lam, mu, n, family, kind), and each call gets its own polynomial.
    """
    return LaurentPoly._trusted(n, dict(_tableau_terms(lam, mu, n, family,
                                                       kind)))


@lru_cache(maxsize=256)
def _tableau_terms(lam: tuple, mu: tuple, n: int, family: str,
                   kind: str) -> dict:
    """``_tableau_sum``'s terms, {(x-exps, b-exp): coeff}; read-only, as
    every caller gets a copy."""
    shape = SkewShape(StrictPartition(lam), StrictPartition(mu))
    terms: dict = {}
    base = shape.size
    for _, counts, size in _leaves(EnumSpec(shape, n, family, kind)):
        key = (tuple(counts), size - base)
        terms[key] = terms.get(key, 0) + 1
    return terms


@lru_cache(maxsize=1 << 14)
def _one_letter(outer: tuple, inner: tuple, family: str,
                kind: str) -> tuple[tuple[int, int, int], ...]:
    """The tableau sum of outer/inner in one letter: (x-exp, b-exp, coeff).

    Rows increase weakly and hold 1' at most once, so 1' sits only in the
    first box of a row; 1 appears at most once per column and a cell's max
    is at most the min of the cell below, so a box holding 1 has no box below.
    Hence every other box of a row holds {1}, and the sum is 0 if one of them
    has a box below.  A row's first box holds {1'} unless it is diagonal and
    the family is P, {1} if no box is below it, and {1',1} (set-valued only,
    one more entry: x*b) when both hold.  The sum is x^|outer/inner| times the
    product of these first-box polynomials.
    """
    rho = inner + (0,) * (len(outer) - len(inner))
    free = 0  # rows whose first box may hold {1'} or {1}
    for v, p, w in zip(outer, rho, outer[1:] + (0,)):
        if w > p:
            return ()  # a non-first box of this row has a box below
        if v > p and (w < p or (p == 0 and family == "Q")):
            free += 1
    size = sum(outer) - sum(inner)
    if kind == "single":
        return ((size, 0, 1 << free),)
    return tuple((size + j, j, comb(free, j) << (free - j))
                 for j in range(free + 1))


def _letter_factor(nu: tuple, rho: tuple, mu: tuple, family: str,
                   kind: str) -> tuple[tuple[int, int, int], ...]:
    """The last letter's factor f(nu, rho), as ``_one_letter``'s
    (x-exp, b-exp, coeff) triples.

    The boxes of nu/rho hold that letter only.  In set-valued tableaux it
    may also join the boxes of a set S of corners of rho outside mu; each
    such box already counts in rho, so S contributes b^|S| times the
    one-letter sum of nu/(rho - S).  A corner inside mu holds no entries.
    With no corner of rho outside mu the factor is ``_one_letter``'s own
    cached tuple; a sum over S is interned, so equal factors share one
    tuple.
    """
    corners = []
    if kind == "set-valued":  # the corners of rho outside mu
        corners = [r for r in _corner_rows(rho)
                   if rho[r] > (mu[r] if r < len(mu) else 0)]
    if not corners:
        return _one_letter(nu, rho, family, kind)
    out: dict = {}
    for s, inner in _minus_corners(rho, corners):
        for x, b, c in _one_letter(nu, inner, family, kind):
            out[x, b + s] = out.get((x, b + s), 0) + c
    return _interned(tuple((x, b, c) for (x, b), c in out.items()))


@lru_cache(maxsize=1 << 12)
def _interned(value: tuple) -> tuple:
    """The first tuple seen equal to value, so the kept transition tables
    hold one object per distinct nu and factor."""
    return value


class _Levels:
    """One letter-by-letter recursion over the shapes mu <= nu <= lam.

    ``moves`` maps each rho stepped from to its transitions, one flat
    tuple ``(nu, f(nu, rho), f(1|1), f(1|-1), nu, ...)`` over the nu of
    ``_strips_above(rho, lam)``, built on first use by ``steps``: the
    factor for the polynomial and its values at x = 1, b = 1, -1 for the
    point pairs.  ``at_lam[k]`` is the pair F_k(lam) for each level k the
    point recursion reached, and ``last`` that deepest level whole, every
    nu reached with its pair, to extend from.
    """

    __slots__ = ("key", "moves", "at_lam", "last")

    def __init__(self, lam: tuple, mu: tuple, family: str, kind: str):
        self.key = (lam, mu, family, kind)
        self.moves: dict = {}
        self.at_lam = [(1, 1) if lam == mu else (0, 0)]
        self.last = {mu: (1, 1)}

    def steps(self, rho: tuple) -> tuple:
        """rho's transitions, made here the first time rho is stepped
        from: the one place either recursion builds them."""
        out = self.moves.get(rho)
        if out is None:
            lam, mu, family, kind = self.key
            flat: list = []
            for nu in _strips_above(rho, lam):
                f = _letter_factor(nu, rho, mu, family, kind)
                count = signed = 0  # f at x = 1 and b = 1, -1
                for _, b, c in f:
                    count += c
                    signed += -c if b & 1 else c
                flat += (_interned(nu), f, count, signed)
            out = self.moves[rho] = tuple(flat)
        return out


@lru_cache(maxsize=512)
def _point_levels(lam: tuple, mu: tuple, family: str, kind: str) -> _Levels:
    """The recursion kept per key: ``_branching_sum`` and ``_point_sum``
    read its transitions, and ``_point_sum`` extends its point levels in
    place, so one recursion serves every n and both scalars."""
    return _Levels(lam, mu, family, kind)


def _branching_sum(lam: tuple, mu: tuple, n: int, family: str,
                   kind: str) -> LaurentPoly:
    """``_tableau_sum`` by recursion over strict shapes, with no tableaux.

    Level k maps each strict nu with mu <= nu <= lam to the tableau sum of
    nu/mu in x1..xk: F_k(nu) is the sum over rho of F_(k-1)(rho) times the
    letter-k factor f(nu, rho).  The factor is nonzero only for the nu of
    ``_strips_above(rho, lam)`` and is the same at every level, so each
    rho's transitions come from the kept ``_Levels`` of (lam, mu, family,
    kind), which ``_point_sum`` reads too.  The polynomial is built afresh
    per call, the last level keeping nu = lam only.
    """
    levels = _point_levels(lam, mu, family, kind)
    level = {mu: {((), 0): 1}}
    for k in range(1, n + 1):
        only = lam if k == n else None
        nxt: dict = {}
        for rho, value in level.items():
            out = levels.steps(rho)
            for nu, factor in zip(out[::4], out[1::4]):
                if only is not None and nu != only:
                    continue
                terms = nxt.setdefault(nu, {})
                for x, b, c in factor:
                    for (xexp, bexp), d in value.items():
                        key = (xexp + (x,), bexp + b)
                        terms[key] = terms.get(key, 0) + c * d
        level = nxt
    # every coefficient counts tableaux, so none is 0
    return LaurentPoly._trusted(n, level.get(lam, {}))


def _point_sum(lam: tuple, mu: tuple, n: int, family: str,
               kind: str) -> tuple[int, int]:
    """``_branching_sum`` of lam/mu at x = 1 and b = 1, -1, with no
    polynomial built.

    lam and mu are part tuples, mu inside lam, so the call builds no
    shape.  The pair is (count, signed count): each tableau counts 1 and
    (-1)^(|T| - #boxes).  The recursion is ``_branching_sum``'s with int
    pairs for values and the kept factors read at the two points, from
    levels kept across calls and extended to n on demand.  A reached nu
    has a positive count, so the levels need no zero filter.
    """
    levels = _point_levels(lam, mu, family, kind)
    while len(levels.at_lam) <= n:
        nxt: dict = {}
        for rho, (count, signed) in levels.last.items():
            out = levels.steps(rho)
            for nu, c, s in zip(out[::4], out[2::4], out[3::4]):
                was = nxt.get(nu, (0, 0))
                nxt[nu] = (was[0] + c * count, was[1] + s * signed)
        levels.last = nxt
        levels.at_lam.append(nxt.get(lam, (0, 0)))
    return levels.at_lam[n]


def _inner(spec: FunctionSpec) -> list[tuple[int, tuple]]:
    """(|mu/nu|, nu) as part tuples for each lam/nu the family is the sum
    of b^|mu/nu| times: mu alone, or for a double-skew family each nu of
    ``inner_shapes``.  The one statement of the double-skew expansion."""
    mu = spec.shape.inner.parts
    if spec.family.endswith("double"):
        return _minus_corners(mu, _corner_rows(mu))
    return [(0, mu)]


def _at(spec: FunctionSpec) -> tuple[int, int]:
    """The family at x = 1 and b = 1, -1: (count, signed count), with no
    polynomial and no shape built.  On the signed side lam/nu counts
    (-1)^|mu/nu|."""
    lam, n, family, kind = (spec.shape.outer.parts, spec.n,
                            spec.base_family, spec.kind)
    count = signed = 0
    for b, nu in _inner(spec):
        c, s = _point_sum(lam, nu, n, family, kind)
        count += c
        signed += -s if b & 1 else s
    return count, signed


def compute(spec: FunctionSpec) -> LaurentPoly:
    """The polynomial of the requested family on the given shape, with no
    shape built; a single lam/nu's polynomial is returned as built."""
    lam, n, family, kind = (spec.shape.outer.parts, spec.n,
                            spec.base_family, spec.kind)
    inner = _inner(spec)
    if len(inner) == 1:
        return _branching_sum(lam, inner[0][1], n, family, kind)
    terms: dict = {}
    for b, nu in inner:
        skew = _branching_sum(lam, nu, n, family, kind)
        for (x, e), c in skew.terms.items():
            terms[x, e + b] = terms.get((x, e + b), 0) + c
    return LaurentPoly._trusted(n, terms)


def beta_zero(spec: FunctionSpec) -> LaurentPoly:
    """The b^0 slice of GP/GQ; equals the matching P/Q polynomial."""
    if spec.family not in ("GP", "GQ"):
        raise ValueError("beta_zero applies to GP and GQ only")
    return compute(spec).beta_slice(0)


def special_value(spec: FunctionSpec) -> LaurentPoly:
    """Replace the parameter b by -1/b and every x_i by b.

    The parameter flip must happen first: each term c*x^a*b^e becomes
    c*(-1)^e*x^a*b^-e and only then do the x's collapse onto b, yielding
    c*(-1)^e*b^(|a|-e).  Every term has |a| - e = |lam/mu| (an entry past
    one per box adds one to both; the double-skew shift |mu/nu| cancels
    against |lam/nu|), so the value is b^|lam/mu| times the signed count,
    and no polynomial in x is built: the one polynomial made is that
    monomial, taken as is (``_trusted``), or zero when the count is 0.
    """
    if spec.family not in K_FAMILIES:
        raise ValueError("special_value applies to the K-theoretic families")
    s = _at(spec)[1]
    n = spec.n
    return LaurentPoly._trusted(
        n, {((0,) * n, spec.shape.size): s} if s else {})


def signed_count(spec: FunctionSpec) -> int:
    """Sum of (-1)^(|T| - #boxes) over all set-valued tableaux, the family
    at x = 1, b = -1.  In a double-skew family a tableau of lam/nu counts
    (-1)^(|T| - |lam/nu| + |mu/nu|)."""
    if spec.family not in K_FAMILIES:
        raise ValueError("signed_count applies to the K-theoretic families")
    return _at(spec)[1]


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
    nonempty.  Raises ``ValueError`` when mu is not contained in lam, as
    ``SkewShape`` does: there is no tableau family to vanish.
    """
    if not is_subpartition(mu, lam):
        raise ValueError(f"{mu} is not contained in {lam}")
    if not mu:
        return DoubleSkewShortcut(LaurentPoly.beta(1, lam.weight), ())
    terms = [NuTerm(nu, b, -1 if b % 2 else 1) for b, nu in inner_shapes(mu)]
    terms.sort(key=lambda t: (t.removed, t.nu.parts))
    coeff = sum(t.sign for t in terms)  # of b^(|lam| - |mu|)
    value = LaurentPoly(1, {((0,), lam.weight - mu.weight): coeff})
    return DoubleSkewShortcut(value, tuple(terms))


class CoproductReport(NamedTuple):
    ok: bool
    residual: LaurentPoly
    lhs: LaurentPoly
    rhs: LaurentPoly


def _coproduct_guard(spec: FunctionSpec) -> None:
    """Raise ValueError if the coproduct check's left side, spec, has more
    tableaux than it may enumerate, by the engine's count."""
    size = _at(spec)[0]
    if size > _COPRODUCT_MAX_TABLEAUX:
        raise ValueError(f"coproduct guard exceeded: {size} tableaux for "
                         f"{spec.family} {spec.shape} at n={spec.n}, above "
                         f"the limit of {_COPRODUCT_MAX_TABLEAUX}")


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
    _coproduct_guard(spec)
    lhs = _tableau_sum(lam.parts, (), total, spec.base_family, spec.kind)
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
    rhs = LaurentPoly._trusted(total, rhs)
    residual = lhs - rhs
    return CoproductReport(not residual, residual, lhs, rhs)


class ParityReport(NamedTuple):
    count: int
    is_odd: bool


def parity_report(spec: FunctionSpec) -> ParityReport:
    """Count of the underlying set-valued tableau set with its parity."""
    if spec.family not in ("GP", "GQ"):
        raise ValueError("parity_report applies to GP and GQ only")
    c = _at(spec)[0]
    return ParityReport(c, c % 2 == 1)
