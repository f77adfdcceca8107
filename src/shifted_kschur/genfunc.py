"""Schur P/Q and their K-theoretic GP/GQ variants as exact polynomials.

Polynomials are built letter by letter: the tableaux of lam/mu in x1..xk
split by the shape nu their letters below k fill, so the sum is a
recursion over strict shapes mu <= nu <= lam with one-letter factors (the
coproduct with a single y-variable).  A step goes from rho only to the nu
of ``shapes._strips_above`` (nu/rho a shifted horizontal strip, the only
pairs with a nonzero factor), and each one-letter factor is one product
over rows, of a rule on each row's first box and, for set-valued
tableaux, on its corner of rho outside mu, with no tableaux
(``_letter_factor``, kept per nu, rho and corner rows).  Each rho's
transitions, the factors with their values at x = 1 and b = 1, -1, are
made once and kept per (lam, mu, family, kind) in ``_point_levels``.
``_branching_sum`` builds the polynomial from them; from ``_ORBIT_MIN_N``
letters on it keeps one term per x-orbit, those with nonincreasing
x-exponents, as the skew functions are symmetric in x, drops the terms
whose remaining letters cannot add the boxes still missing from lam, and
expands each kept term to its orbit (``_orbit``) at the end.  Each
``_Levels`` keeps one tuple per shape its tables name.  For
``beta_zero`` it builds only the b^0 terms, each factor keeping its own,
which is exact as no factor term has a negative b-exponent.
``_point_sum`` runs the same recursion on int pairs, the sum at x = 1 and
b = 1, -1, so the count and the signed count build no polynomial, and the
special value (b^|lam/mu| times the signed count) builds only that one
monomial; its levels are kept across calls, so one recursion to n letters
serves both scalars at every n' <= n.  Folding the tableaux into a polynomial
(``_tableau_sum``, which reads each weight and |T| off the leaves of the
backtracking walk, kept per shape and n) is kept as the definition the
engine and the rule are tested against.  The three sums take lam and mu
as part tuples, the public functions a ``tableaux.FunctionSpec``.  The
double-skew functions additionally sum over inner shapes nu (mu minus a
subset of its removable boxes), listed as part tuples by ``_inner``,
which ``compute`` and a double-skew ``_at`` read, so neither builds a
``StrictPartition`` or ``SkewShape``; the shortcut path evaluates that
sum symbolically without touching any tableau.
"""

from __future__ import annotations

from collections.abc import Collection
from functools import lru_cache
from itertools import permutations
from math import inf
from typing import NamedTuple

from .enumeration import EnumSpec, _leaves
from .polyring import LaurentPoly
from .shapes import (SkewShape, StrictPartition, _corner_rows,
                     _minus_corners, _strips_above, inner_shapes,
                     is_subpartition, strict_subpartitions)
from .tableaux import _FAMILY_FACTS, FunctionSpec

FAMILIES = tuple(_FAMILY_FACTS)  # P, Q, GP, GQ, GPdouble, GQdouble
K_FAMILIES = FAMILIES[2:]

# the most tableaux a coproduct check may enumerate on its left side; the
_COPRODUCT_MAX_TABLEAUX = 500_000  # most at n_x + n_y <= 4 is 465,777


def _tableau_sum(lam: tuple, mu: tuple, n: int, family: str, kind: str,
                 b0_only: bool = False) -> LaurentPoly:
    """The definition: each tableau adds x^weight * b^(|T| - #boxes).

    The backtracking walk carries each tableau's weight and |T| to its
    leaf, so the sum builds no ``Filling``.  The terms are kept per
    (lam, mu, n, family, kind), and each call gets its own polynomial:
    with ``b0_only`` its terms with b-exponent 0 only.
    """
    terms = _tableau_terms(lam, mu, n, family, kind)
    if b0_only:
        return LaurentPoly._trusted(n, {k: c for k, c in terms.items()
                                        if not k[1]})
    return LaurentPoly._trusted(n, dict(terms))


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
def _letter_factor(nu: tuple, rho: tuple, corners: tuple, family: str,
                   kind: str) -> tuple[tuple[int, int, int], ...]:
    """The last letter's factor f(nu, rho) = x^|nu/rho| * prod_r g_r(t),
    t = x*b, as (x-exp, b-exp, coeff) triples; corners are the rows of
    rho's corners outside mu (none for single tableaux).

    One letter: rows increase weakly and hold 1' at most once, so 1' sits
    only in the first box of a row; 1 appears at most once per column and
    a cell's max is at most the min of the cell below, so a box holding 1
    has no box below.  Hence every box of a row but its first holds {1},
    and the sum is 0 if one of them has a box below.  A row's first box
    holds {1'} unless it is diagonal and the family is P, {1} if no box is
    below it, and {1',1} (set-valued only, one more entry: t) when both
    hold.  So row r, with v = nu_r, p = rho_r and w = nu_(r+1), gives
    h(p) = 0 when w > p; 2 + t (set-valued) or 2 (single) when v > p and
    (w < p, or p = 0 in family Q); and 1 otherwise.

    In set-valued tableaux the letter may also join the boxes of a set S
    of rho's corners outside mu (a corner inside mu holds no entries);
    each such box already counts in rho, so S adds x^|S| b^|S| = t^|S|
    times the one-letter sum of nu/(rho - S).  Row r's rule reads rho_r
    only, and removing any set of corners leaves rho - S strict, so the
    sum over S factors row by row: g_r = h(p), or h(p) + t*h(p - 1) on a
    corner row.
    """
    poly = [1]  # the product so far, by power of t
    for r, (v, p, w) in enumerate(zip(nu, rho + (0,) * (len(nu) - len(rho)),
                                      nu[1:] + (0,))):
        if w > p:
            return ()  # a box but the row's first has a box below
        g = [0, 0, 0]  # h(p), then t*h(p - 1) on a corner row
        for j, q in enumerate((p, p - 1) if r in corners else (p,)):
            if w <= q:
                free = v > q and (w < q or (q == 0 and family == "Q"))
                g[j] += 2 if free else 1
                g[j + 1] += free and kind == "set-valued"
        out = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            for j, d in enumerate(g):
                out[i + j] += c * d
        poly = out
    size = sum(nu) - sum(rho)
    return tuple((size + j, j, c) for j, c in enumerate(poly) if c)


class _Levels:
    """One letter-by-letter recursion over the shapes mu <= nu <= lam.

    ``moves`` maps each rho stepped from to its transitions, one flat
    tuple ``(nu, f(nu, rho), f(1|1), f(1|-1), nu, ...)`` over the nu of
    ``_strips_above(rho, lam)``, built on first use by ``steps``: the
    factor for the polynomial and its values at x = 1, b = 1, -1 for the
    point pairs.  ``at_lam[k]`` is the pair F_k(lam) for each level k the
    point recursion reached, and ``last`` that deepest level whole, every
    nu reached with its pair, to extend from.  ``shapes`` maps each nu
    seen to the one tuple the tables keep for it, so a shape reached from
    many rho is held once.
    """

    __slots__ = ("key", "moves", "shapes", "at_lam", "last")

    def __init__(self, lam: tuple, mu: tuple, family: str, kind: str):
        self.key = (lam, mu, family, kind)
        self.moves: dict = {}
        self.shapes: dict = {}
        self.at_lam = [(1, 1) if lam == mu else (0, 0)]
        self.last = {mu: (1, 1)}

    def steps(self, rho: tuple) -> tuple:
        """rho's transitions, made here the first time rho is stepped
        from: the one place either recursion builds them."""
        out = self.moves.get(rho)
        if out is None:
            lam, mu, family, kind = self.key
            corners = ()
            if kind == "set-valued":  # the corners of rho outside mu
                corners = tuple(r for r in _corner_rows(rho)
                                if rho[r] > (mu[r] if r < len(mu) else 0))
            flat: list = []
            for nu in _strips_above(rho, lam):
                nu = self.shapes.setdefault(nu, nu)
                f = _letter_factor(nu, rho, corners, family, kind)
                count = signed = 0  # f at x = 1 and b = 1, -1
                for _, b, c in f:
                    count += c
                    signed += -c if b & 1 else c
                flat += (nu, f, count, signed)
            out = self.moves[rho] = tuple(flat)
        return out


@lru_cache(maxsize=512)
def _point_levels(lam: tuple, mu: tuple, family: str, kind: str) -> _Levels:
    """The recursion kept per key: ``_branching_sum`` and ``_point_sum``
    read its transitions, and ``_point_sum`` extends its point levels in
    place, so one recursion serves every n and both scalars."""
    return _Levels(lam, mu, family, kind)


# From this many letters on, ``_branching_sum`` keeps one term per x-orbit.
_ORBIT_MIN_N = 4


def _branching_sum(lam: tuple, mu: tuple, n: int, family: str, kind: str,
                   b0_only: bool = False) -> LaurentPoly:
    """``_tableau_sum`` by recursion over strict shapes, with no tableaux.

    Level k maps each strict nu with mu <= nu <= lam to the tableau sum of
    nu/mu in x1..xk: F_k(nu) is the sum over rho of F_(k-1)(rho) times the
    letter-k factor f(nu, rho).  The factor is nonzero only for the nu of
    ``_strips_above(rho, lam)`` and is the same at every level, so each
    rho's transitions come from the kept ``_Levels`` of (lam, mu, family,
    kind), which ``_point_sum`` reads too.  The polynomial is built afresh
    per call, the last level keeping nu = lam only.

    From ``_ORBIT_MIN_N`` letters on, level k keeps only the terms with
    x1 >= ... >= xk, one per x-orbit.  Such a term of F_k(nu) comes only
    from such a term of F_(k-1)(rho) times xk^a with a <= x(k-1), so the
    kept coefficients are exact.  F_k(nu) is the skew function of nu/mu in
    k letters, which is symmetric in x (Ikeda-Naruse 2013, Adv. Math. 243;
    Lam-Pylyavskyy 2007), so these terms determine it: each is expanded
    once, at the end, to its orbit (``_orbit``), and the caller gets the
    full polynomial.  The gate sits at 4 letters by measurement: at 2 and
    3 letters the expansion costs what the pruning saves (over 10
    alternated runs of the benchmark's sweep, whose requests all have
    n <= 3, a gate at 2 read 18% slower in p90 and one at 3 7% slower),
    so below it the loop keeps every term and tests no exponent.

    From the gate on, a term that cannot reach lam is dropped too: a term
    of F_k(nu) with (n - k) * x(k) < |lam/nu| is dead.  Letter j's factor
    is x^|nu/rho| * t^e (``_letter_factor``), so its x-exponent x(j) is
    at least the |nu/rho| boxes the letter adds, and a kept term has
    x(j) <= x(k) for every later j; the n - k letters left add at most
    (n - k) * x(k) boxes.  At nu = lam the bound is 0 and never drops a
    term.  A nu none of whose terms live is left out of the level, so it
    is not stepped from and ``_Levels.steps`` builds no table for it.

    Precondition of ``b0_only``: every factor term has b-exponent >= 0
    (``_letter_factor``'s power of t = x*b is never negative),
    so a product of factor terms has b-exponent 0 exactly when each of
    them has.  With ``b0_only`` each transition's factor keeps its b^0
    terms only, and the sum is exactly the b^0 terms of the full one.
    """
    levels = _point_levels(lam, mu, family, kind)
    orbits = n >= _ORBIT_MIN_N
    size = sum(lam)
    level = {mu: {((), 0): 1}}
    for k in range(1, n + 1):
        only = lam if k == n else None
        left = n - k  # letters still to come
        nxt: dict = {}
        for rho, value in level.items():
            out = levels.steps(rho)
            for nu, factor in zip(out[::4], out[1::4]):
                if only is not None and nu != only:
                    continue
                if b0_only:
                    factor = [t for t in factor if not t[1]]
                if not orbits:
                    terms = nxt.setdefault(nu, {})
                    for x, b, c in factor:
                        for (xexp, bexp), d in value.items():
                            key = (xexp + (x,), bexp + b)
                            terms[key] = terms.get(key, 0) + c * d
                    continue
                # xk >= low, or the later letters cannot fill lam/nu
                low = -((sum(nu) - size) // left) if left else 0
                terms = nxt.get(nu, {})
                for (xexp, bexp), d in value.items():
                    top = xexp[-1] if xexp else inf  # x(k-1) bounds xk
                    for x, b, c in factor:
                        if low <= x <= top:
                            key = (xexp + (x,), bexp + b)
                            terms[key] = terms.get(key, 0) + c * d
                if terms:  # a nu with no live term is not stepped from
                    nxt[nu] = terms
        level = nxt
    # every coefficient counts tableaux, so none is 0
    terms = level.get(lam, {})
    if not orbits:
        return LaurentPoly._trusted(n, terms)
    full: dict = {}
    for (rep, b), c in terms.items():
        for x in _orbit(rep):
            full[x, b] = c
    return LaurentPoly._trusted(n, full)


def _orbit(rep: tuple) -> Collection[tuple]:
    """Every distinct rearrangement of the exponent tuple rep, once each;
    rep is nonincreasing.

    ``set(permutations(rep))`` runs in C but makes all n! tuples, which is
    fast up to n = 6 (720) and not beyond.  Above that the arrangements
    are built per distinct value, with the arrangements of each
    sub-multiset made once, so the cost follows the distinct
    rearrangements rather than n!.
    """
    if len(rep) <= 6:
        return set(permutations(rep))
    memo: dict = {(): [()]}

    def arrange(rest: tuple) -> list:
        got = memo.get(rest)
        if got is None:
            got = []
            for i, v in enumerate(rest):
                if i and v == rest[i - 1]:  # rest is sorted: one per value
                    continue
                got += [(v,) + t for t in arrange(rest[:i] + rest[i + 1:])]
            memo[rest] = got
        return got

    return arrange(rep)


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
    if not spec.family.endswith("double"):  # _inner's one lam/mu
        return _point_sum(lam, spec.shape.inner.parts, n, family, kind)
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
    """The b^0 slice of GP/GQ; equals the matching P/Q polynomial.

    Only the b^0 terms are built: the set-valued recursion keeps each
    factor's b^0 terms, and since no factor term has a negative
    b-exponent, these make exactly the b^0 terms of ``compute(spec)``.
    The factors read are the set-valued ones, not P/Q's, so the check
    against P/Q compares two recursions.
    """
    if spec.family not in ("GP", "GQ"):
        raise ValueError("beta_zero applies to GP and GQ only")
    return _branching_sum(spec.shape.outer.parts, spec.shape.inner.parts,
                          spec.n, spec.base_family, spec.kind, b0_only=True)


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
    tableaux than it may enumerate, by the engine's count.  A straight lam
    with more rows than letters passes uncounted: its count is 0, as the
    diagonal letters of a shifted tableau increase strictly."""
    if spec.shape.outer.length > spec.n:
        return
    size = _at(spec)[0]
    if size > _COPRODUCT_MAX_TABLEAUX:
        raise ValueError(f"coproduct guard exceeded: {size} tableaux for "
                         f"{spec.family} {spec.shape} at n={spec.n}, above "
                         f"the limit of {_COPRODUCT_MAX_TABLEAUX}")


def coproduct_check(lam: StrictPartition, n_x: int, n_y: int,
                    family: str) -> CoproductReport:
    """Compare F_lam(x,y) with the sum over nu of F_nu(x) * F_(lam over nu)(y).

    The sum is over the strict nu inside lam with at most n_x rows.  F_nu
    in n_x letters is 0 when nu has more rows, as the diagonal letters of a
    shifted tableau increase strictly, and never 0 otherwise: row i may
    hold the letter i throughout.  For P and Q the right factor is the
    plain skew function; for GP and GQ it is the double-skew function.
    """
    if family not in ("P", "Q", "GP", "GQ"):
        raise ValueError(f"coproduct families are P, Q, GP, GQ; got {family!r}")
    total = n_x + n_y
    # enumerated, so the check does not compare the engine with itself
    spec = FunctionSpec(family, SkewShape(lam), total)
    _coproduct_guard(spec)
    lhs = _tableau_sum(lam.parts, (), total, spec.base_family, spec.kind)
    rhs: dict = {}
    inner_family = family if family in ("P", "Q") else family + "double"
    for nu in strict_subpartitions(lam):
        if nu.length > n_x:
            continue
        left = compute(FunctionSpec(family, SkewShape(nu), n_x))
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
