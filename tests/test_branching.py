"""The letter-by-letter branching engine against the tableau definition.

``_tableau_sum`` folds the enumerated tableaux into a polynomial; it is the
definition, and the only reference the engine is compared with.
"""

import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shifted_kschur import cli, enumeration, genfunc, involutions, polyring
from shifted_kschur.enumeration import EnumSpec, count, enumerate_fillings
from shifted_kschur.genfunc import (FAMILIES, K_FAMILIES,
                                    FunctionSpec, _at,
                                    _branching_sum, _letter_factor,
                                    _point_levels, _point_sum,
                                    _tableau_sum,
                                    beta_zero, compute, coproduct_check,
                                    parity_report, special_value)
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import (SkewShape, StrictPartition, _corner_rows,
                                   _minus_corners, is_subpartition,
                                   skew_shapes,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import Filling
from reference import orbit

KINDS = ("single", "set-valued")


def parts(shape):
    """The part tuples (lam, mu) the polynomial sums take."""
    return shape.outer.parts, shape.inner.parts


def nonincreasing(poly):
    """poly's terms with nonincreasing x-exponents, one per x-orbit: the
    representatives ``_branching_sum`` returns for a symmetric poly."""
    return {(x, b): c for (x, b), c in poly.terms.items()
            if all(u >= v for u, v in zip(x, x[1:]))}


def at_one(poly):
    """poly at x = 1, b = 1 and -1: its count and signed count."""
    ones = [1] * poly.nvars
    return poly.eval_integers(ones, 1), poly.eval_integers(ones, -1)


def definition_sweep(n, family, shapes):
    """Every engine path at n letters, base family P or Q, against the
    walked tableau sum on each shape, walking each (lam, mu, kind) once.

    Both kinds: ``_branching_sum``, whole and its b^0 terms, against the
    walk's nonincreasing terms, and ``_point_sum``.  The three families
    over the base: ``compute``, its terms held by orbit, against the
    whole walk, which for the double-skew one is the sum over nu of
    b^|mu/nu| times the walk of lam/nu; ``_at`` and ``special_value``; and
    ``parity_report`` and ``beta_zero``, which is the single-valued walk.
    The engine is read through ``genfunc``'s attributes, so a function
    swapped there is the one checked.  Returns the number of family
    cases and of those with no tableau.
    """
    walks: dict = {}

    def walk(lam, mu, kind):
        key = (lam, mu, kind)
        if key not in walks:
            walks[key] = genfunc._tableau_sum(lam, mu, n, family, kind)
        return walks[key]

    cases = empty = 0
    for shape in shapes:
        lam, mu = parts(shape)
        for kind in KINDS:
            want = walk(lam, mu, kind)
            args = (lam, mu, n, family, kind)
            case = (str(shape), n, family, kind)
            assert genfunc._branching_sum(*args) == nonincreasing(want), case
            assert genfunc._branching_sum(*args, b0_only=True) == \
                nonincreasing(want.beta_slice(0)), case
            assert genfunc._point_sum(*args) == at_one(want), case
        double: dict = {}
        for removed, nu in _minus_corners(mu, _corner_rows(mu)):
            for (x, b), c in walk(lam, nu, "set-valued").terms.items():
                double[x, b + removed] = double.get((x, b + removed), 0) + c
        wants = {family: walk(lam, mu, "single"),
                 "G" + family: walk(lam, mu, "set-valued"),
                 f"G{family}double": LaurentPoly(n, double)}
        for fam, want in wants.items():
            spec = FunctionSpec(fam, shape, n)
            case = (str(shape), n, fam)
            assert genfunc.compute(spec) == want, case
            assert genfunc._at(spec) == at_one(want), case
            if fam in K_FAMILIES:
                assert genfunc.special_value(spec) == \
                    want.subst_beta_neg_inverse().subst_x_to_beta(), case
            cases += 1
            empty += not want
        spec = FunctionSpec("G" + family, shape, n)
        case = (str(shape), n, spec.family)
        total = sum(wants[spec.family].terms.values())
        assert genfunc.parity_report(spec) == (total, total % 2 == 1), case
        assert genfunc.beta_zero(spec) == wants[family], case
    return cases, empty


# n, the shapes at n, and the family cases and empty ones per base family:
# up to three letters every lam/mu with 0 < |lam| <= 6, at four and five
# letters |lam| <= 5 and 3, the empty shape included
@pytest.mark.parametrize("family", ("P", "Q"))
@pytest.mark.parametrize("n, shapes, want", [
    (1, list(skew_shapes(6)), (240, 36)),
    (2, list(skew_shapes(6)), (240, 3)),
    (3, list(skew_shapes(6)), (240, 0)),
    (4, list(skew_shapes(5, with_empty=True)), (138, 0)),
    (5, list(skew_shapes(3, with_empty=True)), (42, 0)),
], ids=("n1", "n2", "n3", "n4", "n5"))
def test_engine_equals_tableau_sum_sweep(n, shapes, want, family):
    assert definition_sweep(n, family, shapes) == want


def test_orbits_at_every_n():
    # at every n, from one letter on, the engine's result is its orbit
    # representatives: every key has nonincreasing x-exponents, and they
    # are the walk's such terms (the cut of dead terms is tested on its
    # own below)
    lam, mu = (3, 1), (1,)
    for n in (1, 2, 3, 4):
        for family in ("P", "Q"):
            for kind in KINDS:
                args = (lam, mu, n, family, kind)
                reps = _branching_sum(*args)
                assert reps and all(list(x) == sorted(x, reverse=True)
                                    for x, _ in reps), args
                assert reps == nonincreasing(_tableau_sum(*args)), args


def test_representatives_are_stable_in_n(fresh_caches):
    # the representatives at n are those at 5 whose x-exponents end in
    # 5 - n zeros, with the zeros cut: every lam/mu with |lam| <= 5.  Each
    # n runs its own recursion from cleared levels, so the kept run at 5
    # is not the cut the test compares with
    cases = 0
    for shape in skew_shapes(5, with_empty=True):
        for family in ("P", "Q"):
            for kind in KINDS:
                genfunc._point_levels.cache_clear()
                at5 = _branching_sum(*parts(shape), 5, family, kind)
                for n in (1, 2, 3, 4):
                    genfunc._point_levels.cache_clear()
                    assert _branching_sum(*parts(shape), n, family, kind) == {
                        (x[:n], b): c for (x, b), c in at5.items()
                        if not any(x[n:])}, (str(shape), family, kind, n)
                    cases += 1
    assert cases == 736


def test_branching_sum_serves_every_n_in_any_order(fresh_caches):
    # the deepest run kept per (lam, mu, family, kind) and b0_only answers
    # a smaller n with its cut and is replaced by a larger n's run: either
    # way the representatives a recursion from cleared levels gives,
    # however n is asked
    orders = ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3))
    cases = 0
    for shape in skew_shapes(6):
        for family in ("P", "Q"):
            for kind in KINDS:
                want = {}
                for n in (1, 2, 3, 4):
                    for b0 in (False, True):
                        genfunc._point_levels.cache_clear()
                        want[n, b0] = _branching_sum(*parts(shape), n, family,
                                                     kind, b0_only=b0)
                for order in orders:
                    genfunc._point_levels.cache_clear()
                    got = {(n, b0): _branching_sum(*parts(shape), n, family,
                                                   kind, b0_only=b0)
                           for n in order for b0 in (False, True)}
                    assert got == want, (str(shape), family, kind, order)
                cases += 1
    assert cases == 320


def test_branching_sum_result_is_the_callers_own(fresh_caches):
    # a dict the engine returned, changed, changes no later answer at the
    # same n (a copy of the kept run) or a smaller one (its cut)
    def reps(n, b0):
        return _branching_sum((5, 3, 1), (2,), n, "Q", "set-valued",
                              b0_only=b0)

    for b0 in (False, True):
        want = {}
        for n in (3, 2):
            genfunc._point_levels.cache_clear()
            want[n] = reps(n, b0)
        assert want[3] and want[2]
        genfunc._point_levels.cache_clear()
        for n in (3, 3, 2, 2, 3):
            got = reps(n, b0)
            assert got == want[n], (b0, n)
            key = next(iter(got))
            got[key] += 7
            del got[next(iter(got))]
            got[(9,) * n, 9] = 1


def test_dead_terms_are_dropped_at_every_n(fresh_caches):
    # a shape none of whose terms can still reach lam is not stepped from;
    # the point recursion, which prunes nothing, steps from every shape it
    # reaches before the last letter
    for lam, mu, n, family, pruned_to, reached in (
            ((9, 7, 5, 3, 1), (), 5, "Q", 148, 210),
            ((5, 3, 1), (2,), 3, "P", 16, 18)):
        genfunc._point_levels.cache_clear()
        levels = _point_levels(lam, mu, family, "set-valued")
        _branching_sum(lam, mu, n, family, "set-valued")
        pruned = set(levels.moves)
        _point_sum(lam, mu, n, family, "set-valued")
        assert pruned < set(levels.moves)
        assert (len(pruned), len(levels.moves)) == (pruned_to, reached)


def orbit_against_permutations():
    """``polyring._orbit`` on random nonincreasing tuples of 1 to 7
    entries, both its branches (set(permutations) up to 6 entries,
    arrangements above): ``reference.orbit``, every distinct permutation,
    each once, in increasing order, so an orbit is one sorted run of the
    printer's."""
    rng = random.Random(40)
    for n in range(1, 8):
        for _ in range(20):
            rep = tuple(sorted((rng.randint(0, 3) for _ in range(n)),
                               reverse=True))
            got = list(polyring._orbit(rep))
            assert got == orbit(rep), rep


def test_orbit_equals_distinct_permutations():
    orbit_against_permutations()


def test_orbit_cost_follows_distinct_arrangements():
    # 10!/8! = 90 arrangements, not 10! permutations
    got = list(polyring._orbit((3, 1) + (0,) * 8))
    assert got == sorted(set(got)) and len(got) == 90
    assert all(sorted(x, reverse=True) == [3, 1] + [0] * 8 for x in got)


def test_factor_terms_have_no_negative_b_exponent(fresh_caches):
    # b0_only's precondition: a b-exponent never falls along the recursion
    terms = 0
    for lam in strict_partitions_up_to_weight(8):
        subs = list(strict_subpartitions(lam))
        for mu in subs:
            interval = [rho.parts for rho in subs if is_subpartition(mu, rho)]
            for family in ("P", "Q"):
                for kind in KINDS:
                    levels = _point_levels(lam.parts, mu.parts, family, kind)
                    for rho in interval:
                        for step in levels.steps(rho):
                            for _, b, _ in step.factor:
                                assert b >= 0, (lam, mu, rho, family, kind)
                                terms += 1
    assert terms == 34618


def test_beta_zero_is_the_b0_slice_exhaustive():
    cases = 0
    for shape in skew_shapes(7):
        for n in (1, 2, 3, 4):
            for family in ("GP", "GQ"):
                spec = FunctionSpec(family, shape, n)
                assert beta_zero(spec) == compute(spec).beta_slice(0), \
                    (str(shape), n, family)
                cases += 1
    assert cases == 1088


def test_walk_counts_equal_filling_fold_exhaustive():
    # _tableau_sum and count read the weight and |T| the walk carries; the
    # Filling statement of both is the oracle for those running counts.
    cases = 0
    for shape in skew_shapes(5):
        for n in (1, 2, 3):
            for family in ("P", "Q"):
                for kind in KINDS:
                    spec = EnumSpec(shape, n, family, kind)
                    terms: dict = {}
                    fillings = 0
                    for f in enumerate_fillings(spec):
                        key = (f.weight(), f.size() - shape.size)
                        terms[key] = terms.get(key, 0) + 1
                        fillings += 1
                    case = (str(shape), n, family, kind)
                    assert _tableau_sum(*parts(shape), n, family, kind) == \
                        LaurentPoly(n, terms), case
                    assert count(spec) == fillings, case
                    cases += 1
    assert cases == 540


# Set-valued tableau sets with |lam| <= 7 and n = 4 reach 10^6 tableaux, too
# many to enumerate per example; instances with more than this are discarded.
MAX_TABLEAUX = 3000


@given(st.sampled_from(list(skew_shapes(7))), st.integers(1, 4),
       st.sampled_from(("P", "Q")), st.sampled_from(KINDS))
@settings(max_examples=200, deadline=None)
def test_engine_equals_tableau_sum_random(shape, n, family, kind):
    spec = EnumSpec(shape, n, family, kind)
    assume(sum(1 for _ in islice(enumerate_fillings(spec), MAX_TABLEAUX + 1))
           <= MAX_TABLEAUX)
    assert _branching_sum(*parts(shape), n, family, kind) == \
        nonincreasing(_tableau_sum(*parts(shape), n, family, kind))


# A corner of rho inside mu holds no entry, so the last letter may not join
# it.  Letting it join every removable box of rho breaks these first.
@pytest.mark.parametrize("shape, n, family, want", [
    ("1/1", 1, "P", "1"),
    ("2/2", 1, "Q", "1"),
    ("2/1", 1, "P", "2*x1 + x1^2*b"),
    ("3,1/2", 1, "Q", "4*x1^2 + 4*x1^3*b + x1^4*b^2"),
    ("2,1/1", 2, "P", "x2^2 + 2*x1*x2 + x1^2 + 2*x1*x2^2*b + 2*x1^2*x2*b"
                      " + x1^2*x2^2*b^2"),
])
def test_last_letter_avoids_corners_inside_mu(shape, n, family, want):
    shape = SkewShape.parse(shape)
    got = _branching_sum(*parts(shape), n, family, "set-valued")
    assert got == nonincreasing(LaurentPoly.parse(want, n))
    assert got == nonincreasing(
        _tableau_sum(*parts(shape), n, family, "set-valued"))


def test_one_letter_equals_tableau_sum_exhaustive():
    cases = 0
    for shape in skew_shapes(12, with_empty=True):  # the empty nu included
        nu, rho = shape.outer.parts, shape.inner.parts
        for family in ("P", "Q"):
            for kind in KINDS:
                want = _tableau_sum(*parts(shape), 1, family, kind)
                got = LaurentPoly(1, {((x,), b): c for x, b, c
                                      in _letter_factor(nu, rho, (), family,
                                                        kind)})
                assert got == want, (str(shape), family, kind)
                cases += 1
    assert cases == 5244


@pytest.mark.parametrize("nu, rho, family, want", [
    # a P diagonal box holds no 1': {1} only
    ((1,), (), "P", {(1, 0, 1)}),
    ((1,), (), "Q", {(1, 0, 2), (2, 1, 1)}),
    # box (1,2) of 2,1 is not first in its row and has (2,2) below
    ((2, 1), (), "Q", set()),
    ((4, 2), (1,), "P", set()),
    # the first box (1,2) has (2,2) below: {1'} only; (2,2) is diagonal
    ((3, 1), (1,), "P", {(3, 0, 1)}),
    ((3, 1), (1,), "Q", {(3, 0, 2), (4, 1, 1)}),
    # the first box (1,2) holds {1'}, {1} or {1',1}
    ((2,), (1,), "P", {(1, 0, 2), (2, 1, 1)}),
])
def test_one_letter_hand_derived(nu, rho, family, want):
    assert set(_letter_factor(nu, rho, (), family, "set-valued")) == want


def _intervals(max_weight):
    """(lam, mu, rho) as part tuples for every rho with mu <= rho <= lam,
    |lam| <= max_weight."""
    for lam in strict_partitions_up_to_weight(max_weight):
        subs = [p.parts for p in strict_subpartitions(lam)]
        for mu in subs:
            for rho in subs:
                if len(mu) <= len(rho) and all(map(int.__le__, mu, rho)):
                    yield lam.parts, mu, rho


def _free(rho, mu):
    """The rows of rho's corners outside mu."""
    return tuple(r for r in _corner_rows(rho)
                 if rho[r] > (mu[r] if r < len(mu) else 0))


def test_letter_factor_equals_corner_subset_sum_exhaustive():
    # the sum the per-row product replaces: the letter joins a subset S of
    # rho's corners outside mu, each adding b, and fills nu/(rho - S)
    reference: dict = {}
    transitions = 0
    for lam, mu, rho in _intervals(9):
        for family in ("P", "Q"):
            for kind in KINDS:
                corners = _free(rho, mu) if kind == "set-valued" else ()
                steps = genfunc._Levels(lam, mu, family, kind).steps(rho)
                for nu, _, f, count, signed in steps:
                    key = (nu, rho, corners, family, kind)
                    want = reference.get(key)
                    if want is None:
                        terms: dict = {}
                        for s, inner in _minus_corners(rho, corners):
                            for (x, b), c in _tableau_sum(
                                    nu, inner, 1, family, kind).terms.items():
                                terms[x, b + s] = terms.get((x, b + s), 0) + c
                        want = reference[key] = LaurentPoly(1, terms)
                    got = LaurentPoly(1, {((x,), b): c for x, b, c in f})
                    assert got == want, key
                    assert (count, signed) == at_one(want)
                    transitions += 1
    assert transitions == 37860


def test_self_loops_count_a_power_of_two_and_sign_only_at_mu():
    """The premise of an all-n verdict: f(rho, rho) at b = -1 is 1 at
    rho = mu and 0 at every other rho of the interval.

    rho -> rho fills no box, so each row gives h(p) = 1, and a corner row of
    rho outside mu h(p) + t*h(p - 1), which is 1 - 1 at t = -1 and 2 or 4
    at t = 1; rho != mu has such a corner.
    """
    loops = 0
    for lam, mu, rho in _intervals(10):
        for family in ("P", "Q"):
            steps = genfunc._Levels(lam, mu, family, "set-valued").steps(rho)
            count, signed = next((step.count, step.signed)
                                 for step in steps if step.nu == rho)
            assert signed == (rho == mu), (lam, mu, rho, family)
            assert count & (count - 1) == 0 < count, (lam, mu, rho, family)
            loops += 1
    assert loops == 8274


def test_keys_that_differ_only_in_lam_share_their_records(fresh_caches):
    # a transition record is kept per (nu, rho, corners, family, kind), so
    # every key with the same mu, family and kind holds the one record of
    # each (rho, nu) it steps through; its b^0 part, which b0_only reads
    # as f[:1], is f's first term, as every row's h(p) is at least 1
    first: dict = {}
    transitions = shared = 0
    for lam, mu, rho in _intervals(9):
        for family in ("P", "Q"):
            for kind in KINDS:
                for step in genfunc._Levels(lam, mu, family, kind).steps(rho):
                    key = (mu, rho, step.nu, family, kind)
                    shared += key in first  # held by an earlier lam
                    assert first.setdefault(key, step) is step, (lam, key)
                    assert step.factor[:1] == tuple(
                        t for t in step.factor if not t[1]), (lam, key)
                    transitions += 1
    assert (transitions, shared) == (37860, 29796)
    assert len({id(step) for step in first.values()}) == 2086


def test_keys_with_one_lam_share_their_tables(fresh_caches):
    # a table is kept per (rho, lam, corners, family, kind), so two keys
    # with the same lam, family and kind hold one table object for a rho
    # both step from whenever rho's corners outside their mu agree, which
    # for single tableaux is always
    first: dict = {}
    tables = shared = 0
    for lam, mu, rho in _intervals(8):
        for family in ("P", "Q"):
            for kind in KINDS:
                corners = _free(rho, mu) if kind == "set-valued" else ()
                table = _point_levels(lam, mu, family, kind).steps(rho)
                key = (lam, rho, corners, family, kind)
                shared += key in first  # held by an earlier mu
                assert first.setdefault(key, table) is table, (mu, key)
                tables += 1
    assert (tables, shared) == (4744, 3240)


def test_shared_tables_change_no_value(fresh_caches):
    # every key with |lam| <= 8 reads the tables earlier keys built, and
    # then again from its own, the table cache cleared before it
    keys = [(lam.parts, mu.parts, family, kind)
            for lam in strict_partitions_up_to_weight(8)
            for mu in strict_subpartitions(lam)
            for family in ("P", "Q") for kind in KINDS]

    def values(lam, mu, family, kind):
        return ([_point_sum(lam, mu, n, family, kind) for n in (1, 2, 3, 4)],
                [_branching_sum(lam, mu, n, family, kind, b0_only=b0)
                 for n in (1, 2, 3) for b0 in (False, True)])

    shared = [values(*key) for key in keys]
    fresh_caches()
    for key, want in zip(keys, shared):
        genfunc._steps.cache_clear()
        assert values(*key) == want, key
    assert len(keys) == 884


# Small enough to enumerate; each family sums over several inner shapes.
NO_ENUMERATION_CASES = [("3,1", 2), ("4,2,1", 2), ("4,2/1", 2),
                        ("5,3,1/3,1", 2), ("3,2/2", 3), ("2,1/1", 1)]


def _no_verdict(shape, family, n):
    return 0, ()


def test_polynomial_path_never_enumerates(monkeypatch, fresh_caches):
    specs = [FunctionSpec(family, SkewShape.parse(shape), n)
             for shape, n in NO_ENUMERATION_CASES for family in FAMILIES]

    def quantities():
        out = []
        for spec in specs:
            out.append(compute(spec))
            if spec.family in K_FAMILIES:
                out += [special_value(spec), _at(spec)[1]]
                out.append(cli._special_value(spec))
            if spec.family in ("GP", "GQ"):
                out += [parity_report(spec), beta_zero(spec),
                        cli._involution(spec.shape, spec.n, spec.family[1])]
        return out

    # the involution check enumerates on purpose; the rest of the line,
    # the emptiness test and the signed count, must not
    monkeypatch.setattr(involutions, "verify_involution", _no_verdict)
    with monkeypatch.context() as m:
        m.setattr(genfunc, "_branching_sum",
                  lambda *key, b0_only=False: nonincreasing(
                      _tableau_sum(*key).beta_slice(0) if b0_only
                      else _tableau_sum(*key)))
        m.setattr(genfunc, "_point_sum",
                  lambda *key: at_one(_tableau_sum(*key)))
        want = quantities()
    fresh_caches()  # nothing cached by the enumerated pass counts

    def refuse(spec):
        raise AssertionError(f"enumerated {spec} on the polynomial path")

    monkeypatch.setattr(genfunc, "_leaves", refuse)
    monkeypatch.setattr(enumeration, "_leaves", refuse)  # enumerate_fillings
    assert quantities() == want


def strips_against_letter_factor(max_weight=9):
    """``_strips_above(rho, lam)`` for every rho inside each lam with
    |lam| <= max_weight, against the nu inside lam and above rho whose
    ``_letter_factor`` is not 0: the same nu, each once.  The strips are
    read through ``genfunc``, so a function swapped there is the one
    checked; it stops at its first mismatch.  Returns the number of
    (rho, nu) pairs compared."""
    pairs = 0
    for lam in strict_partitions_up_to_weight(max_weight):
        subs = [p.parts for p in strict_subpartitions(lam)]
        for rho in subs:
            strips = genfunc._strips_above(rho, lam.parts)
            assert len(set(strips)) == len(strips), (lam, rho)
            above = [nu for nu in subs if len(rho) <= len(nu)
                     and all(r <= v for r, v in zip(rho, nu))]
            for family in ("P", "Q"):
                for kind in KINDS:
                    corners = tuple(_corner_rows(rho)) \
                        if kind == "set-valued" else ()
                    nonzero = {nu for nu in above if _letter_factor(
                        nu, rho, corners, family, kind)}
                    assert set(strips) == nonzero, (lam, rho, family, kind)
            pairs += len(above)
    return pairs


def test_strips_are_the_pairs_with_a_letter_factor():
    assert strips_against_letter_factor() == 2246


def test_scalar_paths_build_no_polynomial(monkeypatch, fresh_caches):
    specs = [FunctionSpec(family, SkewShape.parse(shape), n)
             for shape, n in NO_ENUMERATION_CASES + [("3,2/2", 1)]
             for family in K_FAMILIES]
    want = [(compute(spec).eval_integers([1] * spec.n, -1),
             special_value(spec)) for spec in specs]
    want_counts = [sum(compute(spec).terms.values()) for spec in specs
                   if spec.family in ("GP", "GQ")]
    assert any(s == 0 for s, _ in want)  # the zero value is covered
    fresh_caches()  # the scalars below are computed, not read back
    built = []

    def refuse(*args, **kwargs):
        raise AssertionError("built a polynomial on a scalar path")

    def record_init(self, nvars, terms=None):
        built.append(("__init__", dict(terms or {})))
        real_init(self, nvars, terms)

    def record_trusted(cls, nvars, terms):
        built.append(("_trusted", dict(terms)))
        return real_trusted.__func__(cls, nvars, terms)

    real_init, real_trusted = LaurentPoly.__init__, LaurentPoly._trusted
    monkeypatch.setattr(LaurentPoly, "_trusted", refuse)
    monkeypatch.setattr(LaurentPoly, "__init__", refuse)
    assert [_at(spec)[1] for spec in specs] == [s for s, _ in want]
    assert [parity_report(spec).count for spec in specs
            if spec.family in ("GP", "GQ")] == want_counts
    # special_value builds one trusted b^|lam/mu| times s, nothing more
    monkeypatch.setattr(LaurentPoly, "__init__", record_init)
    monkeypatch.setattr(LaurentPoly, "_trusted", classmethod(record_trusted))
    for spec, (s, value) in zip(specs, want):
        built.clear()
        assert special_value(spec) == value
        terms = {((0,) * spec.n, spec.shape.size): s} if s else {}
        assert built == [("_trusted", terms)], (str(spec.shape), spec.family)


# mu with 1, 2 and 3 removable boxes
SHAPE_FREE_CASES = [("4,2/1", 3), ("5,3,1/3,1", 2), ("6,4,2/5,3,1", 2)]


def test_scalar_paths_build_no_shape(monkeypatch, fresh_caches):
    specs = [FunctionSpec(family, SkewShape.parse(shape), n)
             for shape, n in SHAPE_FREE_CASES for family in K_FAMILIES]
    assert sorted({len(_corner_rows(spec.shape.inner.parts))
                   for spec in specs}) == [1, 2, 3]

    def scalars():
        return [(special_value(spec), _at(spec)[1],
                 parity_report(spec) if spec.family in ("GP", "GQ")
                 else None) for spec in specs]

    want = scalars()  # and the recursions are warm

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built {type(self).__name__} on a scalar path")

    monkeypatch.setattr(StrictPartition, "__init__", refuse)
    monkeypatch.setattr(SkewShape, "__init__", refuse)
    assert scalars() == want
    fresh_caches()  # nor does a cold recursion
    assert scalars() == want


def test_compute_builds_no_shape(monkeypatch, fresh_caches):
    # the double-skew polynomial reads its inner shapes as part tuples too
    specs = [FunctionSpec(family, SkewShape.parse(shape), n)
             for shape, n in SHAPE_FREE_CASES for family in FAMILIES]
    want = [compute(spec) for spec in specs]
    b0_specs = [spec for spec in specs if spec.family in ("GP", "GQ")]
    want_b0 = [beta_zero(spec) for spec in b0_specs]
    assert [len(genfunc._inner(spec)) for spec in specs
            if spec.family == "GQdouble"] == [2, 4, 8]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"compute built {type(self).__name__}")

    monkeypatch.setattr(StrictPartition, "__init__", refuse)
    monkeypatch.setattr(SkewShape, "__init__", refuse)
    assert [compute(spec) for spec in specs] == want
    assert [beta_zero(spec) for spec in b0_specs] == want_b0
    fresh_caches()
    assert [compute(spec) for spec in specs] == want
    assert [beta_zero(spec) for spec in b0_specs] == want_b0


def test_oracle_sum_count_and_coproduct_build_no_filling(monkeypatch,
                                                        fresh_caches):
    shape = SkewShape.parse("4,2/1")
    want = [_branching_sum(*parts(shape), 3, family, kind)
            for family in ("P", "Q") for kind in KINDS]
    want_count = parity_report(FunctionSpec("GQ", shape, 3)).count

    def refuse(*args, **kwargs):
        raise AssertionError("built a Filling")

    monkeypatch.setattr(enumeration, "Filling", refuse)
    monkeypatch.setattr(Filling, "__init__", refuse)
    assert [nonincreasing(_tableau_sum(*parts(shape), 3, family, kind))
            for family in ("P", "Q") for kind in KINDS] == want
    assert count(EnumSpec(shape, 3, "Q")) == want_count
    lam = StrictPartition.parse("3,1")
    for family in ("P", "Q", "GP", "GQ"):
        assert coproduct_check(lam, 1, 2, family).ok, family


def test_point_levels_serve_every_n_in_any_order(fresh_caches):
    # the levels kept per (lam, mu, family, kind) and extended on demand
    # give the (count, signed count) pairs a recursion from level 0 gives,
    # however n is asked
    orders = ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3))
    cases = 0
    for shape in skew_shapes(6):
        for family in ("P", "Q"):
            for kind in KINDS:
                want = {}
                lam, mu = shape.outer.parts, shape.inner.parts
                for n in (1, 2, 3, 4):
                    genfunc._point_levels.cache_clear()
                    want[n] = _point_sum(lam, mu, n, family, kind)
                for order in orders:
                    genfunc._point_levels.cache_clear()
                    got = {n: _point_sum(lam, mu, n, family, kind)
                           for n in order}
                    assert got == want, (str(shape), family, kind, order)
                cases += 1
    assert cases == 320
    # the polynomial reads the same entry's transitions: compute,
    # parity_report and special_value on one key, n shuffled, each as
    # from cold caches
    rng = random.Random(18)
    asks = [(f, n) for f in (compute, parity_report, special_value)
            for n in (1, 2, 3, 4)]
    for shape in skew_shapes(6):
        for family in ("GP", "GQ"):
            cold = {}
            for f, n in asks:
                fresh_caches()
                cold[f, n] = f(FunctionSpec(family, shape, n))
            fresh_caches()
            for f, n in rng.sample(asks, len(asks)):
                assert f(FunctionSpec(family, shape, n)) == cold[f, n], \
                    (str(shape), family, f.__name__, n)


def test_compute_leaves_every_transition_for_the_scalars(monkeypatch,
                                                        fresh_caches):
    # compute at n steps from every level below n, so a compute at n' <= n
    # and the count on that key build no transition
    stepped = []

    def counted(rho, lam):
        stepped.append(rho)
        return real(rho, lam)

    real = genfunc._strips_above
    monkeypatch.setattr(genfunc, "_strips_above", counted)
    shape = SkewShape.parse("5,3,1/2")
    compute(FunctionSpec("GQ", shape, 4))
    built = len(stepped)
    assert built and len(set(stepped)) == built
    for n in (4, 2, 1, 3):
        compute(FunctionSpec("GQ", shape, n))
        parity_report(FunctionSpec("GQ", shape, n))
    assert len(stepped) == built
    assert genfunc._point_levels.cache_info().misses == 1


def test_count_and_signed_count_share_one_recursion(fresh_caches):
    spec = FunctionSpec("GP", SkewShape.parse("4,2,1/1"), 3)
    parity_report(spec)
    special_value(spec)  # the signed count
    info = genfunc._point_levels.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_tableau_sum_result_is_the_callers_own(fresh_caches):
    shape = SkewShape.parse("4,2/1")
    first = _tableau_sum(*parts(shape), 3, "Q", "set-valued")
    want = dict(first.terms)
    key = next(iter(first.terms))
    first.terms[key] += 7
    first.terms[((9, 9, 9), 9)] = 1
    assert _tableau_sum(*parts(shape), 3, "Q", "set-valued").terms == want
    assert genfunc._tableau_terms.cache_info().hits == 1


def test_coproduct_checks_of_one_total_share_one_walk(fresh_caches):
    lam = StrictPartition.parse("3,1")
    for nx, ny in ((1, 2), (2, 1)):
        assert coproduct_check(lam, nx, ny, "GQ").ok
    info = genfunc._tableau_terms.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_certificate_check_reuses_the_count_recursion(fresh_caches):
    lam, mu = StrictPartition.parse("4,2,1"), StrictPartition.parse("2,1")
    cert = involutions.pairing_certificate(lam, mu, 2, "Q")
    before = genfunc._point_levels.cache_info()
    assert before.misses > 0
    check = involutions.certificate_checker(lam, mu, 2, "Q")
    assert check(cert.to_json()) == (True, None)
    after = genfunc._point_levels.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
