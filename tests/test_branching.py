"""The letter-by-letter branching engine against the tableau definition.

``_tableau_sum`` folds the enumerated tableaux into a polynomial; it is the
definition, and the only reference the engine is compared with.
"""

import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shifted_kschur import cli, enumeration, genfunc, involutions
from shifted_kschur.enumeration import EnumSpec, count, enumerate_fillings
from shifted_kschur.genfunc import (FAMILIES, K_FAMILIES, FunctionSpec, _at,
                                    _branching_sum, _letter_factor,
                                    _one_letter, _point_sum, _tableau_sum,
                                    beta_zero, compute, coproduct_check,
                                    parity_report, signed_count,
                                    special_value)
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import (SkewShape, StrictPartition, _strips_above,
                                   removable_boxes,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import Filling

KINDS = ("single", "set-valued")


def parts(shape):
    """The part tuples (lam, mu) the polynomial sums take."""
    return shape.outer.parts, shape.inner.parts


def skew_shapes(max_weight):
    return [SkewShape(lam, mu)
            for lam in strict_partitions_up_to_weight(max_weight) if lam
            for mu in strict_subpartitions(lam)]


def test_engine_equals_tableau_sum_exhaustive():
    cases = 0
    for shape in skew_shapes(6):
        for n in (1, 2, 3):
            for family in ("P", "Q"):
                for kind in KINDS:
                    want = _tableau_sum(*parts(shape), n, family, kind)
                    got = _branching_sum(*parts(shape), n, family, kind)
                    assert got == want, (str(shape), n, family, kind)
                    cases += 1
    assert cases == 960


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


def test_parity_and_signed_count_equal_enumeration():
    for shape in skew_shapes(6):
        for n in (1, 2, 3):
            for family in ("P", "Q"):
                total = signed = 0
                for f in enumerate_fillings(EnumSpec(shape, n, family)):
                    total += 1
                    signed += -1 if (f.size() - shape.size) % 2 else 1
                spec = FunctionSpec("G" + family, shape, n)
                assert parity_report(spec).count == total, (str(shape), n)
                assert signed_count(spec) == signed, (str(shape), n)


# Set-valued tableau sets with |lam| <= 7 and n = 4 reach 10^6 tableaux, too
# many to enumerate per example; instances with more than this are discarded.
MAX_TABLEAUX = 3000


@given(st.sampled_from(skew_shapes(7)), st.integers(1, 4),
       st.sampled_from(("P", "Q")), st.sampled_from(KINDS))
@settings(max_examples=200, deadline=None)
def test_engine_equals_tableau_sum_random(shape, n, family, kind):
    spec = EnumSpec(shape, n, family, kind)
    assume(sum(1 for _ in islice(enumerate_fillings(spec), MAX_TABLEAUX + 1))
           <= MAX_TABLEAUX)
    assert _branching_sum(*parts(shape), n, family, kind) == \
        _tableau_sum(*parts(shape), n, family, kind)


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
    assert got == LaurentPoly.parse(want, n)
    assert got == _tableau_sum(*parts(shape), n, family, "set-valued")


def test_one_letter_equals_tableau_sum_exhaustive():
    cases = 0
    shapes = [SkewShape(nu, rho) for nu in strict_partitions_up_to_weight(12)
              for rho in strict_subpartitions(nu)]  # the empty nu included
    for shape in shapes:
        nu, rho = shape.outer.parts, shape.inner.parts
        for family in ("P", "Q"):
            for kind in KINDS:
                want = _tableau_sum(*parts(shape), 1, family, kind)
                got = LaurentPoly(1, {((x,), b): c for x, b, c
                                      in _one_letter(nu, rho, family, kind)})
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
    assert set(_one_letter(nu, rho, family, "set-valued")) == want


# Small enough to enumerate; each family sums over several inner shapes.
NO_ENUMERATION_CASES = [("3,1", 2), ("4,2,1", 2), ("4,2/1", 2),
                        ("5,3,1/3,1", 2), ("3,2/2", 3), ("2,1/1", 1)]


def _enumerated_point(lam, mu, n, family, kind):
    """``_point_sum`` from the definition: the enumerated polynomial of
    lam/mu at x = 1 and b = 1, -1."""
    poly = _tableau_sum(lam, mu, n, family, kind)
    return poly.eval_integers([1] * n, 1), poly.eval_integers([1] * n, -1)


def _no_verdict(shape, family, n):
    return involutions.InvolutionReport(0, ())


def test_polynomial_path_never_enumerates(monkeypatch, fresh_caches):
    specs = [FunctionSpec(family, SkewShape.parse(shape), n)
             for shape, n in NO_ENUMERATION_CASES for family in FAMILIES]

    def quantities():
        out = []
        for spec in specs:
            out.append(compute(spec))
            if spec.family in K_FAMILIES:
                out += [special_value(spec), signed_count(spec)]
                out.append(cli._failed("special-value", spec))
            if spec.family in ("GP", "GQ"):
                out += [parity_report(spec), beta_zero(spec),
                        cli._involution(spec.shape, spec.n, spec.family[1])]
        return out

    # the involution check enumerates on purpose; the rest of the line,
    # the emptiness test and the signed count, must not
    monkeypatch.setattr(involutions, "verify_involution", _no_verdict)
    with monkeypatch.context() as m:
        m.setattr(genfunc, "_branching_sum", _tableau_sum)
        m.setattr(genfunc, "_point_sum", _enumerated_point)
        want = quantities()
    fresh_caches()  # nothing cached by the enumerated pass counts

    def refuse(spec):
        raise AssertionError(f"enumerated {spec} on the polynomial path")

    monkeypatch.setattr(genfunc, "_leaves", refuse)
    monkeypatch.setattr(enumeration, "_leaves", refuse)  # enumerate_fillings
    assert quantities() == want


def test_point_folds_equal_specialised_compute_exhaustive():
    # every family, empty tableau sets included: the level recursion at
    # x = 1, b = +-1 against the polynomial evaluated there, and the special
    # value against b -> -1/b, x_i -> b applied to the polynomial
    cases = empty = 0
    for shape in skew_shapes(6):
        for n in (1, 2, 3):
            for family in FAMILIES:
                spec = FunctionSpec(family, shape, n)
                poly = compute(spec)
                case = (str(shape), n, family)
                assert _at(spec) == (poly.eval_integers([1] * n, 1),
                                     poly.eval_integers([1] * n, -1)), case
                if family in K_FAMILIES:
                    assert special_value(spec) == \
                        poly.subst_beta_neg_inverse().subst_x_to_beta(), case
                cases += 1
                empty += not poly
    assert cases == 1440 and empty == 78


def test_strips_are_the_pairs_with_a_letter_factor():
    pairs = 0
    for lam in strict_partitions_up_to_weight(9):
        subs = [p.parts for p in strict_subpartitions(lam)]
        for rho in subs:
            strips = _strips_above(rho, lam.parts)
            assert len(set(strips)) == len(strips), (lam, rho)
            above = [nu for nu in subs if len(rho) <= len(nu)
                     and all(r <= v for r, v in zip(rho, nu))]
            for family in ("P", "Q"):
                for kind in KINDS:
                    nonzero = {nu for nu in above
                               if _letter_factor(nu, rho, (), family, kind)}
                    assert set(strips) == nonzero, (lam, rho, family, kind)
            pairs += len(above)
    assert pairs == 2246


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
    assert [signed_count(spec) for spec in specs] == [s for s, _ in want]
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
    assert sorted({len(removable_boxes(spec.shape.inner))
                   for spec in specs}) == [1, 2, 3]

    def scalars():
        return [(special_value(spec), signed_count(spec),
                 parity_report(spec) if spec.family in ("GP", "GQ")
                 else None) for spec in specs]

    want = scalars()  # and the recursions are warm

    def refuse(self):
        raise AssertionError(f"built {type(self).__name__} on a scalar path")

    monkeypatch.setattr(StrictPartition, "__post_init__", refuse)
    monkeypatch.setattr(SkewShape, "__post_init__", refuse)
    assert scalars() == want
    fresh_caches()  # nor does a cold recursion
    assert scalars() == want


def test_compute_builds_no_shape(monkeypatch, fresh_caches):
    # the double-skew polynomial reads its inner shapes as part tuples too
    specs = [FunctionSpec(family, SkewShape.parse(shape), n)
             for shape, n in SHAPE_FREE_CASES for family in FAMILIES]
    want = [compute(spec) for spec in specs]
    assert [len(genfunc._inner(spec)) for spec in specs
            if spec.family == "GQdouble"] == [2, 4, 8]

    def refuse(self):
        raise AssertionError(f"compute built {type(self).__name__}")

    monkeypatch.setattr(StrictPartition, "__post_init__", refuse)
    monkeypatch.setattr(SkewShape, "__post_init__", refuse)
    assert [compute(spec) for spec in specs] == want
    fresh_caches()
    assert [compute(spec) for spec in specs] == want


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
    assert [_tableau_sum(*parts(shape), 3, family, kind)
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
    signed_count(spec)
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
    assert involutions.check_certificate(cert.to_json(), lam, mu, 2,
                                         "Q") == (True, None)
    after = genfunc._point_levels.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
