import pytest

from shifted_kschur import genfunc, polyring
from shifted_kschur.genfunc import (FunctionSpec, _at, _coproduct_guard,
                                    beta_zero, compute, coproduct_check,
                                    double_skew_shortcut, parity_report,
                                    special_value)
from shifted_kschur.polyring import LaurentPoly, OrbitTerms
from shifted_kschur.shapes import (SkewShape, skew_shapes,
                                   strict_partitions_up_to_weight)

from conftest import sp
from reference import expanded


def fs(family, lam, n, mu=()):
    return FunctionSpec(family, SkewShape(sp(*lam), sp(*mu)), n)


def double_skew_against_engine(max_weight=5):
    """``double_skew_shortcut``'s value against the engine's special value
    of GPdouble and GQdouble, both c * b^|lam/mu|, on every lam/mu with
    0 < |lam| <= max_weight, in len(lam) letters: there no lam/nu has an
    empty tableau set, as row i may hold the letter i throughout.  Both
    are read through ``genfunc``'s attributes, so a function swapped there
    is the one checked; it stops at its first mismatch.  Returns the
    number of values compared."""
    cases = 0
    for shape in skew_shapes(max_weight):
        lam, mu = shape.outer, shape.inner
        value = genfunc.double_skew_shortcut(lam, mu).value
        want = {b: c for (_, b), c in value.terms.items()}
        for fam in ("GPdouble", "GQdouble"):
            got = genfunc.special_value(FunctionSpec(fam, shape, lam.length))
            assert {b: c for (_, b), c in got.terms.items()} == want, \
                (str(shape), fam)
            cases += 1
    return cases


class TestCompute:
    def test_gp_one_box(self):
        assert compute(fs("GP", (1,), 1)) == LaurentPoly.parse("x1", 1)

    def test_gq_one_box(self):
        # tableaux {1'}, {1}, {1',1}
        assert compute(fs("GQ", (1,), 1)) == \
            LaurentPoly.parse("2*x1 + x1^2*b", 1)

    def test_p_two_one(self):
        assert compute(fs("P", (2, 1), 2)) == \
            LaurentPoly.parse("x1^2*x2 + x1*x2^2", 2)

    def test_q_is_power_of_two_times_p(self):
        for lam in [(1,), (2,), (2, 1), (3, 1), (3, 2, 1)]:
            for n in (2, 3):
                p = compute(fs("P", lam, n))
                q = compute(fs("Q", lam, n))
                assert q == p.scale(2 ** len(lam)), (lam, n)

    def test_skew_reduces_to_straight(self):
        for fam in ("P", "GQ"):
            assert compute(fs(fam, (3, 1), 2)) == \
                compute(FunctionSpec(fam, SkewShape.parse("3,1/"), 2))

    def test_double_skew_empty_inner_is_plain(self):
        assert compute(fs("GPdouble", (3, 1), 2)) == compute(fs("GP", (3, 1), 2))

    def test_no_diagonal_boxes_makes_p_equal_q(self):
        # skew shape with no box on the main diagonal
        shape = SkewShape.parse("4,2/2,1")
        assert not any(i == j for (i, j) in shape.boxes)
        assert compute(FunctionSpec("GP", shape, 3)) == \
            compute(FunctionSpec("GQ", shape, 3))

    def test_monomial_examples_appear(self, set_valued_examples):
        gp = compute(fs("GP", (4, 2, 1), 3))
        t1 = set_valued_examples["T1"]
        key = (t1.weight(), t1.size() - 7)
        assert gp.terms[key] >= 1


class TestByOrbit:
    def test_is_compute_held_by_orbit(self):
        # compute's terms are held by orbit and read as the expanded
        # polynomial: equal both ways, the same hash, every term and no
        # other, each looked up, and the same items; beta_zero's too
        cases = 0
        for shape in skew_shapes(4, with_empty=True):
            for n in (1, 2, 3):
                for family in genfunc.FAMILIES:
                    spec = FunctionSpec(family, shape, n)
                    held = [compute(spec)]
                    if family in ("GP", "GQ"):
                        held.append(beta_zero(spec))
                    for h in held:
                        p = LaurentPoly(h.nvars, expanded(h))
                        assert isinstance(h.terms, OrbitTerms)
                        assert h == p and p == h and hash(h) == hash(p)
                        assert len(h.terms) == len(p.terms)
                        assert sorted(h.terms) == sorted(p.terms)
                        assert sorted(h.terms.items()) == \
                            sorted(p.terms.items())
                        assert all(h.terms[k] == c
                                   for k, c in p.terms.items())
                    cases += bool(held[0])
        assert cases > 300
        held = compute(fs("GQ", (2, 1), 2))
        for key in (((1, 1), 0), ((2, 1), 5), ((0, 3), 0), ((1, 2, 0), 1)):
            assert key not in held.terms

    def test_equality_reads_the_representatives(self, monkeypatch):
        # two polynomials held by orbit are equal exactly when their
        # expansions are, with no arrangement read; one held by orbit
        # and one held as a dict compare as their expansions, both ways
        held = [compute(FunctionSpec(family, shape, n))
                for shape in skew_shapes(3, with_empty=True) for n in (1, 2)
                for family in genfunc.FAMILIES]
        flat = [expanded(h) for h in held]
        dict_held = [LaurentPoly(h.nvars, f) for h, f in zip(held, flat)]

        def unread(rep):
            raise AssertionError("an orbit was expanded")

        monkeypatch.setattr(polyring, "_orbit", unread)
        equal = 0
        for h, e in zip(held, flat):
            for g, f in zip(held, flat):
                same = h.nvars == g.nvars and e == f
                assert (h == g) == same == (g == h)
                assert (h.terms == g.terms) == (e == f) == (g.terms == h.terms)
                equal += same
        monkeypatch.undo()
        assert len(held) < equal < len(held) ** 2
        for h, e in zip(held, flat):
            for d in dict_held:
                same = h.nvars == d.nvars and e == d.terms
                assert (h == d) == same == (d == h)
                assert (h.terms == d.terms) == (e == d.terms) == \
                    (d.terms == h.terms)


class TestFunctionSpec:
    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_n_must_be_an_int(self, n):
        # a float n failed deep in the recursion with a TypeError
        with pytest.raises(ValueError, match="n must be an int"):
            fs("GP", (2, 1), n)

    def test_n_below_one(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            fs("GP", (2, 1), 0)

    @pytest.mark.parametrize("family", ["X", "gp", None, ["GP"]])
    def test_family_checked_before_n(self, family):
        with pytest.raises(ValueError) as err:
            fs(family, (2, 1), 0)
        assert str(err.value) == f"unknown family {family!r}"

    @pytest.mark.parametrize("shape", ["3,1", (3, 1), sp(3, 1), None])
    def test_shape_must_be_a_skew_shape(self, shape):
        # a text shape was kept, and compute then failed deep in the
        # engine with an AttributeError
        with pytest.raises(ValueError, match="^shape must be a SkewShape"):
            FunctionSpec("GP", shape, 2)

    @pytest.mark.parametrize("family, base, kind", [
        ("P", "P", "single"), ("Q", "Q", "single"),
        ("GP", "P", "set-valued"), ("GQ", "Q", "set-valued"),
        ("GPdouble", "P", "set-valued"), ("GQdouble", "Q", "set-valued"),
    ])
    def test_family_facts(self, family, base, kind):
        spec = fs(family, (2, 1), 2)
        assert (spec.base_family, spec.kind) == (base, kind)

    def test_equal_and_printed_by_value(self):
        spec = fs("GQ", (3, 1), 2, (1,))
        same = FunctionSpec("GQ", SkewShape.parse("3,1/1"), 2)
        assert same == spec and hash(same) == hash(spec)
        assert spec not in (fs("GQ", (3, 1), 3, (1,)),
                            fs("GP", (3, 1), 2, (1,)), fs("GQ", (3, 1), 2))
        assert repr(spec) == (
            "FunctionSpec(family='GQ', shape=SkewShape(outer=StrictPartition("
            "parts=(3, 1)), inner=StrictPartition(parts=(1,))), n=2)")


class TestBetaZero:
    def test_one_box(self):
        assert beta_zero(fs("GQ", (1,), 1)) == LaurentPoly.parse("2*x1", 1)
        assert beta_zero(fs("GP", (1,), 1)) == LaurentPoly.parse("x1", 1)

    def test_large_straight(self):
        assert beta_zero(fs("GP", (4, 2, 1), 3)) == compute(fs("P", (4, 2, 1), 3))

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            beta_zero(fs("P", (1,), 1))


class TestSpecialValue:
    def test_one_box_gq(self):
        assert special_value(fs("GQ", (1,), 1)) == LaurentPoly.beta(1, 1)

    def test_421_gp(self):
        assert special_value(fs("GP", (4, 2, 1), 3)) == LaurentPoly.beta(3, 7)

    def test_skew(self):
        spec = fs("GQ", (3, 1), 2, mu=(1,))
        assert special_value(spec) == LaurentPoly.beta(2, 3)

    def test_double_skew_vanishes(self):
        assert not special_value(fs("GPdouble", (2, 1), 2, mu=(1,)))
        assert not special_value(fs("GQdouble", (2,), 1, mu=(2,)))

    @pytest.mark.parametrize("family", ["P", "Q"])
    def test_refuses_a_family_that_is_not_k_theoretic(self, family):
        with pytest.raises(ValueError, match="^special_value applies to the "
                                             "K-theoretic families$"):
            special_value(fs(family, (2, 1), 2))


class TestSignedCount:
    def test_examples(self):
        assert _at(fs("GQ", (1,), 1))[1] == 1
        assert _at(fs("GP", (1,), 1))[1] == 1
        assert _at(fs("GP", (2, 1), 2))[1] == 1

    def test_skew(self):
        assert _at(fs("GQ", (3, 1), 2, mu=(1,)))[1] == 1


class TestDoubleSkewShortcut:
    def test_eight_term_expansion(self):
        res = double_skew_shortcut(sp(9, 8, 6, 4), sp(7, 5, 4, 2))
        assert not res.value
        assert len(res.terms) == 8
        signs = [t.sign for t in res.terms]
        # (-1)^0 + 3(-1)^1 + 3(-1)^2 + (-1)^3 grouped by removal count
        by_removed = {}
        for t in res.terms:
            by_removed.setdefault(t.removed, []).append(t.sign)
        assert {k: len(v) for k, v in by_removed.items()} == \
            {0: 1, 1: 3, 2: 3, 3: 1}
        assert sum(signs) == 0

    def test_single_removable(self):
        res = double_skew_shortcut(sp(5, 2), sp(1))
        assert not res.value and len(res.terms) == 2

    def test_mu_outside_lambda_raises(self):
        # no tableau family, so no vanishing to claim; SkewShape says so too
        for lam, mu in [((2, 1), (5,)), ((2, 1), (3,)), ((3,), (2, 1))]:
            with pytest.raises(ValueError, match="not contained"):
                double_skew_shortcut(sp(*lam), sp(*mu))

    def test_mu_empty_gives_beta_weight(self):
        res = double_skew_shortcut(sp(3, 1), sp())
        assert res.value == LaurentPoly.beta(1, 4)

    def test_agrees_with_tableau_level(self):
        # 0 for every nonempty mu, b^|lam| for the empty one
        assert double_skew_against_engine() == 90


class TestCoproduct:
    def test_p_one_box(self):
        rep = coproduct_check(sp(1), 1, 1, "P")
        assert rep.ok
        assert rep.lhs == LaurentPoly.parse("x1 + x2", 2)

    def test_gp_two_one(self):
        assert coproduct_check(sp(2, 1), 2, 2, "GP").ok

    def test_gq_row(self):
        assert coproduct_check(sp(2), 1, 1, "GQ").ok

    def test_residual_zero(self):
        rep = coproduct_check(sp(3), 2, 1, "Q")
        assert rep.ok and not rep.residual

    def test_guard(self):
        # the guard is the left side's count: 7,5,4,2 has 64,881 GP
        # tableaux at n = 4, which pass, and 238,425,253,569 at n = 6
        with pytest.raises(ValueError, match="guard exceeded: 238425253569 "
                           "tableaux for GP 7,5,4,2 at n=6"):
            coproduct_check(sp(7, 5, 4, 2), 3, 3, "GP")

    def test_count_guard(self):
        # the left side would be 358,332,417 tableaux
        with pytest.raises(ValueError, match="358332417 tableaux for GQ 4,2 "
                           "at n=6, above the limit"):
            coproduct_check(sp(4, 2), 3, 3, "GQ")

    @pytest.mark.parametrize("family", ["GPdouble", "GQdouble", "X"])
    def test_refuses_other_families(self, family):
        with pytest.raises(ValueError, match="^coproduct families are P, Q, "
                                             f"GP, GQ; got '{family}'$"):
            coproduct_check(sp(2, 1), 1, 1, family)

    def test_count_guard_admits_four_letters(self):
        # every run at n_x + n_y <= 4 is admitted (at most 465,777 tableaux)
        for lam in strict_partitions_up_to_weight(6):
            for family in ("P", "Q", "GP", "GQ"):
                _coproduct_guard(FunctionSpec(family, SkewShape(lam), 4))


class TestParity:
    def test_one_box(self):
        assert parity_report(fs("GQ", (1,), 1)) == (3, True)

    def test_421(self):
        rep = parity_report(fs("GP", (4, 2, 1), 3))
        assert rep.is_odd

    @pytest.mark.parametrize("family", ["P", "Q", "GPdouble", "GQdouble"])
    def test_refuses_other_families(self, family):
        with pytest.raises(ValueError, match="^parity_report applies to GP "
                                             "and GQ only$"):
            parity_report(fs(family, (2, 1), 2))

    def test_skew(self):
        assert parity_report(fs("GP", (3, 1), 2, mu=(1,))) == (39, True)
        assert parity_report(fs("GQ", (2, 1), 2, mu=(1,))) == (33, True)
