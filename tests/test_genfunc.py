import pytest

from shifted_kschur.genfunc import (FunctionSpec, beta_zero, compute,
                                    coproduct_check, double_skew_shortcut,
                                    parity_report, signed_count,
                                    special_value)
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import SkewShape, StrictPartition


def sp(*parts):
    return StrictPartition(tuple(parts))


def fs(family, lam, n, mu=()):
    return FunctionSpec(family, SkewShape(sp(*lam), sp(*mu)), n)


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


class TestSignedCount:
    def test_examples(self):
        assert signed_count(fs("GQ", (1,), 1)) == 1
        assert signed_count(fs("GP", (1,), 1)) == 1
        assert signed_count(fs("GP", (2, 1), 2)) == 1

    def test_skew(self):
        assert signed_count(fs("GQ", (3, 1), 2, mu=(1,))) == 1


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
        for lam, mu, n in [((2, 1), (1,), 2), ((3, 1), (2,), 2),
                           ((2,), (2,), 1), ((3, 2), (2, 1), 2)]:
            shortcut = double_skew_shortcut(sp(*lam), sp(*mu)).value
            for fam in ("GPdouble", "GQdouble"):
                full = special_value(fs(fam, lam, n, mu=mu))
                # both are zero (shortcut lives in a 1-variable ring)
                assert bool(full) == bool(shortcut) == False


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
        with pytest.raises(ValueError, match="guard"):
            coproduct_check(sp(7, 5, 4, 2), 2, 2, "GP")


class TestParity:
    def test_one_box(self):
        assert parity_report(fs("GQ", (1,), 1)) == (3, True)

    def test_421(self):
        rep = parity_report(fs("GP", (4, 2, 1), 3))
        assert rep.is_odd

    def test_skew(self):
        assert parity_report(fs("GP", (3, 1), 2, mu=(1,))) == (39, True)
        assert parity_report(fs("GQ", (2, 1), 2, mu=(1,))) == (33, True)
