import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifted_kschur.polyring import LaurentPoly

NVARS = 2

keys = st.tuples(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-3, 3),
)
polys = st.dictionaries(keys, st.integers(-50, 50), max_size=6).map(
    lambda terms: LaurentPoly(NVARS, terms))


def x(i, n=NVARS):
    return LaurentPoly.variable(n, i)


def b(k=1, n=NVARS):
    return LaurentPoly.beta(n, k)


class TestRingOps:
    def test_additive_inverse(self):
        assert x(1) + (-x(1)) == LaurentPoly.zero(NVARS)

    def test_laurent_units(self):
        assert b(-1) * b(1) == LaurentPoly.one(NVARS)

    def test_binomial_square(self):
        s = x(1) + x(2)
        sq = s * s
        expected = LaurentPoly.parse("x1^2 + 2*x1*x2 + x2^2", NVARS)
        assert sq == expected

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(ValueError):
            x(1, 2) + x(1, 3)
        with pytest.raises(ValueError):
            x(1, 2) * x(1, 3)

    @pytest.mark.parametrize("key, coeff", [
        (((1.5,), 0), 1), (((True,), 0), 1), (((1,), 0.5), 2),
        (((1,), False), 2), (((1,), 0), 2.5), (((1,), 0), True),
        (((1,), 0), 0.0), (((1,), 0), Fraction(2)), (((1,), 0), "2"),
    ])
    def test_constructor_refuses_non_int(self, key, coeff):
        # a float exponent or coefficient was kept, and then printed as
        # "2*x1*b^0.5" or "2.5*x1", or failed to print at all
        with pytest.raises(ValueError, match="^non-int term "):
            LaurentPoly(1, {key: coeff})

    @pytest.mark.parametrize("xexp", [(1,), (1, 0, 0), (1, -1), ()])
    def test_constructor_refuses_bad_x_exponents(self, xexp):
        # a tuple of the wrong length, or with a negative exponent
        with pytest.raises(ValueError, match=r"^bad x-exponents .* for 2 "
                                             r"variables$"):
            LaurentPoly(2, {(xexp, 0): 1})

    def test_constructor_keeps_int_terms(self):
        p = LaurentPoly(1, {((1,), -2): -3, ((0,), 0): 0})
        assert p.terms == {((1,), -2): -3} and str(p) == "-3*x1*b^-2"

    @given(polys, polys, polys)
    @settings(max_examples=150)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, st.integers(-4, 4))
    def test_beta_power_shift(self, p, k):
        assert p.scalar_beta_power(k).scalar_beta_power(-k) == p

    @given(polys, polys, st.integers(-3, 3))
    def test_results_hold_no_zero_coefficient(self, p, q, k):
        assert (p - p).terms == {} and p.scale(0).terms == {}
        for r in (p + q, p - q, p * q, -p, p.scale(k)):
            assert 0 not in r.terms.values()
            assert r == LaurentPoly(NVARS, r.terms)

    def test_no_overflow(self):
        big = LaurentPoly.const(NVARS, 10 ** 30)
        assert (big * big).terms[((0, 0), 0)] == 10 ** 60


class TestSubstitutions:
    def test_x_to_beta_examples(self):
        p = LaurentPoly.monomial(3, (3, 3, 1))
        assert p.subst_x_to_beta() == LaurentPoly.beta(3, 7)
        assert LaurentPoly.one(2).subst_x_to_beta() == LaurentPoly.one(2)
        p = LaurentPoly.monomial(2, (1, 0), -1) + \
            LaurentPoly.monomial(2, (0, 1), -1)
        assert p.subst_x_to_beta() == LaurentPoly.const(2, 2)

    def test_beta_neg_inverse_examples(self):
        assert b().subst_beta_neg_inverse() == -b(-1)
        assert b(2).subst_beta_neg_inverse() == b(-2)
        p = x(1).scale(2) + b() * x(1) * x(1)
        expected = x(1).scale(2) - b(-1) * x(1) * x(1)
        assert p.subst_beta_neg_inverse() == expected

    @given(polys)
    def test_beta_neg_inverse_is_involution(self, p):
        assert p.subst_beta_neg_inverse().subst_beta_neg_inverse() == p

    @given(polys, polys)
    def test_x_to_beta_is_ring_homomorphism(self, p, q):
        assert (p + q).subst_x_to_beta() == \
            p.subst_x_to_beta() + q.subst_x_to_beta()
        assert (p * q).subst_x_to_beta() == \
            p.subst_x_to_beta() * q.subst_x_to_beta()

    def test_beta_slice(self):
        p = x(1).scale(2) + b() * x(2)
        assert p.beta_slice(0) == x(1).scale(2)
        assert p.beta_slice(1) == x(2)
        # negative b-exponents, and a slice with no term: each equal to
        # the checked constructor's polynomial over the same terms
        q = LaurentPoly.parse("3*x1^2*x2*b^-1 - 2*x2*b^-1 + x1*b^-3 + 5", 2)
        for k, want in ((-1, {((2, 1), 0): 3, ((0, 1), 0): -2}),
                        (-3, {((1, 0), 0): 1}), (0, {((0, 0), 0): 5}),
                        (-2, {}), (1, {})):
            got = q.beta_slice(k)
            assert (got.nvars, got.terms) == (2, LaurentPoly(2, want).terms)
        q.beta_slice(0).terms.clear()  # a slice holds a dict of its own
        assert q.terms[((0, 0), 0)] == 5


class TestEval:
    def test_gq_one_box_at_ones(self):
        # 2*x1 + b*x1^2 at x=1, b=1 -> the tableau count 3
        p = LaurentPoly.parse("2*x1 + x1^2*b", 1)
        assert p.eval_integers([1], 1) == 3

    def test_zero_x_no_constant(self):
        p = LaurentPoly.parse("x1 + x1*x2", 2)
        assert p.eval_integers([0, 0], 5) == 0

    def test_beta_power_at_one(self):
        assert LaurentPoly.beta(1, 7).eval_integers([0], 1) == 1

    def test_matches_term_by_term_fractions(self):
        p = LaurentPoly.parse("3*x1^2*x2*b^-1 - 2*x2^3*b^2 + 5 + x1*b^-3", 2)
        for xs, b in (([2, -3], -2), ([1, 1], -1), ([0, 4], 3)):
            want = sum(Fraction(c) * Fraction(xs[0]) ** x[0]
                       * Fraction(xs[1]) ** x[1] * Fraction(b) ** e
                       for (x, e), c in p.terms.items())
            got = p.eval_integers(xs, b)
            assert got == want and type(got) is Fraction, (xs, b)

    @pytest.mark.parametrize("xs", [[], [1], [1, 2, 3]])
    def test_needs_one_value_per_variable(self, xs):
        with pytest.raises(ValueError, match=f"^need 2 x-values, got "
                                             f"{len(xs)}$"):
            LaurentPoly.parse("x1 + x2", 2).eval_integers(xs, 1)

    def test_negative_beta_exponent_needs_nonzero(self):
        p = LaurentPoly.beta(1, -2)
        assert p.eval_integers([3], 2) == Fraction(1, 4)
        with pytest.raises(ZeroDivisionError):
            p.eval_integers([3], 0)


class TestCanonicalText:
    def test_examples(self):
        assert str(LaurentPoly.zero(2)) == "0"
        assert str(LaurentPoly.beta(1, 7)) == "b^7"
        p = -x(1) + b(-1) * x(2).scale(7)
        assert str(p) == "7*x2*b^-1 - x1"

    def test_sorted_by_bexp_then_xexp(self):
        p = b() + x(1) + b(-1)
        assert str(p) == "b^-1 + x1 + b"

    @given(polys)
    @settings(max_examples=200)
    def test_parse_print_roundtrip(self, p):
        assert LaurentPoly.parse(str(p), NVARS) == p

    def test_parse_examples(self):
        assert LaurentPoly.parse("x1^3*x2*b^-1", 2) == \
            LaurentPoly.monomial(2, (3, 1), -1)
        assert LaurentPoly.parse("-2*b + 1", 1) == \
            LaurentPoly.one(1) - LaurentPoly.beta(1).scale(2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("y1 + 2", 2)
        with pytest.raises(ValueError):
            LaurentPoly.parse("x9", 2)


class TestJson:
    @given(polys)
    def test_json_roundtrip(self, p):
        assert LaurentPoly.from_json(p.to_json(), NVARS) == p

    def test_coefficients_are_decimal_strings(self):
        p = LaurentPoly.monomial(2, (3, 1), -1, coeff=7)
        assert p.to_json() == '{"terms": [{"b": -1, "c": "7", "x": [3, 1]}]}'

    @pytest.mark.parametrize("term", [
        '{"x": [1.0], "b": 1, "c": "2"}', '{"x": [true], "b": 1, "c": "2"}',
        '{"x": [1], "b": true, "c": "2"}', '{"x": [1], "b": 1.0, "c": "2"}',
        '{"x": [1.0], "b": true, "c": "2"}', '{"x": [1], "b": 1, "c": 2.7}',
        '{"x": [1], "b": 1, "c": 2}', '{"x": [1], "b": 1, "c": null}',
        *('{"x": [1], "b": 1, "c": "%s"}' % c for c in (
            "1_0", " 7", "+7", "07", "\\u0663", "\\u00b2", "-0", "7\\n", "",
            "x"))],
        ids=["float_x", "bool_x", "bool_b", "float_b", "float_x_bool_b",
             "float_c", "int_c", "null_c", "underscore_c", "space_c",
             "plus_c", "leading_zero_c", "arabic_indic_c", "superscript_c",
             "minus_zero_c", "newline_c", "empty_c", "word_c"])
    def test_from_json_refuses_what_to_json_never_writes(self, term):
        # to_json writes int exponents and str(c) of an int c; a bool or a
        # float exponent would key its term as the int it equals, a number
        # coefficient would be truncated, and int() reads other texts too
        with pytest.raises(ValueError, match="^bad term "):
            LaurentPoly.from_json('{"terms": [%s]}' % term, 1)


# Any number of variables, coefficients 1, -1 and larger of both signs,
# b-exponents of every sign and x-exponent tuples with zeros.
@st.composite
def any_polys(draw):
    nvars = draw(st.integers(1, 5))
    key = st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                    st.integers(-3, 3))
    coeff = st.one_of(st.sampled_from([1, -1]),
                      st.integers(-10 ** 20, 10 ** 20))
    return LaurentPoly(nvars, draw(st.dictionaries(key, coeff, max_size=8)))


def reference_terms(p):
    """The print order the canonical text was first stated with."""
    return sorted(p.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))


def reference_str(p):
    """The canonical text, term by term, as first stated."""
    if not p.terms:
        return "0"
    chunks = []
    for idx, ((xexp, bexp), c) in enumerate(reference_terms(p)):
        factors = []
        for i, e in enumerate(xexp, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e:
                factors.append(f"x{i}^{e}")
        if bexp == 1:
            factors.append("b")
        elif bexp:
            factors.append(f"b^{bexp}")
        mag = abs(c)
        body = "*".join(factors) if factors else str(mag)
        if factors and mag != 1:
            body = f"{mag}*{body}"
        if idx == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def reference_json(p):
    return json.dumps({"terms": [{"x": list(x), "b": b, "c": str(c)}
                                 for (x, b), c in reference_terms(p)]},
                      sort_keys=True)


class TestRenderReference:
    @given(any_polys())
    def test_text_json_and_roundtrip(self, p):
        assert str(p) == reference_str(p)
        assert p.to_json() == reference_json(p)
        assert LaurentPoly.from_json(p.to_json(), p.nvars) == p
        assert LaurentPoly.parse(str(p), p.nvars) == p

    def test_edge_terms(self):
        # the constant alone, coefficient 1 and -1 with no x and no b
        for terms in ({((0, 0), 0): 1}, {((0, 0), 0): -1},
                      {((0, 0), 1): -1, ((1, 0), 0): 1},
                      {((0, 0), -2): 5, ((0, 3), 0): -7}, {}):
            p = LaurentPoly(2, terms)
            assert (str(p), p.to_json()) == \
                (reference_str(p), reference_json(p)), terms
