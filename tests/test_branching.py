"""The letter-by-letter branching engine against the tableau definition.

``_tableau_sum`` folds the enumerated tableaux into a polynomial; it is the
definition, and the only reference the engine is compared with.
"""

from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shifted_kschur.enumeration import EnumSpec, enumerate_fillings
from shifted_kschur.genfunc import (FunctionSpec, _branching_sum,
                                    _tableau_sum, parity_report, signed_count)
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import (SkewShape, strict_partitions_up_to_weight,
                                   strict_subpartitions)

KINDS = ("single", "set-valued")


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
                    want = _tableau_sum(shape, n, family, kind)
                    got = _branching_sum(shape, n, family, kind)
                    assert got == want, (str(shape), n, family, kind)
                    cases += 1
    assert cases == 960


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
    assert _branching_sum(shape, n, family, kind) == \
        _tableau_sum(shape, n, family, kind)


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
    got = _branching_sum(shape, n, family, "set-valued")
    assert got == LaurentPoly.parse(want, n)
    assert got == _tableau_sum(shape, n, family, "set-valued")
