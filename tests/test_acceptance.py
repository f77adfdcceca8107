"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line so the suite output doubles as an
acceptance report.  All equalities are exact.  Sweeps skip (shape, family, n)
combinations whose tableau set is empty, since every statement being checked
quantifies over nonempty tableau sets.
"""

import itertools
from contextlib import contextmanager

import pytest

from shifted_kschur.enumeration import EnumSpec, enumerate_fillings
from shifted_kschur.genfunc import (FunctionSpec, _at, beta_zero, compute,
                                    coproduct_check, double_skew_shortcut,
                                    parity_report, special_value)
from shifted_kschur.involutions import minimal_tableau, verify_involution
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import (SkewShape, StrictPartition, inner_shapes,
                                   pi, strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import validate_cells
from tests.conftest import iota, rows


@contextmanager
def report(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS")


def nonempty(shape, family, n):
    try:
        minimal_tableau(shape, family, n)
    except ValueError as exc:
        if "empty tableau set" not in str(exc):
            raise
        return False
    return True


def straight_shapes(max_weight):
    return [SkewShape(lam)
            for lam in strict_partitions_up_to_weight(max_weight) if lam]


def skew_shapes(max_weight):
    out = []
    for lam in strict_partitions_up_to_weight(max_weight):
        if not lam:
            continue
        for mu in strict_subpartitions(lam):
            out.append(SkewShape(lam, mu))
    return out


def test_criterion_1_special_values_straight():
    with report(1, "straight special values"):
        for shape in straight_shapes(6):
            for n in range(1, 5):
                want = LaurentPoly.beta(n, shape.size)
                for fam in ("GP", "GQ"):
                    if not nonempty(shape, fam[1], n):
                        continue
                    got = special_value(FunctionSpec(fam, shape, n))
                    assert got == want, (shape, fam, n)


def test_criterion_2_special_values_skew():
    with report(2, "skew special values"):
        for shape in skew_shapes(6):
            for n in range(1, 5):
                want = LaurentPoly.beta(n, shape.size)
                for fam in ("GP", "GQ"):
                    if not nonempty(shape, fam[1], n):
                        continue
                    got = special_value(FunctionSpec(fam, shape, n))
                    assert got == want, (shape, fam, n)


def test_criterion_3_parity():
    with report(3, "odd tableau counts"):
        for shape in skew_shapes(6):
            for n in range(1, 5):
                for fam in ("GP", "GQ"):
                    if not nonempty(shape, fam[1], n):
                        continue
                    rep = parity_report(FunctionSpec(fam, shape, n))
                    assert rep.is_odd, (shape, fam, n, rep.count)


def test_criterion_4_double_skew_vanishing():
    with report(4, "shortcut vanishing and the 8-term expansion"):
        for mu in strict_partitions_up_to_weight(8):
            if not mu:
                continue
            for lam_w in range(mu.weight, 9):
                for lam in strict_partitions_up_to_weight(lam_w):
                    if lam and mu in strict_subpartitions(lam):
                        assert not double_skew_shortcut(lam, mu).value
        res = double_skew_shortcut(StrictPartition((9, 8, 6, 4)),
                                   StrictPartition((7, 5, 4, 2)))
        assert not res.value and len(res.terms) == 8
        by_removed = {}
        for t in res.terms:
            by_removed.setdefault(t.removed, []).append(t.sign)
        assert {k: len(v) for k, v in by_removed.items()} == \
            {0: 1, 1: 3, 2: 3, 3: 1}
        assert sum(t.sign for t in res.terms) == 0


def test_criterion_5_full_vs_shortcut():
    with report(5, "tableau-level double-skew agrees with shortcut"):
        for lam in strict_partitions_up_to_weight(5):
            if not lam:
                continue
            for mu in strict_subpartitions(lam):
                if not mu:
                    continue
                res = double_skew_shortcut(lam, mu)
                assert not res.value
                nus = [t.nu for t in res.terms]
                for n, fam in itertools.product(range(1, 4),
                                                ("GPdouble", "GQdouble")):
                    # cancellation needs every shape in the expansion to
                    # carry at least one tableau
                    if not all(nonempty(SkewShape(lam, nu), fam[1], n)
                               for nu in nus):
                        continue
                    shape = SkewShape(lam, mu)
                    got = special_value(FunctionSpec(fam, shape, n))
                    assert not got, (lam, mu, fam, n)


def test_criterion_6_structural_identities():
    with report(6, "beta=0 reduction and the 2^length factor"):
        for shape in straight_shapes(6):
            for n in range(1, 5):
                p = compute(FunctionSpec("P", shape, n))
                q = compute(FunctionSpec("Q", shape, n))
                assert q == p.scale(2 ** shape.outer.length), (shape, n)
                for fam in ("GP", "GQ"):
                    base = p if fam == "GP" else q
                    assert beta_zero(FunctionSpec(fam, shape, n)) == base


def test_criterion_7_coproduct():
    with report(7, "coproduct expansion with zero residual"):
        for lam in strict_partitions_up_to_weight(4):
            if not lam:
                continue
            for fam in ("P", "Q", "GP", "GQ"):
                rep = coproduct_check(lam, 2, 2, fam)
                assert rep.ok and not rep.residual, (lam, fam)


def test_criterion_8_involution_suite():
    with report(8, "involution properties and signed counts"):
        for shape in skew_shapes(5):
            for n in range(1, 4):
                for fam in ("P", "Q"):
                    if not nonempty(shape, fam, n):
                        continue
                    _, violations = verify_involution(shape, fam, n)
                    assert not violations, (shape, fam, n, violations[:2])
                    assert _at(FunctionSpec("G" + fam, shape, n))[1] == 1, \
                        (shape, fam, n)


def test_criterion_9_oracle_equivalence(oracle_tableaux):
    with report(9, "backtracker matches the naive oracle"):
        for shape in skew_shapes(7):
            if shape.size > 7:
                continue
            for n in range(1, 3):
                for fam, kind in itertools.product(
                        "PQ", ("single", "set-valued")):
                    spec = EnumSpec(shape, n, fam, kind)
                    fast = sorted(f._key for f in enumerate_fillings(spec))
                    slow = sorted(f._key for f in oracle_tableaux[spec])
                    assert fast == slow, (shape, n, fam, kind)
                for fam in "PQ":
                    if not nonempty(shape, fam, n):
                        continue
                    tmin = minimal_tableau(shape, fam, n)
                    def total(t):
                        return sum(sum((e + 1) // 2 for e in c)
                                   for c in t.cells)
                    singles = list(enumerate_fillings(
                        EnumSpec(shape, n, fam, "single")))
                    assert total(tmin) == min(total(t) for t in singles)


def test_criterion_10_worked_example_fixtures(shape_421, skew_6431_42,
                                       single_valued_examples,
                                       set_valued_examples):
    with report(10, "worked-example tableaux, involution images, and pi arrows"):
        # six worked-example tableaux with their monomials
        single_weights = {
            "T1": (3, 3, 1), "T2": (2, 1, 4), "T3": (3, 3, 1), "T4": (1, 2, 4),
        }
        for key, T in single_valued_examples.items():
            assert validate_cells(T.shape, T.family, T.cells) is None
            assert T.weight() == single_weights[key], key
        set_weights = {
            "T1": (3, 2, 3), "T2": (1, 4, 3), "T3": (4, 2, 2), "T4": (4, 3, 2),
        }
        for key, T in set_valued_examples.items():
            assert validate_cells(T.shape, T.family, T.cells) is None
            assert T.weight() == set_weights[key], key
        assert set_valued_examples["T1"].size() == 8
        assert set_valued_examples["T4"].size() == 9

        # four straight involution images
        images = {
            "T1": rows(shape_421, 3, "P", "1 1 1 3' | 2 3' | 3"),
            "T2": rows(shape_421, 3, "P", "1 1,2' 2 2,3' | 2 3' | 3"),
            "T3": rows(shape_421, 3, "Q", "1' 1 1 1 | 2' 2 | 3"),
            "T4": rows(shape_421, 3, "Q", "1' 1 1 1,2,3 | 2',2 2 | 3'"),
        }
        for key, T in set_valued_examples.items():
            assert iota(T) == images[key], key

        # two skew involution examples (the Q-family pair)
        t3s = rows(skew_6431_42, 5, "Q", "1' 1,2,3 | 1' 1 | 1' 1 2' | 2'")
        t4s = rows(skew_6431_42, 5, "Q",
                   "3' 3,4,5 | 1' 3',4' | 1' 1 4',5 | 2'")
        assert iota(t3s) == rows(skew_6431_42, 5, "Q",
                                 "1' 2,3 | 1' 1 | 1' 1 2' | 2'")
        assert iota(t4s) == rows(skew_6431_42, 5, "Q",
                                 "1',3' 3,4,5 | 1' 3',4' | 1' 1 4',5 | 2'")

        # skew minimal tableaux and the no-diagonal-box coincidence shape
        assert minimal_tableau(skew_6431_42, "P", 5) == \
            rows(skew_6431_42, 5, "P", "1' 1 | 1' 1 | 1 1 2' | 2")
        assert minimal_tableau(skew_6431_42, "Q", 5) == \
            rows(skew_6431_42, 5, "Q", "1' 1 | 1' 1 | 1' 1 2' | 2'")
        off_diag = SkewShape.parse("6,4,3/4,2,1")
        assert not any(i == j for (i, j) in off_diag.boxes)
        tmin_p = minimal_tableau(off_diag, "P", 5)
        tmin_q = minimal_tableau(off_diag, "Q", 5)
        assert tmin_p == rows(off_diag, 5, "P", "1' 1 | 1' 1 | 1' 2'")
        assert tmin_q == rows(off_diag, 5, "Q", "1' 1 | 1' 1 | 1' 2'")
        assert tmin_p.cells == tmin_q.cells

        # the four pi arrows on the inner shapes mu - B, B in Rem(mu)
        mu = StrictPartition((7, 5, 4, 2))
        corners = {(1, 7), (3, 6), (4, 5)}
        removed = {nu: b for b, nu in inner_shapes(mu)}
        assert len(removed) == 1 << len(corners)
        arrows = set()
        for nu, b in removed.items():
            im = pi(mu, nu)
            assert pi(mu, im) == nu and abs(removed[im] - b) == 1
            arrows.add(frozenset({nu, im}))
        assert len(arrows) == 4
        assert frozenset({mu, StrictPartition((7, 5, 4, 1))}) in arrows
