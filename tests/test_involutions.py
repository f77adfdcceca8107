import io
import itertools
import json
import re
from typing import Iterator

import pytest

from shifted_kschur import enumeration, involutions, shapes
from shifted_kschur.cli import main
from shifted_kschur.enumeration import EnumSpec, enumerate_fillings
from shifted_kschur.involutions import (PAIR_MAX_ELEMENTS,
                                        certificate_checker,
                                        minimal_tableau, pairing_certificate,
                                        read_certificate, verify_involution,
                                        write_certificate)
from shifted_kschur.shapes import (SkewShape, StrictPartition, _index_table,
                                   inner_shapes, pi, skew_shapes,
                                   strict_partitions_up_to_weight)
from shifted_kschur.tableaux import (Filling, filling_from_rows,
                                     validate_cells)
from tests import reference
from tests.conftest import (TAMPERS, as_written, engine_count, has_empty_set,
                            iota, rows, sp)

REQUEST = (sp(2, 1), sp(1), 2, "P")  # the request TAMPERS spoil


def _minimal_cells_or_none(shape, family, n):
    try:
        return minimal_tableau(shape, family, n).cells
    except ValueError as exc:
        assert "empty tableau set" in str(exc), exc
        return None


def minimal_tableau_against_least_codes():
    """Fact B from its definition on every lam/mu with 0 < |lam| <= 12, P
    and Q: at n = max(1, |lam/mu|) the minimal tableau exists, breaks no
    rule of ``reference.violation`` and holds ``reference.least_code`` in
    every box; at each n from 1 to |lam/mu| + 1 it is refused as an empty
    set exactly when n is below its largest letter, and is that same
    tableau otherwise.  It stops at its first mismatch."""
    cases = 0
    for shape in skew_shapes(12):
        boxes = shape.row_major
        for family in "PQ":
            cells = _minimal_cells_or_none(shape, family, max(1, shape.size))
            assert cells is not None, (str(shape), family)
            assert reference.violation(boxes, family, cells) is None, \
                (str(shape), family, cells)
            least = tuple((reference.least_code(boxes, family, cells, k),)
                          for k in range(len(boxes)))
            assert cells == least, (str(shape), family, cells, least)
            largest = (max(map(max, cells), default=0) + 1) // 2
            for n in range(1, shape.size + 2):
                got = _minimal_cells_or_none(shape, family, n)
                assert got == (None if n < largest else cells), \
                    (str(shape), family, n, got)
                cases += 1
    assert cases == 14512


class TestMinimalTableau:
    def test_straight_p(self, shape_421):
        assert minimal_tableau(shape_421, "P", 3) == \
            rows(shape_421, 3, "P", "1 1 1 1 | 2 2 | 3")

    def test_straight_q(self, shape_421):
        assert minimal_tableau(shape_421, "Q", 3) == \
            rows(shape_421, 3, "Q", "1' 1 1 1 | 2' 2 | 3'")

    def test_skew_p(self, skew_6431_42):
        assert minimal_tableau(skew_6431_42, "P", 5) == \
            rows(skew_6431_42, 5, "P", "1' 1 | 1' 1 | 1 1 2' | 2")

    def test_skew_q(self, skew_6431_42):
        assert minimal_tableau(skew_6431_42, "Q", 5) == \
            rows(skew_6431_42, 5, "Q", "1' 1 | 1' 1 | 1' 1 2' | 2'")

    def test_empty_shape(self):
        t = minimal_tableau(SkewShape(sp()), "P", 1)
        assert t.size() == 0

    def test_raises_when_no_tableau_exists(self):
        with pytest.raises(ValueError):
            minimal_tableau(SkewShape(sp(2, 1)), "P", 1)

    def test_greedy_matches_exhaustive_minimum(self):
        # the greedy fill is the first enumerated single-valued tableau,
        # and it fails exactly when there is none
        cases = 0
        for shape in skew_shapes(7, with_empty=True):
            for family, n in itertools.product("PQ", (1, 2, 3)):
                spec = EnumSpec(shape, n, family, "single")
                first = next(iter(enumerate_fillings(spec)), None)
                try:
                    tmin = minimal_tableau(shape, family, n)
                except ValueError:
                    assert first is None, (str(shape), family, n)
                    continue
                assert tmin == first, (str(shape), family, n)
                cases += 1
        assert cases > 700
        # it also achieves the minimum total entry value among all of them
        for shape in skew_shapes(5, with_empty=True):
            for family, n in itertools.product("PQ", (1, 2)):
                spec = EnumSpec(shape, n, family, "single")
                singles = list(enumerate_fillings(spec))
                try:
                    tmin = minimal_tableau(shape, family, n)
                except ValueError:
                    assert not singles, (str(shape), family, n)
                    continue
                assert singles, (str(shape), family, n)
                def total(t):
                    return sum(sum((e + 1) // 2 for e in cell)
                               for cell in t.cells)
                assert total(tmin) == min(total(t) for t in singles)

    def test_empty_staircase_fails_without_search(self):
        # ten diagonal boxes need ten unprimed letters; the greedy fill
        # stops at the first box, which has no candidate: its ceiling is
        # below its lowest code, so the walk's first leaf stops there too
        # (test_empty_set_fill_stops_where_the_walk_searches tells the
        # two apart)
        staircase = SkewShape(sp(*range(10, 0, -1)))
        with pytest.raises(ValueError, match="empty tableau set"):
            minimal_tableau(staircase, "P", 5)

    def test_empty_set_fill_stops_where_the_walk_searches(
            self, monkeypatch, fresh_caches):
        # Q 16,5,4,3,2,1/5 at n = 4 has no tableau, yet its first boxes
        # have candidates: the greedy fill stops at the first box whose
        # least code is past its ceiling, after 12 least codes (one per
        # box at most), while the walk's first leaf reads 11,958 candidate
        # tables searching the dead tree
        calls = 0
        real = enumeration._least_code

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(enumeration, "_least_code", counted)
        shape = SkewShape.parse("16,5,4,3,2,1/5")
        with pytest.raises(ValueError, match="empty tableau set"):
            minimal_tableau(shape, "Q", 4)
        assert 0 < calls <= shape.size == 26

    def test_every_box_holds_its_least_code(self):
        minimal_tableau_against_least_codes()

    def test_greedy_fails_iff_empty(self):
        for lam in strict_partitions_up_to_weight(4):
            shape = SkewShape(lam)
            for family, n in itertools.product("PQ", (1, 2)):
                spec = EnumSpec(shape, n, family, "set-valued")
                empty = next(iter(enumerate_fillings(spec)), None) is None
                try:
                    minimal_tableau(shape, family, n)
                    assert not empty
                except ValueError:
                    assert empty


class TestIota:
    def test_straight_examples(self, shape_421, set_valued_examples):
        images = {
            "T1": rows(shape_421, 3, "P", "1 1 1 3' | 2 3' | 3"),
            "T2": rows(shape_421, 3, "P", "1 1,2' 2 2,3' | 2 3' | 3"),
            "T3": rows(shape_421, 3, "Q", "1' 1 1 1 | 2' 2 | 3"),
            "T4": rows(shape_421, 3, "Q", "1' 1 1 1,2,3 | 2',2 2 | 3'"),
        }
        for key, T in set_valued_examples.items():
            assert iota(T) == images[key], key
            assert iota(images[key]) == T, key

    def test_skew_q_examples(self, skew_6431_42):
        t3 = rows(skew_6431_42, 5, "Q", "1' 1,2,3 | 1' 1 | 1' 1 2' | 2'")
        t3_image = rows(skew_6431_42, 5, "Q", "1' 2,3 | 1' 1 | 1' 1 2' | 2'")
        t4 = rows(skew_6431_42, 5, "Q", "3' 3,4,5 | 1' 3',4' | 1' 1 4',5 | 2'")
        t4_image = rows(skew_6431_42, 5, "Q",
                        "1',3' 3,4,5 | 1' 3',4' | 1' 1 4',5 | 2'")
        assert iota(t3) == t3_image
        assert iota(t4) == t4_image
        assert iota(t3_image) == t3
        assert iota(t4_image) == t4

    def test_skew_p_examples(self, skew_6431_42):
        # the first differing box gets the minimal content toggled, so the
        # image of a tableau disagreeing first at (3,4) inserts a 1 there
        t1 = rows(skew_6431_42, 5, "P", "3,4' 4,5' | 1' 4',4 | 1 2',4 5' | 5")
        assert iota(t1) == rows(skew_6431_42, 5, "P",
                                "3,4' 4,5' | 1' 4',4 | 1 1,2',4 5' | 5")
        t2 = rows(skew_6431_42, 5, "P", "1' 3',5 | 1' 1 | 1 1 4 | 2")
        assert iota(t2) == rows(skew_6431_42, 5, "P",
                                "1' 3',5 | 1' 1 | 1 1 2',4 | 2")

    def test_undefined_on_minimal(self, shape_421):
        with pytest.raises(ValueError):
            iota(minimal_tableau(shape_421, "P", 3))

    def test_given_minimal_tableau_changes_nothing(self, skew_6431_42):
        # the walk's images, from one minimal tableau, are those of a
        # minimal tableau built for each T
        tmin = minimal_tableau(skew_6431_42, "Q", 2)
        walk = involutions._iota_pairs(skew_6431_42, "Q", 2, tmin)
        for T, image, _ in itertools.islice(walk, 299):
            assert image == iota(T).cells

    def test_equals_the_reference_exhaustive(self):
        # every non-minimal set-valued tableau of every lam/mu with
        # |lam| <= 5, n <= 2, P and Q
        compared = 0
        for shape in skew_shapes(5):
            order = _index_table(shape.outer.parts,
                                 shape.inner.parts).col_order
            for family, n in itertools.product("PQ", (1, 2)):
                if not engine_count(shape, family, n):
                    continue
                tmin = minimal_tableau(shape, family, n).cells
                spec = EnumSpec(shape, n, family, "set-valued")
                for T in enumerate_fillings(spec):
                    if T.cells != tmin:
                        assert involutions._iota_cells(
                            order, T.cells, tmin) == reference.iota(
                                shape.row_major, T.cells, tmin), T
                        compared += 1
        assert compared == 3680

    def test_one_box_q_swap(self):
        shape = SkewShape(sp(1))
        t = rows(shape, 1, "Q", "1")
        assert iota(t) == rows(shape, 1, "Q", "1',1")
        assert iota(iota(t)) == t


class TestVerifyInvolution:
    def test_small_sweep(self):
        for lam in strict_partitions_up_to_weight(4):
            for family, n in itertools.product("PQ", (1, 2)):
                shape = SkewShape(lam)
                if not engine_count(shape, family, n):
                    with pytest.raises(ValueError, match="empty tableau set"):
                        verify_involution(shape, family, n)
                    continue
                _, violations = verify_involution(shape, family, n)
                assert not violations, violations[:3]

    def test_skew(self):
        checked, violations = verify_involution(SkewShape.parse("3,1/1"),
                                                "Q", 2)
        assert not violations and checked > 0

    def test_empty_shape_is_vacuous(self):
        assert verify_involution(SkewShape(sp()), "P", 1) == (0, ())


class TestFailureDetection:
    """A broken iota must show in verify_involution and pairing_certificate.

    Each test breaks the cell-level iota rule ``_iota_cells``, which both
    walk, at the second enumerated tableau of 3,1/1 (P, n=2), or at its
    partner; the first is the minimal tableau, so the second is never the
    image of an earlier one and its pair is walked from it.
    """

    LAM, MU, N, FAMILY = sp(3, 1), sp(1), 2, "P"

    def _tableaux(self):
        """The tableaux of lam/mu in enumeration order."""
        shape = SkewShape(self.LAM, self.MU)
        tableaux = list(enumerate_fillings(
            EnumSpec(shape, self.N, self.FAMILY, "set-valued")))
        assert tableaux[0] == minimal_tableau(shape, self.FAMILY, self.N)
        return tableaux

    def _break_iota(self, monkeypatch, broken):
        """Patch the iota rule to give the cells of broken(T) where that is
        not None, else the true image; T is the tableau of the cells."""
        real = involutions._iota_cells
        shape = SkewShape(self.LAM, self.MU)

        def patched(order, cells, tmin):
            # the tableaux of a larger lam/nu keep the true rule
            other = len(cells) == shape.size and broken(
                Filling(shape, self.N, self.FAMILY, cells))
            if not other:
                return real(order, cells, tmin)
            return other.cells

        monkeypatch.setattr(involutions, "_iota_cells", patched)

    def _report(self):
        _, violations = verify_involution(SkewShape(self.LAM, self.MU),
                                          self.FAMILY, self.N)
        assert violations
        cert = pairing_certificate(self.LAM, self.MU, self.N, self.FAMILY)
        assert cert.leftover
        return violations, cert

    def _violations(self):
        return " ".join(self._report()[0])

    def test_fixed_point(self, monkeypatch):
        tableaux = self._tableaux()
        self._break_iota(monkeypatch,
                         lambda T: T if T == tableaux[1] else None)
        assert "iota fixes" in self._violations()

    def test_written_with_its_leftover(self, monkeypatch):
        # the request written whole first, so its header pieces are kept,
        # then with the leftover of a failed iota: both are json.dumps
        intact = pairing_certificate(self.LAM, self.MU, self.N, self.FAMILY)
        tableaux = self._tableaux()
        self._break_iota(monkeypatch,
                         lambda T: T if T == tableaux[1] else None)
        _, cert = self._report()
        for c in (intact, cert):
            fh = io.StringIO()
            write_certificate(c, fh)
            assert fh.getvalue() == json.dumps(c.to_json(), sort_keys=True,
                                               indent=1)

    def test_not_an_involution(self, monkeypatch):
        # the partner of the second tableau maps on to a third one
        tableaux = self._tableaux()
        partner = iota(tableaux[1])
        third = next(T for T in tableaux[2:] if T != partner)
        self._break_iota(monkeypatch,
                         lambda T: third if T == partner else None)
        assert "not an involution" in self._violations()

    def test_invalid_image(self, monkeypatch):
        tableaux = self._tableaux()
        # every box holds the largest unprimed letter: column 2 repeats it
        bad = Filling(tableaux[1].shape, self.N, self.FAMILY,
                      [(2 * self.N,) for _ in tableaux[1].cells])
        assert "repeats in column 2" in validate_cells(bad.shape, bad.family,
                                                       bad.cells)
        self._break_iota(monkeypatch,
                         lambda T: bad if T == tableaux[1] else None)
        assert "is invalid" in self._violations()

    def test_hits_the_minimal_tableau(self, monkeypatch, capsys):
        tableaux = self._tableaux()
        self._break_iota(monkeypatch,
                         lambda T: tableaux[0] if T == tableaux[1] else None)
        violations, cert = self._report()
        # one fault for the pair; its true partner fails on its own
        assert [v for v in violations if repr(tableaux[1]) in v] == [
            f"iota of {tableaux[1]!r} hits the minimal tableau"]
        assert tableaux[1] in cert.leftover
        # pair reports a failed pairing, not a usage error
        code = main(["pair", "--lambda", "3,1", "--mu", "1", "--family",
                     "P", "-n", "2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert re.fullmatch(r"pairs=\d+ leftover=[1-9]\d* FAIL\n", out)
        assert "error:" not in err

    def test_changes_size_by_other_than_one(self, monkeypatch):
        # iota swaps the second tableau with a later one of the same size
        tableaux = self._tableaux()
        same = next(T for T in tableaux[2:]
                    if T.size() == tableaux[1].size())
        self._break_iota(monkeypatch, lambda T: (
            same if T == tableaux[1] else tableaux[1] if T == same else None))
        violations, cert = self._report()
        assert [v for v in violations if repr(tableaux[1]) in v] == [
            f"iota of {tableaux[1]!r} changes |T| by != 1"]
        # the pairing rule takes the swap; the checker's sign rule does not
        assert (tableaux[1], same, "iota") in cert.pairs
        ok, why = certificate_checker(self.LAM, self.MU, self.N,
                                      self.FAMILY)(cert.to_json())
        assert not ok and why.endswith("both sides have the same sign")


def pi_removes_the_bottom_box():
    """pi of mu itself removes exactly mu's bottom removable box, on
    7,5,4,2 and on 1.  It reads ``shapes.pi`` where the package binds it,
    and only the parts of what it returns."""
    for mu, box in ((sp(7, 5, 4, 2), (4, 5)), (sp(1), (1, 1))):
        nu = sp(*shapes.pi(mu, mu).parts)
        assert SkewShape(mu, nu).boxes == {box}, str(mu)


class TestPi:
    def test_bottom_box(self):
        pi_removes_the_bottom_box()

    def test_involution_without_fixed_points(self):
        # on every inner shape of mu, and pi(mu, nu) is one too
        for mu in strict_partitions_up_to_weight(8):
            if not mu:
                continue
            removed = {nu: b for b, nu in inner_shapes(mu)}
            for nu, b in removed.items():
                im = pi(mu, nu)
                assert im != nu
                assert pi(mu, im) == nu
                assert abs(removed[im] - b) == 1

    def test_flagship_example(self):
        mu = sp(7, 5, 4, 2)
        im = pi(mu, mu)
        assert im == sp(7, 5, 4, 1)
        assert mu.weight - im.weight == 1

    def test_single_part(self):
        assert pi(sp(1), sp()) == sp(1)


def _family_elements(lam, mu, n, family):
    out = []
    for _, nu in inner_shapes(mu):
        spec = EnumSpec(SkewShape(lam, nu), n, family, "set-valued")
        out.extend({"nu": list(nu.parts), "tableau": T.to_json()}
                   for T in enumerate_fillings(spec))
    return out


def certificate_covers(doc, elements):
    """Check that a certificate document matches each given element
    exactly once."""

    def key(e):
        return json.dumps(e, sort_keys=True)

    seen: dict[str, int] = {}
    for p in doc["pairs"]:
        l, r = key(p["left"]), key(p["right"])
        if l == r:
            return False, f"self-pair {l}"
        seen[l] = seen.get(l, 0) + 1
        seen[r] = seen.get(r, 0) + 1
    want = {key(e) for e in elements}
    if set(seen) != want:
        return False, "paired elements differ from the enumerated family"
    if any(v != 1 for v in seen.values()):
        return False, "an element appears in more than one pair"
    if doc["leftover"]:
        return False, "nonempty leftover"
    return True, None


class TestPairingCertificate:
    def test_small_complete(self):
        cert = pairing_certificate(sp(2, 1), sp(1), 2, "P")
        assert not cert.leftover
        assert all(p.tag in ("iota", "pi") for p in cert.pairs)
        ok, why = certificate_covers(
            _roundtrip(cert), _family_elements(sp(2, 1), sp(1), 2, "P"))
        assert ok, why

    def test_equal_shapes(self):
        cert = pairing_certificate(sp(2), sp(2), 1, "Q")
        ok, why = certificate_covers(
            _roundtrip(cert), _family_elements(sp(2), sp(2), 1, "Q"))
        assert not cert.leftover and ok, why

    def test_minimal_only_flagship(self):
        cert = pairing_certificate(sp(9, 8, 6, 4), sp(7, 5, 4, 2), 2, "P",
                                   minimal_only=True)
        pi_pairs = [p for p in cert.pairs if p.tag == "pi"]
        assert len(pi_pairs) == 4

    def test_rejects_empty_mu(self):
        with pytest.raises(ValueError):
            pairing_certificate(sp(2, 1), sp(), 2, "P")

    def test_scale_guard(self):
        # a family of 124,416 tableaux over the eight inner shapes
        with pytest.raises(ValueError, match="minimal_only"):
            pairing_certificate(sp(10, 8, 6, 4), sp(7, 5, 4, 2), 2, "P")

    def test_scale_guard_admits_every_benchmark_certificate(self):
        # 4 times the largest family a test or benchmark pool writes in full
        assert 4 * 4804 <= PAIR_MAX_ELEMENTS < 124_416

    def test_json_roundtrippable(self):
        cert = pairing_certificate(sp(2, 1), sp(1), 2, "Q")
        doc = cert.to_json()
        assert doc["pairs"] and not doc["leftover"]


def _roundtrip(cert):
    """The certificate's document, as a checker reading its file sees it."""
    return json.loads(json.dumps(cert.to_json()))


class TestCheckCertificate:
    def test_good_certificate(self):
        cert = pairing_certificate(*REQUEST)
        assert certificate_checker(*REQUEST)(_roundtrip(cert)) == (True, None)

    @pytest.mark.parametrize("tamper,reason", TAMPERS,
                             ids=[t.__name__ for t, _ in TAMPERS])
    def test_each_tamper_fails(self, tamper, reason):
        doc = _roundtrip(pairing_certificate(*REQUEST))
        tamper(doc)
        assert certificate_checker(*REQUEST)(doc) == (False, reason)

    def test_certificate_of_another_request_fails(self):
        # a valid certificate, of 3,1 // 1 Q n=2, does not prove 2,1 // 1
        doc = _roundtrip(pairing_certificate(sp(3, 1), sp(1), 2, "Q"))
        assert certificate_checker(sp(3, 1), sp(1), 2, "Q")(doc) == (
            True, None)
        assert certificate_checker(*REQUEST)(doc) == (
            False, 'certificate is for {"lambda": [3, 1], "mu": [1], "n": 2, '
            '"family": "Q", "minimal_only": false}')

    def test_header_mismatch_comes_before_malformed_pairs(self):
        doc = _roundtrip(pairing_certificate(*REQUEST))
        del doc["pairs"]
        assert certificate_checker(sp(2, 1), sp(1), 3, "P")(doc) == (
            False, 'certificate is for {"lambda": [2, 1], "mu": [1], "n": 2, '
            '"family": "P", "minimal_only": false}')

    @pytest.mark.parametrize("bad,message", [
        ((sp(2, 1), sp(), 2, "P"), "nonempty mu"),
        ((sp(2, 1), sp(1), 0, "P"), "n must be at least 1"),
        ((sp(2, 1), sp(1), 2.0, "P"), "n must be an int, got 2.0"),
        ((sp(1), sp(1), True, "Q"), "n must be an int, got True"),
        ((sp(2, 1), sp(1), "2", "P"), "n must be an int, got '2'"),
        ((sp(2, 1), sp(1), 2, "R"), "family must be P or Q")],
        ids=["empty_mu", "n_zero", "n_float", "n_bool", "n_str", "family_R"])
    def test_refused_request_raises(self, bad, message):
        # as pairing_certificate refuses it
        doc = _roundtrip(pairing_certificate(*REQUEST))
        with pytest.raises(ValueError, match=message):
            pairing_certificate(*bad)
        with pytest.raises(ValueError, match=message):
            certificate_checker(*bad)(doc)

    @pytest.mark.parametrize("minimal_only", [False, True])
    def test_empty_tableau_set_raises(self, minimal_only):
        # as pairing_certificate refuses it: 2,1 has no P tableau at n = 1
        request = (sp(2, 1), sp(1), 1, "P", minimal_only)
        doc = {"lambda": [2, 1], "mu": [1], "n": 1, "family": "P",
               "minimal_only": minimal_only, "pairs": [], "leftover": []}
        message = "empty tableau set for 2,1, P, n=1"
        with pytest.raises(ValueError, match=message):
            pairing_certificate(*request)
        with pytest.raises(ValueError, match=message):
            certificate_checker(*request)(doc)

    def test_minimal_only(self):
        request = (sp(9, 8, 6, 4), sp(7, 5, 4, 2), 2, "P", True)
        doc = _roundtrip(pairing_certificate(*request))
        assert certificate_checker(*request)(doc) == (True, None)
        doc["pairs"].pop()
        assert not certificate_checker(*request)(doc)[0]

    def test_minimal_only_refuses_iota_pairs(self):
        full = _roundtrip(pairing_certificate(*REQUEST))
        doc = _roundtrip(pairing_certificate(*REQUEST, minimal_only=True))
        # two iota pairs in place of the pi pair: as many elements as nus
        doc["pairs"] = [p for p in full["pairs"] if p["tag"] == "iota"][:1]
        assert not certificate_checker(*REQUEST, minimal_only=True)(doc)[0]

    def test_iota_pair_retagged_pi_fails(self):
        doc = _roundtrip(pairing_certificate(*REQUEST))
        next(p for p in doc["pairs"] if p["tag"] == "iota")["tag"] = "pi"
        ok, why = certificate_checker(*REQUEST)(doc)
        assert not ok and "pi pair" in why

    def test_pi_pair_of_non_minimal_tableaux_fails(self):
        request = (sp(3, 1), sp(2), 2, "Q")
        doc = _roundtrip(pairing_certificate(*request))
        pi_pair = doc["pairs"][0]
        assert pi_pair["tag"] == "pi"

        def size(element):
            return sum(map(len, itertools.chain(*element["tableau"]["rows"])))

        # a non-minimal tableau of the same nu and sign as the left side
        other = next(e for p in doc["pairs"] if p["tag"] == "iota"
                     for e in (p["left"], p["right"])
                     if e["nu"] == pi_pair["left"]["nu"]
                     and (size(e) - size(pi_pair["left"])) % 2 == 0)
        pi_pair["left"] = other
        assert certificate_checker(*request)(doc) == (
            False, "pair 0: pi side is not minimal: Filling(3,1/2; 1' | 1)")

    def test_cell_memo_lives_for_one_call(self):
        # 2' is a valid entry at n = 2 and out of range at n = 1
        wide = _roundtrip(pairing_certificate(*REQUEST))
        assert ["2'"] in [cell for p in wide["pairs"]
                          for e in (p["left"], p["right"])
                          for row in e["tableau"]["rows"] for cell in row]
        assert certificate_checker(*REQUEST)(wide) == (True, None)
        doc = pairing_certificate(sp(2), sp(1), 1, "P").to_json()
        doc["pairs"][-1]["right"]["tableau"]["rows"][0][-1] = ["2'"]
        ok, why = certificate_checker(sp(2), sp(1), 1, "P")(doc)
        assert not ok and "entry out of range 1..2" in why, why

    def test_builds_no_filling_but_the_minimal_tableaux(self, monkeypatch):
        # 4,2,1 // 3,1: four inner shapes, so two pi pairs
        lam, mu = sp(4, 2, 1), sp(3, 1)
        doc = _roundtrip(pairing_certificate(lam, mu, 2, "P"))
        built = []
        real = Filling.__init__

        def counted(self, *args, **kwargs):
            real(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Filling, "__init__", counted)
        assert certificate_checker(lam, mu, 2, "P")(doc) == (True, None)
        monkeypatch.undo()
        nus = {tuple(e["nu"]) for p in doc["pairs"] if p["tag"] == "pi"
               for e in (p["left"], p["right"])}
        assert len(nus) == 4 and len(doc["pairs"]) == 150
        assert sorted(built, key=repr) == sorted(
            (minimal_tableau(SkewShape(lam, StrictPartition(nu)), "P", 2)
             for nu in nus), key=repr)

    @pytest.mark.parametrize("key", ["lambda", "mu", "n", "family",
                                     "minimal_only", "pairs", "leftover"])
    def test_missing_key_is_malformed(self, key):
        doc = _roundtrip(pairing_certificate(*REQUEST))
        del doc[key]
        assert certificate_checker(*REQUEST)(doc) == (
            False, f"malformed certificate (KeyError({key!r}))")

    def test_bad_header(self):
        # compared as JSON text: 2.0 is not 2, true is not 1, 0 is not false
        cert = pairing_certificate(*REQUEST)
        for field, value in (("family", "GP"), ("n", 0), ("mu", []),
                             ("lambda", [2.0, 1]), ("n", 2.0), ("n", True),
                             ("minimal_only", 0), ("family", "Q")):
            bad = _roundtrip(cert)
            bad[field] = value
            ok, why = certificate_checker(*REQUEST)(bad)
            assert not ok and why.startswith("certificate is for {"), field

    def test_agrees_with_covers_oracle(self):
        checked = 0
        for shape in skew_shapes(5):
            lam, mu = shape.outer, shape.inner
            if not mu:
                continue
            for family, n in itertools.product("PQ", (1, 2)):
                request = (lam, mu, n, family)
                if has_empty_set(lam, mu, family, n):
                    with pytest.raises(ValueError,
                                       match="empty tableau set"):
                        pairing_certificate(*request)
                    continue
                cert = pairing_certificate(*request)
                elements = _family_elements(lam, mu, n, family)
                case = (str(lam), str(mu), family, n)
                check = certificate_checker(*request)
                assert check(cert.to_json()) == (True, None), case
                doc = _roundtrip(cert)
                assert check(doc) == (True, None), case
                assert certificate_covers(doc, elements)[0], case
                doc["pairs"].pop()
                assert not check(doc)[0], case
                assert not certificate_covers(doc, elements)[0], case
                checked += 1
        assert checked > 100



def _texts(cert, tampered: bool = False) -> Iterator[str]:
    """The certificate as written; with tampered=True, also each document
    a TAMPERS edit makes of it, in the layout written."""
    fh = io.StringIO()
    write_certificate(cert, fh)
    yield fh.getvalue()
    for tamper, _ in TAMPERS if tampered else ():
        doc = json.loads(json.dumps(cert.to_json()))
        tamper(doc)
        yield as_written(doc)


def test_reader_agrees_with_json_loads():
    # the TAMPERS edits are made to the certificate they are written for
    checked = 0
    for shape in skew_shapes(4):
        lam, mu = shape.outer, shape.inner
        for family, n, minimal_only in itertools.product(
                "PQ", (1, 2), (False, True)):
            request = (lam, mu, n, family, minimal_only)
            if not mu or has_empty_set(lam, mu, family, n):
                continue
            check = certificate_checker(*request)
            tampered = request == REQUEST + (False,)
            for text in _texts(pairing_certificate(*request), tampered):
                case = (str(lam), str(mu), family, n, minimal_only, text)
                assert check(read_certificate(io.StringIO(text))) == \
                    check(json.loads(text)), case
                doc = read_certificate(io.StringIO(text))
                doc["pairs"] = list(doc["pairs"])
                assert doc == json.loads(text), case
                checked += 1
    assert checked == 136 + len(TAMPERS)


def test_long_header_is_read_in_a_few_steps_and_decoded_once(monkeypatch):
    # a leftover of 1.5 MB in chunks of 4,096 characters: a read per chunk
    # would be some 370 reads, each copying the header read so far
    doc = pairing_certificate(*REQUEST).to_json()
    doc["leftover"] = [doc["pairs"][0]["left"]] * 4_000
    text = as_written(doc)
    assert len(text) > 1_500_000
    reads, decodes = [], []
    loads = json.loads

    class Counted(io.StringIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    def counted(s):
        decodes.append(len(s))
        return loads(s)

    monkeypatch.setattr(involutions, "_CHUNK", 4096)
    monkeypatch.setattr(json, "loads", counted)
    got = read_certificate(Counted(text))
    got["pairs"] = list(got["pairs"])
    monkeypatch.undo()
    assert got == json.loads(text)
    # one json.loads for the header, and one for each pair
    assert len(reads) < 20
    assert len(decodes) == 1 + len(got["pairs"])


def _equals_checked_rebuild(f):
    """f holds one cell per box as a tuple, and a checked rebuild of its
    cells is the same filling."""
    assert type(f.cells) is tuple and len(f.cells) == f.shape.size
    rebuilt = Filling(f.shape, f.n, f.family, f.cells)
    assert f == rebuilt and f._key == rebuilt._key
    assert hash(f) == hash(rebuilt)


def test_trusted_images_equal_checked_rebuild():
    """The constructions that skip the checks, rebuilt checked: the
    enumerator's leaves, minimal_tableau, iota, filling_from_rows,
    with_cell, and both sides of every pair of a certificate."""
    images = sides = 0
    for shape in skew_shapes(6, with_empty=True):
        lam, mu = shape.outer, shape.inner
        for n, family in itertools.product((1, 2), "PQ"):
            if not engine_count(shape, family, n):
                with pytest.raises(ValueError, match="empty tableau set"):
                    minimal_tableau(shape, family, n)
                continue
            tmin = minimal_tableau(shape, family, n)
            _equals_checked_rebuild(tmin)
            spec = EnumSpec(shape, n, family, "set-valued")
            for k, T in enumerate(enumerate_fillings(spec)):
                _equals_checked_rebuild(T)
                _equals_checked_rebuild(filling_from_rows(
                    shape, n, family, T.to_json()["rows"]))
                if shape.size:  # a box, in turn, takes tmin's cell
                    k %= shape.size
                    _equals_checked_rebuild(T.with_cell(
                        shape.row_major[k], tmin.cells[k]))
                if T == tmin:
                    continue
                image = iota(T)
                _equals_checked_rebuild(image)
                assert validate_cells(shape, family, image.cells) is None
                images += 1
            if mu and not has_empty_set(lam, mu, family, n):
                cert = pairing_certificate(lam, mu, n, family)
                for pair in cert.pairs:
                    _equals_checked_rebuild(pair.left)
                    _equals_checked_rebuild(pair.right)
                    sides += 2
    assert images > 4000 and sides > 4000
