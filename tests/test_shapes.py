import pytest

from shifted_kschur.shapes import (SkewShape, StrictPartition, inner_shapes,
                                   is_subpartition, removable_boxes,
                                   strict_partitions_of_weight,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)


def sp(*parts):
    return StrictPartition(tuple(parts))


class TestStrictPartition:
    def test_basic(self):
        lam = sp(4, 2, 1)
        assert lam.length == 3
        assert lam.weight == 7
        assert lam.part(1) == 4 and lam.part(4) == 0

    def test_empty(self):
        empty = sp()
        assert empty.length == 0 and empty.weight == 0
        assert not empty

    @pytest.mark.parametrize("bad", [(2, 2), (1, 2), (3, 0), (-1,)])
    def test_rejects_non_strict(self, bad):
        with pytest.raises(ValueError):
            StrictPartition(bad)

    @pytest.mark.parametrize("bad, text", [
        ((3, "a"), "parts must be positive integers, got (3, 'a')"),
        ((3, None), "parts must be positive integers, got (3, None)"),
        ((3, [1]), "parts must be positive integers, got (3, [1])"),
        ((2.0,), "parts must be positive integers, got (2.0,)"),
        ((3, 0), "parts must be positive integers, got (3, 0)"),
        ([-1], "parts must be positive integers, got (-1,)"),
        ((2, 2), "parts must be strictly decreasing, got (2, 2)"),
        ([4, 1, 2], "parts must be strictly decreasing, got (4, 1, 2)"),
    ])
    def test_rejection_texts(self, bad, text):
        with pytest.raises(ValueError) as err:
            StrictPartition(bad)
        assert str(err.value) == text

    def test_parse_roundtrip(self):
        assert StrictPartition.parse("4,2,1") == sp(4, 2, 1)
        assert StrictPartition.parse("") == sp()
        assert StrictPartition.parse(str(sp(6, 4, 3, 1))) == sp(6, 4, 3, 1)


class TestSkewShape:
    def test_straight_boxes(self):
        sh = SkewShape(sp(4, 2, 1))
        assert sh.boxes == {(1, 1), (1, 2), (1, 3), (1, 4),
                            (2, 2), (2, 3), (3, 3)}

    def test_skew_boxes(self):
        sh = SkewShape(sp(6, 4, 3, 1), sp(4, 2))
        assert sh.boxes == {(1, 5), (1, 6), (2, 4), (2, 5),
                            (3, 3), (3, 4), (3, 5), (4, 4)}
        assert sh.size == 14 - 6

    def test_inner_must_fit(self):
        with pytest.raises(ValueError):
            SkewShape(sp(4, 2, 1), sp(5))

    def test_parse(self):
        sh = SkewShape.parse("6,4,3,1/4,2")
        assert sh.outer == sp(6, 4, 3, 1) and sh.inner == sp(4, 2)

    def test_json_boxes_in_column_order(self):
        sh = SkewShape(sp(2, 1))
        assert sh.to_json() == {
            "outer": [2, 1], "inner": [],
            "boxes": [[1, 1], [1, 2], [2, 2]],
        }


class TestBoxOrder:
    def test_small_straight(self):
        assert list(SkewShape(sp(2, 1)).col_major) == [(1, 1), (1, 2), (2, 2)]

    def test_prefix_of_421(self):
        assert list(SkewShape(sp(4, 2, 1)).col_major)[:3] == \
            [(1, 1), (1, 2), (2, 2)]

    def test_skew_first_box(self):
        # oracle: sort the explicit box-set comprehension
        lam, mu = sp(6, 4, 3, 1), sp(4, 2)
        explicit = sorted(
            ((i, j)
             for i in range(1, lam.length + 1)
             for j in range(mu.part(i) + i, lam.part(i) + i)),
            key=lambda b: (b[1], b[0]))
        got = list(SkewShape(lam, mu).col_major)
        assert got == explicit
        assert got[0] == (3, 3)

    def test_cached_orders(self):
        for lam in strict_partitions_up_to_weight(8):
            for mu in strict_subpartitions(lam):
                sh = SkewShape(lam, mu)
                assert sh.col_major == tuple(
                    sorted(sh.boxes, key=lambda b: (b[1], b[0])))
                assert len(sh.rows) == lam.length
                assert sum(sh.rows, ()) == sh.row_major
                for i, row in enumerate(sh.rows, start=1):
                    assert row == tuple((i, j) for j in sh.row_cols(i))

    def test_total_order_is_permutation(self):
        for lam in strict_partitions_up_to_weight(8):
            sh = SkewShape(lam)
            order = list(sh.col_major)
            assert len(order) == len(sh.boxes)
            assert set(order) == sh.boxes
            keys = [(j, i) for (i, j) in order]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


class TestRemovableBoxes:
    def test_reference_example(self):
        assert removable_boxes(sp(7, 5, 4, 2)) == {(1, 7), (3, 6), (4, 5)}

    def test_single_box(self):
        assert removable_boxes(sp(1)) == {(1, 1)}

    def test_staircase(self):
        assert removable_boxes(sp(3, 2, 1)) == {(3, 3)}

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            removable_boxes(sp())

    def test_brute_force_oracle(self):
        # a row's last box is removable iff deleting it leaves a strict shape
        for mu in strict_partitions_up_to_weight(8):
            if not mu:
                continue
            expected = set()
            for i in range(1, mu.length + 1):
                parts = list(mu.parts)
                parts[i - 1] -= 1
                shrunk = [p for p in parts if p > 0]
                if all(a > b for a, b in zip(shrunk, shrunk[1:])) and \
                        len(shrunk) in (mu.length, mu.length - 1) and \
                        sorted(shrunk, reverse=True) == shrunk:
                    expected.add((i, mu.part(i) + i - 1))
            assert removable_boxes(mu) == expected, mu

    def test_corner_always_removable(self):
        for mu in strict_partitions_up_to_weight(8):
            if mu:
                corner = (mu.length, mu.part(mu.length) + mu.length - 1)
                assert corner in removable_boxes(mu)


class TestRemoveSubset:
    """``inner_shapes``: mu minus each subset of Rem(mu), with |mu/nu|."""

    def test_reference_example(self):
        # bits 0 and 2 of Rem = (1, 7), (3, 6), (4, 5)
        assert inner_shapes(sp(7, 5, 4, 2))[0b101] == (2, sp(6, 5, 4, 1))

    def test_identity_and_vanishing(self):
        assert inner_shapes(sp(7, 5, 4, 2))[0] == (0, sp(7, 5, 4, 2))
        assert inner_shapes(sp(1))[1] == (1, sp())
        assert inner_shapes(sp()) == [(0, sp())]

    def test_all_subsets_stay_strict(self):
        # equal to deleting each subset of sorted Rem(mu) from the diagram,
        # in bit-mask order; the constructor raises if a nu is not strict
        for mu in strict_partitions_up_to_weight(8):
            if not mu:
                continue
            rem = sorted(removable_boxes(mu))
            want = []
            for mask in range(1 << len(rem)):
                B = {box for k, box in enumerate(rem) if mask >> k & 1}
                rows = [sum(1 for (i, _) in SkewShape(mu).boxes - B if i == r)
                        for r in range(1, mu.length + 1)]
                want.append((len(B), StrictPartition(
                    tuple(p for p in rows if p))))
            assert inner_shapes(mu) == want, mu

    def test_removable_subsets_in_bit_mask_order(self):
        # Rem = (1, 7), (3, 6), (4, 5): subset k removes the boxes whose
        # bit is set in k
        assert inner_shapes(sp(7, 5, 4, 2)) == [
            (0, sp(7, 5, 4, 2)), (1, sp(6, 5, 4, 2)), (1, sp(7, 5, 3, 2)),
            (2, sp(6, 5, 3, 2)), (1, sp(7, 5, 4, 1)), (2, sp(6, 5, 4, 1)),
            (2, sp(7, 5, 3, 1)), (3, sp(6, 5, 3, 1))]
        assert inner_shapes(sp(1)) == [(0, sp(1)), (1, sp())]


class TestSubpartition:
    def test_examples(self):
        assert is_subpartition(sp(4, 2), sp(6, 4, 3, 1))
        assert is_subpartition(sp(), sp(4, 2, 1))
        assert not is_subpartition(sp(5), sp(4, 2, 1))

    def test_box_set_difference(self):
        for lam in strict_partitions_up_to_weight(8):
            for mu in strict_subpartitions(lam):
                skew = SkewShape(lam, mu)
                assert skew.boxes == \
                    SkewShape(lam).boxes - SkewShape(mu).boxes
                assert skew.size == lam.weight - mu.weight

    def test_box_count_equals_weight(self):
        for lam in strict_partitions_up_to_weight(8):
            assert len(SkewShape(lam).boxes) == lam.weight


def test_partition_generators():
    assert [p.parts for p in strict_partitions_of_weight(6)] == \
        [(6,), (5, 1), (4, 2), (3, 2, 1)]
    subs = {p.parts for p in strict_subpartitions(sp(3, 1))}
    assert subs == {(), (1,), (2,), (3,), (2, 1), (3, 1)}


def test_strict_subpartitions_are_distinct_and_complete():
    for lam in strict_partitions_up_to_weight(8):
        subs = [mu.parts for mu in strict_subpartitions(lam)]
        assert len(subs) == len(set(subs)), lam
        below = strict_partitions_up_to_weight(lam.weight)
        assert set(subs) == {mu.parts for mu in below
                             if is_subpartition(mu, lam)}, lam
