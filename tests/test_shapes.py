import itertools

import pytest

from shifted_kschur.shapes import (SkewShape, StrictPartition, _corner_rows,
                                   _index_table, _parse_skew, inner_shapes,
                                   is_subpartition,
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
        ((3, 2.0), "parts must be positive integers, got (3, 2.0)"),
        # a bool is an int that prints as a word: 2,True was a partition
        ((2, True), "parts must be positive integers, got (2, True)"),
        ((True,), "parts must be positive integers, got (True,)"),
        ((2, False), "parts must be positive integers, got (2, False)"),
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

    def test_parse_roundtrip(self):
        # what str prints parses back, the empty partition's "-" included
        shapes = [SkewShape(lam, mu)
                  for lam in strict_partitions_up_to_weight(6)
                  for mu in strict_subpartitions(lam)]
        assert SkewShape(sp()) in shapes and len(shapes) == 81
        for sh in shapes:
            assert StrictPartition.parse(str(sh.outer)) == sh.outer
            assert StrictPartition.parse(str(sh.inner)) == sh.inner
            assert SkewShape.parse(str(sh)) == sh, str(sh)

    def test_parse_builds_each_text_once(self, monkeypatch, fresh_caches):
        first = SkewShape.parse("4,2,1/1")

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built {type(self).__name__}")

        monkeypatch.setattr(StrictPartition, "__init__", refuse)
        monkeypatch.setattr(SkewShape, "__init__", refuse)
        assert SkewShape.parse("4,2,1/1") is first
        fresh_caches()  # the clearing loop reaches the cache
        with pytest.raises(AssertionError, match="built StrictPartition"):
            SkewShape.parse("4,2,1/1")
        monkeypatch.undo()
        again = SkewShape.parse("4,2,1/1")
        assert again == first and again is not first

    @pytest.mark.parametrize("text, message", [
        ("3,1/1/1", "cannot parse partition '1/1'"),
        ("2,2", "parts must be strictly decreasing, got (2, 2)"),
        ("2/3", "3 is not contained in 2"),
    ])
    def test_refused_text_is_not_kept(self, text, message, fresh_caches):
        SkewShape.parse("2,1")
        size = _parse_skew.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                SkewShape.parse(text)
            assert str(err.value) == message
            assert _parse_skew.cache_info().currsize == size

    def test_frozen_equal_and_printed_by_value(self):
        # one shape is shared by every parse of its text, so none changes
        sh = SkewShape.parse("4,2/1")
        for obj, field in ((sh, "outer"), (sh, "inner"), (sh.outer, "parts")):
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert sh.outer == sp(4, 2) and sh.inner == sp(1)
        other = SkewShape(sp(4, 2), sp(1))
        assert other is not sh and other == sh and hash(other) == hash(sh)
        assert sh != SkewShape(sp(4, 2)) and sh.outer != sh
        assert sp(4, 2) == StrictPartition([4, 2])
        assert hash(sp(4, 2)) == hash(StrictPartition([4, 2]))
        assert repr(sh) == ("SkewShape(outer=StrictPartition(parts=(4, 2)), "
                            "inner=StrictPartition(parts=(1,)))")
        assert repr(sp()) == "StrictPartition(parts=())"

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
        # against the definition, the boxes (i, j) with
        # mu_i + i <= j < lam_i + i, and against sorts of the box set
        for lam in strict_partitions_up_to_weight(10):
            for mu in strict_subpartitions(lam):
                sh = SkewShape(lam, mu)
                explicit = [(i, j) for i in range(1, lam.length + 1)
                            for j in range(mu.part(i) + i, lam.part(i) + i)]
                assert sh.boxes == frozenset(explicit)
                assert sh.row_major == tuple(explicit) \
                    == tuple(sorted(sh.boxes))
                assert sh.col_major == tuple(
                    sorted(explicit, key=lambda b: (b[1], b[0]))) \
                    == tuple(sorted(sh.boxes, key=lambda b: (b[1], b[0])))
                assert len(sh.rows) == lam.length
                for i, row in enumerate(sh.rows, start=1):
                    assert row == tuple(b for b in explicit if b[0] == i)

    def test_index_table(self):
        # every entry against the shape's own box orders, |lam| <= 6
        for lam in strict_partitions_up_to_weight(6):
            for mu in strict_subpartitions(lam):
                sh = SkewShape(lam, mu)
                boxes = sh.row_major
                t = _index_table(lam.parts, mu.parts)
                assert t.boxes == boxes
                assert t.rows == tuple(i for i, _ in boxes)
                assert t.cols == tuple(j for _, j in boxes)
                for k, (i, j) in enumerate(boxes):
                    left = (i, j - 1)
                    assert t.left[k] == (boxes.index(left)
                                         if left in sh.boxes else -1)
                    top = (i - 1, j)
                    assert t.top[k] == (boxes.index(top)
                                        if top in sh.boxes else -1)
                assert t.pairs == tuple(
                    (boxes.index(a), boxes.index(b)) for a in boxes
                    for b in ((a[0], a[1] + 1), (a[0] + 1, a[1]))
                    if b in sh.boxes)
                assert t.diagonal == tuple(
                    k for k, (i, j) in enumerate(boxes) if i == j)
                assert tuple(boxes[k] for k in t.col_order) == sh.col_major
                assert sorted(t.col_order) == list(range(len(boxes)))

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
    """``_corner_rows``: the 0-based rows whose last box is removable."""

    def test_reference_example(self):
        # the boxes (1, 7), (3, 6) and (4, 5)
        assert _corner_rows((7, 5, 4, 2)) == [0, 2, 3]

    def test_single_box(self):
        assert _corner_rows((1,)) == [0]

    def test_staircase(self):
        assert _corner_rows((3, 2, 1)) == [2]

    def test_brute_force_oracle(self):
        # a row's last box is removable iff deleting it leaves a strict shape
        for mu in strict_partitions_up_to_weight(8):
            if not mu:
                continue
            expected = []
            for i in range(1, mu.length + 1):
                parts = list(mu.parts)
                parts[i - 1] -= 1
                shrunk = [p for p in parts if p > 0]
                if all(a > b for a, b in zip(shrunk, shrunk[1:])) and \
                        len(shrunk) in (mu.length, mu.length - 1) and \
                        sorted(shrunk, reverse=True) == shrunk:
                    expected.append(i - 1)
            assert _corner_rows(mu.parts) == expected, mu

    def test_corner_always_removable(self):
        for mu in strict_partitions_up_to_weight(8):
            if mu:
                assert mu.length - 1 in _corner_rows(mu.parts)


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
            rem = [(r + 1, mu.parts[r] + r) for r in _corner_rows(mu.parts)]
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
    # brute force: every tuple with part i <= lam_i, strictly decreasing
    # down to its first 0 and 0 from there on
    for lam in strict_partitions_up_to_weight(12):
        subs = [mu.parts for mu in strict_subpartitions(lam)]
        assert len(subs) == len(set(subs)), lam
        brute = {tuple(p for p in t if p)
                 for t in itertools.product(*(range(l + 1)
                                              for l in lam.parts))
                 if all(a > b or a == b == 0 for a, b in zip(t, t[1:]))}
        assert set(subs) == brute, lam
