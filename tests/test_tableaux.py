import itertools

import pytest

from shifted_kschur.enumeration import KINDS, EnumSpec, enumerate_fillings
from shifted_kschur.shapes import (SkewShape, StrictPartition,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import (Filling, _cells_from_rows, _check_n,
                                     cell_from_strs, entry_from_str,
                                     entry_str, filling_from_rows, letter,
                                     primed, validate_cells)
from conftest import rows


class TestEntryCodes:
    def test_order_realizes_primed_alphabet(self):
        # 1' < 1 < 2' < 2 < 3' < 3 as codes 1..6
        names = [entry_str(c) for c in range(1, 7)]
        assert names == ["1'", "1", "2'", "2", "3'", "3"]

    def test_numeric_value_is_half_code(self):
        for code in range(1, 11):
            value = letter(code) - 0.5 if primed(code) else letter(code)
            assert value == code / 2

    def test_parse_roundtrip(self):
        for code in range(1, 11):
            assert entry_from_str(entry_str(code)) == code


class TestValidate:
    def test_reference_set_valued_examples_valid(self, set_valued_examples):
        for name, f in set_valued_examples.items():
            assert validate_cells(f.shape, f.family, f.cells) is None, name

    def test_reference_single_valued_examples_valid(self, single_valued_examples):
        for name, f in single_valued_examples.items():
            assert validate_cells(f.shape, f.family, f.cells) is None, name

    def test_rejected_repeated_unprimed_in_column(self, shape_421):
        bad = rows(shape_421, 3, "Q", "1' 1 2' 2 | 2 3 | 3")
        assert "rule 2" in validate_cells(bad.shape, bad.family, bad.cells)

    def test_rejected_repeated_primed_in_row(self, shape_421):
        bad = rows(shape_421, 3, "Q", "1 1 2' 3 | 2' 2' | 3")
        assert "rule 3" in validate_cells(bad.shape, bad.family, bad.cells)

    @pytest.mark.parametrize("shape,family,cells,violation", [
        ((4, 2, 1), "Q", "2 1 2 2 | 3 3 | 3",
         "max of (1, 1) exceeds min of (1, 2) (rule 1)"),
        ((4, 2, 1), "Q", "1 3 3 3 | 2 3 | 3",
         "max of (1, 2) exceeds min of (2, 2) (rule 1)"),
        ((4, 2, 1), "Q", "1 3 2 2 | 2 3 | 3",
         "max of (1, 2) exceeds min of (1, 3) (rule 1)"),
        ((4, 2, 1), "Q", "1' 1 2' 2 | 2 3 | 3",
         "3 repeats in column 3 ((2, 3) and (3, 3)) (rule 2)"),
        ((5, 3, 1), "Q", "1' 1 1 1 1 | 2' 2 3' | 2",
         "2 repeats in column 3 ((2, 3) and (3, 3)) (rule 2)"),
        ((4, 2, 1), "Q", "1 1 2' 3 | 2' 2' | 3",
         "2' repeats in row 2 ((2, 2) and (2, 3)) (rule 3)"),
        ((4, 2, 1), "P", "1' 1 1 1 | 2 2 | 3",
         "primed entry on the diagonal at (1, 1) (rule 4)")],
        ids=["rule1_right", "rule1_below", "rule1_right_before_below",
             "rule2", "rule2_box_between", "rule3", "rule4"])
    def test_violation_text(self, shape, family, cells, violation):
        f = rows(SkewShape(StrictPartition(shape)), 3, family, cells)
        assert validate_cells(f.shape, family, f.cells) == violation

    def test_primed_on_diagonal_only_bars_family_p(self, shape_421):
        cells = rows(shape_421, 3, "Q", "1' 1 1 1 | 2 2 | 3").cells
        assert "rule 4" in validate_cells(shape_421, "P", cells)
        assert validate_cells(shape_421, "Q", cells) is None

    def test_p_valid_implies_q_valid(self, shape_421):
        for f in _all_single_fillings(shape_421, 2):
            if validate_cells(shape_421, "P", f.cells) is None:
                assert validate_cells(shape_421, "Q", f.cells) is None

    def test_prime_toggle_robustness(self, set_valued_examples):
        # flipping any one entry's primed flag must re-validate cleanly
        for f in set_valued_examples.values():
            for box, cell in zip(f.shape.row_major, f.cells):
                for code in cell:
                    flipped = code - 1 if primed(code) else code + 1
                    new = set(cell) ^ {code}
                    if flipped in new or not 1 <= flipped <= 2 * f.n:
                        continue
                    new.add(flipped)
                    g = f.with_cell(box, tuple(sorted(new)))
                    result = validate_cells(g.shape, g.family, g.cells)
                    assert result is None or "(rule " in result


def _all_single_fillings(shape, n):
    for combo in itertools.product(range(1, 2 * n + 1), repeat=shape.size):
        yield Filling(shape, n, "Q", [(c,) for c in combo])


def _definition_single_check(f):
    """Direct reading of the single-valued definition, coded independently."""
    cells = dict(zip(sorted(f.shape.boxes), f.cells))
    if any(len(c) != 1 for c in cells.values()):
        return False
    get = {b: c[0] for b, c in cells.items()}
    for (i, j), e in get.items():
        if (i, j + 1) in get and e > get[(i, j + 1)]:
            return False
        if (i + 1, j) in get and e > get[(i + 1, j)]:
            return False
        if f.family == "P" and i == j and primed(e):
            return False
    for (i, j), e in get.items():
        for (a, b), other in get.items():
            if (a, b) == (i, j) or other != e:
                continue
            if not primed(e) and b == j:
                return False
            if primed(e) and a == i:
                return False
    return True


def test_single_valued_cross_check():
    # exhaustive agreement with a separately coded checker, <= 4 boxes, n <= 2
    for lam in strict_partitions_up_to_weight(4):
        if not lam:
            continue
        shape = SkewShape(lam)
        for f in _all_single_fillings(shape, 2):
            for family in ("P", "Q"):
                g = Filling(shape, 2, family, f.cells)
                ok = validate_cells(shape, family, g.cells) is None
                assert ok == _definition_single_check(g)


def _rules_hold(shape, family, cells):
    """Rules 1-4 read straight off the definition, over pairs of boxes."""
    at = dict(zip(sorted(shape.boxes), cells))
    for (i, j), cell in at.items():
        for other in ((i, j + 1), (i + 1, j)):
            if other in at and max(cell) > min(at[other]):
                return False  # rule 1
        if family == "P" and i == j and any(c % 2 for c in cell):
            return False  # rule 4
        for (a, b), cell2 in at.items():
            if (a, b) == (i, j):
                continue
            for c in set(cell) & set(cell2):
                if (c % 2 == 0 and b == j) or (c % 2 == 1 and a == i):
                    return False  # rule 2, rule 3
    return True


def test_validate_agrees_with_the_rules_exhaustive():
    """Every set-valued assignment on each skew shape of at most 3 boxes
    inside a strict partition of weight at most 6, n <= 2, P and Q."""
    checked = failed = 0
    for shape in skew_shapes(6):
        if shape.size > 3:
            continue
        for n in (1, 2):
            codes = range(1, 2 * n + 1)
            pool = [c for k in codes
                    for c in itertools.combinations(codes, k)]
            for cells in itertools.product(pool, repeat=shape.size):
                for family in "PQ":
                    want = _rules_hold(shape, family, cells)
                    got = validate_cells(shape, family, cells) is None
                    assert got == want, (str(shape), cells)
                    checked += 1
                    failed += not want
    assert checked > 90_000 and 0 < failed < checked


class TestWeightSizeMonomial:
    def test_reference_weights(self, set_valued_examples):
        assert set_valued_examples["T1"].weight() == (3, 2, 3)
        assert set_valued_examples["T2"].weight() == (1, 4, 3)
        assert set_valued_examples["T3"].weight() == (4, 2, 2)
        assert set_valued_examples["T4"].weight() == (4, 3, 2)

    def test_reference_single_valued_weights(self, single_valued_examples):
        assert single_valued_examples["T1"].weight() == (3, 3, 1)
        assert single_valued_examples["T2"].weight() == (2, 1, 4)
        assert single_valued_examples["T3"].weight() == (3, 3, 1)
        assert single_valued_examples["T4"].weight() == (1, 2, 4)

    def test_reference_sizes(self, set_valued_examples, single_valued_examples):
        assert set_valued_examples["T1"].size() == 8
        assert set_valued_examples["T4"].size() == 9
        for f in single_valued_examples.values():
            assert f.size() == 7

    def test_weight_sums_to_size(self, set_valued_examples):
        for f in set_valued_examples.values():
            assert sum(f.weight()) == f.size()

    def test_empty_shape(self):
        empty = Filling(SkewShape(StrictPartition((1,)),
                                  StrictPartition((1,))), 1, "P", ())
        assert empty.size() == 0 and empty.weight() == (0,)
        assert validate_cells(empty.shape, empty.family, empty.cells) is None


class TestSerialization:
    def test_json_roundtrip(self, set_valued_examples):
        for f in set_valued_examples.values():
            assert Filling.from_json(f.to_json()) == f

    def test_json_shape(self, shape_421):
        f = rows(shape_421, 3, "P", "1 1 1 3' | 2 2,3' | 3")
        data = f.to_json()
        assert data["family"] == "P" and data["n"] == 3
        assert data["rows"][1] == [["2"], ["2", "3'"]]

    def test_cell_from_strs_sorts(self):
        assert cell_from_strs(["3'", "2"]) == (4, 5)


class TestCheckN:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_positive_int_passes(self, n):
        _check_n(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_below_one(self, n):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            _check_n(n)

    @pytest.mark.parametrize("n,shown", [(2.0, "2.0"), (True, "True"),
                                         ("2", "'2'"), (None, "None")])
    def test_not_an_int(self, n, shown):
        with pytest.raises(ValueError, match=f"^n must be an int, got {shown}$"):
            _check_n(n)


class TestFillingConstruction:
    def test_must_cover_shape(self, shape_421):
        good = rows(shape_421, 3, "P", "1 1 1 2 | 2 2 | 3")
        for cells, why in [(((2,),), "^1 cells for 7 boxes$"),
                           (good.cells[1:], "^6 cells for 7 boxes$"),
                           (good.cells + ((6,),), "^8 cells for 7 boxes$"),
                           # tuple() of a mapping reads its boxes as cells
                           (dict(zip(shape_421.row_major, good.cells)),
                            "^cells must be a sequence, not a mapping$")]:
            with pytest.raises(ValueError, match=why):
                Filling(shape_421, 3, "P", cells)

    def test_rejects_empty_cell(self, shape_421):
        good = rows(shape_421, 3, "P", "1 1 1 2 | 2 2 | 3")
        cells = list(good.cells)
        cells[0] = ()
        with pytest.raises(ValueError):
            Filling(shape_421, 3, "P", cells)

    def test_rejects_out_of_range(self, shape_421):
        good = rows(shape_421, 3, "P", "1 1 1 2 | 2 2 | 3")
        cells = list(good.cells)
        cells[0] = (7,)
        with pytest.raises(ValueError):
            Filling(shape_421, 3, "P", cells)

    @pytest.mark.parametrize("code", [2.0, True, "1"])
    def test_rejects_a_code_that_is_not_an_int(self, code):
        # a float or a bool would sort and compare as the int it equals
        with pytest.raises(ValueError,
                           match=r"^entry at \(1, 1\) is not an int$"):
            Filling(SkewShape.parse("2"), 1, "Q", [(code,), (2,)])

    @pytest.mark.parametrize("build", [
        lambda: Filling(SkewShape.parse("2"), 2.0, "P", [(2,), (4,)]),
        lambda: Filling(SkewShape.parse("1/1"), 0, "P", []),
        lambda: Filling.from_json({"shape": {"outer": [1], "inner": []},
                                   "n": True, "family": "P",
                                   "rows": [[["1"]]]}),
        lambda: filling_from_rows(SkewShape.parse("1"), 2.0, "Q", [[["2"]]])],
        ids=["float_n", "zero_n_no_boxes", "from_json_bool_n",
             "rows_float_n"])
    def test_rejects_an_n_that_is_not_an_int_at_least_one(self, build):
        # a float n fails later in weight(); a true n equals the filling at 1
        with pytest.raises(ValueError, match="^n must be "):
            build()


def skew_shapes(max_weight):
    for lam in strict_partitions_up_to_weight(max_weight):
        for mu in strict_subpartitions(lam):
            yield SkewShape(lam, mu)


def same(f, g):
    return f == g and f._key == g._key and hash(f) == hash(g)


class TestTrustedConstruction:
    def test_enumerated_fillings_equal_checked_rebuild(self):
        built = 0
        for shape in skew_shapes(6):
            for n, family, kind in itertools.product((1, 2), "PQ", KINDS):
                for f in enumerate_fillings(EnumSpec(shape, n, family, kind)):
                    assert same(f, Filling(f.shape, f.n, f.family, f.cells))
                    built += 1
        assert built > 10000

    def test_with_cell_sorts_and_checks(self, shape_421):
        f = rows(shape_421, 3, "P", "1 1 1 2 | 2 2 | 3")
        g = f.with_cell((1, 4), [5, 4])
        assert g.cells[shape_421.row_major.index((1, 4))] == (4, 5)
        assert same(g, Filling(g.shape, g.n, g.family, g.cells))
        # only the cell of (1, 4), the fourth box, changed
        assert [k for k, (a, b) in enumerate(zip(f.cells, g.cells))
                if a != b] == [3]
        for box, cell in [((1, 4), ()), ((1, 4), (4, 4)), ((1, 4), (7,)),
                          ((1, 4), (0,)), ((3, 4), (4,)), ((1, 4), (4.0,)),
                          ((1, 4), (True,)), ((1, 4), ("4",))]:
            with pytest.raises(ValueError):
                f.with_cell(box, cell)

    def test_to_json_is_fresh(self, shape_421):
        f = rows(shape_421, 3, "P", "1 1 1 2 | 2 2 | 3")
        assert f.to_json() == f.to_json()
        assert f.to_json()["shape"] is not f.to_json()["shape"]
        assert shape_421.to_json()["boxes"] is not shape_421.to_json()["boxes"]


def reference_rows(shape, n, family, rows_):
    """Row parsing entry by entry through cell_from_strs, then Filling."""
    cells = []
    for i, row in enumerate(rows_, start=1):
        cols = list(shape.row_cols(i))
        if len(cols) != len(row):
            raise ValueError(f"row {i} needs {len(cols)} cells, got {len(row)}")
        for cell in row:
            cells.append(cell_from_strs(cell))
    return Filling(shape, n, family, cells)


SHAPE_21 = SkewShape(StrictPartition((2, 1)))


FIRST_CELLS = [
    [" 1"], ["1 "], ["1 '"], ["+1"], ["01"], ["2'", "1"], ["2", "1'", "1"],
    ["1", "1"], ["1'", "1'", "2"], ["3"], ["0"], ["0'"], ["-1"], ["x"],
    ["'"], [], ["2'"], ["1'", "2"]]


def _outcome(parse, family, first):
    try:
        return parse(SHAPE_21, 2, family, [[first, ["2"]], [["2"]]])._key
    except ValueError as exc:
        return repr(exc)


class TestRowParsing:
    @pytest.mark.parametrize("first", FIRST_CELLS)
    @pytest.mark.parametrize("family", ["P", "Q"])
    def test_same_as_reference(self, first, family):
        assert _outcome(filling_from_rows, family, first) == \
            _outcome(reference_rows, family, first)

    def test_shared_memo_keeps_checked_cells_only(self):
        # one memo through every case, twice: the reference's outcome each
        # time, and only the cells that passed their check are kept
        memo = {}

        def with_memo(shape, n, family, rows_):
            cells = _cells_from_rows(shape, n, rows_, memo)
            return Filling(shape, n, family, cells)

        for first in FIRST_CELLS * 2:
            for family in "PQ":
                assert _outcome(with_memo, family, first) == \
                    _outcome(reference_rows, family, first)
        passed = [tuple(first) for first in FIRST_CELLS
                  if type(_outcome(reference_rows, "Q", first)) is tuple]
        assert set(memo) == {("2",), *passed} and len(passed) == 9

    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            filling_from_rows(SHAPE_21, 2, "R", [[["1"], ["2"]], [["2"]]])

    def test_multi_digit_letters(self):
        cells = [[["21'", "25"], ["25"]], [["30"]]]
        assert filling_from_rows(SHAPE_21, 30, "Q", cells) == \
            reference_rows(SHAPE_21, 30, "Q", cells)

    def test_from_json_rejects_extra_cell_and_row(self):
        shape = {"outer": [2, 1], "inner": []}
        good = [[["1"], ["1"]], [["2"]]]
        assert Filling.from_json({"shape": shape, "n": 2, "family": "P",
                                  "rows": good}).cells[2] == (4,)
        extra_cell = [[["1"], ["1"], ["2"]], [["2"]]]
        extra_row = [[["1"], ["1"]], [["2"]], [["1"]]]
        # an entry that is not a string: JSON's number, null or array
        not_str = [[[["1"], [entry]], [["2"]]] for entry in (1, None, ["1"])]
        for bad, why in [(extra_cell, "row 1 needs 2 cells, got 3"),
                         (extra_row, "3 rows, want 2"),
                         (good[:1], "1 rows, want 2"),
                         *((rows_, r"^entry at \(1, 2\) is not a string$")
                           for rows_ in not_str)]:
            with pytest.raises(ValueError, match=why):
                Filling.from_json({"shape": shape, "n": 2, "family": "P",
                                   "rows": bad})
