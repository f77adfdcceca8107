import json
from itertools import combinations, product

import pytest

from shifted_kschur import enumeration, involutions
from shifted_kschur.enumeration import (EnumSpec, count, enumerate_fillings,
                                        naive_oracle)
from shifted_kschur.genfunc import FunctionSpec
from shifted_kschur.shapes import (SkewShape, StrictPartition, _index_table,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import entry_str, letter, validate_cells


def sp(*parts):
    return StrictPartition(tuple(parts))


def spec(lam, n, family, kind="set-valued", mu=()):
    return EnumSpec(SkewShape(sp(*lam), sp(*mu)), n, family, kind)


def cells_of(f):
    return {box: tuple(entry_str(c) for c in cell)
            for box, cell in zip(f.shape.row_major, f.cells)}


def test_spec_equal_and_printed_by_value():
    # a walk's request is the FunctionSpec of its family name
    a = spec((2, 1), 2, "P")
    assert a == EnumSpec(SkewShape.parse("2,1"), 2, "P") and \
        hash(a) == hash(EnumSpec(SkewShape.parse("2,1"), 2, "P"))
    assert a != spec((2, 1), 2, "P", "single") and a != spec((2, 1), 2, "Q")
    assert repr(a) == ("FunctionSpec(family='GP', shape=SkewShape(outer="
                       "StrictPartition(parts=(2, 1)), inner=StrictPartition("
                       "parts=())), n=2)")


@pytest.mark.parametrize("family, kind, name", [
    ("P", "single", "P"), ("Q", "single", "Q"),
    ("P", "set-valued", "GP"), ("Q", "set-valued", "GQ")])
def test_spec_is_the_engine_request_of_its_family(family, kind, name):
    # the walk, the definition and the engine read one request type
    shape = SkewShape.parse("2,1")
    got = EnumSpec(shape, 2, family, kind)
    assert not isinstance(EnumSpec, type)
    assert type(got) is FunctionSpec and got == FunctionSpec(name, shape, 2)
    assert (got.base_family, got.kind) == (family, kind)


class TestSmallCases:
    def test_single_box_q(self):
        got = [cells_of(f) for f in enumerate_fillings(spec((1,), 1, "Q"))]
        assert got == [
            {(1, 1): ("1'",)},
            {(1, 1): ("1'", "1")},
            {(1, 1): ("1",)},
        ]

    def test_single_box_p(self):
        got = [cells_of(f) for f in enumerate_fillings(spec((1,), 1, "P"))]
        assert got == [{(1, 1): ("1",)}]

    def test_two_one_single_valued(self):
        got = list(enumerate_fillings(spec((2, 1), 2, "P", "single")))
        assert sorted(f.weight() for f in got) == [(1, 2), (2, 1)]

    def test_empty_shape_counts_one(self):
        assert count(spec((4, 2, 1), 3, "P", mu=(4, 2, 1))) == 1

    def test_counts_odd(self):
        assert count(spec((1,), 1, "Q")) == 3
        assert count(spec((2, 1), 2, "P")) % 2 == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize("family", ["P", "Q"])
    @pytest.mark.parametrize("kind", ["single", "set-valued"])
    def test_small_shapes(self, family, kind):
        for lam in strict_partitions_up_to_weight(4):
            if not lam:
                continue
            for n in (1, 2):
                s = spec(lam.parts, n, family, kind)
                fast = sorted(f._key for f in enumerate_fillings(s))
                slow = sorted(f._key for f in naive_oracle(s))
                assert fast == slow, (lam, n, family, kind)

    def test_skew_shape(self):
        s = spec((3, 1), 2, "Q", mu=(1,))
        assert sorted(f._key for f in enumerate_fillings(s)) == \
            sorted(f._key for f in naive_oracle(s))

    def test_prefix_oracle_equals_the_full_product(self):
        # the rules are prefix-closed: filtering box by box keeps exactly
        # the tuples of the full product that pass, in the product's order,
        # on every shape of at most 4 boxes inside a strict partition of
        # weight at most 5
        shapes = 0
        for lam in strict_partitions_up_to_weight(5):
            for mu in strict_subpartitions(lam):
                shape = SkewShape(lam, mu)
                if shape.size > 4:
                    continue
                shapes += 1
                for n, family, kind in product((1, 2), "PQ",
                                               enumeration.KINDS):
                    codes = range(1, 2 * n + 1)
                    sizes = (1,) if kind == "single" else codes
                    pool = sorted(c for k in sizes
                                  for c in combinations(codes, k))
                    want = [cells for cells in product(pool,
                                                       repeat=shape.size)
                            if validate_cells(shape, family, cells) is None]
                    got = naive_oracle(EnumSpec(shape, n, family, kind))
                    assert [T.cells for T in got] == want, \
                        (str(shape), n, family, kind)
        assert shapes == 43

    def test_oracle_guard(self):
        with pytest.raises(ValueError, match="oracle scale"):
            list(naive_oracle(spec((enumeration.ORACLE_MAX_BOXES + 1,), 2,
                                   "P")))
        with pytest.raises(ValueError, match="oracle scale"):
            list(naive_oracle(spec((2,), 3, "P")))


class TestInvariants:
    def test_single_valued_is_minimum_size_slice(self):
        # Every |T| = #boxes set-valued filling is single-valued and the
        # single-valued enumeration is exactly that slice.
        for lam in strict_partitions_up_to_weight(5):
            if not lam:
                continue
            for mu in strict_subpartitions(lam):
                shape = SkewShape(lam, mu)
                for family in ("P", "Q"):
                    full = EnumSpec(shape, 2, family, "set-valued")
                    single = EnumSpec(shape, 2, family, "single")
                    slice_ = {f._key for f in enumerate_fillings(full)
                              if f.size() == shape.size}
                    assert slice_ == \
                        {f._key for f in enumerate_fillings(single)}

    def test_deterministic_byte_identical(self):
        s = spec((3, 1), 2, "Q")

        def dump():
            return "\n".join(json.dumps(f.to_json(), sort_keys=True)
                             for f in enumerate_fillings(s))

        assert dump() == dump()

    def test_entries_bounded_by_n(self):
        for f in enumerate_fillings(spec((2, 1), 2, "Q")):
            assert all(letter(c) <= 2 for cell in f.cells for c in cell)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec((1,), 1, "X")
    with pytest.raises(ValueError):
        EnumSpec(SkewShape(sp(1)), 1, "P", "weird")
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            spec((2, 1), n, "P")
    for n in (2.0, True, "2"):  # a float or bool n failed deep in the walk
        with pytest.raises(ValueError, match="n must be an int"):
            spec((2, 1), n, "P")


def set_rule(spec, box, cells):
    """The candidate rule on sets read off the partial filling: lex-ordered
    cells of codes from the larger of the left and top neighbors' maxima,
    even codes only on a P diagonal, no primed code used in the row and no
    unprimed code used in the column."""
    i, j = box
    lo = max([1] + [cells[b][-1] for b in ((i, j - 1), (i - 1, j))
                    if b in cells])
    step = 1
    if spec.family in ("P", "GP") and i == j:
        lo, step = lo + lo % 2, 2
    taken = {c for (r, col), cell in cells.items() for c in cell
             if (r == i and c % 2) or (col == j and not c % 2)}
    allowed = [c for c in range(lo, 2 * spec.n + 1, step) if c not in taken]
    if spec.kind == "single":
        return [(c,) for c in allowed]
    return sorted(cell for k in range(1, len(allowed) + 1)
                  for cell in combinations(allowed, k))


def test_cell_table_equals_set_rule_at_every_node(monkeypatch):
    # every node of both walks: the cached table read through the masks
    # the walk keeps gives the set rule's cells, each with its code bits
    # and letters, and the masks match the partial filling, a row-major
    # list prefix read here as a dict keyed by box
    nodes = 0
    real = enumeration._candidate_cells

    def checked(spec, k, prefix, row_primed, col_unprimed, table):
        nonlocal nodes
        boxes = spec.shape.row_major
        assert len(prefix) == k
        assert table is _index_table(spec.shape.outer.parts,
                                     spec.shape.inner.parts)
        box, cells = boxes[k], dict(zip(boxes, prefix))
        i, j = box
        assert row_primed[i] == sum(1 << c for (r, _), cell in cells.items()
                                    if r == i for c in cell if c % 2)
        assert col_unprimed[j] == sum(1 << c for (_, k), cell in cells.items()
                                      if k == j for c in cell if not c % 2)
        got = real(spec, k, prefix, row_primed, col_unprimed, table)
        assert [e[0] for e in got] == set_rule(spec, box, cells), (spec, box)
        for cell, primed, unprimed, letters in got:
            assert primed == sum(1 << c for c in cell if c % 2)
            assert unprimed == sum(1 << c for c in cell if not c % 2)
            assert letters == tuple((c + 1) // 2 - 1 for c in cell)
        nodes += 1
        return got

    monkeypatch.setattr(enumeration, "_candidate_cells", checked)
    monkeypatch.setattr(involutions, "_candidate_cells", checked)
    for lam in strict_partitions_up_to_weight(5):
        for mu in strict_subpartitions(lam):
            shape = SkewShape(lam, mu)
            for n in (1, 2, 3):
                for family in ("P", "Q"):
                    specs = [EnumSpec(shape, n, family, kind)
                             for kind in enumeration.KINDS]
                    for s in specs:
                        count(s)
                    if count(specs[0]):
                        involutions.minimal_tableau(shape, family, n)
    assert nodes == 35326


def test_leaves_in_oracle_order(oracle_tableaux):
    # the walk's leaves are the oracle's tableaux in the oracle's order,
    # each with its weight and |T|: every skew shape inside a strict
    # partition of weight at most 7, n <= 2, P/Q, single and set-valued
    leaves = 0
    for lam in strict_partitions_up_to_weight(7):
        for mu in strict_subpartitions(lam):
            shape = SkewShape(lam, mu)
            for n, family, kind in product((1, 2), "PQ", enumeration.KINDS):
                s = EnumSpec(shape, n, family, kind)
                got = [(tuple(cells), tuple(counts), size)
                       for cells, counts, size in enumeration._leaves(s)]
                want = [(T.cells, T.weight(), T.size())
                        for T in oracle_tableaux[s]]
                assert got == want, (str(shape), n, family, kind)
                leaves += len(got)
    assert leaves == 29537


def test_keep_builds_only_the_leaves_it_accepts():
    # keep sees each leaf's row-major cells, in walk order, and only the
    # fillings it accepts are built
    s = spec((4, 2, 1), 2, "Q", mu=(1,))
    every = list(enumerate_fillings(s))
    seen = []

    def keep(cells):
        seen.append(cells)
        return len(seen) % 3 == 0

    assert list(enumerate_fillings(s, keep)) == every[2::3]
    assert seen == [f.cells for f in every]
