import json
from itertools import combinations, product

import pytest

from shifted_kschur import enumeration, involutions
from shifted_kschur.enumeration import (EnumSpec, count, enumerate_fillings,
                                        naive_oracle)
from shifted_kschur.shapes import (SkewShape, StrictPartition,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import entry_str, letter


def sp(*parts):
    return StrictPartition(tuple(parts))


def spec(lam, n, family, kind="set-valued", mu=(), cap=None):
    return EnumSpec(SkewShape(sp(*lam), sp(*mu)), n, family, kind, cap)


def cells_of(f):
    return {box: tuple(entry_str(c) for c in cell)
            for box, cell in f.cells.items()}


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

    def test_oracle_guard(self):
        with pytest.raises(ValueError, match="oracle scale"):
            list(naive_oracle(spec((6,), 2, "P")))
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
            assert all(letter(c) <= 2 for cell in f.cells.values()
                       for c in cell)

    def test_size_cap(self):
        capped = spec((2,), 1, "Q", cap=2)
        full = spec((2,), 1, "Q")
        assert {f._key for f in enumerate_fillings(capped)} == \
            {f._key for f in enumerate_fillings(full) if f.size() <= 2}

    def test_size_cap_too_small_rejected(self):
        with pytest.raises(ValueError):
            spec((2, 1), 2, "Q", cap=2)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec((1,), 1, "X")
    with pytest.raises(ValueError):
        EnumSpec(SkewShape(sp(1)), 1, "P", "weird")
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            spec((2, 1), n, "P")


def set_rule(spec, box, cells):
    """The candidate rule on sets read off the partial filling: lex-ordered
    cells of codes from the larger of the left and top neighbors' maxima,
    even codes only on a P diagonal, no primed code used in the row and no
    unprimed code used in the column, at most what the size cap leaves."""
    i, j = box
    lo = max([1] + [cells[b][-1] for b in ((i, j - 1), (i - 1, j))
                    if b in cells])
    step = 1
    if spec.family == "P" and i == j:
        lo, step = lo + lo % 2, 2
    taken = {c for (r, col), cell in cells.items() for c in cell
             if (r == i and c % 2) or (col == j and not c % 2)}
    allowed = [c for c in range(lo, 2 * spec.n + 1, step) if c not in taken]
    if spec.kind == "single":
        return [(c,) for c in allowed]
    budget = len(allowed)
    if spec.size_cap is not None:
        used = sum(len(c) for c in cells.values())
        budget = min(budget,
                     spec.size_cap - used - (spec.shape.size - len(cells) - 1))
    return sorted(cell for k in range(1, budget + 1)
                  for cell in combinations(allowed, k))


def test_cell_table_equals_set_rule_at_every_node(monkeypatch):
    # every node of both walks: the cached table read through the masks
    # the walk keeps gives the set rule's cells, each with its code bits
    # and letters, and the masks match the partial filling
    nodes = 0
    real = enumeration._candidate_cells

    def checked(spec, box, cells, row_primed, col_unprimed):
        nonlocal nodes
        i, j = box
        assert row_primed[i] == sum(1 << c for (r, _), cell in cells.items()
                                    if r == i for c in cell if c % 2)
        assert col_unprimed[j] == sum(1 << c for (_, k), cell in cells.items()
                                      if k == j for c in cell if not c % 2)
        got = real(spec, box, cells, row_primed, col_unprimed)
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
                    specs = [EnumSpec(shape, n, family, "single"),
                             EnumSpec(shape, n, family, "set-valued")]
                    specs += [EnumSpec(shape, n, family, "set-valued", cap)
                              for cap in (shape.size, shape.size + 1)]
                    for s in specs:
                        count(s)
                    if count(specs[0]):
                        involutions.minimal_tableau(shape, family, n)
    assert nodes == 46762


def test_leaves_in_oracle_order(oracle_tableaux):
    # the walk's leaves are the oracle's tableaux in the oracle's order,
    # each with its weight and |T|: every skew shape inside a strict
    # partition of weight at most 5, n <= 2, P/Q, single and set-valued
    leaves = 0
    for lam in strict_partitions_up_to_weight(5):
        for mu in strict_subpartitions(lam):
            shape = SkewShape(lam, mu)
            for n, family, kind in product((1, 2), "PQ", enumeration.KINDS):
                s = EnumSpec(shape, n, family, kind)
                got = [(dict(cells), tuple(counts), size)
                       for cells, counts, size in enumeration._leaves(s)]
                want = [(T.cells, T.weight(), T.size())
                        for T in oracle_tableaux[s]]
                assert got == want, (str(shape), n, family, kind)
                leaves += len(got)
    assert leaves == 4657


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
    assert seen == [tuple(f.cells.values()) for f in every]
