"""Shared fixtures: worked-example tableaux used across the test modules,
the naive oracle's tableaux, a large written certificate, and the
package's caches cleared around a test."""

import contextlib
import io
import sys
from itertools import product

import pytest

from shifted_kschur.cli import main
from shifted_kschur.enumeration import KINDS, EnumSpec, naive_oracle
from shifted_kschur.genfunc import FunctionSpec, parity_report
from shifted_kschur.shapes import (SkewShape, StrictPartition, inner_shapes,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from shifted_kschur.tableaux import Filling, filling_from_rows, validate_cells


@pytest.fixture(scope="session")
def shape_421():
    return SkewShape(StrictPartition((4, 2, 1)))


@pytest.fixture(scope="session")
def skew_6431_42():
    return SkewShape(StrictPartition((6, 4, 3, 1)), StrictPartition((4, 2)))


@pytest.fixture(scope="session")
def oracle_tableaux():
    """``naive_oracle``'s tableaux, in its order, by ``EnumSpec``, computed
    once per session: every skew shape inside a strict partition of weight
    at most 5, n <= 2, P/Q, single and set-valued.

    Family P adds rule 4 only (``test_p_valid_implies_q_valid``), so its
    list is the Q list's tableaux that pass P's rules, in the same order,
    each built with family P as the oracle builds it; the oracle's own P
    path is compared in ``TestOracleEquivalence``.
    """
    out = {}
    for lam in strict_partitions_up_to_weight(5):
        for mu in strict_subpartitions(lam):
            shape = SkewShape(lam, mu)
            for n, kind in product((1, 2), KINDS):
                q = list(naive_oracle(EnumSpec(shape, n, "Q", kind)))
                out[EnumSpec(shape, n, "P", kind)] = [
                    Filling(shape, n, "P", T.cells) for T in q
                    if validate_cells(shape, "P", tuple(T.cells.values()))]
                out[EnumSpec(shape, n, "Q", kind)] = q
    return out


# 4,2,1 // 2,1, P, n = 3: the benchmark's largest certificate, 2,402 pairs
LARGE_PAIR = ("pair", "--lambda", "4,2,1", "--mu", "2,1", "--family", "P",
              "-n", "3")


@pytest.fixture(scope="session")
def large_certificate(tmp_path_factory):
    """The file ``pair --out`` writes for ``LARGE_PAIR``, written once per
    session."""
    path = tmp_path_factory.mktemp("certificates") / "large.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*LARGE_PAIR, "--out", str(path)]) == 0
    assert out.getvalue() == "pairs=2402 leftover=0 ok\n"
    return path


def clear_package_caches() -> None:
    """Drop every functools cache in the package: each ``cache_clear``
    among the package modules' globals and their classes' attributes (the
    loop the benchmark runs before each pass)."""
    for name, module in list(sys.modules.items()):
        if name != "shifted_kschur" and not name.startswith("shifted_kschur."):
            continue
        for obj in list(vars(module).values()):
            objs = [obj] + (list(vars(obj).values())
                            if isinstance(obj, type) else [])
            for o in objs:
                clear = getattr(o, "cache_clear", None)
                if callable(clear):
                    clear()


@pytest.fixture
def fresh_caches():
    """Empty caches at the start of the test and again at its end, so no
    answer cached earlier (or under a patch) crosses into or out of it;
    the test may call the returned function to clear them mid-way."""
    clear_package_caches()
    yield clear_package_caches
    clear_package_caches()


def engine_count(shape, family, n) -> int:
    """The branching engine's count of the set-valued tableaux of shape."""
    return parity_report(FunctionSpec("G" + family, shape, n)).count


def has_empty_set(lam, mu, family, n) -> bool:
    """Whether the engine counts no tableau of some lam/nu, nu being mu
    minus a subset of Rem(mu): the requests that ``pairing_certificate``
    refuses as an empty tableau set."""
    return any(not engine_count(SkewShape(lam, nu), family, n)
               for _, nu in inner_shapes(mu))


def rows(shape, n, family, spec):
    """Build a filling from strings like "1 1 3' | 2 2,3' | 3"."""
    cells = [[cell.split(",") for cell in row.split()]
             for row in spec.split("|")]
    return filling_from_rows(shape, n, family, cells)


# single-valued worked examples under the shifted-tableau rules
@pytest.fixture(scope="session")
def single_valued_examples(shape_421):
    return {
        "T1": rows(shape_421, 3, "P", "1 1 1 2 | 2 2 | 3"),
        "T2": rows(shape_421, 3, "P", "1 1 3' 3 | 2 3' | 3"),
        "T3": rows(shape_421, 3, "Q", "1' 1 1 2' | 2 2 | 3"),
        "T4": rows(shape_421, 3, "Q", "1' 2' 3' 3 | 2' 3' | 3"),
    }


# set-valued worked examples under the set-valued rules
@pytest.fixture(scope="session")
def set_valued_examples(shape_421):
    return {
        "T1": rows(shape_421, 3, "P", "1 1 1 3' | 2 2,3' | 3"),
        "T2": rows(shape_421, 3, "P", "1 2' 2 2,3' | 2 3' | 3"),
        "T3": rows(shape_421, 3, "Q", "1' 1 1 1 | 2' 2 | 3',3"),
        "T4": rows(shape_421, 3, "Q", "1' 1 1 1,2,3 | 2 2 | 3'"),
    }


# Ways to spoil a good certificate of 2,1 // 1, family P, n = 2, each
# applied in place to its JSON document; every one must be rejected.
def _tamper_invalid_entry(doc):
    # a primed entry on the diagonal box (2,2) breaks rule 4 of family P
    doc["pairs"][0]["left"]["tableau"]["rows"][1][0] = ["1'"]


def _tamper_move_to_other_nu(doc):
    doc["pairs"][-1]["right"]["nu"] = [1] if \
        doc["pairs"][-1]["right"]["nu"] == [] else []


def _tamper_drop_pair(doc):
    del doc["pairs"][-1]


def _tamper_duplicate_element(doc):
    doc["pairs"][-1]["right"] = doc["pairs"][0]["left"]


def _tamper_add_leftover(doc):
    last = doc["pairs"].pop()
    doc["leftover"].extend([last["left"], last["right"]])


def _tamper_iota_across_nu(doc):
    pi_pair = next(p for p in doc["pairs"] if p["tag"] == "pi")
    pi_pair["tag"] = "iota"


def _tamper_header_n(doc):
    doc["n"] = 3


def _tamper_same_sign_pairs(doc):
    # pairs 1 and 2 are iota pairs on one nu: (a+, a-), (b+, b-) become
    # (a+, b+), (a-, b-), which keeps every element once
    first, second = doc["pairs"][1], doc["pairs"][2]
    first["right"], second["left"] = second["left"], first["right"]


def _first_cell_set_to(cell, name):
    def tamper(doc):
        doc["pairs"][0]["left"]["tableau"]["rows"][0][0] = cell
    tamper.__name__ = name
    return tamper


# JSON the writer never writes, each standing for a valid value
def _tamper_row_as_string(doc):
    # the row [["1"]] of the diagonal box (2,2)
    doc["pairs"][0]["left"]["tableau"]["rows"][1] = "1"


def _tamper_cell_as_string(doc):
    # the cell ["1", "2"] at (2,2)
    doc["pairs"][1]["left"]["tableau"]["rows"][1][0] = "12"


def _tamper_float_n(doc):
    doc["pairs"][0]["left"]["tableau"]["n"] = 2.0


def _tamper_float_nu(doc):
    doc["pairs"][0]["left"]["nu"] = [1.0]


def _tamper_bool_nu(doc):
    doc["pairs"][0]["left"]["nu"] = [True]


def _tamper_bool_header_mu(doc):
    doc["mu"] = [True]


def _tamper_int_minimal_only(doc):
    doc["minimal_only"] = 0


def _tamper_float_shape_outer(doc):
    doc["pairs"][0]["left"]["tableau"]["shape"]["outer"][0] = 2.0


def _tamper_float_box(doc):
    doc["pairs"][0]["left"]["tableau"]["shape"]["boxes"][0][0] = 1.0


# each with the whole reason check_certificate gives for the request
# 2,1 // 1, P, n = 2; pair --check prints it on a "note:" line
TAMPERS = [
    (_tamper_invalid_entry,
     "pair 0: malformed element (invalid tableau: primed entry on the "
     "diagonal at (2, 2) (rule 4))"),
    (_tamper_move_to_other_nu,
     "pair 5: malformed element (tableau header does not match 2,1/1, "
     "n=2, family P)"),
    (_tamper_drop_pair, "10 elements, the family has 12"),
    (_tamper_duplicate_element,
     "pair 5: element appears twice: Filling(2,1/1; 1' | 1)"),
    (_tamper_add_leftover, "2 leftover elements"),
    (_tamper_iota_across_nu, "pair 0: iota pair across two inner shapes"),
    (_tamper_header_n,
     'certificate is for {"lambda": [2, 1], "mu": [1], "n": 3, '
     '"family": "P", "minimal_only": false}'),
    (_tamper_same_sign_pairs, "pair 1: both sides have the same sign"),
    # malformed cells, which a cell parsed once per certificate must not hide
    (_first_cell_set_to(["9"], "_tamper_entry_out_of_range"),
     "pair 0: malformed element (entry out of range 1..4 at (1, 2))"),
    (_first_cell_set_to(["1", "1"], "_tamper_repeated_entry"),
     "pair 0: malformed element (duplicate entries at (1, 2))"),
    (_first_cell_set_to([1], "_tamper_non_string_entry"),
     "pair 0: malformed element ('int' object has no attribute 'strip')"),
    (_first_cell_set_to([["1"]], "_tamper_nested_list_cell"),
     "pair 0: malformed element ('list' object has no attribute 'strip')"),
    (_tamper_row_as_string, "pair 0: malformed element (row 2 is not a list)"),
    (_tamper_cell_as_string,
     "pair 1: malformed element (cell at (2, 2) is not a list)"),
    (_tamper_float_n,
     "pair 0: malformed element (tableau header does not match 2,1/1, "
     "n=2, family P)"),
    (_tamper_float_nu,
     "pair 0: malformed element (nu=[1.0] is not mu minus a subset of "
     "Rem(mu))"),
    (_tamper_bool_nu,
     "pair 0: malformed element (nu=[True] is not mu minus a subset of "
     "Rem(mu))"),
    (_tamper_bool_header_mu,
     'certificate is for {"lambda": [2, 1], "mu": [true], "n": 2, '
     '"family": "P", "minimal_only": false}'),
    (_tamper_int_minimal_only,
     'certificate is for {"lambda": [2, 1], "mu": [1], "n": 2, '
     '"family": "P", "minimal_only": 0}'),
    (_tamper_float_shape_outer,
     "pair 0: malformed element (tableau header does not match 2,1/1, "
     "n=2, family P)"),
    (_tamper_float_box,
     "pair 0: malformed element (tableau header does not match 2,1/1, "
     "n=2, family P)"),
]
