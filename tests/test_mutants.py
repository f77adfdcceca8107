"""A catalogue of mutants: each row breaks one rule in a copy of its module,
and the row's check must fail against the copy.

This is mutation testing (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) with the stdlib.  A row names the
module, an exact text of its source, the text's replacement and the one
function taken from the edited copy.  The text must occur exactly once, so a
refactor that moves the rule fails here and must update the row.  An
equivalent mutant, one that changes no result, is listed with its reason,
and its check must pass.
"""

import inspect
import types
from typing import Callable, NamedTuple

import pytest

from shifted_kschur import genfunc

from conftest import skew_shapes
from test_branching import definition_sweep


def engine_against_walk():
    """The definition sweep on every lam/mu with 0 < |lam| <= 5, n <= 3, P
    and Q; it stops at its first mismatch."""
    shapes = skew_shapes(5)
    for n in (1, 2, 3):
        for family in ("P", "Q"):
            definition_sweep(n, family, shapes)


class Mutant(NamedTuple):
    name: str
    module: types.ModuleType
    function: str
    text: str
    replacement: str
    check: Callable[[], None]
    equivalent: str = ""  # why the mutant changes no result


MUTANTS = [
    Mutant("no-t-on-a-free-first-box", genfunc, "_letter_factor",
           'g[j + 1] += free and kind == "set-valued"', "g[j + 1] += 0",
           engine_against_walk),
    Mutant("q-zero-rule-moved-to-p", genfunc, "_letter_factor",
           '(q == 0 and family == "Q")', '(q == 0 and family == "P")',
           engine_against_walk),
    Mutant("corner-rows-ignored", genfunc, "_letter_factor",
           "(p, p - 1) if r in corners else (p,)", "(p,)",
           engine_against_walk),
    Mutant("strict-dead-term-bound", genfunc, "_branching_sum",
           "low = -(-missing // left) if missing else 0",
           "low = missing // left + 1 if missing else 0",
           engine_against_walk),
    Mutant("last-level-keeps-nu-one-box-short", genfunc, "_branching_sum",
           "if missing and not left:\n"
           "                    continue",
           "if missing > 1 and not left:\n"
           "                    continue\n"
           "                if not left:\n"
           "                    missing = 0  # the bound's division guarded",
           engine_against_walk,
           equivalent="only lam is read from the last level, so the terms "
                      "kept at a nu one box short of it are never read"),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant(mutant, monkeypatch, fresh_caches):
    source = inspect.getsource(mutant.module)
    assert source.count(mutant.text) == 1, "the rule moved: update the row"
    copy = types.ModuleType(mutant.module.__name__)
    copy.__package__ = mutant.module.__package__
    exec(compile(source.replace(mutant.text, mutant.replacement),
                 mutant.module.__file__, "exec"), vars(copy))
    monkeypatch.setattr(mutant.module, mutant.function,
                        getattr(copy, mutant.function))
    fresh_caches()  # nothing the unbroken module cached is read back
    if mutant.equivalent:
        mutant.check()
    else:
        with pytest.raises(AssertionError):
            mutant.check()
