"""A catalogue of mutants: each row breaks one rule in a copy of its module,
and the row's check must fail against the copy.

This is mutation testing (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) with the stdlib.  A row names the
module, an exact text of its source, the text's replacement and the one
function taken from the edited copy, which is swapped in wherever the
package binds it.  The text must occur exactly once, so a refactor that
moves the rule fails here and must update the row.  A mutant whose check
passes is listed with the reason it survives, and its check must pass: an
equivalent mutant, which changes no result, or one that only bytes catch.
"""

import inspect
import io
import json
import sys
import types
from typing import Callable, NamedTuple

import pytest

from shifted_kschur import (enumeration, genfunc, involutions, polyring,
                            shapes, tableaux)
from shifted_kschur.shapes import skew_shapes

from conftest import TAMPERS, engine_count, sp
from test_branching import (definition_sweep, orbit_against_permutations,
                            strips_against_letter_factor)
from test_cli import print_order_holds
from test_genfunc import double_skew_against_engine
from test_involutions import (minimal_tableau_against_least_codes,
                              pi_removes_the_bottom_box)
from test_shapes import subpartitions_against_brute_force
from test_tableaux import neighbor_rules_against_whole_lines


def engine_against_walk():
    """The definition sweep on every lam/mu with 0 < |lam| <= 5, n <= 3, P
    and Q; it stops at its first mismatch.  n = 3 comes after 2, past the
    run kept on each key, and 1 after 3, a cut of it; at each n the whole
    sum comes before its b^0 terms."""
    domain = list(skew_shapes(5))
    for n in (2, 3, 1):
        for family in ("P", "Q"):
            definition_sweep(n, family, domain)


def involution_holds():
    """``verify_involution`` on every nonempty tableau set of a lam/mu with
    0 < |lam| <= 5, n <= 2, P and Q: no violation.  It stops at its first
    violation."""
    for shape in skew_shapes(5):
        for n in (1, 2):
            for family in ("P", "Q"):
                if engine_count(shape, family, n):
                    _, faults = involutions.verify_involution(shape, family, n)
                    assert not faults, (str(shape), family, n, faults[:1])


# requests that differ only in n or only in family, made in this order: Q
# first, as Q's minimal tableau primes the diagonal box, so it is no P
# tableau (P's minimal tableau is a Q tableau, and pairs the rest as well)
KEPT_REQUESTS = [(sp(3, 1), sp(2), n, family) for family in "QP"
                 for n in (1, 2)]


def certificates_prove_their_requests():
    """Each of ``KEPT_REQUESTS`` in turn, in one process, made, written by
    ``write_certificate`` and read back by ``pair --check``'s reader: its
    checker proves it.  It stops at the first that is not proved."""
    for request in KEPT_REQUESTS:
        fh = io.StringIO()
        involutions.write_certificate(
            involutions.pairing_certificate(*request), fh)
        fh.seek(0)
        verdict = involutions.certificate_checker(*request)(
            involutions.read_certificate(fh))
        assert verdict == (True, None), (request, verdict)


def tampers_are_refused():
    """Each of conftest's ``TAMPERS`` applied to a good certificate
    document of 2,1 // 1, P, n = 2: the checker refuses it with the
    tamper's exact reason.  It stops at the first other verdict."""
    request = (sp(2, 1), sp(1), 2, "P")
    text = json.dumps(involutions.pairing_certificate(*request).to_json())
    for tamper, reason in TAMPERS:
        doc = json.loads(text)
        tamper(doc)
        verdict = involutions.certificate_checker(*request)(doc)
        assert verdict == (False, reason), (tamper.__name__, verdict)


def keyed_without(key: str) -> str:
    """A decorator's text in place of an ``lru_cache``: a memo keyed on
    ``key``, an expression in the call's arguments ``a``, so the first
    call's result serves every call that differs from it only in what the
    key leaves out."""
    return (f"@lambda make, kept={{}}: "
            f"lambda *a: kept.setdefault({key}, make(*a))\n")


class Mutant(NamedTuple):
    name: str
    module: types.ModuleType
    function: str
    text: str
    replacement: str
    check: Callable[[], None]
    survives: str = ""  # why the check passes against the mutant


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
           survives="equivalent: only lam is read from the last level, so "
                    "the terms kept at a nu one box short of it are never "
                    "read"),
    Mutant("terms-kept-past-their-orbit", genfunc, "_branching_sum",
           "if low <= x <= top:", "if low <= x:", engine_against_walk),
    # a step is skipped only when the factor's last, largest x-exponent
    # is below low
    Mutant("dead-step-reads-the-first-term", genfunc, "_branching_sum",
           "if factor[-1][0] < low:", "if factor[0][0] < low:",
           engine_against_walk),
    Mutant("dead-step-skips-at-low", genfunc, "_branching_sum",
           "if factor[-1][0] < low:", "if factor[-1][0] <= low:",
           engine_against_walk),
    # the kept run (n, representatives) serves only its own b0_only, only
    # the n it is not below, and only through the cut at n
    Mutant("kept-run-keyed-without-b0-only", genfunc, "_branching_sum",
           "levels.kept[b0_only] = (n, reps)",
           "levels.kept[:] = [(n, reps)] * 2", engine_against_walk),
    Mutant("cut-keeps-nonzero-tails", genfunc, "_branching_sum",
           "if not any(x[n:])}", "}", engine_against_walk),
    Mutant("kept-run-read-past-its-n", genfunc, "_branching_sum",
           "if n == depth:", "if n >= depth >= 0:", engine_against_walk),
    # the definition sweep cannot see a repeated arrangement: equality
    # reads the orbit terms' items into a dict
    Mutant("orbit-repeats-arrangements", polyring, "_orbit",
           "if i and v == rest[i - 1]:  # rest is sorted: one per value\n"
           "                    continue", "", orbit_against_permutations),
    Mutant("orbit-threshold-moved", polyring, "_orbit",
           "if len(rep) <= 6:", "if len(rep) <= 2:",
           orbit_against_permutations,
           survives="equivalent: both branches give every distinct "
                    "arrangement once, so the threshold moves only the "
                    "cost"),
    # compute and beta_zero hold their terms by orbit, and compare with
    # the walk's dict through the orbit terms' items
    Mutant("orbit-items-drop-an-arrangement", polyring, "OrbitTerms",
           "self.reps.items()\n                for x in _orbit(rep))",
           "self.reps.items()\n                for x in _orbit(rep)[1:])",
           engine_against_walk),
    # the printer's order: x within one b (poly's runs are orbits, whose
    # text order is not their x order), and b across runs
    Mutant("print-sorted-by-text", polyring, "_render",
           "terms.sort(key=itemgetter(0))", "terms.sort(key=itemgetter(1))",
           print_order_holds),
    Mutant("print-b-groups-unsorted", polyring, "_render",
           "for b in sorted(by_b):", "for b in by_b:", print_order_holds),
    # the walk's ceilings bound every code it tries, so one too low loses
    # tableaux (the last box's code 2n, say) the engine counts
    Mutant("walk-ceiling-one-code-low", enumeration, "_ceilings",
           "tops = [top] * len(table.boxes)",
           "tops = [top - 1] * len(table.boxes)", engine_against_walk),
    # every sign flipped leaves the sum 0, so the row drops the signs
    Mutant("double-skew-terms-unsigned", genfunc, "double_skew_shortcut",
           "-1 if b % 2 else 1", "1", double_skew_against_engine),
    # the walk's bounds: mu_r <= lam_r, parts strictly decreasing, and the
    # order of parts (t[0] <= p makes (1, 1), which StrictPartition refuses
    # with a ValueError before any check reads it)
    Mutant("subpartition-rows-short-of-lam", shapes, "_subpartition_parts",
           "range(1, cap + 1)", "range(1, cap)",
           subpartitions_against_brute_force),
    Mutant("subpartition-parts-two-apart", shapes, "_subpartition_parts",
           "t[0] < p", "t[0] < p - 1", subpartitions_against_brute_force),
    Mutant("subpartitions-longest-row-first", shapes, "_subpartition_parts",
           "range(1, cap + 1)", "range(cap, 0, -1)",
           subpartitions_against_brute_force),
    Mutant("strips-grow-every-row", shapes, "_strips_above",
           "lo = rho[r] if", "lo = rho[r] + 1 if", engine_against_walk),
    # nu_r <= rho_(r-1) dropped: the extra nu have row r - 1 with w > p,
    # where _letter_factor is 0, so the engine's results do not change; the
    # strips against the nonzero factors catch it
    Mutant("strips-past-the-row-above", shapes, "_strips_above",
           "min(lam[r], rho[r - 1])", "lam[r]",
           strips_against_letter_factor),
    # the transitions are shared across keys through three caches, each
    # keyed on all it reads: the strips on (rho, lam), a record on (nu,
    # rho, corners, family, kind) and a table on (rho, lam, corners,
    # family, kind), the corners being rho's outside the key's mu
    Mutant("strips-keyed-without-lam", shapes, "_strips_above",
           "@lru_cache(maxsize=4096)\ndef _strips_above(",
           keyed_without("a[0]") + "def _strips_above(",
           strips_against_letter_factor),
    Mutant("corners-ignore-mu", genfunc, "_Levels",
           "rho[r] > (mu[r] if r < len(mu) else 0)", "rho[r] > 0",
           engine_against_walk),
    Mutant("transition-keyed-without-corners", genfunc, "_transition",
           "@lru_cache(maxsize=1 << 14)\ndef _transition(",
           keyed_without("(a[0], a[1], a[3], a[4])") + "def _transition(",
           engine_against_walk),
    Mutant("steps-keyed-without-corners", genfunc, "_steps",
           "@lru_cache(maxsize=2048)\ndef _steps(",
           keyed_without("(a[0], a[1], a[3], a[4])") + "def _steps(",
           engine_against_walk),
    Mutant("steps-keyed-without-lam", genfunc, "_steps",
           "@lru_cache(maxsize=2048)\ndef _steps(",
           keyed_without("(a[0], a[2], a[3], a[4])") + "def _steps(",
           engine_against_walk),
    # the double-skew polynomial's b-shift |mu/nu|, read by compute
    Mutant("minus-corners-drops-no-box", shapes, "_minus_corners",
           "(s + 1, p[:r]", "(s, p[:r]", engine_against_walk),
    Mutant("corner-rows-two-longer", shapes, "_corner_rows",
           "p - 1 > parts[r + 1]", "p - 2 > parts[r + 1]",
           engine_against_walk),
    # a kept per-shape piece must be keyed on every field of the request
    # it states, or leave it a hole that each request fills: the maker,
    # the writer and the checker share the caches, and the checker finds
    # the fault.  A nu's side with its holes filled by the first request
    # written, and the first header text written, kept for the next
    Mutant("side-holes-filled-from-the-first-write", involutions,
           "write_certificate", "sides: dict = {}",
           'sides = write_certificate.__dict__.setdefault("sides", {})',
           certificates_prove_their_requests),
    Mutant("header-text-kept-across-writes", involutions,
           "write_certificate", "fh.write(top[0])",
           'fh.write(write_certificate.__dict__.setdefault("top", top)[0])',
           certificates_prove_their_requests),
    # rules 2 and 3 read one neighbor each (fact A): either read dropped
    # lets a repeat through
    Mutant("row-repeat-unchecked", tableaux, "validate_cells",
           "a = table.left[k]", "a = -1",
           neighbor_rules_against_whole_lines),
    Mutant("column-repeat-unchecked", tableaux, "validate_cells",
           "a = table.top[k]", "a = -1",
           neighbor_rules_against_whole_lines),
    # rule 1 compares a cell's max with its neighbor's min, and rule 4
    # reads every code of a diagonal cell
    Mutant("rule-1-max-against-max", tableaux, "validate_cells",
           "if cells[a][-1] > cells[b][0]:", "if cells[a][-1] > cells[b][-1]:",
           neighbor_rules_against_whole_lines),
    Mutant("rule-4-first-code-only", tableaux, "validate_cells",
           "for code in cells[k]:", "for code in cells[k][:1]:",
           neighbor_rules_against_whole_lines),
    # the walk and the minimal tableau's fill read one least code: a
    # repeat let through, or a primed code on a P diagonal, breaks both
    Mutant("walk-admits-a-repeat", enumeration, "_least_code",
           "lo += step", "pass", engine_against_walk),
    Mutant("least-code-primes-the-p-diagonal", enumeration, "_least_code",
           "lo += lo & 1", "lo += 0", minimal_tableau_against_least_codes),
    # iota pairs every tableau in any box order that puts each box's left
    # and top neighbors first, from a minimal tableau whose every cell is
    # the least its neighbors allow; breaking either premise breaks it
    Mutant("minimal-cells-take-a-later-candidate", enumeration,
           "_minimal_cells", "cells.append((lo,))",
           "cells.append((top,))", involution_holds),
    Mutant("iota-in-reversed-column-order", involutions, "_iota_pairs",
           "order = _index_table(shape.outer.parts, shape.inner.parts)"
           ".col_order", "order = _index_table(shape.outer.parts, "
           "shape.inner.parts).col_order[::-1]", involution_holds),
    Mutant("iota-in-row-major-order", involutions, "_iota_pairs",
           "order = _index_table(shape.outer.parts, shape.inner.parts)"
           ".col_order", "order = range(len(tmin.cells))",
           involution_holds,
           survives="equivalent, by the argument of ROADMAP item 24: "
                    "row-major order also puts each box's left and top "
                    "neighbors first, so iota still pairs every tableau; "
                    "only the certificate digests pin col_order"),
    # iota deletes the minimal cell's code where the cell holds it and
    # inserts it where not; either half alone fixes some tableau
    Mutant("iota-always-deletes", involutions, "_iota_cells",
           "have - mincell if have & mincell else have | mincell",
           "have - mincell", involution_holds),
    Mutant("iota-always-inserts", involutions, "_iota_cells",
           "have - mincell if have & mincell else have | mincell",
           "have | mincell", involution_holds),
    # the checker's pair and count rules, each dropped: the TAMPERS edit
    # that breaks it then passes, or fails for another reason
    Mutant("checker-admits-a-duplicate", involutions, "certificate_checker",
           "if len(seen) == known:", "if False:", tampers_are_refused),
    Mutant("checker-admits-same-sign-sides", involutions,
           "certificate_checker",
           "if (sum(map(len, cells_l)) + sum(map(len, cells_r))) % 2 == 0:",
           "if False:", tampers_are_refused),
    Mutant("checker-admits-iota-across-nu", involutions,
           "certificate_checker", 'if tag == "iota" and nu_l != nu_r:',
           "if False:", tampers_are_refused),
    Mutant("checker-skips-the-element-count", involutions,
           "certificate_checker", "if len(seen) != want:", "if False:",
           tampers_are_refused),
    Mutant("checker-admits-any-tag", involutions, "certificate_checker",
           'tag not in ("iota", "pi") or (minimal_only and tag != "pi")',
           'minimal_only and tag != "pi"', tampers_are_refused),
    Mutant("checker-admits-a-non-minimal-pi-side", involutions,
           "certificate_checker", "if cells != minimal[nu].cells:",
           "if False:", tampers_are_refused),
    Mutant("checker-admits-a-pi-pair-off-the-bottom-box", involutions,
           "certificate_checker",
           "if pi(mu, shapes[nu_l].inner).parts != nu_r:", "if False:",
           tampers_are_refused),
    # the pi pairs toggle mu's bottom removable box, in its last row
    Mutant("pi-toggles-the-top-row", shapes, "pi", "r = mu.length - 1",
           "r = 0", pi_removes_the_bottom_box),
    # the point recursion's signed side, read through _at by the sweep
    Mutant("point-sum-signed-side-unsigned", genfunc, "_point_sum",
           "was[1] + s * signed", "was[1] + c * signed",
           engine_against_walk),
]


# each kill check above must pass against the unbroken package, or it
# would "kill" every row it guards; the checks imported here have their
# own tests in their modules
@pytest.mark.parametrize("check", [engine_against_walk, involution_holds,
                                   certificates_prove_their_requests,
                                   tampers_are_refused],
                         ids=lambda c: c.__name__)
def test_kill_check_passes_unbroken(check, fresh_caches):
    check()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant(mutant, monkeypatch, fresh_caches):
    source = inspect.getsource(mutant.module)
    assert source.count(mutant.text) == 1, "the rule moved: update the row"
    copy = types.ModuleType(mutant.module.__name__)
    copy.__package__ = mutant.module.__package__
    exec(compile(source.replace(mutant.text, mutant.replacement),
                 mutant.module.__file__, "exec"), vars(copy))
    original = getattr(mutant.module, mutant.function)
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "shifted_kschur"
                and vars(module).get(mutant.function) is original):
            monkeypatch.setattr(module, mutant.function,
                                getattr(copy, mutant.function))
    fresh_caches()  # nothing the unbroken module cached is read back
    if mutant.survives:
        mutant.check()
    else:
        with pytest.raises(AssertionError):
            mutant.check()
