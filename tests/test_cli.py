import contextlib
import gc
import io
import json
import re
import sys
import tracemalloc
from itertools import product

import pytest

from shifted_kschur import (cli, enumeration, genfunc, involutions, polyring,
                            shapes)
from shifted_kschur.cli import main
from shifted_kschur.enumeration import EnumSpec
from shifted_kschur.genfunc import FunctionSpec
from shifted_kschur.involutions import (PAIR_MAX_ELEMENTS, pairing_certificate,
                                        read_certificate, write_certificate)
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import StrictPartition, skew_shapes
from tests.conftest import (LARGE_PAIR, TAMPERS, as_written, has_empty_set,
                            sp)
from tests.reference import expanded


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpecialValue:
    def test_gp_421(self, capsys):
        code, out, _ = run(capsys, "special-value", "--shape", "4,2,1",
                           "--family", "GP", "-n", "3")
        assert code == 0 and out.strip() == "b^7"

    def test_gq_one_box(self, capsys):
        code, out, _ = run(capsys, "special-value", "--shape", "1",
                           "--family", "GQ", "-n", "1")
        assert code == 0 and out.strip() == "b"

    def test_double_family_zero(self, capsys):
        code, out, _ = run(capsys, "special-value", "--shape", "2,1/1",
                           "--family", "GPdouble", "-n", "2")
        assert code == 0 and out.strip() == "0"

    def test_gq_double_family_zero(self, capsys):
        # the double-skew vanishing at tableau level
        code, out, _ = run(capsys, "special-value", "--shape", "2,1/1",
                           "--family", "GQdouble", "-n", "2")
        assert code == 0 and out.strip() == "0"

    @pytest.mark.parametrize("shape,family,value", [
        ("2,1", "GP", "0"), ("2,1/1", "GPdouble", "b^2")])
    def test_empty_set_does_not_apply(self, capsys, shape, family, value):
        code, out, err = run(capsys, "special-value", "--shape", shape,
                             "--family", family, "-n", "1")
        assert (code, out) == (2, value + "\n")
        assert err == ("note: the tableau set of 2,1 is empty; the "
                       "special-value statement does not apply\n")

    def test_wrong_value_on_nonempty_set_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(genfunc, "special_value",
                            lambda spec: LaurentPoly.zero(spec.n))
        code, out, err = run(capsys, "special-value", "--shape", "4,2,1",
                             "--family", "GP", "-n", "3")
        assert (code, out, err) == (1, "0\n", "")


class TestParity:
    def test_one_box(self, capsys):
        code, out, _ = run(capsys, "parity", "--shape", "1",
                           "--family", "GQ", "-n", "1")
        assert code == 0 and out.strip() == "count=3 odd=true"

    def test_421(self, capsys):
        code, out, _ = run(capsys, "parity", "--shape", "4,2,1",
                           "--family", "GQ", "-n", "3")
        assert code == 0 and out.strip() == "count=5103 odd=true"

    def test_empty_set_does_not_apply(self, capsys):
        code, out, err = run(capsys, "parity", "--shape", "2,1",
                             "--family", "GP", "-n", "1")
        assert code == 2 and out.strip() == "count=0 odd=false"
        assert "does not apply" in err

    def test_format_is_not_an_option(self, capsys):
        code, out, err = run(capsys, "parity", "--shape", "1",
                             "--family", "GQ", "-n", "1", "--format", "jsonl")
        assert code == 2 and not out and "--format" in err


class TestDoubleSkew:
    def test_shortcut_flagship(self, capsys):
        code, out, _ = run(capsys, "double-skew", "--lambda", "9,8,6,4",
                           "--mu", "7,5,4,2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "0"
        assert len(lines) == 9
        assert sum(l.endswith("sign=+1") for l in lines[1:]) == 4
        assert sum(l.endswith("sign=-1") for l in lines[1:]) == 4

    def test_empty_set_does_not_apply(self, capsys):
        # the engine at n=1 meets the empty tableau set of 2,1 here; the
        # expansion reads no tableau set, so it proves the vanishing anyway
        assert run(capsys, "double-skew", "--lambda", "2,1", "--mu", "1") == \
            (0, "0\nnu=1 removed=0 sign=+1\nnu=- removed=1 sign=-1\n", "")

    @pytest.mark.parametrize("path", [("--mu", "-"), ("--mu", "0")])
    def test_empty_mu_does_not_apply(self, capsys, path):
        # with mu empty, in either spelling, the value is b^|lambda|, not a
        # failure of vanishing
        code, out, err = run(capsys, "double-skew", "--lambda", "2,1", *path)
        assert (code, out) == (2, "b^3\n")
        assert err == ("note: mu is empty; the vanishing statement does "
                       "not apply\n")

    @pytest.mark.parametrize("path", [
        ("double-skew", "--lambda", "2,1", "--mu", "3"),
        ("special-value", "--shape", "2,1/3", "--family", "GPdouble",
         "-n", "2")])
    def test_mu_outside_lambda_is_usage_error(self, capsys, path):
        # the expansion and the engine both reject the shape before printing
        # a value
        code, out, err = run(capsys, *path)
        assert (code, out) == (2, "")
        assert err == "error: 3 is not contained in 2,1\n"


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--shape", "1",
                           "--family", "Q", "-n", "1", "--count-only")
        assert code == 0 and out.strip() == "3"

    def test_count_only_is_the_walk_count(self, capsys):
        # the engine's count, as printed, is the walk's: every skew shape
        # inside a strict partition of weight at most 5, n <= 3, P/Q,
        # single and set-valued
        cases = 0
        for shape in skew_shapes(5, with_empty=True):
            for n, family, kind in product((1, 2, 3), "PQ",
                                           enumeration.KINDS):
                walk = enumeration.count(EnumSpec(shape, n, family, kind))
                assert run(capsys, "enumerate", "--shape", str(shape),
                           "--family", family, "-n", str(n), "--kind",
                           kind, "--count-only") == \
                    (0, f"{walk}\n", ""), (str(shape), n, family, kind)
                cases += 1
        assert cases == 552

    def test_count_only_never_walks(self, capsys, monkeypatch):
        # the count the parity of GQ 7,5,3,1 at n=6 reads, with no walk
        def refuse(spec):
            raise AssertionError("walked the tableaux")

        monkeypatch.setattr(enumeration, "_leaves", refuse)
        monkeypatch.setattr(genfunc, "_leaves", refuse)
        assert run(capsys, "enumerate", "--shape", "7,5,3,1", "--family",
                   "Q", "-n", "6", "--count-only") == \
            (0, "64563237071361\n", "")

    def test_jsonl(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--shape", "1",
                           "--family", "Q", "-n", "1", "--format", "jsonl")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_deterministic(self, capsys):
        runs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "enumerate", "--shape", "2,1",
                               "--family", "P", "-n", "2")
            assert code == 0
            runs.add(out)
        assert len(runs) == 1

    def test_n_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--shape", "2,1",
                             "--family", "P", "-n", "-1", "--count-only")
        assert code == 2 and not out and "n must be at least 1" in err


def printed_keys(argv: list) -> list:
    """The (b, x) of each term ``poly`` prints for argv, in printed order,
    read back term by term from the text, or from the JSON with
    ``--format jsonl``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    text, n = out.getvalue().strip(), int(argv[argv.index("-n") + 1])
    if "jsonl" in argv:
        return [(t["b"], tuple(t["x"])) for t in json.loads(text)["terms"]]
    if text == "0":
        return []
    keys = []
    for body in re.split(r" [+-] ", text.removeprefix("-")):
        (x, b), = LaurentPoly.parse(body, n).terms
        keys.append((b, x))
    return keys


def print_order_holds():
    """``poly`` on every lam/mu with |lam| <= 4, n <= 3, every family, both
    formats: the printed terms increase strictly in (b, x), the print
    order.  It stops at the first request out of order."""
    for shape in skew_shapes(4):
        for n, family, fmt in product((1, 2, 3), genfunc.FAMILIES,
                                      ("text", "jsonl")):
            argv = ["poly", "--shape", str(shape), "--family", family,
                    "-n", str(n), "--format", fmt]
            keys = printed_keys(argv)
            assert all(a < b for a, b in zip(keys, keys[1:])), argv


class TestPoly:
    def test_gq_one_box(self, capsys):
        code, out, _ = run(capsys, "poly", "--shape", "1",
                           "--family", "GQ", "-n", "1")
        assert code == 0 and out.strip() == "2*x1 + x1^2*b"

    def test_prints_the_expanded_polynomial(self, capsys):
        # printed from the orbit representatives, the bytes are those of
        # the expanded polynomial, arranged by the reference rather than
        # by ``_orbit``, held as a dict and printed term by term, and they
        # read back to it, for every lam/mu with |lam| <= 6 (the empty one
        # too), n <= 4, every family
        cases = 0
        for shape in skew_shapes(6, with_empty=True):
            for n, family in product(range(1, 5), genfunc.FAMILIES):
                held = genfunc.compute(FunctionSpec(family, shape, n))
                p = LaurentPoly(n, expanded(held))
                argv = ("poly", "--shape", str(shape), "--family", family,
                        "-n", str(n))
                text = run(capsys, *argv)[1]
                jsonl = run(capsys, *argv, "--format", "jsonl")[1]
                assert (text, jsonl) == (f"{p}\n", f"{p.to_json()}\n"), argv
                assert LaurentPoly.parse(text, n) == p, argv
                assert LaurentPoly.from_json(jsonl, n) == p, argv
                cases += 1
        assert cases == 81 * 4 * 6

    @pytest.mark.parametrize("shape, family", [("3,2,1", "P"),
                                               ("3,2,1", "GQdouble")])
    def test_empty_set_prints_zero(self, capsys, shape, family):
        argv = ("poly", "--shape", shape, "--family", family, "-n", "2")
        assert run(capsys, *argv) == (0, "0\n", "")
        assert run(capsys, *argv, "--format", "jsonl") == (
            0, '{"terms": []}\n', "")

    def test_prints_in_order(self):
        print_order_holds()

    def test_expands_nothing(self, capsys, monkeypatch, fresh_caches):
        # the orbit terms are neither iterated nor read as items: each
        # orbit prints from its kept arrangements and text
        argvs = [("poly", "--shape", shape, "--family", family, "-n", "3",
                  "--format", fmt)
                 for shape in ("4,2,1", "5,3/2", "3,1/1")
                 for family in genfunc.FAMILIES for fmt in ("text", "jsonl")]
        want = [run(capsys, *argv) for argv in argvs]

        def refuse(*args):
            raise AssertionError("expanded")

        monkeypatch.setattr(polyring.OrbitTerms, "__iter__", refuse)
        monkeypatch.setattr(polyring.OrbitTerms, "items", refuse)
        fresh_caches()
        assert [run(capsys, *argv) for argv in argvs] == want
        assert sum(len(out) for _, out, _ in want) > 10_000


class TestIdentity:
    def test_beta_zero(self, capsys):
        code, out, _ = run(capsys, "identity", "--check", "beta-zero",
                           "--max-weight", "3", "--max-n", "2")
        assert code == 0
        assert all(l.endswith("ok") or l.startswith("partial")
                   for l in out.strip().splitlines())

    def test_pq_factor(self, capsys):
        code, out, _ = run(capsys, "identity", "--check", "pq-factor",
                           "--max-weight", "4", "--max-n", "2")
        assert code == 0

    def test_pq_factor_skew_checks_skew_shapes(self, capsys):
        # Q = 2^(len(lam) - len(mu)) P: lam/mu's diagonal boxes are the
        # first boxes of rows len(mu)+1 .. len(lam)
        code, out, _ = run(capsys, "identity", "--check", "pq-factor",
                           "--skew", "--max-weight", "2", "--max-n", "1")
        assert code == 0
        assert out == ("shape=1 n=1 ok\nshape=1/1 n=1 ok\nshape=2 n=1 ok\n"
                       "shape=2/1 n=1 ok\nshape=2/2 n=1 ok\n")

    def test_coproduct(self, capsys):
        code, out, _ = run(capsys, "identity", "--check", "coproduct",
                           "--max-weight", "3", "--nx", "1", "--ny", "1")
        assert code == 0

    def test_coproduct_sweeps_past_weight_six(self, capsys):
        # in 1 + 1 letters no left side nears the count guard: every
        # lambda of weight at most 7 is checked
        code, out, _ = run(capsys, "identity", "--check", "coproduct",
                           "--max-weight", "7", "--nx", "1", "--ny", "1")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 72
        assert all(line.endswith(" ok") for line in lines)
        assert "lambda=4,2,1 family=GQ ok" in lines

    def test_coproduct_guard_refuses_before_the_sweep(self, capsys,
                                                       monkeypatch):
        # at the default 2 + 2 letters, 6,1 has 904,527 GQ tableaux
        def refuse(*args):
            raise AssertionError("ran an instance past the guard")

        monkeypatch.setattr(genfunc, "coproduct_check", refuse)
        assert run(capsys, "identity", "--check", "coproduct",
                   "--max-weight", "7") == (
            2, "", "error: coproduct guard exceeded: 904527 tableaux for "
                   "GQ 6,1 at n=4, above the limit of 500000\n")

    def test_coproduct_guard_pass_keeps_the_time_budget(self, capsys,
                                                         monkeypatch):
        # the guard pass reads the sweep's deadline: with no time left it
        # counts no left side, and the sweep then runs no instance
        def refuse(*args):
            raise AssertionError("ran past the time budget")

        monkeypatch.setattr(genfunc, "_coproduct_guard", refuse)
        monkeypatch.setattr(genfunc, "coproduct_check", refuse)
        assert run(capsys, "identity", "--check", "coproduct",
                   "--max-weight", "40", "--nx", "1", "--ny", "1",
                   "--time-budget", "0") == (
            0, "partial sweep: covered 0/34784 instances\n", "")

    def test_coproduct_guard_counts_no_lambda_longer_than_n(self, capsys,
                                                            monkeypatch):
        # a lambda with more rows than nx + ny letters has no tableau, so
        # the guard passes it without the engine's count
        argv = ("identity", "--check", "coproduct", "--max-weight", "8",
                "--nx", "1", "--ny", "1")
        want = run(capsys, *argv)
        real = genfunc._at

        def at(spec):
            if spec.shape.outer.length > spec.n:
                raise AssertionError(f"counted {spec.shape} at n={spec.n}")
            return real(spec)

        monkeypatch.setattr(genfunc, "_at", at)
        assert run(capsys, *argv) == want
        assert want[0] == 0 and len(want[1].splitlines()) == 96

    def test_coproduct_count_guard_refuses_before_the_sweep(self, capsys,
                                                             monkeypatch):
        # |lambda| <= 6 passes, but 3,1 has 16,437,249 GQ tableaux at n = 6
        def refuse(*args):
            raise AssertionError("ran an instance past the guard")

        monkeypatch.setattr(genfunc, "coproduct_check", refuse)
        assert run(capsys, "identity", "--check", "coproduct",
                   "--max-weight", "6", "--nx", "3", "--ny", "3") == (
            2, "", "error: coproduct guard exceeded: 16437249 tableaux for "
                   "GQ 3,1 at n=6, above the limit of 500000\n")

    def test_unknown_check_rejected(self, capsys):
        code, _, _ = run(capsys, "identity", "--check", "nonsense")
        assert code == 2

    # N in "covered 0/N" is the number of lines the sweep prints uncut
    @pytest.mark.parametrize("options,total", [
        (("--check", "beta-zero"), 18),
        (("--check", "coproduct"), 24),
        (("--check", "pq-factor", "--skew", "--max-n", "2"), 48),
        (("--check", "beta-zero", "--skew", "--max-weight", "5"), 135),
        (("--check", "coproduct", "--max-weight", "5", "--nx", "1"), 36),
    ], ids=("beta-zero-18", "coproduct-24", "pq-factor-skew",
            "beta-zero-skew", "coproduct-nx1"))
    def test_budget_cut_reported(self, capsys, options, total):
        code, out, _ = run(capsys, "identity", *options, "--time-budget", "0")
        assert (code, out) == (
            0, f"partial sweep: covered 0/{total} instances\n")
        code, out, _ = run(capsys, "identity", *options)
        assert code == 0 and len(out.splitlines()) == total

    def test_failing_check_fails_the_sweep(self, capsys, monkeypatch):
        # the b^0 terms of GP and GQ lost: none is P's or Q's
        real = genfunc._branching_sum
        monkeypatch.setattr(genfunc, "_branching_sum",
                            lambda *key, b0_only=False:
                            {} if b0_only else real(*key))
        code, out, _ = run(capsys, "identity", "--check", "beta-zero",
                           "--max-weight", "2", "--max-n", "1")
        assert (code, out) == (1, "shape=1 n=1 FAIL\nshape=2 n=1 FAIL\n")

    @pytest.mark.parametrize("check", ("beta-zero", "pq-factor"))
    def test_engine_runs_once_per_shape_at_max_n(self, capsys, monkeypatch,
                                                 fresh_caches, check):
        # each shape's first ask is at --max-n, so every n is a cut of that
        # run and no key's recursion runs twice; the lines are those of
        # each n asked from cold levels
        asked, ran = [], []
        real = genfunc._branching_sum
        levels = genfunc._point_levels

        def counted(lam, mu, n, family, kind, b0_only=False):
            kept = levels(lam, mu, family, kind).kept[b0_only][0]
            asked.append((lam, mu, n))
            if n > kept:
                ran.append((lam, mu, family, kind, b0_only))
            return real(lam, mu, n, family, kind, b0_only=b0_only)

        monkeypatch.setattr(genfunc, "_branching_sum", counted)
        argv = ("identity", "--check", check, "--skew", "--max-weight", "4",
                "--max-n", "3")
        code, out, _ = run(capsys, *argv)
        domain = [(s.outer.parts, s.inner.parts) for s in skew_shapes(4)]
        assert code == 0 and len(out.splitlines()) == 3 * len(domain)
        firsts = {}
        for lam, mu, n in asked:
            firsts.setdefault((lam, mu), n)
        assert firsts == {shape: 3 for shape in domain}
        # beta-zero reads four keys a shape, pq-factor two
        keys = 4 if check == "beta-zero" else 2
        assert len(ran) == len(set(ran)) == keys * len(domain)
        for line, (shape, n) in zip(out.splitlines(),
                                    product(skew_shapes(4), (1, 2, 3))):
            fresh_caches()
            assert line == getattr(cli, "_" + check.replace("-", "_"))(
                shape, n, n)[0]

    @pytest.mark.parametrize("check", ("beta-zero", "pq-factor"))
    def test_compares_representatives_unexpanded(self, capsys, monkeypatch,
                                                 check):
        # both sides' representatives are compared as they are, so no
        # polynomial is expanded
        def refuse(rep):
            raise AssertionError(f"expanded {rep}")

        monkeypatch.setattr(polyring, "_orbit", refuse)
        code, out, _ = run(capsys, "identity", "--check", check, "--skew",
                           "--max-weight", "4", "--max-n", "3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 72
        assert all(line.endswith(" ok") for line in lines)


class TestVerifyInvolution:
    def test_single_shape(self, capsys):
        code, out, _ = run(capsys, "verify-involution", "--shape", "2,1",
                           "--max-n", "2")
        assert code == 0
        assert out.strip().splitlines() == [
            "shape=2,1 family=P n=1 empty",
            "shape=2,1 family=Q n=1 empty",
            "shape=2,1 family=P n=2 checked=2 signed=1 ok",
            "shape=2,1 family=Q n=2 checked=26 signed=1 ok"]

    def test_sweep(self, capsys):
        code, _, _ = run(capsys, "verify-involution", "--max-weight", "3",
                         "--max-n", "2")
        assert code == 0

    def test_empty_sets_reported(self, capsys):
        code, out, _ = run(capsys, "verify-involution", "--max-weight", "3",
                           "--max-n", "1")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 26
        assert [l for l in lines if not l.endswith(" ok")] == [
            "shape=2,1 family=P n=1 empty", "shape=2,1 family=Q n=1 empty"]

    def test_budget_cut_reported(self, capsys):
        # N in "covered 0/N" is the number of lines the sweep prints uncut
        argv = ("verify-involution", "--max-weight", "3", "--max-n", "2")
        code, out, _ = run(capsys, *argv, "--time-budget", "0")
        assert code == 0 and out == "partial sweep: covered 0/52 instances\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == 52


@pytest.mark.parametrize("argv", [
    ("identity", "--check", "beta-zero", "--skew"), ("verify-involution",),
    ("identity", "--check", "coproduct")],
    ids=("beta-zero-skew", "verify-involution", "coproduct"))
def test_zero_budget_sweep_holds_no_instance_list(capsys, argv):
    # instances are made as the sweep reads them, and a cut counts the
    # rest without keeping them: at weight 16 (18,357, 24,476 and 672
    # instances) the peak was at most 20 KB on CPython 3.11, where the
    # lists of them took 2.6 MB, 3.2 MB and 86 KB; the coproduct sweep's
    # guard pass walks a stream of its own
    run(capsys, *argv, "--max-weight", "3", "--time-budget", "0")  # warm
    gc.collect()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv, "--max-weight", "16",
                           "--time-budget", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("partial sweep: covered 0/")
    assert peak < 64_000


@pytest.mark.parametrize("argv", [
    ("identity", "--check", "beta-zero", "--skew", "--max-n", "4"),
    ("identity", "--check", "pq-factor"), ("verify-involution",)],
    ids=("beta-zero-skew", "pq-factor", "verify-involution"))
def test_cut_sweep_counts_the_rest_with_no_shape(capsys, monkeypatch, argv):
    # the one shape made is the first instance's, drawn before the cut;
    # the rest are counted, and the count is the lines of the uncut sweep
    made = []
    real = shapes.SkewShape.__init__

    def init(self, *args):
        made.append(args)
        real(self, *args)

    monkeypatch.setattr(shapes.SkewShape, "__init__", init)
    code, out, _ = run(capsys, *argv, "--max-weight", "6",
                       "--time-budget", "0")
    assert code == 0 and len(made) == 1
    monkeypatch.undo()
    lines = len(run(capsys, *argv, "--max-weight", "6")[1].splitlines())
    assert out == f"partial sweep: covered 0/{lines} instances\n"


class TestOracleCheck:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-weight", "3",
                           "--max-n", "1")
        assert code == 0
        assert out.strip()


@pytest.mark.parametrize("argv,message", [
    (("verify-involution", "--shape", "2,1", "--max-n", "0"),
     "--max-n must be at least 1"),
    (("identity", "--check", "beta-zero", "--max-n", "0"),
     "--max-n must be at least 1"),
    (("identity", "--check", "pq-factor", "--max-weight", "0"),
     "--max-weight must be at least 1"),
    (("identity", "--check", "coproduct", "--max-weight", "-1"),
     "--max-weight must be at least 1"),
    (("oracle-check", "--max-n", "0"), "--max-n must be at least 1"),
    (("oracle-check", "--max-weight", "0"),
     "--max-weight must be at least 1"),
    (("verify-involution", "--shape", "3,1/1", "--max-n", "2",
      "--time-budget", "-1"), "--time-budget must not be negative"),
    (("identity", "--check", "coproduct", "--time-budget", "-0.5"),
     "--time-budget must not be negative"),
    (("identity", "--check", "coproduct", "--nx", "0"),
     "--nx must be at least 1"),
    (("identity", "--check", "coproduct", "--ny", "0"),
     "--ny must be at least 1"),
    (("identity", "--check", "coproduct", "--nx", "2", "--ny", "-1"),
     "--ny must be at least 1"),
    (("identity", "--check", "beta-zero", "--max-weight", "2", "--max-n",
      "1", "--time-budget", "nan"), "--time-budget must be a number, not nan"),
    (("identity", "--check", "coproduct", "--skew", "--max-weight", "1",
      "--nx", "1", "--ny", "1"), "--skew does not apply to --check coproduct"),
    # an option the check would ignore, whatever its value
    (("identity", "--check", "beta-zero", "--nx", "0"),
     "--nx does not apply to --check beta-zero"),
    (("identity", "--check", "pq-factor", "--max-weight", "1", "--ny", "2"),
     "--ny does not apply to --check pq-factor"),
    (("identity", "--check", "coproduct", "--max-n", "0"),
     "--max-n does not apply to --check coproduct"),
    (("identity", "--check", "coproduct", "--max-weight", "1", "--max-n",
      "3"), "--max-n does not apply to --check coproduct"),
    (("verify-involution", "--shape", "2,1", "--max-weight", "0"),
     "--max-weight does not apply with --shape"),
    (("verify-involution", "--shape", "1", "--max-weight", "4", "--max-n",
      "1"), "--max-weight does not apply with --shape"),
    (("oracle-check", "--max-n", "3"),
     "--max-n must be at most 2 for the oracle")])
def test_sweep_with_nothing_to_check_is_usage_error(capsys, argv, message):
    # no instance, or no time for one, an option the sweep does not read,
    # or a bound it cannot check: exit 2 before any line
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


PAIR_21_1 = ("pair", "--lambda", "2,1", "--mu", "1", "--family", "P",
             "-n", "2")
HEADER_21_1 = ('certificate is for {"lambda": [2, 1], "mu": [1], "n": 2, '
               '"family": "P", "minimal_only": false}')


# certificate files that are not JSON, made from a written one's bytes
CUTS = {"truncated": lambda data: data[:200],
        "not_utf8": lambda data: b"\xff\xff",
        "deeply_nested": lambda data: data.replace(
            b'"leftover": ', b'"leftover": ' + b"[\n" * 100_000, 1)}

# written certificates that break after the header, made from their text
SPOILS = {
    "truncated_in_pairs":
        lambda text: text[:text.index('"tag"', text.index('"pairs"'))],
    "text_after_the_brace": lambda text: text + " {}",
    "member_after_pairs": lambda text: text[:-1] + ', "zzz": 0}',
    "missing_comma_between_pairs":
        lambda text: text.replace("\n  },\n  {", "\n  }\n  {", 1),
    "deeply_nested_pair":
        lambda text: text.replace('"left": ', '"left": ' + "[\n" * 100_000,
                                  1),
    # a pair's object that closes before its closing line, and one that
    # runs on past it
    "pair_closes_early":
        lambda text: text.replace('"tag": "pi"\n  }', '"tag": "pi"}\n  }', 1),
    "pair_runs_past_its_closing_line":
        lambda text: text.replace('"tag": "pi"\n  }',
                                  '"tag": "pi", "z": {\n  }\n  }', 1)}


def not_utf8_at(offset):
    """The note of a byte that is not UTF-8 at byte ``offset`` of a file."""
    return ("malformed certificate (ValueError('text that is not utf-8 "
            f"(invalid start byte) at byte {offset} of the file'))")


def layout_at(text, pos):
    """The note of a file that leaves pair --out's layout at char pos of
    its text."""
    line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return ("malformed certificate (JSONDecodeError('Expecting the layout "
            f"pair --out writes: line {line} column {col} (char {pos})'))")


def _spoiled(spoil):
    return lambda data: spoil(data.decode()).encode()


def _tampered(tamper):
    def make(data):
        doc = json.loads(data)
        tamper(doc)
        return as_written(doc).encode()
    return make


# the files of the chunk-size test, each made from a written certificate;
# a number in the header that a chunk may cut before its "." or "e", a
# syntax error far along the file, and a file of one line
STREAM_CASES = {
    "as_written": lambda data: data, **CUTS,
    **{k: _spoiled(spoil) for k, spoil in SPOILS.items()},
    **{t.__name__: _tampered(t) for t, _ in TAMPERS},
    "header_n_with_fraction_and_exponent":
        lambda data: data.replace(b'"n": 2,', b'"n": 2.0e0,', 1),
    "truncated_far_along": lambda data: data[:-100],
    "one_line_truncated":
        lambda data: json.dumps(json.loads(data)).encode()[:-100]}


def _read_outcome(path):
    """What ``read_certificate`` makes of a file: its document with the
    pairs listed as far as they read, and the error that stopped it, with
    a JSONDecodeError's line, column and character."""
    doc, pairs, error = {}, [], None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = read_certificate(fh)
            pairs.extend(doc.get("pairs", ()))
    except (ValueError, RecursionError) as exc:
        error = (type(exc), str(exc), getattr(exc, "lineno", None),
                 getattr(exc, "colno", None), getattr(exc, "pos", None))
    if "pairs" in doc:
        doc["pairs"] = pairs
    return doc, error


# json.dumps layouts of a certificate that pair --check refuses: each
# besides the writer's own (sort_keys=True, indent=1), and the writer's
# indent with the keys in the order to_json makes them
LAYOUTS = [{"indent": k, "sort_keys": True} for k in (None, 0, 2)] + [
    {"separators": (",", ":"), "sort_keys": True}, {"indent": 1}]


def _pair_cases(max_weight, max_n):
    for shape in skew_shapes(max_weight):
        if not shape.inner:
            continue
        for family in ("P", "Q"):
            for n in range(1, max_n + 1):
                yield shape.outer, shape.inner, family, n


class TestPair:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, *PAIR_21_1, "--out", str(path))
        assert code == 0 and out.strip().endswith("ok")
        code, out, _ = run(capsys, *PAIR_21_1, "--check", str(path))
        assert code == 0 and out.strip() == "certificate ok"

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        doc["pairs"] = doc["pairs"][:-1]
        path.write_text(as_written(doc))
        code, out, _ = run(capsys, *PAIR_21_1, "--check", str(path))
        assert code == 1 and "FAILED" in out

    @pytest.mark.parametrize("tamper,reason", TAMPERS,
                             ids=[t.__name__ for t, _ in TAMPERS])
    def test_each_tamper_fails(self, capsys, tmp_path, tamper, reason):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(as_written(doc))
        assert run(capsys, *PAIR_21_1, "--check", str(path)) == \
            (1, "certificate FAILED\n", f"note: {reason}\n")

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "3,1"), ("--mu", "2"), ("--family", "Q"), ("-n", "3")])
    def test_check_rejects_other_command_line(self, capsys, tmp_path, flag,
                                              value):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        argv = list(PAIR_21_1)
        argv[argv.index(flag) + 1] = value
        assert run(capsys, *argv, "--check", str(path)) == (
            1, "certificate FAILED\n", f"note: {HEADER_21_1}\n")

    def test_check_rejects_other_certificate_kind(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        code, out, _ = run(capsys, *PAIR_21_1, "--minimal-only", "--check",
                           str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        run(capsys, *PAIR_21_1, "--minimal-only", "--out", str(path))
        code, out, _ = run(capsys, *PAIR_21_1, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        code, out, _ = run(capsys, *PAIR_21_1, "--minimal-only", "--check",
                           str(path))
        assert (code, out) == (0, "certificate ok\n")

    @pytest.mark.parametrize("flag,value,message", [
        ("--mu", "-", "need a nonempty mu contained in lam"),
        ("--mu", "3", "need a nonempty mu contained in lam"),
        ("-n", "0", "n must be at least 1")],
        ids=["empty_mu", "mu_outside_lambda", "n_zero"])
    def test_check_of_bad_command_line_is_usage_error(self, capsys, tmp_path,
                                                      flag, value, message):
        # the same exit and message as without --check
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        argv = list(PAIR_21_1)
        argv[argv.index(flag) + 1] = value
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert run(capsys, *argv, "--check", str(path)) == \
            (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("minimal_only", [False, True])
    def test_check_of_empty_tableau_set_is_usage_error(self, capsys, tmp_path,
                                                       minimal_only):
        # 2,1 has no P tableau at n = 1: the request is refused, with or
        # without --check, and a certificate of no pairs proves nothing
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "lambda": [2, 1], "mu": [1], "n": 1, "family": "P",
            "minimal_only": minimal_only, "pairs": [], "leftover": []}))
        argv = ("pair", "--lambda", "2,1", "--mu", "1", "--family", "P",
                "-n", "1") + (("--minimal-only",) if minimal_only else ())
        refusal = (2, "", "error: empty tableau set for 2,1, P, n=1\n")
        assert run(capsys, *argv) == refusal
        assert run(capsys, *argv, "--check", str(path)) == refusal

    def test_size_guard_limits_making_not_checking(self, capsys, tmp_path):
        # 5,3,1 // 2,1 P n=3 is above PAIR_MAX_ELEMENTS: making it is
        # refused, while a document of no pairs is checked, and fails
        path = tmp_path / "cert.json"
        path.write_text(as_written({
            "lambda": [5, 3, 1], "mu": [2, 1], "n": 3, "family": "P",
            "minimal_only": False, "pairs": [], "leftover": []}))
        argv = ("pair", "--lambda", "5,3,1", "--mu", "2,1", "--family", "P",
                "-n", "3")
        assert run(capsys, *argv) == (
            2, "", "error: infeasible scale: 42444 elements, above the "
                   "limit of 20000; use minimal_only\n")
        assert run(capsys, *argv, "--check", str(path)) == (
            1, "certificate FAILED\n",
            "note: 0 elements, the family has 42444\n")

    @pytest.mark.parametrize("cut", CUTS.values(), ids=CUTS)
    def test_file_that_is_not_json_fails(self, capsys, tmp_path, cut):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        path.write_bytes(cut(path.read_bytes()))
        code, out, err = run(capsys, *PAIR_21_1, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        assert err.startswith("note: malformed certificate (")

    @pytest.mark.parametrize("minimal_only", [False, True])
    @pytest.mark.parametrize("content", [b'{"lambda": [2', b"\xff\xff"],
                             ids=["truncated", "not_utf8"])
    def test_empty_tableau_set_is_refused_before_the_file_is_read(
            self, capsys, tmp_path, content, minimal_only):
        path = tmp_path / "cert.json"
        path.write_bytes(content)
        argv = ("pair", "--lambda", "2,1", "--mu", "1", "--family", "P",
                "-n", "1") + (("--minimal-only",) if minimal_only else ())
        assert run(capsys, *argv, "--check", str(path)) == \
            (2, "", "error: empty tableau set for 2,1, P, n=1\n")

    @pytest.mark.parametrize("spoil", SPOILS.values(), ids=SPOILS)
    def test_stream_that_breaks_after_the_header(self, capsys, tmp_path,
                                                 spoil):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        text = path.read_text()
        assert text.endswith("}") and spoil(text) != text
        path.write_text(spoil(text))
        code, out, err = run(capsys, *PAIR_21_1, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        assert err.startswith("note: malformed certificate (")
        # a header for another request is reported first
        argv = list(PAIR_21_1)
        argv[argv.index("-n") + 1] = "3"
        assert run(capsys, *argv, "--check", str(path)) == (
            1, "certificate FAILED\n", f"note: {HEADER_21_1}\n")

    def test_pair_fault_comes_before_a_later_syntax_error(self, capsys,
                                                          tmp_path):
        tamper, reason = TAMPERS[0]  # a fault in pair 0
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(as_written(doc) + " trailing")
        assert run(capsys, *PAIR_21_1, "--check", str(path)) == \
            (1, "certificate FAILED\n", f"note: {reason}\n")

    @pytest.mark.parametrize("make", STREAM_CASES.values(), ids=STREAM_CASES)
    def test_chunk_size_changes_nothing(self, capsys, tmp_path, monkeypatch,
                                        make):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        data = make(path.read_bytes())
        path.write_bytes(data)

        def outcome(chunk):
            monkeypatch.setattr(involutions, "_CHUNK", chunk)
            return (_read_outcome(path),
                    run(capsys, *PAIR_21_1, "--check", str(path)))

        chunks = (1, 3, 64, involutions._CHUNK)
        whole = outcome(len(data) + 1)  # the file in one chunk
        for chunk in chunks:
            assert outcome(chunk) == whole, chunk
        # a JSONDecodeError names its place in the file
        _, message, lineno, colno, pos = whole[0][1] or (None,) * 5
        if pos is not None:
            text = data.decode()
            assert (lineno, colno) == (text.count("\n", 0, pos) + 1,
                                       pos - text.rfind("\n", 0, pos))
            assert message.endswith(
                f"line {lineno} column {colno} (char {pos})")

    @pytest.mark.parametrize("make", STREAM_CASES.values(), ids=STREAM_CASES)
    def test_in_place_decode_reads_as_the_slice(self, capsys, tmp_path,
                                                monkeypatch, make):
        # each pair is decoded where it stands, once and in file order,
        # from a copy of its text: its "{" up to its closing line, or to
        # the end of a cut file.  The pairs read are those decodes, and a
        # fault in the next is its decode's error, at its place in the file
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        path.write_bytes(make(path.read_bytes()))
        text = path.read_bytes().decode(errors="replace")
        decoded, loads = [], json.loads
        monkeypatch.setattr(json, "loads",
                            lambda s: decoded.append(s) or loads(s))
        doc, error = _read_outcome(path)
        monkeypatch.undo()
        if not decoded:  # refused before the header was decoded
            assert error and not doc
            return
        header, *slices = decoded
        assert header.endswith("]}") and text.startswith(header[:-2])
        pairs = doc.get("pairs", [])
        assert len(slices) in (len(pairs), len(pairs) + 1)
        at = len(header) - 2  # where the pairs' text starts
        for k, piece in enumerate(slices):
            start = at + len(",\n  {" if k else "\n  {") - 1
            at = start + len(piece)
            assert text[start:at] == piece and piece.startswith("{"), k
            closed = piece.find("\n  }")
            assert closed == len(piece) - 4 or (closed < 0 and
                                                at == len(text)), k
            if k < len(pairs):
                assert loads(piece) == pairs[k], k
                continue
            with pytest.raises((ValueError, RecursionError)) as got:
                loads(piece)
            assert type(got.value) is error[0], k
            if error[0] is json.JSONDecodeError:
                assert error[4] == min(start + got.value.pos, at), k

    @pytest.mark.parametrize("spoil,error", [
        ("pair_closes_early",
         "JSONDecodeError('Extra data: line 99 column 3 (char 1038)')"),
        ("pair_runs_past_its_closing_line",
         "JSONDecodeError(\"Expecting ',' delimiter: line 99 column 4 "
         "(char 1046)\")")])
    def test_pair_that_leaves_its_lines(self, capsys, tmp_path, spoil,
                                        error):
        # the error of the pair's text up to its closing line, at its
        # place in the file
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        path.write_text(SPOILS[spoil](path.read_text()))
        assert run(capsys, *PAIR_21_1, "--check", str(path)) == (
            1, "certificate FAILED\n",
            f"note: malformed certificate ({error})\n")

    def test_byte_not_utf8_after_the_first_chunk(self, capsys, tmp_path,
                                                 large_certificate):
        data = bytearray(large_certificate.read_bytes())
        at = len(data) // 2
        assert at > 2 * involutions._CHUNK
        data[at] = 0xFF
        path = tmp_path / "cert.json"
        path.write_bytes(data)
        code, out, err = run(capsys, *LARGE_PAIR, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        # one short line, with the byte's offset in the file
        assert err == f"note: {not_utf8_at(at)}\n" and len(err) < 200

    def test_byte_not_utf8_after_multibyte_text(self, capsys, tmp_path):
        # characters of 2, 3 and 4 bytes in the header, then white space
        # and the byte, all in the first chunk
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        text = path.read_text().replace('"family": "P"',
                                        '"family": "P' + "é€𝔾" * 50 + '"', 1)
        data = text.encode() + b" " * 20_000 + b"\xff"
        # 300 bytes more than characters before the byte
        assert len(data) - 1 == len(text) + 20_300 < involutions._CHUNK
        path.write_bytes(data)
        assert run(capsys, *PAIR_21_1, "--check", str(path)) == (
            1, "certificate FAILED\n", f"note: {not_utf8_at(len(data) - 1)}\n")

    def test_pair_fault_comes_before_a_later_byte_not_utf8(self, capsys,
                                                           tmp_path):
        tamper, reason = TAMPERS[0]  # a fault in pair 0
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        text = path.read_text()
        doc = json.loads(text)
        tamper(doc)
        # short lines of white space, then the byte, past the first chunk,
        # in the last pair
        after = b" \n" * involutions._CHUNK + b"\xff"
        for body, note in ((text, None), (as_written(doc), reason)):
            at = body.rindex(",\n  {") + len(",\n  {")
            path.write_bytes(body[:at].encode() + after + body[at:].encode())
            note = note or not_utf8_at(at + len(after) - 1)
            assert run(capsys, *PAIR_21_1, "--check", str(path)) == (
                1, "certificate FAILED\n", f"note: {note}\n")

    @pytest.mark.parametrize("opening", [True, False],
                             ids=["opening", "reading"])
    def test_os_error_is_usage_error(self, capsys, monkeypatch,
                                     large_certificate, opening):
        text = large_certificate.read_text()

        class FailsAfterOneRead(io.StringIO):
            def read(self, size=-1):
                if self.tell():
                    raise OSError(5, "Input/output error")
                return super().read(size)

        def fake_open(path, **kwargs):
            if opening:
                raise PermissionError(13, "Permission denied", path)
            return FailsAfterOneRead(text)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        code, out, err = run(capsys, *LARGE_PAIR, "--check",
                             str(large_certificate))
        assert (code, out) == (2, "")
        assert err == ("error: [Errno 13] Permission denied: "
                       f"'{large_certificate}'\n" if opening else
                       "error: [Errno 5] Input/output error\n")

    @pytest.mark.parametrize("layout", LAYOUTS, ids=[
        "indent_none", "indent_0", "indent_2", "compact", "unsorted_keys"])
    def test_other_layout_fails(self, capsys, tmp_path, layout):
        path = tmp_path / "cert.json"
        doc = pairing_certificate(StrictPartition((2, 1)),
                                  StrictPartition((1,)), 2, "P").to_json()
        path.write_text(json.dumps(doc, **layout))
        code, out, err = run(capsys, *PAIR_21_1, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        assert err.startswith("note: malformed certificate (")

    def test_one_line_copy_is_refused_at_its_start(self, capsys, tmp_path,
                                                   large_certificate):
        path = tmp_path / "large.json"
        text = json.dumps(json.loads(large_certificate.read_text()),
                          sort_keys=True)
        path.write_text(text)
        gc.collect()
        tracemalloc.start()
        try:
            result = run(capsys, *LARGE_PAIR, "--check", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "certificate FAILED\n",
                          f"note: {layout_at(text, 0)}\n")
        assert peak < 0.5 * path.stat().st_size

    def test_long_line_is_refused_within_a_read(self, capsys, tmp_path,
                                                large_certificate):
        # the first line as written, then the rest on one line, with no
        # line ' "pairs": [': the search for that line read on to the end,
        # and peaked at 2.92 times the file's size
        path = tmp_path / "large.json"
        text = "{\n " + json.dumps(json.loads(large_certificate.read_text()),
                                   sort_keys=True)[1:]
        assert text.startswith('{\n "family": "P", "lambda": ')
        path.write_text(text)
        gc.collect()
        tracemalloc.start()
        try:
            result = run(capsys, *LARGE_PAIR, "--check", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "certificate FAILED\n",
                          f"note: {layout_at(text, 2)}\n")
        assert peak < 0.5 * path.stat().st_size

    def test_check_holds_about_one_pair_at_a_time(self, capsys,
                                                  large_certificate):
        # the json.load path peaked at 4.5 times the file's size, and a
        # reader of the whole text at 2.0 times.  A first call in a process
        # also fills _setup's caches; a second one shows what the check
        # holds itself, its set of every element (about 0.3 times) among
        # it.  A full collection first empties the interpreter's free
        # lists, so that every tuple it makes is counted, whatever ran
        # before: with the first call's tuples to reuse, the second read
        # 0.25 to 0.33 times
        for warm, bound in ((False, 0.5), (True, 0.45)):
            gc.collect()
            tracemalloc.start()
            try:
                code = main([*LARGE_PAIR, "--check", str(large_certificate)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, capsys.readouterr().out) == (0, "certificate ok\n")
            assert peak < bound * large_certificate.stat().st_size, warm

    def test_out_holds_no_copy_per_tableau(self, capsys, tmp_path,
                                           large_certificate):
        # a Filling that kept a second tuple of its cells, and an iota that
        # built one per image, peaked at 1.15 times the file's size; a
        # Filling that held its cells in a dict, at 0.54 to 0.69 times
        path = tmp_path / "large.json"
        gc.collect()
        tracemalloc.start()
        try:
            code = main([*LARGE_PAIR, "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == \
            (0, "pairs=2402 leftover=0 ok\n")
        assert path.read_bytes() == large_certificate.read_bytes()
        assert peak < 0.5 * path.stat().st_size

    @pytest.mark.parametrize("key", ["lambda", "mu", "n", "family",
                                     "minimal_only", "pairs", "leftover"])
    def test_missing_key_is_named(self, capsys, tmp_path, key):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        del doc[key]
        text = as_written(doc)
        path.write_text(text)
        # with no "pairs" line the file leaves the layout at its end
        note = (layout_at(text, len(text)) if key == "pairs" else
                f"malformed certificate (KeyError({key!r}))")
        assert run(capsys, *PAIR_21_1, "--check", str(path)) == (
            1, "certificate FAILED\n", f"note: {note}\n")

    def test_header_mismatch_comes_before_malformed_pairs(self, capsys,
                                                          tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        doc["pairs"] = [0]
        path.write_text(as_written(doc))
        argv = list(PAIR_21_1)
        argv[argv.index("-n") + 1] = "3"
        assert run(capsys, *argv, "--check", str(path)) == (
            1, "certificate FAILED\n", f"note: {HEADER_21_1}\n")

    @pytest.mark.parametrize("content", [None, b"\xff\xff"],
                             ids=["missing", "not_utf8"])
    def test_bad_command_line_comes_before_the_file(self, capsys, tmp_path,
                                                    content):
        path = tmp_path / "cert.json"
        if content is not None:
            path.write_bytes(content)
        argv = list(PAIR_21_1)
        argv[argv.index("-n") + 1] = "0"
        assert run(capsys, *argv, "--check", str(path)) == \
            (2, "", "error: n must be at least 1\n")

    def test_out_and_check_are_exclusive(self, capsys, tmp_path):
        good, out = tmp_path / "cert.json", tmp_path / "new.json"
        run(capsys, *PAIR_21_1, "--out", str(good))
        code, stdout, err = run(capsys, *PAIR_21_1, "--out", str(out),
                                "--check", str(good))
        assert (code, stdout) == (2, "") and not out.exists()
        assert "not allowed with argument" in err

    def test_check_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, *PAIR_21_1, "--check",
                             str(tmp_path / "absent.json"))
        assert code == 2 and not out and "error" in err

    def test_out_into_missing_directory_is_usage_error(self, capsys,
                                                       tmp_path):
        code, out, err = run(capsys, *PAIR_21_1, "--out",
                             str(tmp_path / "missing" / "c.json"))
        assert code == 2 and not out and err.startswith("error: ")

    def test_out_bytes_equal_json_dumps(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        written = 0
        for lam, mu, family, n in _pair_cases(5, 2):
            if has_empty_set(lam, mu, family, n):
                with pytest.raises(ValueError, match="empty tableau set"):
                    pairing_certificate(lam, mu, n, family)
                continue
            cert = pairing_certificate(lam, mu, n, family)
            if path.exists():
                path.unlink()
            code, _, _ = run(capsys, "pair", "--lambda", str(lam), "--mu",
                             str(mu), "--family", family, "-n", str(n),
                             "--out", str(path))
            want = json.dumps(cert.to_json(), sort_keys=True, indent=1)
            assert code == 0 and path.read_text() == want, \
                (str(lam), str(mu), family, n)
            written += 1
        assert written > 100

    def test_scale_guard_names_the_count(self, capsys):
        # 7 boxes, but 758,368 tableaux: the guard counts tableaux
        code, out, err = run(capsys, "pair", "--lambda", "6,4,1", "--mu",
                             "4,2", "--family", "P", "-n", "3")
        assert code == 2 and not out
        assert err == ("error: infeasible scale: 758368 elements, above the "
                       f"limit of {PAIR_MAX_ELEMENTS}; use minimal_only\n")

    def test_empty_mu_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pair", "--lambda", "2,1", "--mu", "-",
                           "--family", "P", "-n", "2")
        assert code == 2 and "error" in err


def _written(cert) -> str:
    fh = io.StringIO()
    write_certificate(cert, fh)
    return fh.getvalue()


def _dumped(cert) -> str:
    return json.dumps(cert.to_json(), sort_keys=True, indent=1)


def _counted_pieces(monkeypatch) -> list:
    """The level of each ``involutions._pieces`` call from now on: 0 for
    the header, 3 for a side, 7 for a cell."""
    levels = []
    real = involutions._pieces

    def counted(doc, level):
        levels.append(level)
        return real(doc, level)

    monkeypatch.setattr(involutions, "_pieces", counted)
    return levels


class TestWriteCertificate:
    def test_small_cases(self):
        written = 0
        for lam, mu, family, n in _pair_cases(5, 2):
            for minimal_only in (False, True):
                request = (lam, mu, n, family, minimal_only)
                if has_empty_set(lam, mu, family, n):
                    with pytest.raises(ValueError, match="empty tableau set"):
                        pairing_certificate(*request)
                    continue
                cert = pairing_certificate(*request)
                assert _written(cert) == _dumped(cert), \
                    (str(lam), str(mu), family, n, minimal_only)
                written += 1
        assert written == 268

    def test_one_header_per_request(self):
        # the header _setup makes is the one the file states, and a
        # certificate holds nothing else but its pairs and leftover
        built = 0
        for lam, mu, family, n in _pair_cases(5, 2):
            if has_empty_set(lam, mu, family, n):
                continue
            for minimal_only in (False, True):
                cert = pairing_certificate(lam, mu, n, family, minimal_only)
                doc = json.loads(_written(cert))
                assert cert.header == {key: doc[key]
                                       for key in involutions._HEADER}
                assert list(cert.header) == list(involutions._HEADER)
                assert set(vars(cert)) == {"header", "pairs", "leftover"}
                built += 1
        assert built == 268

    def test_leftover(self):
        # elements of leftover sit one level less deep than paired ones
        cert = pairing_certificate(StrictPartition((3, 1)),
                                   StrictPartition((1,)), 2, "P")
        for p in cert.pairs[-2:]:
            cert.leftover.extend([p.left, p.right])
        del cert.pairs[-2:]
        assert len(cert.leftover) == 4 and _written(cert) == _dumped(cert)
        cert.leftover.extend(e for p in cert.pairs for e in p[:2])
        cert.pairs.clear()  # and an empty pair list
        assert _written(cert) == _dumped(cert)

    def test_row_inside_nu(self):
        cert = pairing_certificate(StrictPartition((4, 1)),
                                   StrictPartition((4,)), 2, "Q")
        doc = cert.to_json()
        assert [] in doc["pairs"][0]["left"]["tableau"]["rows"]
        assert _written(cert) == _dumped(cert)

    def test_kept_pieces_write_the_same_bytes(self, fresh_caches):
        # each request written cold, from cleared caches, and warm, after
        # every request was written, in both orders: among them requests
        # that differ only in n or only in family
        requests = [(sp(3, 1), sp(2), n, family) for family in "QP"
                    for n in (1, 2)]
        requests += [(sp(2, 1), sp(1), 2, family) for family in "PQ"]
        certs = [pairing_certificate(*request) for request in requests]
        cold = []
        for cert in certs:
            fresh_caches()
            cold.append(_written(cert))
        assert cold == [_dumped(cert) for cert in certs]
        for order in (certs, certs[::-1]):
            for cert in order:
                _written(cert)
            assert [_written(cert) for cert in certs] == cold

    def test_second_write_makes_no_side_or_cell_pieces(
            self, capsys, tmp_path, monkeypatch, fresh_caches):
        levels = _counted_pieces(monkeypatch)
        argv = ("pair", "--lambda", "3,1", "--mu", "2", "--family", "Q",
                "-n", "2", "--out", str(tmp_path / "cert.json"))
        assert run(capsys, *argv) == (0, "pairs=192 leftover=0 ok\n", "")
        first, levels[:] = sorted(set(levels)), []
        assert run(capsys, *argv) == (0, "pairs=192 leftover=0 ok\n", "")
        # only the header is encoded again, once per write
        assert first == [0, 3, 7] and levels == [0]

    def test_other_n_or_family_makes_no_side_pieces(
            self, monkeypatch, fresh_caches):
        # family and n are holes in the kept side pieces, so one lam // mu
        # shares them across requests; each write encodes its own header
        levels = _counted_pieces(monkeypatch)
        certs = [pairing_certificate(sp(3, 1), sp(2), n, family, minimal)
                 for family in "QP" for n in (2, 1)
                 for minimal in (False, True)]
        assert _written(certs[0]) == _dumped(certs[0])
        assert 0 in levels and 3 in levels
        levels.clear()
        for cert in certs[1:]:
            assert _written(cert) == _dumped(cert)
        assert levels == [0] * 7

    def test_every_header_key_is_written(self):
        # the header is written as _setup sets it, so a key added there
        # needs no change to the writer
        cert = pairing_certificate(sp(3, 1), sp(2), 2, "Q")
        cert.header["extra"] = [1, {"b": None}]
        assert _written(cert) == _dumped(cert)
        cert.pairs.clear()
        assert _written(cert) == _dumped(cert)

    def test_writes_a_pair_at_a_time(self, large_certificate):
        # the file's bytes, in writes of at most 64 KB, at least one a pair
        writes = []

        class Recorded(io.StringIO):
            def write(self, s):
                writes.append(s)
                return super().write(s)

        cert = pairing_certificate(StrictPartition((4, 2, 1)),
                                   StrictPartition((2, 1)), 3, "P")
        write_certificate(cert, Recorded())
        assert "".join(writes) == large_certificate.read_text()
        assert max(map(len, writes)) <= 1 << 16
        assert len(writes) > len(cert.pairs) == 2402

    @pytest.mark.parametrize("lam,mu,n", [("4,2,1", "2,1", 3),
                                          ("6,4,1", "4,2", 2)])
    def test_pool_certificates(self, lam, mu, n):
        cert = pairing_certificate(StrictPartition.parse(lam),
                                   StrictPartition.parse(mu), n, "P")
        text = _written(cert)
        assert len(text) > 3_000_000 and text == _dumped(cert)


class TestUsage:
    def test_no_args(self, capsys):
        assert run(capsys, )[0] == 2

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "poly", "--shape", "1,2",
                           "--family", "P", "-n", "1")
        assert code == 2 and "error" in err

    def test_bad_family(self, capsys):
        assert run(capsys, "poly", "--shape", "1", "--family", "XX",
                   "-n", "1")[0] == 2


def _parsed_whole(argv) -> int:
    """``main``'s exit code by the two parses of ``parse_args``: the whole
    argv, then the verb's options inside it, before the verb's handler."""
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return cli.USAGE if exc.code else cli.PASS
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.USAGE


POLY_21 = ("poly", "--shape", "2,1", "--family", "GP", "-n", "2")

# argv that main parses once, through the verb's parser, and argv it
# hands to parse_args: help, usage errors of every kind, and runs
DISPATCH_ARGV = {
    "no_argv": (),
    "help": ("-h",),
    "long_help": ("--help",),
    "help_after_verb": ("pair", "-h"),
    "help_after_options": (*POLY_21, "-h"),
    "unknown_verb": ("nosuchverb",),
    "verb_prefix": ("pai", "--lambda", "2,1", "--mu", "1"),
    "unknown_top_option": ("-x", "poly"),
    "option_abbreviations": ("poly", "--sha", "2,1", "--fam", "GP", "-n", "2"),
    "flag_abbreviation": (*PAIR_21_1, "--min"),
    "options_with_equals": ("poly", "--shape=2,1", "--family=GP", "-n2"),
    "missing_options": ("poly", "--shape", "3"),
    "missing_value": (*PAIR_21_1, "--out"),
    "extra_argument": (*POLY_21, "extra"),
    "extra_arguments": (*POLY_21, "a", "b"),
    "unknown_option": (*POLY_21, "--bogus", "1"),
    "bad_choice": ("poly", "--shape", "2,1", "--family", "XX", "-n", "2"),
    "bad_int": ("poly", "--shape", "2,1", "--family", "GP", "-n", "two"),
    "double_dash_after_verb": ("poly", "--", "--shape", "2,1"),
    "double_dash_first": ("--", *POLY_21),
    "out_with_check": (*PAIR_21_1, "--out", "a.json", "--check", "b.json"),
    "repeated_option": (*POLY_21, "--shape", "1"),
    "runs": POLY_21,
    "pair_runs": PAIR_21_1,
    "handler_refuses": ("poly", "--shape", "1,2", "--family", "P", "-n", "1"),
}


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_ARGV.values(),
                             ids=DISPATCH_ARGV)
    def test_one_parse_reads_as_parse_args(self, capsys, tmp_path,
                                           monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # a file an argv names lands here
        got = run(capsys, *argv)
        want = _parsed_whole(list(argv))
        assert got == (want, *capsys.readouterr())
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,code,start", [
        (POLY_21, 0, "x1*x2^2 + "),
        (("poly", "--shape", "3"), 2, "usage: kschur poly")])
    def test_main_reads_sys_argv(self, capsys, monkeypatch, argv, code,
                                 start):
        monkeypatch.setattr(sys, "argv", ["kschur", *argv])
        assert main() == code
        out, err = capsys.readouterr()
        assert (out or err).startswith(start)
        assert (code, out, err) == run(capsys, *argv)
