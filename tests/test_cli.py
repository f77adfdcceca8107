import io
import json

import pytest

from shifted_kschur import genfunc
from shifted_kschur.cli import main
from shifted_kschur.involutions import (PAIR_MAX_ELEMENTS, pairing_certificate,
                                        write_certificate)
from shifted_kschur.polyring import LaurentPoly
from shifted_kschur.shapes import (StrictPartition,
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)
from tests.conftest import TAMPERS


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
                           "--mu", "7,5,4,2", "--shortcut")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "0"
        assert len(lines) == 9
        assert sum(l.endswith("sign=+1") for l in lines[1:]) == 4
        assert sum(l.endswith("sign=-1") for l in lines[1:]) == 4

    def test_tableau_level(self, capsys):
        code, out, _ = run(capsys, "double-skew", "--lambda", "2,1",
                           "--mu", "1", "--family", "GQ", "-n", "2")
        assert code == 0 and out.strip() == "0"

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "double-skew", "--lambda", "2,1",
                           "--mu", "1")
        assert code == 2 and "-n" in err

    def test_empty_set_does_not_apply(self, capsys):
        # lambda/nu for nu = mu minus its box is 2,1, with no tableau in n=1
        code, out, err = run(capsys, "double-skew", "--lambda", "2,1",
                             "--mu", "1", "--family", "GP", "-n", "1")
        assert (code, out) == (2, "b^2\n")
        assert err == ("note: the tableau set of 2,1 is empty; the "
                       "vanishing statement does not apply\n")

    @pytest.mark.parametrize("path", [("--shortcut",),
                                      ("--family", "GP", "-n", "2")])
    def test_empty_mu_does_not_apply(self, capsys, path):
        # with mu empty the value is b^|lambda|, not a failure of vanishing
        code, out, err = run(capsys, "double-skew", "--lambda", "2,1",
                             "--mu", "-", *path)
        assert (code, out) == (2, "b^3\n")
        assert err == ("note: mu is empty; the vanishing statement does "
                       "not apply\n")

    @pytest.mark.parametrize("path", [("--shortcut",),
                                      ("--family", "GP", "-n", "2")])
    def test_mu_outside_lambda_is_usage_error(self, capsys, path):
        # both paths reject the shape before printing a value
        code, out, err = run(capsys, "double-skew", "--lambda", "2,1",
                             "--mu", "3", *path)
        assert (code, out) == (2, "")
        assert err == "error: 3 is not contained in 2,1\n"

    @pytest.mark.parametrize("path", [("--shortcut",),
                                      ("--family", "GP")])
    def test_n_below_one_is_usage_error(self, capsys, path):
        # the shortcut does not use n, but a given n is still checked
        assert run(capsys, "double-skew", "--lambda", "2,1", "--mu", "1",
                   "-n", "0", *path) == (2, "", "error: n must be at least 1\n")


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--shape", "1",
                           "--family", "Q", "-n", "1", "--count-only")
        assert code == 0 and out.strip() == "3"

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


class TestPoly:
    def test_gq_one_box(self, capsys):
        code, out, _ = run(capsys, "poly", "--shape", "1",
                           "--family", "GQ", "-n", "1")
        assert code == 0 and out.strip() == "2*x1 + x1^2*b"


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

    def test_pq_factor_skew_skips_skew_shapes(self, capsys):
        code, out, _ = run(capsys, "identity", "--check", "pq-factor",
                           "--skew", "--max-weight", "2", "--max-n", "1")
        assert code == 0
        assert out == "shape=1 n=1 ok\nshape=2 n=1 ok\n"

    def test_coproduct(self, capsys):
        code, out, _ = run(capsys, "identity", "--check", "coproduct",
                           "--max-weight", "3", "--nx", "1", "--ny", "1")
        assert code == 0

    def test_coproduct_guard_refuses_before_the_sweep(self, capsys,
                                                       monkeypatch):
        def refuse(*args):
            raise AssertionError("ran an instance past the guard")

        monkeypatch.setattr(genfunc, "coproduct_check", refuse)
        code, out, err = run(capsys, "identity", "--check", "coproduct",
                             "--max-weight",
                             str(genfunc.COPRODUCT_MAX_WEIGHT + 1))
        assert (code, out) == (2, "")
        assert err == "error: coproduct guard exceeded: |lambda| too large\n"

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

    @pytest.mark.parametrize("check,total", [
        ("beta-zero", 18), ("coproduct", 24)])
    def test_budget_cut_reported(self, capsys, check, total):
        code, out, _ = run(capsys, "identity", "--check", check,
                           "--time-budget", "0")
        assert (code, out) == (
            0, f"partial sweep: covered 0/{total} instances\n")

    def test_failing_check_fails_the_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(genfunc, "beta_zero",
                            lambda spec: LaurentPoly.zero(spec.n))
        code, out, _ = run(capsys, "identity", "--check", "beta-zero",
                           "--max-weight", "2", "--max-n", "1")
        assert (code, out) == (1, "shape=1 n=1 FAIL\nshape=2 n=1 FAIL\n")


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
        code, out, _ = run(capsys, "verify-involution", "--max-weight", "3",
                           "--max-n", "1", "--time-budget", "0")
        assert code == 0 and out == "partial sweep: covered 0/26 instances\n"


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
     "--time-budget must not be negative")])
def test_sweep_with_nothing_to_check_is_usage_error(capsys, argv, message):
    # no instance, or no time for one: exit 2 before any line
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


PAIR_21_1 = ("pair", "--lambda", "2,1", "--mu", "1", "--family", "P",
             "-n", "2")


def _pair_cases(max_weight, max_n):
    for lam in strict_partitions_up_to_weight(max_weight):
        for mu in strict_subpartitions(lam):
            if not mu:
                continue
            for family in ("P", "Q"):
                for n in range(1, max_n + 1):
                    yield lam, mu, family, n


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
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, *PAIR_21_1, "--check", str(path))
        assert code == 1 and "FAILED" in out

    @pytest.mark.parametrize("tamper,reason", TAMPERS,
                             ids=[t.__name__ for t, _ in TAMPERS])
    def test_each_tamper_fails(self, capsys, tmp_path, tamper, reason):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        if tamper.__name__ == "_tamper_header_n":  # the file's own header
            reason = ("certificate is for lambda=2,1 mu=1 family=P n=3 "
                      "minimal_only=False")
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
        code, out, err = run(capsys, *argv, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        assert "certificate is for lambda=2,1 mu=1 family=P n=2 " \
            "minimal_only=False" in err

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

    @pytest.mark.parametrize("cut", [lambda data: data[:200],
                                     lambda data: b"\xff\xff",
                                     lambda data: b"[" * 100_000],
                             ids=["truncated", "not_utf8", "deeply_nested"])
    def test_file_that_is_not_json_fails(self, capsys, tmp_path, cut):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        path.write_bytes(cut(path.read_bytes()))
        code, out, err = run(capsys, *PAIR_21_1, "--check", str(path))
        assert (code, out) == (1, "certificate FAILED\n")
        assert err.startswith("note: malformed certificate (")

    @pytest.mark.parametrize("key", ["lambda", "mu", "n", "family",
                                     "minimal_only", "pairs", "leftover"])
    def test_missing_key_is_named(self, capsys, tmp_path, key):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        assert run(capsys, *PAIR_21_1, "--check", str(path)) == (
            1, "certificate FAILED\n",
            f"note: malformed certificate (KeyError({key!r}))\n")

    def test_header_mismatch_comes_before_malformed_pairs(self, capsys,
                                                          tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, *PAIR_21_1, "--out", str(path))
        doc = json.loads(path.read_text())
        del doc["pairs"]
        path.write_text(json.dumps(doc))
        argv = list(PAIR_21_1)
        argv[argv.index("-n") + 1] = "3"
        assert run(capsys, *argv, "--check", str(path)) == (
            1, "certificate FAILED\n", "note: certificate is for lambda=2,1 "
            "mu=1 family=P n=2 minimal_only=False\n")

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
            try:
                cert = pairing_certificate(lam, mu, n, family)
            except ValueError:  # an empty tableau set
                continue
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


class TestWriteCertificate:
    def test_small_cases(self):
        written = 0
        for lam, mu, family, n in _pair_cases(5, 2):
            for minimal_only in (False, True):
                try:
                    cert = pairing_certificate(lam, mu, n, family,
                                               minimal_only)
                except ValueError:  # an empty tableau set
                    continue
                assert _written(cert) == _dumped(cert), \
                    (str(lam), str(mu), family, n, minimal_only)
                written += 1
        assert written == 268

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
