import json

import pytest

from shifted_kschur.cli import main


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

    def test_coproduct(self, capsys):
        code, out, _ = run(capsys, "identity", "--check", "coproduct",
                           "--max-weight", "3", "--nx", "1", "--ny", "1")
        assert code == 0

    def test_unknown_check_rejected(self, capsys):
        code, _, _ = run(capsys, "identity", "--check", "nonsense")
        assert code == 2


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


class TestPair:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "pair", "--lambda", "2,1", "--mu", "1",
                           "--family", "P", "-n", "2", "--out", str(path))
        assert code == 0 and out.strip().endswith("ok")
        code, out, _ = run(capsys, "pair", "--lambda", "2,1", "--mu", "1",
                           "--family", "P", "-n", "2", "--check", str(path))
        assert code == 0 and out.strip() == "certificate ok"

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "pair", "--lambda", "2,1", "--mu", "1",
            "--family", "P", "-n", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["pairs"] = doc["pairs"][:-1]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "pair", "--lambda", "2,1", "--mu", "1",
                           "--family", "P", "-n", "2", "--check", str(path))
        assert code == 1 and "FAILED" in out

    def test_empty_mu_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pair", "--lambda", "2,1", "--mu", "-",
                           "--family", "P", "-n", "2")
        assert code == 2 and "error" in err


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
