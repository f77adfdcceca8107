"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/selftest
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from shifted_kschur import polyring  # noqa: E402


def _pick(workload: str, ids: list[str]) -> list[dict]:
    pool = {r["id"]: r for r in workloads.load_pool(workload)["requests"]}
    return [pool[i] for i in ids]


# cheap requests covering every request kind, an empty tableau set included
SAMPLE = (
    _pick("sweep", [
        "special_value family=GP shape=3,1/1 n=2",
        "parity family=GQ shape=2,1 n=2",
        "beta_zero family=GP shape=3,1 n=2",
        "special_value family=GPdouble shape=3,1/1 n=2",
        "coproduct lam=2,1 nx=2 ny=1 family=GQ",
        "special_value family=GP shape=2,1 n=1",
    ])
    + _pick("big-poly", ["poly shape=6 family=P n=4 format=text",
                         "poly shape=5,1 family=P n=4 format=jsonl"])
    + _pick("certify", ["pair lam=3,1 mu=1 family=P n=2",
                        "pair lam=2,1 mu=1 family=Q n=1",
                        "verify_involution shape=3,1/1 max_n=2"])
)


def _snapshot_output(answer):
    """A comparable form of a request's answer (digest for certificates)."""
    if isinstance(answer, tuple) and len(answer) == 3 and \
            isinstance(answer[2], Path):
        made, checked, cert = answer
        digest = workloads._sha256(cert.read_bytes()) if cert.exists() else None
        return made, checked, digest
    if isinstance(answer, tuple):
        return tuple(_snapshot_output(a) for a in answer)
    if isinstance(answer, polyring.LaurentPoly):
        return str(answer)
    return repr(answer)


def test_sample_requests_pass_their_checks(tmp_path):
    assert any(r["expect"].get("empty") for r in SAMPLE)
    for req in SAMPLE:
        answer = workloads.execute(req, tmp_path)
        assert workloads.check(req, answer) is None, req["id"]
        workloads.discard(answer)


def test_same_seed_gives_same_stream():
    n = len(workloads.load_pool("sweep")["requests"])
    for p in range(3):
        assert workloads.pass_order(n, 7, p) == workloads.pass_order(n, 7, p)
        assert sorted(workloads.pass_order(n, 7, p)) == list(range(n))
    assert workloads.pass_order(n, 7, 0) != workloads.pass_order(n, 8, 0)
    assert workloads.pass_order(n, 7, 0) != workloads.pass_order(n, 7, 1)


def test_traced_and_untraced_outputs_identical(tmp_path):
    untraced = []
    for req in SAMPLE:
        answer = workloads.execute(req, tmp_path)
        untraced.append(_snapshot_output(answer))
        workloads.discard(answer)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = []
        for no, req in enumerate(SAMPLE):
            tr.begin(no)
            answer = workloads.execute(req, tmp_path)
            tr.finish()
            traced.append(_snapshot_output(answer))
            workloads.discard(answer)
    finally:
        tr.restore()
    assert traced == untraced
    assert len(tr.name) > 0


def _namespace():
    snap = {}
    for name, module in sys.modules.items():
        if name == "shifted_kschur" or name.startswith("shifted_kschur."):
            for attr, obj in vars(module).items():
                snap[(name, attr)] = obj
                if isinstance(obj, type):
                    for a, o in vars(obj).items():
                        snap[(name, attr, a)] = o
    return snap


def test_module_attributes_restored_after_traced_run(tmp_path):
    before = _namespace()
    client = run.Client(workloads, tmp_path)
    tr, metrics = _traced(client)
    after = _namespace()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed
    assert not client.failures


def _traced(client):
    tr = tracer.Tracer()
    tr.install()
    try:
        walls = [client.issue(req, tr, no) for no, req in enumerate(SAMPLE)]
    finally:
        tr.restore()
    return tr, tr.layer_metrics(sum(walls))


def test_layer_self_times_within_traced_wall(tmp_path):
    tr, m = _traced(run.Client(workloads, tmp_path))
    assert 0 < m["trace.layer_self_sum_s"]["value"] <= m["trace.wall_s"]["value"]
    # 2 poly, pair --out and --check, a refused pair (empty set), 1 involution
    assert m["cli.requests"]["value"] == 6
    assert m["enumeration.fillings"]["value"] > 0
    assert m["enumeration.fillings"]["value"] <= \
        m["tableaux.fillings_built"]["value"]
    assert m["involutions.empty_sets"]["value"] >= 1
    assert m["polyring.terms_out"]["value"] > 0
    assert all(v >= 0 for k, v in
               ((k, x["value"]) for k, x in m.items()) if k.endswith("_s"))


def test_spans_round_trip_through_dump(tmp_path):
    tr, _ = _traced(run.Client(workloads, tmp_path))
    tr.dump(tmp_path / "spans.bin")
    names, columns = tracer.read_spans(tmp_path / "spans.bin")
    assert names == tr.names
    for c in tracer.SPAN_COLUMNS:
        assert columns[c] == getattr(tr, c)
    assert "cli.main" in names and "tableaux.Filling.__init__" in names


def test_generator_busy_time_excludes_the_consumer(tmp_path):
    from time import perf_counter, sleep
    from shifted_kschur import enumeration
    from shifted_kschur.enumeration import EnumSpec
    from shifted_kschur.shapes import SkewShape

    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin(0)
        t0 = perf_counter()
        spec = EnumSpec(SkewShape.parse("2,1"), 2, "P")
        for _ in enumeration.enumerate_fillings(spec):
            sleep(0.01)
        wall = perf_counter() - t0
        tr.finish()
    finally:
        tr.restore()
    m = tr.layer_metrics(wall)
    assert m["enumeration.fillings"]["value"] >= 3
    assert m["enumeration.busy_s"]["value"] < 0.01


def test_tampered_digest_is_a_failure(tmp_path):
    for req in (SAMPLE[6], SAMPLE[8]):
        bad = copy.deepcopy(req)
        bad["expect"]["sha256"] = "0" * 64
        client = run.Client(workloads, tmp_path)
        client.issue(bad)
        assert [why for _, why in client.failures] and \
            "digest" in client.failures[0][1]


@pytest.mark.parametrize("index, key, value", [
    (0, "value", "b^9"), (3, "value", "b"), (4, "terms", 0)])
def test_tampered_stored_value_is_a_failure(tmp_path, index, key, value):
    bad = copy.deepcopy(SAMPLE[index])
    bad["expect"][key] = value
    client = run.Client(workloads, tmp_path)
    client.issue(bad)
    assert [rid for rid, _ in client.failures] == [bad["id"]]


def test_raising_request_fails_without_stopping_the_run(tmp_path):
    broken = {"id": "broken", "kind": "no-such-kind", "args": {},
              "expect": {}}
    pool = [SAMPLE[0], broken, SAMPLE[1]]
    client = run.Client(workloads, tmp_path)
    raw, best = run.run_passes(client, pool, seed=3, passes=2)
    assert best == raw and max(best) < float("inf")
    assert len(client.latencies) == 6
    assert [rid for rid, _ in client.failures] == ["broken", "broken"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pool_ids_are_unique(name):
    ids = [r["id"] for r in workloads.load_pool(name)["requests"]]
    assert len(ids) == len(set(ids))
