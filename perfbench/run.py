"""Benchmark of shifted_kschur: one closed-loop client, one thread, no pool.

    python3 perfbench/run.py --workload sweep|big-poly|certify --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The client issues the next request only after the
previous one has returned.  Every answer is checked against the frozen pool
in ``perfbench/pools`` outside the timed region.

--trace 0 runs max(2, S // PASS_SECONDS) passes over the pool, each in a
seeded order with the package's caches cleared in between, and reports the
end-to-end metrics over each request's fastest execution (see NOTES.md).

--trace 1 runs a seeded prefix of one pass untraced (about S/4 seconds of
request time), then the whole pass with every public function of the
package wrapped (see tracer.py), and reports the per-layer metrics.

The last line of stdout is the result object; the line before it and the
file written under ``.perfbench_out/`` record the run's context.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Every pool is sized so that one pass takes 6-12 s on the machine in
# NOTES.md; --seconds 36 then gives the 3 passes the estimator needs.
PASS_SECONDS = 12
# Set-up probes are spread over the run, one at most every PROBE_EVERY
# seconds, so that their median spans the host's slow and fast phases.
PROBE_EVERY = 2.0
UNTRACED_SHARE = 0.25
# Service times are scaled to a machine on which the reference kernel takes
# REF_SECONDS; see Speedometer and NOTES.md.
REF_SECONDS = 0.2e-3
SPEED_EVERY = 0.1
SPEED_WINDOW = 0.5


def bootstrap() -> None:
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (SRC / "shifted_kschur" / "__init__.py").is_file():
        sys.exit(f"error: no src/shifted_kschur under {ROOT}; "
                 "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import shifted_kschur
    if Path(shifted_kschur.__file__).resolve().parent != \
            (SRC / "shifted_kschur").resolve():
        sys.exit(f"error: imported shifted_kschur from "
                 f"{shifted_kschur.__file__}, not from {SRC}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shifted_kschur").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Start and spawn-to-ready time of a fresh interpreter (setup_probe.py)."""
    t0 = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        took = perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or not line.startswith("ready"):
        sys.exit(f"error: set-up probe failed with exit {p.returncode}")
    return t0, took


def _reference_kernel():
    """Fixed pure-Python work, independent of the package."""
    d = {}
    for i in range(600):
        k = (i & 15, i % 7)
        d[k] = d.get(k, 0) + i
    return sorted(d.items())


class Speedometer:
    """How fast the machine runs a fixed kernel, sampled between requests.

    Other tenants of a shared host can slow it down by up to a third for
    minutes at a time.  A sample is the best of three runs of the kernel; an
    execution's scale is REF_SECONDS over the median sample within
    SPEED_WINDOW of it.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] > SPEED_EVERY

    def sample(self) -> None:
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            _reference_kernel()
            best = min(best, perf_counter() - t0)
        self.at.append(perf_counter())
        self.took.append(best)

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect_left(self.at, t0 - SPEED_WINDOW)
        hi = bisect_right(self.at, t1 + SPEED_WINDOW)
        return REF_SECONDS / statistics.median(
            self.took[max(0, lo - 1):hi + 1])


class Client:
    """Issues requests one at a time, timing each and checking its answer."""

    def __init__(self, workloads, workdir: Path,
                 speed: Speedometer | None = None):
        self.w, self.workdir, self.speed = workloads, workdir, speed
        self.started: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []

    def issue(self, req: dict, tracer=None, request_no: int = 0) -> float:
        if self.speed is not None and self.speed.due():
            self.speed.sample()
        if tracer is not None:
            tracer.begin(request_no)
        t0 = perf_counter()
        try:
            answer, error = self.w.execute(req, self.workdir), None
        except Exception as exc:  # a failed request must not stop the run
            answer, error = None, exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.finish()
        if self.speed is not None and self.speed.due():
            self.speed.sample()
        try:
            why = self.w.check(req, answer, error)
        except Exception as exc:
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
            print(f"FAILED {req['id']}: {why}", file=sys.stderr)
            self.failures.append((req["id"], why))
        self.w.discard(answer)
        self.started.append(t0)
        self.latencies.append(dt)
        return dt


def fresh_pass(workloads) -> None:
    workloads.clear_caches()
    gc.collect()


def run_passes(client: Client, pool: list[dict], seed: int, passes: int,
               between=lambda: None) -> tuple[list[float], list[float]]:
    """Issue every request once per pass.

    Returns each request's fastest raw time and its fastest service time,
    the raw time scaled by the client's Speedometer (1 without one).
    """
    issued = []
    for p in range(passes):
        fresh_pass(client.w)
        for i in client.w.pass_order(len(pool), seed, p):
            between()
            client.issue(pool[i])
            issued.append(i)
    raw = [math.inf] * len(pool)
    best = [math.inf] * len(pool)
    for i, t0, dt in zip(issued, client.started, client.latencies):
        scale = client.speed.scale(t0, t0 + dt) if client.speed else 1.0
        raw[i] = min(raw[i], dt)
        best[i] = min(best[i], dt * scale)
    return raw, best


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(best: list[float]) -> dict:
    return {
        "requests_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": (p90(best) * 1e3, "ms"),
    }


def end_to_end(best: list[float], client: Client,
               setup: list[tuple[float, float]]) -> dict:
    """The --trace 0 metrics; set-up probes are scaled like requests."""
    scaled = [dt * client.speed.scale(t0, t0 + dt) for t0, dt in setup]
    metrics = {
        **latency_metrics(best),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(scaled), "s"),
        "ok_share": (1 - len(client.failures) / len(client.latencies),
                     "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(client: Client, pool: list[dict], seed: int, seconds: float):
    """Untraced prefix, then the whole pass traced.

    Returns the tracer, the per-layer metrics and the prefix length.
    """
    from tracer import Tracer

    w = client.w
    order = w.pass_order(len(pool), seed, 0)
    fresh_pass(w)
    untraced = 0.0
    for k, i in enumerate(order, start=1):
        untraced += client.issue(pool[i])
        if untraced >= seconds * UNTRACED_SHARE:
            break
    tracer = Tracer()
    try:
        tracer.install()
        fresh_pass(w)
        traced = [client.issue(pool[i], tracer, no)
                  for no, i in enumerate(order)]
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics(sum(traced))
    metrics["trace.overhead_share"] = {
        "value": (sum(traced[:k]) - untraced) / untraced, "unit": "ratio"}
    return tracer, metrics, k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "big-poly", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import workloads

    pool = workloads.load_pool(args.workload)["requests"]
    passes = 1 if args.trace else max(2, int(args.seconds // PASS_SECONDS))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    client = Client(workloads, workdir, None if args.trace else Speedometer())
    tracer, raw, best, setup, prefix = None, [], [], [], None
    try:
        if args.trace:
            tracer, metrics, prefix = traced_run(client, pool, args.seed,
                                                 args.seconds)
        else:
            last_probe = -math.inf

            def probe():
                nonlocal last_probe
                if perf_counter() - last_probe >= PROBE_EVERY:
                    client.speed.sample()
                    setup.append(setup_probe(args.workload, args.seed))
                    client.speed.sample()
                    last_probe = perf_counter()
            raw, best = run_passes(client, pool, args.seed, passes, probe)
            metrics = end_to_end(best, client, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not client.failures
    if tracer is not None:
        sums = metrics["trace.layer_self_sum_s"]["value"]
        if sums > metrics["trace.wall_s"]["value"]:
            print("FAILED: layer self times exceed the traced wall time",
                  file=sys.stderr)
            correct = False
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "pool_requests": len(pool), "passes": passes,
        "executions": len(client.latencies), "samples": len(best),
        "setup_probes": [dt for _, dt in setup],
        "failures": client.failures[:20],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if best:
        cut = p90(best)
        info.update(
            samples_above_p90=sum(1 for x in best if x > cut),
            raw_fastest={k: v for k, (v, _) in latency_metrics(raw).items()},
            speed_samples_ms=[statistics.median(client.speed.took) * 1e3,
                              len(client.speed.took)])
    if tracer is not None:
        info.update(overhead_base_requests=prefix,
                    span_rows=len(tracer.name))
    result = {"correct": correct, "attempted": len(client.latencies),
              "failed": len(client.failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"{args.workload}-spans.bin")
    print("run-info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
