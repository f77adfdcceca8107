"""Regenerate the frozen request pools and their expected outputs.

    python3 perfbench/gen_pools.py [--workload NAME]

Runs every request once against the package in ``src/`` and writes
``perfbench/pools/<workload>.json``.  The expected outputs are what the
program answers at the commit it runs on; the theorem checks here and in
``workloads.check`` must hold for every one of them, or nothing is written.
Prints the pass time and the median and largest request time per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from shifted_kschur import (enumeration, genfunc, involutions,  # noqa: E402
                            polyring)
from shifted_kschur.shapes import (SkewShape,  # noqa: E402
                                   strict_partitions_up_to_weight,
                                   strict_subpartitions)


def _skew(max_weight: int, min_weight: int = 1):
    for lam in strict_partitions_up_to_weight(max_weight):
        if lam.weight < min_weight:
            continue
        for mu in sorted(strict_subpartitions(lam), key=lambda m: m.parts):
            yield lam, mu


def _count(shape: SkewShape, family: str, n: int) -> int:
    return enumeration.count(enumeration.EnumSpec(shape, n, family))


def _nonempty(shape: SkewShape, family: str, n: int) -> bool:
    try:
        involutions.minimal_tableau(shape, family, n)
    except ValueError:
        return False
    return True


def _req(kind: str, args: dict, expect: dict | None = None) -> dict:
    rid = kind + " " + " ".join(f"{k}={v}" for k, v in args.items())
    return {"id": rid, "kind": kind, "args": args, "expect": expect or {}}


def sweep_requests() -> list[dict]:
    out = []
    for lam, mu in _skew(6):
        shape = SkewShape(lam, mu)
        for n in range(1, 4):
            for fam in ("GP", "GQ"):
                if fam == "GQ" and n == 3 and lam.weight == 6:
                    continue  # slow tail, see NOTES.md
                c = _count(shape, fam[1], n)
                args = {"family": fam, "shape": str(shape), "n": n}
                for kind in ("special_value", "parity", "beta_zero"):
                    out.append(_req(kind, dict(args),
                                    {"count": c, "empty": c == 0}))
    for lam, mu in _skew(5):
        if not mu:
            continue
        nus = [t.nu for t in genfunc.double_skew_shortcut(lam, mu).terms]
        for n in range(1, 4):
            for fam in ("GPdouble", "GQdouble"):
                out.append(_req("special_value", {
                    "family": fam, "shape": f"{lam}/{mu}", "n": n}, {
                    "theorem": all(_nonempty(SkewShape(lam, nu), fam[1], n)
                                   for nu in nus)}))
    for lam in strict_partitions_up_to_weight(5):
        if not lam:
            continue
        for nx, ny in ((2, 1), (1, 2)):
            for fam in ("P", "Q", "GP", "GQ"):
                out.append(_req("coproduct", {"lam": str(lam), "nx": nx,
                                              "ny": ny, "family": fam}))
    return out


def big_poly_requests() -> list[dict]:
    out = []
    for lam in strict_partitions_up_to_weight(10):
        if lam.weight < 6:
            continue
        if lam.weight >= 9:  # cheap, and lifts the pool past 100 requests
            cases = [("P", 4)] + ([("Q", 4)] if lam.weight == 9 else [])
        else:
            cases = [("P", 4), ("P", 5), ("Q", 4), ("Q", 5), ("GP", 3),
                     ("GQ", 3)]
        if lam.weight == 8:  # left out for run length, see NOTES.md
            cases = [c for c in cases if c not in (("Q", 5), ("GQ", 3))]
        if lam.weight == 6:
            cases.append(("GP", 4))  # weights 7 and 8 are the slow tail
        for fam, n in cases:
            fmt = "jsonl" if len(out) % 2 else "text"
            out.append(_req("poly", {"shape": str(lam), "family": fam,
                                     "n": n, "format": fmt}))
    return out


def certify_requests() -> list[dict]:
    out = []
    for lam, mu in _skew(6):
        if not mu:
            continue
        for fam in ("P", "Q"):
            for n in (1, 2):
                if fam == "Q" and n == 2 and lam.weight == 6:
                    continue  # left out for run length, see NOTES.md
                out.append(_req("pair", {"lam": str(lam), "mu": str(mu),
                                         "family": fam, "n": n}))
    for lam, mu in _skew(5):
        shape = str(SkewShape(lam, mu))
        out.append(_req("verify_involution", {"shape": shape, "max_n": 2}))
    for lam, mu, n, minimal in (("4,2,1", "2,1", 3, False),
                                ("6,4,1", "4,2", 2, False),
                                ("9,8,6,4", "7,5,4,2", 2, True)):
        args = {"lam": lam, "mu": mu, "family": "P", "n": n}
        if minimal:
            args["minimal_only"] = True
        out.append(_req("pair", args))
    return out


def expect(req: dict, answer) -> dict:
    """The expected-output record for one request, from its answer now."""
    kind, a, e = req["kind"], req["args"], dict(req["expect"])
    if kind == "special_value":
        e["value"] = str(answer)
        if "theorem" not in e:  # GP/GQ: b^|lam/mu|, or 0 on an empty set
            n, size = a["n"], SkewShape.parse(a["shape"]).size
            want = (polyring.LaurentPoly.zero(n) if e["empty"]
                    else polyring.LaurentPoly.beta(n, size))
            assert answer == want, (req["id"], str(answer), str(want))
    elif kind == "coproduct":
        e["terms"] = len(answer.lhs.terms)
    elif kind == "poly":
        code, out, _ = answer
        assert code == 0, (req["id"], code)
        e.update(sha256=workloads._sha256(out.encode()), bytes=len(out))
    elif kind == "verify_involution":
        code, out, _ = answer
        assert code == 0, (req["id"], code)
        shape = SkewShape.parse(a["shape"])
        lines, empty = {}, []
        for n in range(1, a["max_n"] + 1):
            for fam in ("P", "Q"):
                inst = f"{fam} {n}"
                prefix = f"shape={a['shape']} family={fam} n={n} "
                got = [ln for ln in out.splitlines() if ln.startswith(prefix)]
                if _count(shape, fam, n) == 0:
                    assert not got, (req["id"], got)
                    empty.append(inst)
                else:
                    lines[inst] = got[0][len(prefix):]
        e.update(lines=lines, empty=empty)
    elif kind == "pair":
        (code, out, err), checked, cert = answer
        e["empty"] = code == workloads.cli.USAGE and "empty" in err
        if not e["empty"]:
            assert code == 0 and checked[0] == 0, (req["id"], out, checked)
            e["pairs"] = int(out.split()[0].split("=")[1])
            data = cert.read_bytes()
            e.update(sha256=workloads._sha256(data), bytes=len(data))
    return e


BUILDERS = {"sweep": sweep_requests, "big-poly": big_poly_requests,
            "certify": certify_requests}


def generate(workload: str, workdir: Path) -> list[dict]:
    pool, times = BUILDERS[workload](), []
    for req in pool:
        t0 = time.perf_counter()
        answer = workloads.execute(req, workdir)
        times.append(time.perf_counter() - t0)
        req["expect"] = expect(req, answer)
        why = workloads.check(req, answer)
        if why is not None:
            raise SystemExit(f"{req['id']}: {why}")
        workloads.discard(answer)
    slowest = max(range(len(pool)), key=times.__getitem__)
    print(f"{workload}: {len(pool)} requests, pass {sum(times):.2f} s, "
          f"median {statistics.median(times) * 1e3:.2f} ms, "
          f"max {times[slowest]:.2f} s ({pool[slowest]['id']})")
    return pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        action="append")
    args = parser.parse_args(argv)
    workloads.POOL_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        for name in args.workload or workloads.WORKLOADS:
            pool = generate(name, Path(tmp))
            with open(workloads.POOL_DIR / f"{name}.json", "w") as fh:
                json.dump({"workload": name, "requests": pool}, fh,
                          indent=0, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
