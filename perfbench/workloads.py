"""Request pools, request execution and answer checks for the three workloads.

A pool file holds the request list.  Each request has an ``id``, a
``kind``, the ``args`` handed to the program and the ``expect`` record the
checker compares against.  The expected values are stored as text or
digests, so a check does not take its answer from the code it measures.  Requests reach the program through the public API
(``sweep``) or through ``shifted_kschur.cli.main(argv)`` (``big-poly``,
``certify``).  Every library name is looked up on its module at call time,
so the traced run sees the calls its wrappers intercept.

Execution (``execute``) is the timed part of a request; checking (``check``)
runs afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from pathlib import Path

from shifted_kschur import cli, genfunc, polyring, shapes

HERE = Path(__file__).resolve().parent
POOL_DIR = HERE / "pools"
WORKLOADS = ("sweep", "big-poly", "certify")


def load_pool(workload: str) -> dict:
    """The pool file, with the request list under ``requests``."""
    with open(POOL_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def pass_order(size: int, seed: int, pass_no: int) -> list[int]:
    """The seeded order in which one pass issues every request of the pool."""
    order = list(range(size))
    random.Random(seed * 1_000_003 + pass_no).shuffle(order)
    return order


def clear_caches() -> None:
    """Drop every functools cache in the package, so no answer crosses passes."""
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


# -- execution ---------------------------------------------------------------

def _spec(family: str, shape: str, n: int):
    return genfunc.FunctionSpec(family, shapes.SkewShape.parse(shape), n)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _pair_argv(a: dict) -> list[str]:
    argv = ["pair", "--lambda", a["lam"], "--mu", a["mu"],
            "--family", a["family"], "-n", str(a["n"])]
    return argv + (["--minimal-only"] if a.get("minimal_only") else [])


def execute(req: dict, workdir: Path):
    """Issue one request and return its raw answer (the timed part)."""
    kind, a = req["kind"], req["args"]
    if kind == "special_value":
        return genfunc.special_value(_spec(a["family"], a["shape"], a["n"]))
    if kind == "parity":
        return genfunc.parity_report(_spec(a["family"], a["shape"], a["n"]))
    if kind == "beta_zero":
        return (genfunc.beta_zero(_spec(a["family"], a["shape"], a["n"])),
                genfunc.compute(_spec(a["family"][1], a["shape"], a["n"])))
    if kind == "coproduct":
        return genfunc.coproduct_check(shapes.StrictPartition.parse(a["lam"]),
                                       a["nx"], a["ny"], a["family"])
    if kind == "poly":
        return _run_cli(["poly", "--shape", a["shape"], "--family",
                         a["family"], "-n", str(a["n"]),
                         "--format", a["format"]])
    if kind == "verify_involution":
        return _run_cli(["verify-involution", "--shape", a["shape"],
                         "--max-n", str(a["max_n"])])
    if kind == "pair":
        cert = workdir / "cert.json"
        if cert.exists():
            cert.unlink()
        made = _run_cli(_pair_argv(a) + ["--out", str(cert)])
        checked = (_run_cli(_pair_argv(a) + ["--check", str(cert)])
                   if cert.exists() else None)
        return made, checked, cert
    raise ValueError(f"unknown request kind {kind!r}")


# -- checks ------------------------------------------------------------------

_CLAIM = re.compile(r"(^|\s)ok$", re.M)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_empty_refusal(exc: Exception) -> bool:
    return isinstance(exc, ValueError) and "empty" in str(exc)


def check(req: dict, answer=None, error: Exception | None = None) -> str | None:
    """None if the answer is right, else a one-line reason.

    Requests on an empty tableau set (``expect.empty``) accept today's answer,
    a refusal that says "empty", or an explicit empty report; they fail only
    on a claimed verification or an exception that is not such a refusal.
    """
    e = req["expect"]
    if error is not None:
        if e.get("empty") and _is_empty_refusal(error):
            return None
        return f"raised {type(error).__name__}: {error}"
    kind, a = req["kind"], req["args"]
    if kind == "special_value":
        if str(answer) != e["value"]:
            return f"got {answer}, want {e['value']}"
        if a["family"] in ("GP", "GQ"):  # b^|lam/mu|, or 0 on an empty set
            size = shapes.SkewShape.parse(a["shape"]).size
            want = (polyring.LaurentPoly.zero(a["n"]) if e["empty"]
                    else polyring.LaurentPoly.beta(a["n"], size))
            return None if answer == want else f"{answer} is not {want}"
        # double-skew: 0 whenever every shape of the expansion is nonempty
        return "double-skew value is not 0" if e["theorem"] and answer else None
    if kind == "parity":
        if answer.count != e["count"]:
            return f"count {answer.count}, want {e['count']}"
        if not e["empty"] and not answer.is_odd:
            return f"even count {answer.count}"
        return None
    if kind == "beta_zero":
        return None if answer[0] == answer[1] else "beta_zero != P/Q"
    if kind == "coproduct":
        if len(answer.lhs.terms) != e["terms"]:
            return f"lhs has {len(answer.lhs.terms)} terms, want {e['terms']}"
        return None if answer.ok and not answer.residual else \
            f"residual {answer.residual}"
    if kind == "poly":
        code, out, _ = answer
        if code != 0:
            return f"exit {code}"
        return None if _sha256(out.encode()) == e["sha256"] else \
            "stdout digest differs"
    if kind == "verify_involution":
        return _check_involution(req, answer)
    if kind == "pair":
        return _check_pair(req, answer)
    return f"unknown request kind {kind!r}"


def _check_involution(req: dict, answer) -> str | None:
    code, out, _ = answer
    e, shape = req["expect"], req["args"]["shape"]
    if code != 0:
        return f"exit {code}"
    seen = {}
    for line in out.splitlines():
        m = re.match(rf"shape={re.escape(shape)} family=(\w+) n=(\d+) (.*)$",
                     line)
        if m:
            seen[f"{m.group(1)} {m.group(2)}"] = m.group(3)
    for inst, rest in e["lines"].items():
        if seen.get(inst) != rest:
            return f"{inst}: got {seen.get(inst)!r}, want {rest!r}"
    for inst in e["empty"]:
        if inst in seen and _CLAIM.search(seen[inst]):
            return f"{inst}: verification claimed on an empty tableau set"
    return None


def _check_pair(req: dict, answer) -> str | None:
    (code, out, _), checked, cert = answer
    e = req["expect"]
    if e["empty"]:
        if _CLAIM.search(out) or (checked and _CLAIM.search(checked[1])):
            return "verification claimed on an empty tableau set"
        return None
    if code != 0 or out != f"pairs={e['pairs']} leftover=0 ok\n":
        return f"pair: exit {code}, stdout {out.strip()!r}"
    if checked is None:
        return "no certificate file written"
    if checked[0] != 0 or checked[1] != "certificate ok\n":
        return f"pair --check: exit {checked[0]}, stdout {checked[1].strip()!r}"
    if _sha256(cert.read_bytes()) != e["sha256"]:
        return "certificate digest differs"
    return None


def discard(answer) -> None:
    """Remove what a request left on disk (outside the timed region)."""
    if isinstance(answer, tuple) and len(answer) == 3 and \
            isinstance(answer[2], Path) and answer[2].exists():
        os.unlink(answer[2])
