"""Command-line front end.

Exit codes: 0 on success (or a verified claim), 1 on a mathematical
failure, 2 on a usage error (a file that cannot be read or written
among them), an infeasible-scale guard, or a statement that does not
apply to an empty tableau set (or, for the double-skew vanishing, to an
empty mu).  All output is deterministic; sweeps emit one line per
instance in canonical shape order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import enumeration, genfunc, involutions
from .enumeration import EnumSpec
from .genfunc import FunctionSpec
from .polyring import LaurentPoly
from .shapes import (SkewShape, StrictPartition, inner_shapes,
                     strict_subpartitions, strict_partitions_up_to_weight)
from .tableaux import FAMILIES, _check_n

PASS, FAIL, USAGE = 0, 1, 2


def cmd_enumerate(args) -> int:
    spec = EnumSpec(SkewShape.parse(args.shape), args.n, args.family,
                    args.kind, args.size_cap)
    if args.count_only:
        print(enumeration.count(spec))
        return PASS
    for f in enumeration.enumerate_fillings(spec):
        if args.format == "jsonl":
            print(json.dumps(f.to_json(), sort_keys=True))
        else:
            print(repr(f))
    return PASS


def cmd_poly(args) -> int:
    p = genfunc.compute(
        FunctionSpec(args.family, SkewShape.parse(args.shape), args.n))
    if args.format == "jsonl":
        print(json.dumps(p.to_json(), sort_keys=True))
    else:
        print(p)
    return PASS


def _failed(statement: str, family: str, shape: SkewShape, n: int) -> int:
    """FAIL for a special value off its claimed value, or USAGE when a
    tableau set it sums over (lam/mu, or each lam/nu of the double-skew
    expansion) is empty and the statement does not apply."""
    nus = ([nu for _, nu in inner_shapes(shape.inner)]
           if family.endswith("double") else [shape.inner])
    for nu in nus:
        skew = SkewShape(shape.outer, nu)
        if not genfunc.parity_report(FunctionSpec(family[:2], skew, n)).count:
            print(f"note: the tableau set of {skew} is empty; the "
                  f"{statement} statement does not apply", file=sys.stderr)
            return USAGE
    return FAIL


def cmd_special_value(args) -> int:
    shape = SkewShape.parse(args.shape)
    got = genfunc.special_value(FunctionSpec(args.family, shape, args.n))
    print(got)
    if args.family in ("GP", "GQ"):
        expected = LaurentPoly.beta(args.n, shape.size)
    else:
        expected = (LaurentPoly.zero(args.n) if shape.inner
                    else LaurentPoly.beta(args.n, shape.outer.weight))
    if got == expected:
        return PASS
    return _failed("special-value", args.family, shape, args.n)


def cmd_parity(args) -> int:
    report = genfunc.parity_report(
        FunctionSpec(args.family, SkewShape.parse(args.shape), args.n))
    print(f"count={report.count} odd={'true' if report.is_odd else 'false'}")
    if not report.count:
        print("note: the tableau set is empty; the parity statement "
              "does not apply", file=sys.stderr)
        return USAGE
    return PASS if report.is_odd else FAIL


def cmd_double_skew(args) -> int:
    lam = StrictPartition.parse(args.lam)
    mu = StrictPartition.parse(args.mu)
    shape = SkewShape(lam, mu)  # both paths reject mu outside lam
    if args.n is not None:  # even where --shortcut ignores it
        _check_n(args.n)
    if args.shortcut:
        result = genfunc.double_skew_shortcut(lam, mu)
        got = result.value
        print(got)
        for t in result.terms:
            sign = "+" if t.sign > 0 else "-"
            print(f"nu={t.nu} removed={t.removed} sign={sign}1")
    elif args.n is None:
        print("error: -n is required without --shortcut", file=sys.stderr)
        return USAGE
    else:
        family = "GQdouble" if args.family == "GQ" else "GPdouble"
        got = genfunc.special_value(FunctionSpec(family, shape, args.n))
        print(got)
    if not mu:
        print("note: mu is empty; the vanishing statement does not apply",
              file=sys.stderr)
        return USAGE
    if not got:
        return PASS
    if args.shortcut:
        return FAIL
    return _failed("vanishing", family, shape, args.n)


def _sweep_shapes(max_weight: int, skew: bool):
    for lam in strict_partitions_up_to_weight(max_weight):
        if not lam:
            continue
        inners = strict_subpartitions(lam) if skew else [StrictPartition(())]
        for mu in sorted(inners, key=lambda m: m.parts):
            yield SkewShape(lam, mu)


def _check_sweep_bounds(max_weight: int, max_n: int,
                        time_budget: float | None = None) -> None:
    """Raise ValueError, before any output, for sweep options that leave
    no instance to check or no time to check one in."""
    if max_weight < 1:
        raise ValueError("--max-weight must be at least 1")
    if max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if time_budget is not None and time_budget < 0:
        raise ValueError("--time-budget must not be negative")


def _sweep(instances: list, check, time_budget: float | None = None) -> int:
    """Print the line of ``check(*instance)`` for each instance in order.

    ``check`` returns (line, verdict); a False verdict is a failure, and
    None (an empty tableau set) is not.  With a time budget in seconds the
    deadline is checked before each instance, and the sweep stops at the
    cut with a line saying how many instances it covered.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    failures = 0
    for done, instance in enumerate(instances):
        if deadline is not None and time.monotonic() >= deadline:
            print(f"partial sweep: covered {done}/{len(instances)} instances")
            break
        line, verdict = check(*instance)
        print(line)
        failures += verdict is False
    return FAIL if failures else PASS


def _beta_zero(shape: SkewShape, n: int) -> tuple[str, bool]:
    ok = all(genfunc.beta_zero(FunctionSpec(fam, shape, n))
             == genfunc.compute(FunctionSpec(fam[1], shape, n))
             for fam in ("GP", "GQ"))
    return f"shape={shape} n={n} {'ok' if ok else 'FAIL'}", ok


def _pq_factor(shape: SkewShape, n: int) -> tuple[str, bool]:
    p = genfunc.compute(FunctionSpec("P", shape, n))
    q = genfunc.compute(FunctionSpec("Q", shape, n))
    ok = q == p.scale(2 ** shape.outer.length)
    return f"shape={shape} n={n} {'ok' if ok else 'FAIL'}", ok


def _coproduct(lam: StrictPartition, nx: int, ny: int,
               fam: str) -> tuple[str, bool]:
    rep = genfunc.coproduct_check(lam, nx, ny, fam)
    verdict = "ok" if rep.ok else f"FAIL residual={rep.residual}"
    return f"lambda={lam} family={fam} {verdict}", rep.ok


def cmd_identity(args) -> int:
    _check_sweep_bounds(args.max_weight, args.max_n, args.time_budget)
    if args.check == "coproduct":
        for flag, value in (("--nx", args.nx), ("--ny", args.ny)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1")
        if args.max_weight > genfunc.COPRODUCT_MAX_WEIGHT:  # before any line
            raise ValueError("coproduct guard exceeded: |lambda| too large")
        instances = [(lam, args.nx, args.ny, fam)
                     for lam in strict_partitions_up_to_weight(args.max_weight)
                     if lam
                     for fam in ("P", "Q", "GP", "GQ")]
        for lam, nx, ny, fam in instances:  # each left side's size, too
            genfunc._coproduct_guard(FunctionSpec(fam, SkewShape(lam),
                                                  nx + ny))
        return _sweep(instances, _coproduct, args.time_budget)
    # Q = 2^rows * P is a statement about straight shapes only
    skew = args.skew and args.check == "beta-zero"
    instances = [(shape, n)
                 for shape in _sweep_shapes(args.max_weight, skew)
                 for n in range(1, args.max_n + 1)]
    check = _beta_zero if args.check == "beta-zero" else _pq_factor
    return _sweep(instances, check, args.time_budget)


def _involution(shape: SkewShape, n: int, fam: str) -> tuple[str, bool | None]:
    spec = FunctionSpec("G" + fam, shape, n)
    if not genfunc.parity_report(spec).count:
        return f"shape={shape} family={fam} n={n} empty", None
    rep = involutions.verify_involution(shape, fam, n)
    signed = genfunc.signed_count(spec)  # sum of (-1)^(|T| - #boxes)
    ok = rep.ok and signed == 1
    return (f"shape={shape} family={fam} n={n} checked={rep.checked} "
            f"signed={signed} {'ok' if ok else 'FAIL'}"), ok


def cmd_verify_involution(args) -> int:
    _check_sweep_bounds(args.max_weight, args.max_n, args.time_budget)
    shapes = ([SkewShape.parse(args.shape)] if args.shape
              else _sweep_shapes(args.max_weight, skew=True))
    instances = [(shape, n, fam)
                 for shape in shapes
                 for n in range(1, args.max_n + 1)
                 for fam in FAMILIES]
    return _sweep(instances, _involution, args.time_budget)


def _oracle(shape: SkewShape, n: int, fam: str,
            kind: str) -> tuple[str, bool]:
    spec = EnumSpec(shape, n, fam, kind)
    fast = list(enumeration.enumerate_fillings(spec))
    slow = list(enumeration.naive_oracle(spec))
    ok = sorted(f._key for f in fast) == sorted(f._key for f in slow)
    return (f"shape={shape} n={n} family={fam} kind={kind} "
            f"count={len(fast)} {'ok' if ok else 'FAIL'}"), ok


def cmd_oracle_check(args) -> int:
    _check_sweep_bounds(args.max_weight, args.max_n)
    max_n = min(args.max_n, enumeration.ORACLE_MAX_N)
    instances = [(shape, n, fam, kind)
                 for shape in _sweep_shapes(args.max_weight, skew=True)
                 if shape.size <= enumeration.ORACLE_MAX_BOXES
                 for n in range(1, max_n + 1)
                 for fam in FAMILIES
                 for kind in ("single", "set-valued")]
    return _sweep(instances, _oracle)


def cmd_pair(args) -> int:
    request = (StrictPartition.parse(args.lam), StrictPartition.parse(args.mu),
               args.n, args.family, args.minimal_only)
    if args.check:
        # a bad command line is a usage error before the file is opened
        involutions.check_request(*request[:4])
        # text that is not UTF-8 JSON, or nests too deep for the parser, is
        # malformed; an OSError is not
        try:
            with open(args.check, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            ok, why = False, f"malformed certificate ({exc!r})"
        else:
            ok, why = involutions.check_certificate(doc, *request)
        print("certificate ok" if ok else "certificate FAILED")
        if not ok:
            print(f"note: {why}", file=sys.stderr)
        return PASS if ok else FAIL
    cert = involutions.pairing_certificate(*request)
    if args.out:
        with open(args.out, "w") as fh:
            involutions.write_certificate(cert, fh)
    print(f"pairs={len(cert.pairs)} leftover={len(cert.leftover)} "
          f"{'ok' if cert.complete else 'FAIL'}")
    return PASS if cert.complete else FAIL


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``kschur`` parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="kschur",
        description="Shifted set-valued tableaux and their generating "
                    "polynomials, with built-in verification sweeps.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, family_choices, with_format=False):
        p.add_argument("--shape", required=True,
                       help="partition '4,2,1' or skew shape '6,4,1/4,2'")
        p.add_argument("--family", required=True, choices=family_choices)
        p.add_argument("-n", type=int, required=True)
        if with_format:
            p.add_argument("--format", choices=("text", "jsonl"),
                           default="text")

    p = sub.add_parser("enumerate", help="list or count tableaux")
    add_common(p, FAMILIES, with_format=True)
    p.add_argument("--kind", choices=("single", "set-valued"),
                   default="set-valued")
    p.add_argument("--size-cap", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("poly", help="compute a generating polynomial")
    add_common(p, genfunc.FAMILIES, with_format=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("special-value",
                       help="x_i -> b, b -> -1/b specialization")
    add_common(p, ("GP", "GQ", "GPdouble", "GQdouble"))
    p.set_defaults(func=cmd_special_value)

    p = sub.add_parser("parity", help="tableau count and its parity")
    add_common(p, ("GP", "GQ"))
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("double-skew",
                       help="double-skew special value, shortcut or tableaux")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--family", choices=("GP", "GQ"), default="GP")
    p.add_argument("--shortcut", action="store_true")
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=cmd_double_skew)

    p = sub.add_parser("identity", help="sweep a structural identity")
    p.add_argument("--check", required=True,
                   choices=("beta-zero", "pq-factor", "coproduct"))
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--nx", type=int, default=2)
    p.add_argument("--ny", type=int, default=2)
    p.add_argument("--skew", action="store_true")
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("verify-involution",
                       help="involution property sweep")
    p.add_argument("--shape", default=None)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(func=cmd_verify_involution)

    p = sub.add_parser("oracle-check",
                       help="backtracker vs naive oracle sweep")
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-n", type=int, default=2)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("pair", help="pairing certificate for lam // mu")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--family", choices=FAMILIES, default="P")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--minimal-only", action="store_true")
    files = p.add_mutually_exclusive_group()
    files.add_argument("--out", default=None)
    files.add_argument("--check", default=None,
                       help="re-validate a stored certificate file")
    p.set_defaults(func=cmd_pair)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or a file not usable
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
