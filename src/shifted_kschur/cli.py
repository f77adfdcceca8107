"""Command-line front end.

Exit codes: 0 on success (or a verified claim), 1 on a mathematical
failure, 2 on a usage error (a file that cannot be read or written
among them), an infeasible-scale guard, or a statement that does not
apply to an empty tableau set (or, for the double-skew vanishing, to an
empty mu).  Each quantity has one path: counts, special values and
parity come from the branching engine (``genfunc``), the ``double-skew``
value from its removable-box expansion, and the tableau walk serves
listings and the sweeps that check it.  All output is deterministic;
sweeps emit one line per instance in canonical shape order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections.abc import Callable, Iterable

from . import enumeration, genfunc, involutions
from .genfunc import FunctionSpec
from .polyring import LaurentPoly
from .shapes import (SkewShape, StrictPartition, skew_shape_count,
                     skew_shapes, strict_partitions_up_to_weight)
from .tableaux import FAMILIES

PASS, FAIL, USAGE = 0, 1, 2


def cmd_enumerate(args) -> int:
    spec = enumeration.EnumSpec(SkewShape.parse(args.shape), args.n,
                                args.family, args.kind)
    if args.count_only:  # the engine's count; the walk is for listings
        print(genfunc._at(spec)[0])
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
        print(p.to_json())
    else:
        print(p)
    return PASS


def _special_value(spec: FunctionSpec) -> int:
    """Print spec's special value: PASS when it is 0 for a double-skew
    family with mu nonempty, else b^|lam/mu|; otherwise USAGE when a
    tableau set it sums over (each lam/nu of ``genfunc._inner``) is empty
    and the statement does not apply, else FAIL."""
    got = genfunc.special_value(spec)
    print(got)
    shape = spec.shape
    if spec.family.endswith("double") and shape.inner:
        expected = LaurentPoly.zero(spec.n)
    else:
        expected = LaurentPoly.beta(spec.n, shape.size)
    if got == expected:
        return PASS
    for _, nu in genfunc._inner(spec):
        if not genfunc._point_sum(shape.outer.parts, nu, spec.n,
                                  spec.base_family, spec.kind)[0]:
            skew = SkewShape(shape.outer, StrictPartition(nu))
            print(f"note: the tableau set of {skew} is empty; the "
                  "special-value statement does not apply", file=sys.stderr)
            return USAGE
    return FAIL


def cmd_special_value(args) -> int:
    return _special_value(FunctionSpec(
        args.family, SkewShape.parse(args.shape), args.n))


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
    result = genfunc.double_skew_shortcut(lam, mu)  # rejects mu outside lam
    print(result.value)
    for t in result.terms:
        sign = "+" if t.sign > 0 else "-"
        print(f"nu={t.nu} removed={t.removed} sign={sign}1")
    if not mu:
        print("note: mu is empty; the vanishing statement does not apply",
              file=sys.stderr)
        return USAGE
    return FAIL if result.value else PASS


def _check_sweep_options(counts: dict, time_budget: float | None = None,
                         unread: tuple = (), where: str = "") -> None:
    """Raise ValueError, before any output, for an option of ``unread``
    (flag, value) that was given, not None; a count (flag -> value) below
    1, which leaves no instance; or a negative or NaN time budget."""
    for flag, value in unread:
        if value is not None:
            raise ValueError(f"{flag} does not apply {where}")
    for flag, value in counts.items():
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    if time_budget is not None and math.isnan(time_budget):
        raise ValueError("--time-budget must be a number, not nan")
    if time_budget is not None and time_budget < 0:
        raise ValueError("--time-budget must not be negative")


def _deadline(time_budget: float | None) -> float | None:
    """The ``time.monotonic()`` reading a time budget in seconds ends at."""
    return None if time_budget is None else time.monotonic() + time_budget


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _sweep(instances: Iterable, check, deadline: float | None = None,
           total: Callable[[], int] | None = None) -> int:
    """Print the line of ``check(*instance)`` for each instance in order.

    ``check`` returns (line, verdict); a False verdict is a failure, and
    None (an empty tableau set) is not.  With a deadline (``_deadline``)
    it is checked before each instance, and the sweep stops at the cut
    with a line saying how many instances it covered, of all it would
    have run: ``total()``, called there and only there, counts them, so
    a shape stream need not make the rest to count it.
    """
    failures = 0
    for done, instance in enumerate(instances):
        if _past(deadline):
            print(f"partial sweep: covered {done}/{total()} instances")
            break
        line, verdict = check(*instance)
        print(line)
        failures += verdict is False
    return FAIL if failures else PASS


def _reps(shape: SkewShape, n: int, top: int, family: str, kind: str,
          b0_only: bool = False) -> dict:
    """The engine's representatives of shape at n letters.  On a shape's
    first n the engine runs at top, the sweep's last n, first, so this n
    and every later one up to top is a cut of that one run."""
    lam, mu = shape.outer.parts, shape.inner.parts
    if n == 1:
        genfunc._branching_sum(lam, mu, top, family, kind, b0_only=b0_only)
    return genfunc._branching_sum(lam, mu, n, family, kind, b0_only=b0_only)


def _beta_zero(shape: SkewShape, n: int, top: int) -> tuple[str, bool]:
    # representatives, equal exactly when their polynomials are
    ok = all(_reps(shape, n, top, f, "set-valued", b0_only=True)
             == _reps(shape, n, top, f, "single") for f in "PQ")
    return f"shape={shape} n={n} {'ok' if ok else 'FAIL'}", ok


def _pq_factor(shape: SkewShape, n: int, top: int) -> tuple[str, bool]:
    p, q = (_reps(shape, n, top, f, "single") for f in "PQ")
    scale = 2 ** (shape.outer.length - shape.inner.length)
    ok = q == {t: c * scale for t, c in p.items()}
    return f"shape={shape} n={n} {'ok' if ok else 'FAIL'}", ok


def _coproduct(lam: StrictPartition, nx: int, ny: int,
               fam: str) -> tuple[str, bool]:
    rep = genfunc.coproduct_check(lam, nx, ny, fam)
    verdict = "ok" if rep.ok else f"FAIL residual={rep.residual}"
    return f"lambda={lam} family={fam} {verdict}", rep.ok


def cmd_identity(args) -> int:
    if args.check == "coproduct":
        nx, ny = (2 if v is None else v for v in (args.nx, args.ny))
        # the left side F_lam(x, y) is on a straight lam, in nx + ny letters
        _check_sweep_options(
            {"--max-weight": args.max_weight, "--nx": nx, "--ny": ny},
            args.time_budget,
            (("--skew", args.skew), ("--max-n", args.max_n)),
            "to --check coproduct")
        deadline = _deadline(args.time_budget)

        def instances():  # made as read, once by each pass
            return ((lam, nx, ny, fam)
                    for lam in strict_partitions_up_to_weight(args.max_weight)
                    if lam for fam in ("P", "Q", "GP", "GQ"))
        # each left side's size, first, by the sweep's deadline: a guard
        # pass cut short leaves no time for an unguarded instance
        for lam, _, _, fam in instances():
            if _past(deadline):
                break
            genfunc._coproduct_guard(FunctionSpec(fam, SkewShape(lam),
                                                  nx + ny))
        return _sweep(instances(), _coproduct, deadline,
                      lambda: sum(1 for _ in instances()))
    max_n = 3 if args.max_n is None else args.max_n
    _check_sweep_options({"--max-weight": args.max_weight, "--max-n": max_n},
                         args.time_budget,
                         (("--nx", args.nx), ("--ny", args.ny)),
                         f"to --check {args.check}")
    instances = ((shape, n, max_n)
                 for shape in skew_shapes(args.max_weight, args.skew)
                 for n in range(1, max_n + 1))
    check = _beta_zero if args.check == "beta-zero" else _pq_factor
    return _sweep(instances, check, _deadline(args.time_budget),
                  lambda: max_n * skew_shape_count(args.max_weight, args.skew))


def _involution(shape: SkewShape, n: int, fam: str) -> tuple[str, bool | None]:
    # the count, and the sum of (-1)^(|T| - #boxes)
    count, signed = genfunc._at(FunctionSpec("G" + fam, shape, n))
    if not count:
        return f"shape={shape} family={fam} n={n} empty", None
    checked, violations = involutions.verify_involution(shape, fam, n)
    ok = not violations and signed == 1
    return (f"shape={shape} family={fam} n={n} checked={checked} "
            f"signed={signed} {'ok' if ok else 'FAIL'}"), ok


def cmd_verify_involution(args) -> int:
    max_weight = 4 if args.max_weight is None else args.max_weight
    _check_sweep_options(
        {"--max-weight": max_weight, "--max-n": args.max_n}, args.time_budget,
        (("--max-weight", args.max_weight),) if args.shape else (),
        "with --shape")
    shapes = ([SkewShape.parse(args.shape)] if args.shape
              else skew_shapes(max_weight))
    instances = ((shape, n, fam)
                 for shape in shapes
                 for n in range(1, args.max_n + 1)
                 for fam in FAMILIES)
    per_shape = args.max_n * len(FAMILIES)
    return _sweep(instances, _involution, _deadline(args.time_budget),
                  lambda: per_shape * (1 if args.shape
                                       else skew_shape_count(max_weight)))


def _oracle(shape: SkewShape, n: int, fam: str,
            kind: str) -> tuple[str, bool]:
    spec = enumeration.EnumSpec(shape, n, fam, kind)
    fast = list(enumeration.enumerate_fillings(spec))
    slow = list(enumeration.naive_oracle(spec))
    ok = fast == slow
    return (f"shape={shape} n={n} family={fam} kind={kind} "
            f"count={len(fast)} {'ok' if ok else 'FAIL'}"), ok


def cmd_oracle_check(args) -> int:
    _check_sweep_options({"--max-weight": args.max_weight,
                          "--max-n": args.max_n})
    if args.max_n > enumeration.ORACLE_MAX_N:  # naive_oracle refuses it
        raise ValueError(f"--max-n must be at most "
                         f"{enumeration.ORACLE_MAX_N} for the oracle")
    instances = ((shape, n, fam, kind)
                 for shape in skew_shapes(args.max_weight)
                 if shape.size <= enumeration.ORACLE_MAX_BOXES
                 for n in range(1, args.max_n + 1)
                 for fam in FAMILIES
                 for kind in enumeration.KINDS)
    return _sweep(instances, _oracle)


def cmd_pair(args) -> int:
    request = (StrictPartition.parse(args.lam), StrictPartition.parse(args.mu),
               args.n, args.family, args.minimal_only)
    if args.check:
        # a refused request, an empty tableau set among them, is a usage
        # error before the file is opened
        check = involutions.certificate_checker(*request)
        # text not UTF-8, not in pair --out's layout, not JSON or nested too
        # deep is malformed, here or in a pair check reads; an OSError is not
        with open(args.check, encoding="utf-8") as fh:
            try:
                doc = involutions.read_certificate(fh)
            except (ValueError, RecursionError) as exc:
                ok, why = False, f"malformed certificate ({exc!r})"
            else:
                ok, why = check(doc)
        print("certificate ok" if ok else "certificate FAILED")
        if not ok:
            print(f"note: {why}", file=sys.stderr)
        return PASS if ok else FAIL
    cert = involutions.pairing_certificate(*request)
    if args.out:
        with open(args.out, "w") as fh:
            involutions.write_certificate(cert, fh)
    print(f"pairs={len(cert.pairs)} leftover={len(cert.leftover)} "
          f"{'FAIL' if cert.leftover else 'ok'}")
    return FAIL if cert.leftover else PASS


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``kschur`` parser, built on first use and then reused; its
    ``verbs`` maps each verb to the verb's own parser."""
    parser = argparse.ArgumentParser(
        prog="kschur",
        description="Shifted set-valued tableaux and their generating "
                    "polynomials, with built-in verification sweeps.")
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices

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
    p.add_argument("--kind", choices=enumeration.KINDS, default="set-valued")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("poly", help="compute a generating polynomial")
    add_common(p, genfunc.FAMILIES, with_format=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("special-value",
                       help="x_i -> b, b -> -1/b specialization")
    add_common(p, genfunc.K_FAMILIES)
    p.set_defaults(func=cmd_special_value)

    p = sub.add_parser("parity", help="tableau count and its parity")
    add_common(p, ("GP", "GQ"))
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("double-skew",
                       help="double-skew special value by the removable-box "
                            "expansion")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=cmd_double_skew)

    p = sub.add_parser("identity", help="sweep a structural identity")
    p.add_argument("--check", required=True,
                   choices=("beta-zero", "pq-factor", "coproduct"))
    p.add_argument("--max-weight", type=int, default=4)
    # None: not given; an option the check reads has its default there
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--skew", action="store_true", default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("verify-involution",
                       help="involution property sweep")
    p.add_argument("--shape", default=None)
    p.add_argument("--max-weight", type=int, default=None)  # 4 without --shape
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in parser.verbs:
            # the verb's parser reads the rest, as the subparsers action
            # does inside parse_args, with no parse of the whole argv first
            args, rest = parser.verbs[argv[0]].parse_known_args(argv[1:])
            if rest:
                parser.error(f"unrecognized arguments: {' '.join(rest)}")
        else:
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
