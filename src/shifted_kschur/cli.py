"""Command-line front end.

Exit codes: 0 on success (or a verified claim), 1 on a mathematical
failure, 2 on a usage error or an infeasible-scale guard.  All output is
deterministic; sweeps emit one line per instance in canonical shape order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import enumeration, genfunc, involutions
from .enumeration import EnumSpec
from .genfunc import FunctionSpec
from .polyring import LaurentPoly
from .shapes import (SkewShape, StrictPartition, strict_subpartitions,
                     strict_partitions_up_to_weight)
from .tableaux import FAMILIES

PASS, FAIL, USAGE = 0, 1, 2


class Budget:
    """Soft wall-clock limit for sweeps; None means unlimited."""

    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def exhausted(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


def _shape(text: str) -> SkewShape:
    return SkewShape.parse(text)


def cmd_enumerate(args) -> int:
    spec = EnumSpec(_shape(args.shape), args.n, args.family, args.kind,
                    args.size_cap)
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
    p = genfunc.compute(FunctionSpec(args.family, _shape(args.shape), args.n))
    if args.format == "jsonl":
        print(json.dumps(p.to_json(), sort_keys=True))
    else:
        print(p)
    return PASS


def cmd_special_value(args) -> int:
    shape = _shape(args.shape)
    spec = FunctionSpec(args.family, shape, args.n)
    got = genfunc.special_value(spec)
    print(got)
    if args.family in ("GP", "GQ"):
        expected = LaurentPoly.beta(args.n, shape.size)
    else:
        expected = (LaurentPoly.zero(args.n) if shape.inner
                    else LaurentPoly.beta(args.n, shape.outer.weight))
    return PASS if got == expected else FAIL


def cmd_parity(args) -> int:
    report = genfunc.parity_report(
        FunctionSpec(args.family, _shape(args.shape), args.n))
    print(f"count={report.count} odd={'true' if report.is_odd else 'false'}")
    if not report.count:
        print("note: the tableau set is empty; the parity statement "
              "does not apply", file=sys.stderr)
        return USAGE
    return PASS if report.is_odd else FAIL


def cmd_double_skew(args) -> int:
    lam = StrictPartition.parse(args.lam)
    mu = StrictPartition.parse(args.mu)
    if args.shortcut:
        result = genfunc.double_skew_shortcut(lam, mu)
        print(result.value)
        for t in result.terms:
            sign = "+" if t.sign > 0 else "-"
            print(f"nu={t.nu} removed={t.removed} sign={sign}1")
        return PASS if not result.value else FAIL
    if args.n is None:
        print("error: -n is required without --shortcut", file=sys.stderr)
        return USAGE
    family = "GQdouble" if args.family == "GQ" else "GPdouble"
    got = genfunc.special_value(
        FunctionSpec(family, SkewShape(lam, mu), args.n))
    print(got)
    return PASS if not got else FAIL


def _sweep_shapes(max_weight: int, skew: bool):
    for lam in strict_partitions_up_to_weight(max_weight):
        if not lam:
            continue
        inners = strict_subpartitions(lam) if skew else [StrictPartition(())]
        for mu in sorted(inners, key=lambda m: m.parts):
            yield SkewShape(lam, mu)


def cmd_identity(args) -> int:
    budget = Budget(args.time_budget)
    failures = 0
    done = total = 0
    if args.check in ("beta-zero", "pq-factor"):
        # pq-factor checks Q = 2^rows * P on straight shapes only
        instances = [
            (shape, n)
            for shape in _sweep_shapes(args.max_weight, skew=args.skew)
            if args.check == "beta-zero" or not shape.inner
            for n in range(1, args.max_n + 1)
        ]
        total = len(instances)
        for shape, n in instances:
            if budget.exhausted():
                break
            if args.check == "beta-zero":
                ok = True
                for fam in ("GP", "GQ"):
                    spec = FunctionSpec(fam, shape, n)
                    base = genfunc.compute(
                        FunctionSpec(fam[1], shape, n))
                    ok = ok and genfunc.beta_zero(spec) == base
            else:
                p = genfunc.compute(FunctionSpec("P", shape, n))
                q = genfunc.compute(FunctionSpec("Q", shape, n))
                ok = q == p.scale(2 ** shape.outer.length)
            done += 1
            print(f"shape={shape} n={n} {'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    elif args.check == "coproduct":
        lams = [l for l in strict_partitions_up_to_weight(args.max_weight) if l]
        total = len(lams) * 4
        for lam in lams:
            for fam in ("P", "Q", "GP", "GQ"):
                if budget.exhausted():
                    break
                rep = genfunc.coproduct_check(lam, args.nx, args.ny, fam)
                done += 1
                print(f"lambda={lam} family={fam} "
                      f"{'ok' if rep.ok else 'FAIL residual=' + str(rep.residual)}")
                failures += 0 if rep.ok else 1
    else:
        print(f"error: unknown check {args.check!r}", file=sys.stderr)
        return USAGE
    if total and done < total:
        print(f"partial sweep: covered {done}/{total} instances")
    return FAIL if failures else PASS


def cmd_verify_involution(args) -> int:
    budget = Budget(args.time_budget)
    failures = 0
    if args.shape:
        shapes = [(_shape(args.shape), n, fam)
                  for n in range(1, args.max_n + 1)
                  for fam in FAMILIES]
    else:
        shapes = [(shape, n, fam)
                  for shape in _sweep_shapes(args.max_weight, skew=True)
                  for n in range(1, args.max_n + 1)
                  for fam in FAMILIES]
    for done, (shape, n, fam) in enumerate(shapes):
        if budget.exhausted():
            print(f"partial sweep: covered {done}/{len(shapes)} instances")
            break
        poly = genfunc.compute(FunctionSpec("G" + fam, shape, n))
        if not poly:
            print(f"shape={shape} family={fam} n={n} empty")
            continue
        rep = involutions.verify_involution(shape, fam, n)
        # G at x = 1, b = -1 is the signed count, sum of (-1)^(|T| - #boxes)
        signed = int(poly.eval_integers([1] * n, -1))
        ok = rep.ok and signed == 1
        print(f"shape={shape} family={fam} n={n} checked={rep.checked} "
              f"signed={signed} {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return FAIL if failures else PASS


def cmd_oracle_check(args) -> int:
    failures = 0
    for shape in _sweep_shapes(args.max_weight, skew=True):
        if shape.size > enumeration.ORACLE_MAX_BOXES:
            continue
        for n in range(1, min(args.max_n, enumeration.ORACLE_MAX_N) + 1):
            for fam in FAMILIES:
                for kind in ("single", "set-valued"):
                    spec = EnumSpec(shape, n, fam, kind)
                    fast = list(enumeration.enumerate_fillings(spec))
                    slow = list(enumeration.naive_oracle(spec))
                    ok = sorted(f._key for f in fast) == \
                        sorted(f._key for f in slow)
                    print(f"shape={shape} n={n} family={fam} kind={kind} "
                          f"count={len(fast)} {'ok' if ok else 'FAIL'}")
                    failures += 0 if ok else 1
    return FAIL if failures else PASS


def cmd_pair(args) -> int:
    lam = StrictPartition.parse(args.lam)
    mu = StrictPartition.parse(args.mu)
    if args.check:
        try:
            with open(args.check) as fh:
                data = json.load(fh)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        try:
            cert = involutions.PairingCertificate.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            ok, why = False, f"malformed certificate ({exc!r})"
        else:
            asked = (lam, mu, args.family, args.n, args.minimal_only)
            held = (cert.lam, cert.mu, cert.family, cert.n,
                    cert.minimal_only)
            if held != asked:
                ok, why = False, ("certificate is for lambda={} mu={} "
                                  "family={} n={} minimal_only={}"
                                  .format(*held))
            else:
                ok, why = involutions.check_certificate(cert)
        print("certificate ok" if ok else "certificate FAILED")
        if not ok:
            print(f"note: {why}", file=sys.stderr)
        return PASS if ok else FAIL
    try:
        cert = involutions.pairing_certificate(
            lam, mu, args.n, args.family, minimal_only=args.minimal_only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    if args.out:
        with open(args.out, "w") as fh:
            write_json(cert.to_json(), fh)
    print(f"pairs={len(cert.pairs)} leftover={len(cert.leftover)} "
          f"{'ok' if cert.complete else 'FAIL'}")
    return PASS if cert.complete else FAIL


_INDENT = ["\n" + " " * k for k in range(64)]


def _encode(o, level: int, memo: dict) -> str:
    """``json.dumps(o, sort_keys=True, indent=1)`` of o nested level deep.

    ``memo`` maps (id of a dict, level) to None once that dict has been
    encoded, and to its text from the second time on; so a dict that
    occurs many times (a shared header) is encoded at most twice, and
    one that occurs once costs no stored text.
    """
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = level + 1
        sep = "," + _INDENT[inner]
        body = None
        if type(o[0]) is str:
            try:  # a list of strings (a tableau cell) skips the recursion
                body = sep.join(map(encode_basestring_ascii, o))
            except TypeError:  # not all of them are
                pass
        if body is None:
            body = sep.join([_encode(v, inner, memo) for v in o])
        return "[" + _INDENT[inner] + body + _INDENT[level] + "]"
    if t is dict:
        if not o:
            return "{}"
        key = id(o) << 6 | level
        text = memo.get(key, 0)  # 0: not seen yet, None: seen once
        if text:
            return text
        inner = level + 1
        encoded = ("{" + _INDENT[inner] + ("," + _INDENT[inner]).join(
            [encode_basestring_ascii(k) + ": " + _encode(v, inner, memo)
             for k, v in sorted(o.items())]) + _INDENT[level] + "}")
        memo[key] = None if text == 0 else encoded
        return encoded
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is int:
        return int.__repr__(o)
    raise TypeError(f"cannot encode {t.__name__} as JSON")


def _chunks(o, level: int, depth: int, memo: dict):
    """``_encode(o, level, memo)`` in pieces, one per item of the top depth
    levels."""
    t = type(o)
    if depth == 0 or not o or t not in (list, tuple, dict):
        yield _encode(o, level, memo)
        return
    if t is dict:
        opening, closing = "{", "}"
        items = [(encode_basestring_ascii(k) + ": ", v)
                 for k, v in sorted(o.items())]
    else:
        opening, closing = "[", "]"
        items = [("", v) for v in o]
    yield opening
    for k, (prefix, v) in enumerate(items):
        yield ("," if k else "") + _INDENT[level + 1] + prefix
        yield from _chunks(v, level + 1, depth - 1, memo)
    yield _INDENT[level] + closing


def write_json(payload, fh) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=1)`` to fh.

    Values must be of exactly these types: dict with str keys, list,
    tuple, str, int, bool and None, nested at most 63 deep.  The top two
    levels go out item by item, so a large document is never held as one
    string.  A dict that occurs more than once is encoded at most twice
    (the memo lives for this call only).
    """
    fh.writelines(_chunks(payload, 0, 2, {}))


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``kschur`` parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="kschur",
        description="Shifted set-valued tableaux and their generating "
                    "polynomials, with built-in verification sweeps.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, family_choices, needs_n=True):
        p.add_argument("--shape", required=True,
                       help="partition '4,2,1' or skew shape '6,4,1/4,2'")
        p.add_argument("--family", required=True, choices=family_choices)
        if needs_n:
            p.add_argument("-n", type=int, required=True)
        p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("enumerate", help="list or count tableaux")
    add_common(p, FAMILIES)
    p.add_argument("--kind", choices=("single", "set-valued"),
                   default="set-valued")
    p.add_argument("--size-cap", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("poly", help="compute a generating polynomial")
    add_common(p, genfunc.FAMILIES)
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
    p.add_argument("--out", default=None)
    p.add_argument("--check", default=None,
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
