"""Exact sparse Laurent polynomials in x1..xn and b (the deformation parameter).

x-exponents are nonnegative; the b-exponent may be negative.  Coefficients
are Python ints, so arithmetic never overflows.  Terms print in a canonical
ASCII grammar such as "2*x1^3*x2*b^-1 + b^7" (terms sorted by b-exponent,
then x-exponents lexicographically), and parse back exactly.  The text and
the one-line JSON document (``to_json``, which ``from_json`` reads back)
are both written by ``_render``, the one statement of the print format
and of the term order, from runs of terms that share b and a
coefficient, each run sorted by x: per b it sorts the runs' terms once,
which merges the runs.  A polynomial hands it one run per term, or, when
its terms are held by x-orbit (``OrbitTerms``, a polynomial symmetric in
x kept as one representative per orbit), one run per orbit: the orbit's
sorted arrangements (``_orbit``) and their text (``_orbit_text``), both
kept per orbit, so such a polynomial prints with no expansion.  The text
of an x-exponent tuple is read from a table of power names per variable
(``_x_texts``).  Ring operations on two valid operands build their result
unchecked, dropping zero coefficients; the public constructor checks
every term.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import permutations
from operator import getitem, itemgetter
from typing import Iterable

MonomialKey = tuple[tuple[int, ...], int]  # (x-exponents, b-exponent)


class LaurentPoly:
    """Immutable sparse polynomial; the empty term map is zero."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[MonomialKey, int] | None = None):
        self.nvars = nvars
        clean: dict[MonomialKey, int] = {}
        for (xexp, bexp), coeff in (terms or {}).items():
            xexp = tuple(xexp)
            # a bool or a float would pass as a number and print wrong
            if not {int}.issuperset(map(type, (*xexp, bexp, coeff))):
                raise ValueError(f"non-int term {(xexp, bexp)!r}: {coeff!r}")
            if len(xexp) != nvars or any(e < 0 for e in xexp):
                raise ValueError(f"bad x-exponents {xexp} for {nvars} variables")
            if coeff:
                clean[(xexp, bexp)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int,
                 terms: dict[MonomialKey, int]) -> "LaurentPoly":
        """The polynomial of a term dict taken as is, with no check: the
        caller guarantees nonzero coefficients and x-exponent tuples of
        length nvars with no negative entry, and hands the dict over."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "LaurentPoly":
        return cls(nvars, {((0,) * nvars, 0): c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        """The variable x_i, 1-based."""
        xexp = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, {(xexp, 0): 1})

    @classmethod
    def beta(cls, nvars: int, k: int = 1) -> "LaurentPoly":
        return cls(nvars, {((0,) * nvars, k): 1})

    @classmethod
    def monomial(cls, nvars: int, xexp: Iterable[int], bexp: int = 0,
                 coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {(tuple(xexp), bexp): coeff})

    # -- ring operations ------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixed variable counts {self.nvars} and {other.nvars}")

    # Two valid operands with equal nvars make valid keys, so the results
    # below go in unchecked once their zero coefficients are dropped.

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly._trusted(self.nvars, _nonzero(terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(
            self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms: dict[MonomialKey, int] = {}
        for (xa, ba), ca in self.terms.items():
            for (xb, bb), cb in other.terms.items():
                key = (tuple(a + b for a, b in zip(xa, xb)), ba + bb)
                terms[key] = terms.get(key, 0) + ca * cb
        return LaurentPoly._trusted(self.nvars, _nonzero(terms))

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly._trusted(
            self.nvars, {k: c * v for k, v in self.terms.items()} if c else {})

    def scalar_beta_power(self, k: int) -> "LaurentPoly":
        """Multiply by b^k."""
        return LaurentPoly(
            self.nvars, {(x, b + k): c for (x, b), c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- specializations ------------------------------------------------

    def subst_x_to_beta(self) -> "LaurentPoly":
        """Set every x_i to b: c * x^a * b^e maps to c * b^(sum a + e)."""
        terms: dict[MonomialKey, int] = {}
        zero = (0,) * self.nvars
        for (xexp, bexp), c in self.terms.items():
            key = (zero, sum(xexp) + bexp)
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly(self.nvars, terms)

    def subst_beta_neg_inverse(self) -> "LaurentPoly":
        """Replace b by -1/b: c * x^a * b^e maps to c * (-1)^e * x^a * b^-e."""
        terms = {}
        for (xexp, bexp), c in self.terms.items():
            terms[(xexp, -bexp)] = -c if bexp % 2 else c
        return LaurentPoly(self.nvars, terms)

    def beta_slice(self, k: int) -> "LaurentPoly":
        """Terms with b-exponent exactly k, with the b-power dropped."""
        return LaurentPoly._trusted(  # a new dict of terms already checked
            self.nvars,
            {(x, 0): c for (x, b), c in self.terms.items() if b == k})

    def eval_integers(self, xvals, bval: int) -> Fraction:
        """Exact evaluation at integer points (bval nonzero if b^-k occurs)."""
        from fractions import Fraction  # the only reader; it loads decimal
        xvals = list(xvals)
        if len(xvals) != self.nvars:
            raise ValueError(f"need {self.nvars} x-values, got {len(xvals)}")
        # integer terms sum as ints; only b^-k terms need a Fraction
        whole, part = 0, Fraction(0)
        for (xexp, bexp), c in self.terms.items():
            if bexp < 0 and bval == 0:
                raise ZeroDivisionError(
                    "b = 0 with a negative b-exponent present")
            for v, e in zip(xvals, xexp):
                c *= v ** e
            if bexp >= 0:
                whole += c * bval ** bexp
            else:
                part += Fraction(c, bval ** -bexp)
        return part + whole

    # -- canonical text -------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, tuple[int, ...], int]]:
        """The terms as (b-exponent, x-exponents, coefficient) triples in
        print order: by b-exponent, then x-exponents.  Two terms never
        share both exponents, so the sort never compares coefficients."""
        return sorted([(b, x, c) for (x, b), c in self.terms.items()])

    def _runs(self, as_json: bool) -> list:
        """The terms as ``_render``'s runs: one per orbit when they are
        held by x-orbit (``OrbitTerms``), else one per term."""
        if isinstance(self.terms, OrbitTerms):
            return self.terms.runs(as_json)
        texts = _x_texts([x for x, _ in self.terms], as_json)
        return [(b, c, (x,), t)
                for ((x, b), c), t in zip(self.terms.items(), texts)]

    def __str__(self) -> str:
        return _render(self._runs(False))

    __repr__ = __str__

    _FACTOR = re.compile(r"^(?:x(\d+)|b)(?:\^(-?\d+))?$")

    @classmethod
    def parse(cls, text: str, nvars: int) -> "LaurentPoly":
        text = text.strip()
        if text == "0":
            return cls.zero(nvars)
        lead = 1
        if text.startswith("-"):
            lead, text = -1, text[1:].lstrip()
        chunks = re.split(r"\s+([+-])\s+", text)
        signed_bodies = [(lead, chunks[0])]
        for op, body in zip(chunks[1::2], chunks[2::2]):
            signed_bodies.append((1 if op == "+" else -1, body))
        terms: dict[MonomialKey, int] = {}
        for sign, body in signed_bodies:
            coeff, xexp, bexp = sign, [0] * nvars, 0
            for factor in body.split("*"):
                factor = factor.strip()
                if factor.isdigit():
                    coeff *= int(factor)
                    continue
                m = cls._FACTOR.match(factor)
                if not m:
                    raise ValueError(f"cannot parse factor {factor!r}")
                exp = int(m.group(2)) if m.group(2) else 1
                if m.group(1) is None:
                    bexp += exp
                else:
                    i = int(m.group(1))
                    if not 1 <= i <= nvars:
                        raise ValueError(f"variable x{i} out of range")
                    xexp[i - 1] += exp
            key = (tuple(xexp), bexp)
            terms[key] = terms.get(key, 0) + coeff
        return cls(nvars, terms)

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> str:
        """The JSON text {"terms": [{"b": b, "c": "c", "x": [x1, ...]},
        ...]} on one line (``_render``)."""
        return _render(self._runs(True), as_json=True)

    @classmethod
    def from_json(cls, text: str, nvars: int) -> "LaurentPoly":
        """ValueError unless each term is as ``to_json`` writes it."""
        import json  # the only reader
        terms = {}
        for t in json.loads(text)["terms"]:
            key, c = (tuple(t["x"]), t["b"]), t["c"]
            if not {int}.issuperset(map(type, (*key[0], key[1]))) \
                    or type(c) is not str \
                    or not c.removeprefix("-").isdecimal() or str(int(c)) != c:
                raise ValueError(f"bad term {t!r}")
            terms[key] = terms.get(key, 0) + int(c)
        return cls(nvars, terms)


@lru_cache(maxsize=1024)
def _orbit(rep: tuple) -> tuple[tuple, ...]:
    """Every distinct rearrangement of the exponent tuple rep, once each,
    sorted, so an orbit is one sorted run of ``_render``'s; rep is
    nonincreasing.  Kept per rep, so an orbit is arranged once for every
    polynomial whose representatives share it.

    ``set(permutations(rep))`` runs in C but makes all n! tuples, which is
    fast up to n = 6 (720) and not beyond.  Above that the arrangements
    are built per distinct value, with the arrangements of each
    sub-multiset made once, so the cost follows the distinct
    rearrangements rather than n!.
    """
    if len(rep) <= 6:
        return tuple(sorted(set(permutations(rep))))
    memo: dict = {(): [()]}

    def arrange(rest: tuple) -> list:
        got = memo.get(rest)
        if got is None:
            got = []
            for i, v in enumerate(rest):
                if i and v == rest[i - 1]:  # rest is sorted: one per value
                    continue
                got += [(v,) + t for t in arrange(rest[:i] + rest[i + 1:])]
            memo[rest] = got
        return got

    return tuple(reversed(arrange(rep)))  # arrange lists rep first


@lru_cache(maxsize=1024)
def _orbit_text(rep: tuple, as_json: bool) -> str:
    """The text of each arrangement of ``_orbit(rep)``, in its order, as
    ``_render`` prints it, one line each: kept beside the arrangements, so
    an orbit's terms are written once for every polynomial that prints
    it, and kept as one string, which holds them in about a fifth of the
    memory of one string each."""
    return "\n".join(_x_texts(_orbit(rep), as_json))


class OrbitTerms(Mapping):
    """The terms of a polynomial symmetric in x, read from one
    representative per x-orbit: reps maps (rep, b), rep nonincreasing, to
    the coefficient every arrangement of rep carries.  A read-only view,
    so a ``LaurentPoly`` over it is a whole polynomial.  Two such views
    compare by their representatives; otherwise equality, hashing and the
    ring operations read it as a ``Mapping``.  It prints from the
    representatives (``runs``), with no expansion: a key is looked up by
    its sorted x, and ``len``, iteration and ``items`` read the kept
    arrangements (``_orbit``)."""

    __slots__ = ("reps",)

    def __init__(self, reps: dict[MonomialKey, int]):
        self.reps = reps

    def __getitem__(self, key: MonomialKey) -> int:
        x, b = key
        return self.reps[tuple(sorted(x, reverse=True)), b]

    def __eq__(self, other) -> bool:
        # distinct orbits are disjoint and no coefficient is 0, so two
        # such views are equal exactly when their representatives are
        if isinstance(other, OrbitTerms):
            return self.reps == other.reps
        return super().__eq__(other)

    def __iter__(self):
        return ((x, b) for rep, b in self.reps for x in _orbit(rep))

    def __len__(self) -> int:
        return sum(len(_orbit(rep)) for rep, _ in self.reps)

    def items(self):
        """Every (key, coefficient) pair once, as an iterator: each
        orbit's arrangements read from ``_orbit`` with the orbit's
        coefficient, no lookup per term."""
        return (((x, b), c) for (rep, b), c in self.reps.items()
                for x in _orbit(rep))

    def runs(self, as_json: bool) -> list:
        """``_render``'s runs, one per orbit: its sorted arrangements with
        their text, both kept per orbit."""
        return [(b, c, _orbit(rep), _orbit_text(rep, as_json))
                for (rep, b), c in self.reps.items()]


def _x_texts(xs: Sequence[tuple], as_json: bool) -> list[str]:
    """The text of each x-exponent tuple of xs as ``_render`` prints it:
    its factors, each after a "*" ("*x1^3*x2", and "" for no x), or its
    JSON list ("[3, 1]")."""
    if as_json:
        return list(map(str, map(list, xs)))
    nvars = len(xs[0]) if xs else 0
    top = max(map(max, xs)) if nvars else 0
    # powers[i][e] is "*x(i+1)^e" as printed, and "" for e = 0
    powers = [["", f"*x{i}"] + [f"*x{i}^{e}" for e in range(2, top + 1)]
              for i in range(1, nvars + 1)]
    return ["".join(map(getitem, powers, x)) for x in xs]


def _render(runs: Iterable[tuple], as_json: bool = False) -> str:
    """The canonical text of a polynomial, or with ``as_json`` its JSON
    text, from runs (b, c, xs, lines): the terms c * x^xs[i] * b^b, in
    any order of runs, each run's xs sorted and no x in two runs with
    the same b, line i of lines being ``_x_texts`` of xs[i].  A run's
    lines are split only when its b is written, so one b's term texts
    are held at a time.

    The one statement of the print format.  Terms go by b-exponent, then
    x-exponents; per b the runs' terms are concatenated and sorted once,
    by x alone, so the sort merges the sorted runs.  A term prints its
    sign, then its coefficient unless that is 1 (and ``1`` for a term with
    no factor), its x factors and ``*b^e`` (``*b`` for e = 1); the first
    term drops the spaces of its sign, and the zero polynomial prints
    ``0``.  The JSON text is {"terms": [{"b": b, "c": "c", "x": [x1,
    ...]}, ...]} on one line, terms in the same order, keys sorted, as
    ``json.dumps(..., sort_keys=True)`` writes it, c being the decimal
    text of the coefficient.
    """
    by_b: dict = {}
    for run in runs:
        by_b.setdefault(run[0], []).append(run)
    out: list = []
    for b in sorted(by_b):
        tail = "}" if as_json else "*b" if b == 1 else f"*b^{b}" if b else ""
        terms: list = []
        for _, c, xs, lines in by_b[b]:
            texts = lines.split("\n")
            sign = " - " if c < 0 else " + "
            if as_json:
                head = f'{{"b": {b}, "c": "{c}", "x": '
            elif c != 1 and c != -1:
                head = f"{sign}{abs(c)}"
            else:  # the 1 elided with the body's first "*", or the body "1"
                terms += zip(xs, [sign + ((t + tail)[1:] or "1")
                                  for t in texts])
                continue
            terms += zip(xs, [head + t + tail for t in texts])
        terms.sort(key=itemgetter(0))
        out += map(itemgetter(1), terms)
    if as_json:
        return '{"terms": [' + ", ".join(out) + "]}"
    text = "".join(out)  # the first term's sign is " + " or " - "
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _nonzero(terms: dict[MonomialKey, int]) -> dict[MonomialKey, int]:
    """terms without its zero coefficients."""
    return {k: c for k, c in terms.items() if c}
