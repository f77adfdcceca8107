"""Exact sparse Laurent polynomials in x1..xn and b (the deformation parameter).

x-exponents are nonnegative; the b-exponent may be negative.  Coefficients
are Python ints, so arithmetic never overflows.  Terms print in a canonical
ASCII grammar such as "2*x1^3*x2*b^-1 + b^7" (terms sorted by b-exponent,
then x-exponents lexicographically), and parse back exactly.  The text and
the one-line JSON document (``to_json``, which ``from_json`` reads back)
are both written from one sort of plain (b, x, c) triples
(``sorted_terms``), the one statement of the term order; the text reads
each factor from a table of power names per variable.  Ring operations
on two valid operands build their result unchecked, dropping zero
coefficients; the public constructor checks every term.
"""

from __future__ import annotations

import re
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
            if coeff == 0:
                continue
            xexp = tuple(xexp)
            if len(xexp) != nvars or any(e < 0 for e in xexp):
                raise ValueError(f"bad x-exponents {xexp} for {nvars} variables")
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

    def __str__(self) -> str:
        triples = self.sorted_terms()
        if not triples:
            return "0"
        top = max(map(max, map(itemgetter(1), triples))) if self.nvars else 0
        # powers[i][e] is "*x(i+1)^e" as printed, and "" for e = 0
        powers = [["", f"*x{i}"] + [f"*x{i}^{e}" for e in range(2, top + 1)]
                  for i in range(1, self.nvars + 1)]
        chunks = []
        for b, x, c in triples:
            body = "".join(map(getitem, powers, x))
            if b:
                body += "*b" if b == 1 else f"*b^{b}"
            if c < 0:
                sign, c = " - ", -c
            else:
                sign = " + "
            if c != 1:
                chunks.append(f"{sign}{c}{body}")
            else:
                chunks.append(sign + (body[1:] or "1"))
        text = "".join(chunks)  # the first term's sign is " + " or " - "
        return text[3:] if text[1] == "+" else "-" + text[3:]

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
        ...]} on one line, terms in print order, keys sorted, as
        ``json.dumps(..., sort_keys=True)`` writes it; c is the decimal
        text of the coefficient."""
        terms = ", ".join([f'{{"b": {b}, "c": "{c}", "x": {list(x)}}}'
                           for b, x, c in self.sorted_terms()])
        return f'{{"terms": [{terms}]}}'

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


def _nonzero(terms: dict[MonomialKey, int]) -> dict[MonomialKey, int]:
    """terms without its zero coefficients."""
    return {k: c for k, c in terms.items() if c}
