"""Exact sparse Laurent polynomials in x1..xn and b (the deformation parameter).

x-exponents are nonnegative; the b-exponent may be negative.  Coefficients
are Python ints, so arithmetic never overflows.  Terms print in a canonical
ASCII grammar such as "2*x1^3*x2*b^-1 + b^7" (terms sorted by b-exponent,
then x-exponents lexicographically), and parse back exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
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

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return LaurentPoly(self.nvars, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms: dict[MonomialKey, int] = {}
        for (xa, ba), ca in self.terms.items():
            for (xb, bb), cb in other.terms.items():
                key = (tuple(a + b for a, b in zip(xa, xb)), ba + bb)
                terms[key] = terms.get(key, 0) + ca * cb
        return LaurentPoly(self.nvars, terms)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {k: c * v for k, v in self.terms.items()})

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
        return LaurentPoly(
            self.nvars,
            {(x, 0): c for (x, b), c in self.terms.items() if b == k})

    def eval_integers(self, xvals, bval: int) -> Fraction:
        """Exact evaluation at integer points (bval nonzero if b^-k occurs)."""
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

    def sorted_terms(self) -> list[tuple[MonomialKey, int]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for idx, ((xexp, bexp), c) in enumerate(self.sorted_terms()):
            factors = []
            for i, e in enumerate(xexp, start=1):
                if e == 1:
                    factors.append(f"x{i}")
                elif e:
                    factors.append(f"x{i}^{e}")
            if bexp == 1:
                factors.append("b")
            elif bexp:
                factors.append(f"b^{bexp}")
            mag = abs(c)
            body = "*".join(factors) if factors else str(mag)
            if factors and mag != 1:
                body = f"{mag}*{body}"
            if idx == 0:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

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

    def to_json(self) -> dict:
        return {"terms": [
            {"x": list(x), "b": b, "c": str(c)}
            for (x, b), c in self.sorted_terms()
        ]}

    @classmethod
    def from_json(cls, data: dict, nvars: int) -> "LaurentPoly":
        terms = {}
        for t in data["terms"]:
            key = (tuple(t["x"]), t["b"])
            terms[key] = terms.get(key, 0) + int(t["c"])
        return cls(nvars, terms)
