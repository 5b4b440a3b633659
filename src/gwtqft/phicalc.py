"""Laurent polynomials in phi = 2 sin(u/2) over Q(t0, t1, t2), and the bridge
to truncated Laurent series in the genus parameter u.

Every partition function in this library is a PhiElem: finitely many powers
of phi with TRat coefficients.  A fiber class of a partition function is one
of its phi powers (see ``partition``), so classes are read off the phi
grading.  Series in u are produced only on demand, for extracting
fixed-genus invariants, and carry an explicit truncation order so that
nothing is ever silently approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .exactring import RAT_ZERO, ReductionError, TPoly, TRat, _point, as_rat


class PrecisionError(ValueError):
    """A series coefficient beyond the truncation horizon was requested."""


class PhiElem:
    """Laurent polynomial in phi with TRat coefficients.

    ``terms`` maps integer phi-exponents (possibly negative) to nonzero TRat
    coefficients.  Immutable by convention.  The generators, the trace
    engine and the word path hold folded elements instead: PhiElems built
    with ``_raw`` whose coefficients are XYRat (see ``operators``).  +, -
    and * work on them coefficientwise as on TRat ones; a folded and a TRat
    coefficient never mix, and ``gluing._unfold`` turns a folded element
    into a TRat one for output.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, TRat] | None = None):
        clean: dict[int, TRat] = {}
        if terms:
            for m, c in terms.items():
                c = as_rat(c)
                if not c.is_zero:
                    clean[m] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[int, TRat]) -> "PhiElem":
        e = object.__new__(cls)
        e.terms = terms
        return e

    @classmethod
    def zero(cls) -> "PhiElem":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "PhiElem":
        c = as_rat(c)
        return cls._raw({0: c} if not c.is_zero else {})

    @classmethod
    def one(cls) -> "PhiElem":
        return cls.const(1)

    @classmethod
    def term(cls, coeff, m: int = 0) -> "PhiElem":
        """coeff * phi^m"""
        c = as_rat(coeff)
        return cls._raw({m: c} if not c.is_zero else {})

    # -- structure -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, m: int) -> TRat:
        return self.terms.get(m, RAT_ZERO)

    def items(self) -> list[tuple[int, TRat]]:
        return sorted(self.terms.items())

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero element has no minimal exponent")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero element has no maximal exponent")
        return max(self.terms)

    def __eq__(self, other):
        o = _as_phi(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = _as_phi(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for m, c in o.terms.items():
            v = acc.get(m)
            if v is None:
                acc[m] = c
            else:
                v = v + c
                if v.is_zero:
                    del acc[m]
                else:
                    acc[m] = v
        return PhiElem._raw(acc)

    __radd__ = __add__

    def __neg__(self):
        return PhiElem._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = _as_phi(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = _as_phi(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return PhiElem._raw({})
        acc: dict[int, TRat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = m1 + m2
                p = c1 * c2
                v = acc.get(m)
                if v is None:
                    acc[m] = p
                else:
                    v = v + p
                    if v.is_zero:
                        del acc[m]
                    else:
                        acc[m] = v
        return PhiElem._raw(acc)

    __rmul__ = __mul__

    # -- coefficientwise maps --------------------------------------------------

    def map_coeffs(self, fn: Callable[[TRat], TRat]) -> "PhiElem":
        acc: dict[int, TRat] = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero:
                acc[m] = v
        return PhiElem._raw(acc)

    def permute_vars(self, perm: Sequence[int]) -> "PhiElem":
        return self.map_coeffs(lambda c: c.permute_vars(perm))

    def evaluate_t(self, point) -> dict[int, Fraction]:
        """Nonzero numeric coefficient values at a t-point; phi stays formal.

        The point is converted and checked once, as TRat.evaluate does."""
        pt = _point(point)
        out = {}
        for m, c in self.terms.items():
            v = c._value(pt)
            if v:
                out[m] = v
        return out

    def scalar(self) -> TRat:
        """The phi^0 coefficient of a phi-free element."""
        if not self.terms:
            return RAT_ZERO
        if set(self.terms) != {0}:
            raise ValueError("element is not phi-free")
        return self.terms[0]

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.items():
            parts.append(_format_term(str(c), "phi", m))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PhiElem({self})"

    # -- serialization -------------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        return [
            {"phi_exp": m, "num": str(c.num), "den": str(c.den)}
            for m, c in self.items()
        ]

    @classmethod
    def from_json_terms(cls, terms: list[dict]) -> "PhiElem":
        from .exactring import parse_poly

        acc: dict[int, TRat] = {}
        for t in terms:
            acc[int(t["phi_exp"])] = TRat.make(parse_poly(t["num"]), parse_poly(t["den"]))
        return cls(acc)


def _format_term(coeff_str: str, var: str, m: int) -> str:
    if m == 0:
        return coeff_str
    head = var if m == 1 else f"{var}^{m}"
    if coeff_str == "1":
        return head
    if coeff_str == "-1":
        return "-" + head
    if " " in coeff_str:
        coeff_str = f"({coeff_str})"
    return f"{coeff_str}*{head}"


def _as_phi(x) -> PhiElem | None:
    if isinstance(x, PhiElem):
        return x
    if isinstance(x, (int, Fraction, TPoly, TRat)):
        return PhiElem.const(x)
    return None


# -- truncated Laurent series in u --------------------------------------------


class USeries:
    """Truncated Laurent series in u with TRat coefficients.

    Coefficients are defined exactly for exponents min_exp..trunc and are
    known to vanish below min_exp; beyond trunc they are undefined, and
    asking for them raises PrecisionError rather than returning zero.
    """

    __slots__ = ("min_exp", "coeffs", "trunc")

    def __init__(self, min_exp: int, coeffs: Sequence, trunc: int):
        coeffs = [as_rat(c) for c in coeffs]
        if len(coeffs) != max(trunc - min_exp + 1, 0):
            raise ValueError("coefficient window does not match truncation order")
        self.min_exp = min_exp
        self.coeffs = coeffs
        self.trunc = trunc

    @classmethod
    def zero(cls, trunc: int) -> "USeries":
        return cls(trunc + 1, [], trunc)

    def coeff(self, k: int) -> TRat:
        if k > self.trunc:
            raise PrecisionError(
                f"coefficient of u^{k} requested beyond truncation order {self.trunc}"
            )
        if k < self.min_exp:
            return RAT_ZERO
        return self.coeffs[k - self.min_exp]

    def __add__(self, other: "USeries") -> "USeries":
        trunc = min(self.trunc, other.trunc)
        lo = min(self.min_exp, other.min_exp)
        if lo > trunc:
            return USeries.zero(trunc)
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(lo, trunc + 1)]
        return USeries(lo, coeffs, trunc)

    def __mul__(self, other: "USeries") -> "USeries":
        # truncation: unknown tails enter at a.trunc + b.min_exp and vice versa
        trunc = min(self.trunc + other.min_exp, other.trunc + self.min_exp)
        lo = self.min_exp + other.min_exp
        if not self.coeffs or not other.coeffs:
            return USeries.zero(min(self.trunc, other.trunc))
        if lo > trunc:
            return USeries.zero(trunc)
        coeffs = [RAT_ZERO] * (trunc - lo + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                k = self.min_exp + i + other.min_exp + j
                if k > trunc:
                    break
                coeffs[k - lo] = coeffs[k - lo] + a * b
        return USeries(lo, coeffs, trunc)

    def scale(self, c) -> "USeries":
        c = as_rat(c)
        return USeries(self.min_exp, [c * x for x in self.coeffs], self.trunc)

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        if self.trunc != other.trunc:
            return False
        lo = min(self.min_exp, other.min_exp)
        return all(self.coeff(k) == other.coeff(k) for k in range(lo, self.trunc + 1))

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for k in range(self.min_exp, self.trunc + 1):
            c = self.coeff(k)
            if c.is_zero:
                continue
            parts.append(_format_term(str(c), "u", k))
        parts.append(f"O(u^{self.trunc + 1})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"USeries({self})"


# -- the expansion phi = 2 sin(u/2) --------------------------------------------


def _phi_coeffs(order: int) -> list[Fraction]:
    # coefficients of u^1..u^order in 2 sin(u/2); read from u^0, those of phi/u
    return [
        Fraction((-1) ** (k // 2), 4 ** (k // 2) * math.factorial(k)) if k % 2 else Fraction(0)
        for k in range(1, order + 1)
    ]


def phi_expansion(order: int) -> USeries:
    """Series of 2 sin(u/2) with exact coefficients up to u^order."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return USeries(1, _phi_coeffs(order), order)


def _series_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if not x or i >= n:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            if y:
                out[i + j] += x * y
    return out


def _series_inv(a: list[Fraction], n: int) -> list[Fraction]:
    # invert a power series with a[0] = 1
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                s += a[j] * out[k - j]
        out[k] = -s
    return out


def _series_pow(a: list[Fraction], e: int, n: int) -> list[Fraction]:
    result = [Fraction(0)] * n
    result[0] = Fraction(1)
    base = a[:n] + [Fraction(0)] * max(0, n - len(a))
    while e:
        if e & 1:
            result = _series_mul(result, base, n)
        base = _series_mul(base, base, n)
        e >>= 1
    return result


def phi_pow_series(m: int, order: int) -> USeries:
    """Series of phi^m up to u^order; negative m via inversion of phi/u."""
    if m > order:
        return USeries.zero(order)
    n = order - m + 1
    unit = _phi_coeffs(n)  # phi/u, from u^0
    if m >= 0:
        coeffs = _series_pow(unit, m, n)
    else:
        coeffs = _series_pow(_series_inv(unit, n), -m, n)
    return USeries(m, [TRat.const(c) for c in coeffs], order)


def to_useries(e: PhiElem, order: int) -> USeries:
    """Expand a phi-Laurent polynomial into a u-series, truncated at u^order."""
    total = USeries.zero(order)
    for m, c in e.items():
        total = total + phi_pow_series(m, order).scale(c)
    return total


# -- exact division of phi-polynomials -------------------------------------------


def laurent_divexact(num: PhiElem, den: PhiElem) -> PhiElem:
    """Exact quotient num/den in the Laurent-polynomial ring over Q(t).

    Raises ReductionError when den does not divide num.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by zero phi-polynomial")
    if num.is_zero:
        return PhiElem.zero()
    dmin = den.min_exp()
    dlead = den.coeff(dmin)
    max_q = num.max_exp() - den.max_exp()
    quot: dict[int, TRat] = {}
    rem = num
    while not rem.is_zero:
        m = rem.min_exp() - dmin
        if m > max_q:
            raise ReductionError("phi-polynomial quotient does not reduce")
        c = rem.coeff(rem.min_exp()) / dlead
        quot[m] = c
        rem = rem - den * PhiElem.term(c, m)
    return PhiElem._raw(quot)
