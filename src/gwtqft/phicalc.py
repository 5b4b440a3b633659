"""Laurent polynomials in phi = 2 sin(u/2) over Q(t0, t1, t2), and the
u-expansion of one phi power.

Every partition function in this library is a PhiElem: finitely many powers
of phi with TRat coefficients.  A fiber class of a partition function is one
of its phi powers (see ``partition``), so classes are read off the phi
grading.  The fixed-genus invariants of a class are u-coefficients of that
single term c * phi^m; ``phi_pow_coeffs`` gives exactly as many of them as
a table asks for, so nothing is ever silently approximated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .exactring import RAT_ZERO, ReductionError, TPoly, TRat, _point, as_rat


class PhiElem:
    """Laurent polynomial in phi with TRat coefficients.

    ``terms`` maps integer phi-exponents (possibly negative) to nonzero TRat
    coefficients.  Immutable by convention.  The generators, the trace
    engine and the word path hold folded elements instead: PhiElems built
    with ``_raw`` whose coefficients are XYRat (see ``operators``), and the
    numeric cross-check holds ones with plain Fraction coefficients.  +, -
    and * work on them coefficientwise as on TRat ones; coefficients of two
    kinds never mix, and ``gluing._unfold`` turns a folded element into a
    TRat one for output.
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
                if v:
                    acc[m] = v
                else:
                    del acc[m]
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
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
        return PhiElem._raw(acc)

    __rmul__ = __mul__

    # -- coefficientwise maps --------------------------------------------------

    def map_coeffs(self, fn: Callable[[TRat], TRat]) -> "PhiElem":
        acc: dict[int, TRat] = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v:
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
            parts.append(_format_term(str(c), m))
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


def _format_term(coeff_str: str, m: int) -> str:
    if m == 0:
        return coeff_str
    head = "phi" if m == 1 else f"phi^{m}"
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


# -- the u-expansion of a phi power ---------------------------------------------


def phi_pow_coeffs(m: int, n: int) -> list[Fraction]:
    """The coefficients of u^m, u^(m + 2), ..., u^(m + 2n - 2) in phi^m.

    phi = 2 sin(u/2) = u a(w) with w = u^2 and a_j = (-1)^j / (4^j (2j + 1)!),
    so phi^m = u^m a(w)^m and the odd offsets vanish.  The coefficients f of
    a^m follow from J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2,
    4.7), one O(n^2) pass for every sign of m:
    k f_k = sum_{j=1..k} ((m + 1) j - k) a_j f_(k-j), with f_0 = 1.
    """
    a = [Fraction(1)]
    for j in range(1, n):
        a.append(a[-1] / (-8 * j * (2 * j + 1)))
    f = [Fraction(1)] if n > 0 else []
    for k in range(1, n):
        f.append(sum(((m + 1) * j - k) * a[j] * f[k - j] for j in range(1, k + 1)) / k)
    return f


# -- exact division of phi-polynomials -------------------------------------------


def laurent_divexact(num: PhiElem, den: PhiElem) -> PhiElem:
    """Exact quotient num/den in the Laurent-polynomial ring over Q(t), or
    over Q when both have Fraction coefficients.

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
        rem = rem - den * PhiElem._raw({m: c})
    return PhiElem._raw(quot)
