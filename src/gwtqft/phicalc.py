"""Laurent polynomials in phi = 2 sin(u/2), and the u-expansion of one phi
power.

Every partition function in this library is a PhiElem: finitely many powers
of phi with coefficients in one ring.  A fiber class of a partition function
is one of its phi powers (see ``partition``), so classes are read off the
phi grading.  The fixed-genus invariants of a class are u-coefficients of
that single term c * phi^m; ``phi_pow_coeffs`` gives exactly as many of them
as a table asks for, so nothing is ever silently approximated.  JSON is
written only, never read back.  ``PhiElem.render`` joins the printing
walks of its TRat coefficients in one ``exactring.Style``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactring import FIRST, TEXT, Style


class PhiElem:
    """Laurent polynomial in phi: ``terms`` maps integer phi-exponents
    (possibly negative) to nonzero coefficients of one kind.

    The generators, the trace engine and the word path hold XYRat
    coefficients, folded at t2 = 0 (see ``operators``), and
    ``gluing._unfold`` re-expands them into TRat coefficients in t0, t1, t2
    for output.  The constructor trusts its terms, and +, - and * work
    coefficientwise the same way on either kind; coefficients of two kinds
    never mix.  Immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @classmethod
    def zero(cls) -> "PhiElem":
        return cls({})

    @classmethod
    def term(cls, c, m: int = 0) -> "PhiElem":
        """c * phi^m"""
        return cls({m: c} if c else {})

    # -- structure -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self) -> list[tuple[int, object]]:
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, PhiElem):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PhiElem):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            v = acc.get(m)
            if v is None:
                acc[m] = c
            else:
                v = v + c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return PhiElem(acc)

    def __neg__(self):
        return PhiElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PhiElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PhiElem):
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
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
        return PhiElem(acc)

    # -- printing ----------------------------------------------------------------

    def render(self, style: Style = TEXT) -> str:
        """The element in one output format, its phi powers in increasing
        order: each is its TRat coefficient's walk with the phi head as tail,
        phi^0 without one, and every term after the first joined by
        style.phi_signs."""
        if not self.terms:
            return "0"
        one, power = style.phi
        out, lead = [], FIRST
        for m, c in self.items():
            out.append(c.render(style, "" if m == 0 else one if m == 1 else power.format(m), lead))
            lead = style.phi_signs
        return "".join(out)

    __str__ = render

    def __repr__(self) -> str:
        return f"PhiElem({self.terms!r})"

    # -- serialization -------------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        return [{"phi_exp": m, **c.to_json()} for m, c in self.items()]


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
