"""Exact arithmetic over Q[t0, t1, t2] and the fractions the theory produces.

TPoly is a sparse trivariate polynomial over Q.  A coefficient is stored as
given, an int or a Fraction, and only zeros are dropped: an integral
Fraction equals, hashes and prints like the equal int, so no operation
normalises its result.

TRat is a fraction whose denominator is a product of powers of the three
linear forms t0 - t1, t0 - t2, t1 - t2, stored as an exponent triple; its
canonical form makes structural equality coincide with mathematical equality.
A denominator outside those products raises ReductionError.

XYRat is the same fraction folded at t2 = 0: a numerator in Z[x, y],
x = t0 - t2 and y = t1 - t2, over (x - y)^a x^b y^c.  Every weight,
operator, tensor and trace of the theory is translation invariant, so the
generators are built, multiplied and glued in this ring alone, and the
paper's closed forms are checked in it.  TRat only holds the re-expanded
outputs; it adds and multiplies another TRat and has no division.  Every
product of the three linear forms is expanded one way, as the Taylor shift
_shift of its fold.  All values are immutable after construction and safe
to share between threads.

All printing lives here and in ``PhiElem.render``: each of TPoly, TRat and
PhiElem has one walk, ``render``, that decides term order, signs, unit
coefficients and parentheses for every format, and a ``Style`` (TEXT or
LATEX) holds the only tokens in which the formats differ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

Exponent = tuple[int, int, int]

_ZERO_EXP: Exponent = (0, 0, 0)


# -- printing ------------------------------------------------------------------


class Style(NamedTuple):
    """The tokens of one output format; the walks read all else off the value."""

    names: tuple[str, str, str]  # t0, t1, t2
    times: str  # between the factors of a term
    signs: tuple[str, str]  # before a positive and a negative term after the first
    ratio: str  # a coefficient n/d with d > 1, from n and d
    fraction: str  # a fraction, from its numerator and denominator
    group: str  # a numerator or denominator of more than one term
    phi: tuple[str, str]  # phi, and phi^m from m
    phi_signs: tuple[str, str]  # signs, between the terms of a PhiElem


TEXT = Style(("t0", "t1", "t2"), "*", (" + ", " - "), "{}/{}", "{} / {}", "({})",
             ("phi", "phi^{}"), (" + ", " + -"))
LATEX = Style(("t_0", "t_1", "t_2"), "", ("+", "-"), r"\frac{{{}}}{{{}}}", r"\frac{{{}}}{{{}}}",
              "{}", (r"\phi", r"\phi^{{{}}}"), ("+", "-"))

#: the signs before a positive and a negative first term
FIRST = ("", "-")


def _grlex(e: Exponent) -> tuple[int, Exponent]:
    # graded lexicographic order with t0 > t1 > t2
    return (e[0] + e[1] + e[2], e)


class TPoly:
    """Sparse polynomial in t0, t1, t2 over Q.

    ``terms`` maps exponent triples to nonzero coefficients, each an int or
    a Fraction as given; the zero polynomial is the empty map.  Instances
    are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction | int] | None = None):
        clean: dict[Exponent, int | Fraction] = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[Exponent, Fraction]) -> "TPoly":
        # trusted constructor: terms already clean
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "TPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c: Fraction | int) -> "TPoly":
        return cls._raw({_ZERO_EXP: c} if c else {})

    @classmethod
    def one(cls) -> "TPoly":
        return cls.const(1)

    @classmethod
    def var(cls, i: int) -> "TPoly":
        e = [0, 0, 0]
        e[i] = 1
        return cls._raw({tuple(e): 1})

    # -- basic structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def scale(self, c: Fraction | int) -> "TPoly":
        if not c:
            return TPoly._raw({})
        return TPoly._raw({e: cf * c for e, cf in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "TPoly | None":
        if isinstance(other, TPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in o.terms.items():
            v = acc.get(e)
            if v is None:
                acc[e] = c
            else:
                v = v + c
                if v:
                    acc[e] = v
                else:
                    del acc[e]
        return TPoly._raw(acc)

    __radd__ = __add__

    def __neg__(self):
        return TPoly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                v = acc.get(e)
                acc[e] = c1 * c2 if v is None else v + c1 * c2
        return TPoly._raw({e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers need a nonnegative integer")
        result = TPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- printing ------------------------------------------------------------

    def render(self, style: Style = TEXT, tail: str = "", lead: tuple[str, str] = FIRST) -> str:
        """The polynomial in graded lex order with t0 > t1 > t2: the one walk
        that writes the terms of a sum.  Each term is written after the sign
        pair lead (for the first term) or style.signs, indexed by whether it
        is negative; tail is one more factor of every term (a phi head), and
        a coefficient 1 is written only in a term with no other factor."""
        terms = self.terms
        if not terms:
            return "0"
        names, times, ratio, later = style.names, style.times, style.ratio, style.signs
        order = sorted(terms, key=_grlex, reverse=True)
        # the powers of each variable, as printed, up to the top degree
        p0, p1, p2 = ([""] + [v] + [f"{v}^{k}" for k in range(2, sum(order[0]) + 1)] for v in names)
        out, signs = [], lead
        for e in order:
            c = terms[e]
            mono = times.join([s for s in (p0[e[0]], p1[e[1]], p2[e[2]]) if s])
            if tail:
                mono = f"{mono}{times}{tail}" if mono else tail
            ac = -c if c < 0 else c
            if ac != 1 or not mono:
                n = str(ac) if ac.denominator == 1 else ratio.format(ac.numerator, ac.denominator)
                mono = f"{n}{times}{mono}" if mono else n
            out.append(signs[c < 0] + mono)
            signs = later
        return "".join(out)

    __str__ = render

    def __repr__(self) -> str:
        return f"TPoly({self})"


#: the linear forms t0 - t1, t0 - t2, t1 - t2, as index pairs (a, b) of t_a - t_b
_LINEAR_PAIRS = ((0, 1), (0, 2), (1, 2))


def _div_linear(p: TPoly, a: int, b: int) -> TPoly | None:
    """Exact quotient p / (t_a - t_b), or None when the form does not divide p.

    Each slice of p by the power of the third variable is a polynomial in
    x = t_a, y = t_b, divided by x - y with _div_diff.
    """
    c = 3 - a - b
    slices: dict[int, dict] = {}
    for e, v in p.terms.items():
        slices.setdefault(e[c], {})[e[a], e[b]] = v
    quot: dict[Exponent, Fraction] = {}
    e = [0, 0, 0]
    for k, part in slices.items():
        q = _div_diff(part)
        if q is None:
            return None
        for (i, j), v in q.items():
            e[a], e[b], e[c] = i, j, k
            quot[tuple(e)] = v
    return TPoly._raw(quot)


def _cancel_forms(p: TPoly, limit: Sequence[int]) -> tuple[TPoly, list[int]]:
    """Divide the i-th linear form out of p as often as it goes, at most
    limit[i] times; returns the quotient and how often each form went."""
    counts = [0, 0, 0]
    for i, (a, b) in enumerate(_LINEAR_PAIRS):
        while counts[i] < limit[i]:
            q = _div_linear(p, a, b)
            if q is None:
                break
            p = q
            counts[i] += 1
    return p, counts


def _times_forms(p: TPoly, dexp: Sequence[int]) -> TPoly:
    """p times (t0 - t1)^a (t0 - t2)^b (t1 - t2)^c for dexp = (a, b, c)."""
    return p * _shift(_xy_times_forms({(0, 0): 1}, dexp))


# -- rational functions ------------------------------------------------------


class ReductionError(ArithmeticError):
    """A quotient that the theory guarantees to reduce did not: a denominator
    outside the products of (ti - tj), or a trace of the engine that is not
    an integer polynomial of its weight.  Signals a bug, never a bad
    request."""


class TRat:
    """Fraction num / ((t0-t1)^a (t0-t2)^b (t1-t2)^c) with ``dexp = (a, b, c)``.

    These are the only denominators the theory produces: products of the
    fixed-point weights T(x_a).  Canonical form: no linear form with a positive
    exponent divides num, and dexp = (0, 0, 0) when num = 0.  The expanded
    denominator is monic in graded lex, so structural equality coincides with
    mathematical equality.  Use :meth:`make` to construct from a polynomial
    denominator; it raises ReductionError when the denominator is not a
    constant times a product of the linear forms.
    """

    __slots__ = ("num", "dexp")

    def __init__(self, num: TPoly, dexp: Exponent = _ZERO_EXP):
        # trusted constructor: (num, dexp) must already be canonical
        self.num = num
        self.dexp = dexp

    @classmethod
    def _reduced(cls, num: TPoly, dexp: Sequence[int]) -> "TRat":
        # cancel the linear forms num shares with the denominator
        if not num:
            return RAT_ZERO
        num, k = _cancel_forms(num, dexp)
        return cls(num, (dexp[0] - k[0], dexp[1] - k[1], dexp[2] - k[2]))

    @classmethod
    def make(cls, num, den=1) -> "TRat":
        p, q = TPoly._coerce(num), TPoly._coerce(den)
        if p is None or q is None:
            raise TypeError(f"cannot interpret {(num if p is None else den)!r} as a polynomial")
        if not q:
            raise ZeroDivisionError("denominator is zero")
        if not p:
            return RAT_ZERO
        # each form divides q at most its total degree times
        rest, dexp = _cancel_forms(q, (max(map(sum, q.terms)),) * 3)
        if not rest.is_const:
            raise ReductionError(f"denominator {q} is not a product of ti - tj")
        return cls._reduced(p.scale(Fraction(1) / rest.terms[_ZERO_EXP]), dexp)

    # -- structure -----------------------------------------------------------

    @property
    def den(self) -> TPoly:
        """The expanded denominator (t0-t1)^a (t0-t2)^b (t1-t2)^c, the
        Taylor shift of its fold (x - y)^a x^b y^c."""
        return _shift(_xy_times_forms({(0, 0): 1}, self.dexp))

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_poly(self) -> bool:
        return not any(self.dexp)

    def __eq__(self, other):
        if not isinstance(other, TRat):
            return NotImplemented
        return self.num == other.num and self.dexp == other.dexp

    def __hash__(self):
        return hash((self.num, self.dexp))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TRat):
            return NotImplemented
        dexp = tuple(map(max, self.dexp, other.dexp))
        n1 = _times_forms(self.num, [m - k for m, k in zip(dexp, self.dexp)])
        n2 = _times_forms(other.num, [m - k for m, k in zip(dexp, other.dexp)])
        return TRat._reduced(n1 + n2, dexp)

    def __neg__(self):
        return TRat(-self.num, self.dexp)

    def __sub__(self, other):
        if not isinstance(other, TRat):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TRat):
            return NotImplemented
        if not self.num or not other.num:
            return RAT_ZERO
        # each numerator is already coprime to its own denominator, so
        # cancelling it against the other denominator gives canonical form
        n1, k2 = _cancel_forms(self.num, other.dexp)
        n2, k1 = _cancel_forms(other.num, self.dexp)
        return TRat(
            n1 * n2,
            tuple(a - i + b - j for a, i, b, j in zip(self.dexp, k1, other.dexp, k2)),
        )

    # -- printing --------------------------------------------------------------

    def render(self, style: Style = TEXT, tail: str = "", lead: tuple[str, str] = FIRST) -> str:
        """The fraction, then a tail factor (a phi head) if given, after the
        signs lead.  Before a tail the fraction is parenthesised when it has
        more than one term or a denominator; a numerator or denominator of
        more than one term is written as style.group says."""
        num = self.num
        if self.is_poly:
            if len(num.terms) < 2 or not tail:
                return num.render(style, tail, lead)
            body = num.render(style)
        else:
            sides = []
            for p in (num, self.den):
                text = p.render(style)
                sides.append(style.group.format(text) if len(p.terms) > 1 else text)
            body = style.fraction.format(*sides)
        return lead[0] + (f"({body}){style.times}{tail}" if tail else body)

    __str__ = render

    def to_json(self) -> dict:
        """The JSON fields of the fraction: "num" and "den" as text."""
        return {"num": str(self.num), "den": str(self.den)}

    def __repr__(self) -> str:
        return f"TRat({self})"


RAT_ZERO = TRat(TPoly.zero())


# -- folded fractions over Z[x, y] ---------------------------------------------

# A polynomial in x = t0 - t2 and y = t1 - t2, as {(a, b): c} for the terms
# c x^a y^b; no coefficient is zero.
_XYPoly = dict[tuple[int, int], int]


def _xy_mul_into(acc: dict, f: _XYPoly, g: _XYPoly, scale: int = 1) -> dict:
    """Add scale * f * g to acc, which may be left holding zero coefficients."""
    for (a1, b1), c1 in f.items():
        c1 *= scale
        for (a2, b2), c2 in g.items():
            e = (a1 + a2, b1 + b2)
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


def _xy_clean(acc: dict) -> _XYPoly:
    return {e: c for e, c in acc.items() if c}


def _div_diff(p: _XYPoly) -> _XYPoly | None:
    """Exact quotient p / (x - y), or None when x - y does not divide p.

    Degree by degree: for the degree-d part sum of c_a x^a y^(d-a), the
    quotient has q_a = -(c_0 + ... + c_a), and the division is exact when
    the c_a sum to 0, that is when the part vanishes at x = y.
    """
    if sum(p.values()):
        return None  # p(1, 1) != 0
    rows: dict[int, list[tuple[int, int]]] = {}
    for (a, b), c in p.items():
        rows.setdefault(a + b, []).append((a, c))
    if any(sum(c for _, c in row) for row in rows.values()):
        return None
    quot: _XYPoly = {}
    for d, row in rows.items():
        row.sort()
        s = 0
        for (a, c), (nxt, _) in zip(row, row[1:]):
            s += c
            if s:
                for i in range(a, nxt):
                    quot[i, d - 1 - i] = -s
    return quot


def _xy_cancel(p: _XYPoly, limit: Sequence[int]) -> tuple[_XYPoly, Exponent]:
    """Divide x - y, x and y out of a nonzero p as often as each goes, at
    most limit[i] times; returns the quotient and how often each form went.
    x and y go as often as every term carries them."""
    i = 0
    while i < limit[0]:
        q = _div_diff(p)
        if q is None:
            break
        p = q
        i += 1
    j, k = limit[1], limit[2]
    if j or k:
        for a, b in p:
            if a < j:
                j = a
            if b < k:
                k = b
        if j or k:
            p = {(a - j, b - k): c for (a, b), c in p.items()}
    return p, (i, j, k)


def _xy_times_forms(p: _XYPoly, dexp: Sequence[int]) -> _XYPoly:
    """p times (x - y)^dexp[0] x^dexp[1] y^dexp[2]."""
    for _ in range(dexp[0]):
        acc: dict = {}
        for (a, b), c in p.items():
            acc[a + 1, b] = acc.get((a + 1, b), 0) + c
            acc[a, b + 1] = acc.get((a, b + 1), 0) - c
        p = _xy_clean(acc)
    if dexp[1] or dexp[2]:
        p = {(a + dexp[1], b + dexp[2]): c for (a, b), c in p.items()}
    return p


def _shift(num: _XYPoly) -> TPoly:
    """num(t0 - t2, t1 - t2), by a Taylor shift in t2:
    num(t0 - t2, t1 - t2) = sum over k of h_k(t0, t1) (-t2)^k, where
    h_0 = num and h_k = (d/dx + d/dy) h_(k-1) / k, each division exact."""
    poly = {}
    h = num
    k = 0
    while h:
        sign = -1 if k & 1 else 1
        for (a, b), c in h.items():
            poly[a, b, k] = sign * c
        k += 1
        dh: _XYPoly = {}
        for (a, b), c in h.items():
            if a:
                dh[a - 1, b] = dh.get((a - 1, b), 0) + a * c
            if b:
                dh[a, b - 1] = dh.get((a, b - 1), 0) + b * c
        h = {e: c // k for e, c in dh.items() if c}
    return TPoly(poly)


class XYRat:
    """Fraction num / ((x - y)^a x^b y^c) over Z[x, y] with ``dexp = (a, b, c)``.

    x = t0 - t2 and y = t1 - t2.  Every weight T(x_a), generator entry and
    trace of the theory depends on t only through these differences, so it
    is held as its fold, its value at t2 = 0.  The forms t0 - t1, t0 - t2,
    t1 - t2 fold to x - y, x, y, so ``dexp`` is the exponent triple of the
    TRat it unfolds to (``gluing._unfold``).  Canonical form as for TRat: no
    form with a positive exponent divides num, and dexp = (0, 0, 0) when
    num = 0.  The constructor trusts its arguments to be canonical; +, - and
    * reduce their result with _xy_fraction_sum, the one reduction routine,
    and take an int as a constant.
    """

    __slots__ = ("num", "dexp")

    def __init__(self, num: _XYPoly, dexp: Exponent = _ZERO_EXP):
        self.num = num
        self.dexp = dexp

    @classmethod
    def const(cls, c: int) -> "XYRat":
        return cls({(0, 0): c} if c else {})

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, XYRat):
            return NotImplemented
        return self.num == other.num and self.dexp == other.dexp

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.dexp))

    def __add__(self, other):
        o = _as_xy(other)
        if o is None:
            return NotImplemented
        return _xy_fraction_sum([(self.num, self.dexp), (o.num, o.dexp)])

    __radd__ = __add__

    def __neg__(self):
        return XYRat({e: -c for e, c in self.num.items()}, self.dexp)

    def __sub__(self, other):
        o = _as_xy(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = _as_xy(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.dexp, o.dexp
        num = _xy_mul_into({}, self.num, o.num)
        return _xy_fraction_sum([(num, (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2]))])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"XYRat({self.num!r}, {self.dexp!r})"


def _as_xy(x) -> XYRat | None:
    if isinstance(x, XYRat):
        return x
    if type(x) is int:
        return XYRat.const(x)
    return None


def _xy_fraction_sum(items) -> XYRat:
    """The sum of num / ((x - y)^a x^b y^c) over the (num, (a, b, c)) items
    as one canonical XYRat: a common denominator, then one reduction.  The
    items need not be canonical, and a num may hold zero coefficients."""
    dexp = items[0][1]
    for _, d in items:
        if d != dexp:
            dexp = tuple(map(max, dexp, d))
    acc: dict = {}
    for num, d in items:
        if d != dexp:
            num = _xy_times_forms(num, (dexp[0] - d[0], dexp[1] - d[1], dexp[2] - d[2]))
        for e, c in num.items():
            acc[e] = acc.get(e, 0) + c
    num = _xy_clean(acc)
    if not num:
        return XYRat({})
    if dexp == _ZERO_EXP:
        return XYRat(num)
    num, k = _xy_cancel(num, dexp)
    return XYRat(num, (dexp[0] - k[0], dexp[1] - k[1], dexp[2] - k[2]))
