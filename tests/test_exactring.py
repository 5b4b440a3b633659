"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gwtqft.checks import PRIME, _elem_mod
from gwtqft.exactring import _LINEAR_PAIRS, LATEX, ReductionError, TPoly, TRat, XYRat, _div_linear
from gwtqft.phicalc import PhiElem
from reference import parse_poly, poly_mod

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)
#: the linear forms in the order of _LINEAR_PAIRS and of a TRat's dexp
FORMS = (t0 - t1, t0 - t2, t1 - t2)
ONE = TRat(TPoly.one())


# -- independent oracle: dict-based expansion ----------------------------------


def oracle_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


D01 = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1)}
D02 = {(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)}
D10 = {(0, 1, 0): Fraction(1), (1, 0, 0): Fraction(-1)}
D12 = {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1)}
D20 = {(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(-1)}
D21 = {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-1)}


class TestPolyMul:
    def test_expansion(self):
        got = (t0 - t1) * (t0 - t2)
        assert got.terms == oracle_mul(D01, D02)

    def test_identity(self):
        p = 3 * t0**2 - t1 * t2 + 5
        assert p * TPoly.one() == p

    def test_weight_sum_is_discriminant_quadratic(self):
        # oracle: expand the three weight products and add them up
        expected = oracle_add(
            oracle_add(oracle_mul(D01, D02), oracle_mul(D10, D12)),
            oracle_mul(D20, D21),
        )
        got = (t0 - t1) * (t0 - t2) + (t1 - t0) * (t1 - t2) + (t2 - t0) * (t2 - t1)
        assert got.terms == expected
        assert str(got) == "t0^2 - t0*t1 - t0*t2 + t1^2 - t1*t2 + t2^2"


class TestPolyGcd:
    """The common factor of numerator and denominator, which TRat.make cancels."""

    def test_common_linear_factor(self):
        # gcd((t0-t1)^2, (t0-t1)(t0-t2)) = t0 - t1: it cancels, the rest stays
        r = TRat.make((t0 - t1) ** 2, (t0 - t1) * (t0 - t2))
        assert (r.num, r.den) == (t0 - t1, t0 - t2)
        assert r.dexp == (0, 1, 0)


class TestNormalize:
    def test_cancellation(self):
        r = TRat.make(t0**2 - t1**2, t0 - t1)
        assert r == TRat(t0 + t1)
        assert r.den == TPoly.one()

    def test_constant_ratio(self):
        assert TRat.make(2 * (t0 - t1), 2 * t0 - 2 * t1) == ONE

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            TRat.make(t0, TPoly.zero())

    def test_trace_degree_minus_one_cancellation(self):
        # the phi^1 coefficient of the first level-creation trace collapses
        s = (
            TRat.make(1, t0 - t1)
            + TRat.make(2 * t1 - t0 - t2, (t1 - t0) * (t1 - t2))
            + TRat.make(1, t2 - t1)
        )
        assert not s

    def test_monic_denominator(self):
        r = TRat.make(t0, 3 * t1 - 3 * t0)
        lead = max(r.den.terms, key=lambda e: (sum(e), e))  # graded lex
        assert r.den.terms[lead] == 1


class TestIntegerCoefficients:
    def test_integral_fraction_equals_hashes_and_prints_like_its_int(self):
        p = TPoly({(1, 0, 0): Fraction(4, 2)})
        assert p == TPoly({(1, 0, 0): 2})
        assert hash(p) == hash(TPoly({(1, 0, 0): 2}))
        assert str(p) == str(TPoly({(1, 0, 0): 2})) == "2*t0"
        assert type(TPoly({(1, 0, 0): Fraction(1, 2)}).terms[(1, 0, 0)]) is Fraction

    def test_folded_sign_goes_into_the_numerator(self):
        # T(x_1) = (t1 - t0)(t1 - t2) has leading coefficient -1 in grlex,
        # which make folds into the numerator
        r = TRat.make(1, (t1 - t0) * (t1 - t2))
        assert r.num == TPoly.const(-1)


class TestFieldArith:
    def test_additive_inverse(self):
        a = TRat.make(1, t0 - t1)
        b = TRat.make(1, t1 - t0)
        assert not (a + b)

    def test_weight_times_its_inverse(self):
        w = (t0 - t1) * (t0 - t2)
        assert TRat(w) * TRat.make(1, w) == ONE

    def test_partial_fraction_sum_vanishes(self):
        # oracle: common denominator (t0-t1)(t0-t2)(t1-t2) and expanded sum
        terms = [
            TRat.make(1, (t0 - t1) * (t0 - t2)),
            TRat.make(1, (t1 - t0) * (t1 - t2)),
            TRat.make(1, (t2 - t0) * (t2 - t1)),
        ]
        num = (
            (t1 - t2) - (t0 - t2) + (t0 - t1)
        )  # numerators over the common denominator
        assert not num
        assert not (terms[0] + terms[1] + terms[2])

    def test_only_trat_operands(self):
        # TRat is an output container: no coercion from int, Fraction or TPoly
        a = TRat(t0)
        for other in (1, Fraction(1, 2), t0):
            with pytest.raises(TypeError):
                a + other
            with pytest.raises(TypeError):
                a * other
            assert a != other

    def test_make_rejects_a_non_polynomial(self):
        for num, den in ((object(), 1), (t0, object()), ("t0", t1), (1.5, 1)):
            with pytest.raises(TypeError, match="as a polynomial"):
                TRat.make(num, den)


class TestFoldedZero:
    """A product with the folded zero is the canonical zero."""

    def test_zero_times_anything(self):
        zero = XYRat({})
        for c in (XYRat({(1, 0): 2, (0, 1): -1}, (1, 0, 0)), XYRat({(0, 0): -1}, (1, 0, 1)),
                  XYRat.const(5), zero, 3):
            for got in (zero * c, c * zero):
                assert got == zero
                assert got.num == {} and got.dexp == (0, 0, 0)


class TestEvaluate:
    """TRat values mod PRIME, as the numeric cross-check reads the printed Z."""

    @staticmethod
    def value(c: TRat, point) -> int:
        return _elem_mod(PhiElem.term(c, 0), (*point, 1))

    def test_weight_at_point(self):
        w = (t0 - t1) * (t0 - t2)
        assert self.value(TRat(w), (0, 1, 2)) == 2
        assert self.value(TRat.make(1, w), (0, 1, 2)) == pow(2, -1, PRIME)

    def test_constant(self):
        assert self.value(ONE, (pow(2, -1, PRIME), 3, PRIME - 4)) == 1

    def test_trace_coefficient_at_point(self):
        r = TRat((t1 - t0) * (t1 - t2))
        assert self.value(r, (0, 1, 2)) == PRIME - 1

    def test_repeated_coordinates_rejected(self):
        with pytest.raises(ValueError):
            self.value(TRat.make(1, t0 - t1), (1, 1, 2))

    def test_pole(self):
        with pytest.raises(ReductionError):
            TRat.make(1, t0 - t1 - t2)


class TestHomogeneousComponent:
    def test_non_homogeneous_denominator_rejected(self):
        with pytest.raises(ReductionError):
            TRat.make(t0, t0 - t1 + 1)


class TestStrings:
    def test_canonical_order(self):
        p = (t0 - t1) * (t0 - t2)
        assert str(p) == "t0^2 - t0*t1 - t0*t2 + t1*t2"

    def test_fraction_form(self):
        r = TRat.make(t0**2 + t1, t0 - t1)
        assert str(r) == "(t0^2 + t1) / (t0 - t1)"
        num, den = str(r)[1:-1].split(") / (")
        assert TRat.make(parse_poly(num), parse_poly(den)) == r
        # only a side of more than one term is parenthesised, and only in text
        assert str(TRat.make(-2 * t1, t0 - t1)) == "-2*t1 / (t0 - t1)"
        assert r.render(LATEX) == "\\frac{t_0^2+t_1}{t_0-t_1}"

    def test_roundtrip(self):
        polys = [
            TPoly.zero(),
            TPoly.const(Fraction(-7, 3)),
            t0 - t1,
            (t0 - t1) * (t0 - t2) + 5,
            t0**3 - Fraction(1, 2) * t1 * t2**2,
        ]
        for p in polys:
            assert parse_poly(str(p)) == p

    def test_rational_coefficients(self):
        p = TPoly.const(Fraction(1, 240)) * t0**2
        assert str(p) == "1/240*t0^2"
        assert parse_poly(str(p)) == p


def test_denominator_is_the_product_of_the_forms():
    # TRat.den expands the product by the Taylor shift of its fold
    for dexp in product(range(5), repeat=3):
        want = FORMS[0] ** dexp[0] * FORMS[1] ** dexp[1] * FORMS[2] ** dexp[2]
        assert TRat(TPoly.one(), dexp).den == want, dexp


# -- property tests --------------------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)
exps = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
polys = st.dictionaries(exps, coeffs, max_size=4).map(TPoly)
# a nonzero constant times (t0-t1)^a (t0-t2)^b (t1-t2)^c: the denominators
# the theory produces
form_products = st.builds(
    lambda c, e: c * FORMS[0] ** e[0] * FORMS[1] ** e[1] * FORMS[2] ** e[2],
    coeffs.filter(bool),
    exps,
)


@settings(max_examples=60, deadline=None)
@given(polys, form_products, form_products)
def test_canonical_form_uniqueness(p, q, r):
    assert TRat.make(p * r, q * r) == TRat.make(p, q)


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_field_axioms(p, q, r):
    # the ring axioms; TRat has no division
    den = t0 - t1
    a, b, c = TRat.make(p, den), TRat.make(q, den), TRat.make(r, den)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_evaluation_is_ring_homomorphism(p, q):
    # the point (1/3, -2, 5/2), mod PRIME
    point = (pow(3, -1, PRIME), PRIME - 2, 5 * pow(2, -1, PRIME) % PRIME)

    def value(f):
        return poly_mod(f.terms, point)

    assert value(p * q) == value(p) * value(q) % PRIME
    assert value(p + q) == (value(p) + value(q)) % PRIME


# -- division by one linear form, with Fraction coefficients ---------------------

frac_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


def frac_polys(max_degree: int):
    exp = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * 3)
    return st.dictionaries(exp.filter(lambda e: sum(e) <= max_degree), frac_coeffs, max_size=6).map(
        TPoly
    )


@settings(max_examples=60, deadline=None)
@given(frac_polys(5), st.integers(min_value=0, max_value=2))
def test_div_linear_divisible(q, i):
    # q * (t_a - t_b) has degree at most 6
    (a, b), form = _LINEAR_PAIRS[i], FORMS[i]
    p = q * form
    got = _div_linear(p, a, b)
    assert got == q
    assert got * form == p


@settings(max_examples=60, deadline=None)
@given(
    frac_polys(5),
    st.integers(min_value=0, max_value=2),
    frac_coeffs,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_div_linear_not_divisible(q, i, c, j, k):
    # adding c t_b^j t_c^k, which does not vanish at t_a = t_b, breaks divisibility
    (a, b), form = _LINEAR_PAIRS[i], FORMS[i]
    rest = TPoly.const(c) * TPoly.var(b) ** j * TPoly.var(3 - a - b) ** k
    assert _div_linear(q * form + rest, a, b) is None


@settings(max_examples=60, deadline=None)
@given(frac_polys(6), st.integers(min_value=0, max_value=2))
def test_div_linear_agrees_with_restriction(p, i):
    # t_a - t_b divides p exactly when p vanishes at t_a = t_b
    (a, b), form = _LINEAR_PAIRS[i], FORMS[i]
    restricted: dict = {}
    for e, c in p.terms.items():
        e = list(e)
        e[b] += e[a]
        e[a] = 0
        restricted[tuple(e)] = restricted.get(tuple(e), 0) + c
    got = _div_linear(p, a, b)
    if any(restricted.values()):
        assert got is None
    else:
        assert got * form == p


frac_form_products = st.builds(
    lambda c, e: c * FORMS[0] ** e[0] * FORMS[1] ** e[1] * FORMS[2] ** e[2],
    frac_coeffs,
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
)


@settings(max_examples=60, deadline=None)
@given(frac_polys(6), frac_form_products, frac_form_products)
def test_make_with_fraction_coefficients(p, q, r):
    got = TRat.make(p * r, q * r)
    assert got == TRat.make(p, q)
    # multiplied back: num / den = p / q
    assert got.num * q == p * got.den
