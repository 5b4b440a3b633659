"""Laurent calculus in phi = 2 sin(u/2) and truncated u-series."""

import math
from fractions import Fraction

import pytest

from gwtqft.exactring import TPoly, TRat
from gwtqft.phicalc import (
    PhiElem,
    PrecisionError,
    ReductionError,
    laurent_divexact,
    phi_expansion,
    phi_pow_series,
    to_useries,
)

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)


def sin_half_coeff(k: int) -> Fraction:
    """Taylor oracle: the u^k coefficient of 2 sin(u/2)."""
    if k % 2 == 0:
        return Fraction(0)
    j = (k - 1) // 2
    return Fraction(2 * (-1) ** j, 2**k * math.factorial(k))


class TestPhiArith:
    def test_monomial_inverse(self):
        phi2 = PhiElem.term(1, 2)
        assert phi2 * PhiElem.term(1, -2) == PhiElem.one()

    def test_cancellation(self):
        a = PhiElem.term(t0 - t2, -1)
        b = PhiElem.term(t2 - t0, -1)
        assert (a + b).is_zero

    def test_weight_shift(self):
        w2 = (t2 - t0) * (t2 - t1)
        a = PhiElem.term(w2, -2)
        b = PhiElem.term(1, 2)
        assert a * b == PhiElem.term(w2, 0)

    def test_mixed_product(self):
        a = PhiElem.term(1, -1) + PhiElem.term(t0, 1)
        b = PhiElem.term(1, 1)
        assert a * b == PhiElem.one() + PhiElem.term(t0, 2)


class TestPhiExpansion:
    def test_leading_term(self):
        s = phi_expansion(1)
        assert s.coeff(1) == TRat.const(1)

    def test_taylor_coefficients(self):
        s = phi_expansion(9)
        for k in range(1, 10):
            assert s.coeff(k) == TRat.const(sin_half_coeff(k))

    def test_u3_and_u5(self):
        s = phi_expansion(5)
        assert s.coeff(3) == TRat.const(Fraction(-1, 24))
        assert s.coeff(5) == TRat.const(Fraction(1, 1920))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            phi_expansion(0)


class TestPhiPowSeries:
    def test_square(self):
        s = phi_pow_series(2, 8)
        assert s.coeff(2) == TRat.const(1)
        assert s.coeff(4) == TRat.const(Fraction(-1, 12))
        assert s.coeff(6) == TRat.const(Fraction(1, 360))

    def test_power_zero(self):
        s = phi_pow_series(0, 4)
        assert s.coeff(0) == TRat.const(1)
        assert all(s.coeff(k).is_zero for k in range(1, 5))

    def test_inverse_square(self):
        s = phi_pow_series(-2, 2)
        assert s.coeff(-2) == TRat.const(1)
        assert s.coeff(0) == TRat.const(Fraction(1, 12))
        assert s.coeff(2) == TRat.const(Fraction(1, 240))

    def test_inverse_against_product_oracle(self):
        # phi^m * phi^-m = 1 up to truncation
        for m in (1, 2, 3, 5):
            prod = phi_pow_series(m, 8) * phi_pow_series(-m, 8)
            assert prod.coeff(0) == TRat.const(1)
            for k in range(1, prod.trunc + 1):
                assert prod.coeff(k).is_zero

    def test_parity(self):
        for m in (-3, -2, 1, 4):
            s = phi_pow_series(m, 9)
            for k in range(s.min_exp, s.trunc + 1):
                if (k - m) % 2 == 1:
                    assert s.coeff(k).is_zero


class TestToUseries:
    def test_constant(self):
        s = to_useries(PhiElem.const(3), 4)
        assert s.coeff(0) == TRat.const(3)
        assert s.coeff(2).is_zero

    def test_nine_phi_square(self):
        s = to_useries(PhiElem.term(9, 2), 6)
        assert s.coeff(2) == TRat.const(9)
        assert s.coeff(4) == TRat.const(Fraction(-3, 4))

    def test_inverse_square(self):
        s = to_useries(PhiElem.term(1, -2), 2)
        assert s.coeff(-2) == TRat.const(1)
        assert s.coeff(0) == TRat.const(Fraction(1, 12))

    def test_multiplicativity(self):
        a = PhiElem.term(1, -2) + PhiElem.const(t0 - t1)
        b = PhiElem.term(t1 - t2, 1) + PhiElem.term(1, 3)
        order = 6
        lhs = to_useries(a * b, order)
        rhs = to_useries(a, order) * to_useries(b, order)
        lo = min(lhs.min_exp, rhs.min_exp)
        hi = min(lhs.trunc, rhs.trunc)
        for k in range(lo, hi + 1):
            assert lhs.coeff(k) == rhs.coeff(k)


class TestUseriesCoeff:
    def test_below_min_exp_is_zero(self):
        s = phi_pow_series(-2, 4)
        assert s.coeff(-3).is_zero

    def test_beyond_truncation_raises(self):
        s = phi_pow_series(2, 4)
        with pytest.raises(PrecisionError):
            s.coeff(5)

    def test_leading_scaling(self):
        s = to_useries(PhiElem.term(9, 2), 3)
        assert s.coeff(2) == TRat.const(9)

    def test_print_format(self):
        s = phi_pow_series(-2, 3)
        assert str(s) == "u^-2 + 1/12 + 1/240*u^2 + O(u^4)"


class TestLaurentDivision:
    def test_monomial_quotient(self):
        c = PhiElem.term(t0 - t1, 0)
        num = PhiElem.term(t0 - t1, 3)
        assert laurent_divexact(num, c) == PhiElem.term(1, 3)

    def test_identity_division(self):
        x = PhiElem.term(t0, -1) + PhiElem.term(5, 2)
        assert laurent_divexact(x, PhiElem.one()) == x

    def test_polynomial_division(self):
        den = PhiElem.term(1, -1) + PhiElem.term(t0, 1)
        quot = PhiElem.term(t1, 0) + PhiElem.term(1, 2)
        assert laurent_divexact(den * quot, den) == quot

    def test_irreducible_raises(self):
        num = PhiElem.one()
        den = PhiElem.one() + PhiElem.term(1, 1)
        with pytest.raises(ReductionError):
            laurent_divexact(num, den)


class TestStrings:
    def test_phi_formatting(self):
        e = PhiElem.term(81, 6)
        assert str(e) == "81*phi^6"
        w = PhiElem.term((t1 - t0) * (t1 - t2), -2)
        assert str(w) == "(-t0*t1 + t0*t2 + t1^2 - t1*t2)*phi^-2"
        assert str(PhiElem.zero()) == "0"
        assert str(PhiElem.const(3)) == "3"

    def test_json_roundtrip(self):
        e = PhiElem.term(TRat.make(t0 + t1, t0 - t1), -1) + PhiElem.term(3, 2)
        assert PhiElem.from_json_terms(e.to_json_terms()) == e
