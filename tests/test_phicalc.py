"""Laurent calculus in phi = 2 sin(u/2), and the u-coefficients of one phi
power checked against the schoolbook oracle in ``reference``."""

from fractions import Fraction

from gwtqft import partition
from gwtqft.exactring import TPoly, TRat, XYRat
from gwtqft.operators import build_operator
from gwtqft.partition import genus_expansion
from gwtqft.phicalc import PhiElem, phi_pow_coeffs
from reference import phi, phi_from_json, phi_power, series_mul, sin_half_coeffs

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)
F = Fraction


def even(coeffs: list[Fraction]) -> list[Fraction]:
    """The u^(m + 2i) entries of an oracle series read from u^m, once its
    odd entries are seen to vanish."""
    assert not any(coeffs[1::2])
    return coeffs[::2]


class TestPhiArith:
    def test_monomial_inverse(self):
        phi2 = phi(1, 2)
        assert phi2 * phi(1, -2) == phi(1)

    def test_cancellation(self):
        a = phi(t0 - t2, -1)
        b = phi(t2 - t0, -1)
        assert not (a + b)

    def test_weight_shift(self):
        w2 = (t2 - t0) * (t2 - t1)
        a = phi(w2, -2)
        b = phi(1, 2)
        assert a * b == phi(w2, 0)

    def test_mixed_product(self):
        a = phi(1, -1) + phi(t0, 1)
        b = phi(1, 1)
        assert a * b == phi(1) + phi(t0, 2)


class TestOneContainer:
    """PhiElem holds XYRat (folded), TRat (re-expanded) and Fraction
    (numeric) coefficients alike, and coerces none of them."""

    def test_term_keeps_its_coefficient(self):
        for c in (XYRat({(1, 0): 2, (0, 1): -1}, (1, 0, 0)), TRat.make(t0, t0 - t1), F(-3, 7)):
            e = PhiElem.term(c, -2)
            assert e.terms == {-2: c}
            assert e.terms[-2] is c
        assert not PhiElem.term(XYRat({}), 1)
        assert not PhiElem.term(F(0), 1)

    def test_folded_unit_is_neutral(self):
        g00 = build_operator("G")[0][0]
        assert g00 * PhiElem.term(XYRat.const(1), 0) == g00


class TestPhiExpansion:
    def test_leading_term(self):
        assert phi_pow_coeffs(1, 1) == [1]

    def test_taylor_coefficients(self):
        assert phi_pow_coeffs(1, 5) == even(sin_half_coeffs(10)[1:])

    def test_u3_and_u5(self):
        assert phi_pow_coeffs(1, 3)[1:] == [Fraction(-1, 24), Fraction(1, 1920)]

    def test_order_validation(self):
        # no coefficient asked for, none returned, for every sign of m
        for m in (-3, 0, 1, 4):
            assert phi_pow_coeffs(m, 0) == []
            assert phi_pow_coeffs(m, -2) == []


class TestPhiPowSeries:
    def test_square(self):
        assert phi_pow_coeffs(2, 4) == [1, Fraction(-1, 12), Fraction(1, 360), Fraction(-1, 20160)]
        assert phi_pow_coeffs(2, 4) == even(phi_power(2, 7))

    def test_power_zero(self):
        assert phi_pow_coeffs(0, 5) == [1, 0, 0, 0, 0]

    def test_inverse_square(self):
        assert phi_pow_coeffs(-2, 3) == [1, Fraction(1, 12), Fraction(1, 240)]
        assert phi_pow_coeffs(-2, 3) == even(phi_power(-2, 5))

    def test_inverse_against_product_oracle(self):
        # phi^m * phi^-m = 1, as series in u^2
        for m in (1, 2, 3, 5):
            prod = series_mul(phi_pow_coeffs(m, 5), phi_pow_coeffs(-m, 5), 5)
            assert prod == [1, 0, 0, 0, 0]

    def test_parity(self):
        # the oracle's odd offsets vanish and its even ones are the coefficients
        for m in (-3, -2, 1, 4):
            assert phi_pow_coeffs(m, 5) == even(phi_power(m, 9))

    def test_every_sign_against_the_oracle(self):
        for m in range(-12, 13):
            assert phi_pow_coeffs(m, 8) == even(phi_power(m, 15)), m

    def test_largest_negative_power_to_order_200(self):
        # u^-104 .. u^200, the deepest expansion a genus table reaches
        assert phi_pow_coeffs(-104, 153) == even(phi_power(-104, 305))


class TestToUseries:
    """A class component c * phi^m: c times the coefficients of phi^m."""

    @staticmethod
    def times(c: TRat, f: Fraction) -> TRat:
        return TRat.make(c.num * f, c.den)

    def test_constant(self):
        rows = [self.times(TRat.make(3), f) for f in phi_pow_coeffs(0, 3)]
        assert rows[0] == TRat.make(3)
        assert not rows[1] and not rows[2]

    def test_nine_phi_square(self):
        rows = [self.times(TRat.make(9), f) for f in phi_pow_coeffs(2, 2)]
        assert rows == [TRat.make(9), TRat.make(Fraction(-3, 4))]

    def test_inverse_square(self):
        c = TRat.make(t0 - t1, t1 - t2)
        rows = [self.times(c, f) for f in phi_pow_coeffs(-2, 2)]
        assert rows == [c, TRat.make(t0 - t1, 12 * (t1 - t2))]

    def test_multiplicativity(self):
        # phi^a * phi^b = phi^(a + b), as series in u^2
        for a, b in [(-2, 1), (-2, 3), (3, 1), (-5, -4), (7, -7)]:
            prod = series_mul(phi_pow_coeffs(a, 6), phi_pow_coeffs(b, 6), 6)
            assert prod == phi_pow_coeffs(a + b, 6), (a, b)


class TestUseriesCoeff:
    """genus_expansion's rows for an injected class component c * phi^m,
    read at the key (g, m, 0) and n = 0, whose class is that phi power: D =
    2 - 2g + m, so row h is the u^(2h - 2g + m) coefficient."""

    @staticmethod
    def rows(monkeypatch, g: int, comp: PhiElem, h_max: int) -> list[TRat]:
        (m,) = comp.terms
        monkeypatch.setattr(partition, "class_component", lambda *key: comp)
        return [inv for _, inv in genus_expansion(g, m, 0, 0, h_max)]

    def test_below_min_exp_is_zero(self, monkeypatch):
        rows = self.rows(monkeypatch, 2, phi(5, 4), 3)
        assert not rows[0] and not rows[1]
        assert rows[2:] == [TRat.make(5), TRat.make(Fraction(-5, 6))]
        # an odd phi power is read at odd u-powers: row h is u^(2h - 3)
        oracle = phi_power(-3, 7)
        want = [TRat.make(5 * oracle[2 * h]) for h in range(4)]
        assert self.rows(monkeypatch, 0, phi(5, -3), 3) == want

    def test_leading_scaling(self, monkeypatch):
        assert self.rows(monkeypatch, 1, phi(9, 2), 1)[1] == TRat.make(9)


class TestStrings:
    def test_phi_formatting(self):
        e = phi(81, 6)
        assert str(e) == "81*phi^6"
        w = phi((t1 - t0) * (t1 - t2), -2)
        assert str(w) == "(-t0*t1 + t0*t2 + t1^2 - t1*t2)*phi^-2"
        assert str(PhiElem.zero()) == "0"
        assert str(phi(3)) == "3"

    def test_json_roundtrip(self):
        e = phi(TRat.make(t0 + t1, t0 - t1), -1) + phi(3, 2)
        assert phi_from_json(e.to_json_terms()) == e
