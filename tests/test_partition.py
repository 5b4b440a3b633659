"""Partition-function API: class components, the classes of Z, genus
tables, grading properties."""

import random
from fractions import Fraction

import pytest

from gwtqft.exactring import TPoly, TRat
from gwtqft.phicalc import PhiElem
from gwtqft import partition
from gwtqft.gluing import trace_formula
from gwtqft.partition import MAX_ORDER, class_component, genus_expansion, virtual_dim

from reference import permute_vars, phi, t_degrees

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)


def _t_degrees(z: PhiElem) -> set[int]:
    """All t-degrees carried by any coefficient of z, a polynomial in t."""
    assert all(c.is_poly for _, c in z.items())
    return {d for _, c in z.items() for d in t_degrees(c.num)}


def _reference_components(g: int, k1: int, k2: int) -> dict[int, PhiElem]:
    """Class n -> its component by t-degree: the t-degree -virtual_dim
    part of every coefficient of Z, for every class whose part is nonzero."""
    parts: dict[int, dict] = {}
    for m, c in trace_formula(g, k1, k2).items():
        assert c.is_poly, (g, k1, k2, m)
        for d in t_degrees(c.num):
            n, r = divmod(2 * g - 2 - k1 - k2 - d, 3)
            assert r == 0, (g, k1, k2, d)
            part = TPoly({e: v for e, v in c.num.terms.items() if sum(e) == d})
            parts.setdefault(n, {})[m] = TRat(part)
    return {n: PhiElem(terms) for n, terms in parts.items()}


def _classes(g: int, k1: int, k2: int) -> list[int]:
    """The n of every phi power k1 + k2 + 3n of Z, read straight off its
    terms; a phi power off the mod-3 grading fails the assertion."""
    out = []
    for m in trace_formula(g, k1, k2).terms:
        n, r = divmod(m - k1 - k2, 3)
        assert r == 0, (g, k1, k2, m)
        out.append(n)
    return sorted(out)


# every key with g <= 6 and |k1|, |k2| <= 3
GRID = [(g, k1, k2) for g in range(7) for k1 in range(-3, 4) for k2 in range(-3, 4)]


class TestComputeZ:
    def test_genus_two(self):
        q = (t0 - t1) * (t0 - t2) + (t1 - t0) * (t1 - t2) + (t2 - t0) * (t2 - t1)
        assert trace_formula(2, 0, 0) == phi(q)

    def test_genus_zero(self):
        assert not trace_formula(0, 0, 0)

    def test_balanced_levels_genus_one(self):
        want = phi(t1 + t2 - 2 * t0, -1)
        assert trace_formula(1, 1, 1) == want

    def test_memoized(self):
        assert trace_formula(1, 0, 0) is trace_formula(1, 0, 0)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            trace_formula(-1, 0, 0)
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            class_component(-1, 0, 0, 0)
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            genus_expansion(-1, 0, 0, 0, 2)


class TestVirtualDim:
    def test_calabi_yau_cases(self):
        assert virtual_dim(1, 0, 0, 0) == 0
        assert virtual_dim(4, 0, 0, 2) == 0
        assert virtual_dim(0, 1, 0, -1) == 0

    def test_degree_relation(self):
        g, k1, k2 = 3, 2, -1
        for n in range(-3, 3):
            assert -virtual_dim(g, k1, k2, n) == 2 * g - 2 - k1 - k2 - 3 * n
            assert virtual_dim(g, k1, k2, n) == 3 * n - 2 * g + 2 + k1 + k2


class TestClassComponent:
    def test_calabi_yau_genus_four(self):
        assert class_component(4, 0, 0, 2) == phi(81, 6)

    def test_genus_three_top_class_vanishes(self):
        assert not class_component(3, 0, 0, 1)

    def test_first_level_genus_one(self):
        want = phi((t1 - t0) * (t1 - t2), -2)
        assert class_component(1, 1, 0, -1) == want

    def test_negative_degree_vanishes(self):
        for n in (1, 2, 3):
            assert -virtual_dim(1, 0, 0, n) < 0
            assert not class_component(1, 0, 0, n)

    def test_is_the_phi_power_of_its_class(self):
        # class_component re-expands one phi power of the folded Z: it is
        # that power of the re-expanded Z, for every class with a term and
        # for one without, the class below the lowest (class -1 if Z = 0)
        for g in range(7):
            for k1 in range(-3, 4):
                for k2 in range(-3, 4):
                    z = trace_formula(g, k1, k2)
                    ns = [(m - k1 - k2) // 3 for m in z.terms]
                    for n in [*ns, min(ns, default=0) - 1]:
                        m = k1 + k2 + 3 * n
                        want = PhiElem.term(z.terms.get(m), m)
                        assert class_component(g, k1, k2, n) == want, (g, k1, k2, n)

    def test_reconstruction(self):
        for (g, k1, k2) in [(1, 1, 0), (2, 0, 0), (2, 1, -1), (0, 2, 1)]:
            total = PhiElem.zero()
            for n in _classes(g, k1, k2):
                total = total + class_component(g, k1, k2, n)
            assert total == trace_formula(g, k1, k2)


class TestGradingLaw:
    """Class n of Z(g | k1, k2) is its phi^(k1 + k2 + 3n) term: the same
    component as the t-degree definition, on every key of GRID."""

    def test_class_component_matches_t_degree_reference(self):
        for g, k1, k2 in GRID:
            ref = _reference_components(g, k1, k2)
            for n in range(min(ref, default=0) - 2, max(ref, default=0) + 3):
                assert class_component(g, k1, k2, n) == ref.get(n, PhiElem.zero()), (g, k1, k2, n)

    def test_support_matches_t_degree_reference(self):
        for g, k1, k2 in GRID:
            assert _classes(g, k1, k2) == sorted(_reference_components(g, k1, k2)), (g, k1, k2)


class TestSupport:
    def test_single_creation(self):
        assert _classes(0, 1, 0) == [-1]

    def test_genus_one(self):
        assert _classes(1, 0, 0) == [0]

    def test_genus_two(self):
        assert _classes(2, 0, 0) == [0]

    def test_balanced_creation(self):
        # classes from beta0 - 2f upward appear at (g, k, k) = (2, 2, 2)
        sup = _classes(2, 2, 2)
        assert sup[0] == -2
        assert all(-virtual_dim(2, 2, 2, n) >= 0 for n in sup)


class TestGenusExpansion:
    def test_constant_class(self):
        rows = genus_expansion(1, 0, 0, 0, 4)
        assert rows[1] == (1, TRat.make(3))
        for h, inv in rows:
            if h != 1:
                assert not inv

    def test_creation_cap_series(self):
        rows = genus_expansion(0, 1, 0, -1, 2)
        assert [inv for _, inv in rows] == [
            TRat.make(1),
            TRat.make(Fraction(1, 12)),
            TRat.make(Fraction(1, 240)),
        ]

    def test_calabi_yau_genus_two_level_two(self):
        rows = genus_expansion(2, 0, 2, 0, 3)
        assert rows[2] == (2, TRat.make(9))
        assert rows[3] == (3, TRat.make(Fraction(-3, 4)))
        assert not rows[0][1] and not rows[1][1]

    def test_calabi_yau_invariants_are_rational(self):
        # D = 0 classes carry t-independent series
        for (g, k, n) in [(1, 0, 0), (2, 2, 0), (0, 1, -1), (4, 0, 2)]:
            assert virtual_dim(g, 0, k, n) == 0
            for _, inv in genus_expansion(g, 0, k, n, 3):
                assert inv.num.is_const and inv.den.is_const

    def test_hmax_out_of_range_is_rejected_first(self, monkeypatch):
        def boom(*key):
            raise AssertionError("class_component was called")

        monkeypatch.setattr(partition, "class_component", boom)
        # each table here also needs a u-power above the limit: the h_max
        # check comes first
        assert 2 * -1 - 2 + virtual_dim(1, 0, 0, MAX_ORDER) > MAX_ORDER
        assert 2 * (MAX_ORDER + 1) - 2 + virtual_dim(1, 0, 0, 0) > MAX_ORDER
        with pytest.raises(ValueError, match="^h_max must be nonnegative$"):
            genus_expansion(1, 0, 0, MAX_ORDER, -1)
        with pytest.raises(ValueError, match=f"^h_max {MAX_ORDER + 1} is above the limit {MAX_ORDER}$"):
            genus_expansion(1, 0, 0, 0, MAX_ORDER + 1)
        # a table inside every limit is computed
        monkeypatch.undo()
        assert 2 * 9 - 2 + virtual_dim(1, 0, 0, 0) == 16
        rows = genus_expansion(1, 0, 0, 0, 9)
        assert len(rows) == 10 and rows[1] == (1, TRat.make(3))

    def test_order_above_the_limit_is_rejected_before_any_work(self, monkeypatch):
        def boom(*key):
            raise AssertionError("class_component was called")

        monkeypatch.setattr(partition, "class_component", boom)
        # the u-power a table needs is bounded by the same limit as h_max
        h_max = MAX_ORDER // 2 + 2
        needed = 2 * h_max - 2 + virtual_dim(0, 1, 0, -1)
        assert needed > MAX_ORDER
        message = f"this table needs u^{needed}, above the limit u^{MAX_ORDER}"
        with pytest.raises(ValueError) as exc:
            genus_expansion(0, 1, 0, -1, h_max)
        assert str(exc.value) == message
        assert "--" not in message
        # one row fewer needs u^200, which is computed
        monkeypatch.undo()
        assert 2 * (h_max - 1) - 2 + virtual_dim(0, 1, 0, -1) == MAX_ORDER
        assert len(genus_expansion(0, 1, 0, -1, h_max - 1)) == h_max

    def test_hmax_above_the_limit_is_rejected_before_any_work(self, monkeypatch):
        def boom(*key):
            raise AssertionError("class_component was called")

        monkeypatch.setattr(partition, "class_component", boom)
        # D = -2998 makes the needed order negative, so only h_max is too large
        assert 2 * (MAX_ORDER + 1) - 2 + virtual_dim(0, 0, 0, -1000) < 0
        with pytest.raises(ValueError, match=f"h_max {MAX_ORDER + 1} is above the limit"):
            genus_expansion(0, 0, 0, -1000, MAX_ORDER + 1)
        monkeypatch.undo()
        assert len(genus_expansion(0, 0, 0, -1000, MAX_ORDER)) == MAX_ORDER + 1


class TestGradingProperties:
    def test_sweep(self):
        rng = random.Random(3)
        seen = set()
        while len(seen) < 25:
            g = rng.randint(0, 3)
            k1 = rng.randint(-2, 2)
            k2 = rng.randint(-2, 2)
            seen.add((g, k1, k2))
        for (g, k1, k2) in sorted(seen):
            z = trace_formula(g, k1, k2)
            base = 2 * g - 2 - k1 - k2
            # mod-3 purity
            for d in _t_degrees(z):
                assert (base - d) % 3 == 0, (g, k1, k2, d)
            # vanishing in negative degree
            for n in _classes(g, k1, k2):
                assert -virtual_dim(g, k1, k2, n) >= 0
            # swap symmetry: exchanging the two levels mirrors t1 <-> t2
            swapped = permute_vars(trace_formula(g, k2, k1), (0, 2, 1))
            assert swapped == z, (g, k1, k2)

    def test_cy_component_is_t_free(self):
        for (g, k1, k2) in [(1, 0, 0), (2, 1, 1), (3, 2, 2), (0, 2, 0)]:
            if (2 * g - 2 - k1 - k2) % 3 != 0:
                continue
            n = (2 * g - 2 - k1 - k2) // 3
            comp = class_component(g, k1, k2, n)
            for _, c in comp.items():
                assert c.num.is_const and c.den.is_const

    def test_trace_factor_reordering(self):
        # the commuting factors may be multiplied in any order
        from gwtqft.gluing import _unfold
        from gwtqft.operators import build_operator, mat_mul, mat_power, mat_trace

        for (g, k1, k2) in [(2, 1, 1), (3, 2, -1), (1, -2, 2)]:
            z = trace_formula(g, k1, k2)
            u1 = mat_power(build_operator("U1" if k1 >= 0 else "U1inv"), abs(k1))
            u2 = mat_power(build_operator("U2" if k2 >= 0 else "U2inv"), abs(k2))
            gp = mat_power(build_operator("G"), g - 1)
            for order in ((u1, gp, u2), (u2, u1, gp), (gp, u2, u1)):
                m = mat_mul(mat_mul(order[0], order[1]), order[2])
                assert _unfold(mat_trace(m)) == z
