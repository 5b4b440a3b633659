"""Closed-form generator data: weights, caps, tubes, pants, matrices.

The generators are built folded, in Z[x, y]; every assertion here about
their values in t0, t1, t2 goes through ``gluing._unfold``."""

from itertools import permutations, product

import pytest

import reference
from gwtqft.exactring import TPoly, TRat, XYRat
from gwtqft.gluing import _unfold
from gwtqft.phicalc import PhiElem
from gwtqft.operators import (
    INV_WEIGHTS,
    LABELS,
    OPERATOR_NAMES,
    WEIGHTS,
    build_operator,
    mat_identity,
)
from gwtqft.operators import weight as folded_weight
from gwtqft.words import (
    build_cap,
    build_pants,
    build_tube,
    contract,
    matrix_to_tensor,
    split_classes,
)
from reference import permute_vars, phi, unfold_matrix, unfold_tensor, weight

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)

LEVELS = ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))


def classes(gen, level=(0, 0)):
    """The fiber classes of a generator at the given level, in t."""
    return split_classes(unfold_tensor(gen), sum(level))


def unfold_rat(c: XYRat) -> TRat:
    return _unfold(PhiElem({0: c})).terms[0]


class TestWeight:
    def test_values(self):
        assert unfold_rat(folded_weight(0)) == TRat((t0 - t1) * (t0 - t2))
        assert unfold_rat(folded_weight(1)) == TRat((t1 - t0) * (t1 - t2))
        assert unfold_rat(folded_weight(2)) == TRat((t2 - t0) * (t2 - t1))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            folded_weight(3)

    def test_one_table_of_weights_and_inverses(self):
        for a in LABELS:
            assert WEIGHTS[a] == folded_weight(a)
            assert WEIGHTS[a] * INV_WEIGHTS[a] == XYRat.const(1)
            assert unfold_rat(INV_WEIGHTS[a]) == TRat.make(1, weight(a))


class TestCaps:
    def test_level_zero(self):
        cap = classes(build_cap((0, 0)))
        assert list(cap) == [0]
        for a in LABELS:
            assert cap[0].entry(a) == phi(1)

    def test_second_annihilation(self):
        cap = classes(build_cap((0, -1)), (0, -1))
        assert list(cap) == [0]
        assert cap[0].entry(0) == phi(t0 - t2, -1)
        assert cap[0].entry(1) == phi(t1 - t2, -1)
        assert not cap[0].entry(2)

    def test_second_creation(self):
        cap = classes(build_cap((0, 1)), (0, 1))
        assert list(cap) == [-1]
        assert not cap[-1].entry(0)
        assert not cap[-1].entry(1)
        assert cap[-1].entry(2) == phi((t2 - t0) * (t2 - t1), -2)

    def test_first_creation(self):
        cap = classes(build_cap((1, 0)), (1, 0))
        assert cap[-1].entry(1) == phi((t1 - t0) * (t1 - t2), -2)

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            build_cap((2, 0))


class TestTubes:
    def test_level_zero_diagonal(self):
        tube = classes(build_tube((0, 0)))
        assert list(tube) == [0]
        for a, b in product(LABELS, repeat=2):
            want = phi(weight(a), 0) if a == b else PhiElem.zero()
            assert tube[0].entry(a, b) == want

    def test_second_annihilation_pieces(self):
        tube = classes(build_tube((0, -1)), (0, -1))
        assert list(tube) == [0, 1]
        piece0 = tube[0]
        assert piece0.entry(0, 0) == phi((t0 - t1) * (t0 - t2) ** 2, -1)
        assert piece0.entry(1, 1) == phi((t1 - t0) * (t1 - t2) ** 2, -1)
        assert not piece0.entry(2, 2)
        assert not piece0.entry(0, 1)
        for a, b in product(LABELS, repeat=2):
            assert tube[1].entry(a, b) == phi(1, 2)

    def test_second_creation_pieces(self):
        tube = classes(build_tube((0, 1)), (0, 1))
        assert list(tube) == [-1, 0]
        assert tube[-1].entry(2, 2) == phi(
            (t2 - t0) ** 2 * (t2 - t1) ** 2, -2
        )
        body = tube[0]
        assert body.entry(0, 0) == phi(t0 - t1, 1)
        assert not body.entry(0, 1)
        assert body.entry(0, 2) == phi(t2 - t1, 1)
        assert body.entry(2, 2) == phi(2 * t2 - t0 - t1, 1)

    def test_first_creation_pieces(self):
        tube = classes(build_tube((1, 0)), (1, 0))
        assert tube[-1].entry(1, 1) == phi(
            (t1 - t0) ** 2 * (t1 - t2) ** 2, -2
        )
        body = tube[0]
        assert body.entry(0, 0) == phi(t0 - t2, 1)
        assert body.entry(1, 1) == phi(2 * t1 - t0 - t2, 1)

    def test_symmetry(self):
        for level in LEVELS:
            for piece in classes(build_tube(level), level).values():
                for a, b in product(LABELS, repeat=2):
                    assert piece.entry(a, b) == piece.entry(b, a)


class TestPants:
    def test_base_diagonal(self):
        pants = classes(build_pants())
        assert list(pants) == [0, 1]
        p0 = pants[0]
        for a, b, c in product(LABELS, repeat=3):
            want = phi(weight(a) ** 2, 0) if a == b == c else PhiElem.zero()
            assert p0.entry(a, b, c) == want

    def test_fiber_values(self):
        p1 = classes(build_pants())[1]
        assert not p1.entry(0, 1, 2)
        assert p1.entry(2, 2, 2) == phi(2 * t2 - t0 - t1, 3)
        assert p1.entry(0, 2, 2) == phi(t2 - t1, 3)
        assert p1.entry(1, 2, 2) == phi(t2 - t0, 3)
        assert p1.entry(0, 0, 1) == phi(t0 - t2, 3)
        assert p1.entry(0, 1, 1) == phi(t1 - t2, 3)
        assert p1.entry(0, 0, 0) == phi(2 * t0 - t1 - t2, 3)
        assert p1.entry(1, 1, 1) == phi(2 * t1 - t0 - t2, 3)

    def test_full_symmetry(self):
        for piece in classes(build_pants()).values():
            for a, b, c in product(LABELS, repeat=3):
                for perm in permutations((a, b, c)):
                    assert piece.entry(a, b, c) == piece.entry(*perm)


class TestOperators:
    def test_u1_entries(self):
        u1 = unfold_matrix(build_operator("U1"))
        assert u1[0][0] == phi(TRat.make(1, t0 - t1), 1)
        assert u1[0][1] == phi(TRat.make(t1 - t2, (t0 - t1) * (t0 - t2)), 1)
        assert not u1[0][2]
        assert not u1[2][0]
        assert u1[1][1] == phi((t1 - t0) * (t1 - t2), -2) + phi(
            TRat.make(2 * t1 - t0 - t2, (t1 - t0) * (t1 - t2)), 1
        )

    def test_u2_entries(self):
        u2 = unfold_matrix(build_operator("U2"))
        assert not u2[1][0]
        assert not u2[0][1]
        assert u2[0][0] == phi(TRat.make(1, t0 - t2), 1)
        assert u2[2][2] == phi((t2 - t0) * (t2 - t1), -2) + phi(
            TRat.make(2 * t2 - t0 - t1, (t2 - t0) * (t2 - t1)), 1
        )

    def test_g_entries(self):
        g = unfold_matrix(build_operator("G"))
        assert g[0][0] == phi((t0 - t1) * (t0 - t2), 0) + phi(
            TRat.make(2 * (2 * t0 - t1 - t2), (t0 - t1) * (t0 - t2)), 3
        )
        assert g[2][2] == phi((t2 - t0) * (t2 - t1), 0) + phi(
            TRat.make(2 * (2 * t2 - t0 - t1), (t2 - t0) * (t2 - t1)), 3
        )
        assert g[0][1] == phi(
            TRat.make(t0 + t1 - 2 * t2, (t0 - t1) * (t0 - t2)), 3
        )

    def test_annihilation_entries(self):
        u2inv = unfold_matrix(build_operator("U2inv"))
        assert u2inv[0][0] == phi(t0 - t2, -1) + phi(
            TRat.make(1, (t0 - t1) * (t0 - t2)), 2
        )
        assert u2inv[2][2] == phi(TRat.make(1, (t2 - t0) * (t2 - t1)), 2)

    def test_sum_structure(self):
        from gwtqft.operators import mat_add

        assert build_operator("G") == mat_add(build_operator("A"), build_operator("B"))
        assert build_operator("U1") == mat_add(build_operator("C1"), build_operator("E1"))
        assert build_operator("U2inv") == mat_add(build_operator("N2"), build_operator("M2"))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            build_operator("Z9")


class TestRaisedTubeConsistency:
    """Each operator glued to the level (0,0) tube, the identity cylinder,
    is the paper's tube of its level."""

    @staticmethod
    def lowered(m):
        return contract(build_tube((0, 0)), 1, matrix_to_tensor(m), 0)

    def test_matrices_match_raised_tubes(self):
        pairs = [
            ("U1", (1, 0)),
            ("U2", (0, 1)),
            ("U1inv", (-1, 0)),
            ("U2inv", (0, -1)),
        ]
        for name, level in pairs:
            assert self.lowered(build_operator(name)) == build_tube(level), name

    def test_level_zero_tube_raises_to_identity(self):
        assert self.lowered(mat_identity()) == build_tube((0, 0))


def _permute_matrix(m, label_perm, var_perm):
    out = [[None] * 3 for _ in range(3)]
    for a, b in product(LABELS, repeat=2):
        out[label_perm[a]][label_perm[b]] = permute_vars(m[a][b], var_perm)
    return tuple(tuple(row) for row in out)


class TestEquivariance:
    def test_u2_is_u1_conjugate(self):
        # swap t1 <-> t2 and the labels 1 <-> 2
        swap = (0, 2, 1)
        u1, u2 = (unfold_matrix(build_operator(name)) for name in ("U1", "U2"))
        assert _permute_matrix(u1, swap, swap) == u2

    def test_g_is_fully_equivariant(self):
        g = unfold_matrix(build_operator("G"))
        for perm in permutations(LABELS):
            assert _permute_matrix(g, perm, perm) == g


def _generators():
    """Every cap, tube and pants generator, in t, with its level."""
    yield unfold_tensor(build_pants()), (0, 0)
    for level in LEVELS:
        yield unfold_tensor(build_cap(level)), level
        yield unfold_tensor(build_tube(level)), level


class TestClassSupport:
    def test_generators_have_at_most_two_classes(self):
        for gen, level in _generators():
            assert len(split_classes(gen, sum(level))) <= 2

    def test_refined_entries_are_phi_monomials(self):
        # every entry of class n is the phi^(k1 + k2 + 3n) term of the
        # generator's entry, and the classes sum back to the generator
        for gen, level in _generators():
            total = [PhiElem.zero()] * len(gen.entries)
            for n, piece in split_classes(gen, sum(level)).items():
                for e, whole in zip(piece.entries, gen.entries):
                    m = sum(level) + 3 * n
                    assert e == PhiElem.term(whole.terms.get(m), m)
                total = [x + y for x, y in zip(total, piece.entries)]
            assert total == list(gen.entries)

    def test_phi_powers_follow_the_level(self):
        # the phi-power law: every phi power of every entry is k1 + k2 (mod 3)
        for gen, level in _generators():
            for e in gen.entries:
                assert all((m - sum(level)) % 3 == 0 for m in e.terms), (level, e)


def test_operator_denominators_divide_linear_forms():
    for name in ("G", "U1", "U2", "U1inv", "U2inv"):
        for row in unfold_matrix(build_operator(name)):
            for entry in row:
                for _, c in entry.items():
                    # make raises ReductionError unless den is a product of ti - tj
                    assert TRat.make(1, c.den).dexp == c.dexp


class TestPaperFormulas:
    """The one place where the paper's formulas in t enter: every generator,
    built folded and unfolded, equals its closed form in TPoly / TRat."""

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_operator(self, name):
        assert unfold_matrix(build_operator(name)) == reference.operator(name)

    @pytest.mark.parametrize("level", LEVELS)
    def test_cap_and_tube(self, level):
        assert unfold_tensor(build_cap(level)) == reference.cap(level)
        assert unfold_tensor(build_tube(level)) == reference.tube(level)

    def test_pants(self):
        assert unfold_tensor(build_pants()) == reference.pants()

    def test_identity(self):
        assert unfold_matrix(mat_identity()) == reference._diag([TPoly.one()] * 3, 0)
