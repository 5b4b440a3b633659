"""Closed-form generator data: weights, caps, tubes, pants, matrices."""

from itertools import permutations, product

import pytest

from gwtqft.exactring import TPoly, TRat
from gwtqft.phicalc import PhiElem
from gwtqft.operators import (
    LABELS,
    build_cap,
    build_operator,
    build_pants,
    build_tube,
    mat_identity,
    matrix_to_tensor,
    weight,
)

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)


class TestWeight:
    def test_values(self):
        assert weight(0) == (t0 - t1) * (t0 - t2)
        assert weight(1) == (t1 - t0) * (t1 - t2)
        assert weight(2) == (t2 - t0) * (t2 - t1)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            weight(3)


class TestCaps:
    def test_level_zero(self):
        cap = build_cap((0, 0))
        assert cap.classes() == [0]
        for a in LABELS:
            assert cap.piece(0).entry(a) == PhiElem.one()

    def test_second_annihilation(self):
        cap = build_cap((0, -1))
        assert cap.classes() == [0]
        assert cap.piece(0).entry(0) == PhiElem.term(t0 - t2, -1)
        assert cap.piece(0).entry(1) == PhiElem.term(t1 - t2, -1)
        assert cap.piece(0).entry(2).is_zero

    def test_second_creation(self):
        cap = build_cap((0, 1))
        assert cap.classes() == [-1]
        assert cap.piece(-1).entry(0).is_zero
        assert cap.piece(-1).entry(1).is_zero
        assert cap.piece(-1).entry(2) == PhiElem.term((t2 - t0) * (t2 - t1), -2)

    def test_first_creation(self):
        cap = build_cap((1, 0))
        assert cap.piece(-1).entry(1) == PhiElem.term((t1 - t0) * (t1 - t2), -2)

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            build_cap((2, 0))


class TestTubes:
    def test_level_zero_diagonal(self):
        tube = build_tube((0, 0))
        assert tube.classes() == [0]
        for a, b in product(LABELS, repeat=2):
            want = PhiElem.term(weight(a), 0) if a == b else PhiElem.zero()
            assert tube.piece(0).entry(a, b) == want

    def test_second_annihilation_pieces(self):
        tube = build_tube((0, -1))
        assert tube.classes() == [0, 1]
        piece0 = tube.piece(0)
        assert piece0.entry(0, 0) == PhiElem.term((t0 - t1) * (t0 - t2) ** 2, -1)
        assert piece0.entry(1, 1) == PhiElem.term((t1 - t0) * (t1 - t2) ** 2, -1)
        assert piece0.entry(2, 2).is_zero
        assert piece0.entry(0, 1).is_zero
        for a, b in product(LABELS, repeat=2):
            assert tube.piece(1).entry(a, b) == PhiElem.term(1, 2)

    def test_second_creation_pieces(self):
        tube = build_tube((0, 1))
        assert tube.classes() == [-1, 0]
        assert tube.piece(-1).entry(2, 2) == PhiElem.term(
            (t2 - t0) ** 2 * (t2 - t1) ** 2, -2
        )
        body = tube.piece(0)
        assert body.entry(0, 0) == PhiElem.term(t0 - t1, 1)
        assert body.entry(0, 1).is_zero
        assert body.entry(0, 2) == PhiElem.term(t2 - t1, 1)
        assert body.entry(2, 2) == PhiElem.term(2 * t2 - t0 - t1, 1)

    def test_first_creation_pieces(self):
        tube = build_tube((1, 0))
        assert tube.piece(-1).entry(1, 1) == PhiElem.term(
            (t1 - t0) ** 2 * (t1 - t2) ** 2, -2
        )
        body = tube.piece(0)
        assert body.entry(0, 0) == PhiElem.term(t0 - t2, 1)
        assert body.entry(1, 1) == PhiElem.term(2 * t1 - t0 - t2, 1)

    def test_symmetry(self):
        for level in ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0)):
            tube = build_tube(level)
            for n in tube.classes():
                piece = tube.piece(n)
                for a, b in product(LABELS, repeat=2):
                    assert piece.entry(a, b) == piece.entry(b, a)


class TestPants:
    def test_base_diagonal(self):
        pants = build_pants()
        assert pants.classes() == [0, 1]
        p0 = pants.piece(0)
        for a, b, c in product(LABELS, repeat=3):
            want = PhiElem.term(weight(a) ** 2, 0) if a == b == c else PhiElem.zero()
            assert p0.entry(a, b, c) == want

    def test_fiber_values(self):
        p1 = build_pants().piece(1)
        assert p1.entry(0, 1, 2).is_zero
        assert p1.entry(2, 2, 2) == PhiElem.term(2 * t2 - t0 - t1, 3)
        assert p1.entry(0, 2, 2) == PhiElem.term(t2 - t1, 3)
        assert p1.entry(1, 2, 2) == PhiElem.term(t2 - t0, 3)
        assert p1.entry(0, 0, 1) == PhiElem.term(t0 - t2, 3)
        assert p1.entry(0, 1, 1) == PhiElem.term(t1 - t2, 3)
        assert p1.entry(0, 0, 0) == PhiElem.term(2 * t0 - t1 - t2, 3)
        assert p1.entry(1, 1, 1) == PhiElem.term(2 * t1 - t0 - t2, 3)

    def test_full_symmetry(self):
        pants = build_pants()
        for n in pants.classes():
            piece = pants.piece(n)
            for a, b, c in product(LABELS, repeat=3):
                for perm in permutations((a, b, c)):
                    assert piece.entry(a, b, c) == piece.entry(*perm)


class TestOperators:
    def test_u1_entries(self):
        u1 = build_operator("U1")
        assert u1[0][0] == PhiElem.term(TRat.make(1, t0 - t1), 1)
        assert u1[0][1] == PhiElem.term(TRat.make(t1 - t2, (t0 - t1) * (t0 - t2)), 1)
        assert u1[0][2].is_zero
        assert u1[2][0].is_zero
        assert u1[1][1] == PhiElem.term((t1 - t0) * (t1 - t2), -2) + PhiElem.term(
            TRat.make(2 * t1 - t0 - t2, (t1 - t0) * (t1 - t2)), 1
        )

    def test_u2_entries(self):
        u2 = build_operator("U2")
        assert u2[1][0].is_zero
        assert u2[0][1].is_zero
        assert u2[0][0] == PhiElem.term(TRat.make(1, t0 - t2), 1)
        assert u2[2][2] == PhiElem.term((t2 - t0) * (t2 - t1), -2) + PhiElem.term(
            TRat.make(2 * t2 - t0 - t1, (t2 - t0) * (t2 - t1)), 1
        )

    def test_g_entries(self):
        g = build_operator("G")
        assert g[0][0] == PhiElem.term((t0 - t1) * (t0 - t2), 0) + PhiElem.term(
            TRat.make(2 * (2 * t0 - t1 - t2), (t0 - t1) * (t0 - t2)), 3
        )
        assert g[2][2] == PhiElem.term((t2 - t0) * (t2 - t1), 0) + PhiElem.term(
            TRat.make(2 * (2 * t2 - t0 - t1), (t2 - t0) * (t2 - t1)), 3
        )
        assert g[0][1] == PhiElem.term(
            TRat.make(t0 + t1 - 2 * t2, (t0 - t1) * (t0 - t2)), 3
        )

    def test_annihilation_entries(self):
        u2inv = build_operator("U2inv")
        assert u2inv[0][0] == PhiElem.term(t0 - t2, -1) + PhiElem.term(
            TRat.make(1, (t0 - t1) * (t0 - t2)), 2
        )
        assert u2inv[2][2] == PhiElem.term(TRat.make(1, (t2 - t0) * (t2 - t1)), 2)

    def test_sum_structure(self):
        from gwtqft.operators import mat_add

        assert build_operator("G") == mat_add(build_operator("A"), build_operator("B"))
        assert build_operator("U1") == mat_add(build_operator("C1"), build_operator("E1"))
        assert build_operator("U2inv") == mat_add(build_operator("N2"), build_operator("M2"))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            build_operator("Z9")


class TestRaisedTubeConsistency:
    def test_matrices_match_raised_tubes(self):
        pairs = [
            ("U1", (1, 0)),
            ("U2", (0, 1)),
            ("U1inv", (-1, 0)),
            ("U2inv", (0, -1)),
        ]
        for name, level in pairs:
            lowered = matrix_to_tensor(build_operator(name)).lower_slot(0)
            assert lowered == build_tube(level).total(), name

    def test_level_zero_tube_raises_to_identity(self):
        lowered = matrix_to_tensor(mat_identity()).lower_slot(0)
        assert lowered == build_tube((0, 0)).total()


def _permute_matrix(m, label_perm, var_perm):
    out = [[None] * 3 for _ in range(3)]
    for a, b in product(LABELS, repeat=2):
        out[label_perm[a]][label_perm[b]] = m[a][b].permute_vars(var_perm)
    return tuple(tuple(row) for row in out)


class TestEquivariance:
    def test_u2_is_u1_conjugate(self):
        # swap t1 <-> t2 and the labels 1 <-> 2
        swap = (0, 2, 1)
        assert _permute_matrix(build_operator("U1"), swap, swap) == build_operator("U2")

    def test_g_is_fully_equivariant(self):
        g = build_operator("G")
        for perm in permutations(LABELS):
            assert _permute_matrix(g, perm, perm) == g


class TestClassSupport:
    def test_generators_have_at_most_two_classes(self):
        gens = [build_pants()]
        for level in ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0)):
            gens.append(build_cap(level))
            gens.append(build_tube(level))
        for gen in gens:
            assert len(gen.classes()) <= 2

    def test_refined_entries_are_phi_monomials(self):
        for level in ((0, -1), (-1, 0), (0, 1), (1, 0)):
            for gen in (build_cap(level), build_tube(level)):
                for n in gen.classes():
                    for e in gen.piece(n).entries:
                        assert len(e.terms) <= 1


def test_operator_denominators_divide_linear_forms():
    for name in ("G", "U1", "U2", "U1inv", "U2inv"):
        for row in build_operator(name):
            for entry in row:
                for _, c in entry.items():
                    # make raises ReductionError unless den is a product of ti - tj
                    assert TRat.make(1, c.den).dexp == c.dexp
