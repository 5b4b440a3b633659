"""Gluing engine: contraction, gluing two slots of one tensor, matrix
powers, trace formula, and cobordism-word evaluation.

Tensors and matrices are folded, in Z[x, y]; a value in t0, t1, t2 is
compared through ``gluing._unfold``."""

import random
import re
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gwtqft.exactring import ReductionError, TPoly, TRat, XYRat
from gwtqft.phicalc import PhiElem
from gwtqft.operators import (
    INV_WEIGHTS,
    LABELS,
    ONE,
    OPERATOR_NAMES,
    _phi,
    build_operator,
    mat_add,
    mat_adjugate,
    mat_det,
    mat_identity,
    mat_mul,
    mat_power,
    mat_scale,
    mat_trace,
)
from gwtqft import cli, gluing, operators, words
from gwtqft.partition import class_component
from gwtqft.gluing import _unfold, trace_formula
from gwtqft.words import (
    CobordismWord,
    RelTensor,
    build_cap,
    build_pants,
    build_tube,
    closed_surface_word,
    contract,
    evaluate_word,
    matrix_to_tensor,
    parse_word,
    split_classes,
)
from reference import phi, unfold_tensor, weight

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)


def piece(t: RelTensor, level: int, n: int) -> RelTensor:
    """Class n of a cap/tube/pants tensor of total level `level`."""
    return split_classes(t, level)[n]


def glue_slots(t: RelTensor, i: int, j: int) -> RelTensor:
    """Glue slots i and j of t to each other: contract both with the level
    (0,0) tube, the identity cylinder."""
    return contract(t, (i, j), build_tube((0, 0)), (0, 1))


def inverse_tube() -> RelTensor:
    """The inverse of the level (0,0) tube, both slots raised: 1 / T(x_a) on
    the diagonal.  A lowered slot glued to it is raised."""
    return RelTensor((True, True), [
        _phi(INV_WEIGHTS[a], 0) if a == b else PhiElem.zero() for a, b in product(LABELS, repeat=2)
    ])


class TestRaiseIndex:
    """A slot changes variance only by gluing: the level (0,0) tube, the
    identity cylinder, lowers a raised slot, and its inverse raises a
    lowered one."""

    def test_level_zero_tube_becomes_identity(self):
        raised = unfold_tensor(contract(build_tube((0, 0)), 1, inverse_tube(), 0))
        assert raised.variance == (False, True)
        for a, b in product(LABELS, repeat=2):
            want = phi(1) if a == b else PhiElem.zero()
            assert raised.entry(a, b) == want

    def test_raise_then_lower_is_identity(self):
        pants1 = piece(build_pants(), 0, 1)
        raised = contract(pants1, 2, inverse_tube(), 0)
        assert contract(raised, 2, build_tube((0, 0)), 0) == pants1

    def test_raised_pants_entry(self):
        pants1 = piece(build_pants(), 0, 1)
        raised = unfold_tensor(contract(pants1, 2, inverse_tube(), 0))
        want = phi(TRat.make(t0 - t1, weight(2)), 3)
        assert raised.entry(0, 0, 2) == want


class TestContract:
    def test_cap_pants_rederives_annihilation_tube(self):
        # brute-force oracle: sum over the middle label explicitly
        cap = build_cap((0, -1))
        pants0 = piece(build_pants(), 0, 0)
        got = unfold_tensor(contract(cap, 0, pants0, 0))
        cap, pants0 = unfold_tensor(cap), unfold_tensor(pants0)
        for a, b in product(LABELS, repeat=2):
            oracle = PhiElem.zero()
            for lam in LABELS:
                oracle = oracle + cap.entry(lam) * pants0.entry(lam, a, b) * phi(
                    TRat.make(1, weight(lam))
                )
            assert got.entry(a, b) == oracle
        assert got.entry(0, 0) == phi((t0 - t1) * (t0 - t2) ** 2, -1)

    def test_identity_tube_is_neutral(self):
        tube = build_tube((0, 0))
        pants1 = piece(build_pants(), 0, 1)
        assert contract(pants1, 2, tube, 0) == pants1

    def test_full_cap_tube_composite_is_level_cap(self):
        # class-summed: capping the creation tube gives the creation cap
        got = contract(build_tube((0, 1)), 1, build_cap((0, 0)), 0)
        assert got == build_cap((0, 1))
        assert _unfold(got.entry(2)) == phi((t2 - t0) * (t2 - t1), -2)

    def test_rank_underflow(self):
        scalar = RelTensor((), [ONE])
        with pytest.raises(ValueError):
            contract(scalar, 0, scalar, 0)


# every cap, tube and pants generator
GENERATORS = (
    [build_cap(lv) for lv in ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))]
    + [build_tube(lv) for lv in ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))]
    + [build_pants()]
)


def _glue_pair_by_pair(a, slots_a, b, slots_b):
    """Contract the first slot pair, then glue the rest one by one."""
    out = contract(a, slots_a[0], b, slots_b[0])
    # the composite's slots: a's remaining then b's, named by (side, slot)
    names = [("a", s) for s in range(a.rank) if s != slots_a[0]]
    names += [("b", s) for s in range(b.rank) if s != slots_b[0]]
    for sa, sb in zip(slots_a[1:], slots_b[1:]):
        i, j = names.index(("a", sa)), names.index(("b", sb))
        out = glue_slots(out, i, j)
        names = [n for n in names if n not in (("a", sa), ("b", sb))]
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(GENERATORS), st.data())
def test_one_pass_glue_matches_pair_by_pair(a, b, data):
    # two or more pairs whenever both ranks allow it
    m = data.draw(st.integers(min(2, a.rank, b.rank), min(a.rank, b.rank)))
    slots_a = tuple(data.draw(st.permutations(range(a.rank)))[:m])
    slots_b = tuple(data.draw(st.permutations(range(b.rank)))[:m])
    want = _glue_pair_by_pair(a, slots_a, b, slots_b)
    assert contract(a, slots_a, b, slots_b) == want


class TestContractSlotTuples:
    def test_handle_in_one_pass(self):
        pants = build_pants()
        handle = glue_slots(contract(pants, 2, pants, 0), 1, 2)
        assert contract(pants, (2, 1), pants, (0, 1)) == handle

    def test_slot_lists_must_match(self):
        pants = build_pants()
        with pytest.raises(ValueError, match="differ in length"):
            contract(pants, (1, 2), pants, (0,))

    def test_slot_named_twice_rejected(self):
        pants = build_pants()
        with pytest.raises(ValueError, match="twice"):
            contract(pants, (1, 1), pants, (0, 2))

    def test_slot_out_of_range(self):
        tube = build_tube((0, 0))
        with pytest.raises(ValueError, match="out of range"):
            contract(tube, (0, 2), tube, (0, 1))


class TestSplitClasses:
    def test_class_bookkeeping(self):
        out = contract(build_tube((0, -1)), 1, build_tube((0, 1)), 0)
        assert list(split_classes(out, 0)) == [0]

    def test_annihilation_creation_is_level_zero_tube(self):
        out = contract(build_tube((0, -1)), 1, build_tube((0, 1)), 0)
        assert split_classes(out, 0) == {0: build_tube((0, 0))}

    def test_fiber_class_off_diagonal_vanishes(self):
        out = contract(build_tube((0, 1)), 1, build_tube((0, -1)), 0)
        assert out == build_tube((0, 0))
        assert 1 not in split_classes(out, 0)

    def test_classes_are_phi_powers(self):
        # tube(0,-1): class 0 is phi^-1 on the diagonal, class 1 phi^2 everywhere
        tube = build_tube((0, -1))
        classes = split_classes(tube, -1)
        assert list(classes) == [0, 1]
        assert classes[0].entry(0, 0) == tube.entry(0, 0) - _phi(1, 2)
        assert not classes[0].entry(0, 1)
        assert classes[1].entry(0, 0) == classes[1].entry(0, 1) == _phi(1, 2)

    def test_zero_tensor_has_no_classes(self):
        assert split_classes(RelTensor((False,), [PhiElem.zero()] * 3), 0) == {}

    @pytest.mark.parametrize("m", [1, 2, -1, -2])
    def test_phi_power_off_the_grading_is_rejected(self, m):
        bad = RelTensor((False,), [ONE, _phi(1, m), PhiElem.zero()])
        with pytest.raises(ReductionError, match=rf"phi\^{m} in a tensor of level 0 "):
            split_classes(bad, 0)


class TestSelfGlue:
    def test_two_pants_diagonal_rebuilds_base_genus_one(self):
        pants0 = piece(build_pants(), 0, 0)
        four = contract(pants0, 2, pants0, 0)
        handle = unfold_tensor(glue_slots(four, 1, 2))
        for a, b in product(LABELS, repeat=2):
            want = phi(weight(a) ** 2, 0) if a == b else PhiElem.zero()
            assert handle.entry(a, b) == want

    def test_algebra_dimension(self):
        tube = build_tube((0, 0))
        out = glue_slots(tube, 0, 1)
        assert out.rank == 0
        assert _unfold(out.scalar()) == phi(3)
        # both slots raised: entries 1 / T(x_a), each summed with T(x_a)
        raised = inverse_tube()
        assert _unfold(glue_slots(raised, 0, 1).scalar()) == phi(3)
        # no word or check glues two raised slots: contract rejects such a pair
        with pytest.raises(ValueError, match="^cannot glue two raised slots$"):
            contract(raised, (0, 1), raised, (0, 1))
        with pytest.raises(ValueError, match="^cannot glue two raised slots$"):
            contract(raised, (0, 1), matrix_to_tensor(build_operator("G")), (0, 1))

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_operator_trace(self, name):
        # a (raised, lowered) matrix glued to itself is its trace
        m = build_operator(name)
        assert glue_slots(matrix_to_tensor(m), 0, 1).scalar() == mat_trace(m)

    def test_pants_self_glue_oracle(self):
        pants1 = piece(build_pants(), 0, 1)
        got = unfold_tensor(glue_slots(pants1, 1, 2))
        pants1 = unfold_tensor(pants1)
        for a in LABELS:
            oracle = PhiElem.zero()
            for lam in LABELS:
                oracle = oracle + pants1.entry(a, lam, lam) * phi(TRat.make(1, weight(lam)))
            assert got.entry(a) == oracle

    def test_same_slot_rejected(self):
        tube = build_tube((0, 0))
        with pytest.raises(ValueError, match="name one slot twice"):
            contract(tube, (1, 1), build_tube((0, 0)), (0, 1))


class TestMatPower:
    def test_inverse_pairs(self):
        assert mat_mul(build_operator("U1"), build_operator("U1inv")) == mat_identity()
        # det U = 1, so the adjugate is the inverse
        for name in ("U1", "U2"):
            u = build_operator(name)
            adj = mat_adjugate(u)
            assert mat_det(u) == ONE
            assert adj == build_operator(name + "inv")

    def test_power_zero(self):
        assert mat_power(build_operator("G"), 0) == mat_identity()

    def test_mixed_creation_powers(self):
        c1, c2 = build_operator("C1"), build_operator("C2")
        e1, e2 = build_operator("E1"), build_operator("E2")
        mixed = tuple(
            tuple(
                mat_mul(c1, e2)[i][j] + mat_mul(e1, c2)[i][j] for j in LABELS
            )
            for i in LABELS
        )
        for k in (1, 2, 3):
            got = mat_power(mixed, k)
            got = tuple(tuple(_unfold(e) for e in row) for row in got)
            for i, j in product(LABELS, repeat=2):
                if i == j == 1:
                    want = phi((t1 - t0) ** k, -k)
                elif i == j == 2:
                    want = phi((t2 - t0) ** k, -k)
                else:
                    want = PhiElem.zero()
                assert got[i][j] == want

    def test_singular_inverse_rejected(self):
        # B is singular, and mat_power takes no inverse: a negative power is
        # rejected
        b = build_operator("B")
        assert not mat_det(b)
        with pytest.raises(ValueError, match="nonnegative"):
            mat_power(b, -1)

    def test_mat_power_large_exponent_without_recursion(self):
        zero = tuple(tuple(PhiElem.zero() for _ in LABELS) for _ in LABELS)
        assert mat_power(build_operator("M1"), 3000) == zero  # M1^3 = 0


class TestTraceFormula:
    def test_genus_one_level_zero(self):
        assert trace_formula(1, 0, 0) == phi(3)

    def test_genus_one_first_level(self):
        assert trace_formula(1, 1, 0) == phi((t1 - t0) * (t1 - t2), -2)

    def test_genus_zero_first_level(self):
        assert trace_formula(0, 1, 0) == phi(1, -2)

    def test_genus_zero_level_zero(self):
        assert not trace_formula(0, 0, 0)

    def test_genus_two(self):
        q = (t0 - t1) * (t0 - t2) + (t1 - t0) * (t1 - t2) + (t2 - t0) * (t2 - t1)
        assert trace_formula(2, 0, 0) == phi(q)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            trace_formula(-1, 0, 0)

    def test_genus_zero_reduces_for_small_levels(self):
        for k1, k2 in product(range(-2, 3), repeat=2):
            trace_formula(0, k1, k2)  # must not raise

    @pytest.mark.parametrize("g", [0, 1, 4])
    @pytest.mark.parametrize("k1, k2", [(0, 0), (2, -1), (-1, -1)])
    def test_numerator_coefficients_are_ints(self, g, k1, k2):
        z = trace_formula(g, k1, k2)
        coeffs = [c for _, r in z.items() for c in r.num.terms.values()]
        assert all(type(c) is int for c in coeffs), {type(c) for c in coeffs}


class TestEngineState:
    """trace_formula's bounded cache is the one memo of results."""

    @staticmethod
    def _container_sizes() -> dict[str, int]:
        return {
            name: len(value)
            for name, value in vars(gluing).items()
            if isinstance(value, (dict, list, set))
        }

    def test_a_request_leaves_no_module_state(self):
        trace_formula.cache_clear()
        before = self._container_sizes()
        trace_formula(2, 30, 0)
        assert self._container_sizes() == before

    def test_result_does_not_depend_on_earlier_requests(self):
        trace_formula.cache_clear()
        cold = trace_formula(7, 3, -2)
        trace_formula.cache_clear()
        trace_formula(9, 3, -2)
        trace_formula(0, 3, -2)
        assert trace_formula(7, 3, -2) == cold

    def test_the_memo_of_results_is_bounded(self):
        assert isinstance(trace_formula.cache_info().maxsize, int)

    def test_the_stack_depth_does_not_grow_with_the_key(self):
        # the walks recurse across the three axes, never once per step: the
        # 58 genus steps and 39 level steps of this key fit in 60 frames
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        trace_formula.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            z = trace_formula(60, 2, -40)
        finally:
            sys.setrecursionlimit(limit)
        assert z.terms

    @pytest.mark.parametrize("key", [
        (gluing.MAX_REQUEST + 1, 0, 0),
        (2, gluing.MAX_REQUEST, 0),
        (0, 0, -gluing.MAX_REQUEST - 1),
        (1, 50, -52),
    ])
    def test_oversized_request_is_rejected_before_any_work(self, key, monkeypatch):
        def boom(*args):
            raise AssertionError("the trace engine ran")

        monkeypatch.setattr(gluing, "_fill", boom)
        with pytest.raises(ValueError, match=f"above the limit {gluing.MAX_REQUEST}$"):
            trace_formula(*key)


# the engine's seed window is |k| <= 1; |k| = 2, 3 run its level recurrences
LEVELS = list(product(range(-3, 4), repeat=2))


@pytest.fixture(scope="module")
def level_words():
    """U1^k1 U2^k2 by matrix powers, for every level in LEVELS."""
    def power(name, k):
        return mat_power(build_operator(name if k >= 0 else name + "inv"), abs(k))

    u1 = {k: power("U1", k) for k in range(-3, 4)}
    u2 = {k: power("U2", k) for k in range(-3, 4)}
    return {(k1, k2): mat_mul(u1[k1], u2[k2]) for k1, k2 in LEVELS}


def _clear_engine_caches():
    trace_formula.cache_clear()
    gluing._seed.cache_clear()
    gluing._char_poly.cache_clear()


class TestCayleyHamilton:
    """trace_formula against the matrix-power traces it replaced."""

    def test_characteristic_polynomial(self):
        gmat = build_operator("G")
        adj = mat_adjugate(gmat)
        c1, c2, c3 = mat_trace(gmat), mat_trace(adj), mat_det(gmat)
        folded = gluing._char_poly("G")
        unfolded = tuple(_unfold(gluing._graded(c, w)) for c, w in zip(folded, (2, 4, 6)))
        assert unfolded == tuple(map(_unfold, (c1, c2, c3)))
        rhs = mat_add(
            mat_add(mat_scale(mat_power(gmat, 2), c1), mat_scale(gmat, -c2)),
            mat_scale(mat_identity(), c3),
        )
        assert mat_power(gmat, 3) == rhs

    def test_trace_formula_matches_matrix_power(self, level_words):
        gpowers = [mat_identity()]
        for _ in range(6):
            gpowers.append(mat_mul(gpowers[-1], build_operator("G")))
        for (k1, k2), w in level_words.items():
            for g in range(1, 8):
                want = _unfold(mat_trace(mat_mul(gpowers[g - 1], w)))
                assert trace_formula(g, k1, k2) == want, (g, k1, k2)

    def test_every_seed_is_its_trace(self, level_words):
        gmat = build_operator("G")
        adj = mat_adjugate(gmat)
        det = mat_det(gmat)
        for a, b in product((-1, 0, 1), repeat=2):
            w = level_words[a, b]
            for j, gpow in ((0, mat_identity()), (1, gmat)):
                want = gluing._at_phi_one(mat_trace(mat_mul(gpow, w)), 2 * j, "seed")
                assert gluing._seed(j, a, b) == want, (j, a, b)
            # s_-1 det G = tr(adj G w); the folded ring has no zero divisors
            s = gluing._graded(gluing._seed(-1, a, b), -2)
            assert s * det == mat_trace(mat_mul(adj, w)), (a, b)

    def test_genus_zero_matches_adjugate_quotient(self, level_words):
        # the quotient tr(adj G w) / det G, as the product identity
        # s_-1 det G = tr(adj G w) in the folded ring, which has no zero divisors
        gmat = build_operator("G")
        adj = mat_adjugate(gmat)
        det = mat_det(gmat)
        read = gluing._reader()
        for (k1, k2), w in level_words.items():
            s = read(0, k1, k2)
            assert s * det == mat_trace(mat_mul(adj, w)), (k1, k2)
            assert trace_formula(0, k1, k2) == _unfold(s), (k1, k2)

    def test_high_genus_mixed_level(self, level_words):
        g4 = mat_power(build_operator("G"), 4)
        g8 = mat_mul(g4, g4)
        g11 = mat_mul(g8, mat_power(build_operator("G"), 3))
        w = level_words[2, -1]
        assert trace_formula(12, 2, -1) == _unfold(mat_trace(mat_mul(g11, w)))
        assert trace_formula(20, 2, -1) == _unfold(mat_trace(mat_mul(g11, mat_mul(g8, w))))


class TestFold:
    def test_unfold_is_a_taylor_shift(self):
        # x y^2 at weight 4 is (t0 - t2)(t1 - t2)^2 phi
        got = _unfold(gluing._graded({(1, 2): 1}, 4))
        assert got == phi((t0 - t2) * (t1 - t2) ** 2, 1)
        folded = _phi(XYRat({(1, 2): 1}), 1)
        assert gluing._at_phi_one(folded, 4, "x y^2") == {(1, 2): 1}
        assert _unfold(folded) == got

    @staticmethod
    def _assert_exit_3(monkeypatch, capsys, name, key, weight):
        """Add x phi^0, of weight 1, to entry (0, 0) of the named operator:
        the trace at key is then not homogeneous of its weight, so reading
        it at phi = 1 would lose its phi powers."""
        m = build_operator(name)
        bad = m[0][0] + _phi(XYRat({(1, 0): 1}), 0)
        doctored = ((bad,) + m[0][1:],) + m[1:]
        monkeypatch.setattr(
            gluing, "build_operator", lambda n: doctored if n == name else build_operator(n)
        )
        _clear_engine_caches()
        g, k1, k2 = key
        try:
            with pytest.raises(ReductionError, match=f"of weight {weight}$"):
                trace_formula(*key)
            argv = ["compute", "-g", str(g), "--level1", str(k1), "--level2", str(k2)]
            assert cli.main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("internal consistency error: ")
            assert len(err.splitlines()) == 1
        finally:
            monkeypatch.undo()
            _clear_engine_caches()

    def test_operator_breaking_the_weight_is_exit_3(self, monkeypatch, capsys):
        # G has weight 2, and the genus-2 trace runs through it
        self._assert_exit_3(monkeypatch, capsys, "G", (2, 0, 0), 2)

    def test_genus_zero_with_a_broken_level_operator_is_exit_3(self, monkeypatch, capsys):
        # the genus-0 seed is the capped chain 1^T U1 w, of weight -2: it
        # runs through U1 and never through G
        self._assert_exit_3(monkeypatch, capsys, "U1", (0, 1, 0), -2)

    def test_every_generator_entry_round_trips(self):
        # every coefficient is an XYRat, and the unfolded entry at t2 = 0 is
        # the fold again
        tensors = list(GENERATORS)
        tensors += [words.matrix_to_tensor(build_operator(name)) for name in OPERATOR_NAMES]
        assert len(tensors) == 11 + 15
        for t in tensors:
            for e in t.entries:
                assert all(isinstance(c, XYRat) for c in e.terms.values())
                back = {
                    m: XYRat({(a, b): v for (a, b, k), v in c.num.terms.items() if not k}, c.dexp)
                    for m, c in _unfold(e).terms.items()
                }
                assert back == e.terms

    def test_fold_keeps_phi_and_the_denominator(self):
        # pants[0,0,0] fiber class: (2 t0 - t1 - t2) phi^3 is (2x - y) phi^3
        assert piece(build_pants(), 0, 1).entry(0, 0, 0).terms == {3: XYRat({(1, 0): 2, (0, 1): -1})}
        # 1 / T(x_1) = -1 / ((t0 - t1)(t1 - t2)) is -1 / ((x - y) y)
        assert INV_WEIGHTS[1] == XYRat({(0, 0): -1}, (1, 0, 1))
        assert _unfold(_phi(INV_WEIGHTS[1], -1)) == phi(TRat.make(1, weight(1)), -1)


class TestOneCoefficientRing:
    """The generators, the trace engine and the word path run in Z[x, y]
    alone: no three-variable arithmetic."""

    @staticmethod
    def _clear():
        for fn in (operators.weight, build_operator, build_cap, build_tube, build_pants,
                   words.build_handle):
            fn.cache_clear()
        _clear_engine_caches()

    def test_no_three_variable_arithmetic(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("three-variable arithmetic")

        for cls, attr in ((TPoly, "__mul__"), (TPoly, "__rmul__"), (TRat, "make"),
                          (TRat, "__add__"), (TRat, "__mul__")):
            monkeypatch.setattr(cls, attr, boom)
        self._clear()
        try:
            ops = [build_operator(name) for name in OPERATOR_NAMES]
            levels = ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))
            tensors = [build_cap(lv) for lv in levels] + [build_tube(lv) for lv in levels]
            tensors.append(build_pants())
            entries = [e for m in ops for row in m for e in row]
            entries += [e for t in tensors for e in t.entries]
            assert all(isinstance(c, XYRat) for e in entries for c in e.terms.values())
            read = gluing._reader()
            folded = read(10, 2, -1)
            genus_zero = read(0, 2, -1)
            scalar = evaluate_word(closed_surface_word(2, 1, -1)).scalar()
        finally:
            monkeypatch.undo()
            self._clear()
        assert _unfold(folded) == trace_formula(10, 2, -1)
        assert _unfold(genus_zero) == trace_formula(0, 2, -1)
        assert _unfold(scalar) == trace_formula(2, 1, -1)


class TestCommutation:
    def test_pairwise(self):
        g, u1, u2 = (build_operator(n) for n in ("G", "U1", "U2"))
        assert mat_mul(g, u1) == mat_mul(u1, g)
        assert mat_mul(g, u2) == mat_mul(u2, g)
        assert mat_mul(u1, u2) == mat_mul(u2, u1)

    def test_trace_cyclicity_on_random_words(self):
        rng = random.Random(7)
        names = ["G", "U1", "U2", "U1inv", "U2inv"]
        for _ in range(8):
            word = [build_operator(rng.choice(names)) for _ in range(3)]
            m = word[0]
            for w in word[1:]:
                m = mat_mul(m, w)
            n = word[-1]
            for w in word[:-1]:
                n = mat_mul(n, w)
            assert mat_trace(m) == mat_trace(n)


class TestAssociativity:
    def test_contract_is_associative(self):
        rng = random.Random(11)
        gens = [
            build_tube((0, 1)),
            build_tube((0, -1)),
            build_tube((1, 0)),
            build_pants(),
        ]
        for _ in range(6):
            a, b, c = (rng.choice(gens) for _ in range(3))
            left = contract(contract(a, a.rank - 1, b, 0), a.rank - 2 + b.rank - 1, c, 0)
            right = contract(a, a.rank - 1, contract(b, b.rank - 1, c, 0), 0)
            assert left == right


class TestWords:
    def test_single_cap(self):
        word = CobordismWord((("cap", (0, 0)),))
        out = split_classes(evaluate_word(word), word.level)
        assert list(out) == [0]
        assert _unfold(out[0].entry(1)) == phi(1)

    def test_cap_pants_chain(self):
        out = evaluate_word(parse_word("cap(0,-1) * pants"))
        assert out == build_tube((0, -1))

    def test_trace_of_identity_tube(self):
        out = evaluate_word(parse_word("trace(tube(0,0))"))
        assert _unfold(out.scalar()) == phi(3)

    def test_matrix_word_matches_trace_formula(self):
        out = evaluate_word(parse_word("trace(G^1 * U1^1)"))
        assert _unfold(out.scalar()) == trace_formula(2, 1, 0)

    def test_closed_words_match_trace_formula(self):
        for g in range(0, 4):
            for k1 in range(-2, 3):
                for k2 in range(-2, 3):
                    word = closed_surface_word(g, k1, k2)
                    got = _unfold(evaluate_word(word).scalar())
                    assert got == trace_formula(g, k1, k2), (g, k1, k2)

    def test_class_refined_word_matches_class_sum(self):
        word = closed_surface_word(2, 1, 0)
        classes = split_classes(evaluate_word(word), word.level)
        summed = PhiElem.zero()
        for n, t in classes.items():
            assert _unfold(t.scalar()) == class_component(2, 1, 0, n), n
            summed = summed + _unfold(t.scalar())
        assert summed == trace_formula(2, 1, 0)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            evaluate_word(CobordismWord(()))
        with pytest.raises(ValueError, match="empty word"):
            evaluate_word(CobordismWord((), traced=True))

    @pytest.mark.parametrize(
        "word, key",
        [
            (parse_word("trace(G^2 * U1^-1)"), (3, -1, 0)),
            (closed_surface_word(8, 0, 0), (8, 0, 0)),
        ],
    )
    def test_one_pass_words_match_trace_formula(self, word, key):
        assert _unfold(evaluate_word(word).scalar()) == trace_formula(*key)

    @pytest.mark.parametrize(
        "gens, open_rank, slot",
        [
            ((("tube", (0, 0)), ("tube", (0, 0)), ("cap", (0, 0))), 1, (2, 0)),
            ((("cap", (0, 0)), ("tube", (0, 0)), ("tube", (0, 0))), 1, (0, 0)),
            ((("cap", (0, 0)), ("tube", (0, 0)), ("cap", (0, 0))), 0, (2, 0)),
        ],
    )
    def test_cap_closing_a_traced_chain_is_reported(self, gens, open_rank, slot):
        # a cap may end an open chain, but its one slot cannot take both a
        # join and the closing; the last generator is reported before the first
        assert evaluate_word(CobordismWord(gens)).rank == open_rank
        with pytest.raises(ValueError, match=re.escape(f"slot {slot} is unknown or already glued")):
            evaluate_word(CobordismWord(gens, traced=True))

    def test_free_slot_order(self):
        # each join leaves the composite's slots, then the next generator's
        pants, u1 = build_pants(), words.matrix_to_tensor(build_operator("U1"))
        assert evaluate_word(parse_word("U1 * pants")) == contract(u1, 1, pants, 0)

    def test_reused_slot_rejected(self):
        # a middle cap would be glued on both sides through its one slot;
        # the first middle cap is reported
        word = CobordismWord((("pants",), ("cap", (0, 0)), ("cap", (0, 0)), ("pants",)))
        for traced in (False, True):
            with pytest.raises(ValueError, match=re.escape("slot (1, 0) is unknown or already glued")):
                evaluate_word(word._replace(traced=traced))

    def test_labels_outside_the_basis_are_rejected(self):
        tube = build_tube((1, 0))
        assert tube.entry(1, 0) is tube.entries[3]
        for labels, bad in (((0, 3), 3), ((-1, 0), -1), ((1, 5), 5)):
            with pytest.raises(ValueError, match=f"0, 1 or 2, got {bad}$"):
                tube.entry(*labels)

    def test_traced_single_generator_is_self_glued(self):
        # brute-force oracle: sum pants[lam, a, lam] / T(x_lam) over lam
        got = unfold_tensor(evaluate_word(CobordismWord((("pants",),), traced=True)))
        pants = unfold_tensor(build_pants())
        for a in LABELS:
            oracle = PhiElem.zero()
            for lam in LABELS:
                oracle = oracle + pants.entry(lam, a, lam) * phi(TRat.make(1, weight(lam)))
            assert got.entry(a) == oracle
        # a cap's one slot cannot be both ends of the ring
        with pytest.raises(ValueError, match=re.escape("slot (0, 0) is unknown or already glued")):
            evaluate_word(CobordismWord((("cap", (0, 0)),), traced=True))


class TestWordParsing:
    def test_parse_errors_carry_position(self):
        with pytest.raises(ValueError, match="position"):
            parse_word("cap(0,-1) ** pants")
        with pytest.raises(ValueError, match="position"):
            parse_word("frob")
        with pytest.raises(ValueError, match="position"):
            parse_word("cap * pants")

    def test_word_size_bound(self):
        assert len(parse_word("trace(G^32)").generators) == words.MAX_WORD_GENERATORS == 32
        for text in ("trace(G^33)", "A^10000000", "G^99999999999999999999",
                     "trace(" + " * ".join(["U1"] * 33) + ")"):
            with pytest.raises(ValueError, match="at most 32"):
                parse_word(text)

    def test_inverse_operators_are_the_opposite_levels(self):
        assert words._INVERTIBLE == {"U1": "U1inv", "U2": "U2inv", "U1inv": "U1", "U2inv": "U2"}

    def test_negative_operator_powers(self):
        out = evaluate_word(parse_word("trace(G^2 * U1^-1)"))
        assert _unfold(out.scalar()) == trace_formula(3, -1, 0)


class TestWordSlotBound:
    """evaluate_word bounds a word by the widest composite its fold builds:
    a cap has one slot, a pants three and every other generator two."""

    @pytest.fixture
    def no_contract(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("contracted")

        monkeypatch.setattr(words, "contract", refuse)

    @pytest.mark.parametrize(
        "text", ["pants^6", "cap(0,0) * pants^7", "trace(G^32)", "trace(pants)"]
    )
    def test_eight_slots_are_accepted(self, no_contract, text):
        assert words.MAX_WORD_SLOTS == 8
        with pytest.raises(AssertionError, match="contracted"):
            evaluate_word(parse_word(text))

    @pytest.mark.parametrize("text, slots", [
        ("pants^7", 9), ("cap(0,0) * pants^8", 9), ("trace(pants^8)", 9), ("pants^32", 34),
    ])
    def test_nine_slots_are_rejected_before_any_contraction(self, no_contract, text, slots):
        with pytest.raises(ValueError, match=f"a tensor of {slots} slots; at most 8 "):
            evaluate_word(parse_word(text))

    @pytest.mark.parametrize("gens, kind", [
        ((("foo", (1, 0)), ("cap", (0, 0))), "foo"),
        ((("pantz",),), "pantz"),
        ((("tube", (0, 0)), ("pants",), ("Handle",)), "Handle"),
    ])
    def test_unknown_kinds_are_rejected_before_any_contraction(self, no_contract, gens, kind):
        for traced in (False, True):
            with pytest.raises(ValueError, match=f"unknown generator kind '{kind}'"):
                evaluate_word(CobordismWord(gens, traced))

    def test_the_closing_pass_is_not_counted(self, no_contract):
        # trace(pants^7) joins its last pants in the closing pass, which
        # builds 7 slots from the 8 of pants^6; open, the same join builds 9
        with pytest.raises(AssertionError, match="contracted"):
            evaluate_word(parse_word("trace(pants^7)"))
        with pytest.raises(ValueError, match="9 slots"):
            evaluate_word(parse_word("pants^7"))


class TestRefinedAgainstSummed:
    def test_convolution_consistency(self):
        # class n of a contraction is the sum, over n' + n'' = n, of the
        # contractions of the factors' classes
        pairs = [
            ((build_tube((0, 1)), 1), (build_tube((0, -1)), -1)),
            ((build_pants(), 0), (build_tube((1, 0)), 1)),
            ((build_cap((0, -1)), -1), (build_pants(), 0)),
        ]
        for (a, ka), (b, kb) in pairs:
            convolved: dict[int, list[PhiElem]] = {}
            for na, pa in split_classes(a, ka).items():
                for nb, pb in split_classes(b, kb).items():
                    t = contract(pa, a.rank - 1, pb, 0)
                    acc = convolved.setdefault(na + nb, [PhiElem.zero()] * len(t.entries))
                    convolved[na + nb] = [x + y for x, y in zip(acc, t.entries)]
            want = {
                n: RelTensor(t.variance, entries)
                for n, entries in sorted(convolved.items()) if any(entries)
            }
            assert split_classes(contract(a, a.rank - 1, b, 0), ka + kb) == want
