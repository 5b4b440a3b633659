"""The verification suites themselves: every default check must pass, and
failing inputs must produce counterexamples rather than exceptions."""

import random
from itertools import product

import pytest

from gwtqft import checks, gluing, words
from gwtqft.checks import (
    PRIME,
    CheckReport,
    _elem_mod,
    _random_residues,
    numeric_trace,
    run_checks,
    verify_calabi_yau,
    verify_gluing_derivations,
    verify_numeric_crosscheck,
    verify_semisimplicity,
    verify_special_cases,
)
from gwtqft.exactring import XYRat
from gwtqft.gluing import trace_formula
from gwtqft.operators import (
    _phi,
    build_operator,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_power,
    mat_trace,
)
from gwtqft.phicalc import PhiElem
from reference import folded_mod, phi, value_mod


class TestCalabiYau:
    def test_default_sweep_passes(self):
        rep = verify_calabi_yau(4, 4)
        assert rep.passed, rep.failures[:1]
        assert rep.cases > 0

    def test_small_cases(self):
        rep = verify_calabi_yau(1, 1)
        assert rep.passed
        # g=0,k=1 and g=1,k=0 are the only admissible pairs here
        assert rep.cases == 2


class TestSpecialCases:
    def test_small_sweep_passes(self):
        rep = verify_special_cases(2, 2)
        assert rep.passed, rep.failures[:1]

    def test_case_count(self):
        rep = verify_special_cases(1, 1)
        # 2*2 + 2*2 + 2*1 + 2*4 parameter tuples over the four extreme-class
        # families, and 8 for the top class: the level-(0,0) family always
        # runs to g = 8
        assert rep.cases == 26

    def test_extreme_class_is_the_lowest_class_at_every_level(self):
        # beyond the suite's families, levels such as (2, 1) and (-1, 3)
        # included: class -max(0, k1, k2) is the localization sum, and Z has
        # no lower phi power; at (0, 0, 0), (0, -1, 0), (0, 0, -1) and
        # (0, 1, 1), Z and the sum are both 0
        rep = CheckReport("extreme_class", "unit")
        read = gluing._reader()
        zeros = []
        for key in product(range(7), range(-5, 6), range(-5, 6)):
            g, k1, k2 = key
            n = -max(0, k1, k2)
            expected = checks._extreme_class(*key)
            checks._check_class(rep, read, f"{key}", *key, n, expected)
            powers = read(*key).terms
            low = [m for m in powers if m < k1 + k2 + 3 * n]
            rep.check(f"{key} powers below class {n}", [], low)
            if not powers:
                zeros.append(key)
        assert rep.passed, rep.failures[:1]
        assert rep.cases == 2 * 847
        assert zeros == [(0, -1, 0), (0, 0, -1), (0, 0, 0), (0, 1, 1)]

    def test_calabi_yau_at_every_level(self):
        # the theorem holds at every level (k1, k2), not only the suite's
        # k1 = 0, k2 >= 0: phi^(2g - 2) of Z is 3^g when 3 | 2g - 2 - k1 - k2
        rep = CheckReport("calabi_yau", "unit")
        read = gluing._reader()
        for g, k1, k2 in product(range(9), range(-6, 7), range(-6, 7)):
            if (2 * g - 2 - k1 - k2) % 3 == 0:
                n = (2 * g - 2 - k1 - k2) // 3
                checks._check_class(rep, read, f"{g, k1, k2}", g, k1, k2, n, 3 ** g)
        assert rep.passed, rep.failures[:1]
        assert rep.cases == 507

    def test_each_exponent_of_the_localization_formula_counts(self, monkeypatch):
        # every (t_a - t_b) raised once more fails every extreme-class case
        # and none of the 8 top-class ones
        dpow = checks._dpow
        monkeypatch.setattr(checks, "_dpow", lambda i, j, e: dpow(i, j, e + 1))
        rep = verify_special_cases()
        assert (rep.cases, len(rep.failures)) == (422, 414)
        assert rep.failures[0].startswith("first-creation g=0, k1=1, k2=0: expected ")
        assert not any(f.startswith("top-class") for f in rep.failures)

    def test_every_top_fixed_point_counts(self, monkeypatch):
        # the first fixed point of largest level alone fails exactly the
        # keys with two or three of them: 24 balanced-creation and 54
        # annihilation cases with k1 = 0 or k2 = 0
        def first_top_point(g, k1, k2):
            levels = (0, k1, k2)
            a = levels.index(max(levels))
            b, c = (b for b in range(3) if b != a)
            e = g - 1 + levels[a]
            return checks._dpow(a, b, e - levels[b]) * checks._dpow(a, c, e - levels[c])

        monkeypatch.setattr(checks, "_extreme_class", first_top_point)
        rep = verify_special_cases()
        assert (rep.cases, len(rep.failures)) == (422, 78)
        assert rep.failures[0].startswith("balanced-creation g=0, k=1: expected ")
        failed = [f.split(": expected ", 1)[0] for f in rep.failures]
        assert sum(f.startswith("balanced-creation") for f in failed) == 24
        assert sum(f.startswith("annihilation") for f in failed) == 54


    @pytest.mark.parametrize("g", [0, 3, 9])
    @pytest.mark.parametrize("k", [0, 2])
    def test_run_checks_bounds_are_the_suite_defaults(self, g, k):
        # run_checks passes the bounds alone; the level-(0,0) family's
        # g = max(g_max, 8) is the suite's own
        rep = verify_special_cases(g, k)
        (via,) = run_checks("appendixB", g_max=g, k_max=k)
        assert (via.swept, via.cases) == (rep.swept, rep.cases)
        assert rep.swept.endswith(f"level-(0,0) family up to g={max(g, 8)}")


class TestGluingDerivations:
    def test_passes(self):
        rep = verify_gluing_derivations()
        assert rep.passed, rep.failures[:1]

    def test_row_denominator_outside_weight_recorded(self, monkeypatch):
        # row 0 may only divide by T(x_0) = (t0 - t1)(t0 - t2); (t0 - t1)^2,
        # folded (x - y)^2, is still a product of linear forms, so only the
        # row bound catches it
        g = build_operator("G")
        bad = _phi(XYRat({(0, 0): 1}, (2, 0, 0)), 0)
        doctored = ((bad,) + g[0][1:],) + g[1:]
        monkeypatch.setattr(
            checks, "build_operator", lambda name: doctored if name == "G" else build_operator(name)
        )
        rep = CheckReport("gluing_derivations", "unit")
        checks._operator_identities(rep)
        assert any(f.startswith("G row 0 denominator") for f in rep.failures), rep.failures

    # a term that is not translation invariant, such as t0*t1, has no fold,
    # so only a break of the weight can be injected into a folded operator
    @pytest.mark.parametrize("extra, label", [
        ("t0 - t2", "t-degrees"),  # translation invariant, but of weight 1
    ])
    def test_fold_assumption_break_recorded(self, monkeypatch, extra, label):
        g = build_operator("G")
        bad = g[1][1] + _phi(XYRat({(1, 0): 1}), 0)  # x = t0 - t2
        doctored = (g[0], (g[1][0], bad, g[1][2]), g[2])
        monkeypatch.setattr(
            checks, "build_operator", lambda name: doctored if name == "G" else build_operator(name)
        )
        rep = CheckReport("gluing_derivations", "unit")
        checks._operator_identities(rep)
        assert any(f.startswith(f"G[1][1] phi^0 {label}") for f in rep.failures), rep.failures

    def test_a_changed_operator_fails_an_identity_with_both_matrices_shown(self, monkeypatch):
        # one changed entry of B breaks B^3 = 0 first; the failure writes
        # both matrices entry by entry, re-expanded in t0, t1, t2
        b = build_operator("B")
        doctored = (b[0], (b[1][0], b[1][1] + _phi(1, 3), b[1][2]), b[2])
        monkeypatch.setattr(
            checks, "build_operator", lambda name: doctored if name == "B" else build_operator(name)
        )
        rep = CheckReport("gluing_derivations", "unit")
        checks._operator_identities(rep)
        assert not rep.passed
        first = rep.failures[0]
        assert first.startswith("B^3 = 0: expected [0, 0, 0; 0, 0, 0; 0, 0, 0], got [("), first
        got = first.split(", got ", 1)[1]
        assert got.count(";") == 2 and "*phi^9" in got and "t2" in got, got
        assert "XYRat" not in first

    # one changed entry breaks every identity whose expected matrix is built
    # from a closed form, so none of those expectations is vacuous
    @pytest.mark.parametrize("name, cell, extra, identities", [
        ("A", (0, 0), _phi(1, 0),
         ["A B^2 = ones 9 phi^6", "A (A B^2) rows", "(A B)^2 (A B^2)", "A^2 B^2 (A B^2)"]),
        ("C1", (1, 1), _phi(1, -2),
         ["C1 E2 + E1 C2 diagonal", "(C1 E2 + E1 C2)^2", "(C1 E2 + E1 C2)^3"]),
        ("E2", (2, 0), _phi(1, 1), ["C E B bottom row", "A E^2 = ones phi^2"]),
    ])
    def test_a_changed_operator_fails_each_closed_form_identity(
        self, monkeypatch, name, cell, extra, identities
    ):
        op = build_operator(name)
        doctored = tuple(
            tuple(e + extra if (a, b) == cell else e for b, e in enumerate(row))
            for a, row in enumerate(op)
        )
        monkeypatch.setattr(
            checks, "build_operator", lambda n: doctored if n == name else build_operator(n)
        )
        rep = CheckReport("gluing_derivations", "unit")
        checks._operator_identities(rep)
        failed = {f.split(": expected ", 1)[0] for f in rep.failures}
        assert set(identities) <= failed, rep.failures

    def test_a_changed_level_operator_fails_at_its_cap(self, monkeypatch):
        # the tubes are read off the level operators, so one changed entry of
        # U1 changes the tube (1,0), and the level cap glued to the pants,
        # the localization data, tells it apart
        u1 = build_operator("U1")
        doctored = ((u1[0][0] + _phi(1, 1),) + u1[0][1:],) + u1[1:]
        monkeypatch.setattr(
            words, "build_operator", lambda name: doctored if name == "U1" else build_operator(name)
        )
        words.build_tube.cache_clear()
        try:
            rep = verify_gluing_derivations()
        finally:
            monkeypatch.undo()
            words.build_tube.cache_clear()
        assert not rep.passed
        assert rep.failures[0].startswith("cap(1, 0) * pants: expected "), rep.failures[0]

    def test_case_count(self):
        # 71 generator and operator cases (the two-pants handle three
        # times: section class, fiber class, one pass) and 100 closed words
        # (g <= 3, |k1|, |k2| <= 2); the folded row-denominator and t-degree
        # checks add 2 cases per coefficient of G, U1, U2, U1inv and U2inv
        # (50 of them), and the two determinants 2 more: 171 + 100 + 2 = 273
        assert verify_gluing_derivations().cases == 273

    def test_arc_glued_surfaces_are_the_words(self):
        # each closed surface glued from its two arcs is the word that
        # evaluate_word folds from the left, key by key in the suite's order
        glued = list(checks._closed_surfaces())
        assert [key for key, _ in glued] == list(product(range(4), range(-2, 3), range(-2, 3)))
        for key, z in glued:
            assert z == words.evaluate_word(words.closed_surface_word(*key)).scalar(), key

    def test_contract_calls(self, monkeypatch):
        # with the generator caches warm: 20 for the generator identities,
        # 25 to build the arcs and 100 closing contractions
        verify_gluing_derivations()
        calls = []
        for module in (words, checks):
            contract = module.contract

            def counted(*args, _contract=contract):
                calls.append(args)
                return _contract(*args)

            monkeypatch.setattr(module, "contract", counted)
        verify_gluing_derivations()
        assert len(calls) == 145


class TestSemisimplicity:
    def test_passes(self):
        rep = verify_semisimplicity()
        assert rep.passed, rep.failures[:1]
        assert rep.cases == 54
        # a direct call is not timed, so its text report is fixed byte for byte
        assert rep.summary() == "semisimplicity: pass (54 cases, 0.00s; structure constants at u = 0)"

    def test_a_negative_phi_power_fails_a_counted_case(self, monkeypatch):
        # a phi^-3 term in the pants entry (0, 1, 2) is still one of the 54
        # cases, and its failure shows the raised entry's terms of
        # phi-power <= 0, re-expanded: 1 / T(x_2) phi^-3
        pants = words.build_pants()
        entries = list(pants.entries)
        entries[5] = entries[5] + _phi(1, -3)  # the row-major index of (0, 1, 2)
        monkeypatch.setattr(checks, "build_pants", lambda: words.RelTensor(pants.variance, entries))
        rep = verify_semisimplicity()
        assert not rep.passed
        assert rep.cases == 54
        assert len(rep.failures) == 1
        assert rep.failures[0] == (
            "c[01]^2 at u=0: expected 0, got (1 / (t0*t1 - t0*t2 - t1*t2 + t2^2))*phi^-3"
        ), rep.failures[0]


class TestNumericCrosscheck:
    def test_passes(self):
        rep = verify_numeric_crosscheck(seed=1, trials=6)
        assert rep.passed, rep.failures[:1]

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            verify_numeric_crosscheck(seed=1, trials=0)

    def test_numeric_matches_symbolic_at_point(self):
        # at t = (0, 1, 2) every phi power of Z(2 | 0, 0) but phi^0 vanishes
        point = (0, 1, 2, 5)
        sym = value_mod(trace_formula(2, 0, 0), point)
        assert numeric_trace(2, 0, 0, point) == sym
        assert sym == 3

    def test_genus_zero_numeric_path(self):
        # Z(0 | 1, 0) = phi^-2, at t = (1/2, -1, 3) and phi = 7
        point = (pow(2, -1, PRIME), PRIME - 1, 3, 7)
        assert numeric_trace(0, 1, 0, point) == pow(7, -2, PRIME)

    def test_high_genus_numeric_path(self):
        # numeric_trace powers G by squaring, independent of the symbolic recurrence
        point = (3 * pow(2, -1, PRIME) % PRIME, PRIME - 2, 5 * pow(3, -1, PRIME) % PRIME, 11)
        for k1, k2 in ((0, 0), (2, -1)):
            sym = value_mod(trace_formula(12, k1, k2), point)
            assert numeric_trace(12, k1, k2, point) == sym, (k1, k2)

    @pytest.mark.parametrize(
        "key", [(81, 0, 0), (2, 100, 0), (40, 20, -20), (1, -50, 51), (0, -3, 2), (0, -50, -50)]
    )
    def test_reference_at_the_request_bound(self, key):
        # the engine's folded s_(g-1), read without re-expansion, against the
        # reference at a random point
        g, k1, k2 = key
        point = _random_residues(random.Random(sum(key)), g)
        z = gluing._reader()(g, k1, k2)
        folded = folded_mod(gluing._at_phi_one(z, 2 * g - 2, "Z"), 2 * g - 2, point)
        assert numeric_trace(g, k1, k2, point) == folded

    def test_every_drawable_key_against_the_folded_matrix_trace(self):
        # all 245 keys the suite draws, the empty chain (1, 0, 0) and every
        # genus-0 branch included, at one non-pole point: numeric_trace
        # against the trace of folded matrix powers, read by _elem_mod
        point = _random_residues(random.Random(5), 0)
        gmat = build_operator("G")
        levels = {
            (name, k): mat_power(build_operator(name if k > 0 else name + "inv"), abs(k))
            for name in ("U1", "U2")
            for k in range(-3, 4)
        }
        heads = {g: mat_power(gmat, g - 1) for g in range(1, 5)}
        heads[0] = mat_adjugate(gmat)
        inv_det = pow(_elem_mod(mat_det(gmat), point), -1, PRIME)
        for k1, k2 in product(range(-3, 4), repeat=2):
            w = mat_mul(levels["U1", k1], levels["U2", k2])
            for g, head in heads.items():
                want = _elem_mod(mat_trace(mat_mul(head, w)), point)
                if g == 0:
                    want = want * inv_det % PRIME
                assert numeric_trace(g, k1, k2, point) == want, (g, k1, k2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_folded_element_and_its_unfold_agree(self, seed):
        # _elem_mod reads the fold off each coefficient's type: XYRat at
        # x = t0 - t2, y = t1 - t2, TRat at t0, t1, t2
        rng = random.Random(seed)
        folded = [e for row in build_operator("G") for e in row]
        folded.append(gluing._reader()(rng.randint(0, 4), rng.randint(-3, 3), rng.randint(-3, 3)))
        for e in folded:
            point = _random_residues(rng, 1)
            assert _elem_mod(e, point) == _elem_mod(gluing._unfold(e), point)

    def test_a_pole_is_redrawn(self, monkeypatch):
        class Scripted:
            def __init__(self, *values):
                self.values = iter(values)

            def randrange(self, n):
                return next(self.values)

        with pytest.raises(ValueError):
            numeric_trace(2, 0, 0, (1, 1, 2, 5))
        # a repeated t (a zero weight), then phi = 0, then a point that is kept
        assert _random_residues(Scripted(1, 1, 2, 5, 1, 2, 3, 0, 1, 2, 3, 5), 1) == (1, 2, 3, 5)
        # at g = 0 a zero det G is redrawn as well
        dets = iter([0, 1])
        monkeypatch.setattr(checks, "mat_det", lambda m: next(dets))
        assert _random_residues(Scripted(1, 2, 3, 5, 4, 5, 6, 7), 0) == (4, 5, 6, 7)


@pytest.fixture
def break_engine(monkeypatch):
    """break_engine(name, wrap) replaces gluing.<name> by wrap(original),
    with the memo of results cleared before and after the test."""
    from gwtqft import gluing

    def patch(name, wrap):
        monkeypatch.setattr(gluing, name, wrap(getattr(gluing, name)))
        trace_formula.cache_clear()

    yield patch
    monkeypatch.undo()
    trace_formula.cache_clear()


def _seed_off_by_one(seed):
    # the x^2 coefficient of tr(G) = x^2 - x y + y^2 plus 1
    def broken(*key):
        s = seed(*key)
        return {**s, (2, 0): s[2, 0] + 1} if key == (1, 0, 0) else s

    return broken


def _char_poly_off_by_one(char_poly):
    # the x^2 coefficient of c1 = tr(G) = x^2 - x y + y^2 plus 1
    def broken(name):
        c1, c2, c3 = char_poly(name)
        return ({**c1, (2, 0): c1[2, 0] + 1}, c2, c3) if name == "G" else (c1, c2, c3)

    return broken


def _shift_with_t2_flipped(shift):
    # num(t0 + t2, t1 + t2) instead of num(t0 - t2, t1 - t2)
    from gwtqft.exactring import TPoly

    return lambda num: TPoly({e: -c if e[2] % 2 else c for e, c in shift(num).terms.items()})


class TestFaultInjection:
    def test_broken_seed_fails_the_closed_forms_in_t(self, break_engine):
        break_engine("_seed", _seed_off_by_one)
        rep = verify_special_cases()
        assert rep.cases == 422
        assert len(rep.failures) == 79
        # the folded comparison reports both sides re-expanded in t0, t1, t2
        assert rep.failures[0] == (
            "balanced-creation g=2, k=2: expected (3*t0^2*t1^2 - 6*t0^2*t1*t2 + 3*t0^2*t2^2"
            " - 3*t0*t1^3 + 3*t0*t1^2*t2 + 3*t0*t1*t2^2 - 3*t0*t2^3 + t1^4 - t1^3*t2"
            " - t1*t2^3 + t2^4)*phi^-2, got (t0^4 - t0^3*t1 - 3*t0^3*t2 + t0^2*t1^2"
            " + t0^2*t1*t2 + 4*t0^2*t2^2 - 3*t0*t1^3 + 7*t0*t1^2*t2 - 8*t0*t1*t2^2 + t1^4"
            " - t1^3*t2 - 2*t1^2*t2^2 + 4*t1*t2^3 - t2^4)*phi^-2"
        )
        assert not any("XYRat" in f for f in rep.failures)

    def test_broken_seed_fails_the_words(self, break_engine):
        break_engine("_seed", _seed_off_by_one)
        rep = verify_gluing_derivations()
        assert not rep.passed
        assert rep.failures[0].startswith("word g=2, k1=-2, k2=-2: expected (")
        assert not any("XYRat" in f for f in rep.failures)

    def test_a_changed_handle_fails_the_words_from_genus_two(self, monkeypatch):
        # every ring of genus g >= 2 is glued from arcs that start with the
        # handle, and no arc below genus 2 holds one
        handle = words.build_handle()
        first = handle.entries[0]
        doctored = words.RelTensor(
            handle.variance, (first + _phi(1, min(first.terms)),) + handle.entries[1:]
        )
        monkeypatch.setattr(checks, "build_handle", lambda: doctored)
        rep = verify_gluing_derivations()
        swept = [f.split(":")[0] for f in rep.failures if f.startswith("word ")]
        assert swept[0] == "word g=2, k1=-2, k2=-2", swept
        assert not any(f.startswith(("word g=0", "word g=1")) for f in swept), swept

    @pytest.mark.parametrize(
        "name, wrap", [("_seed", _seed_off_by_one), ("_char_poly", _char_poly_off_by_one)]
    )
    def test_broken_engine_fails_the_numeric_suite(self, break_engine, name, wrap):
        break_engine(name, wrap)
        (rep,) = run_checks("numeric")
        assert not rep.passed

    def test_broken_shift_fails_the_numeric_suite(self, break_engine):
        # the folded suites never re-expand a passing case; the numeric one
        # compares the re-expanded Z, so it is the check of _unfold
        break_engine("_shift", _shift_with_t2_flipped)
        assert verify_calabi_yau().passed
        assert verify_special_cases().passed
        (rep,) = run_checks("numeric")
        assert not rep.passed


class TestSweepReads:
    @pytest.mark.parametrize("suite", [verify_calabi_yau, verify_special_cases])
    def test_direct_call_above_the_limit_is_rejected(self, suite, monkeypatch):
        from gwtqft import gluing

        monkeypatch.setattr(gluing, "MAX_REQUEST", 4)
        with pytest.raises(ValueError, match="above the limit 4$"):
            suite()

    @pytest.mark.parametrize("sweep, steps", [
        (verify_calabi_yau, 35),
        (verify_special_cases, 408),
        (verify_gluing_derivations, 73),
        (lambda: run_checks("all"), 604),
        (lambda: run_checks("all", g_max=20, k_max=10), 7853),
        # a single key takes as many steps as its walks are long
        (lambda: gluing._reader()(102, 0, 0), 100),
        (lambda: gluing._reader()(2, -100, 0), 99),
        (lambda: gluing._reader()(11, 2, -1), 3 + 9),
    ], ids=["cy", "appendixB", "gluing", "all", "all-wide", "g102", "k-100", "mixed"])
    def test_a_sweep_takes_each_recurrence_step_once(self, sweep, steps, monkeypatch):
        # each step is one _combine and leaves one memo key outside the seed
        # window -1..1, so a step taken twice would count twice
        memos, taken = [], []
        fill, combine = gluing._fill, gluing._combine

        def spied(memo, key):
            if not any(m is memo for m in memos):
                memos.append(memo)
            return fill(memo, key)

        def counted(pairs):
            taken.append(pairs)
            return combine(pairs)

        monkeypatch.setattr(gluing, "_fill", spied)
        monkeypatch.setattr(gluing, "_combine", counted)
        trace_formula.cache_clear()
        sweep()
        walked = sum(any(abs(c) > 1 for c in key) for memo in memos for key in memo)
        assert len(taken) == walked == steps


class TestOverlapConsistency:
    def test_annihilation_family_agrees_with_calabi_yau(self):
        # wherever the pure-annihilation family hits virtual dimension zero,
        # its closed form must collapse to the Calabi-Yau value 3^g phi^(2g-2)
        from gwtqft.partition import class_component, virtual_dim

        hits = 0
        for g in range(0, 4):
            for k1 in range(0, 5):
                for k2 in range(0, 5):
                    if 2 * g - 2 + k1 + k2 != 0:
                        continue
                    assert virtual_dim(g, -k1, -k2, 0) == 0
                    got = class_component(g, -k1, -k2, 0)
                    assert got == phi(3**g, 2 * g - 2), (g, k1, k2)
                    hits += 1
        assert hits >= 4


class TestReportMachinery:
    def test_counterexample_recorded(self):
        rep = CheckReport("demo", "unit")
        rep.check("p=1", 1, 2)
        assert not rep.passed
        assert "expected 1, got 2" in rep.failures[0]
        assert rep.summary() == (
            "demo: FAIL (1 cases, 0.00s; unit)\n  first counterexample: p=1: expected 1, got 2"
        )

    def test_json_shape(self):
        rep = CheckReport("demo", "unit")
        rep.check("p=1", 1, 1)
        doc = rep.to_json()
        assert doc["check_id"] == "demo"
        assert doc["passed"] is True
        assert doc["cases"] == 1


class TestRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_checks("everything")

    def test_zero_bounds_are_kept(self):
        # 0 is a bound of its own, not a request for the default
        (rep,) = run_checks("cy", g_max=0)
        assert rep.swept == "0<=g<=0, 0<=k<=6, 3 | 2g-2-k"
        assert rep.cases == 2  # k = 1 and k = 4
        (rep,) = run_checks("appendixB", g_max=0, k_max=0)
        assert rep.swept.startswith("0<=g<=0, |k|<=0;")

    @pytest.mark.parametrize("suite, bounds, largest", [
        # 3 must divide 2g - 2 - k: (102, 0) is not swept, (100, 0) and (99, 1) are
        ("cy", {"g_max": 102, "k_max": 0}, 100),
        ("cy", {"g_max": 103, "k_max": 0}, 103),
        ("cy", {"g_max": 104, "k_max": 0}, 103),
        ("cy", {"g_max": 101, "k_max": 1}, 100),
        ("cy", {"g_max": 102, "k_max": 1}, 103),
        ("cy", {"g_max": 0, "k_max": 0}, 0),  # no admissible pair
        ("appendixB", {"g_max": 94, "k_max": 4}, 102),
        ("appendixB", {"g_max": 95, "k_max": 4}, 103),
        ("appendixB", {"k_max": 48}, 101),  # g_max defaults to 5
        ("appendixB", {"g_max": 102, "k_max": 0}, 102),
        ("appendixB", {}, 13),
        ("all", {"g_max": 100, "k_max": 1}, 102),
        ("all", {"g_max": 101, "k_max": 1}, 103),
        ("semisimple", {"g_max": 500, "k_max": 500}, 0),
    ])
    def test_largest_request(self, suite, bounds, largest, monkeypatch):
        assert checks.largest_request(suite, **bounds) == largest
        if largest <= checks.MAX_REQUEST:
            return

        def boom(*args):
            raise AssertionError("a suite ran")

        for name in ("verify_calabi_yau", "verify_special_cases"):
            monkeypatch.setattr(checks, name, boom)
        with pytest.raises(ValueError, match=f"= {largest}, above the limit 102$"):
            run_checks(suite, **bounds)

    def test_calabi_yau_largest_request_is_the_nine_pair_search(self):
        # g -> g + 3 and k -> k + 3 keep 3 | 2g - 2 - k, so the largest
        # admissible pair has g > g_max - 3 and k > k_max - 3
        for g_max in range(121):
            for k_max in range(121):
                searched = max(
                    (g + k for g in range(max(g_max - 2, 0), g_max + 1)
                     for k in range(max(k_max - 2, 0), k_max + 1)
                     if (2 * g - 2 - k) % 3 == 0),
                    default=0,
                )
                assert checks.largest_request("cy", g_max, k_max) == searched, (g_max, k_max)

    def test_largest_request_is_the_largest_key_requested(self, monkeypatch):
        # every key the bounded suites read from their folded-trace reader, recorded
        keys = []

        def record(g, k1, k2):
            keys.append(g + abs(k1) + abs(k2))
            return PhiElem.zero()

        monkeypatch.setattr(checks, "_reader", lambda: record)
        for g_max in (None, 0, 1, 2, 3, 4):
            for k_max in (None, 0, 1, 2, 3):
                for suite, run in (
                    ("cy", lambda: checks.verify_calabi_yau(*checks._cy_bounds(g_max, k_max))),
                    ("appendixB", lambda: checks.verify_special_cases(
                        *checks._special_bounds(g_max, k_max))),
                ):
                    keys.clear()
                    run()
                    want = max(keys, default=0)
                    assert checks.largest_request(suite, g_max, k_max) == want, (suite, g_max, k_max)

    @pytest.mark.parametrize("trials", [0, -1, checks.MAX_TRIALS + 1, 10**9])
    def test_trials_out_of_bounds_rejected_before_any_suite(self, trials, monkeypatch):
        def boom(*args):
            raise AssertionError("a suite ran")

        for name in ("verify_calabi_yau", "verify_special_cases", "verify_gluing_derivations",
                     "verify_semisimplicity", "verify_numeric_crosscheck"):
            monkeypatch.setattr(checks, name, boom)
        with pytest.raises(ValueError, match=rf"^--trials {trials} is outside 1\.\.1000$"):
            run_checks("all", trials=trials)

    def test_trials_bound_is_inclusive(self, monkeypatch):
        def stub(seed, trials):
            return CheckReport("numeric_crosscheck", f"trials={trials}")

        monkeypatch.setattr(checks, "verify_numeric_crosscheck", stub)
        for trials in (1, checks.MAX_TRIALS):
            (rep,) = run_checks("numeric", trials=trials)
            assert rep.swept == f"trials={trials}"

    @pytest.mark.parametrize("bounds", [{"g_max": -3}, {"k_max": -1}])
    def test_negative_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be nonnegative"):
            run_checks("cy", **bounds)

    def test_every_report_is_timed(self):
        # run_checks times each suite; a suite called directly is not timed
        reports = run_checks("all")
        assert len(reports) == 5
        assert all(r.elapsed > 0 for r in reports), [(r.check_id, r.elapsed) for r in reports]
        assert verify_semisimplicity().elapsed == 0.0

    def test_single_suite(self):
        reports = run_checks("semisimple")
        assert [r.check_id for r in reports] == ["semisimplicity"]
        assert all(r.passed for r in reports)

