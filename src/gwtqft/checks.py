"""Machine verification of every closed-form identity the trace calculus
rests on: the Calabi-Yau formula, the five special-case closed forms, the
gluing re-derivations of the generator data, semisimplicity of the u = 0
Frobenius algebra, and a fully numeric cross-check of the symbolic engine.

Each verifier sweeps a parameter grid and returns a CheckReport; failures
carry the first counterexample with a symbolic diff, never just a flag.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product

from . import SUITES
from .exactring import TPoly, TRat
from .phicalc import PhiElem, laurent_divexact
from .operators import (
    INV_WEIGHTS,
    LABELS,
    _d,
    Op3,
    build_cap,
    build_operator,
    build_pants,
    build_tube,
    mat_add,
    mat_identity,
    matrix_to_tensor,
    weight,
)
from .gluing import (
    closed_surface_word,
    contract_refined,
    evaluate_word,
    mat_adjugate,
    mat_eq,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_power,
    mat_scale,
    mat_trace,
    mat_trace_mul,
    refined_scalar,
    self_glue_refined,
    trace_formula,
)
from .partition import SpaceParams, class_component

_Q = _d(0, 1) * _d(0, 2) + _d(1, 0) * _d(1, 2) + _d(2, 0) * _d(2, 1)


@dataclass
class CheckReport:
    """Outcome of one verification sweep."""

    check_id: str
    swept: str
    passed: bool = True
    failures: list[str] = field(default_factory=list)
    cases: int = 0
    elapsed: float = 0.0

    def record(self, params: str, expected, got) -> None:
        self.passed = False
        self.failures.append(f"{params}: expected {expected}, got {got}")

    def ok(self) -> None:
        self.cases += 1

    def check(self, params: str, expected, got) -> None:
        self.cases += 1
        if expected != got:
            self.record(params, expected, got)

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        line = f"{self.check_id}: {state} ({self.cases} cases, {self.elapsed:.2f}s; {self.swept})"
        if self.failures:
            line += "\n  first counterexample: " + self.failures[0]
        return line

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "swept": self.swept,
            "passed": self.passed,
            "cases": self.cases,
            "elapsed": round(self.elapsed, 3),
            "failures": self.failures[:5],
        }


def _timed(report: CheckReport, t0: float) -> CheckReport:
    report.elapsed = time.monotonic() - t0
    return report


# -- Calabi-Yau classes ---------------------------------------------------------


def verify_calabi_yau(g_max: int = 6, k_max: int = 6) -> CheckReport:
    """Z restricted to a Calabi-Yau section class equals 3^g phi^(2g-2)."""
    t0 = time.monotonic()
    rep = CheckReport("calabi_yau", f"0<=g<={g_max}, 0<=k<={k_max}, 3 | 2g-2-k")
    for g in range(g_max + 1):
        for k in range(k_max + 1):
            if (2 * g - 2 - k) % 3 != 0:
                continue
            n = (2 * g - 2 - k) // 3
            got = class_component(SpaceParams(g, 0, k), n)
            expected = PhiElem.term(3 ** g, 2 * g - 2)
            rep.check(f"g={g}, k={k}, n={n}", expected, got)
    return _timed(rep, t0)


# -- extreme-class closed forms ------------------------------------------------


def _pow(p: TPoly, e: int) -> TRat:
    return TRat.from_poly(p) ** e


def verify_special_cases(g_max: int = 5, k_max: int = 4, g_max_level0: int = 8) -> CheckReport:
    """The five closed-form families for extreme section classes.

    The creation-dominant families fix the most negative class; the
    level-(0,0) family fixes the largest class with 3n <= 2g-2.  The
    annihilation family's phi-exponent is encoded as -(k1 + k2) (and -k on
    the mixed branches): the printed positive exponent contradicts both the
    annihilation matrices and the Calabi-Yau overlap, and the swept identity
    only holds with the negative sign.
    """
    t0 = time.monotonic()
    rep = CheckReport(
        "special_cases",
        f"0<=g<={g_max}, |k|<={k_max}; level-(0,0) family up to g={g_max_level0}",
    )

    # creation on the first factor, annihilation on the second
    for g in range(g_max + 1):
        for k1 in range(1, k_max + 1):
            for k2 in range(0, k_max + 1):
                expected = PhiElem.term(
                    _pow(_d(1, 0), g + k1 - 1) * _pow(_d(1, 2), g + k1 + k2 - 1),
                    -2 * k1 - k2,
                )
                got = class_component(SpaceParams(g, k1, -k2), -k1)
                rep.check(f"first-creation g={g}, k1={k1}, k2={k2}", expected, got)

    # creation on the second factor, annihilation on the first
    for g in range(g_max + 1):
        for k2 in range(1, k_max + 1):
            for k1 in range(0, k_max + 1):
                expected = PhiElem.term(
                    _pow(_d(2, 0), g + k2 - 1) * _pow(_d(2, 1), g + k1 + k2 - 1),
                    -2 * k2 - k1,
                )
                got = class_component(SpaceParams(g, -k1, k2), -k2)
                rep.check(f"second-creation g={g}, k1={k1}, k2={k2}", expected, got)

    # equal creation on both factors
    for g in range(g_max + 1):
        for k in range(1, k_max + 1):
            expected = PhiElem.term(
                _pow(_d(1, 0), g + k - 1) * _pow(_d(1, 2), g - 1)
                + _pow(_d(2, 0), g + k - 1) * _pow(_d(2, 1), g - 1),
                -k,
            )
            got = class_component(SpaceParams(g, k, k), -k)
            rep.check(f"balanced-creation g={g}, k={k}", expected, got)

    # pure annihilation, distinguished-section class
    for g in range(g_max + 1):
        for k1 in range(0, k_max + 1):
            for k2 in range(0, k_max + 1):
                if k1 > 0 and k2 > 0:
                    val = _pow(_d(0, 1), g + k1 - 1) * _pow(_d(0, 2), g + k2 - 1)
                elif k1 > 0:
                    val = _pow(_d(0, 1), g + k1 - 1) * _pow(_d(0, 2), g - 1) + _pow(
                        _d(2, 0), g - 1
                    ) * _pow(_d(2, 1), g + k1 - 1)
                elif k2 > 0:
                    val = _pow(_d(0, 1), g - 1) * _pow(_d(0, 2), g + k2 - 1) + _pow(
                        _d(1, 0), g - 1
                    ) * _pow(_d(1, 2), g + k2 - 1)
                else:
                    val = (
                        _pow(_d(0, 1), g - 1) * _pow(_d(0, 2), g - 1)
                        + _pow(_d(1, 0), g - 1) * _pow(_d(1, 2), g - 1)
                        + _pow(_d(2, 0), g - 1) * _pow(_d(2, 1), g - 1)
                    )
                expected = PhiElem.term(val, -(k1 + k2))
                got = class_component(SpaceParams(g, -k1, -k2), 0)
                rep.check(f"annihilation g={g}, k1={k1}, k2={k2}", expected, got)

    # level (0,0), largest class with 3n <= 2g-2
    for g in range(1, g_max_level0 + 1):
        n = (2 * g - 2) // 3
        if g % 3 == 0:
            expected = PhiElem.zero()
        elif g % 3 == 1:
            expected = PhiElem.term(3 ** g, 2 * g - 2)
        else:
            expected = PhiElem.term(TRat.from_poly(_Q.scale(3 ** (g - 2) * (g - 1))), 2 * g - 4)
        got = class_component(SpaceParams(g, 0, 0), n)
        rep.check(f"top-class g={g}, n={n}", expected, got)

    return _timed(rep, t0)


# -- gluing re-derivations ----------------------------------------------------------


def _ones_matrix(scale, m: int) -> Op3:
    e = PhiElem.term(scale, m)
    return tuple(tuple(e for _ in LABELS) for _ in LABELS)


def verify_gluing_derivations(word_g_max: int = 3, word_k_max: int = 2) -> CheckReport:
    """Re-derive the generator data and operator identities by gluing.

    Covers: caps glued to pants give the level tubes; opposite-level tubes
    compose to the identity tube; tubes capped off give the level caps; the
    displayed Frobenius relation; the two-pants assembly of the genus-adding
    matrix pieces, pair by pair and in one pass; the operator-algebra
    identities; and agreement of every closed-surface word with the trace
    formula on the swept grid.
    """
    t0 = time.monotonic()
    rep = CheckReport(
        "gluing_derivations", f"generator identities; words g<={word_g_max}, |k|<={word_k_max}"
    )
    pants = build_pants()

    # caps attached to pants produce the level tubes
    for level in ((0, -1), (-1, 0), (0, 1), (1, 0)):
        got = contract_refined(build_cap(level), 0, pants, 0)
        rep.check(f"cap{level} * pants", build_tube(level), got)

    # opposite-level tubes compose to the level (0,0) tube
    for lv, opp in (((0, -1), (0, 1)), ((0, 1), (0, -1)), ((-1, 0), (1, 0)), ((1, 0), (-1, 0))):
        got = contract_refined(build_tube(lv), 1, build_tube(opp), 0)
        rep.check(f"tube{lv} * tube{opp}", build_tube((0, 0)), got)

    # capping a tube with the level (0,0) cap produces the level cap
    for level in ((0, -1), (-1, 0), (0, 1), (1, 0)):
        got = contract_refined(build_tube(level), 1, build_cap((0, 0)), 0)
        rep.check(f"tube{level} * cap(0,0)", build_cap(level), got)

    # the displayed Frobenius relation among pants entries
    p0 = pants.piece(0)
    p1 = pants.piece(1)
    lhs = p1.entry(0, 1, 1) * p0.entry(0, 0, 0) * TRat.make(1, weight(0)) + p0.entry(
        1, 1, 1
    ) * p1.entry(0, 0, 1) * TRat.make(1, weight(1))
    rep.check("frobenius relation", PhiElem.zero(), lhs)

    # two pants glued along two fibers assemble the genus-adding pieces
    four = contract_refined(pants, 2, pants, 0)
    handle = self_glue_refined(four, 1, 2)
    lowered_a = matrix_to_tensor(build_operator("A")).lower_slot(0)
    lowered_b = matrix_to_tensor(build_operator("B")).lower_slot(0)
    rep.check("two-pants handle, section class", lowered_a, handle.piece(0))
    rep.check("two-pants handle, fiber class", lowered_b, handle.piece(1))
    # the same handle glued along both fibers in one contraction pass
    rep.check("two-pants handle, one pass", handle, contract_refined(pants, (2, 1), pants, (0, 1)))

    # the hand-encoded matrices, lowered, agree with the tubes
    for name, level in (("U1", (1, 0)), ("U2", (0, 1)), ("U1inv", (-1, 0)), ("U2inv", (0, -1))):
        lowered = matrix_to_tensor(build_operator(name)).lower_slot(0)
        rep.check(f"raised tube {level} = {name}", build_tube(level).total(), lowered)

    _operator_identities(rep)

    # closed-surface words reproduce the trace formula
    for g in range(word_g_max + 1):
        for k1 in range(-word_k_max, word_k_max + 1):
            for k2 in range(-word_k_max, word_k_max + 1):
                word = closed_surface_word(g, k1, k2)
                got = refined_scalar(evaluate_word(word))
                rep.check(f"word g={g}, k1={k1}, k2={k2}", trace_formula(g, k1, k2), got)

    return _timed(rep, t0)


def _operator_identities(rep: CheckReport) -> None:
    op = build_operator
    ident = mat_identity()
    a, b = op("A"), op("B")
    c1, c2, e1, e2 = op("C1"), op("C2"), op("E1"), op("E2")
    n1, n2, m1, m2 = op("N1"), op("N2"), op("M1"), op("M2")
    g, u1, u2 = op("G"), op("U1"), op("U2")
    u1inv, u2inv = op("U1inv"), op("U2inv")
    zero = mat_scale(ident, 0)

    def chk(name: str, lhs: Op3, rhs: Op3) -> None:
        rep.cases += 1
        if not mat_eq(lhs, rhs):
            rep.record(name, "equal matrices", "entrywise difference")

    chk("U1 U1inv = I", mat_mul(u1, u1inv), ident)
    chk("U2 U2inv = I", mat_mul(u2, u2inv), ident)
    chk("adjugate inverse of U1", mat_inverse(u1), u1inv)
    chk("adjugate inverse of U2", mat_inverse(u2), u2inv)
    chk("G U1 = U1 G", mat_mul(g, u1), mat_mul(u1, g))
    chk("G U2 = U2 G", mat_mul(g, u2), mat_mul(u2, g))
    chk("U1 U2 = U2 U1", mat_mul(u1, u2), mat_mul(u2, u1))

    chk("B^3 = 0", mat_power(b, 3), zero)
    ab2 = mat_mul(a, mat_mul(b, b))
    chk("A B^2 = ones 9 phi^6", ab2, _ones_matrix(9, 6))
    for e in (1, 2, 3):
        chk(
            f"(A B^2)^{e}",
            mat_power(ab2, e),
            mat_scale(ab2, PhiElem.term(Fraction(3 ** (3 * e - 3)), 6 * e - 6)),
        )
    abab2 = mat_mul(mat_mul(a, b), ab2)
    rep.check("tr(A B A B^2) = 0", PhiElem.zero(), mat_trace(abab2))
    chk("(A B A B^2)^2 = 0", mat_mul(abab2, abab2), zero)
    chk(
        "A (A B^2) rows",
        mat_mul(a, ab2),
        tuple(tuple(PhiElem.term(weight(i).scale(9), 6) for _ in LABELS) for i in LABELS),
    )
    chk(
        "(A B)^2 (A B^2)",
        mat_mul(mat_power(mat_mul(a, b), 2), ab2),
        _ones_matrix(_Q.scale(162), 12),
    )
    chk(
        "A^2 B^2 (A B^2)",
        mat_mul(mat_mul(mat_power(a, 2), mat_power(b, 2)), ab2),
        tuple(tuple(PhiElem.term(weight(i).scale(243), 12) for _ in LABELS) for i in LABELS),
    )

    for egen, name in ((e1, "E1"), (e2, "E2")):
        chk(f"{name}^3 = 0", mat_power(egen, 3), zero)
        chk(f"B {name}^2 = 0", mat_mul(b, mat_power(egen, 2)), zero)
    ceb = mat_mul(c2, mat_mul(e2, b))
    expected_ceb = tuple(
        tuple(PhiElem.term(3, 2) if i == 2 else PhiElem.zero() for _ in LABELS) for i in LABELS
    )
    chk("C E B bottom row", ceb, expected_ceb)
    ece = mat_mul(e2, mat_mul(c2, e2))
    for e in (2, 3):
        chk(f"(E C E)^{e} = E C E", mat_power(ece, e), ece)
    ae2 = mat_mul(a, mat_power(e2, 2))
    chk("A E^2 = ones phi^2", ae2, _ones_matrix(1, 2))
    ce2 = mat_mul(c2, mat_power(e2, 2))
    for e in (1, 2):
        chk(f"A E^2 (C E^2)^{e}", mat_mul(ae2, mat_power(ce2, e)), ae2)

    mixed = tuple(
        tuple(
            PhiElem.term(_d(1, 0), -1) if (i, j) == (1, 1)
            else PhiElem.term(_d(2, 0), -1) if (i, j) == (2, 2)
            else PhiElem.zero()
            for j in LABELS
        )
        for i in LABELS
    )
    c1e2_e1c2 = mat_add(mat_mul(c1, e2), mat_mul(e1, c2))
    chk("C1 E2 + E1 C2 diagonal", c1e2_e1c2, mixed)
    for e in (2, 3):
        powered = tuple(
            tuple(
                PhiElem.term(TRat.from_poly(_d(1, 0)) ** e, -e) if (i, j) == (1, 1)
                else PhiElem.term(TRat.from_poly(_d(2, 0)) ** e, -e) if (i, j) == (2, 2)
                else PhiElem.zero()
                for j in LABELS
            )
            for i in LABELS
        )
        chk(f"(C1 E2 + E1 C2)^{e}", mat_power(c1e2_e1c2, e), powered)

    for mgen, ngen, tag in ((m2, n2, "2"), ((m1), (n1), "1")):
        chk(f"M{tag}^3 = 0", mat_power(mgen, 3), zero)
        sym = mat_add(
            mat_add(mat_mul(mat_power(mgen, 2), ngen), mat_mul(mgen, mat_mul(ngen, mgen))),
            mat_mul(ngen, mat_power(mgen, 2)),
        )
        chk(f"(M{tag}^2, N{tag}) = 0", sym, zero)
        chk(f"B M{tag} = 0", mat_mul(b, mgen), zero)
        chk(f"M{tag} B = 0", mat_mul(mgen, b), zero)
    n2m2 = mat_mul(mat_power(n2, 2), m2)
    m2n2 = mat_mul(m2, mat_power(n2, 2))
    nmn = mat_mul(n2, mat_mul(m2, n2))
    for e in (2, 3):
        chk(f"(N^2 M)^{e} = N^2 M", mat_power(n2m2, e), n2m2)
        chk(f"(M N^2)^{e} = M N^2", mat_power(m2n2, e), m2n2)
        chk(f"(N M N)^{e} = N M N", mat_power(nmn, e), nmn)
    for e in (1, 2):
        chk(f"A E^2 (N^2 M)^{e}", mat_mul(ae2, mat_power(n2m2, e)), ae2)
    bce = mat_mul(b, mat_mul(c2, e2))
    bec = mat_mul(b, mat_mul(e2, c2))
    rep.check("tr(B C E) = 3 phi^2", PhiElem.term(3, 2), mat_trace(bce))
    rep.check("tr(B C E * E C E)", PhiElem.term(3, 2), mat_trace(mat_mul(bce, ece)))
    rep.check("tr(B C E * N M N)", PhiElem.term(3, 2), mat_trace(mat_mul(bce, nmn)))
    for e in (1, 2):
        rep.check(
            f"tr(B E C * (M N^2)^{e})",
            PhiElem.term(3, 2),
            mat_trace(mat_mul(bec, mat_power(m2n2, e))),
        )

    # row-raised operators: every coefficient in row a has a denominator
    # dividing the weight T(x_a).  The folded trace formula also needs each
    # operator of weight w (2 for G, 0 for the level operators) to have
    # numerators that are translation invariant, and phi^m coefficients of
    # t-degree w - m
    for name, w in (("G", 2), ("U1", 0), ("U2", 0), ("U1inv", 0), ("U2inv", 0)):
        for a, row in zip(LABELS, build_operator(name)):
            bound = INV_WEIGHTS[a].dexp
            for b, entry in zip(LABELS, row):
                for m, coeff in entry.items():
                    rep.cases += 1
                    if any(k > top for k, top in zip(coeff.dexp, bound)):
                        rep.record(
                            f"{name} row {a} denominator", f"a divisor of {weight(a)}", str(coeff.den)
                        )
                    cell = f"{name}[{a}][{b}] phi^{m}"
                    rep.check(f"{cell} (d0 + d1 + d2) num", TPoly.zero(), _shift_derivative(coeff.num))
                    rep.check(f"{cell} t-degrees", [w - m], sorted(coeff.homogeneous_parts()))
    for name in ("U1", "U2"):
        rep.check(f"det {name} = 1", PhiElem.one(), mat_det(build_operator(name)))


def _shift_derivative(p: TPoly) -> TPoly:
    """(d/dt0 + d/dt1 + d/dt2) p, which is zero exactly when p(t + c) = p(t)."""
    acc: dict = {}
    for e, c in p.terms.items():
        for i in LABELS:
            if e[i]:
                d = e[:i] + (e[i] - 1,) + e[i + 1:]
                acc[d] = acc.get(d, 0) + e[i] * c
    return TPoly(acc)


# -- semisimplicity ---------------------------------------------------------------


def verify_semisimplicity() -> CheckReport:
    """The u = 0 structure constants are delta-diagonal with values T(x_a),
    so the weight-rescaled fixed-point basis is idempotent."""
    t0 = time.monotonic()
    rep = CheckReport("semisimplicity", "structure constants at u = 0")
    struct = build_pants().total().raise_slot(2)

    for a, b, k in product(LABELS, repeat=3):
        entry = struct.entry(a, b, k)
        if not entry.is_zero and entry.min_exp() < 0:
            rep.record(f"c[{a}{b}]^{k}", "no negative phi powers", str(entry))
            continue
        u0 = entry.coeff(0)
        expected = TRat.from_poly(weight(a)) if a == b == k else TRat.const(0)
        rep.check(f"c[{a}{b}]^{k} at u=0", expected, u0)

    # idempotency of e_{x_i} / T(x_i) in the u = 0 algebra
    for i, j in product(LABELS, repeat=2):
        for k in LABELS:
            coeff = (
                struct.entry(i, j, k).coeff(0)
                * TRat.from_poly(weight(k))
                / (TRat.from_poly(weight(i)) * TRat.from_poly(weight(j)))
            )
            expected = TRat.const(1) if i == j == k else TRat.const(0)
            rep.check(f"idempotent ({i},{j}) -> {k}", expected, coeff)
    return _timed(rep, t0)


# -- numeric cross-check -------------------------------------------------------------


def _numeric_operator(name: str, point) -> Op3:
    """The operator with every coefficient evaluated at a t-point: constant
    coefficients, phi formal."""
    return tuple(tuple(PhiElem(e.evaluate_t(point)) for e in row) for row in build_operator(name))


def _chain_trace(factors: list[Op3]) -> PhiElem:
    """Trace of the product of the factors, one multiplication per factor
    (never mat_power's binary powering)."""
    if not factors:
        return PhiElem.const(3)
    *head, last = factors
    return mat_trace_mul(reduce(mat_mul, head), last) if head else mat_trace(last)


def numeric_trace(g: int, k1: int, k2: int, point) -> dict[int, Fraction]:
    """Trace computed at a t-point, phi formal: the operators are evaluated
    before any product, powers are taken by repeated multiplication from the
    explicit inverses for negative levels, and g = 0 divides the adjugate
    trace by det G."""
    levels: list[Op3] = []
    for name, k in (("U1", k1), ("U2", k2)):
        if k:
            levels += [_numeric_operator(name if k > 0 else name + "inv", point)] * abs(k)
    gm = _numeric_operator("G", point)
    if g >= 1:
        return _chain_trace(levels + [gm] * (g - 1)).evaluate_t(point)
    numerator = _chain_trace(levels + [mat_adjugate(gm)])
    return laurent_divexact(numerator, mat_det(gm)).evaluate_t(point)


def _random_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        pt = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)
        )
        if len(set(pt)) == 3:
            return pt


def verify_numeric_crosscheck(seed: int = 42, trials: int = 20) -> CheckReport:
    """Fully numeric recomputation of the trace at random rational points
    agrees with the evaluated symbolic result."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    t0 = time.monotonic()
    rep = CheckReport("numeric_crosscheck", f"seed={seed}, trials={trials}")
    rng = random.Random(seed)
    for _ in range(trials):
        g = rng.randint(0, 4)
        k1 = rng.randint(-3, 3)
        k2 = rng.randint(-3, 3)
        point = _random_point(rng)
        symbolic = trace_formula(g, k1, k2).evaluate_t(point)
        numeric = numeric_trace(g, k1, k2, point)
        rep.check(f"g={g}, k1={k1}, k2={k2} at {tuple(map(str, point))}", symbolic, numeric)
    return _timed(rep, t0)


# -- suite driver ------------------------------------------------------------------


def run_checks(
    suite: str = "all",
    g_max: int | None = None,
    k_max: int | None = None,
    seed: int = 42,
    trials: int = 20,
) -> list[CheckReport]:
    """Run one named suite (or all of them), one after another, and return
    the reports."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    tasks = []
    if suite in ("all", "cy"):
        tasks.append(lambda: verify_calabi_yau(g_max or 6, k_max or 6))
    if suite in ("all", "appendixB"):
        tasks.append(lambda: verify_special_cases(g_max or 5, k_max or 4, max(g_max or 0, 8)))
    if suite in ("all", "gluing"):
        tasks.append(lambda: verify_gluing_derivations())
    if suite in ("all", "semisimple"):
        tasks.append(lambda: verify_semisimplicity())
    if suite in ("all", "numeric"):
        tasks.append(lambda: verify_numeric_crosscheck(seed, trials))
    return sorted((fn() for fn in tasks), key=lambda r: r.check_id)
