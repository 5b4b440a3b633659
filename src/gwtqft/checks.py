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
from functools import partial, reduce
from itertools import product
from math import prod

from . import SUITES
from .exactring import XYRat, _xy_times_forms
from .phicalc import PhiElem
from .operators import (
    INV_WEIGHTS,
    LABELS,
    ONE,
    WEIGHTS,
    _ZERO,
    Op3,
    _phi,
    build_operator,
    mat_add,
    mat_identity,
)
from .gluing import (
    MAX_REQUEST,
    _reader,
    _unfold,
    mat_adjugate,
    mat_det,
    mat_mul,
    mat_trace,
    trace_formula,
)
from .words import (
    TUBE_OPERATORS,
    build_cap,
    build_handle,
    build_pants,
    build_tube,
    contract,
    evaluate_word,
    matrix_to_tensor,
    parse_word,
    split_classes,
)

# The paper's closed forms and the generator identities are checked folded,
# in Z[x, y] (see operators); a failure is reported in t0, t1, t2.


def _coeff(e: PhiElem, m: int) -> XYRat:
    """The phi^m coefficient of a folded element."""
    return e.terms.get(m, _ZERO)


# -- matrix helpers of the checks ---------------------------------------------------


def mat_scale(m: Op3, c: PhiElem) -> Op3:
    return tuple(tuple(e * c for e in row) for row in m)


def mat_power(m: Op3, e: int) -> Op3:
    """Exact matrix power m^e, e >= 0, by binary powering."""
    if e < 0:
        raise ValueError("matrix powers need a nonnegative exponent")
    result = mat_identity()
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


class CheckReport:
    """Outcome of one verification sweep.  ``check`` is the only code that
    counts a case or records a failure; ``run_checks`` sets ``elapsed``, the
    suite's wall time, which stays 0.0 on a report built by a direct call."""

    __slots__ = ("check_id", "swept", "passed", "failures", "cases", "elapsed")

    def __init__(self, check_id: str, swept: str):
        self.check_id, self.swept = check_id, swept
        self.passed, self.failures, self.cases, self.elapsed = True, [], 0, 0.0

    def check(self, params: str, expected, got, show=str) -> None:
        """Count a case; a failure records both sides as show writes them."""
        self.cases += 1
        if expected != got:
            self.passed = False
            self.failures.append(f"{params}: expected {show(expected)}, got {show(got)}")

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


def _check_class(
    rep: CheckReport, read, params: str, g: int, k1: int, k2: int, n: int, expected: XYRat | int
) -> None:
    """Check class n of Z(g | k1, k2), its phi^(k1 + k2 + 3n) coefficient
    as read folded through read, against expected."""
    m = k1 + k2 + 3 * n
    rep.check(params, _phi(expected, m), _phi(_coeff(read(g, k1, k2), m), m), _unfold)


# -- Calabi-Yau classes ---------------------------------------------------------


def verify_calabi_yau(g_max: int = 6, k_max: int = 6) -> CheckReport:
    """Z restricted to a Calabi-Yau section class equals 3^g phi^(2g-2)."""
    rep = CheckReport("calabi_yau", f"0<=g<={g_max}, 0<=k<={k_max}, 3 | 2g-2-k")
    check = partial(_check_class, rep, _reader())
    for g in range(g_max + 1):
        for k in range(k_max + 1):
            if (2 * g - 2 - k) % 3 != 0:
                continue
            # class n has phi-power k + 3n = 2g - 2: Calabi-Yau degree 0
            n = (2 * g - 2 - k) // 3
            check(f"g={g}, k={k}, n={n}", g, 0, k, n, 3 ** g)
    return rep


# -- extreme-class closed forms ------------------------------------------------


def _dpow(i: int, j: int, e: int) -> XYRat:
    """(t_i - t_j)^e, folded: t0 - t1, t0 - t2 and t1 - t2 fold to x - y, x
    and y, and a negative e (at g = 0) puts the form in the denominator."""
    forms = [0, 0, 0]
    forms[i + j - 1] = abs(e)
    num = {(0, 0): -1 if i > j and e % 2 else 1}
    return XYRat(num, tuple(forms)) if e < 0 else XYRat(_xy_times_forms(num, forms))


def verify_special_cases(g_max: int = 5, k_max: int = 4) -> CheckReport:
    """The five closed-form families for extreme section classes.

    The creation-dominant families fix the most negative class; the
    level-(0,0) family fixes the largest class with 3n <= 2g-2, up to
    g = max(g_max, 8).  The annihilation family's phi-exponent is encoded
    as -(k1 + k2) (and -k on the mixed branches): the printed positive
    exponent contradicts both the annihilation matrices and the Calabi-Yau
    overlap, and the swept identity only holds with the negative sign.
    """
    top = max(g_max, 8)
    rep = CheckReport(
        "special_cases", f"0<=g<={g_max}, |k|<={k_max}; level-(0,0) family up to g={top}"
    )
    check = partial(_check_class, rep, _reader())

    # creation on the first factor, annihilation on the second
    for g in range(g_max + 1):
        for k1 in range(1, k_max + 1):
            for k2 in range(0, k_max + 1):
                expected = _dpow(1, 0, g + k1 - 1) * _dpow(1, 2, g + k1 + k2 - 1)
                check(f"first-creation g={g}, k1={k1}, k2={k2}", g, k1, -k2, -k1, expected)

    # creation on the second factor, annihilation on the first
    for g in range(g_max + 1):
        for k2 in range(1, k_max + 1):
            for k1 in range(0, k_max + 1):
                expected = _dpow(2, 0, g + k2 - 1) * _dpow(2, 1, g + k1 + k2 - 1)
                check(f"second-creation g={g}, k1={k1}, k2={k2}", g, -k1, k2, -k2, expected)

    # equal creation on both factors
    for g in range(g_max + 1):
        for k in range(1, k_max + 1):
            expected = (_dpow(1, 0, g + k - 1) * _dpow(1, 2, g - 1)
                        + _dpow(2, 0, g + k - 1) * _dpow(2, 1, g - 1))
            check(f"balanced-creation g={g}, k={k}", g, k, k, -k, expected)

    # pure annihilation, distinguished-section class
    for g in range(g_max + 1):
        for k1 in range(0, k_max + 1):
            for k2 in range(0, k_max + 1):
                if k1 > 0 and k2 > 0:
                    expected = _dpow(0, 1, g + k1 - 1) * _dpow(0, 2, g + k2 - 1)
                elif k1 > 0:
                    expected = (_dpow(0, 1, g + k1 - 1) * _dpow(0, 2, g - 1)
                                + _dpow(2, 0, g - 1) * _dpow(2, 1, g + k1 - 1))
                elif k2 > 0:
                    expected = (_dpow(0, 1, g - 1) * _dpow(0, 2, g + k2 - 1)
                                + _dpow(1, 0, g - 1) * _dpow(1, 2, g + k2 - 1))
                else:
                    expected = (_dpow(0, 1, g - 1) * _dpow(0, 2, g - 1)
                                + _dpow(1, 0, g - 1) * _dpow(1, 2, g - 1)
                                + _dpow(2, 0, g - 1) * _dpow(2, 1, g - 1))
                check(f"annihilation g={g}, k1={k1}, k2={k2}", g, -k1, -k2, 0, expected)

    # level (0,0), largest class with 3n <= 2g-2; sum(WEIGHTS) is the
    # folded Q = sum over i of (t_i - t_j)(t_i - t_k)
    for g in range(1, top + 1):
        n = (2 * g - 2) // 3
        # by g mod 3: 0, 3^g phi^(2g - 2) and 3^(g - 2) (g - 1) Q phi^(2g - 4)
        expected = (0, 3 ** g, sum(WEIGHTS) * (3 ** g // 9 * (g - 1)))[g % 3]
        check(f"top-class g={g}, n={n}", g, 0, 0, n, expected)

    return rep


# -- gluing re-derivations ----------------------------------------------------------


def _ones_matrix(scale: XYRat | int, m: int) -> Op3:
    e = _phi(scale, m)
    return tuple(tuple(e for _ in LABELS) for _ in LABELS)


def verify_gluing_derivations() -> CheckReport:
    """Re-derive the generator data and operator identities by gluing.

    Covers: caps glued to pants give the level tubes; opposite-level tubes
    compose to the identity tube; tubes capped off give the level caps; the
    displayed Frobenius relation; the two-pants assembly of the genus-adding
    matrix pieces, pair by pair and in one pass; the level operators glued
    to the identity cylinder give the tubes; the operator-algebra
    identities; and agreement of every closed-surface word with the trace
    formula for g <= 3, |k1|, |k2| <= 2, each surface cut into two arcs,
    head(g) T1^|k1| and T2^|k2|, that are built once and glued by one
    closing contraction (see _closed_surfaces).

    Tensors are compared folded and summed over the fiber classes; class n
    of a level-K tensor is its phi^(K + 3n) part (see words.split_classes).
    """
    rep = CheckReport("gluing_derivations", "generator identities; words g<=3, |k|<=2")
    pants = build_pants()

    def chain(text: str):
        return evaluate_word(parse_word(text))

    def lowered(name: str):
        """The operator glued to the level (0,0) tube, the identity cylinder:
        its (lowered, lowered) tensor."""
        return contract(build_tube((0, 0)), 1, matrix_to_tensor(build_operator(name)), 0)

    for level, name in TUBE_OPERATORS.items():
        # caps attached to pants produce the level tubes: the localization
        # data against the level operators that the tubes are read off
        rep.check(f"cap{level} * pants", build_tube(level), chain(f"cap{level} * pants"))
        # opposite-level tubes compose to the level (0,0) tube
        opp = (-level[0], -level[1])
        rep.check(f"tube{level} * tube{opp}", build_tube((0, 0)), chain(f"tube{level} * tube{opp}"))
        # capping a tube with the level (0,0) cap produces the level cap
        rep.check(f"tube{level} * cap(0,0)", build_cap(level), chain(f"tube{level} * cap(0,0)"))
        # the level operator glued to the identity cylinder is the tube: the
        # raised-lowered gluing of contract against the rows times the weights
        rep.check(f"raised tube {level} = {name}", build_tube(level), lowered(name))

    # the displayed Frobenius relation among the pants classes 0 and 1, its
    # phi^0 and phi^3 parts
    def p0(*labels):
        return _phi(_coeff(pants.entry(*labels), 0), 0)

    def p1(*labels):
        return _phi(_coeff(pants.entry(*labels), 3), 3)

    inv0, inv1 = _phi(INV_WEIGHTS[0], 0), _phi(INV_WEIGHTS[1], 0)
    lhs = p1(0, 1, 1) * p0(0, 0, 0) * inv0 + p0(1, 1, 1) * p1(0, 0, 1) * inv1
    rep.check("frobenius relation", PhiElem.zero(), lhs, _unfold)

    # two pants glued along two fibers assemble the genus-adding pieces
    handle = contract(contract(pants, 2, pants, 0), (1, 2), build_tube((0, 0)), (0, 1))
    classes = split_classes(handle, 0)
    rep.check("two-pants handle, section class", lowered("A"), classes.get(0))
    rep.check("two-pants handle, fiber class", lowered("B"), classes.get(1))
    # the handle of closed_surface_word glues both fibers in one contraction pass
    rep.check("two-pants handle, one pass", handle, build_handle())

    _operator_identities(rep)

    # closed-surface words, each glued from its two arcs, reproduce the
    # trace formula
    read = _reader()
    for (g, k1, k2), got in _closed_surfaces():
        rep.check(f"word g={g}, k1={k1}, k2={k2}", read(g, k1, k2), got, _unfold)

    return rep


def _closed_surfaces():
    """((g, k1, k2), Z) for g <= 3 and |k1|, |k2| <= 2 in ascending order,
    Z the folded scalar of closed_surface_word(g, k1, k2) glued from two
    arcs: head(g) T1^|k1|, the head being the level (0,0) cap at g = 0,
    nothing at g = 1 and g - 1 handles above, and T2^|k2|, capped at g = 0.
    Each arc extends the one before it on its line by one contraction, and
    an empty arc is the identity tube."""
    cap, ident = build_cap((0, 0)), build_tube((0, 0))

    def line(start, unit, capped=False):
        """start extended |k| <= 2 times by the tube of level sign(k) unit:
        on the right, or on the left of a capped arc."""
        arcs = {0: start}
        for sign in (1, -1):
            tube, arc = build_tube((sign * unit[0], sign * unit[1])), start
            for k in (sign, 2 * sign):
                arc = contract(tube, 1, arc, 0) if capped else contract(arc, arc.rank - 1, tube, 0)
                arcs[k] = arc
        return arcs

    handle = build_handle()
    heads = (cap, ident, handle, contract(handle, 1, handle, 0))
    ring_seconds = line(ident, (0, 1))
    for g, head in enumerate(heads):
        firsts = line(head, (1, 0))
        # a sphere glues its two capped arcs at their free slots; a ring
        # glues each end of the first arc to the other end of the second
        seconds = ring_seconds if g else line(cap, (0, 1), capped=True)
        ends = ((0, 1), (1, 0)) if g else (0, 0)
        for k1, k2 in product(range(-2, 3), repeat=2):
            yield (g, k1, k2), contract(firsts[k1], ends[0], seconds[k2], ends[1]).scalar()


def _show_matrix(m: Op3) -> str:
    """A matrix of folded elements, unfolded, row by row."""
    return "[" + "; ".join(", ".join(str(_unfold(e)) for e in row) for row in m) + "]"


def _show_denominator(dexp: tuple[int, int, int]) -> str:
    """(t0 - t1)^a (t0 - t2)^b (t1 - t2)^c for dexp = (a, b, c)."""
    return " ".join(f"({f})^{k}" for f, k in zip(("t0 - t1", "t0 - t2", "t1 - t2"), dexp))


def _operator_identities(rep: CheckReport) -> None:
    op = build_operator
    ident = mat_identity()
    a, b = op("A"), op("B")
    c1, c2, e1, e2 = op("C1"), op("C2"), op("E1"), op("E2")
    n1, n2, m1, m2 = op("N1"), op("N2"), op("M1"), op("M2")
    g, u1, u2 = op("G"), op("U1"), op("U2")
    u1inv, u2inv = op("U1inv"), op("U2inv")
    zero = mat_scale(ident, PhiElem.zero())

    def chk(name: str, lhs: Op3, rhs: Op3) -> None:
        rep.check(name, rhs, lhs, _show_matrix)

    chk("U1 U1inv = I", mat_mul(u1, u1inv), ident)
    chk("U2 U2inv = I", mat_mul(u2, u2inv), ident)
    # det U1 = det U2 = 1 is checked below, so the adjugate is the inverse
    chk("adjugate inverse of U1", mat_adjugate(u1), u1inv)
    chk("adjugate inverse of U2", mat_adjugate(u2), u2inv)
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
            mat_scale(ab2, _phi(3 ** (3 * e - 3), 6 * e - 6)),
        )
    abab2 = mat_mul(mat_mul(a, b), ab2)
    rep.check("tr(A B A B^2) = 0", PhiElem.zero(), mat_trace(abab2), _unfold)
    chk("(A B A B^2)^2 = 0", mat_mul(abab2, abab2), zero)
    chk(
        "A (A B^2) rows",
        mat_mul(a, ab2),
        tuple(tuple(_phi(WEIGHTS[i] * 9, 6) for _ in LABELS) for i in LABELS),
    )
    chk(
        "(A B)^2 (A B^2)",
        mat_mul(mat_power(mat_mul(a, b), 2), ab2),
        _ones_matrix(sum(WEIGHTS) * 162, 12),
    )
    chk(
        "A^2 B^2 (A B^2)",
        mat_mul(mat_mul(mat_power(a, 2), mat_power(b, 2)), ab2),
        tuple(tuple(_phi(WEIGHTS[i] * 243, 12) for _ in LABELS) for i in LABELS),
    )

    for egen, name in ((e1, "E1"), (e2, "E2")):
        chk(f"{name}^3 = 0", mat_power(egen, 3), zero)
        chk(f"B {name}^2 = 0", mat_mul(b, mat_power(egen, 2)), zero)
    ceb = mat_mul(c2, mat_mul(e2, b))
    expected_ceb = tuple(
        tuple(_phi(3, 2) if i == 2 else PhiElem.zero() for _ in LABELS) for i in LABELS
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

    c1e2_e1c2 = mat_add(mat_mul(c1, e2), mat_mul(e1, c2))
    for e in (1, 2, 3):
        powered = tuple(
            tuple(
                _phi(_dpow(1, 0, e), -e) if (i, j) == (1, 1)
                else _phi(_dpow(2, 0, e), -e) if (i, j) == (2, 2)
                else PhiElem.zero()
                for j in LABELS
            )
            for i in LABELS
        )
        name = "C1 E2 + E1 C2 diagonal" if e == 1 else f"(C1 E2 + E1 C2)^{e}"
        chk(name, mat_power(c1e2_e1c2, e), powered)

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
    rep.check("tr(B C E) = 3 phi^2", _phi(3, 2), mat_trace(bce), _unfold)
    rep.check("tr(B C E * E C E)", _phi(3, 2), mat_trace(mat_mul(bce, ece)), _unfold)
    rep.check("tr(B C E * N M N)", _phi(3, 2), mat_trace(mat_mul(bce, nmn)), _unfold)
    for e in (1, 2):
        rep.check(
            f"tr(B E C * (M N^2)^{e})",
            _phi(3, 2),
            mat_trace(mat_mul(bec, mat_power(m2n2, e))),
            _unfold,
        )

    # row-raised operators: every coefficient in row a has a denominator
    # dividing the weight T(x_a).  The trace formula also needs each
    # operator of weight w (2 for G, 0 for the level operators) to have
    # phi^m coefficients of t-degree w - m.  Both are read off the folded
    # coefficients: the fold keeps the denominator exponents, and a shift
    # in t2 keeps the degree of each term
    for name, w in (("G", 2), ("U1", 0), ("U2", 0), ("U1inv", 0), ("U2inv", 0)):
        for a, row in zip(LABELS, build_operator(name)):
            bound = INV_WEIGHTS[a].dexp
            for b, entry in zip(LABELS, row):
                for m, coeff in entry.items():
                    capped = tuple(map(min, coeff.dexp, bound))
                    rep.check(f"{name} row {a} denominator", capped, coeff.dexp, _show_denominator)
                    degrees = sorted({i + j - sum(coeff.dexp) for i, j in coeff.num})
                    rep.check(f"{name}[{a}][{b}] phi^{m} t-degrees", [w - m], degrees)
    for name in ("U1", "U2"):
        rep.check(f"det {name} = 1", ONE, mat_det(build_operator(name)), _unfold)


# -- semisimplicity ---------------------------------------------------------------


def verify_semisimplicity() -> CheckReport:
    """The u = 0 structure constants are delta-diagonal with values T(x_a),
    so the weight-rescaled fixed-point basis is idempotent."""
    rep = CheckReport("semisimplicity", "structure constants at u = 0")
    pants = build_pants()

    for a, b, k in product(LABELS, repeat=3):
        # the structure constant c[ab]^k, the pants entry with slot k raised:
        # its terms of phi-power <= 0, so a negative power fails the case
        entry = pants.entry(a, b, k) * _phi(INV_WEIGHTS[k], 0)
        low = PhiElem({m: c for m, c in entry.terms.items() if m <= 0})
        expected = WEIGHTS[a] if a == b == k else _ZERO
        rep.check(f"c[{a}{b}]^{k} at u=0", _phi(expected, 0), low, _unfold)

    # idempotency of e_{x_i} / T(x_i) in the u = 0 algebra: the lowered
    # pants entries multiplied by the folded inverse weights
    for i, j in product(LABELS, repeat=2):
        for k in LABELS:
            coeff = _coeff(pants.entry(i, j, k), 0) * INV_WEIGHTS[i] * INV_WEIGHTS[j]
            expected = XYRat.const(1) if i == j == k else _ZERO
            rep.check(f"idempotent ({i},{j}) -> {k}", _phi(expected, 0), _phi(coeff, 0), _unfold)
    return rep


# -- numeric cross-check -------------------------------------------------------------

#: the 61-bit Mersenne prime the numeric cross-check computes modulo
PRIME = 2**61 - 1


def _elem_mod(e: PhiElem, point) -> int:
    """e at point = (t0, t1, t2, phi), mod PRIME: each XYRat coefficient,
    folded, at x = t0 - t2, y = t1 - t2, and each TRat one at t0, t1, t2.
    Both have integer numerators; the denominator forms t0 - t1, t0 - t2,
    t1 - t2 fold to x - y, x, y, which take the same values."""
    t0, t1, t2, phi = point
    forms = (t0 - t1, t0 - t2, t1 - t2)
    total = 0
    for m, c in e.terms.items():
        folded = isinstance(c, XYRat)
        values = forms[1:] if folded else point[:3]
        num = 0
        for exps, v in (c.num if folded else c.num.terms).items():
            for x, k in zip(values, exps):
                v = v * pow(x, k, PRIME) % PRIME
            num += v
        den = prod(pow(f, k, PRIME) for f, k in zip(forms, c.dexp))
        total += num * pow(den, -1, PRIME) * pow(phi, m, PRIME)
    return total % PRIME


def _operator_mod(name: str, point):
    """The operator as a 3x3 matrix of residues at the point."""
    return tuple(tuple(_elem_mod(e, point) for e in row) for row in build_operator(name))


def numeric_trace(g: int, k1: int, k2: int, point) -> int:
    """tr(G^(g-1) U1^k1 U2^k2) at point = (t0, t1, t2, phi), mod PRIME.

    G, U1, U2 and the explicit inverses U1inv, U2inv (for negative levels)
    are evaluated entry by entry.  The chain of factors, adj(G) at g = 0 or
    G repeated g - 1 times, then each level operator |k| times, is
    multiplied with mat_mul in exact integers and reduced mod PRIME once;
    at g = 0, G^-1 is adj(G) times the inverse of det G.  No recurrence and
    no re-expansion is involved.  The point must not be a pole: t0, t1, t2
    pairwise distinct, phi nonzero and, at g = 0, det G nonzero; inverting
    a zero raises ValueError.
    """
    gm = _operator_mod("G", point)
    factors = [mat_adjugate(gm)] if g == 0 else [gm] * (g - 1)
    for name, k in (("U1", k1), ("U2", k2)):
        if k:
            factors += [_operator_mod(name if k > 0 else name + "inv", point)] * abs(k)
    # the empty chain, at g = 1 and level (0, 0), is the identity, of trace 3
    trace = mat_trace(reduce(mat_mul, factors)) if factors else 3
    return trace * (1 if g else pow(mat_det(gm), -1, PRIME)) % PRIME


def _random_residues(rng: random.Random, g: int) -> tuple[int, int, int, int]:
    """A uniform point (t0, t1, t2, phi) mod PRIME, redrawn while it is a
    pole of numeric_trace at genus g."""
    while True:
        point = tuple(rng.randrange(PRIME) for _ in range(4))
        if point[3] and len(set(point[:3])) == 3 and (
            g or mat_det(_operator_mod("G", point)) % PRIME
        ):
            return point


# The largest ``verify --trials`` that run_checks accepts: `verify --suite
# numeric` took 0.085 s with 20 trials and 0.46 s with 1,000 in a fresh
# process (CPython 3.11.7, 2 shared cores), so a million would take minutes.
MAX_TRIALS = 1000


def verify_numeric_crosscheck(seed: int = 42, trials: int = 20) -> CheckReport:
    """Each trial draws a key (0 <= g <= 4, |k1|, |k2| <= 3) and a random
    point (t0, t1, t2, phi) mod PRIME, and compares the re-expanded
    trace_formula(g, k1, k2) there with numeric_trace.  A wrong Z whose
    difference from the true one has degree D in t0, t1, t2, phi, once the
    phi powers and denominators are cleared, passes a trial with probability
    about D / PRIME at most (Schwartz 1980; Zippel 1979): below 2^-50 for
    D < 2^10, while the true Z of a drawn key has D <= 30.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rep = CheckReport("numeric_crosscheck", f"seed={seed}, trials={trials}")
    rng = random.Random(seed)
    for _ in range(trials):
        g = rng.randint(0, 4)
        k1 = rng.randint(-3, 3)
        k2 = rng.randint(-3, 3)
        point = _random_residues(rng, g)
        symbolic = _elem_mod(trace_formula(g, k1, k2), point)
        numeric = numeric_trace(g, k1, k2, point)
        rep.check(f"g={g}, k1={k1}, k2={k2} at {point}", symbolic, numeric)
    return rep


# -- suite driver ------------------------------------------------------------------


def _cy_bounds(g_max: int | None, k_max: int | None) -> tuple[int, int]:
    return (6 if g_max is None else g_max), (6 if k_max is None else k_max)


def _special_bounds(g_max: int | None, k_max: int | None) -> tuple[int, int]:
    return (5 if g_max is None else g_max), (4 if k_max is None else k_max)


def largest_request(suite: str, g_max: int | None = None, k_max: int | None = None) -> int:
    """The largest g + |k1| + |k2| that the selected suites request (the
    folded ones through gluing._reader) when run_checks runs them with these
    bounds, or 0 when they request none that grows with the bounds.  The
    gluing and numeric suites request fixed keys, all of size at most 10."""
    largest = 0
    if suite in ("all", "cy"):
        gm, km = _cy_bounds(g_max, k_max)
        # 3 | 2g - 2 - k exactly when g + k = 1 mod 3, so the largest swept
        # g + k is the largest such sum up to gm + km, or none below 1
        largest = max(gm + km - (gm + km + 2) % 3, 0)
    if suite in ("all", "appendixB"):
        gm, km = _special_bounds(g_max, k_max)
        # the annihilation family reaches (gm, -km, -km), the level-(0,0) one (max(gm, 8), 0, 0)
        largest = max(largest, gm + 2 * km, 8)
    return largest


def run_checks(
    suite: str = "all",
    g_max: int | None = None,
    k_max: int | None = None,
    seed: int = 42,
    trials: int = 20,
) -> list[CheckReport]:
    """Run one named suite (or all of them), one after another, and return
    the reports, each with the suite's wall time as its elapsed.  g_max and
    k_max default per suite when None; a negative one, bounds that make a
    suite request g + |k1| + |k2| above gluing.MAX_REQUEST, or trials
    outside 1..MAX_TRIALS is a ValueError raised before any suite runs."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"--trials {trials} is outside 1..{MAX_TRIALS}")
    for name, bound in (("g_max", g_max), ("k_max", k_max)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must be nonnegative, got {bound}")
    largest = largest_request(suite, g_max, k_max)
    if largest > MAX_REQUEST:
        given = " ".join(
            f"--{name} {bound}" for name, bound in (("gmax", g_max), ("kmax", k_max))
            if bound is not None
        )
        raise ValueError(
            f"{given} makes --suite {suite} request g + |k1| + |k2| = {largest},"
            f" above the limit {MAX_REQUEST}"
        )
    tasks = {
        "cy": lambda: verify_calabi_yau(*_cy_bounds(g_max, k_max)),
        "appendixB": lambda: verify_special_cases(*_special_bounds(g_max, k_max)),
        "gluing": verify_gluing_derivations,
        "semisimple": verify_semisimplicity,
        "numeric": lambda: verify_numeric_crosscheck(seed, trials),
    }
    reports = []
    for name, fn in tasks.items():
        if suite in ("all", name):
            t0 = time.monotonic()
            reports.append(fn())
            reports[-1].elapsed = time.monotonic() - t0
    return sorted(reports, key=lambda r: r.check_id)
