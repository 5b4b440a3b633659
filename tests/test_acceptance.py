"""Acceptance criteria, one test per criterion.

Every comparison is exact symbolic equality in canonical form; there are no
numeric tolerances anywhere.  Criteria 1 and 2 also carry wall-clock budgets.
Each test prints a single PASS/FAIL line (run with -s to see them).
"""

import random
import time
from fractions import Fraction
from itertools import product

from gwtqft.exactring import TPoly, TRat
from gwtqft.phicalc import PhiElem
from gwtqft.operators import (
    _phi,
    build_operator,
    mat_identity,
    mat_mul,
    mat_power,
    mat_scale,
    mat_trace,
)
from gwtqft.gluing import trace_formula
from gwtqft.partition import class_component, genus_expansion, virtual_dim
from gwtqft.checks import (
    _random_residues,
    numeric_trace,
    verify_calabi_yau,
    verify_gluing_derivations,
    verify_semisimplicity,
    verify_special_cases,
)
from reference import permute_vars, phi, phi_power, t_degrees, value_mod

t0, t1, t2 = TPoly.var(0), TPoly.var(1), TPoly.var(2)


def report(num: int, label: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {state}: {label}{' (' + extra + ')' if extra else ''}")


def test_criterion_1_calabi_yau():
    start = time.monotonic()
    rep = verify_calabi_yau(g_max=6, k_max=6)
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed < 30.0
    report(1, "Calabi-Yau classes equal 3^g phi^(2g-2), g<=6, k<=6",
           ok, f"{rep.cases} cases, {elapsed:.1f}s")
    assert rep.passed, rep.failures[:1]
    assert elapsed < 30.0


def test_criterion_2_special_case_sweeps():
    start = time.monotonic()
    rep = verify_special_cases(g_max=5, k_max=4)
    elapsed = time.monotonic() - start
    # the level-(0,0) family must cover all three residues of g mod 3
    q = (t0 - t1) * (t0 - t2) + (t1 - t0) * (t1 - t2) + (t2 - t0) * (t2 - t1)
    spot = (
        not class_component(3, 0, 0, 1)
        and not class_component(6, 0, 0, 3)
        and class_component(2, 0, 0, 0) == phi(q)
        and class_component(5, 0, 0, 2) == phi(q.scale(27 * 4), 6)
        and class_component(8, 0, 0, 4) == phi(q.scale(3**6 * 7), 12)
    )
    ok = rep.passed and spot and elapsed < 60.0
    report(2, "special-case closed forms, g<=5, |k|<=4, level-(0,0) g<=8",
           ok, f"{rep.cases} cases, {elapsed:.1f}s")
    assert rep.passed, rep.failures[:1]
    assert spot
    assert elapsed < 60.0


def test_criterion_3_operator_algebra():
    ident = mat_identity()
    u1, u2 = build_operator("U1"), build_operator("U2")
    g = build_operator("G")
    a, b = build_operator("A"), build_operator("B")
    zero = mat_scale(ident, PhiElem.zero())

    checks = {
        "U1 U1inv = I": mat_mul(u1, build_operator("U1inv")) == ident,
        "U2 U2inv = I": mat_mul(u2, build_operator("U2inv")) == ident,
        "G U1 commute": mat_mul(g, u1) == mat_mul(u1, g),
        "G U2 commute": mat_mul(g, u2) == mat_mul(u2, g),
        "U1 U2 commute": mat_mul(u1, u2) == mat_mul(u2, u1),
        "B^3 = 0": mat_power(b, 3) == zero,
    }
    ab2 = mat_mul(a, mat_mul(b, b))
    checks["tr(ABAB^2) = 0"] = not mat_trace(mat_mul(mat_mul(a, b), ab2))
    checks["(AB^2)^2 = 27 phi^6 AB^2"] = mat_power(ab2, 2) == mat_scale(ab2, _phi(27, 6))
    ok = all(checks.values())
    report(3, "operator algebra identities", ok,
           "; ".join(k for k, v in checks.items() if not v) or f"{len(checks)} identities")
    assert ok, [k for k, v in checks.items() if not v]


def test_criterion_4_gluing_rederivation():
    rep = verify_gluing_derivations()
    report(4, "gluing identities and closed words vs trace formula, g<=3, |k|<=2",
           rep.passed, f"{rep.cases} cases")
    assert rep.passed, rep.failures[:1]


def test_criterion_5_semisimplicity():
    rep = verify_semisimplicity()
    report(5, "u=0 structure constants delta-diagonal; rescaled basis idempotent",
           rep.passed, f"{rep.cases} cases")
    assert rep.passed, rep.failures[:1]


def test_criterion_6_genus_zero_path():
    ok = True
    for k1, k2 in product(range(-3, 4), repeat=2):
        trace_formula(0, k1, k2)  # reduction must succeed for every pair
    z10 = trace_formula(0, 1, 0)
    z00 = trace_formula(0, 0, 0)
    ok = z10 == phi(1, -2) and not z00
    report(6, "genus-0 traces reduce for |k|<=3; Z(0|1,0) = phi^-2, Z(0|0,0) = 0", ok)
    assert ok


def test_criterion_7_genus_tables():
    rows = genus_expansion(0, 1, 0, -1, 4)
    # independent oracle: the schoolbook inverse square of the Taylor series,
    # read at u^(2h - 2)
    oracle = phi_power(-2, 9)
    want = [TRat.make(oracle[2 * h]) for h in range(5)]
    ok = [inv for _, inv in rows] == want
    assert want[:3] == [TRat.make(1), TRat.make(Fraction(1, 12)), TRat.make(Fraction(1, 240))]
    # D = 0 classes give plain rational numbers
    for (g, k, n) in [(1, 0, 0), (2, 2, 0), (4, 0, 2), (0, 4, -2)]:
        assert virtual_dim(g, 0, k, n) == 0
        for _, inv in genus_expansion(g, 0, k, n, 3):
            ok = ok and inv.num.is_const and inv.den.is_const
    report(7, "genus tables match independent series inversion; D=0 rows rational", ok)
    assert ok


def test_criterion_8_grading_suite():
    rng = random.Random(2024)
    tuples = set()
    while len(tuples) < 50:
        tuples.add((rng.randint(0, 4), rng.randint(-3, 3), rng.randint(-3, 3)))
    failures = []
    for (g, k1, k2) in sorted(tuples):
        p = (g, k1, k2)
        z = trace_formula(g, k1, k2)
        base = 2 * g - 2 - k1 - k2
        if any((base - d) % 3 for _, c in z.items() for d in t_degrees(c.num)):
            failures.append(f"purity {p}")
        # the classes of Z, one per phi power k1 + k2 + 3n
        sup = []
        for m in z.terms:
            n, r = divmod(m - k1 - k2, 3)
            if r:
                failures.append(f"phi^{m} off the grading {p}")
            sup.append(n)
        if any(-virtual_dim(g, k1, k2, n) < 0 for n in sup):
            failures.append(f"negative degree {p}")
        total = PhiElem.zero()
        for n in sup:
            total = total + class_component(g, k1, k2, n)
        if total != z:
            failures.append(f"reconstruction {p}")
        if permute_vars(trace_formula(g, k2, k1), (0, 2, 1)) != z:
            failures.append(f"swap symmetry {p}")
        for _ in range(20):
            point = _random_residues(rng, g)
            if numeric_trace(g, k1, k2, point) != value_mod(z, point):
                failures.append(f"numeric {p} at {point}")
                break
    ok = not failures
    report(8, "grading, reconstruction, swap symmetry, numeric agreement "
              "(50 tuples x 20 points)", ok, failures[0] if failures else "")
    assert ok, failures[:3]

