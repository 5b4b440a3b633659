"""The paper's generator data in t0, t1, t2: the reference that the folded
generators are checked against, through ``gluing._unfold``.

The library builds every weight, operator and tensor in Z[x, y] with
x = t0 - t2 and y = t1 - t2 (see ``gwtqft.operators``).  Here the same
closed forms are written in the three-variable TPoly / TRat ring.

It also holds a naive oracle for the u-expansion of phi = 2 sin(u/2): the
Taylor series, and schoolbook products and inverses of Fraction lists; a
plain evaluator of polynomials and partition functions mod the prime of
the numeric cross-check; and a reader of the printed polynomials and JSON
terms, which the library only writes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from gwtqft.checks import PRIME
from gwtqft.exactring import TPoly, TRat
from gwtqft.gluing import _unfold
from gwtqft.phicalc import PhiElem
from gwtqft.words import RelTensor

LABELS = (0, 1, 2)

t = (TPoly.var(0), TPoly.var(1), TPoly.var(2))
ZERO = TPoly.zero()


def d(i: int, j: int) -> TPoly:
    return t[i] - t[j]


def weight(a: int) -> TPoly:
    """T(x_a) = (t_a - t_i)(t_a - t_j)."""
    i, j = [b for b in LABELS if b != a]
    return d(a, i) * d(a, j)


def phi(c, m: int = 0) -> PhiElem:
    """c * phi^m with a TRat coefficient: c is a TRat, or a TPoly, int or
    Fraction read as a fraction over 1."""
    return PhiElem.term(c if isinstance(c, TRat) else TRat.make(c), m)


def parse_poly(s: str) -> TPoly:
    """The polynomial whose canonical text, str(TPoly), is s."""
    words = s.split(" ")
    assert all(op in ("+", "-") for op in words[1::2]), s
    terms: dict = {}
    for op, tok in zip(["+", *words[1::2]], words[::2]):
        c = Fraction(-1 if op == "-" else 1)
        if tok.startswith("-"):
            c, tok = -c, tok[1:]
        e = [0, 0, 0]
        for piece in tok.split("*"):
            if piece.startswith("t"):
                name, _, k = piece.partition("^")
                e[("t0", "t1", "t2").index(name)] += int(k or 1)
            else:
                c *= Fraction(piece)
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return TPoly(terms)


def phi_from_json(terms: list[dict]) -> PhiElem:
    """The partition function whose ``to_json_terms`` are the given terms."""
    return PhiElem({
        t["phi_exp"]: TRat.make(parse_poly(t["num"]), parse_poly(t["den"])) for t in terms
    })


def t_degrees(p: TPoly) -> set[int]:
    """The total t-degrees of the terms of p."""
    return {sum(e) for e in p.terms}


def unfold_tensor(tensor: RelTensor) -> RelTensor:
    """A folded tensor with every entry re-expanded in t."""
    return RelTensor(tensor.variance, [_unfold(e) for e in tensor.entries])


def unfold_matrix(m):
    return tuple(tuple(_unfold(e) for e in row) for row in m)


def _permute_poly(p: TPoly, perm) -> TPoly:
    terms = {}
    for e, c in p.terms.items():
        moved = [0, 0, 0]
        for i, k in zip(perm, e):
            moved[i] = k
        terms[tuple(moved)] = c
    return TPoly(terms)


def permute_vars(z: PhiElem, perm) -> PhiElem:
    """z with t_i -> t_perm[i] in every TRat coefficient, each fraction
    rebuilt by TRat.make from its permuted numerator and denominator."""
    return PhiElem({
        m: TRat.make(_permute_poly(c.num, perm), _permute_poly(c.den, perm))
        for m, c in z.terms.items()
    })


# -- operators ---------------------------------------------------------------------


def _diag(vals, m):
    return tuple(
        tuple(phi(vals[a], m) if a == b else PhiElem.zero() for b in LABELS)
        for a in LABELS
    )


def _rows(num_rows, m):
    # entry (a, b) = num_rows[a][b] / T(x_a) at phi^m
    return tuple(
        tuple(phi(TRat.make(num_rows[a][b], weight(a)), m) for b in LABELS)
        for a in LABELS
    )


def _add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in LABELS) for i in LABELS)


def operator(name: str):
    """The operator matrix in t, as the paper writes it."""
    if name == "A":
        return _diag([weight(a) for a in LABELS], 0)
    if name == "B":
        return _rows([
            [(d(0, 1) + d(0, 2)) * 2, d(0, 2) + d(1, 2), d(0, 1) + d(2, 1)],
            [d(0, 2) + d(1, 2), (d(1, 0) + d(1, 2)) * 2, d(1, 0) + d(2, 0)],
            [d(0, 1) + d(2, 1), d(1, 0) + d(2, 0), (d(2, 0) + d(2, 1)) * 2],
        ], 3)
    if name == "C1":
        return _diag([ZERO, weight(1), ZERO], -2)
    if name == "C2":
        return _diag([ZERO, ZERO, weight(2)], -2)
    if name == "E1":
        return _rows([
            [d(0, 2), d(1, 2), ZERO],
            [d(1, 2), d(1, 0) + d(1, 2), d(1, 0)],
            [ZERO, d(1, 0), d(2, 0)],
        ], 1)
    if name == "E2":
        return _rows([
            [d(0, 1), ZERO, d(2, 1)],
            [ZERO, d(1, 0), d(2, 0)],
            [d(2, 1), d(2, 0), d(2, 0) + d(2, 1)],
        ], 1)
    if name == "N1":
        return _diag([d(0, 1), ZERO, d(2, 1)], -1)
    if name == "N2":
        return _diag([d(0, 2), d(1, 2), ZERO], -1)
    if name in ("M1", "M2"):
        return _rows([[TPoly.one()] * 3] * 3, 2)
    pieces = {"G": ("A", "B"), "U1": ("C1", "E1"), "U2": ("C2", "E2"),
              "U1inv": ("N1", "M1"), "U2inv": ("N2", "M2")}
    first, second = pieces[name]
    return _add(operator(first), operator(second))


# -- caps, tubes and pants ----------------------------------------------------------


def cap(level):
    z = PhiElem.zero()
    values = {
        (0, 0): [phi(1)] * 3,
        (0, -1): [phi(d(a, 2), -1) if a != 2 else z for a in LABELS],
        (-1, 0): [phi(d(a, 1), -1) if a != 1 else z for a in LABELS],
        (0, 1): [z, z, phi(weight(2), -2)],
        (1, 0): [z, phi(weight(1), -2), z],
    }[level]
    return RelTensor((False,), values)


_CREATION_BODY = {
    (0, 1): [
        [d(0, 1), ZERO, d(2, 1)],
        [ZERO, d(1, 0), d(2, 0)],
        [d(2, 1), d(2, 0), d(2, 0) + d(2, 1)],
    ],
    (1, 0): [
        [d(0, 2), d(1, 2), ZERO],
        [d(1, 2), d(1, 0) + d(1, 2), d(1, 0)],
        [ZERO, d(1, 0), d(2, 0)],
    ],
}


def tube(level):
    z = PhiElem.zero()
    if level == (0, 0):
        diagonal, rest = [phi(weight(a), 0) for a in LABELS], lambda a, b: z
    elif level == (0, -1):
        diagonal = [phi(d(0, 1) * d(0, 2) ** 2, -1),
                    phi(d(1, 0) * d(1, 2) ** 2, -1), z]
        rest = lambda a, b: phi(1, 2)  # noqa: E731
    elif level == (-1, 0):
        diagonal = [phi(d(0, 2) * d(0, 1) ** 2, -1), z,
                    phi(d(2, 0) * d(2, 1) ** 2, -1)]
        rest = lambda a, b: phi(1, 2)  # noqa: E731
    else:
        body = _CREATION_BODY[level]
        k = 2 if level == (0, 1) else 1
        diagonal = [phi(weight(k) ** 2, -2) if a == k else z for a in LABELS]
        rest = lambda a, b: phi(body[a][b], 1)  # noqa: E731
    return RelTensor((False, False), [
        rest(a, b) + diagonal[a] if a == b else rest(a, b) for a in LABELS for b in LABELS
    ])


_PANTS_F = {
    (0, 0, 0): d(0, 1) + d(0, 2),
    (1, 1, 1): d(1, 0) + d(1, 2),
    (2, 2, 2): d(2, 0) + d(2, 1),
    (0, 0, 1): d(0, 2),
    (0, 1, 1): d(1, 2),
    (0, 0, 2): d(0, 1),
    (0, 2, 2): d(2, 1),
    (1, 1, 2): d(1, 0),
    (1, 2, 2): d(2, 0),
    (0, 1, 2): ZERO,
}


def pants():
    def entry(a, b, c):
        fiber = phi(_PANTS_F[tuple(sorted((a, b, c)))], 3)
        return fiber + phi(weight(a) ** 2, 0) if a == b == c else fiber

    return RelTensor((False,) * 3, [entry(*labels) for labels in product(LABELS, repeat=3)])


# -- the u-expansion of phi = 2 sin(u/2), by the schoolbook rule -----------------


def sin_half_coeffs(n: int) -> list[Fraction]:
    """The u^0 .. u^(n - 1) coefficients of 2 sin(u/2), from its Taylor series."""
    return [
        Fraction(2 * (-1) ** (k // 2), 2**k * math.factorial(k)) if k % 2 else Fraction(0)
        for k in range(n)
    ]


def series_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    """The first n coefficients of a * b."""
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def series_inv(a: list[Fraction], n: int) -> list[Fraction]:
    """The first n coefficients of 1 / a, by long division; a[0] != 0."""
    out: list[Fraction] = []
    for k in range(n):
        rest = sum((a[j] * out[k - j] for j in range(1, min(k + 1, len(a))) if a[j]), Fraction(0))
        out.append((int(k == 0) - rest) / a[0])
    return out


def phi_power(m: int, n: int) -> list[Fraction]:
    """The u^m .. u^(m + n - 1) coefficients of phi^m: the n-term series of
    phi / u, or of its inverse for m < 0, raised to |m| by squaring."""
    unit = sin_half_coeffs(n + 1)[1:]
    base = unit if m >= 0 else series_inv(unit, n)
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    e = abs(m)
    while e:
        if e & 1:
            out = series_mul(out, base, n)
        base = series_mul(base, base, n)
        e >>= 1
    return out


# -- values mod PRIME ----------------------------------------------------------------


def poly_mod(terms: dict, values) -> int:
    """The polynomial {exponents: coefficient} at the values, mod PRIME; a
    Fraction coefficient counts as its numerator over its denominator."""
    total = 0
    for e, c in terms.items():
        c = Fraction(c)
        v = c.numerator * pow(c.denominator, -1, PRIME)
        for x, k in zip(values, e):
            v *= pow(x, k, PRIME)
        total += v
    return total % PRIME


def value_mod(z: PhiElem, point) -> int:
    """A partition function with TRat coefficients in t0, t1, t2 at
    point = (t0, t1, t2, phi), mod PRIME, through the expanded denominators."""
    t, phi = point[:3], point[3]
    total = 0
    for m, c in z.terms.items():
        den = poly_mod(c.den.terms, t)
        total += poly_mod(c.num.terms, t) * pow(den, -1, PRIME) * pow(phi, m, PRIME)
    return total % PRIME


def folded_mod(f: dict, weight: int, point) -> int:
    """A folded trace at phi = 1, a polynomial {(a, b): c} in x, y whose
    x^a y^b term carries phi^(weight - a - b), at point = (t0, t1, t2, phi)
    with x = t0 - t2, y = t1 - t2, mod PRIME: phi^weight f(x / phi, y / phi)."""
    t0, t1, t2, phi = point
    inv = pow(phi, -1, PRIME)
    return poly_mod(f, ((t0 - t2) * inv, (t1 - t2) * inv)) * pow(phi, weight, PRIME) % PRIME
