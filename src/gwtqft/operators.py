"""Closed-form TQFT generator data: fixed-point weights and the 3x3
creation/annihilation/genus-adding matrices over Q((u))(t0, t1, t2).

Every weight and matrix entry depends on t only through x = t0 - t2 and
y = t1 - t2, so each is built folded: a PhiElem whose phi^m coefficients are
XYRat, fractions over Z[x, y] with denominator (x - y)^a x^b y^c.  No
three-variable arithmetic runs here; ``gluing._unfold`` re-expands a folded
value in t0, t1, t2 at the output.

Matrices are the row-raised forms of the generator tensors (entry (a, b) is
the lowered (a, b) entry times the inverse weight of x_a); ``words`` reads
the level tubes back off U1, U2, U1inv and U2inv.  Every command loads this
module; the cap and pants tensors, the localization data that the matrices
are re-derived from, live in ``words``, which only ``word`` and ``verify`` load.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .exactring import XYRat
from .phicalc import PhiElem

#: basis labels for the three torus-fixed points x0, x1, x2 of the fiber
LABELS = (0, 1, 2)

Op3 = tuple[tuple[PhiElem, ...], ...]

# t0, t1, t2 folded at t2 = 0: x, y and 0
_t = (XYRat({(1, 0): 1}), XYRat({(0, 1): 1}), XYRat({}))
_ZERO = XYRat({})


def _d(i: int, j: int) -> XYRat:
    """t_i - t_j, folded."""
    return _t[i] - _t[j]


@cache
def weight(a: int) -> XYRat:
    """Equivariant weight T(x_a) of the fixed point x_a, folded."""
    if a not in LABELS:
        raise ValueError(f"basis label must be 0, 1 or 2, got {a}")
    i, j = [b for b in LABELS if b != a]
    return _d(a, i) * _d(a, j)


#: the folded weights (x - y) x, -(x - y) y, x y, and their inverses
WEIGHTS = tuple(weight(a) for a in LABELS)
INV_WEIGHTS = (
    XYRat({(0, 0): 1}, (1, 1, 0)),
    XYRat({(0, 0): -1}, (1, 0, 1)),
    XYRat({(0, 0): 1}, (0, 1, 1)),
)


def _phi(coeff: XYRat | int, m: int) -> PhiElem:
    """coeff * phi^m, folded."""
    if type(coeff) is int:
        coeff = XYRat.const(coeff)
    return PhiElem.term(coeff, m)


#: the folded unit
ONE = _phi(1, 0)


# -- operator matrices ----------------------------------------------------------

OPERATOR_NAMES = (
    "A", "B", "C1", "C2", "E1", "E2", "N1", "N2", "M1", "M2",
    "G", "U1", "U2", "U1inv", "U2inv",
)


def _mat(rows: Sequence[Sequence[PhiElem]]) -> Op3:
    return tuple(tuple(row) for row in rows)


def _diag_phi(vals: Sequence[XYRat], m: int) -> Op3:
    z = PhiElem.zero()
    return _mat([[_phi(vals[a], m) if a == b else z for b in LABELS] for a in LABELS])


def _row_rat(num_rows: Sequence[Sequence[XYRat]], m: int) -> Op3:
    # entry (a, b) = num_rows[a][b] / T(x_a) at phi^m
    return _mat([[_phi(num_rows[a][b] * INV_WEIGHTS[a], m) for b in LABELS] for a in LABELS])


#: each of G, U1, U2, U1inv and U2inv is the sum of its two class pieces
_SUMS = {"G": ("A", "B"), "U1": ("C1", "E1"), "U2": ("C2", "E2"),
         "U1inv": ("N1", "M1"), "U2inv": ("N2", "M2")}


@cache
def build_operator(name: str) -> Op3:
    """One of the fifteen closed-form 3x3 operator matrices, folded.

    A/B are the two fiber-class pieces of the genus-adding operator G; C/E
    and N/M are the class pieces of the level creation operators U1, U2 and
    the level annihilation operators U1inv, U2inv.
    """
    if name == "A":
        return _diag_phi(WEIGHTS, 0)
    if name == "B":
        # the (2,2) cell follows the symmetric pattern 2(2t_a - t_b - t_c)
        rows = [
            [(_d(0, 1) + _d(0, 2)) * 2, _d(0, 2) + _d(1, 2), _d(0, 1) + _d(2, 1)],
            [_d(0, 2) + _d(1, 2), (_d(1, 0) + _d(1, 2)) * 2, _d(1, 0) + _d(2, 0)],
            [_d(0, 1) + _d(2, 1), _d(1, 0) + _d(2, 0), (_d(2, 0) + _d(2, 1)) * 2],
        ]
        return _row_rat(rows, 3)
    if name == "C1":
        return _diag_phi([_ZERO, weight(1), _ZERO], -2)
    if name == "C2":
        return _diag_phi([_ZERO, _ZERO, weight(2)], -2)
    if name == "E1":
        rows = [
            [_d(0, 2), _d(1, 2), _ZERO],
            [_d(1, 2), _d(1, 0) + _d(1, 2), _d(1, 0)],
            [_ZERO, _d(1, 0), _d(2, 0)],
        ]
        return _row_rat(rows, 1)
    if name == "E2":
        rows = [
            [_d(0, 1), _ZERO, _d(2, 1)],
            [_ZERO, _d(1, 0), _d(2, 0)],
            [_d(2, 1), _d(2, 0), _d(2, 0) + _d(2, 1)],
        ]
        return _row_rat(rows, 1)
    if name == "N1":
        return _diag_phi([_d(0, 1), _ZERO, _d(2, 1)], -1)
    if name == "N2":
        return _diag_phi([_d(0, 2), _d(1, 2), _ZERO], -1)
    if name in ("M1", "M2"):
        one = XYRat.const(1)
        return _row_rat([[one] * 3] * 3, 2)
    if name in _SUMS:
        return mat_add(*map(build_operator, _SUMS[name]))
    raise ValueError(f"unknown operator {name!r}")


# -- small matrix helpers (shared with the gluing engine) -------------------------


def mat_add(a: Op3, b: Op3) -> Op3:
    return _mat([[a[i][j] + b[i][j] for j in LABELS] for i in LABELS])


def mat_identity() -> Op3:
    z = PhiElem.zero()
    return _mat([[ONE if i == j else z for j in LABELS] for i in LABELS])
