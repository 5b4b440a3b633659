"""Closed-form TQFT generator data: fixed-point weights, class-refined
cap/tube/pants tensors, and the 3x3 creation/annihilation/genus-adding
matrices over Q((u))(t0, t1, t2).

The tensors are the localization values of the basic relative partition
functions; everything else in the library is obtained from them by gluing.
Entries are stored with all slots lowered; matrices are the row-raised forms
(entry (a, b) is the lowered (a, b) entry divided by the weight of x_a).
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from typing import Callable, Sequence

from .exactring import TPoly, TRat
from .phicalc import PhiElem

#: basis labels for the three torus-fixed points x0, x1, x2 of the fiber
LABELS = (0, 1, 2)

Level = tuple[int, int]
Op3 = tuple[tuple[PhiElem, ...], ...]

_t = (TPoly.var(0), TPoly.var(1), TPoly.var(2))


def _d(i: int, j: int) -> TPoly:
    return _t[i] - _t[j]


@cache
def weight(a: int) -> TPoly:
    """Equivariant weight T(x_a) of the fixed point x_a."""
    if a not in LABELS:
        raise ValueError(f"basis label must be 0, 1 or 2, got {a}")
    i, j = [b for b in LABELS if b != a]
    return _d(a, i) * _d(a, j)


WEIGHTS = tuple(weight(a) for a in LABELS)
WEIGHT_RATS = tuple(TRat.from_poly(w) for w in WEIGHTS)
INV_WEIGHTS = tuple(TRat.make(TPoly.one(), w) for w in WEIGHTS)


class RelTensor:
    """Rank-r array over the fixed-point basis with PhiElem entries.

    ``variance[s]`` is True when slot s is raised.  Entries are stored
    row-major over label tuples; instances are immutable.
    """

    __slots__ = ("variance", "entries")

    def __init__(self, variance: Sequence[bool], entries: Sequence[PhiElem]):
        variance = tuple(variance)
        entries = tuple(entries)
        if len(entries) != 3 ** len(variance):
            raise ValueError("entry array must have 3^rank cells")
        self.variance = variance
        self.entries = entries

    @classmethod
    def from_function(
        cls, rank: int, fn: Callable[..., PhiElem], variance: Sequence[bool] | None = None
    ) -> "RelTensor":
        if variance is None:
            variance = (False,) * rank
        return cls(variance, [fn(*labels) for labels in product(LABELS, repeat=rank)])

    @property
    def rank(self) -> int:
        return len(self.variance)

    def _index(self, labels: Sequence[int]) -> int:
        idx = 0
        for a in labels:
            idx = idx * 3 + a
        return idx

    def entry(self, *labels: int) -> PhiElem:
        if len(labels) != self.rank:
            raise ValueError(f"expected {self.rank} labels, got {len(labels)}")
        return self.entries[self._index(labels)]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __add__(self, other: "RelTensor") -> "RelTensor":
        if self.variance != other.variance:
            raise ValueError("cannot add tensors with different slot variance")
        return RelTensor(self.variance, [a + b for a, b in zip(self.entries, other.entries)])

    def __eq__(self, other):
        if not isinstance(other, RelTensor):
            return NotImplemented
        return self.variance == other.variance and self.entries == other.entries

    def __hash__(self):
        return hash((self.variance, self.entries))

    def _rescale_slot(self, slot: int, factors: Sequence[TRat]) -> "RelTensor":
        new = []
        for labels in product(LABELS, repeat=self.rank):
            new.append(self.entries[self._index(labels)] * factors[labels[slot]])
        return RelTensor(self.variance, new)

    def raise_slot(self, slot: int) -> "RelTensor":
        """Divide entries by T(x_a) along one slot, turning it contravariant."""
        if not 0 <= slot < self.rank:
            raise ValueError(f"slot {slot} out of range for rank {self.rank}")
        if self.variance[slot]:
            raise ValueError(f"slot {slot} is already raised")
        out = self._rescale_slot(slot, INV_WEIGHTS)
        variance = list(self.variance)
        variance[slot] = True
        return RelTensor(variance, out.entries)

    def lower_slot(self, slot: int) -> "RelTensor":
        if not 0 <= slot < self.rank:
            raise ValueError(f"slot {slot} out of range for rank {self.rank}")
        if not self.variance[slot]:
            raise ValueError(f"slot {slot} is already lowered")
        out = self._rescale_slot(slot, WEIGHT_RATS)
        variance = list(self.variance)
        variance[slot] = False
        return RelTensor(variance, out.entries)

    def scalar(self) -> PhiElem:
        if self.rank != 0:
            raise ValueError("tensor has free slots")
        return self.entries[0]

    def __repr__(self):
        return f"RelTensor(rank={self.rank}, variance={self.variance})"


class ClassRefined:
    """Fiber-class refinement: map n -> RelTensor for the class beta0 + n f.

    Only nonzero tensors are stored; all pieces share rank and variance.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: dict[int, RelTensor]):
        self.pieces = {n: t for n, t in pieces.items() if not t.is_zero}

    def classes(self) -> list[int]:
        return sorted(self.pieces)

    def piece(self, n: int) -> RelTensor:
        t = self.pieces.get(n)
        if t is not None:
            return t
        rank = self.rank
        return RelTensor(self.variance, [PhiElem.zero()] * (3 ** rank))

    @property
    def rank(self) -> int:
        return next(iter(self.pieces.values())).rank

    @property
    def variance(self) -> tuple[bool, ...]:
        return next(iter(self.pieces.values())).variance

    def total(self) -> RelTensor:
        """Sum over all fiber classes."""
        return reduce(lambda a, b: a + b, self.pieces.values())

    def __eq__(self, other):
        if not isinstance(other, ClassRefined):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self):
        return hash(frozenset(self.pieces.items()))

    def __repr__(self):
        return f"ClassRefined(classes={self.classes()})"


def _phi(coeff, m: int) -> PhiElem:
    return PhiElem.term(coeff, m)


def _tensor1(values: Sequence[PhiElem]) -> RelTensor:
    return RelTensor((False,), values)


def _tensor2(rows: Sequence[Sequence[PhiElem]]) -> RelTensor:
    return RelTensor((False, False), [rows[a][b] for a in LABELS for b in LABELS])


_SUPPORTED_CAPS = {(0, 0), (0, -1), (-1, 0), (0, 1), (1, 0)}


@cache
def build_cap(level: Level) -> ClassRefined:
    """Class-refined one-holed genus-0 generator at the given level."""
    if level not in _SUPPORTED_CAPS:
        raise ValueError(f"level {level} cap is not a basic generator")
    z = PhiElem.zero()
    if level == (0, 0):
        return ClassRefined({0: _tensor1([PhiElem.one()] * 3)})
    if level == (0, -1):
        # (t_a - t2) phi^-1
        return ClassRefined({0: _tensor1([_phi(_d(a, 2), -1) if a != 2 else z for a in LABELS])})
    if level == (-1, 0):
        # (t_a - t1) phi^-1
        return ClassRefined({0: _tensor1([_phi(_d(a, 1), -1) if a != 1 else z for a in LABELS])})
    if level == (0, 1):
        # (t_a - t0)(t_a - t1) phi^-2, nonzero only at a = 2
        return ClassRefined({-1: _tensor1([z, z, _phi(weight(2), -2)])})
    # level (1, 0): (t_a - t0)(t_a - t2) phi^-2, nonzero only at a = 1
    return ClassRefined({-1: _tensor1([z, _phi(weight(1), -2), z])})


_SUPPORTED_TUBES = {(0, 0), (0, -1), (-1, 0), (0, 1), (1, 0)}


@cache
def build_tube(level: Level) -> ClassRefined:
    """Class-refined two-holed genus-0 generator, both slots lowered."""
    if level not in _SUPPORTED_TUBES:
        raise ValueError(f"level {level} tube is not a basic generator")
    z = PhiElem.zero()

    def diag(vals: Sequence[PhiElem]) -> RelTensor:
        return _tensor2([[vals[a] if a == b else z for b in LABELS] for a in LABELS])

    ones_phi2 = _tensor2([[_phi(1, 2)] * 3] * 3)
    if level == (0, 0):
        return ClassRefined({0: diag([_phi(weight(a), 0) for a in LABELS])})
    if level == (0, -1):
        return ClassRefined({
            0: diag([_phi(_d(0, 1) * _d(0, 2) ** 2, -1), _phi(_d(1, 0) * _d(1, 2) ** 2, -1), z]),
            1: ones_phi2,
        })
    if level == (-1, 0):
        return ClassRefined({
            0: diag([_phi(_d(0, 2) * _d(0, 1) ** 2, -1), z, _phi(_d(2, 0) * _d(2, 1) ** 2, -1)]),
            1: ones_phi2,
        })
    if level == (0, 1):
        body = [
            [_d(0, 1), TPoly.zero(), _d(2, 1)],
            [TPoly.zero(), _d(1, 0), _d(2, 0)],
            [_d(2, 1), _d(2, 0), _d(2, 0) + _d(2, 1)],
        ]
        return ClassRefined({
            -1: diag([z, z, _phi(weight(2) ** 2, -2)]),
            0: _tensor2([[_phi(body[a][b], 1) for b in LABELS] for a in LABELS]),
        })
    # level (1, 0)
    body = [
        [_d(0, 2), _d(1, 2), TPoly.zero()],
        [_d(1, 2), _d(1, 0) + _d(1, 2), _d(1, 0)],
        [TPoly.zero(), _d(1, 0), _d(2, 0)],
    ]
    return ClassRefined({
        -1: diag([z, _phi(weight(1) ** 2, -2), z]),
        0: _tensor2([[_phi(body[a][b], 1) for b in LABELS] for a in LABELS]),
    })


# the ten distinct entries of the fiber-class-1 pants, indexed by sorted label
# multisets; the remaining 17 cells follow by full symmetry in the three slots.
# The mixed entries obey pants[a,b,c] = t_a + t_b - 2 t_missing-style patterns
# forced by capping off one slot: pants[lam,a,b] must rebuild the level tubes.
_PANTS_F = {
    (0, 0, 0): _d(0, 1) + _d(0, 2),
    (1, 1, 1): _d(1, 0) + _d(1, 2),
    (2, 2, 2): _d(2, 0) + _d(2, 1),
    (0, 0, 1): _d(0, 2),
    (0, 1, 1): _d(1, 2),
    (0, 0, 2): _d(0, 1),
    (0, 2, 2): _d(2, 1),
    (1, 1, 2): _d(1, 0),
    (1, 2, 2): _d(2, 0),
    (0, 1, 2): TPoly.zero(),
}


@cache
def build_pants() -> ClassRefined:
    """Class-refined three-holed genus-0 level (0,0) generator."""

    def base(a: int, b: int, c: int) -> PhiElem:
        if a == b == c:
            return _phi(weight(a) ** 2, 0)
        return PhiElem.zero()

    def fiber(a: int, b: int, c: int) -> PhiElem:
        return _phi(_PANTS_F[tuple(sorted((a, b, c)))], 3)

    return ClassRefined({
        0: RelTensor.from_function(3, base),
        1: RelTensor.from_function(3, fiber),
    })


# -- operator matrices ----------------------------------------------------------

OPERATOR_NAMES = (
    "A", "B", "C1", "C2", "E1", "E2", "N1", "N2", "M1", "M2",
    "G", "U1", "U2", "U1inv", "U2inv",
)


def _mat(rows: Sequence[Sequence[PhiElem]]) -> Op3:
    return tuple(tuple(row) for row in rows)


def _diag_phi(vals: Sequence[TPoly | TRat], m: int) -> Op3:
    z = PhiElem.zero()
    return _mat([[_phi(vals[a], m) if a == b else z for b in LABELS] for a in LABELS])


def _row_rat(num_rows: Sequence[Sequence[TPoly]], m: int) -> Op3:
    # entry (a, b) = num_rows[a][b] / T(x_a) at phi^m
    return _mat([
        [_phi(TRat.make(num_rows[a][b], weight(a)), m) for b in LABELS]
        for a in LABELS
    ])


@cache
def build_operator(name: str) -> Op3:
    """One of the fifteen closed-form 3x3 operator matrices.

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
        return _diag_phi([TPoly.zero(), weight(1), TPoly.zero()], -2)
    if name == "C2":
        return _diag_phi([TPoly.zero(), TPoly.zero(), weight(2)], -2)
    if name == "E1":
        rows = [
            [_d(0, 2), _d(1, 2), TPoly.zero()],
            [_d(1, 2), _d(1, 0) + _d(1, 2), _d(1, 0)],
            [TPoly.zero(), _d(1, 0), _d(2, 0)],
        ]
        return _row_rat(rows, 1)
    if name == "E2":
        rows = [
            [_d(0, 1), TPoly.zero(), _d(2, 1)],
            [TPoly.zero(), _d(1, 0), _d(2, 0)],
            [_d(2, 1), _d(2, 0), _d(2, 0) + _d(2, 1)],
        ]
        return _row_rat(rows, 1)
    if name == "N1":
        return _diag_phi([_d(0, 1), TPoly.zero(), _d(2, 1)], -1)
    if name == "N2":
        return _diag_phi([_d(0, 2), _d(1, 2), TPoly.zero()], -1)
    if name in ("M1", "M2"):
        one = TPoly.one()
        return _row_rat([[one] * 3] * 3, 2)
    if name == "G":
        return mat_add(build_operator("A"), build_operator("B"))
    if name == "U1":
        return mat_add(build_operator("C1"), build_operator("E1"))
    if name == "U2":
        return mat_add(build_operator("C2"), build_operator("E2"))
    if name == "U1inv":
        return mat_add(build_operator("N1"), build_operator("M1"))
    if name == "U2inv":
        return mat_add(build_operator("N2"), build_operator("M2"))
    raise ValueError(f"unknown operator {name!r}")


# -- small matrix helpers (shared with the gluing engine) -------------------------


def mat_add(a: Op3, b: Op3) -> Op3:
    return _mat([[a[i][j] + b[i][j] for j in LABELS] for i in LABELS])


def mat_identity() -> Op3:
    z = PhiElem.zero()
    o = PhiElem.one()
    return _mat([[o if i == j else z for j in LABELS] for i in LABELS])


def tensor_to_matrix(t: RelTensor) -> Op3:
    """Row-raised matrix form of a rank-2 lowered tensor."""
    if t.rank != 2 or any(t.variance):
        raise ValueError("expected a rank-2 all-lowered tensor")
    raised = t.raise_slot(0)
    return _mat([[raised.entry(a, b) for b in LABELS] for a in LABELS])


def matrix_to_tensor(m: Op3) -> RelTensor:
    """View a matrix as a rank-2 tensor with (raised, lowered) slots."""
    return RelTensor((True, False), [m[a][b] for a in LABELS for b in LABELS])


def refined_to_matrix(cr: ClassRefined) -> Op3:
    """Class-summed, row-raised matrix of a rank-2 refined tensor."""
    return tensor_to_matrix(cr.total())
