"""The TQFT composition engine: contraction, self-gluing, class-refined
convolution, 3x3 matrix algebra, the closed-surface trace formula, and
evaluation of cobordism words.

Gluing two relative slots sums over the fixed-point basis with one slot
raised; the fiber class of a composite is the convolution of the factors'
classes.  Every slot pair between the same two tensors is glued in one
pass over flat entry offsets.

Tensors are glued folded.  Every entry of the cap, tube and pants pieces
and of the operators is translation invariant, so each phi^m coefficient
is fixed by its value at t2 = 0: an XYRat, a fraction over Z[x, y] with
x = t0 - t2, y = t1 - t2 and denominator (x - y)^a x^b y^c.  A pair of
lowered slots is glued with the folded inverse weight as a factor of each
product (a pair of raised ones with the weight), each coefficient of a
glued entry is one sum of unreduced products reduced once, and only the
result is unfolded, by the Taylor shift that the trace engine uses too.
Each generator is folded once per process, at its first word, and every
fold is re-expanded and compared with its source.  Words are still
contracted one generator at a time, so a word's cost grows with its
length (see MAX_WORD_GENERATORS).

The partition function of the closed genus-g, level-(k1, k2) space is
Z = tr(G^(g-1) U1^k1 U2^k2), computed without forming a matrix power.  G, U1
and U2 commute, their entries depend on t only through x = t0 - t2 and
y = t1 - t2, and they are homogeneous for the weight that gives phi and
each t weight 1: G has weight 2, U1 and U2 weight 0.  So the trace
s_j(k1, k2) = tr(G^j U1^k1 U2^k2), of weight 2j, is fixed by its fold, the
polynomial in Z[x, y] left by t2 = 0 and phi = 1: the monomial x^a y^b
carries phi^(2j - a - b).  On folds:

- the seeds s_j(a, b), 0 <= j <= 2 and a, b in {-1, 0, 1}, are traces of
  matrix products;
- levels |k| >= 2 follow from s(k) = e1 s(k-1) - e2 s(k-2) + s(k-3), where
  e1, e2 are the trace and the sum of principal 2x2 minors of U1 (or U2);
  det U = 1, so the recurrence runs downwards without a division;
- genus follows from s_n = c1 s_(n-1) - c2 s_(n-2) + c3 s_(n-3) with the
  same coefficients of G, and g = 0 divides exactly by c3 = det G.

Z is re-expanded from s_(g-1) by a Taylor shift in t2.  Every fold of a
matrix trace or coefficient is re-expanded and compared with its source,
so an operator that breaks these assumptions raises ReductionError
instead of giving a wrong Z.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache, reduce
from itertools import product
from typing import NamedTuple
from .exactring import (
    ReductionError,
    TPoly,
    TRat,
    XYRat,
    _XYPoly,
    _xy_clean,
    _xy_fraction_sum,
    _xy_mul_into,
)
from .phicalc import PhiElem, laurent_divexact
from .operators import (
    LABELS,
    ClassRefined,
    Op3,
    OPERATOR_NAMES,
    RelTensor,
    build_cap,
    build_operator,
    build_pants,
    build_tube,
    mat_identity,
    matrix_to_tensor,
)

# -- index calculus ----------------------------------------------------------


def _slots(rank: int, slot) -> tuple[int, ...]:
    """One slot or a tuple of slots, checked against the rank."""
    slots = (slot,) if isinstance(slot, int) else tuple(slot)
    for s in slots:
        if not 0 <= s < rank:
            raise ValueError(f"slot {s} out of range for rank {rank}")
    if len(set(slots)) != len(slots):
        raise ValueError(f"slots {slots} name one slot twice")
    return slots


def _offsets(rank: int, glued: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Flat offsets into a row-major rank-r entry array: one per label tuple
    of the free slots (glued labels 0) and one per label tuple of the glued
    slots (free labels 0), each in row-major order.  An entry's index is the
    sum of its two offsets."""
    free = [s for s in range(rank) if s not in glued]

    def table(slots):
        strides = [3 ** (rank - 1 - s) for s in slots]
        return [
            sum(a * st for a, st in zip(labels, strides))
            for labels in product(LABELS, repeat=len(slots))
        ]

    return table(free), table(glued)


# -- the folded ring --------------------------------------------------------------

# The word path holds every tensor entry as its fold at t2 = 0 (see _fold):
# a PhiElem whose coefficients are XYRat.  T(x_0), T(x_1), T(x_2) fold to
# (x - y) x, -(x - y) y and x y; their inverses, as (sign, dexp), to
# sign / ((x - y)^a x^b y^c).
_WEIGHTS = ({(2, 0): 1, (1, 1): -1}, {(1, 1): -1, (0, 2): 1}, {(1, 1): 1})
_INV_WEIGHTS = ((1, (1, 1, 0)), (-1, (1, 0, 1)), (1, (0, 1, 1)))
_PHI_ONE = PhiElem._raw({0: XYRat({(0, 0): 1})})


def _entrywise(fn, t):
    """A RelTensor, or every piece of a ClassRefined, with fn applied to
    each entry."""
    if isinstance(t, ClassRefined):
        return ClassRefined({n: _entrywise(fn, p) for n, p in t.pieces.items()})
    return RelTensor(t.variance, [fn(e) for e in t.entries])


def _fold_all(t, what: str = "a tensor entry"):
    return _entrywise(lambda e: _fold(e, None, what), t)


def _unfold_all(t):
    return _entrywise(_unfold, t)


def _glue_factors(pairs) -> list[tuple]:
    """The factor of every glued label tuple, in row-major order, for slot
    pairs of the given (variance, variance): 1 / T(x_a) for each pair of
    lowered slots and T(x_a) for each pair of raised ones, so that every
    pair is summed with opposite variance.  A factor is (sign, polynomial
    or None, dexp)."""
    out = []
    for labels in product(LABELS, repeat=len(pairs)):
        sign, poly, dexp = 1, None, (0, 0, 0)
        for lam, (va, vb) in zip(labels, pairs):
            if va == vb and va:
                poly = _xy_clean(_xy_mul_into({}, poly or _ONE, _WEIGHTS[lam]))
            elif va == vb:
                s, d = _INV_WEIGHTS[lam]
                sign, dexp = sign * s, (dexp[0] + d[0], dexp[1] + d[1], dexp[2] + d[2])
        out.append((sign, poly, dexp))
    return out


def _dot(terms) -> PhiElem:
    """The sum of x * y * f over the (x, y, f) terms: x and y folded
    entries, f a glue factor.  Products are left unreduced; each phi^m
    coefficient of the sum is reduced once."""
    parts: dict[int, list] = {}
    for x, y, (sign, poly, (w0, w1, w2)) in terms:
        for m2, c2 in y.terms.items():
            d2 = c2.dexp
            for m1, c1 in x.terms.items():
                d1 = c1.dexp
                num = _xy_mul_into({}, c1.num, c2.num, sign)
                parts.setdefault(m1 + m2, []).append((
                    num if poly is None else _xy_mul_into({}, num, poly),
                    (d1[0] + d2[0] + w0, d1[1] + d2[1] + w1, d1[2] + d2[2] + w2),
                ))
    total = {}
    for m, items in parts.items():
        c = _xy_fraction_sum(items)
        if c:
            total[m] = c
    return PhiElem._raw(total)


class _Glue:
    """The contraction of slots_a of a rank-ra tensor with slots_b of a
    rank-rb tensor, pair by pair, as flat offsets and glue factors shared
    by every pair of folded tensors of those ranks and variances."""

    def __init__(self, variance_a, slot_a, variance_b, slot_b):
        self.slots_a = _slots(len(variance_a), slot_a)
        self.slots_b = _slots(len(variance_b), slot_b)
        if len(self.slots_a) != len(self.slots_b):
            raise ValueError("slot lists to glue differ in length")
        self.free_a, glue_a = _offsets(len(variance_a), self.slots_a)
        self.free_b, glue_b = _offsets(len(variance_b), self.slots_b)
        factors = _glue_factors(
            [(variance_a[sa], variance_b[sb]) for sa, sb in zip(self.slots_a, self.slots_b)]
        )
        self.glue = list(zip(glue_a, glue_b, factors))
        self.variance = [v for s, v in enumerate(variance_a) if s not in self.slots_a] + [
            v for s, v in enumerate(variance_b) if s not in self.slots_b
        ]

    def entries(self, pairs) -> list[PhiElem]:
        """Result entries of the sum over the (a, b) pairs of tensors;
        zero entries are skipped."""
        out = []
        for fa in self.free_a:
            rows = [
                ([(x, gb, f) for ga, gb, f in self.glue if (x := a.entries[fa + ga])], b.entries)
                for a, b in pairs
            ]
            for fb in self.free_b:
                out.append(_dot(
                    (x, y, f) for row, eb in rows for x, gb, f in row if (y := eb[fb + gb])
                ))
        return out


def _contract(a: RelTensor, slot_a, b: RelTensor, slot_b) -> RelTensor:
    glue = _Glue(a.variance, slot_a, b.variance, slot_b)
    return RelTensor(glue.variance, glue.entries([(a, b)]))


def _self_glue(t: RelTensor, slot1: int, slot2: int) -> RelTensor:
    if slot1 == slot2:
        raise ValueError("cannot glue a slot to itself")
    if not (0 <= slot1 < t.rank and 0 <= slot2 < t.rank):
        raise ValueError("slot out of range")
    factors = _glue_factors([(t.variance[slot1], t.variance[slot2])])
    free, _ = _offsets(t.rank, (slot1, slot2))
    step = 3 ** (t.rank - 1 - slot1) + 3 ** (t.rank - 1 - slot2)
    variance = [v for s, v in enumerate(t.variance) if s not in (slot1, slot2)]
    entries = [
        _dot((x, _PHI_ONE, f) for lam, f in zip(LABELS, factors) if (x := t.entries[i + lam * step]))
        for i in free
    ]
    return RelTensor(variance, entries)


def _contract_refined(a: ClassRefined, slot_a, b: ClassRefined, slot_b) -> ClassRefined:
    if not a.pieces or not b.pieces:
        return ClassRefined({})
    glue = _Glue(a.variance, slot_a, b.variance, slot_b)
    # piece n sums the pairs of pieces with na + nb = n in one pass
    pairs: dict[int, list] = {}
    for na, ta in a.pieces.items():
        for nb, tb in b.pieces.items():
            pairs.setdefault(na + nb, []).append((ta, tb))
    return ClassRefined({n: RelTensor(glue.variance, glue.entries(p)) for n, p in pairs.items()})


def _self_glue_refined(a: ClassRefined, slot1: int, slot2: int) -> ClassRefined:
    # a non-separating gluing keeps the fiber class of each piece
    return ClassRefined({n: _self_glue(t, slot1, slot2) for n, t in a.pieces.items()})


# -- gluing -------------------------------------------------------------------------
#
# Each public function folds its tensors, glues them in the folded ring and
# unfolds the result.  A tensor with an entry that is not translation
# invariant, with integer coefficients, raises ReductionError.


def contract(a: RelTensor, slot_a, b: RelTensor, slot_b) -> RelTensor:
    """Glue slot_a of a to slot_b of b, summing over the basis.

    slot_a and slot_b are single slots, or equal-length tuples of slots that
    are glued pairwise (slot_a[i] to slot_b[i]) in one pass: every pair that
    joins the same two tensors costs one sum over the glued labels, with no
    intermediate tensor.  A pair of slots of the same variance is summed
    with the weight or its inverse as a factor, so no slot is raised or
    lowered first, and zero entries are skipped.  Result slots: a's
    remaining slots then b's.
    """
    return _unfold_all(_contract(_fold_all(a), slot_a, _fold_all(b), slot_b))


def self_glue(t: RelTensor, slot1: int, slot2: int) -> RelTensor:
    """Glue two free slots of the same tensor to each other."""
    return _unfold_all(_self_glue(_fold_all(t), slot1, slot2))


def contract_refined(a: ClassRefined, slot_a, b: ClassRefined, slot_b) -> ClassRefined:
    """Class-refined gluing: piece n is the convolution over n = n' + n''.

    Slots as in contract; each entry of piece n is one sum over the pairs of
    pieces and the glued labels."""
    return _unfold_all(_contract_refined(_fold_all(a), slot_a, _fold_all(b), slot_b))


def self_glue_refined(a: ClassRefined, slot1: int, slot2: int) -> ClassRefined:
    """Self-gluing of every piece; the fiber class of each is kept."""
    return _unfold_all(_self_glue_refined(_fold_all(a), slot1, slot2))


# -- 3x3 matrix algebra over phi-Laurent polynomials ---------------------------


def mat_mul(a: Op3, b: Op3) -> Op3:
    return tuple(
        tuple(
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
            for j in LABELS
        )
        for i in LABELS
    )


def mat_trace(m: Op3) -> PhiElem:
    return m[0][0] + m[1][1] + m[2][2]


def mat_trace_mul(a: Op3, b: Op3) -> PhiElem:
    """tr(a b) without forming the product matrix."""
    total = PhiElem.zero()
    for i in LABELS:
        for j in LABELS:
            total = total + a[i][j] * b[j][i]
    return total


def mat_eq(a: Op3, b: Op3) -> bool:
    return all(a[i][j] == b[i][j] for i in LABELS for j in LABELS)


def mat_scale(m: Op3, c) -> Op3:
    return tuple(tuple(e * c for e in row) for row in m)


def mat_det(m: Op3) -> PhiElem:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat_adjugate(m: Op3) -> Op3:
    def cof(i: int, j: int) -> PhiElem:
        rows = [r for r in LABELS if r != i]
        cols = [c for c in LABELS if c != j]
        minor = m[rows[0]][cols[0]] * m[rows[1]][cols[1]] - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
        return minor if (i + j) % 2 == 0 else -minor

    # adjugate = transpose of the cofactor matrix
    return tuple(tuple(cof(j, i) for j in LABELS) for i in LABELS)


def mat_inverse(m: Op3) -> Op3:
    """Inverse with entries reduced back to Laurent polynomials in phi.

    Raises ReductionError when an entry fails to reduce and ZeroDivisionError
    when the matrix is singular.
    """
    det = mat_det(m)
    if det.is_zero:
        raise ZeroDivisionError("matrix is singular")
    adj = mat_adjugate(m)
    return tuple(
        tuple(laurent_divexact(adj[i][j], det) for j in LABELS) for i in LABELS
    )


def mat_power(m: Op3, e: int) -> Op3:
    """Exact matrix power by binary powering; a negative exponent powers the
    inverse, whose entries mat_inverse reduces to Laurent polynomials in phi
    (ReductionError when one does not reduce)."""
    if e < 0:
        return mat_power(mat_inverse(m), -e)
    result = mat_identity()
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


# -- the closed-surface trace formula ------------------------------------------

_ONE: _XYPoly = {(0, 0): 1}

# folded tr(G^j U1^k1 U2^k2) under the key (j, k1, k2), j >= -1: the seeds
# (0 <= j <= 2, |k1|, |k2| <= 1) and every value the recurrences reach
_memo: dict[tuple[int, int, int], _XYPoly] = {}


def _shift(num: _XYPoly) -> TPoly:
    """num(t0 - t2, t1 - t2), by a Taylor shift in t2:
    num(t0 - t2, t1 - t2) = sum over k of h_k(t0, t1) (-t2)^k, where
    h_0 = num and h_k = (d/dx + d/dy) h_(k-1) / k, each division exact."""
    poly = {}
    h = num
    k = 0
    while h:
        sign = -1 if k & 1 else 1
        for (a, b), c in h.items():
            poly[a, b, k] = sign * c
        k += 1
        dh: _XYPoly = {}
        for (a, b), c in h.items():
            if a:
                dh[a - 1, b] = dh.get((a - 1, b), 0) + a * c
            if b:
                dh[a, b - 1] = dh.get((a, b - 1), 0) + b * c
        h = {e: c // k for e, c in dh.items() if c}
    return TPoly(poly)


def _unfold(f, weight: int | None = None) -> PhiElem:
    """The element whose fold is f.

    f is a folded element: each phi^m coefficient num / ((x - y)^a x^b y^c)
    becomes num(t0 - t2, t1 - t2) / ((t0 - t1)^a (t0 - t2)^b (t1 - t2)^c),
    with the same exponents.  Given a weight, f is instead a polynomial in
    x, y at phi = 1 (the trace engine's fold), and its degree-d part is the
    coefficient of phi^(weight - d).
    """
    if weight is None:
        return PhiElem._raw({m: TRat(_shift(c.num), c.dexp) for m, c in f.terms.items()})
    parts: dict[int, _XYPoly] = {}
    for (a, b), c in f.items():
        parts.setdefault(weight - a - b, {})[a, b] = c
    return PhiElem._raw({m: TRat(_shift(h)) for m, h in parts.items()})


def _fold(p: PhiElem, weight: int | None, what: str):
    """p at t2 = 0: a folded element, or given a weight, an _XYPoly at phi = 1.

    The fold loses nothing only when every phi^m coefficient of p is
    translation invariant: its numerator a polynomial in t0 - t2, t1 - t2.
    At phi = 1 it must also be a polynomial, homogeneous of t-degree
    weight - m.  Re-expanding the fold and comparing it with p checks
    exactly that, so a broken assumption raises ReductionError instead of
    giving a wrong result.  Integer coefficients keep every later division
    exact.
    """
    terms = {}
    for m, c in p.terms.items():
        num = {(a, b): v for (a, b, k), v in c.num.terms.items() if not k}
        if num:
            terms[m] = XYRat(num, c.dexp)
    if weight is None:
        f = PhiElem._raw(terms)
        problem = "is not translation invariant with integer coefficients"
    else:
        acc: dict = {}
        for c in terms.values():
            for e, v in c.num.items():
                acc[e] = acc.get(e, 0) + v
        f = _xy_clean(acc)
        problem = f"is not an integer polynomial in t0 - t2, t1 - t2 of weight {weight}"
    integral = all(v.denominator == 1 for c in terms.values() for v in c.num.values())
    if not integral or _unfold(f, weight) != p:
        raise ReductionError(f"{what} {problem}")
    return f


def _neg(f: _XYPoly) -> _XYPoly:
    return {e: -c for e, c in f.items()}


def _combine(pairs) -> _XYPoly:
    """The sum of f * p over the (f, p) pairs."""
    acc: dict = {}
    for f, p in pairs:
        _xy_mul_into(acc, f, p)
    return _xy_clean(acc)


def _divexact(num: _XYPoly, den: _XYPoly) -> _XYPoly:
    """num / den by long division in lex order; ReductionError on a remainder."""
    lead = max(den)
    lc = den[lead]
    rem = dict(num)
    quot: _XYPoly = {}
    while rem:
        top = max(rem)
        q, r = divmod(rem[top], lc)
        if r or top[0] < lead[0] or top[1] < lead[1]:
            raise ReductionError("genus-0 trace does not divide by det G")
        shift = (top[0] - lead[0], top[1] - lead[1])
        quot[shift] = q
        for (a, b), c in den.items():
            e = (a + shift[0], b + shift[1])
            v = rem.get(e, 0) - q * c
            if v:
                rem[e] = v
            else:
                del rem[e]
    return quot


@cache
def _char_poly(name: str, weight: int) -> tuple[_XYPoly, _XYPoly, _XYPoly]:
    """Folded (e1, e2, e3) of an operator of the given weight, so that
    M^3 = e1 M^2 - e2 M + e3 I: its trace, the sum of its principal 2x2
    minors and its determinant."""
    m = build_operator(name)
    minors = sum(
        (m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))),
        PhiElem.zero(),
    )
    return (
        _fold(mat_trace(m), weight, f"tr {name}"),
        _fold(minors, 2 * weight, f"tr adj {name}"),
        _fold(mat_det(m), 3 * weight, f"det {name}"),
    )


def _level_coeffs(name: str, up: bool) -> tuple[_XYPoly, _XYPoly, _XYPoly]:
    """Coefficients of the level recurrence of U = U1 or U2 over the three
    nearest levels, stepping up or down; det U = 1, so neither way divides."""
    e1, e2, e3 = _char_poly(name, 0)
    if e3 != _ONE:
        raise ReductionError(f"det {name} is not 1")
    # U^3 = e1 U^2 - e2 U + I, and U^-1 = U^2 - e1 U + e2 I
    return (e1, _neg(e2), _ONE) if up else (e2, _neg(e1), _ONE)


def _seed(j: int, k1: int, k2: int) -> _XYPoly:
    """Folded tr(G^j U1^k1 U2^k2) for 0 <= j <= 2 and |k1|, |k2| <= 1,
    straight from the matrices."""
    # the level factors first: their products are the cheaper ones
    factors = [
        build_operator(name if k > 0 else name + "inv")
        for name, k in (("U1", k1), ("U2", k2))
        if k
    ] + [build_operator("G")] * j
    if not factors:
        trace = PhiElem.const(3)
    else:
        last = factors.pop()
        trace = mat_trace_mul(reduce(mat_mul, factors), last) if factors else mat_trace(last)
    return _fold(trace, 2 * j, f"tr(G^{j} U1^{k1} U2^{k2})")


def _walk(at, first: int, last: int, coeffs) -> _XYPoly:
    """Run x_n = f1 x_(n-s) + f2 x_(n-2s) + f3 x_(n-3s) for n from first to
    last, s the sign of last, keeping x_n in the memo under the key at(n)."""
    s = 1 if last > 0 else -1
    for n in range(first, last + s, s):
        if at(n) not in _memo:
            near = (_trace(*at(n - s)), _trace(*at(n - 2 * s)), _trace(*at(n - 3 * s)))
            _memo[at(n)] = _combine(zip(coeffs, near))
    return _memo[at(last)]


def _trace(j: int, k1: int, k2: int) -> _XYPoly:
    """Folded tr(G^j U1^k1 U2^k2) for j >= -1, from the seeds."""
    f = _memo.get((j, k1, k2))
    if f is not None:
        return f
    if j >= 3:
        c1, c2, c3 = _char_poly("G", 2)
        return _walk(lambda n: (n, k1, k2), 3, j, (c1, _neg(c2), c3))
    if j == -1:
        # G^-1 = (G^2 - c1 G + c2 I) / c3; the lex-leading term of the
        # folded c3 = det G is -x^4 y^2, so the quotient stays integral
        c1, c2, c3 = _char_poly("G", 2)
        near = (_trace(2, k1, k2), _trace(1, k1, k2), _trace(0, k1, k2))
        f = _divexact(_combine(zip((_ONE, _neg(c1), c2), near)), c3)
    elif abs(k1) >= 2:
        return _walk(lambda n: (j, n, k2), 2 if k1 > 0 else -2, k1, _level_coeffs("U1", k1 > 0))
    elif abs(k2) >= 2:
        return _walk(lambda n: (j, k1, n), 2 if k2 > 0 else -2, k2, _level_coeffs("U2", k2 > 0))
    else:
        f = _seed(j, k1, k2)
    _memo[j, k1, k2] = f
    return f


@lru_cache(maxsize=None)
def trace_formula(g: int, k1: int, k2: int) -> PhiElem:
    """Section-class partition function of the closed genus-g, level
    (k1, k2) space, as a Laurent polynomial in phi over Q(t).

    Z = tr(G^(g-1) U1^k1 U2^k2) is computed folded, in Z[x, y] with
    x = t0 - t2 and y = t1 - t2 (see the module docstring), as the value
    s_(g-1) of the recurrences from the seed traces, and re-expanded at
    weight 2g - 2.  Raises ReductionError when an operator breaks an
    assumption of the fold or the genus-0 quotient does not divide.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return _unfold(_trace(g - 1, k1, k2), 2 * g - 2)


# -- cobordism words -------------------------------------------------------------

GenRef = tuple  # ("cap", (k1, k2)) | ("tube", (k1, k2)) | ("pants",) | ("op", name)


class CobordismWord(NamedTuple):
    """A list of generators plus a gluing pattern.

    Pattern entries are pairs of (generator index, slot index); the two named
    slots are contracted (with automatic index raising).  Slots may be used
    at most once; unused slots remain free in the composite.
    """

    generators: tuple[GenRef, ...]
    pattern: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __str__(self) -> str:
        names = [_gen_name(g) for g in self.generators]
        glues = "; ".join(
            f"glue({names[i]}[{i}].{si + 1}, {names[j]}[{j}].{sj + 1})"
            for (i, si), (j, sj) in self.pattern
        )
        return glues if glues else " * ".join(names)


def _gen_name(gen: GenRef) -> str:
    kind = gen[0]
    if kind == "cap":
        return f"cap{gen[1]}"
    if kind == "tube":
        return f"tube{gen[1]}"
    if kind == "pants":
        return "pants"
    return gen[1]


def _gen_rank(gen: GenRef) -> int:
    return {"cap": 1, "tube": 2, "pants": 3, "op": 2}[gen[0]]


def _build_refined(gen: GenRef) -> ClassRefined:
    kind = gen[0]
    if kind == "cap":
        return build_cap(gen[1])
    if kind == "tube":
        return build_tube(gen[1])
    if kind == "pants":
        return build_pants()
    raise ValueError(f"generator {gen!r} has no class refinement")


@cache
def _folded(gen: GenRef, refined: bool):
    """The generator's tensor in the folded ring, class-refined or summed.

    Each generator is folded once per process, at its first word."""
    if gen[0] == "op":
        t = matrix_to_tensor(build_operator(gen[1]))
    else:
        t = _build_refined(gen) if refined else _build_refined(gen).total()
    return _fold_all(t, f"an entry of {_gen_name(gen)}")


def evaluate_word(w: CobordismWord):
    """Evaluate a cobordism word to its composite tensor.

    Returns a ClassRefined when every generator is a cap/tube/pants; with an
    operator generator the evaluation is class-summed and returns a
    RelTensor.  A fully glued word yields a rank-0 result.

    The pattern is glued in order, but a pair that joins two components also
    takes every later pair between the same two components, so a handle or
    the closing of a chain is one contraction pass (see contract).  The
    result is the same tensor, slots in the same order, as gluing pair by
    pair: a's remaining slots then b's at every join.

    Every gluing runs in the folded ring (see _fold), and only the result
    is unfolded.
    """
    if not w.generators:
        raise ValueError("empty word")
    refined = not any(g[0] == "op" for g in w.generators)

    # the pattern is checked in order first, so the first unknown or reused
    # slot is the one reported by gluing pair by pair
    free = {(i, s) for i, gen in enumerate(w.generators) for s in range(_gen_rank(gen))}
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for ra, rb in w.pattern:
        for ref in (ra, rb):
            if ref not in free:
                raise ValueError(f"slot {ref} is unknown or already glued")
        if ra == rb:
            raise ValueError("cannot glue a slot to itself")
        free -= {ra, rb}
        partner[ra], partner[rb] = rb, ra

    # component id -> (value, [slot ids]), a slot id being (gen index, slot);
    # owner maps every slot not yet glued to its component
    comps = {
        i: (_folded(gen, refined), [(i, s) for s in range(_gen_rank(gen))])
        for i, gen in enumerate(w.generators)
    }
    owner = {ref: i for i, (_, slots) in comps.items() for ref in slots}
    for ra, rb in w.pattern:
        if ra not in owner:
            continue  # glued together with an earlier pair
        ca, cb = owner[ra], owner[rb]
        va, slots_a = comps[ca]
        if ca == cb:
            fn = _self_glue_refined if refined else _self_glue
            glued = {ra, rb}
            new_val = fn(va, slots_a.index(ra), slots_a.index(rb))
            new_slots = [s for s in slots_a if s not in glued]
        else:
            vb, slots_b = comps.pop(cb)
            pairs = [
                (ka, slots_b.index(partner[r]))
                for ka, r in enumerate(slots_a)
                if owner.get(partner.get(r)) == cb
            ]
            glued = {slots_a[ka] for ka, _ in pairs} | {slots_b[kb] for _, kb in pairs}
            fn = _contract_refined if refined else _contract
            new_val = fn(va, tuple(ka for ka, _ in pairs), vb, tuple(kb for _, kb in pairs))
            new_slots = [s for s in slots_a + slots_b if s not in glued]
        for ref in glued:
            del owner[ref]
        for ref in new_slots:
            owner[ref] = ca
        comps[ca] = (new_val, new_slots)

    if len(comps) != 1:
        raise ValueError("word does not describe a connected cobordism")
    return _unfold_all(next(iter(comps.values()))[0])


def refined_scalar(cr: ClassRefined) -> PhiElem:
    """Class-summed scalar value of a rank-0 refined tensor."""
    total = PhiElem.zero()
    for t in cr.pieces.values():
        total = total + t.scalar()
    return total


def closed_surface_word(g: int, k1: int, k2: int) -> CobordismWord:
    """A pants/tube decomposition of the closed genus-g level-(k1, k2) space.

    Genus comes from g-1 two-pants handle blocks plus the closing of the
    chain into a ring; levels come from |k1| + |k2| one-level tubes.  At
    g = 0 the chain is capped on both ends instead of closed.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    gens: list[GenRef] = []
    pattern: list[tuple[tuple[int, int], tuple[int, int]]] = []
    blocks: list[tuple[tuple[int, int], tuple[int, int]]] = []  # (in, out) slot refs

    def add_handle():
        i = len(gens)
        gens.append(("pants",))
        gens.append(("pants",))
        pattern.append(((i, 1), (i + 1, 0)))
        pattern.append(((i, 2), (i + 1, 1)))
        blocks.append(((i, 0), (i + 1, 2)))

    def add_tube(level):
        i = len(gens)
        gens.append(("tube", level))
        blocks.append(((i, 0), (i, 1)))

    for _ in range(max(g - 1, 0)):
        add_handle()
    step1 = 1 if k1 >= 0 else -1
    for _ in range(abs(k1)):
        add_tube((step1, 0))
    step2 = 1 if k2 >= 0 else -1
    for _ in range(abs(k2)):
        add_tube((0, step2))

    if g == 0:
        i = len(gens)
        gens.append(("cap", (0, 0)))
        gens.append(("cap", (0, 0)))
        chain = [((i, 0), (i, 0))] + blocks + [((i + 1, 0), (i + 1, 0))]
    else:
        if not blocks:
            add_tube((0, 0))
        chain = blocks

    for (_, prev_out), (nxt_in, _) in zip(chain, chain[1:]):
        pattern.append((prev_out, nxt_in))
    if g >= 1:
        # closing the ring adds the final handle
        pattern.append((chain[-1][1], chain[0][0]))

    return CobordismWord(tuple(gens), tuple(pattern))


# -- word text parsing ------------------------------------------------------------

_ATOM_RE = re.compile(
    r"\s*(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"(?:\(\s*(?P<a>-?\d+)\s*,\s*(?P<b>-?\d+)\s*\))?"
    r"(?:\^(?P<pow>-?\d+))?\s*"
)

_INVERTIBLE = {"U1": "U1inv", "U2": "U2inv", "U1inv": "U1", "U2inv": "U2"}

# words are contracted one generator at a time, in the folded ring:
# trace(G^32) takes about 1 s in a fresh process on CPython 3.11.7 (2 shared
# cores), and the cost grows with the length, so the bound stays at 32 until
# traced chains of commuting operators are routed to trace_formula
MAX_WORD_GENERATORS = 32


def parse_word(text: str) -> CobordismWord:
    """Parse the CLI chain syntax into a CobordismWord.

    Grammar: ["trace("] atom {"*" atom} [")"], where an atom is "pants",
    "cap(k1,k2)", "tube(k1,k2)" or an operator name, optionally raised to an
    integer power.  A chain contracts each atom's outgoing slot with the next
    atom's incoming slot; trace(...) closes the two ends of the chain.  A
    word of more than MAX_WORD_GENERATORS generators, counting powers, is
    a ValueError.
    """
    s = text.strip()
    traced = False
    if s.startswith("trace"):
        rest = s[len("trace"):].lstrip()
        if not rest.startswith("(") or not rest.endswith(")"):
            raise ValueError("malformed trace(...) at position 0")
        s = rest[1:-1]
        traced = True

    atoms: list[tuple[GenRef, int]] = []
    pos = 0
    while True:
        m = _ATOM_RE.match(s, pos)
        if not m or not m.group("name"):
            raise ValueError(f"expected a generator at position {pos}")
        name = m.group("name")
        level = None
        if m.group("a") is not None:
            level = (int(m.group("a")), int(m.group("b")))
        power = int(m.group("pow")) if m.group("pow") else 1
        if name in ("cap", "tube"):
            if level is None:
                raise ValueError(f"{name} needs a level at position {pos}")
            gen: GenRef = (name, level)
        elif name == "pants":
            if level is not None:
                raise ValueError(f"pants takes no level at position {pos}")
            gen = ("pants",)
        elif name in OPERATOR_NAMES:
            if level is not None:
                raise ValueError(f"operator {name} takes no level at position {pos}")
            gen = ("op", name)
        else:
            raise ValueError(f"unknown generator {name!r} at position {pos}")
        if power < 0:
            if gen[0] == "op" and gen[1] in _INVERTIBLE:
                gen = ("op", _INVERTIBLE[gen[1]])
                power = -power
            else:
                raise ValueError(f"negative power at position {pos}")
        if power < 1:
            raise ValueError(f"power must be at least 1 at position {pos}")
        atoms.append((gen, power))
        pos = m.end()
        if pos >= len(s):
            break
        if s[pos] != "*":
            raise ValueError(f"expected '*' at position {pos}")
        pos += 1

    total = sum(power for _, power in atoms)
    if total > MAX_WORD_GENERATORS:
        raise ValueError(
            f"the word has {total} generators; at most {MAX_WORD_GENERATORS} are allowed"
        )
    gens: list[GenRef] = []
    for gen, power in atoms:
        gens.extend([gen] * power)

    def out_slot(i: int) -> tuple[int, int]:
        return (i, _gen_rank(gens[i]) - 1)

    def in_slot(i: int) -> tuple[int, int]:
        return (i, 0)

    pattern = [(out_slot(i), in_slot(i + 1)) for i in range(len(gens) - 1)]
    if traced:
        if len(gens) == 1 and _gen_rank(gens[0]) < 2:
            raise ValueError("trace needs a two-slot composite")
        pattern.append((out_slot(len(gens) - 1), in_slot(0)))
    return CobordismWord(tuple(gens), tuple(pattern))
