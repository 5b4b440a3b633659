"""The TQFT composition engine: contraction, self-gluing, class-refined
convolution, 3x3 matrix algebra, the closed-surface trace formula, and
evaluation of cobordism words.

Gluing two relative slots sums over the fixed-point basis with one slot
raised; the fiber class of a composite is the convolution of the factors'
classes.  Every slot pair between the same two tensors is glued in one
pass over flat entry offsets.

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
from .exactring import ReductionError, TPoly, TRat
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


def _opposed(variance_a, slots_a, b: RelTensor, slots_b) -> RelTensor:
    # flip b's glued slots so that every contracted pair has opposite variance
    for sa, sb in zip(slots_a, slots_b):
        if variance_a[sa] == b.variance[sb]:
            b = b.lower_slot(sb) if b.variance[sb] else b.raise_slot(sb)
    return b


class _Glue:
    """The contraction of slots_a of a rank-ra tensor with slots_b of a
    rank-rb tensor, pair by pair, as flat offsets shared by every pair of
    tensors of those ranks."""

    def __init__(self, variance_a, slot_a, variance_b, slot_b):
        self.slots_a = _slots(len(variance_a), slot_a)
        self.slots_b = _slots(len(variance_b), slot_b)
        if len(self.slots_a) != len(self.slots_b):
            raise ValueError("slot lists to glue differ in length")
        self.free_a, glue_a = _offsets(len(variance_a), self.slots_a)
        self.free_b, glue_b = _offsets(len(variance_b), self.slots_b)
        self.glue = list(zip(glue_a, glue_b))
        self.variance = [v for s, v in enumerate(variance_a) if s not in self.slots_a] + [
            v for s, v in enumerate(variance_b) if s not in self.slots_b
        ]

    def entries(self, a: RelTensor, b: RelTensor) -> list[PhiElem]:
        """Result entries for a and an already opposed b; zero entries of
        either factor are skipped."""
        ea, eb = a.entries, b.entries
        out = []
        for fa in self.free_a:
            row = [(x, gb) for ga, gb in self.glue if (x := ea[fa + ga])]
            for fb in self.free_b:
                total = PhiElem.zero()
                for x, gb in row:
                    y = eb[fb + gb]
                    if y:
                        total = total + x * y
                out.append(total)
        return out


def contract(a: RelTensor, slot_a, b: RelTensor, slot_b) -> RelTensor:
    """Glue slot_a of a to slot_b of b, summing over the basis.

    slot_a and slot_b are single slots, or equal-length tuples of slots that
    are glued pairwise (slot_a[i] to slot_b[i]) in one pass: every pair that
    joins the same two tensors costs one sum over the glued labels, with no
    intermediate tensor.  Each of b's glued slots is raised (or lowered)
    once, so every pair has opposite variance, and zero entries are skipped.
    Result slots: a's remaining slots then b's.
    """
    glue = _Glue(a.variance, slot_a, b.variance, slot_b)
    b = _opposed(a.variance, glue.slots_a, b, glue.slots_b)
    return RelTensor(glue.variance, glue.entries(a, b))


def self_glue(t: RelTensor, slot1: int, slot2: int) -> RelTensor:
    """Glue two free slots of the same tensor to each other."""
    if slot1 == slot2:
        raise ValueError("cannot glue a slot to itself")
    if not (0 <= slot1 < t.rank and 0 <= slot2 < t.rank):
        raise ValueError("slot out of range")
    if t.variance[slot1] == t.variance[slot2]:
        t = t.raise_slot(slot2) if not t.variance[slot2] else t.lower_slot(slot2)
    free, _ = _offsets(t.rank, (slot1, slot2))
    step = 3 ** (t.rank - 1 - slot1) + 3 ** (t.rank - 1 - slot2)
    variance = [v for s, v in enumerate(t.variance) if s not in (slot1, slot2)]
    entries = [sum((t.entries[f + lam * step] for lam in LABELS), PhiElem.zero()) for f in free]
    return RelTensor(variance, entries)


def contract_refined(a: ClassRefined, slot_a, b: ClassRefined, slot_b) -> ClassRefined:
    """Class-refined gluing: piece n is the convolution over n = n' + n''.

    Slots as in contract; each piece of b is raised once per call, not once
    per pair of pieces."""
    if not a.pieces or not b.pieces:
        return ClassRefined({})
    glue = _Glue(a.variance, slot_a, b.variance, slot_b)
    opposed = [
        (nb, _opposed(a.variance, glue.slots_a, tb, glue.slots_b)) for nb, tb in b.pieces.items()
    ]
    acc: dict[int, list[PhiElem]] = {}
    for na, ta in a.pieces.items():
        for nb, tb in opposed:
            entries = glue.entries(ta, tb)
            prev = acc.get(na + nb)
            acc[na + nb] = entries if prev is None else [x + y for x, y in zip(prev, entries)]
    return ClassRefined({n: RelTensor(glue.variance, e) for n, e in acc.items()})


def self_glue_refined(a: ClassRefined, slot1: int, slot2: int) -> ClassRefined:
    # a non-separating gluing keeps the fiber class of each piece
    return ClassRefined({n: self_glue(t, slot1, slot2) for n, t in a.pieces.items()})


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

# A polynomial in x = t0 - t2 and y = t1 - t2 over Z, as {(a, b): c} for the
# terms c x^a y^b; no coefficient is zero.
_XYPoly = dict[tuple[int, int], int]

_ONE: _XYPoly = {(0, 0): 1}

# folded tr(G^j U1^k1 U2^k2) under the key (j, k1, k2), j >= -1: the seeds
# (0 <= j <= 2, |k1|, |k2| <= 1) and every value the recurrences reach
_memo: dict[tuple[int, int, int], _XYPoly] = {}


def _unfold(f: _XYPoly, weight: int) -> PhiElem:
    """The element of the given weight whose fold is f.

    The degree-d part F_d(x, y) of f becomes F_d(t0 - t2, t1 - t2)
    phi^(weight - d).  The substitution is a Taylor shift in t2:
    F_d(t0 - t2, t1 - t2) = sum over k of h_k(t0, t1) (-t2)^k, where
    h_0 = F_d and h_k = (d/dx + d/dy) h_(k-1) / k, each division exact.
    """
    parts: dict[int, _XYPoly] = {}
    for (a, b), c in f.items():
        parts.setdefault(a + b, {})[a, b] = c
    terms = {}
    for d, h in parts.items():
        poly = {}
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
        terms[weight - d] = TRat.from_poly(TPoly(poly))
    return PhiElem(terms)


def _fold(p: PhiElem, weight: int, what: str) -> _XYPoly:
    """p at t2 = 0 and phi = 1, for p of the given weight.

    The fold loses nothing only when every phi^m coefficient of p is a
    polynomial in t0 - t2 and t1 - t2, homogeneous of t-degree weight - m.
    Re-expanding the fold and comparing it with p checks exactly that, so a
    broken assumption raises ReductionError instead of giving a wrong Z.
    Integer coefficients keep every later division exact.
    """
    f: _XYPoly = {}
    for coeff in p.terms.values():
        for (a, b, c2), c in coeff.num.terms.items():
            if not c2:
                f[a, b] = f.get((a, b), 0) + c
    f = {e: c for e, c in f.items() if c}
    if any(c.denominator != 1 for c in f.values()) or _unfold(f, weight) != p:
        raise ReductionError(
            f"{what} is not an integer polynomial in t0 - t2, t1 - t2 of weight {weight}"
        )
    return f


def _neg(f: _XYPoly) -> _XYPoly:
    return {e: -c for e, c in f.items()}


def _combine(pairs) -> _XYPoly:
    """The sum of f * p over the (f, p) pairs."""
    acc: _XYPoly = {}
    for f, p in pairs:
        for (a1, b1), c1 in f.items():
            for (a2, b2), c2 in p.items():
                e = (a1 + a2, b1 + b2)
                acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


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
    """
    if not w.generators:
        raise ValueError("empty word")
    refined = not any(g[0] == "op" for g in w.generators)

    def value_of(gen: GenRef):
        if gen[0] == "op":
            return matrix_to_tensor(build_operator(gen[1]))
        cr = _build_refined(gen)
        return cr if refined else cr.total()

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
        i: (value_of(gen), [(i, s) for s in range(_gen_rank(gen))])
        for i, gen in enumerate(w.generators)
    }
    owner = {ref: i for i, (_, slots) in comps.items() for ref in slots}
    for ra, rb in w.pattern:
        if ra not in owner:
            continue  # glued together with an earlier pair
        ca, cb = owner[ra], owner[rb]
        va, slots_a = comps[ca]
        if ca == cb:
            fn = self_glue_refined if refined else self_glue
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
            fn = contract_refined if refined else contract
            new_val = fn(va, tuple(ka for ka, _ in pairs), vb, tuple(kb for _, kb in pairs))
            new_slots = [s for s in slots_a + slots_b if s not in glued]
        for ref in glued:
            del owner[ref]
        for ref in new_slots:
            owner[ref] = ca
        comps[ca] = (new_val, new_slots)

    if len(comps) != 1:
        raise ValueError("word does not describe a connected cobordism")
    return next(iter(comps.values()))[0]


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


def parse_word(text: str) -> CobordismWord:
    """Parse the CLI chain syntax into a CobordismWord.

    Grammar: ["trace("] atom {"*" atom} [")"], where an atom is "pants",
    "cap(k1,k2)", "tube(k1,k2)" or an operator name, optionally raised to an
    integer power.  A chain contracts each atom's outgoing slot with the next
    atom's incoming slot; trace(...) closes the two ends of the chain.
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
