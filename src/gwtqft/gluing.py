"""The TQFT composition engine: index raising, contraction, self-gluing,
class-refined convolution, matrix powers, the closed-surface trace formula,
and evaluation of cobordism words.

Gluing two relative slots sums over the fixed-point basis with one slot
raised; the fiber class of a composite is the convolution of the factors'
classes.  The partition function of the closed level-(k1, k2) surface of
genus g is the trace of G^(g-1) U1^k1 U2^k2, where negative powers use the
closed-form annihilation operators and the g = 0 case divides by det(G) and
asserts that the quotient reduces to a Laurent polynomial in phi.

For g >= 1 no power of G above the square is formed.  By Cayley-Hamilton,
G^3 = c1 G^2 - c2 G + c3 I with c1 = tr G, c2 = tr adj(G) and c3 = det G,
all three free of t-denominators.  So G^n = a_n G^2 + b_n G + c_n I, where
the scalars follow (a, b, c) -> (c1 a + b, c - c2 a, c3 a), and the trace is
a tr(G^2 W) + b tr(G W) + c tr(W).  The genus loop runs on polynomials only;
the rational traces tr(G^j W) are computed once per level and shared across
genera.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
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


def raise_index(t: RelTensor, slot: int) -> RelTensor:
    """Divide a lowered slot's entries by T(x_a); see RelTensor.raise_slot."""
    return t.raise_slot(slot)


def lower_index(t: RelTensor, slot: int) -> RelTensor:
    return t.lower_slot(slot)


def _opposed(a: RelTensor, sa: int, b: RelTensor, sb: int) -> RelTensor:
    # flip b's slot so the contracted pair has opposite variance
    if a.variance[sa] == b.variance[sb]:
        return b.raise_slot(sb) if not b.variance[sb] else b.lower_slot(sb)
    return b


def contract(a: RelTensor, slot_a: int, b: RelTensor, slot_b: int) -> RelTensor:
    """Glue slot_a of a to slot_b of b, summing over the basis.

    The second slot is raised (or lowered) automatically so the pair has
    opposite variance.  Result slots: a's remaining slots then b's.
    """
    if not 0 <= slot_a < a.rank:
        raise ValueError(f"slot {slot_a} out of range for rank {a.rank}")
    if not 0 <= slot_b < b.rank:
        raise ValueError(f"slot {slot_b} out of range for rank {b.rank}")
    b = _opposed(a, slot_a, b, slot_b)
    ra = [s for s in range(a.rank) if s != slot_a]
    rb = [s for s in range(b.rank) if s != slot_b]
    variance = [a.variance[s] for s in ra] + [b.variance[s] for s in rb]
    entries = []
    for labels in product(LABELS, repeat=len(variance)):
        la, lb = labels[: len(ra)], labels[len(ra):]
        total = PhiElem.zero()
        for lam in LABELS:
            ia = [0] * a.rank
            for s, v in zip(ra, la):
                ia[s] = v
            ia[slot_a] = lam
            ib = [0] * b.rank
            for s, v in zip(rb, lb):
                ib[s] = v
            ib[slot_b] = lam
            total = total + a.entry(*ia) * b.entry(*ib)
        entries.append(total)
    return RelTensor(variance, entries)


def self_glue(t: RelTensor, slot1: int, slot2: int) -> RelTensor:
    """Glue two free slots of the same tensor to each other."""
    if slot1 == slot2:
        raise ValueError("cannot glue a slot to itself")
    if not (0 <= slot1 < t.rank and 0 <= slot2 < t.rank):
        raise ValueError("slot out of range")
    if t.variance[slot1] == t.variance[slot2]:
        t = t.raise_slot(slot2) if not t.variance[slot2] else t.lower_slot(slot2)
    rest = [s for s in range(t.rank) if s not in (slot1, slot2)]
    variance = [t.variance[s] for s in rest]
    entries = []
    for labels in product(LABELS, repeat=len(rest)):
        total = PhiElem.zero()
        for lam in LABELS:
            ix = [0] * t.rank
            for s, v in zip(rest, labels):
                ix[s] = v
            ix[slot1] = lam
            ix[slot2] = lam
            total = total + t.entry(*ix)
        entries.append(total)
    return RelTensor(variance, entries)


def contract_refined(
    a: ClassRefined, slot_a: int, b: ClassRefined, slot_b: int
) -> ClassRefined:
    """Class-refined gluing: piece n is the convolution over n = n' + n''."""
    pieces: dict[int, RelTensor] = {}
    for na, ta in a.pieces.items():
        for nb, tb in b.pieces.items():
            term = contract(ta, slot_a, tb, slot_b)
            n = na + nb
            pieces[n] = pieces[n] + term if n in pieces else term
    return ClassRefined(pieces)


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


_named_power_cache: dict[tuple[str, int], Op3] = {}


def op_power(name: str, e: int) -> Op3:
    """Power of a named basic operator by binary powering, cached per exponent."""
    if e < 0:
        raise ValueError("op_power wants a nonnegative exponent")
    key = (name, e)
    cached = _named_power_cache.get(key)
    if cached is None:
        cached = _named_power_cache[key] = mat_power(build_operator(name), e)
    return cached


# -- the closed-surface trace formula ------------------------------------------


@lru_cache(maxsize=None)
def _level_word(k1: int, k2: int) -> Op3:
    u1 = op_power("U1" if k1 >= 0 else "U1inv", abs(k1))
    u2 = op_power("U2" if k2 >= 0 else "U2inv", abs(k2))
    return mat_mul(u1, u2)


@lru_cache(maxsize=None)
def _g_invariants() -> tuple[Op3, PhiElem, PhiElem, PhiElem]:
    """adj(G) and the characteristic coefficients (tr G, tr adj G, det G),
    so that G^3 = c1 G^2 - c2 G + c3 I.  None of the three has a t-denominator."""
    gmat = build_operator("G")
    adj = mat_adjugate(gmat)
    return adj, mat_trace(gmat), mat_trace(adj), mat_det(gmat)


# (a_n, b_n, c_n) with G^n = a_n G^2 + b_n G + c_n I, indexed by n; extended
# under _G_POWER_COEFFS_LOCK, since verify runs suites in threads
_G_POWER_COEFFS: list[tuple[PhiElem, PhiElem, PhiElem]] = [
    (PhiElem.zero(), PhiElem.zero(), PhiElem.one()),
    (PhiElem.zero(), PhiElem.one(), PhiElem.zero()),
    (PhiElem.one(), PhiElem.zero(), PhiElem.zero()),
]
_G_POWER_COEFFS_LOCK = threading.Lock()


def _g_power_coeffs(n: int) -> tuple[PhiElem, PhiElem, PhiElem]:
    """(a, b, c) with G^n = a G^2 + b G + c I, from the Cayley-Hamilton
    recurrence (a, b, c) -> (c1 a + b, c - c2 a, c3 a)."""
    coeffs = _G_POWER_COEFFS
    if n >= len(coeffs):
        _, c1, c2, c3 = _g_invariants()
        with _G_POWER_COEFFS_LOCK:
            while n >= len(coeffs):
                a, b, c = coeffs[-1]
                coeffs.append((c1 * a + b, c - c2 * a, c3 * a))
    return coeffs[n]


@lru_cache(maxsize=None)
def _level_trace(k1: int, k2: int, j: int) -> PhiElem:
    """tr(G^j W) for W = U1^k1 U2^k2 and j in {0, 1, 2}."""
    w = _level_word(k1, k2)
    if j == 0:
        return mat_trace(w)
    return mat_trace_mul(op_power("G", j), w)


@lru_cache(maxsize=None)
def trace_formula(g: int, k1: int, k2: int) -> PhiElem:
    """Section-class partition function of the closed genus-g, level
    (k1, k2) space, as a Laurent polynomial in phi over Q(t).

    For g >= 1, Cayley-Hamilton writes G^(g-1) = a G^2 + b G + c I with
    scalars a, b, c that are polynomials in t (see _g_power_coeffs), so the
    trace is a tr(G^2 W) + b tr(G W) + c tr(W) and no power of G above the
    square is formed.  For g = 0 the genus-adding operator enters with
    exponent -1; the trace is computed as tr(adj(G) W) / det(G) and the
    quotient is asserted to reduce.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g >= 1:
        total = PhiElem.zero()
        for j, coeff in zip((2, 1, 0), _g_power_coeffs(g - 1)):
            if coeff.is_zero:
                continue
            total = total + coeff * _level_trace(k1, k2, j)
        return total
    adj, _, _, det = _g_invariants()
    numerator = mat_trace_mul(adj, _level_word(k1, k2))
    return laurent_divexact(numerator, det)


# -- cobordism words -------------------------------------------------------------

GenRef = tuple  # ("cap", (k1, k2)) | ("tube", (k1, k2)) | ("pants",) | ("op", name)


@dataclass(frozen=True)
class CobordismWord:
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


def evaluate_word(w: CobordismWord, refined: bool | None = None):
    """Evaluate a cobordism word to its composite tensor.

    Returns a ClassRefined when every generator is a cap/tube/pants (or when
    refined=True); with operator generators the evaluation is class-summed
    and returns a RelTensor.  A fully glued word yields a rank-0 result.
    """
    if not w.generators:
        raise ValueError("empty word")
    has_op = any(g[0] == "op" for g in w.generators)
    if refined is None:
        refined = not has_op
    if refined and has_op:
        raise ValueError("operator generators cannot be evaluated class-refined")

    def value_of(gen: GenRef):
        if gen[0] == "op":
            return matrix_to_tensor(build_operator(gen[1]))
        cr = _build_refined(gen)
        return cr if refined else cr.total()

    # each component: (value, [slot ids]) where a slot id is (gen index, slot)
    comps: list[tuple[object, list[tuple[int, int]]]] = []
    for i, gen in enumerate(w.generators):
        comps.append((value_of(gen), [(i, s) for s in range(_gen_rank(gen))]))

    def locate(ref: tuple[int, int]) -> tuple[int, int]:
        for ci, (_, slots) in enumerate(comps):
            if ref in slots:
                return ci, slots.index(ref)
        raise ValueError(f"slot {ref} is unknown or already glued")

    for (ra, rb) in w.pattern:
        ca, sa = locate(ra)
        cb, sb = locate(rb)
        if ca == cb:
            val, slots = comps[ca]
            fn = self_glue_refined if refined else self_glue
            new_val = fn(val, sa, sb)
            new_slots = [s for k, s in enumerate(slots) if k not in (sa, sb)]
            comps[ca] = (new_val, new_slots)
        else:
            va, slots_a = comps[ca]
            vb, slots_b = comps[cb]
            fn = contract_refined if refined else contract
            new_val = fn(va, sa, vb, sb)
            new_slots = [s for k, s in enumerate(slots_a) if k != sa] + [
                s for k, s in enumerate(slots_b) if k != sb
            ]
            comps[ca] = (new_val, new_slots)
            del comps[cb]

    if len(comps) != 1:
        raise ValueError("word does not describe a connected cobordism")
    return comps[0][0]


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
