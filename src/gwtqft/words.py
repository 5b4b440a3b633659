"""Cobordism words: the cap, tube and pants tensors, their gluing, and the
evaluation of words built from them and the operators.

Only ``word`` and ``verify`` load this module.  ``compute``, ``extract``
and ``genus`` run the trace engine of ``gluing`` alone, so they do not
compile it.

The caps and the pants are the localization values of the genus-0 basic
relative partition functions; a tube is its level operator of ``operators``
with row a lowered by the weight T(x_a), and everything else is obtained
from them by gluing.  Their entries are stored with all slots lowered; an
operator enters a word through ``matrix_to_tensor`` with its first slot
raised, so ``word A`` prints ``Z^x0_x0 = ...``.

Gluing two relative slots sums over the fixed-point basis with one slot
raised.  Every slot pair between the same two tensors is glued in one pass
over flat entry offsets.  Two slots of one tensor are glued by contracting
both with the level (0,0) tube, the identity cylinder, and a raised slot is
lowered by gluing it to that tube.

A word is a chain, as in the gluing picture of Bryan and Pandharipande
("The local Gromov-Witten theory of curves", J. AMS 21, 2008): each
generator's last slot is glued to the next one's first, and a traced chain
closes into a ring.  A closed surface is the trace of a ring of handles
(two pants glued along two fibers) and level tubes.

Every tensor is summed over the fiber classes beta0 + n f, and each class
is one power of phi: class n of a cap, tube or pants tensor of total level
K = k1 + k2 is its phi^(K + 3n) part.  Each generator obeys this, and
gluing adds the classes, the phi powers and the levels, so a word is glued
class-summed and its classes are read off at the end (``split_classes``).

Tensors are built and glued folded.  Every entry of the cap, tube and
pants tensors and of the operators is translation invariant, so each phi^m
coefficient is fixed by its value at t2 = 0: an XYRat, a fraction over
Z[x, y] with x = t0 - t2, y = t1 - t2 and denominator (x - y)^a x^b y^c.
The generators are built in that ring (see ``operators``), and every
function here takes and returns folded tensors; ``gluing._unfold``
re-expands an entry in t0, t1, t2 for output.  A pair of lowered slots is
glued with the folded inverse weight as a factor of each product, and each
coefficient of a glued entry is one sum of unreduced products reduced
once.  Words are contracted one generator at a time, so a word's cost
grows with its length (see MAX_WORD_GENERATORS).
"""

from __future__ import annotations

import re
from functools import cache
from itertools import accumulate, product
from typing import NamedTuple, Sequence

from .exactring import ReductionError, _xy_fraction_sum, _xy_mul_into
from .operators import (
    INV_WEIGHTS,
    LABELS,
    ONE,
    OPERATOR_NAMES,
    WEIGHTS,
    _ZERO,
    Op3,
    _d,
    _phi,
    build_operator,
    mat_identity,
    weight,
)
from .phicalc import PhiElem

Level = tuple[int, int]

# -- relative tensors --------------------------------------------------------


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

    @property
    def rank(self) -> int:
        return len(self.variance)

    def entry(self, *labels: int) -> PhiElem:
        if len(labels) != self.rank:
            raise ValueError(f"expected {self.rank} labels, got {len(labels)}")
        idx = 0
        for a in labels:
            if a not in LABELS:
                raise ValueError(f"basis label must be 0, 1 or 2, got {a}")
            idx = idx * 3 + a
        return self.entries[idx]

    def __eq__(self, other):
        if not isinstance(other, RelTensor):
            return NotImplemented
        return self.variance == other.variance and self.entries == other.entries

    def __hash__(self):
        return hash((self.variance, self.entries))

    def scalar(self) -> PhiElem:
        if self.rank != 0:
            raise ValueError("tensor has free slots")
        return self.entries[0]

    def __repr__(self):
        return f"RelTensor(rank={self.rank}, variance={self.variance})"


# -- the generators ------------------------------------------------------------------


def _tensor1(values: Sequence[PhiElem]) -> RelTensor:
    return RelTensor((False,), values)


#: the level operator that each nonzero basic level's tube lowers; the
#: level (0,0) tube lowers the identity
TUBE_OPERATORS = {(1, 0): "U1", (0, 1): "U2", (-1, 0): "U1inv", (0, -1): "U2inv"}
_BASIC_LEVELS = {(0, 0), *TUBE_OPERATORS}


@cache
def build_cap(level: Level) -> RelTensor:
    """One-holed genus-0 generator at the given level."""
    if level not in _BASIC_LEVELS:
        raise ValueError(f"level {level} cap is not a basic generator")
    z = PhiElem.zero()
    if level == (0, 0):
        return _tensor1([ONE] * 3)
    if level == (0, -1):
        # (t_a - t2) phi^-1, class 0
        return _tensor1([_phi(_d(a, 2), -1) if a != 2 else z for a in LABELS])
    if level == (-1, 0):
        # (t_a - t1) phi^-1, class 0
        return _tensor1([_phi(_d(a, 1), -1) if a != 1 else z for a in LABELS])
    if level == (0, 1):
        # (t_a - t0)(t_a - t1) phi^-2, class -1, nonzero only at a = 2
        return _tensor1([z, z, _phi(weight(2), -2)])
    # level (1, 0): (t_a - t0)(t_a - t2) phi^-2, class -1, nonzero only at a = 1
    return _tensor1([z, _phi(weight(1), -2), z])


@cache
def build_tube(level: Level) -> RelTensor:
    """Two-holed genus-0 generator at the given level, both slots lowered:
    the level operator with row a times the weight T(x_a)."""
    if level not in _BASIC_LEVELS:
        raise ValueError(f"level {level} tube is not a basic generator")
    op = build_operator(TUBE_OPERATORS[level]) if level != (0, 0) else mat_identity()
    return RelTensor((False, False), [e * _phi(WEIGHTS[a], 0) for a in LABELS for e in op[a]])


# the ten distinct entries of the fiber-class-1 pants, indexed by sorted label
# multisets; the remaining 17 cells follow by full symmetry in the three slots.
# The mixed entries obey pants[a,b,c] = t_a + t_b - 2 t_missing-style patterns
# forced by capping off one slot: a level cap glued to the pants must give
# the level tube, its level operator lowered (see build_tube).
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
    (0, 1, 2): _ZERO,
}


@cache
def build_pants() -> RelTensor:
    """Three-holed genus-0 level (0,0) generator: class 0 (phi^0) on the
    diagonal a = b = c, class 1 (phi^3) from _PANTS_F."""
    z = PhiElem.zero()
    return RelTensor((False,) * 3, [
        _phi(_PANTS_F[tuple(sorted((a, b, c)))], 3)
        + (_phi(WEIGHTS[a] * WEIGHTS[a], 0) if a == b == c else z)
        for a, b, c in product(LABELS, repeat=3)
    ])


def matrix_to_tensor(m: Op3) -> RelTensor:
    """View a matrix as a rank-2 tensor with (raised, lowered) slots."""
    return RelTensor((True, False), [m[a][b] for a in LABELS for b in LABELS])


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


# -- gluing -------------------------------------------------------------------------


def _glue_factors(pairs) -> list[tuple]:
    """The factor of every glued label tuple, in row-major order, for slot
    pairs of the given (variance, variance): 1 / T(x_a) for each pair of
    lowered slots, so that every pair is summed with opposite variance.  A
    factor is (sign, dexp)."""
    out = []
    for labels in product(LABELS, repeat=len(pairs)):
        sign, dexp = 1, (0, 0, 0)
        for lam, (va, vb) in zip(labels, pairs):
            if not (va or vb):
                inv = INV_WEIGHTS[lam]
                d = inv.dexp
                sign, dexp = sign * inv.num[0, 0], (dexp[0] + d[0], dexp[1] + d[1], dexp[2] + d[2])
        out.append((sign, dexp))
    return out


def _dot(terms) -> PhiElem:
    """The sum of x * y * f over the (x, y, f) terms: x and y folded
    entries, f a glue factor.  Products are left unreduced; each phi^m
    coefficient of the sum is reduced once."""
    parts: dict[int, list] = {}
    for x, y, (sign, (w0, w1, w2)) in terms:
        for m2, c2 in y.terms.items():
            d2 = c2.dexp
            for m1, c1 in x.terms.items():
                d1 = c1.dexp
                parts.setdefault(m1 + m2, []).append((
                    _xy_mul_into({}, c1.num, c2.num, sign),
                    (d1[0] + d2[0] + w0, d1[1] + d2[1] + w1, d1[2] + d2[2] + w2),
                ))
    total = {}
    for m, items in parts.items():
        c = _xy_fraction_sum(items)
        if c:
            total[m] = c
    return PhiElem(total)


def contract(a: RelTensor, slot_a, b: RelTensor, slot_b) -> RelTensor:
    """Glue slot_a of a to slot_b of b, summing over the basis.

    slot_a and slot_b are single slots, or equal-length tuples of slots that
    are glued pairwise (slot_a[i] to slot_b[i]) in one pass: every pair that
    joins the same two tensors costs one sum over the glued labels, with no
    intermediate tensor.  A pair of lowered slots is summed with the
    inverse weight as a factor, so no slot is raised first, and zero
    entries are skipped.  A pair of raised slots is a ValueError: no word
    or check glues one.  Result slots: a's remaining slots then b's.
    """
    slots_a, slots_b = _slots(a.rank, slot_a), _slots(b.rank, slot_b)
    if len(slots_a) != len(slots_b):
        raise ValueError("slot lists to glue differ in length")
    pairs = [(a.variance[sa], b.variance[sb]) for sa, sb in zip(slots_a, slots_b)]
    if (True, True) in pairs:
        raise ValueError("cannot glue two raised slots")
    free_a, glue_a = _offsets(a.rank, slots_a)
    free_b, glue_b = _offsets(b.rank, slots_b)
    factors = _glue_factors(pairs)
    glue = list(zip(glue_a, glue_b, factors))
    variance = [v for s, v in enumerate(a.variance) if s not in slots_a]
    variance += [v for s, v in enumerate(b.variance) if s not in slots_b]
    entries = []
    for fa in free_a:
        # zero entries are skipped
        row = [(x, gb, f) for ga, gb, f in glue if (x := a.entries[fa + ga])]
        for fb in free_b:
            entries.append(_dot((x, y, f) for x, gb, f in row if (y := b.entries[fb + gb])))
    return RelTensor(variance, entries)


# -- cobordism words -------------------------------------------------------------

GenRef = tuple  # ("cap", (k1, k2)) | ("tube", (k1, k2)) | ("pants",) | ("handle",) | ("op", name)

#: the slots of each generator kind
_SLOTS = {"cap": 1, "tube": 2, "pants": 3, "handle": 2, "op": 2}


class CobordismWord(NamedTuple):
    """A chain of generators, each glued by its last slot to the next one's
    first slot; a traced chain also glues the last generator's last slot to
    the first one's first slot."""

    generators: tuple[GenRef, ...]
    traced: bool = False

    @property
    def level(self) -> int | None:
        """The total level k1 + k2 of the word's caps and tubes, or None
        when the word holds an operator: only a word without operators is
        split into classes (see split_classes)."""
        if any(gen[0] == "op" for gen in self.generators):
            return None
        return sum(sum(gen[1]) for gen in self.generators if gen[0] not in ("pants", "handle"))


@cache
def build_handle() -> RelTensor:
    """Two pants glued along two fibers: the genus-adding block of a closed
    surface, slots (in, out)."""
    return contract(build_pants(), (1, 2), build_pants(), (0, 1))


def _generator(gen: GenRef) -> RelTensor:
    if gen[0] == "op":
        return matrix_to_tensor(build_operator(gen[1]))
    if gen[0] == "pants":
        return build_pants()
    if gen[0] == "handle":
        return build_handle()
    return (build_cap if gen[0] == "cap" else build_tube)(gen[1])


# The most slots of a composite that evaluate_word builds: a tensor of r
# slots has 3^r entries, and a chain of k pants builds k + 2 slots.  In a
# fresh process on CPython 3.11.7 (2 shared cores), `word` took 0.83 s on
# pants^6 (8 slots), 3.8 s on pants^7 and 23 s on pants^8
MAX_WORD_SLOTS = 8


def evaluate_word(w: CobordismWord) -> RelTensor:
    """Evaluate a cobordism word to its composite tensor, summed over the
    fiber classes; a fully glued word yields a rank-0 result.  The classes
    of a word without operators are its phi powers (see split_classes).

    The chain is folded from the left, each join leaving the composite's
    slots then the next generator's.  A traced chain glues its closing pair
    in the same contraction pass as its last join (see contract); a traced
    single generator glues its two ends to the level (0,0) tube, the
    identity cylinder.  A cap has one slot, so it can only end an open
    chain.  A generator of unknown kind, or a word whose fold builds a
    composite of more than MAX_WORD_SLOTS slots, is a ValueError, raised
    before any contraction; the closing pass of a traced chain builds
    nothing wider than the composite before it.
    """
    gens = w.generators
    n = len(gens)
    if not n:
        raise ValueError("empty word")
    for gen in gens:
        if gen[0] not in _SLOTS:
            raise ValueError(f"unknown generator kind {gen[0]!r}")
    ends = (n - 1, 0) if w.traced else ()
    for i in (*range(1, n - 1), *ends):
        if gens[i][0] == "cap":
            raise ValueError(f"slot {(i, 0)} is unknown or already glued")
    slots = [_SLOTS[gen[0]] for gen in gens]
    joined = slots[1:n - 1 if w.traced else n]
    widest = max(accumulate((s - 2 for s in joined), initial=slots[0]))
    if widest > MAX_WORD_SLOTS:
        raise ValueError(
            f"the word builds a tensor of {widest} slots; at most {MAX_WORD_SLOTS} are allowed"
        )
    t = _generator(gens[0])
    if n == 1:
        return contract(t, (0, t.rank - 1), build_tube((0, 0)), (0, 1)) if w.traced else t
    for gen in gens[1:-1]:
        t = contract(t, t.rank - 1, _generator(gen), 0)
    last = _generator(gens[-1])
    if w.traced:
        return contract(t, (0, t.rank - 1), last, (last.rank - 1, 0))
    return contract(t, t.rank - 1, last, 0)


def split_classes(t: RelTensor, level: int) -> dict[int, RelTensor]:
    """The nonzero fiber classes of a cap/tube/pants tensor of total level
    K = level, by n: class beta0 + n f is the phi^(K + 3n) part of every
    entry.  A phi power m with m != K (mod 3) breaks that grading and raises
    ReductionError."""
    parts: dict[int, list[PhiElem]] = {}
    for i, e in enumerate(t.entries):
        for m, c in e.terms.items():
            n, r = divmod(m - level, 3)
            if r:
                raise ReductionError(
                    f"phi^{m} in a tensor of level {level} breaks the mod-3 class grading"
                )
            parts.setdefault(n, [PhiElem.zero()] * len(t.entries))[i] = PhiElem({m: c})
    return {n: RelTensor(t.variance, entries) for n, entries in sorted(parts.items())}


def closed_surface_word(g: int, k1: int, k2: int) -> CobordismWord:
    """A handle/tube decomposition of the closed genus-g level-(k1, k2) space.

    A ring of g-1 handles (see build_handle) and |k1| + |k2| one-level
    tubes: a traced chain, whose closing adds the last genus.  At g = 0 the
    chain is capped on both ends instead of closed.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    step1, step2 = (1 if k1 >= 0 else -1), (1 if k2 >= 0 else -1)
    gens = (
        [("handle",)] * max(g - 1, 0)
        + [("tube", (step1, 0))] * abs(k1)
        + [("tube", (0, step2))] * abs(k2)
    )
    if g == 0:
        return CobordismWord((("cap", (0, 0)), *gens, ("cap", (0, 0))))
    return CobordismWord(tuple(gens) or (("tube", (0, 0)),), traced=True)


# -- word text parsing ------------------------------------------------------------

_ATOM_RE = re.compile(
    r"\s*(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"(?:\(\s*(?P<a>-?\d+)\s*,\s*(?P<b>-?\d+)\s*\))?"
    r"(?:\^(?P<pow>-?\d+))?\s*"
)

# each level operator and its inverse, the operator of the opposite level
_INVERTIBLE = {name: TUBE_OPERATORS[-a, -b] for (a, b), name in TUBE_OPERATORS.items()}

# words are contracted one generator at a time, so a word's cost grows with
# its length, and the bound keeps every word request short: trace(G^32) takes
# about 0.5 s (0.46-0.53 s) in a fresh process on CPython 3.11.7 (2 shared cores).  The width
# of what a word builds is bounded apart, by MAX_WORD_SLOTS
MAX_WORD_GENERATORS = 32


def _closing(text: str, i: int) -> int:
    """The offset of the parenthesis that closes the one at offset i, or -1."""
    depth = 0
    for j in range(i, len(text)):
        depth += (text[j] == "(") - (text[j] == ")")
        if not depth:
            return j
    return -1


def parse_word(text: str) -> CobordismWord:
    """Parse the CLI chain syntax into a CobordismWord.

    Grammar: ["trace("] atom {"*" atom} [")"], where an atom is "pants",
    "cap(k1,k2)", "tube(k1,k2)" or an operator name, optionally raised to an
    integer power.  A chain contracts each atom's outgoing slot with the next
    atom's incoming slot; trace(...) closes the two ends of the chain.  A
    word of more than MAX_WORD_GENERATORS generators, counting powers, is
    a ValueError.  An error's position is the 0-based offset, in text as
    given, of the atom or character at fault.
    """
    lo, hi = len(text) - len(text.lstrip()), len(text.rstrip())
    # traced only when the name trace is followed by optional spaces and "("
    opening = len(text) - len(text[lo + len("trace"):].lstrip())
    traced = text.startswith("trace", lo) and text[opening:opening + 1] == "("
    if traced:
        if _closing(text, opening) != hi - 1:
            raise ValueError(f"malformed trace(...) at position {lo}")
        lo, hi = opening + 1, hi - 1

    atoms: list[tuple[GenRef, int]] = []
    pos = lo
    while True:
        m = _ATOM_RE.match(text, pos, hi)
        if not m or not m.group("name"):
            at = len(text) - len(text[pos:].lstrip())
            raise ValueError(f"expected a generator at position {at}")
        name = m.group("name")
        at = m.start("name")
        level = None
        if m.group("a") is not None:
            level = (int(m.group("a")), int(m.group("b")))
        power = int(m.group("pow")) if m.group("pow") else 1
        if name in ("cap", "tube"):
            if level is None:
                raise ValueError(f"{name} needs a level at position {at}")
            gen: GenRef = (name, level)
        elif name == "pants":
            if level is not None:
                raise ValueError(f"pants takes no level at position {at}")
            gen = ("pants",)
        elif name in OPERATOR_NAMES:
            if level is not None:
                raise ValueError(f"operator {name} takes no level at position {at}")
            gen = ("op", name)
        else:
            raise ValueError(f"unknown generator {name!r} at position {at}")
        if power < 0:
            if gen[0] == "op" and gen[1] in _INVERTIBLE:
                gen = ("op", _INVERTIBLE[gen[1]])
                power = -power
            else:
                raise ValueError(f"negative power at position {at}")
        if power < 1:
            raise ValueError(f"power must be at least 1 at position {at}")
        atoms.append((gen, power))
        pos = m.end()
        if pos >= hi:
            break
        if text[pos] != "*":
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

    if traced and len(gens) == 1 and gens[0][0] == "cap":
        raise ValueError("trace needs a two-slot composite")
    return CobordismWord(tuple(gens), traced)
