"""The trace engine: the closed-surface trace formula over folded
phi-Laurent polynomials, and the re-expansion of a folded value in t0, t1, t2.

``compute``, ``extract`` and ``genus`` compile this module, ``operators``
and the layers below them, and nothing else: the cap, tube and pants
tensors, their gluing and cobordism words live in ``words``, which only
``word`` and ``verify`` load.

The partition function of the closed genus-g, level-(k1, k2) space is
Z = tr(G^(g-1) U1^k1 U2^k2), computed without forming a matrix power.  G, U1
and U2 commute, their entries depend on t only through x = t0 - t2 and
y = t1 - t2, and they are homogeneous for the weight that gives phi and
each t weight 1: G has weight 2, U1 and U2 weight 0.  The operators are
built folded (see ``operators``), so every product here is one in Z[x, y].
The trace s_j(k1, k2) = tr(G^j U1^k1 U2^k2), of weight 2j, is fixed by its
value at phi = 1, a polynomial in Z[x, y]: the monomial x^a y^b carries
phi^(2j - a - b).  At phi = 1:

- the seeds s_j(a, b), -1 <= j <= 1 and a, b in {-1, 0, 1}, are capped
  chains: the genus-0 surface is two caps with the level tubes between
  them, and each G adds a handle, so s_j = 1^T G^(j+1) U1^a U2^b w with
  w_a = 1 / T(x_a) (the Frobenius identity tr(X) = eps(G X), eps the
  counit).  Genus 0 is the seed s_-1 itself and needs no division;
- every walk steps by the characteristic polynomial of the operator M it
  applies: x_n = c1 x_(n-1) - c2 x_(n-2) + c3 x_(n-3) for the traces x_n
  of M^n X, with c1 = tr M, c2 = tr adj M and c3 = det M.  Genus j >= 2
  walks G, a level k >= 2 walks U1 (or U2), and a level k <= -2 walks the
  explicit inverse U1inv = N1 + M1 (or U2inv = N2 + M2) up from the seeds.
  A level operator has det 1, so no walk divides.

Z is re-expanded from s_(g-1) by the Taylor shift in t2, ``exactring._shift``,
which also expands every printed denominator.  A matrix trace or
coefficient is read at phi = 1 only when each phi^m coefficient is an
integer polynomial of degree w - m for its weight w, so an operator that
breaks the homogeneity raises ReductionError instead of giving a wrong Z.

The bounded ``lru_cache`` on ``trace_formula`` memoises results, and each
``_reader`` memoises the folded values it walks, for as long as it lives.
Below them only generator data is cached: the 27 seeds and the
coefficients of G, U1, U2, U1inv and U2inv.  ``trace_formula`` drops its
reader before re-expanding Z, so requests over g = 1..N take O(N^2) steps;
a suite reads all its keys through one reader: ``verify --suite all`` takes
604 recurrence steps, against 4,407 when each of its 556 reads walks alone.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .exactring import ReductionError, TRat, XYRat, _XYPoly, _shift, _xy_clean, _xy_mul_into
from .phicalc import PhiElem
from .operators import INV_WEIGHTS, LABELS, _cofactor, _phi, build_operator, mat_det, mat_trace

# -- the closed-surface trace formula ------------------------------------------

_ONE: _XYPoly = {(0, 0): 1}


def _unfold(f: PhiElem) -> PhiElem:
    """The element whose fold, its value at t2 = 0, is f.

    f is a folded element: each phi^m coefficient num / ((x - y)^a x^b y^c)
    becomes num(t0 - t2, t1 - t2) / ((t0 - t1)^a (t0 - t2)^b (t1 - t2)^c),
    with the same exponents.  A polynomial in x, y at phi = 1 (as
    _at_phi_one leaves it) is unfolded as _unfold(_graded(f, weight)).
    """
    return PhiElem({m: TRat(_shift(c.num), c.dexp) for m, c in f.terms.items()})


def _graded(f: _XYPoly, weight: int) -> PhiElem:
    """The folded element of the given weight whose value at phi = 1 is f:
    its phi^m coefficient is the degree-(weight - m) part of f."""
    parts: dict[int, _XYPoly] = {}
    for (a, b), c in f.items():
        parts.setdefault(weight - a - b, {})[a, b] = c
    return PhiElem({m: XYRat(h) for m, h in parts.items()})


def _at_phi_one(p: PhiElem, weight: int, what: str) -> _XYPoly:
    """A folded element of the given weight at phi = 1, as a polynomial in
    x, y whose degree-d part is the phi^(weight - d) coefficient.

    That loses nothing only when every phi^m coefficient of p is a
    polynomial with integer coefficients, homogeneous of degree weight - m;
    anything else raises ReductionError instead of giving a wrong Z.
    Integer coefficients keep every later division exact.
    """
    f: _XYPoly = {}
    for m, c in p.terms.items():
        d = weight - m
        if any(c.dexp) or any(a + b != d or v.denominator != 1 for (a, b), v in c.num.items()):
            raise ReductionError(
                f"{what} is not an integer polynomial in t0 - t2, t1 - t2 of weight {weight}"
            )
        f.update(c.num)
    return f


def _combine(pairs) -> _XYPoly:
    """The sum of f * p over the (f, p) pairs."""
    acc: dict = {}
    for f, p in pairs:
        _xy_mul_into(acc, f, p)
    return _xy_clean(acc)


@cache
def _char_poly(name: str) -> tuple[_XYPoly, _XYPoly, _XYPoly]:
    """Folded (e1, e2, e3) of the operator, so that M^3 = e1 M^2 - e2 M + e3 I:
    its trace, the trace of its adjugate (the sum of its principal 2x2
    minors) and its determinant.  G has weight 2, a level operator 0."""
    m = build_operator(name)
    weight = 2 if name == "G" else 0
    minors = _cofactor(m, 0, 0) + _cofactor(m, 1, 1) + _cofactor(m, 2, 2)
    return (
        _at_phi_one(mat_trace(m), weight, f"tr {name}"),
        _at_phi_one(minors, 2 * weight, f"tr adj {name}"),
        _at_phi_one(mat_det(m), 3 * weight, f"det {name}"),
    )


def _step(name: str) -> tuple[_XYPoly, _XYPoly, _XYPoly]:
    """(c1, -c2, c3) of the operator M = G, U1, U2, U1inv or U2inv, so that
    the traces x_n of M^n X obey x_n = c1 x_(n-1) - c2 x_(n-2) + c3 x_(n-3).
    A level operator must have det 1, or it raises ReductionError."""
    c1, c2, c3 = _char_poly(name)
    if name != "G" and c3 != _ONE:
        raise ReductionError(f"det {name} is not 1")
    return c1, {e: -c for e, c in c2.items()}, c3


@cache
def _seed(j: int, k1: int, k2: int) -> _XYPoly:
    """Folded tr(G^j U1^k1 U2^k2) for -1 <= j <= 1 and |k1|, |k2| <= 1, as
    the capped chain 1^T G^(j+1) U1^k1 U2^k2 w with w_a = 1 / T(x_a): one
    matrix-vector product per factor, applied to w from the right."""
    levels = [
        build_operator(name if k > 0 else name + "inv")
        for name, k in (("U2", k2), ("U1", k1))
        if k
    ]
    v = tuple(_phi(c, 0) for c in INV_WEIGHTS)
    for m in levels + [build_operator("G")] * (j + 1):
        v = tuple(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in LABELS)
    return _at_phi_one(v[0] + v[1] + v[2], 2 * j, f"tr(G^{j} U1^{k1} U2^{k2})")


def _fill(memo: dict, key: tuple[int, int, int]) -> _XYPoly:
    """Folded tr(G^j U1^k1 U2^k2) at key = (j, k1, k2), j >= -1, kept in memo
    with every value the walk to it passes.  A key in the seed window -1..1
    is a seed, which _seed's cache holds and memo does not.  Otherwise the
    first coordinate outside the window (j, then k1, then k2) is walked out
    by the recurrence of G, of U1 or U1inv, or of U2 or U2inv, from the last
    three values of its line: those memo holds, or the window's.  So the
    recursion runs across the three axes, never once per step."""
    if key in memo:
        return memo[key]
    axis = next((i for i, c in enumerate(key) if not -1 <= c <= 1), None)
    if axis is None:
        return _seed(*key)
    k = key[axis]
    s = 1 if k > 0 else -1

    def at(n: int) -> tuple[int, int, int]:
        return key[:axis] + (n,) + key[axis + 1:]

    n = k - s
    while abs(n) > 1 and at(n) not in memo:
        n -= s
    f1, f2, f3 = _step(("G", "U1", "U2")[axis] + ("inv" if s < 0 else ""))
    x3, x2, x1 = (_fill(memo, at(m)) for m in (n - 2 * s, n - s, n))
    for m in range(n + s, k + s, s):
        x3, x2, x1 = x2, x1, _combine(((f1, x1), (f2, x2), (f3, x3)))
        memo[at(m)] = x1
    return x1


# The largest g + |k1| + |k2| trace_formula accepts: (2, 100, 0) prints
# 20.5 MB of text, and (102, 0, 0), the largest output measured at the
# limit, 37.8 MB in 2.9 s at 168 MiB peak RSS and a 144.7 MiB tracemalloc
# peak (CPython 3.11.7, 2 shared cores).
MAX_REQUEST = 102


# only cli.cmd_compute and the numeric suite, which draws from 245 keys,
# call it
@lru_cache(maxsize=1024)
def trace_formula(g: int, k1: int, k2: int) -> PhiElem:
    """Section-class partition function of the closed genus-g, level
    (k1, k2) space, as a Laurent polynomial in phi over Q(t).

    Z = tr(G^(g-1) U1^k1 U2^k2) is computed folded, in Z[x, y] with
    x = t0 - t2 and y = t1 - t2 (see the module docstring), as the value
    s_(g-1) of the recurrences from the seed traces, and re-expanded at
    weight 2g - 2.  A negative g or g + |k1| + |k2| > MAX_REQUEST is a
    ValueError.  Raises ReductionError when a trace or coefficient of the
    operators breaks its weight, or a walked level operator's det is not 1.
    """
    return _unfold(_reader()(g, k1, k2))


def _check_request(g: int, k1: int, k2: int) -> None:
    if g < 0:
        raise ValueError("genus must be nonnegative")
    size = g + abs(k1) + abs(k2)
    if size > MAX_REQUEST:
        raise ValueError(f"g + |k1| + |k2| = {size} is above the limit {MAX_REQUEST}")


def _reader():
    """A reader of folded partition functions: read(g, k1, k2) is s_(g-1)
    graded at weight 2g - 2, under trace_formula's bound.  Its memo keeps
    every value _fill walks until the reader is dropped, so a sweep that
    reads all its keys through one reader pays each recurrence step once."""
    memo: dict = {}

    def read(g: int, k1: int, k2: int) -> PhiElem:
        _check_request(g, k1, k2)
        return _graded(_fill(memo, (g - 1, k1, k2)), 2 * g - 2)

    return read
