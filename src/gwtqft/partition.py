"""User-facing partition-function API: the full section-class partition
function Z(g | k1, k2), its class-by-class refinement, virtual-dimension
bookkeeping, support computation, and genus-by-genus invariant tables.

A class is one power of phi.  The class beta0 + n f part of Z has t-degree
-D = 2g - 2 - k1 - k2 - 3n, and Z has weight 2g - 2, so that its phi^m
coefficient has t-degree 2g - 2 - m (the trace engine checks this weight
on every trace it reads at phi = 1).  So class n is exactly the phi^(k1 + k2 + 3n) term of Z.

Z is memoised once, by the bounded ``lru_cache`` on
``gluing.trace_formula``, which also rejects g + |k1| + |k2| above
``gluing.MAX_REQUEST``.  A genus table expands the one phi power of its
class in u, up to the u-power the table needs and no further.  ``gluing``
is imported inside ``compute_Z``, so importing this module loads no
operator algebra.
"""

from __future__ import annotations

from .exactring import RAT_ZERO, TRat
from .phicalc import PhiElem, phi_pow_coeffs


class PrecisionError(ValueError):
    """A genus table needs a higher u-power than its truncation order."""


class SpaceParams:
    """Genus of the base curve and the degrees of the two twisting bundles."""

    __slots__ = ("g", "k1", "k2")

    def __init__(self, g: int, k1: int = 0, k2: int = 0):
        if g < 0:
            raise ValueError("genus must be nonnegative")
        self.g = g
        self.k1 = k1
        self.k2 = k2


def compute_Z(p: SpaceParams) -> PhiElem:
    """The full partition function, summed over all section classes."""
    from .gluing import trace_formula

    return trace_formula(p.g, p.k1, p.k2)


def virtual_dim(p: SpaceParams, n: int) -> int:
    """Virtual dimension D of the moduli of maps in class beta0 + n f; the
    homogeneous t-degree of that class's partition function is -D."""
    return 3 * n - 2 * p.g + 2 + p.k1 + p.k2


def class_component(p: SpaceParams, n: int) -> PhiElem:
    """The class beta0 + n f part of Z: its phi^(k1 + k2 + 3n) term."""
    m = p.k1 + p.k2 + 3 * n
    return PhiElem.term(compute_Z(p).terms.get(m), m)


def support(p: SpaceParams) -> list[int]:
    """All n with a nonzero class component, one per phi power of Z.  A phi
    power m with m != k1 + k2 (mod 3) is an ArithmeticError."""
    out = []
    for m in compute_Z(p).terms:
        n, r = divmod(m - p.k1 - p.k2, 3)
        if r:
            raise ArithmeticError(
                f"phi^{m} term violates the mod-3 grading of Z{(p.g, p.k1, p.k2)}"
            )
        out.append(n)
    return sorted(out)


# The largest u-series truncation order, and the largest h_max, that
# genus_expansion accepts.  The coefficients cost O(h_max^2) steps whatever
# the order: the largest reachable expansion, phi^-204 up to u^196 for
# `genus -g 0 --level1 102 --n -102 --hmax 200 --order 196`, takes 0.6 s.
# That table took 59 s in a fresh process at 1.1 GB peak RSS and printed
# 1.4 GB: 201 rows, each a polynomial of 10,404 terms (CPython 3.11.7, 2
# shared cores).  So what the bound still limits is the row count of --hmax,
# and with it the size of the output.
MAX_ORDER = 200


def genus_expansion(p: SpaceParams, n: int, h_max: int, order: int | None = None) -> list[tuple[int, TRat]]:
    """Fixed-genus invariants of the class beta0 + n f for 0 <= h <= h_max.

    The genus-h invariant is the u^(2h - 2 + D) coefficient of the class
    component c * phi^m, which is c times a coefficient of
    ``phi_pow_coeffs(m, ...)``; the coefficients are computed only up to the
    u-power the table needs.  A negative h_max, or one above MAX_ORDER, is a
    ValueError, checked first: no order makes it legal.  ``order`` only
    validates: an order below that u-power is a PrecisionError, checked
    next, and an order above MAX_ORDER is a ValueError.  Every check runs
    before any work.
    """
    if h_max < 0:
        raise ValueError("h_max must be nonnegative")
    if h_max > MAX_ORDER:
        raise ValueError(f"h_max {h_max} is above the limit {MAX_ORDER}")
    d = virtual_dim(p, n)
    needed = 2 * h_max - 2 + d
    if order is not None and needed > order:
        raise PrecisionError(
            f"insufficient truncation order u^{order}; "
            f"this table needs u^{needed} (raise --order)"
        )
    if order is None:
        order = max(needed, 0)
    if order > MAX_ORDER:
        raise ValueError(f"truncation order u^{order} is above the limit u^{MAX_ORDER}")
    rows = [(h, RAT_ZERO) for h in range(h_max + 1)]
    for m, c in class_component(p, n).items():  # one term at most
        f = phi_pow_coeffs(m, (needed - m) // 2 + 1)
        for h in range(h_max + 1):
            i, odd = divmod(2 * h - 2 + d - m, 2)
            if i >= 0 and not odd:
                # a nonzero rational scale keeps c canonical
                rows[h] = (h, TRat(c.num.scale(f[i]), c.dexp) if f[i] else RAT_ZERO)
    return rows


# The environment variable that earlier versions read for an on-disk cache
# of Z.  Nothing reads it now; perfbench/record_golden.py imports the name
# to clear it.
CACHE_ENV = "GWTQFT_CACHE_DIR"
