"""User-facing partition-function API, keyed by (g, k1, k2) as Z(g | k1, k2)
is: the class-by-class refinement of Z, virtual-dimension bookkeeping, and
genus-by-genus invariant tables.  Z itself is ``gluing.trace_formula``.

A class is one power of phi.  The class beta0 + n f part of Z has t-degree
-D = 2g - 2 - k1 - k2 - 3n, and Z has weight 2g - 2, so that its phi^m
coefficient has t-degree 2g - 2 - m (the trace engine checks this weight
on every trace it reads at phi = 1).  So class n is exactly the phi^(k1 + k2 + 3n) term of Z.

A class is read folded, by the recurrences of ``gluing._reader``, which
reject g + |k1| + |k2| above ``gluing.MAX_REQUEST``, and only its one phi
power is re-expanded in t0, t1, t2; Z as a whole is ``trace_formula``'s.
A genus table expands that phi power in u, up to the u-power the table
needs and no further.  ``gluing`` is imported inside ``class_component``,
so importing this module loads no operator algebra.
"""

from __future__ import annotations

from .exactring import RAT_ZERO, TRat
from .phicalc import PhiElem, phi_pow_coeffs


def virtual_dim(g: int, k1: int, k2: int, n: int) -> int:
    """Virtual dimension D of the moduli of maps in class beta0 + n f; the
    homogeneous t-degree of that class's partition function is -D."""
    return 3 * n - 2 * g + 2 + k1 + k2


def class_component(g: int, k1: int, k2: int, n: int) -> PhiElem:
    """The class beta0 + n f part of Z: its phi^(k1 + k2 + 3n) term, read
    folded by a fresh ``gluing._reader`` and re-expanded alone, so the
    other phi powers of Z are never re-expanded (nor memoised)."""
    from .gluing import _reader, _unfold

    m = k1 + k2 + 3 * n
    return _unfold(PhiElem.term(_reader()(g, k1, k2).terms.get(m), m))


# The largest u-power, and the largest h_max, that genus_expansion accepts.
# The coefficients cost O(h_max^2) steps: the largest reachable expansion,
# phi^-204 up to u^196 for `genus -g 0 --level1 102 --n -102 --hmax 200`,
# takes 0.6 s.  That table took 59 s in a fresh process at 1.1 GB peak RSS
# and printed 1.4 GB: 201 rows, each a polynomial of 10,404 terms (CPython
# 3.11.7, 2 shared cores).  So what the bound still limits is the row count
# of --hmax, and with it the size of the output.
MAX_ORDER = 200


def genus_expansion(g: int, k1: int, k2: int, n: int, h_max: int) -> list[tuple[int, TRat]]:
    """Fixed-genus invariants of the class beta0 + n f for 0 <= h <= h_max.

    The genus-h invariant is the u^(2h - 2 + D) coefficient of the class
    component c * phi^m.  Since D - m = 2 - 2g, that is c times coefficient
    h - g of ``phi_pow_coeffs(m, ...)`` for h >= g, and zero below; the
    coefficients are computed only up to the u-power the table needs.  A
    negative g, a negative h_max, an h_max above MAX_ORDER and a table that
    needs a u-power above MAX_ORDER are each a ValueError, checked in that
    order and before any work.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if h_max < 0:
        raise ValueError("h_max must be nonnegative")
    if h_max > MAX_ORDER:
        raise ValueError(f"h_max {h_max} is above the limit {MAX_ORDER}")
    needed = 2 * h_max - 2 + virtual_dim(g, k1, k2, n)
    if needed > MAX_ORDER:
        raise ValueError(f"this table needs u^{needed}, above the limit u^{MAX_ORDER}")
    rows = [(h, RAT_ZERO) for h in range(h_max + 1)]
    for m, c in class_component(g, k1, k2, n).items():  # one term at most
        for i, f in enumerate(phi_pow_coeffs(m, h_max - g + 1)):
            # a nonzero rational scale keeps c canonical
            rows[g + i] = (g + i, TRat(c.num.scale(f), c.dexp) if f else RAT_ZERO)
    return rows


# The environment variable that earlier versions read for an on-disk cache
# of Z.  Nothing reads it now; perfbench/record_golden.py imports the name
# to clear it.
CACHE_ENV = "GWTQFT_CACHE_DIR"
