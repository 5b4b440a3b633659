"""User-facing partition-function API: the full section-class partition
function Z(g | k1, k2), its class-by-class refinement through homogeneous
t-degrees, virtual-dimension bookkeeping, support computation, and
genus-by-genus invariant tables.

``gluing`` is imported only on a memo miss, so a Z read from the disk cache
needs no operator algebra.
"""

from __future__ import annotations

import json
import os

from .exactring import TRat
from .phicalc import PhiElem, to_useries


class SpaceParams:
    """Genus of the base curve and the degrees of the two twisting bundles."""

    __slots__ = ("g", "k1", "k2")

    def __init__(self, g: int, k1: int = 0, k2: int = 0):
        if g < 0:
            raise ValueError("genus must be nonnegative")
        self.g = g
        self.k1 = k1
        self.k2 = k2


_memo: dict[tuple[int, int, int], PhiElem] = {}


def compute_Z(p: SpaceParams) -> PhiElem:
    """The full partition function, summed over all section classes."""
    key = (p.g, p.k1, p.k2)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    from .gluing import trace_formula

    z = _memo[key] = trace_formula(p.g, p.k1, p.k2)
    return z


def virtual_dim(p: SpaceParams, n: int) -> int:
    """Virtual dimension D of the moduli of maps in class beta0 + n f; the
    homogeneous t-degree of that class's partition function is -D."""
    return 3 * n - 2 * p.g + 2 + p.k1 + p.k2


def class_degree(p: SpaceParams, n: int) -> int:
    return -virtual_dim(p, n)


def class_component(p: SpaceParams, n: int) -> PhiElem:
    """The class beta0 + n f part of Z: the homogeneous t-degree
    (2g - 2 - k1 - k2 - 3n) component of every coefficient."""
    return compute_Z(p).homogeneous_component(class_degree(p, n))


def support(p: SpaceParams) -> list[int]:
    """All n with a nonzero class component, from the full homogeneous
    decomposition of every coefficient of Z."""
    base = 2 * p.g - 2 - p.k1 - p.k2
    out = set()
    for d in compute_Z(p).t_degrees():
        rem = base - d
        if rem % 3 != 0:
            raise ArithmeticError(
                f"degree {d} component violates the mod-3 grading of Z{(p.g, p.k1, p.k2)}"
            )
        out.add(rem // 3)
    return sorted(out)


def genus_expansion(p: SpaceParams, n: int, h_max: int, order: int | None = None) -> list[tuple[int, TRat]]:
    """Fixed-genus invariants of the class beta0 + n f for 0 <= h <= h_max.

    The genus-h invariant is the u^(2h - 2 + D) coefficient of the class
    component.  ``order`` may force a truncation horizon; it must cover the
    requested range.
    """
    if h_max < 0:
        raise ValueError("h_max must be nonnegative")
    d = virtual_dim(p, n)
    needed = 2 * h_max - 2 + d
    if order is None:
        order = max(needed, 0)
    comp = class_component(p, n)
    series = to_useries(comp, order)
    return [(h, series.coeff(2 * h - 2 + d)) for h in range(h_max + 1)]


# -- optional on-disk memo table ---------------------------------------------

CACHE_ENV = "GWTQFT_CACHE_DIR"
_CACHE_FILE = "zcache.json"


def cache_path() -> str | None:
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    return os.path.join(root, _CACHE_FILE)


def load_cache(path: str | None = None) -> int:
    """Preload the memo table from a plain JSON file; returns entries read.

    Every entry is parsed and its grading checked before any reaches the
    memo, so a file that fails anywhere, or cannot be read, raises
    ValueError and leaves the memo as it was.
    """
    path = path or cache_path()
    if not path or not os.path.exists(path):
        return 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read cache file {path}: {exc}") from None
    loaded: dict[tuple[int, int, int], PhiElem] = {}
    try:
        for item in data.get("entries", []):
            key = (int(item["g"]), int(item["k1"]), int(item["k2"]))
            loaded[key] = z = PhiElem.from_json_terms(item["terms"])
            for m, c in z.terms.items():
                # Z is weighted-homogeneous: phi^m carries t-degree 2g - 2 - m
                deg = 2 * key[0] - 2 - m
                if {a + b + d for a, b, d in c.num.terms} - {deg + sum(c.dexp)}:
                    raise ValueError(
                        f"mis-graded cache file {path}: the phi^{m} coefficient of "
                        f"Z{key} is not homogeneous of t-degree {deg}"
                    )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed cache file {path}: {exc!r}") from None
    _memo.update(loaded)
    return len(loaded)


def save_cache(path: str | None = None) -> int:
    """Write the memo table out as a plain JSON file; returns entries written.

    The table goes to a temporary file beside ``path`` that then replaces
    it, so a reader never sees a half-written cache.  A file that cannot be
    written raises ValueError.
    """
    path = path or cache_path()
    if not path:
        return 0
    entries = [
        {"g": g, "k1": k1, "k2": k2, "terms": z.to_json_terms()}
        for (g, k1, k2), z in sorted(_memo.items())
    ]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"entries": entries}, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write cache file {path}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return len(entries)
