"""Exact TQFT trace calculus for section-class equivariant Gromov-Witten
partition functions of P2-bundles P(O + L1 + L2) over genus-g curves."""

__version__ = "0.1.0"

#: names accepted by ``verify --suite``; kept here so that the CLI can offer
#: them without importing the checks module
SUITES = ("all", "cy", "appendixB", "gluing", "semisimple", "numeric")

from .exactring import TPoly, TRat, parse_poly, parse_rat
from .phicalc import PhiElem, USeries, phi_expansion, phi_pow_series, to_useries
from .operators import build_cap, build_tube, build_pants, build_operator, weight
from .gluing import (
    CobordismWord,
    closed_surface_word,
    contract,
    contract_refined,
    evaluate_word,
    mat_power,
    parse_word,
    self_glue,
    trace_formula,
)
from .partition import (
    SpaceParams,
    class_component,
    compute_Z,
    genus_expansion,
    support,
    virtual_dim,
)

__all__ = [
    "TPoly",
    "TRat",
    "parse_poly",
    "parse_rat",
    "PhiElem",
    "USeries",
    "phi_expansion",
    "phi_pow_series",
    "to_useries",
    "build_cap",
    "build_tube",
    "build_pants",
    "build_operator",
    "weight",
    "CobordismWord",
    "closed_surface_word",
    "contract",
    "contract_refined",
    "evaluate_word",
    "mat_power",
    "parse_word",
    "self_glue",
    "trace_formula",
    "SpaceParams",
    "compute_Z",
    "virtual_dim",
    "class_component",
    "support",
    "genus_expansion",
    "__version__",
]
