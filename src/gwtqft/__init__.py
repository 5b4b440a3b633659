"""Exact TQFT trace calculus for section-class equivariant Gromov-Witten
partition functions of P2-bundles P(O + L1 + L2) over genus-g curves.

The names in ``__all__`` load their submodule on first use (PEP 562), so a
CLI process compiles only the modules its command runs.
"""

__version__ = "0.1.0"

#: names accepted by ``verify --suite``; kept here so that the CLI can offer
#: them without importing the checks module
SUITES = ("all", "cy", "appendixB", "gluing", "semisimple", "numeric")

_EXPORTS = {
    "exactring": "TPoly TRat",
    "phicalc": "PhiElem phi_pow_coeffs",
    "operators": "build_operator weight mat_power",
    "gluing": "trace_formula",
    "words": "build_cap build_tube build_pants CobordismWord closed_surface_word contract"
    " evaluate_word parse_word split_classes",
    "partition": "virtual_dim class_component genus_expansion",
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    mod = _SOURCE.get(name)
    if mod is None:
        # lets ``from gwtqft import checks`` fall through to the submodule import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{mod}", __name__), name)
    return value
