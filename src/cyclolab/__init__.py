"""cyclolab: exact flatness of sparse exponential sums on roots of unity,
equidistribution counting on the torus, radical Galois orbits, Weil
heights and Kummer failure constants, at desk scale.

Importing the package loads no layer: each public name below loads its
submodule the first time it is read, through the module ``__getattr__`` of
PEP 562, and is then cached here.  No submodule loads numpy on import; the
numeric functions import it when they run, so exact work never pays for it.
``import cyclolab.cli`` stays lighter still, so a command pays only for the
code it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_LAYERS = {
    "cyclotomic": ("CyclotomicNumber", "cyclotomic_polynomial", "zeta", "rational"),
    "flatsums": (
        "SparseExpSum", "exact_sum", "numeric_sum", "chirp", "validate_definition",
        "grouped_autocorrelation", "is_flat", "exponent_bound_scan", "dirichlet_approx",
        "reduce_instance", "flat_search", "sn_upper_bound", "sn_survey",
        "known_member_witness",
    ),
    "equidist": (
        "RootTupleOrbit", "Arc", "ArcBox", "relation_lattice", "strictness_window",
        "orbit_period", "weyl_sum", "arc_count",
    ),
    "heights": (
        "AlgebraicNumber", "weil_height", "mahler_measure", "power_transform",
        "is_root_of_unity", "radical_height",
    ),
    "kummer": (
        "KummerQuery", "sqrt_in_cyclotomic", "rank1_failure", "tower_degrees",
        "root_membership_oracle",
    ),
    "radical": (
        "RadicalContext", "RadicalSum", "GaloisElement", "apply_galois", "orbit_moduli",
        "cosine_expansion", "d_gamma_eps", "marginal_orbit_stats", "sigma_search",
        "normalize_terms", "factor_out_division_point", "exponent_relation_basis",
        "term_energy_profile", "parse_radical_sum",
    ),
    "lattice": (),
}
_EXPORTS = {name: module for module, names in _LAYERS.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _LAYERS:  # `cyclolab.kummer` after a bare `import cyclolab`
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_LAYERS, *_EXPORTS})
