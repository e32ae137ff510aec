"""cyclolab: exact flatness of sparse exponential sums on roots of unity,
equidistribution counting on the torus, radical Galois orbits, Weil
heights and Kummer failure constants, at desk scale."""

__version__ = "0.1.0"

from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta, rational  # noqa: F401
from .flatsums import (  # noqa: F401 (re-exported)
    SparseExpSum,
    exact_sum,
    numeric_sum,
    chirp,
    validate_definition,
    grouped_autocorrelation,
    is_flat,
    exponent_bound_scan,
    dirichlet_approx,
    reduce_instance,
    flat_search,
    sn_upper_bound,
    sn_survey,
    known_member_witness,
)
from .equidist import (  # noqa: F401 (re-exported)
    RootTupleOrbit,
    Arc,
    ArcBox,
    relation_lattice,
    strictness_window,
    orbit_period,
    weyl_sum,
    arc_count,
)
from .heights import (  # noqa: F401 (re-exported)
    AlgebraicNumber,
    weil_height,
    mahler_measure,
    power_transform,
    is_root_of_unity,
    radical_height,
)
from .kummer import (  # noqa: F401 (re-exported)
    KummerQuery,
    sqrt_in_cyclotomic,
    rank1_failure,
    tower_degrees,
    root_membership_oracle,
)
from .radical import (  # noqa: F401 (re-exported)
    RadicalContext,
    RadicalSum,
    GaloisElement,
    apply_galois,
    orbit_moduli,
    cosine_expansion,
    d_gamma_eps,
    marginal_orbit_stats,
    sigma_search,
    normalize_terms,
    factor_out_division_point,
    exponent_relation_basis,
    term_energy_profile,
    parse_radical_sum,
)
