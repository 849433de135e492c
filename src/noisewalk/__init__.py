"""Coupled random walks on free groups and free semigroups.

A step measure mu on the generators drives a pair walk with tunable
noise: with probability 1 - rho both coordinates move together through
the diagonal coupling of mu, and with probability rho they move
independently.  The package computes the
walk's drift, its asymptotic entropy, the total-variation distance
between the coupled n-step law and that of two independent walks, and
the local dimension of the exit measure on the product boundary, by a
mix of exact convolution arithmetic, closed forms for uniform semigroup
steps, and seeded Monte Carlo.
"""

from .boundary import (
    BoundarySampleSet,
    CylinderTree,
    build_tree,
    dimension_singularity_check,
    local_dimension,
    sample_boundary,
)
from .errors import (
    BudgetError,
    InputError,
    NoiseWalkError,
    TruncationError,
    UnsupportedRegimeError,
    ValidationError,
)
from .estimators import (
    EstimateResult,
    drift_mc,
    entropy_exact_curve,
    entropy_rate_estimate,
    rho_sweep,
    shannon_pointwise,
    tv_exact,
    tv_exact_curve,
    tv_lower_bound_mc,
)
from .measures import (
    ConvolutionLevel,
    FiniteMeasure,
    build_measure,
    build_pi_rho,
    certified_entropy_compare,
    entropy_mass_spec,
    iter_convolution_levels,
    measure_from_json_dict,
    shannon_entropy,
    uniform_letter_count,
    uniform_measure,
)
from .oracle import (
    coupling_weights,
    drift_free_group_srw,
    h_free_group_srw,
    h_semigroup,
    tv_semigroup,
)
from .words import (
    common_prefix_length,
    distance,
    inverse,
    multiply,
    pair_length,
    reduce_word,
    word_length,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySampleSet",
    "BudgetError",
    "ConvolutionLevel",
    "CylinderTree",
    "EstimateResult",
    "FiniteMeasure",
    "InputError",
    "NoiseWalkError",
    "TruncationError",
    "UnsupportedRegimeError",
    "ValidationError",
    "build_measure",
    "build_pi_rho",
    "build_tree",
    "certified_entropy_compare",
    "common_prefix_length",
    "coupling_weights",
    "dimension_singularity_check",
    "distance",
    "drift_free_group_srw",
    "drift_mc",
    "entropy_exact_curve",
    "entropy_mass_spec",
    "entropy_rate_estimate",
    "h_free_group_srw",
    "h_semigroup",
    "inverse",
    "iter_convolution_levels",
    "local_dimension",
    "measure_from_json_dict",
    "multiply",
    "pair_length",
    "reduce_word",
    "rho_sweep",
    "sample_boundary",
    "shannon_entropy",
    "shannon_pointwise",
    "tv_exact",
    "tv_exact_curve",
    "tv_lower_bound_mc",
    "tv_semigroup",
    "uniform_letter_count",
    "uniform_measure",
    "word_length",
]
