"""Numerical laboratory for spectra of random matrices arising from the
Ihara zeta determinant formula on long-range percolation graphs."""

from .percolation import (
    AdjacencySample,
    Profile,
    ProfileFamily,
    build_h,
    circuit_rank_term,
    offset_probabilities,
    sample_adjacency,
)
from .spectra import (
    SpectralSummary,
    counting_function,
    eigenvalue_summary,
    log_det_density,
    log_prefactor_density,
    neg_log_zeta_density,
    trace_moments,
)
from .moments import (
    adjacency_moments,
    catalan_moment,
    extended_binomial,
    limit_moments,
    tree_weight_split,
    weighted_adjacency_sum,
)
from .walks import (
    Walk,
    enumerate_tree_walks,
    oracle_moment,
    oracle_tree_weight,
)
from .zeta import (
    ReciprocalZeta,
    count_closed_paths,
    series_consistency,
    zeta_reciprocal_polynomial,
)
from .limits import (
    gauss_rule_from_moments,
    log_zeta_limit,
    semicircle_density,
    semicircle_log_integral,
    semicircle_moment,
    stieltjes_transform,
)

__version__ = "0.1.0"
