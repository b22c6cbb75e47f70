"""Numerical laboratory for two-sided L_p bounds on sums of products.

The objects of study are sums sum_i v_i R_i where R_0 = 1 and R_i is the
running product X_1 ... X_i of i.i.d. factors.  The package fits the
hypothesis certificates (moment ratios, window masses, truncation levels),
derives the explicit sandwich constants with full derivation traces, and
verifies the resulting bounds by exact enumeration, quadrature, and seeded
Monte Carlo -- including the perpetuity partial sums S_n = sum R_{i-1} B_i
and the torus-side Riesz product comparison.
"""

__version__ = "0.1.0"

from .assumptions import (
    DEFAULT_A_GRID_LARGE,
    DEFAULT_A_GRID_SMALL,
    LargePCertificate,
    NondegeneracyReport,
    PairSpec,
    SmallPCertificate,
    check_pair_nondegeneracy,
    default_q_grid,
    delta_window,
    fit_large_p,
    fit_small_p,
    verify_large_p,
    verify_small_p,
)
from .constants import (
    ConstantBundle,
    dependent_upper_constant,
    lower_constant_large_p,
    lower_constant_small_p,
    minimal_k,
    optimize_large_p,
    optimize_small_p,
    upper_constant_large_p,
)
from .dist_core import (
    DistributionSpec,
    MomentEstimate,
    RandomSource,
    abs_moment,
    exponential,
    finitely_supported,
    is_degenerate_modulus,
    log_normal,
    normalize_unit_p_moment,
    parse_spec,
    quantile,
    rademacher_sign,
    riesz_factor,
    sample,
    scaled_copy,
    spec_to_text,
    two_point,
    uniform,
)
from .errors import (
    ChainLengthMismatchError,
    DegenerateModulusError,
    DegenerateZeroError,
    EmptyWindowError,
    EnumerationTooLargeError,
    HypothesisError,
    InvalidOrderError,
    KTooLargeError,
    MomsandError,
    NonfiniteMomentError,
    NotIncreasingError,
    NotLacunaryError,
    NotNormalizedError,
    NoValidQError,
    TooFewPointsError,
    UsageError,
)
from .montecarlo import (
    CoefficientSet,
    EstimateWithCI,
    GoldieBracketRow,
    SandwichReport,
    bracket_constants,
    brute_force_lhs,
    brute_force_perpetuity,
    coefficient_set,
    enumerate_lhs_distribution,
    estimate_lhs,
    goldie_bracket,
    khintchine_counterexample,
    perpetuity_lhs,
    rhs_sum,
    run_sandwich,
    tail_check_large_p,
    tail_check_small_p,
)
from .riesz import (
    LacunarySequence,
    QuadResult,
    RieszCombination,
    check_lacunary,
    corollary_check,
    corollary_ratio_scan,
    riesz_eval,
    riesz_lp_norm,
)
