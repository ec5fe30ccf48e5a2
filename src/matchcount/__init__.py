"""Exact and randomized counting of bipartite matchings in 0-1 matrices.

The package counts all matchings of a bipartite graph given as a 0-1 matrix
(exactly, via a forward row sweep over used-column sets or a permanent
identity), estimates the count with unbiased single-sample estimators, and
evaluates closed-form moments of the count over random-matrix ensembles with
exact rational arithmetic.  The same sweep gives the profile by matching size
and the exact second moments of both estimators; the docstring of
matchcount.exact tabulates which skip rule and weight select each quantity.

See the README for the CLI.
"""

from .ensembles import (
    EnsembleKind,
    EnsembleSpec,
    enumerate_ensemble,
    matrix_probability,
    sample_matrix,
    support_size,
)
from .errors import (
    CapacityError,
    DomainError,
    EquivalenceViolationError,
    MatchcountError,
    ParseError,
    ShapeError,
    UndefinedRatioError,
)
from .estimators import (
    Method,
    TrialStats,
    amm_trial,
    outcome_distribution,
    rm_trial,
    run_trials,
    transformed_equivalence_check,
)
from .exact import (
    amm_trial_second_moment,
    count_all_matchings,
    count_matchings_via_permanent,
    critical_ratio,
    matching_profile,
    permanent_ryser,
    rm_trial_second_moment,
)
from .matrix import ZeroOneMatrix, build_transformed, read_matrix, write_matrix
from .moments import (
    MeanBounds,
    bernoulli_mean_matchings,
    bernoulli_second_moment,
    bernoulli_second_moment_closed_form,
    carried_majority_tails,
    carried_moments,
    edge_count_mean_matchings,
    edge_count_second_moment,
    ensemble_moment_oracle,
    majority_tail,
    mean_matchings_bounds,
    meets_power_threshold,
    ratio_scan_columns,
    second_moment_diag_lower_bound,
    to_decimal,
)
from .streams import RandomStream

__version__ = "0.1.0"
