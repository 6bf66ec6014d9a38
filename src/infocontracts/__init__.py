"""Contract design for delegated information acquisition under noisy
contractible signals.

The library decides which learning targets a principal can incentivize when
only a noisy experiment about the state is contractible, synthesizes the
family of implementing contracts and the cost-minimizing one, computes the
principal's indirect cost, and compares contractible experiments under the
Blackwell, column-space, conic-span, and (binary-binary) indirect-cost
orders.  An independent agent-side solver, exact and certified under entropy
and quadratic costs, cross-checks every verdict; it refuses any other cost.
"""

from .contracts import (
    BinaryRentProfile,
    Contract,
    ContractFamily,
    CostReport,
    binary_rent_profile,
    expected_payment,
    first_best_contract,
    optimal_contract,
    rowmin,
    synthesize_family,
)
from .costs import (
    PosteriorCost,
    cost_from_dict,
    custom_cost,
    entropy_cost,
    marginal_cost_matrix,
    quadratic_cost,
    total_cost,
)
from .errors import (
    BoundaryMarginalCostError,
    DegenerateExperimentError,
    DimensionMismatchError,
    InputError,
    NotImplementableError,
    SolverFailureError,
)
from .experiments import (
    Belief,
    Experiment,
    PosteriorDistribution,
    blackwell_compare,
    experiment_from_posteriors,
    has_full_row_rank,
    has_uniform_random_noise,
    is_bayes_plausible,
    posteriors,
)
from .implementability import (
    ImplementabilityReport,
    check_implementable,
    check_no_dominance,
    check_unique_implementable,
    compare_implementable_sets,
)
from .numerics import (
    PseudoInverse,
    column_space_residual,
    matrix_rank,
    pseudo_inverse,
    solve_lp,
)
from .oracle import OracleResult, agent_best_response, simplex_grid, verify_contract
from .orders import (
    OrderVerdict,
    Relation,
    binary_k_compare,
    binary_likelihood_ratios,
    colspace_compare,
    cone_compare,
    k_dominance_sufficient,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
