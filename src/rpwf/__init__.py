"""Rescaled Polya urns, their diffusion scaling family, and the k-allele
Wright-Fisher limit with mutation: simulation, spectral analytics, boundary
theory and a statistical convergence harness."""

from .boundary import (
    BoundaryType,
    IntervalProblem,
    classify_boundary,
    expected_cost,
    green_function,
    group_to_1d,
    hitting_prob,
    is_dominant,
    is_recessive,
    mean_exit_time,
    return_ratio_density,
    scale_function,
    speed_density,
)
from .errors import ValidationError
from .polynomials import (
    GammaWeights,
    MultiIndexPolynomial,
    apply_generator,
    basis_jacobi,
    basis_monic,
    basis_rodrigues,
    eigenvalue_lambda,
    eigenvalue_nu,
)
from .rng import StreamKey
from .scaling import (
    Partition,
    RescaledPath,
    ScaledFamilyParams,
    build_family_member,
    eps_delta,
    project_group,
    rescale_time,
)
from .spectral import dirichlet_density, forward_equation_residual, transition_density
from .stats import (
    ConvergenceConfig,
    ConvergenceReport,
    KsReport,
    chi_squared_stat,
    convergence_experiment,
    empirical_mean,
    ks_one_sample,
    ks_two_sample,
)
from .urn import (
    DrawOutcome,
    UrnParams,
    UrnState,
    UrnTrajectory,
    closed_form_B,
    increment_decomposition,
    new_urn,
    predictive_mean,
    simulate_urn,
    step,
    total_balls,
)
from .wright_fisher import (
    OneDimWf,
    PathRecord,
    SdeConfig,
    WfParams,
    drift,
    mean_ode,
    sigma,
    simulate_marginal_1d,
    simulate_wf,
)

__version__ = "0.1.0"
