"""qeqlab: exact-diagonalization laboratory for observable-entropy
equilibration in isolated quantum systems.

The package evolves finite-dimensional states exactly, computes
entropies relative to measurements, and checks every equilibration and
entropy-deviation inequality it implements against measured dynamics.
"""

__version__ = "0.1.0"

from .bounds import (
    ATOL_BOUND,
    BoundReport,
    asymptotic_observational_bound,
    asymptotic_shannon_bound,
    average_entropy_check,
    averaged_state_entropy_bound,
    equilibration_factor,
    expectation_bound,
    observational_deviation_bound,
    optimal_epsilon,
    population_distance_bound,
    shannon_deviation_bound,
    tail_bound_check,
)
from .dynamics import (
    GapStatistics,
    Trajectory,
    default_time_step,
    effective_dimension,
    equilibrium_state,
    evolve,
    finite_time_average_state,
    gap_statistics,
    time_average_scalar,
)
from .entropy import (
    binary_entropy,
    boltzmann_term,
    g_function,
    observational_continuity_bound,
    observational_entropy,
    shannon_continuity_bound,
    shannon_entropy,
    von_neumann_continuity_bound,
    von_neumann_entropy,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    FitResult,
    PreparedSystem,
    build_system,
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    execute_experiment,
    finite_time_average_curve,
    fit_exponential,
    prepare_system,
    sample_deviations,
    sweep_chain_lengths,
    time_grid,
    window_average,
)
from .linalg import (
    SpectralDecomposition,
    decompose_hermitian,
    frobenius_norm,
    operator_norm,
    trace_norm,
)
from .measurement import (
    Povm,
    ProjectiveMeasurement,
    coarse_grained_state,
    population_distance,
    populations,
    pvm_from_observable,
)
from .models import (
    DensityMatrix,
    PureState,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    pauli,
    precessing_spin,
    spin_bath,
    tilted_ising_chain,
)
from .verify import VerifyConfig, run_verification
