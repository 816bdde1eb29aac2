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
    average_entropy_check,
    equilibration_factor,
    expectation_bound,
    observational_deviation_bound,
    optimal_epsilon,
    population_distance_bound,
    shannon_deviation_bound,
    tail_bound_check,
    von_neumann_deviation_bound,
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
    observational_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .harness import (
    ExperimentConfig,
    PreparedSystem,
    SweepConfig,
    build_system,
    chain_system,
    compute_trajectory,
    evaluate_bounds,
    execute_experiment,
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
    trace_norm,
)
from .measurement import (
    Measurement,
    coarse_grained_state,
    population_distance,
    populations,
    povm_from_factors,
    pvm_from_observable,
)
from .models import (
    DensityMatrix,
    PureState,
    ReflectionSector,
    SpinChainParams,
    all_down_state,
    bulk_magnetization,
    pauli,
    precessing_spin,
    reflection_sector,
    spin_bath,
    tilted_ising_chain,
)
from .verify import VerifyConfig, run_verification
