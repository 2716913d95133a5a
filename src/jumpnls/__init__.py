"""Spectral Galerkin simulation of nonlinear Schrodinger dynamics with jump noise.

Modules
-------
spectral     mode tables, fast transforms, dyadic truncation levels, norms
nonlinear    power nonlinearities and their potential functional
noise        jump measures, moments, Poisson sampling, seed streams
jumps        assembled noise operators, jump maps, difference bounds
solver       drift assembly, steppers, trajectory and coupled simulation
diagnostics  energy reports, path modulus, ensemble statistics
config       INI run descriptions, presets, canonical text and hashing
verify       self-contained numerical check battery
cli          command line entry points (simulate / converge / verify / moments)
"""

from .exceptions import ConfigurationError, NumericsError, ShapeError
from .spectral import (
    Domain,
    GalerkinLevel,
    SpectralModel,
    apply_projection,
    apply_smoothing,
    build_level,
    build_spectral_model,
    cutoff_multiplier,
    embed,
    interval_dirichlet,
    interval_neumann,
    mihlin_suprema,
    sobolev_norm,
    torus_1d,
    torus_2d,
    transition_profile,
)
from .nonlinear import Nonlinearity, defocusing, eval_F, eval_Fhat, focusing
from .noise import (
    AtomicMeasure,
    JumpEvent,
    NoiseMoments,
    RadialStableMeasure,
    sample_prm,
    trajectory_rng,
    trajectory_seed,
)
from .jumps import (
    NoiseOperators,
    assemble_noise_operators,
    generator,
    jump_difference_1,
    jump_difference_2,
    jump_map,
    marcus_flow,
)
from .solver import (
    CoupledResult,
    GalerkinProblem,
    JumpFreePath,
    SolverConfig,
    TrajectoryRecord,
    build_problem,
    drift,
    renormalize_initial,
    simulate,
    simulate_coupled,
    step_between_jumps,
)
from .diagnostics import (
    EnergyReport,
    aldous_statistic,
    cadlag_modulus,
    energy,
    energy_derivative,
    ensemble_moments,
)
from .config import (
    RunSpec,
    build_problem_from_spec,
    canonical_text,
    config_hash,
    parse_config,
)
from .verify import check_names, run_checks

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "ConfigurationError",
    "CoupledResult",
    "Domain",
    "EnergyReport",
    "GalerkinLevel",
    "GalerkinProblem",
    "JumpEvent",
    "JumpFreePath",
    "NoiseMoments",
    "NoiseOperators",
    "Nonlinearity",
    "NumericsError",
    "RadialStableMeasure",
    "RunSpec",
    "ShapeError",
    "SolverConfig",
    "SpectralModel",
    "TrajectoryRecord",
    "aldous_statistic",
    "apply_projection",
    "apply_smoothing",
    "assemble_noise_operators",
    "build_level",
    "build_problem",
    "build_problem_from_spec",
    "build_spectral_model",
    "cadlag_modulus",
    "canonical_text",
    "check_names",
    "config_hash",
    "cutoff_multiplier",
    "defocusing",
    "drift",
    "embed",
    "energy",
    "energy_derivative",
    "ensemble_moments",
    "eval_F",
    "eval_Fhat",
    "focusing",
    "generator",
    "interval_dirichlet",
    "interval_neumann",
    "jump_difference_1",
    "jump_difference_2",
    "jump_map",
    "marcus_flow",
    "mihlin_suprema",
    "parse_config",
    "renormalize_initial",
    "run_checks",
    "sample_prm",
    "simulate",
    "simulate_coupled",
    "sobolev_norm",
    "step_between_jumps",
    "torus_1d",
    "torus_2d",
    "trajectory_rng",
    "trajectory_seed",
    "transition_profile",
]
