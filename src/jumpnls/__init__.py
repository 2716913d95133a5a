"""Spectral Galerkin simulation of nonlinear Schrodinger dynamics with jump noise.

Modules
-------
spectral     mode tables, fast transforms on numpy.fft, dyadic truncation levels,
             level norms
nonlinear    power nonlinearities and their potential functional
noise        jump measures, moments, Poisson jump paths, seed streams
jumps        noise operators, jump maps and differences
solver       drift assembly with the atomic compensator, steppers, trajectory
             and coupled simulation
diagnostics  ensemble statistics of a run
config       INI run descriptions, presets, canonical text and hashing
oracles      references no run reads: norms, dense operators, RK4 Marcus
             flow, energy, path modulus, Levy path, Gauss-Legendre radial
             quadrature
verify       self-contained numerical check battery
cli          command line entry points (simulate / converge / verify / moments)

The package needs numpy alone.  The public names below are imported from
their module on first access (PEP 562), so ``import jumpnls`` loads none of
the modules and each command loads only the ones it runs.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the module that defines it
_EXPORTS = {
    "ConfigurationError": "exceptions",
    "NumericsError": "exceptions",
    "ShapeError": "exceptions",
    "Domain": "spectral",
    "GalerkinLevel": "spectral",
    "SpectralModel": "spectral",
    "apply_projection": "spectral",
    "apply_smoothing": "spectral",
    "build_level": "spectral",
    "build_spectral_model": "spectral",
    "cutoff_multiplier": "spectral",
    "embed": "spectral",
    "interval_dirichlet": "spectral",
    "interval_neumann": "spectral",
    "torus_1d": "spectral",
    "torus_2d": "spectral",
    "transition_profile": "spectral",
    "Nonlinearity": "nonlinear",
    "defocusing": "nonlinear",
    "eval_F": "nonlinear",
    "eval_Fhat": "nonlinear",
    "focusing": "nonlinear",
    "AtomicMeasure": "noise",
    "JumpPath": "noise",
    "NoiseMoments": "noise",
    "RadialStableMeasure": "noise",
    "sample_prm": "noise",
    "trajectory_rng": "noise",
    "trajectory_seed": "noise",
    "NoiseOperators": "jumps",
    "assemble_noise_operators": "jumps",
    "jump_difference_1": "jumps",
    "jump_difference_2": "jumps",
    "jump_map": "jumps",
    "CoupledResult": "solver",
    "GalerkinProblem": "solver",
    "SolverConfig": "solver",
    "TrajectoryRecord": "solver",
    "converge_ensemble": "solver",
    "drift": "solver",
    "renormalize_initial": "solver",
    "simulate": "solver",
    "simulate_coupled": "solver",
    "simulate_ensemble": "solver",
    "step_between_jumps": "solver",
    "ensemble_moments": "diagnostics",
    "RunSpec": "config",
    "build_problem_from_spec": "config",
    "canonical_text": "config",
    "config_hash": "config",
    "parse_config": "config",
    "EnergyReport": "oracles",
    "cadlag_modulus": "oracles",
    "energy": "oracles",
    "energy_derivative": "oracles",
    "generator": "oracles",
    "marcus_flow": "oracles",
    "mihlin_suprema": "oracles",
    "sobolev_norm": "oracles",
    "check_names": "verify",
    "run_checks": "verify",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # resolved on every access, not cached here, so a name rebound in its
    # module (a patch, a tracer hook) is seen through the package too
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
