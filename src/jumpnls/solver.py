"""Jump-adapted time stepping for the truncated dynamics.

Between jumps the state follows the drift

    du/dt = -i A u - i F_n(u) + i B_n(m) u + D(u),

where ``m`` is the mean of the simulated jump marks, and ``D`` closes the
compensator of the jumps below the simulation cutoff (second-order Taylor
form, or exact per-atom form for purely atomic measures).  Both noise terms
are linear in ``u``, so each run sums them once into a single level matrix.
At each sampled jump the state is pushed through the unitary time-1 flow
``exp(-i B(l))``.

Two steppers are provided.  ``FaithfulMidpoint`` treats the diagonal part
exactly (half-step phase factors) and applies the implicit midpoint rule to
the remaining non-stiff drift, so mass is conserved to the fixed-point
tolerance and the pure-diagonal flow is reproduced to rounding.  ``SplitStep``
composes half-step phases with an exact pointwise gauge rotation for the
nonlinearity and an explicit Euler substep for the noise drift; it is cheaper
and first-order accurate in the mass budget, second order in the state.

``simulate`` and ``simulate_coupled`` run one loop that advances a list of
levels together over the shared jump-adapted grid.  A coupled run adds its
dual-norm distance node by node, so it holds no state history.

Each problem keeps one drift workspace per closure, built on first use: the
folded noise matrix and the level's transform pair from
``SpectralModel.transform_pair``.  The step loop evaluates the nonlinearity
and records the energy through that pair, without the per-call checks and
lookups of ``synthesize``/``analyze`` or ``eval_F``/``eval_Fhat``; the
fixed-point iteration counts live in the run, not in the workspace.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import ConfigurationError, NumericsError, ShapeError
from .jumps import (
    NoiseOperators,
    assemble_noise_operators,
    difference_2_matrix,
    generator,
    jump_map,
)
from .noise import AtomicMeasure, JumpEvent
from .nonlinear import Nonlinearity, _pointwise_power, validate_exponent
from .spectral import (
    GalerkinLevel,
    SpectralModel,
    _check_memory,
    apply_smoothing,
    build_level,
)

MODE_MIDPOINT = "FaithfulMidpoint"
MODE_SPLITSTEP = "SplitStep"
CLOSURE_TAYLOR2 = "Taylor2"
CLOSURE_ATOMIC = "AtomicExact"

_CLOSURES = (CLOSURE_TAYLOR2, CLOSURE_ATOMIC)


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    mode: str = MODE_MIDPOINT
    dt: float = 1e-3
    closure: str = CLOSURE_TAYLOR2
    fp_tol: float = 1e-12
    max_fp_iters: int = 100
    max_halvings: int = 20

    def __post_init__(self):
        if self.mode not in _STEPPERS:
            raise ConfigurationError(
                f"mode must be one of {tuple(_STEPPERS)}, got {self.mode!r}"
            )
        if self.closure not in _CLOSURES:
            raise ConfigurationError(
                f"closure must be one of {_CLOSURES}, got {self.closure!r}"
            )
        if not (self.dt > 0):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (self.fp_tol > 0):
            raise ConfigurationError(f"fp_tol must be positive, got {self.fp_tol}")
        if self.max_fp_iters < 1:
            raise ConfigurationError("max_fp_iters must be at least 1")
        if self.max_halvings < 0:
            raise ConfigurationError("max_halvings must be nonnegative")


@dataclasses.dataclass(frozen=True)
class GalerkinProblem:
    """One truncation level with its drift ingredients and initial state.

    ``initial`` holds level coefficients (already smoothed and renormalized);
    ``ops``/``measure`` are None for deterministic runs.
    """

    model: SpectralModel
    level: GalerkinLevel
    horizon: float
    initial: np.ndarray
    nonlinearity: Nonlinearity | None = None
    ops: NoiseOperators | None = None
    measure: object | None = None
    # closure name -> drift workspace, built on first use (see _dynamics)
    _workspaces: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.initial.shape != (self.level.dim,):
            raise ShapeError(
                f"initial state must have {self.level.dim} coefficients, "
                f"got shape {self.initial.shape}"
            )
        if self.measure is not None and self.ops is None:
            raise ConfigurationError("a jump measure requires noise operators")
        if self.ops is not None and self.measure is not None:
            if self.measure.dimension != self.ops.num_channels:
                raise ConfigurationError(
                    f"measure has {self.measure.dimension} mark components but "
                    f"{self.ops.num_channels} noise channels are assembled"
                )


def renormalize_initial(
    model: SpectralModel, level: GalerkinLevel, initial_full: np.ndarray
) -> np.ndarray:
    """Smooth-truncate full-space data onto the level, restoring its H norm.

    Returns S_n u0 scaled so its norm equals ||u0||; the zero vector if the
    truncation annihilates u0 entirely.
    """
    initial_full = np.asarray(initial_full, dtype=complex)
    smoothed = apply_smoothing(level, initial_full)
    norm_full = float(np.linalg.norm(initial_full))
    norm_smoothed = float(np.linalg.norm(smoothed))
    if norm_smoothed == 0.0:
        return np.zeros(level.dim, dtype=complex)
    return smoothed * (norm_full / norm_smoothed)


def build_problem(
    model: SpectralModel,
    level_n: int,
    initial_full: np.ndarray,
    horizon: float,
    nonlinearity: Nonlinearity | None = None,
    symbols: np.ndarray | None = None,
    measure=None,
) -> GalerkinProblem:
    """Assemble level and noise operators for one truncation."""
    level = build_level(model, level_n)
    if nonlinearity is not None:
        validate_exponent(nonlinearity, model.domain.dimension, model.beta)
    ops = None
    if symbols is not None:
        symbols = np.atleast_2d(np.asarray(symbols, dtype=float))
        ops = assemble_noise_operators(model, level, symbols)
    initial = renormalize_initial(model, level, initial_full)
    return GalerkinProblem(
        model=model,
        level=level,
        horizon=float(horizon),
        initial=initial,
        nonlinearity=nonlinearity,
        ops=ops,
        measure=measure,
    )


# ---------------------------------------------------------------------------
# drift assembly
# ---------------------------------------------------------------------------

def check_closure(closure: str, measure) -> None:
    """Reject the AtomicExact closure for a jump measure that is not atomic."""
    if (closure == CLOSURE_ATOMIC and measure is not None
            and not isinstance(measure, AtomicMeasure)):
        raise ConfigurationError(
            "AtomicExact closure needs an atomic jump measure; "
            "use Taylor2 for measures with infinitely many small jumps"
        )


class _Dynamics:
    """Drift workspace of one level and closure, built once per problem.

    On a level every noise term of the drift is linear in the state: the
    compensated mean ``i B_n(m)``, the Taylor2 closure
    ``-1/2 sum_mn cov[m, n] M_m M_n`` or the AtomicExact compensator
    ``sum_a w_a (exp(-i B(l_a)) - 1 + i B(l_a))``.  They are summed once into
    ``noise_matrix`` (None when no term is present), so each drift
    evaluation costs one matvec for the noise.  The nonlinearity goes
    through the level's transform pair (``SpectralModel.transform_pair``),
    bound here, so it costs two transforms and the pointwise power.  The
    workspace holds no per-run state.
    """

    def __init__(self, problem: GalerkinProblem, config: SolverConfig):
        model, idx = problem.model, problem.level.indices
        self.lam = model.eigenvalues_A[idx]
        self.nl = problem.nonlinearity
        self.to_grid, self.from_grid = model.transform_pair(idx)
        self.grid_weights = model.grid_weights
        self.noise_matrix = None

        ops = problem.ops
        if ops is not None and problem.measure is not None:
            moments = problem.measure.moments()
            terms = []
            if np.any(moments.mean_simulated != 0.0):
                terms.append(1j * generator(ops, moments.mean_simulated))
            if config.closure == CLOSURE_TAYLOR2:
                cov = moments.second_moment_small
                if np.any(cov != 0.0):
                    mats = ops.matrices
                    closure = sum(cov[m, n] * (mats[m] @ mats[n])
                                  for m, n in np.argwhere(cov != 0.0))
                    terms.append(-0.5 * closure)
            else:
                check_closure(config.closure, problem.measure)
                marks, weights = problem.measure.small_atoms()
                if len(weights) > 0:
                    terms.append(difference_2_matrix(ops, marks, weights))
            if terms:
                self.noise_matrix = sum(terms)

        self.has_remainder = self.nl is not None or self.noise_matrix is not None

    def half_phase(self, tau: float) -> np.ndarray:
        return np.exp(-0.5j * tau * self.lam)

    def noise_drift(self, state: np.ndarray) -> np.ndarray:
        if self.noise_matrix is None:
            return np.zeros_like(state)
        return self.noise_matrix @ state

    def remainder(self, state: np.ndarray) -> np.ndarray:
        """All drift terms except the diagonal -i*lambda_A part."""
        if self.nl is None:
            return self.noise_drift(state)
        power = _pointwise_power(self.to_grid(state), self.nl.alpha)
        nonlinear = (-1j * self.nl.sign) * self.from_grid(power)
        if self.noise_matrix is None:
            return nonlinear
        return self.noise_matrix @ state + nonlinear

    def drift(self, state: np.ndarray) -> np.ndarray:
        return -1j * (self.lam * state) + self.remainder(state)

    def potential(self, state: np.ndarray) -> float:
        """The antiderivative functional ``eval_Fhat`` at ``state``."""
        amp = np.abs(self.to_grid(state))
        integral = self.grid_weights @ amp ** (self.nl.alpha + 1.0)
        return self.nl.sign * float(integral) / (self.nl.alpha + 1.0)


def _dynamics(problem: GalerkinProblem, config: SolverConfig) -> _Dynamics:
    """The problem's workspace for ``config.closure``, built on first use."""
    dyn = problem._workspaces.get(config.closure)
    if dyn is None:
        dyn = problem._workspaces[config.closure] = _Dynamics(problem, config)
    return dyn


def _level_state(problem: GalerkinProblem, state) -> np.ndarray:
    """``state`` as a complex vector, checked against the level dimension."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (problem.level.dim,):
        raise ShapeError(
            f"state must have {problem.level.dim} coefficients, got {state.shape}"
        )
    return state


def drift(problem: GalerkinProblem, config: SolverConfig, state: np.ndarray) -> np.ndarray:
    """Full drift vector field at ``state`` (level coefficients)."""
    state = _level_state(problem, state)
    # an overflowing power reads as inf, without a warning, as in eval_F
    with np.errstate(over="ignore", invalid="ignore"):
        return _dynamics(problem, config).drift(state)


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def _midpoint_remainder(dyn: _Dynamics, state, tau, config, depth=0):
    """Implicit midpoint step for the non-diagonal drift, with halving fallback.

    Iterates d_{k+1} = r(u + (tau/2) d_k); the increment criterion bounds the
    state change per iteration, so the per-step mass defect is
    O(tau * fp_tol * |r|).  Returns the new state and the largest iteration
    count of its converged substeps.
    """
    if not dyn.has_remainder:
        return state, 0
    scale = max(1.0, _norm(state))
    # a diverging iterate may overflow through the nonlinearity; the inf/nan
    # gap simply reads as non-converged and the clean-state halving below
    # takes over, so the intermediate arithmetic warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        d = dyn.remainder(state)
        for iteration in range(config.max_fp_iters):
            d_next = dyn.remainder(state + (0.5 * tau) * d)
            gap = _norm(d_next - d)
            d = d_next
            if tau * gap <= config.fp_tol * scale:
                return state + tau * d, iteration + 1
    if depth >= config.max_halvings:
        raise NumericsError(
            f"midpoint iteration failed to converge at tau={tau:.3e} "
            f"after {config.max_halvings} halvings"
        )
    half, first = _midpoint_remainder(dyn, state, 0.5 * tau, config, depth + 1)
    end, second = _midpoint_remainder(dyn, half, 0.5 * tau, config, depth + 1)
    return end, max(first, second)


def _step_midpoint(dyn: _Dynamics, state, tau, config):
    phase = dyn.half_phase(tau)
    mid, iterations = _midpoint_remainder(dyn, phase * state, tau, config)
    return phase * mid, iterations


def _step_splitstep(dyn: _Dynamics, state, tau, config):
    phase = dyn.half_phase(tau)
    v = phase * state
    if dyn.nl is not None:
        values = dyn.to_grid(v)
        rotation = np.exp(
            -1j * tau * dyn.nl.sign * np.abs(values) ** (dyn.nl.alpha - 1)
        )
        v = dyn.from_grid(values * rotation)
    if dyn.noise_matrix is not None:
        v = v + tau * (dyn.noise_matrix @ v)
    return phase * v, 0


#: mode name -> stepper; the keys, in this order, are the accepted modes
_STEPPERS = {MODE_MIDPOINT: _step_midpoint, MODE_SPLITSTEP: _step_splitstep}


def step_between_jumps(
    problem: GalerkinProblem,
    config: SolverConfig,
    state: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Advance one step of length ``tau`` using the configured stepper."""
    if not (tau > 0):
        raise ConfigurationError(f"step size must be positive, got {tau}")
    state = _level_state(problem, state)
    return _STEPPERS[config.mode](_dynamics(problem, config), state, tau, config)[0]


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class TrajectoryRecord:
    """One simulated path sampled on the jump-adapted grid (cadlag: the value
    recorded at a jump time is the post-jump state)."""

    level_n: int
    ea_weights: np.ndarray
    times: np.ndarray
    states: np.ndarray | None
    mass: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    energy: np.ndarray
    ea_norm: np.ndarray
    events: list[JumpEvent]
    fp_iters_max: int = 0


def _time_grid(horizon: float, dt: float, event_times, bytes_per_node: int) -> np.ndarray:
    """Uniform nodes of step ``dt`` joined with the event times.

    Refuses a grid whose ``bytes_per_node`` estimate exceeds physical memory.
    """
    n_steps = max(1, np.ceil(horizon / dt - 1e-9))   # inf when horizon/dt overflows
    nodes = n_steps + 1 + len(event_times)
    _check_memory(bytes_per_node * nodes,
                  f"the {nodes:.3g} time nodes of horizon {horizon!r} at dt = {dt!r}")
    # sorted, adjacent duplicates dropped: np.union1d without its numpy.ma import
    grid = np.sort(np.concatenate([np.linspace(0.0, horizon, int(n_steps) + 1),
                                   np.asarray(event_times, dtype=float)]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _check_events(problems, events) -> list[JumpEvent]:
    """The jump path the levels share, checked against the horizon and operators."""
    events = list(events)
    times = [e.time for e in events]
    if any(t < 0.0 or t > problems[0].horizon for t in times):
        raise ConfigurationError("jump events must lie within [0, horizon]")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigurationError("jump events must be time-sorted")
    if events and any(p.ops is None for p in problems):
        raise ConfigurationError("jump events supplied without noise operators")
    return events


def _new_record(problem, dyn, grid, events, record_states) -> TrajectoryRecord:
    return TrajectoryRecord(
        level_n=problem.level.n,
        ea_weights=1.0 + dyn.lam,
        times=grid,
        states=(np.zeros((len(grid), problem.level.dim), dtype=complex)
                if record_states else None),
        mass=np.zeros_like(grid),
        kinetic=np.zeros_like(grid),
        potential=np.zeros_like(grid),
        energy=np.zeros_like(grid),
        ea_norm=np.zeros_like(grid),
        events=events,
    )


def _record_node(record: TrajectoryRecord, dyn: _Dynamics, i: int, u) -> None:
    sq = np.abs(u) ** 2
    record.mass[i] = sq.sum()
    record.kinetic[i] = 0.5 * (dyn.lam @ sq)
    if dyn.nl is not None:
        record.potential[i] = dyn.potential(u)
    record.energy[i] = record.kinetic[i] + record.potential[i]
    record.ea_norm[i] = math.sqrt(record.ea_weights @ sq)
    if record.states is not None:
        record.states[i] = u


def _run_levels(problems, config, events, record_states, on_node=None):
    """Advance the levels in lockstep over the shared jump-adapted grid.

    At each node every level steps, applies the jumps due there and records
    (its state too if ``record_states``); ``on_node`` then gets the states.
    """
    times = [e.time for e in events]
    # per node: the grid, ``ends`` and five record columns per level, in
    # float64, plus the complex states when recorded
    bytes_per_node = 8 * (2 + 5 * len(problems))
    if record_states:
        bytes_per_node += 16 * sum(p.level.dim for p in problems)
    grid = _time_grid(problems[0].horizon, config.dt, times, bytes_per_node)
    # the jumps due at node i are events[ends[i - 1]:ends[i]]
    ends = np.searchsorted(times, grid, side="right")
    stepper = _STEPPERS[config.mode]
    dyns = [_dynamics(p, config) for p in problems]
    records = [_new_record(p, d, grid, events, record_states)
               for p, d in zip(problems, dyns)]
    states = [p.initial.astype(complex, copy=True) for p in problems]
    fp_iters_max = [0] * len(problems)

    for i, t in enumerate(grid):
        due = events[ends[i - 1] if i > 0 else 0:ends[i]]
        for k, problem in enumerate(problems):
            u = states[k]
            if i > 0:
                tau = t - grid[i - 1]
                try:
                    u, iterations = stepper(dyns[k], u, tau, config)
                except NumericsError as exc:
                    level = f"level {problem.level.n}: " if len(problems) > 1 else ""
                    raise NumericsError(
                        f"{level}step t={float(grid[i - 1])!r} -> {float(t)!r} "
                        f"(dt={tau:.3e}): {exc}"
                    ) from exc
                fp_iters_max[k] = max(fp_iters_max[k], iterations)
            for event in due:
                u = jump_map(problem.ops, event.mark, u)
            _record_node(records[k], dyns[k], i, u)
            states[k] = u
        if on_node is not None:
            on_node(states)

    for record, iterations in zip(records, fp_iters_max):
        record.fp_iters_max = iterations
    return records


def simulate(
    problem: GalerkinProblem,
    config: SolverConfig,
    events: list[JumpEvent],
    record_states: bool = True,
) -> TrajectoryRecord:
    """Integrate one trajectory over [0, horizon] along the jump path ``events``.

    ``events`` is one realization of the problem's Poisson random measure
    (``noise.sample_prm``; ``[]`` if none), time-sorted within the horizon.
    The state is recorded at every grid node and every jump time, after the
    jump is applied.
    """
    events = _check_events([problem], events)
    return _run_levels([problem], config, events, record_states)[0]


@dataclasses.dataclass(frozen=True)
class CoupledResult:
    """Two levels driven by one jump realization, with their dual-norm gap; no states."""

    record_low: TrajectoryRecord
    record_high: TrajectoryRecord
    distances: np.ndarray       # per recorded time, || . ||_{E_A*}
    distance: float             # sup over recorded times

    @property
    def levels(self) -> tuple[int, int]:
        return (self.record_low.level_n, self.record_high.level_n)


def simulate_coupled(
    problem_low: GalerkinProblem,
    problem_high: GalerkinProblem,
    config: SolverConfig,
    events: list[JumpEvent],
) -> CoupledResult:
    """Run two truncation levels against one jump path ``events`` (``[]`` if none).

    Both problems must share the spectral model and horizon, with the first
    strictly coarser and nested in the finer one.  The levels advance
    together; the dual-norm difference is taken at each node on the finer
    level's modes (the coarse state embeds by zero padding), and the returned
    distance is its supremum.  No state history is kept.
    """
    if problem_low.model is not problem_high.model:
        raise ConfigurationError("coupled runs need a shared spectral model")
    if problem_low.horizon != problem_high.horizon:
        raise ConfigurationError("coupled runs need a common horizon")
    if problem_low.level.n >= problem_high.level.n:
        raise ConfigurationError("first problem must be the coarser level")
    if (problem_low.measure is None) != (problem_high.measure is None):
        raise ConfigurationError("both levels need the same jump measure")
    # nested dyadic blocks: the coarse indices are a subset of the fine ones
    low_idx, high_idx = problem_low.level.indices, problem_high.level.indices
    positions = np.searchsorted(high_idx, low_idx)
    if not np.array_equal(high_idx[positions], low_idx):
        raise ConfigurationError("levels are not nested in the mode table")

    inv_w = 1.0 / (1.0 + problem_high.model.eigenvalues_A[high_idx])
    distances = []

    def add_distance(states):
        low, high = states
        gap = high.copy()
        gap[positions] -= low
        distances.append(np.sqrt(np.sum(np.abs(gap) ** 2 * inv_w)))

    problems = [problem_low, problem_high]
    rec_low, rec_high = _run_levels(problems, config,
                                    _check_events(problems, events),
                                    False, add_distance)
    distances = np.array(distances)
    return CoupledResult(rec_low, rec_high, distances, float(np.max(distances)))
