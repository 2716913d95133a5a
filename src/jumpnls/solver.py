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
tolerance (to rounding on a halved step without a noise term, whose substeps
are projected onto their starting norm) and the pure-diagonal flow is
reproduced to rounding.  ``SplitStep`` composes half-step phases with an exact
pointwise gauge rotation for the nonlinearity and an explicit Euler substep
for the noise drift; it is cheaper and first-order accurate in the mass
budget, second order in the state.  It refuses a step whose gauge phase
``tau * max|v|^(alpha-1)`` exceeds ``_MAX_GAUGE_PHASE`` (0.5 rad) with a
``NumericsError``, where the projected rotation would lose mass.

``simulate`` and ``simulate_coupled`` take one ``noise.JumpPath`` (the empty
``JumpPath()`` for a run without jumps) and run one loop that advances a list
of levels together over the shared jump-adapted grid, and that loop can stop
at a node and resume there.  The loop only steps and applies the jumps, the
rows of ``path.marks`` that ``searchsorted`` on ``path.times`` puts at each
node; after each node an observer reads the states.  ``simulate``'s fills its
record, and a coupled run's writes the dual-norm distance and keeps nothing
else.

Before its first jump every trajectory of a problem follows the same jump-free
path on the uniform nodes.  ``simulate_ensemble`` runs the trajectories in
order of first jump (ties by index), so that path only advances, and each
``simulate`` copies it through its branch node.  A path is drawn once for its
branch node, dropped and drawn again to run, so a run holds one jump path and
one record at a time beside the jump-free path's.  ``converge_ensemble``
refuses a repeated level, one that is not coarser and one that ``build_level``
would refuse (``spectral.level_dim``) before it draws, then draws each path
once and couples it at every level with ``simulate_coupled``.
Both ensembles prefix a ``NumericsError`` with ``trajectory k: `` in one
helper.

Each problem keeps one drift workspace per closure, built on first use, whose
step loop transforms through the pair that ``build_level`` bound on the level
and weighs by the level's eigenvalue views.  A record holds its node columns
(``TrajectoryRecord.COLUMNS``) in one float64 block, a row per node, beside
its level, whose ``ea_norm`` fills the last column; a coupled run measures its
distance by the finer level's ``dual_norm``.  A midpoint solve whose gap stops
shrinking halves the step at once, at most ``max_halvings`` deep
(``MAX_HALVINGS`` = 52 at most).  A node's
record reads an overflow as inf, without a warning, as ``eval_F`` does.

``GalerkinProblem(level, horizon, initial_full, nonlinearity, symbols,
measure)`` is the one constructor of a problem.  A problem keeps its
equation's data once beside its level, takes ``horizon`` as a float, reads its
model through the level (``problem.level.model``), refuses an inadmissible
exponent itself, and compares and hashes by identity.  ``simulate_coupled``
takes one problem and a coarser level number and truncates that problem
there, so a coupled run cannot pair two different equations.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import ConfigurationError, NumericsError, ShapeError
from .jumps import NoiseOperators, assemble_noise_operators, difference_2_matrix, jump_map
from .noise import AtomicMeasure, JumpPath
from .nonlinear import Nonlinearity, _pointwise_power, validate_exponent
from .spectral import (
    _TINY,
    GalerkinLevel,
    _check_memory,
    _norm_over_top,
    apply_smoothing,
    build_level,
    level_dim,
)

MODE_MIDPOINT = "FaithfulMidpoint"
MODE_SPLITSTEP = "SplitStep"
CLOSURE_TAYLOR2 = "Taylor2"
CLOSURE_ATOMIC = "AtomicExact"

_CLOSURES = (CLOSURE_TAYLOR2, CLOSURE_ATOMIC)

#: largest ``max_halvings``: a substep of ``dt * 2**-52`` is about one ulp of
#: ``dt``, and each halving deepens the midpoint solve's recursion by one
MAX_HALVINGS = 52


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
        if not (0 <= self.max_halvings <= MAX_HALVINGS):
            raise ConfigurationError(
                f"max_halvings must be in [0, {MAX_HALVINGS}], got {self.max_halvings}"
            )


@dataclasses.dataclass(frozen=True, eq=False)
class GalerkinProblem:
    """One truncation level of an equation: the equation's data and its level.

    ``initial_full`` holds the full-space initial data; ``initial`` is its
    smoothed, renormalized truncation onto the level (``renormalize_initial``).
    ``symbols`` holds the grid samples of the noise channels, one row each;
    the problem assembles its noise operators ``ops`` from them on its own
    level, which carries the model.  ``symbols``, ``ops`` and ``measure``
    are None for deterministic runs.  ``dataclasses.replace(problem,
    level=...)`` truncates the same equation at another level: it derives
    ``initial``, ``ops`` and the workspaces anew and shares every other field.
    """

    level: GalerkinLevel
    horizon: float
    initial_full: np.ndarray
    nonlinearity: Nonlinearity | None = None
    symbols: np.ndarray | None = None
    measure: object | None = None
    initial: np.ndarray = dataclasses.field(init=False, repr=False)
    ops: NoiseOperators | None = dataclasses.field(default=None, init=False, repr=False)
    # closure name -> drift workspace, built on first use (see _dynamics)
    _workspaces: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        model = self.level.model
        if self.nonlinearity is not None:
            validate_exponent(self.nonlinearity, model.domain.dimension, model.beta)
        object.__setattr__(self, "initial", renormalize_initial(self.level, self.initial_full))
        object.__setattr__(self, "horizon", float(self.horizon))
        if not (self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.symbols is not None:
            object.__setattr__(self, "ops", assemble_noise_operators(self.level, self.symbols))
        if self.measure is not None and self.ops is None:
            raise ConfigurationError("a jump measure requires noise symbols")
        if self.ops is not None and self.measure is not None:
            if self.measure.dimension != self.ops.num_channels:
                raise ConfigurationError(
                    f"measure has {self.measure.dimension} mark components but "
                    f"{self.ops.num_channels} noise channels are assembled"
                )


def _underflow_safe_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, or :func:`_norm_over_top` where the squares
    underflow (a norm below about 1e-154), so tiny data keep a norm."""
    norm = float(np.linalg.norm(x))
    return _norm_over_top(x) if norm < math.sqrt(_TINY) else norm


def renormalize_initial(level: GalerkinLevel, initial_full: np.ndarray) -> np.ndarray:
    """Smooth-truncate full-space data onto the level, restoring its H norm.

    Returns S_n u0 scaled so its norm equals ||u0||; the zero vector if the
    truncation annihilates u0 entirely.  Data with a non-finite coefficient,
    or whose norm overflows, is refused, and data that do not cover the
    level's modes raise ``ShapeError``.
    """
    initial_full = np.asarray(initial_full, dtype=complex)
    # a non-finite coefficient makes the norm non-finite, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        norm_full = _underflow_safe_norm(initial_full)
    if not math.isfinite(norm_full):
        raise ConfigurationError(
            f"initial data for level {level.n} is not finite or its norm overflows"
        )
    smoothed = apply_smoothing(level, initial_full)
    norm_smoothed = _underflow_safe_norm(smoothed)
    if norm_smoothed == 0.0:
        return np.zeros(level.dim, dtype=complex)
    return smoothed * (norm_full / norm_smoothed)


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
    ``sum_a w_a (exp(-i B(l_a)) - 1 + i B(l_a))``.  Each is built by
    ``NoiseOperators.product`` on the identity columns (refused before the
    first one when the build would exceed physical memory) and they are summed
    once into ``noise_matrix`` (None when no term is present), so each drift
    evaluation costs one matvec for the noise.  The nonlinearity costs the
    level's two transforms and the pointwise power.  The workspace holds no
    per-run state.
    """

    def __init__(self, problem: GalerkinProblem, config: SolverConfig):
        level = problem.level
        self.lam = level.eigenvalues_A
        self.nl = problem.nonlinearity
        self.to_grid, self.from_grid = level.to_grid, level.from_grid
        self.grid_weights = level.model.grid_weights
        self.noise_matrix = None

        ops = problem.ops
        if ops is not None and problem.measure is not None:
            moments = problem.measure.moments()
            terms = []
            if np.any(moments.mean_simulated != 0.0):
                b_mean = ops.product(moments.mean_simulated)(ops.identity())
                # its Hermitian part keeps i B_n(m) exactly skew-Hermitian
                terms.append(0.5j * (b_mean + b_mean.conj().T))
            if config.closure == CLOSURE_TAYLOR2:
                # sum_m cov[m, n] M_m is one product, with mark cov[:, n]
                cov = moments.second_moment_small
                for unit, column in zip(np.eye(ops.num_channels), cov.T):
                    if np.any(column != 0.0):
                        m_n = ops.product(unit)(ops.identity())
                        terms.append(-0.5 * ops.product(column)(m_n))
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
    O(tau * fp_tol * |r|).  An iteration whose gap does not shrink stops
    contracting, and the step halves at once instead of using up
    ``max_fp_iters``.  The substeps' defects would add up, so without a noise
    term (whose drift moves the mass) each substep of a halved step is
    projected back onto its starting norm (Hairer, Lubich & Wanner, *Geometric
    Numerical Integration*, IV.4).  Returns the new state and the largest
    iteration count of its converged substeps.
    """
    if not dyn.has_remainder:
        return state, 0
    start = _norm(state)
    scale = max(1.0, start)
    # a diverging iterate may overflow through the nonlinearity; the inf/nan
    # gap simply reads as non-converged and the clean-state halving below
    # takes over, so the intermediate arithmetic warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        d = dyn.remainder(state)
        previous = math.inf
        for iteration in range(config.max_fp_iters):
            d_next = dyn.remainder(state + (0.5 * tau) * d)
            gap = _norm(d_next - d)
            d = d_next
            if tau * gap <= config.fp_tol * scale:
                end = state + tau * d
                if depth and dyn.noise_matrix is None:
                    norm = _norm(end)
                    if 0.0 < min(start, norm) and max(start, norm) < math.inf:
                        end *= start / norm
                return end, iteration + 1
            if not gap < previous:
                break
            previous = gap
    if depth >= config.max_halvings:
        raise NumericsError(
            f"midpoint iteration failed to converge at halving depth {depth} "
            f"(max_halvings = {config.max_halvings}), smallest substep tau={tau:.3e}"
        )
    half, first = _midpoint_remainder(dyn, state, 0.5 * tau, config, depth + 1)
    end, second = _midpoint_remainder(dyn, half, 0.5 * tau, config, depth + 1)
    return end, max(first, second)


def _step_midpoint(dyn: _Dynamics, state, tau, config):
    phase = dyn.half_phase(tau)
    mid, iterations = _midpoint_remainder(dyn, phase * state, tau, config)
    return phase * mid, iterations


#: largest gauge phase ``tau * max|v|^(alpha-1)`` (rad) of a SplitStep step.
#: The rotation is applied on the grid and projected back onto the level, which
#: drops the mass its phase moves beyond the level.  On atomic_cubic's level
#: (dt 0.005, no jumps, ten steps) the worst relative mass change of a step is
#: 2e-9 at phase 0.0024, 6.2e-4 at 0.48, 8.3e-3 at 0.97, 8.4e-2 at 2.2 and
#: 0.39 at 7.1; the shipped configs and workloads stay below 0.004 rad.
_MAX_GAUGE_PHASE = 0.5


def _step_splitstep(dyn: _Dynamics, state, tau, config):
    phase = dyn.half_phase(tau)
    v = phase * state
    if dyn.nl is not None:
        values = dyn.to_grid(v)
        # an overflowing power reads as inf and is refused below
        with np.errstate(over="ignore"):
            power = np.abs(values) ** (dyn.nl.alpha - 1)
        largest = tau * float(np.max(power))
        if not largest <= _MAX_GAUGE_PHASE:
            raise NumericsError(
                f"SplitStep gauge phase tau*max|v|^(alpha-1) = {largest:.3g} rad exceeds "
                f"{_MAX_GAUGE_PHASE} rad; use a smaller dt or FaithfulMidpoint"
            )
        v = dyn.from_grid(values * np.exp(-1j * tau * dyn.nl.sign * power))
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
    recorded at a jump time is the post-jump state).  ``columns`` holds one
    float64 row per node, and each of ``COLUMNS`` reads its column as a view."""

    COLUMNS = ("mass", "kinetic", "potential", "ea_norm")

    level: GalerkinLevel
    times: np.ndarray
    states: np.ndarray | None
    columns: np.ndarray         # (nodes, len(COLUMNS))
    path: JumpPath
    fp_iters_max: int = 0

    def __getattr__(self, name):
        if name not in TrajectoryRecord.COLUMNS:
            raise AttributeError(name)
        return self.columns[:, TrajectoryRecord.COLUMNS.index(name)]

    @property
    def energy(self) -> np.ndarray:
        """``kinetic + potential`` at each node."""
        return self.kinetic + self.potential

    def series(self) -> dict[str, np.ndarray]:
        """The trajectory table by column name: ``t``, then the columns with
        the derived ``energy`` before the last."""
        *head, last = zip(self.COLUMNS, self.columns.T)
        return dict([("t", self.times), *head, ("energy", self.energy), last])


def _time_grid(horizon: float, dt: float, event_times, bytes_per_node: int,
               held: int = 0) -> np.ndarray:
    """Uniform nodes of step ``dt`` joined with the event times.

    Refuses a grid whose ``bytes_per_node`` estimate, plus the ``held`` bytes
    of a jump-free path beside it, exceeds physical memory.
    """
    n_steps = max(1, np.ceil(horizon / dt - 1e-9))   # inf when horizon/dt overflows
    nodes = n_steps + 1 + len(event_times)
    beside = " and the jump-free path" if held else ""
    _check_memory(bytes_per_node * nodes + held,
                  f"the {nodes:.3g} time nodes of horizon {horizon!r} at dt = {dt!r}{beside}")
    # sorted, adjacent duplicates dropped: np.union1d without its numpy.ma import
    grid = np.sort(np.concatenate([np.linspace(0.0, horizon, int(n_steps) + 1),
                                   np.asarray(event_times, dtype=float)]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _check_path(problems, path: JumpPath) -> None:
    """Refuse a shared jump path that is unsorted, outside the horizon or
    without noise operators."""
    if not np.all((path.times >= 0.0) & (path.times <= problems[0].horizon)):
        raise ConfigurationError("jump events must lie within [0, horizon]")
    if np.any(path.times[1:] < path.times[:-1]):
        raise ConfigurationError("jump events must be time-sorted")
    if len(path) and any(p.ops is None for p in problems):
        raise ConfigurationError("jump events supplied without noise operators")


def _record_node(record: TrajectoryRecord, dyn: _Dynamics, i: int, u) -> None:
    # a huge state overflows to inf in the record, silently as in eval_F
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.abs(u) ** 2
        record.columns[i] = (sq.sum(), 0.5 * (dyn.lam @ sq),  # in COLUMNS order
                             0.0 if dyn.nl is None else dyn.potential(u),
                             record.level.ea_norm(u))
    if record.states is not None:
        record.states[i] = u


@dataclasses.dataclass
class _Run:
    """The levels' ``states`` after the jumps at node ``node`` of ``grid`` (-1:
    the initial states), with the largest fixed-point iteration count so far."""

    grid: np.ndarray
    states: list[np.ndarray]
    node: int = -1
    fp_iters_max: int = 0


def _record_bytes_per_node(problem, record_states) -> int:
    """The grid, ``ends`` and the float64 record columns, plus the state if recorded."""
    state = 16 * problem.level.dim if record_states else 0
    return 8 * (2 + len(TrajectoryRecord.COLUMNS)) + state


def _recorded_run(problem, config, path, record_states, held=0):
    """A run of one level at its start, its record over the jump-adapted grid
    and the observer that fills the record node by node."""
    grid = _time_grid(problem.horizon, config.dt, path.times,
                      _record_bytes_per_node(problem, record_states), held)
    dyn, level = _dynamics(problem, config), problem.level
    record = TrajectoryRecord(
        level, grid,
        np.zeros((len(grid), level.dim), dtype=complex) if record_states else None,
        np.zeros((len(grid), len(TrajectoryRecord.COLUMNS))), path)
    return (_Run(grid, [problem.initial.astype(complex, copy=True)]), record,
            lambda i, states: _record_node(record, dyn, i, states[0]))


def _run_levels(problems, config, path, run, on_node, last=None):
    """Advance ``run`` in lockstep over its grid, through node ``last`` (the end).

    At each node every level steps and applies the jumps due there; then
    ``on_node(i, states)`` observes the states.  The loop records nothing itself.
    """
    grid = run.grid
    last = len(grid) - 1 if last is None else last
    # the jumps due at node i are path.marks[ends[i - 1]:ends[i]]
    ends = np.searchsorted(path.times, grid, side="right")
    stepper = _STEPPERS[config.mode]
    dyns = [_dynamics(p, config) for p in problems]

    for i in range(run.node + 1, last + 1):
        t = grid[i]
        due = path.marks[ends[i - 1] if i > 0 else 0:ends[i]]
        for k, problem in enumerate(problems):
            u = run.states[k]
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
                run.fp_iters_max = max(run.fp_iters_max, iterations)
            for mark in due:
                u = jump_map(problem.ops, mark, u)
            run.states[k] = u
        run.node = i
        on_node(i, run.states)


class _JumpFreePath:
    """The path that every trajectory of a problem follows before its first jump.

    Up to the first event the jump-adapted grid is the uniform grid and the
    state is the jump-free flow from the problem's initial state, so all
    trajectories of one problem and config share that prefix bit for bit.
    The path holds one record over the uniform nodes (with their states if
    ``record_states``) and its state at the last node it reached.  It only
    advances: ``simulate_ensemble`` shares it in order of ``branch_node``.
    """

    def __init__(self, problem: GalerkinProblem, config: SolverConfig, record_states: bool):
        self._run, self.record, self._on_node = _recorded_run(problem, config, JumpPath(),
                                                              record_states)
        # the time-grid guard's bytes for the record, held beside each trajectory's
        self._held = _record_bytes_per_node(problem, record_states) * len(self._run.grid)

    def branch_node(self, path: JumpPath) -> int:
        """The last uniform node strictly before the first jump of ``path``.

        -1 for a jump at time 0, the last node for no jumps.
        """
        times = self.record.times
        if not len(path):
            return len(times) - 1
        return int(np.searchsorted(times, path.times[0], side="left")) - 1

    def _share(self, problem, config, run: _Run, target, path) -> None:
        """Advance to the branch node of ``path``, start ``run`` there and
        copy the jump-free record through that node into ``target``."""
        j = self.branch_node(path)
        if j < 0:
            return
        _run_levels([problem], config, JumpPath(), self._run, self._on_node, last=j)
        target.columns[:j + 1] = self.record.columns[:j + 1]
        if target.states is not None:
            target.states[:j + 1] = self.record.states[:j + 1]
        run.states = list(self._run.states)
        run.node, run.fp_iters_max = j, self._run.fp_iters_max


def simulate(
    problem: GalerkinProblem,
    config: SolverConfig,
    path: JumpPath,
    record_states: bool = True,
    jump_free: _JumpFreePath | None = None,
) -> TrajectoryRecord:
    """Integrate one trajectory over [0, horizon] along the jump path ``path``.

    ``path`` is one realization of the problem's Poisson random measure
    (``noise.sample_prm``; ``JumpPath()`` if none) within the horizon.
    The state is recorded at every grid node and every jump time, after the
    jump is applied.  ``simulate_ensemble`` passes its ``jump_free`` path:
    the rows through the path's branch node are copied from it and only the
    rest is stepped; the record is the same bit for bit.
    """
    _check_path([problem], path)
    run, record, on_node = _recorded_run(problem, config, path, record_states,
                                         0 if jump_free is None else jump_free._held)
    if jump_free is not None:
        jump_free._share(problem, config, run, record, path)
    _run_levels([problem], config, path, run, on_node)
    record.fp_iters_max = run.fp_iters_max
    return record


def simulate_ensemble(problem: GalerkinProblem, config: SolverConfig, count: int,
                      draw, record_states: bool = True):
    """Run ``count`` trajectories of ``problem``; ``draw(k)`` is trajectory k's jump path.

    Each path is drawn here for its branch node and dropped.  The returned
    iterator yields ``(k, record)`` in order of branch node, ties by index:
    it draws path k again and runs it on the shared jump-free path.  A
    ``NumericsError`` names the running trajectory or, for a failed step of
    the jump-free path, the lowest index that branches after that step.
    """
    jump_free = _JumpFreePath(problem, config, record_states)
    branch = [jump_free.branch_node(draw(k)) for k in range(count)]

    def runs():
        for k in sorted(range(count), key=branch.__getitem__):
            try:
                record = simulate(problem, config, draw(k), record_states, jump_free)
            except NumericsError as exc:
                node = jump_free._run.node  # the failed step starts there
                failed = k if node >= branch[k] else min(
                    i for i, b in enumerate(branch) if b > node)
                raise _trajectory_error(failed, exc) from exc
            yield k, record
            del record  # not held while the next trajectory runs

    return runs()


def _trajectory_error(index: int, exc: NumericsError) -> NumericsError:
    return NumericsError(f"trajectory {index}: {exc}")


@dataclasses.dataclass(frozen=True)
class CoupledResult:
    """Two levels driven by one jump realization, with their dual-norm gap at
    each node of the shared grid.  No state or record column is kept: ``simulate``
    of either problem on the same path gives its record, bit for bit."""

    levels: tuple[int, int]     # (coarse, fine) level numbers
    times: np.ndarray
    distances: np.ndarray       # per node, || . ||_{E_A*}
    distance: float             # sup over the nodes


def _check_levels(problem: GalerkinProblem, levels) -> None:
    """Refuse, level by level, a repeat, a level not coarser than the
    problem's and one that ``build_level`` would refuse."""
    if len(set(levels)) != len(levels):
        raise ConfigurationError(f"the level list {list(levels)} repeats a level")
    for n in levels:
        if n >= problem.level.n:
            raise ConfigurationError(f"coupled level {n} must be coarser than the problem's "
                                     f"level {problem.level.n}")
        level_dim(problem.level.model, n)


def simulate_coupled(
    problem: GalerkinProblem,
    level_n: int,
    config: SolverConfig,
    path: JumpPath,
) -> CoupledResult:
    """Run ``problem`` and its truncation at the coarser level ``level_n``
    against one jump path ``path`` (``JumpPath()`` if none).

    The coarse problem is ``problem`` on ``build_level(model, level_n)``, so
    both truncate one equation, and its modes are a prefix of the finer
    level's.  The levels advance together; the dual-norm difference is taken
    at each node on the finer level's modes (the coarse state embeds by zero
    padding), and the returned distance is its supremum.  No state history
    is kept.
    """
    _check_levels(problem, [level_n])
    coarse = dataclasses.replace(problem, level=build_level(problem.level.model, level_n))
    problems = [coarse, problem]
    _check_path(problems, path)
    # per node: the grid, ``ends`` and the distance, in float64
    grid = _time_grid(problem.horizon, config.dt, path.times, 8 * 3)
    distances = np.empty_like(grid)

    def add_distance(i, states):
        low, high = states
        gap = high.copy()
        gap[:low.size] -= low   # the coarse modes are a prefix of the fine ones
        distances[i] = problem.level.dual_norm(gap)

    run = _Run(grid, [p.initial.astype(complex, copy=True) for p in problems])
    _run_levels(problems, config, path, run, add_distance)
    return CoupledResult((level_n, problem.level.n), grid, distances,
                         float(np.max(distances)))


def converge_ensemble(problem: GalerkinProblem, levels, config: SolverConfig, count: int, draw):
    """``{n: [sup distance of trajectory k]}`` of ``simulate_coupled(problem, n, ...)``.

    Repeated or non-coarser levels are refused before the first draw; then path
    ``draw(k)`` is drawn once per trajectory and drives each level in turn."""
    _check_levels(problem, levels)
    distances = {n: [] for n in levels}
    for k in range(count):
        path = draw(k)
        try:
            for n in levels:
                distances[n].append(simulate_coupled(problem, n, config, path).distance)
        except NumericsError as exc:
            raise _trajectory_error(k, exc) from exc
    return distances
