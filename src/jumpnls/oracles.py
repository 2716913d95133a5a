"""Reference computations that only ``verify`` and the tests read.

No run reads these, so none of the run-path modules nor ``diagnostics``
imports this module (an ``ast`` rule in ``tests/test_imports.py``), and a
``simulate``, ``converge`` or ``moments`` run never compiles it.

* Spectral: the H, E_A, E_A* and L^p norms of a level's coefficient
  vector (``sobolev_norm``), the sampled Mihlin suprema of the cutoff, and the
  L^1 gain of a truncation on a grid delta (``l1_delta_gain``).  The gain
  is the witness of the paper's reason for the smoothed truncation S_n: it
  stays bounded in n, while the sharp projection P_n's keeps growing with
  its Lebesgue constant.
* Jumps: the dense Hermitian channel matrices of ``NoiseOperators`` and
  their hermiticity defect, built on first request and kept while the
  operators live; the generator B(l); the level constants ``bound_H`` and
  ``bound_EA``; the RK4 flow of du/dt = -i B(l) u that cross-validates
  the jump map.
* Diagnostics: the energy report of a level's state and its directional
  derivative, and the càdlàg modulus of a recorded path.
* Noise: the compensated Lévy path of a jump path, the second moment of
  a measure's simulated region, and the Gauss-Legendre integral in the
  radius that checks the radial measure's closed forms.

The level constants are the sums of squared operator norms of the M_m in
H and in E_A, and give the elementary inequalities

    ||B(l)||        <= |l| sqrt(bound_H)
    ||e^{-iB(l)}x - x||           <= sqrt(bound_H) |l| ||x||
    ||e^{-iB(l)}x - x + iB(l)x||  <= bound_H |l|^2 ||x|| / 2
    ||e^{-itB(l)}||_{E_A}         <= exp(|t| |l| sqrt(bound_EA))

by Cauchy-Schwarz in l and spectral calculus.
"""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np

from . import jumps
from .exceptions import NumericsError, ShapeError
from .noise import AtomicMeasure, JumpPath, NoiseMoments, _sphere_area
from .nonlinear import Nonlinearity, eval_F, eval_Fhat
from .solver import CLOSURE_TAYLOR2
from .spectral import GalerkinLevel, _check_memory, build_level, transition_profile

# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

#: spaces accepted by :func:`sobolev_norm`
NORM_SPACES = ("H", "E_A", "E_A_dual", "Lp")


def sobolev_norm(
    level: GalerkinLevel,
    coefficients: np.ndarray,
    space: str = "H",
    p: float | None = None,
) -> float:
    """Norm of the level's coefficient vector in H, the energy space, its dual, or Lp.

    The Hilbert norms are weighted Euclidean norms with weights 1,
    ``1 + lambda_A``, and ``1 / (1 + lambda_A)``; Lp norms are evaluated by
    grid quadrature and require ``p``.
    """
    if space not in NORM_SPACES:
        raise ValueError(f"space must be one of {NORM_SPACES}, got {space!r}")
    coefficients = np.asarray(coefficients)
    weights = level.ea_weights
    if coefficients.shape != weights.shape:
        raise ShapeError(
            f"expected {len(weights)} coefficients, got shape {coefficients.shape}"
        )
    if space == "Lp":
        if p is None or not (p >= 1):
            raise ValueError("Lp norm requires p >= 1")
        model = level.model
        values = model.synthesize(coefficients, level.dim)
        return float(np.sum(model.grid_weights * np.abs(values) ** p) ** (1.0 / p))
    sq = np.abs(coefficients) ** 2
    if space == "H":
        return float(math.sqrt(np.sum(sq)))
    if space == "E_A":
        return float(math.sqrt(np.sum(weights * sq)))
    return float(math.sqrt(np.sum(sq / weights)))


def mihlin_suprema(n: int, max_order: int = 2, samples: int = 4001) -> np.ndarray:
    """Sampled suprema of ``|lambda^k d^k cutoff / dlambda^k|`` for k <= max_order.

    The derivatives of ``cutoff_multiplier(n, .)`` are sampled on level n's
    own band ``lambda in [2**n, 2**(n+1)]``, where the k-th one is
    ``2**(-n*k) * transition_profile(lambda * 2**(-n), order=k)``; the
    identity branch below the band contributes 1 for k = 0.  The returned
    values are independent of ``n`` by scale invariance.  A level whose
    ``lambda^k`` overflows on its band is refused.
    """
    if max_order < 0 or max_order > 2:
        raise ValueError("max_order must be in {0, 1, 2}")
    # the band's top 2**(n+1), raised to max_order, must stay below 2**1024
    top = 1023 // max(max_order, 1) - 1
    if not 0 <= n <= top:
        raise ValueError(f"level must be in [0, {top}] at max_order {max_order}, got {n}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2 to span the band, got {samples}")
    scale = 2.0 ** (-n)
    lam = np.linspace(1.0, 2.0, samples) / scale
    sups = []
    for k in range(max_order + 1):
        derivative = scale**k * transition_profile(lam * scale, order=k)
        band = np.abs(lam**k * derivative)
        sup = float(np.max(band))
        if k == 0:
            sup = max(sup, 1.0)  # branch below the band where the cutoff is 1
        sups.append(sup)
    return np.array(sups)


def l1_delta_gain(level: GalerkinLevel, multipliers) -> float:
    """``||T u||_1 / ||u||_1`` for the truncation T with ``multipliers`` on the level's modes.

    ``u`` is the grid delta at node 0 on a torus, or at node ``num_grid // 3``
    on an interval (away from the boundary), projected onto the model's full
    mode table; T keeps the level's first ``dim`` coefficients of ``u``
    scaled by ``multipliers``.  ``level.multipliers`` gives the smoothed
    truncation S_n, ones give the orthogonal projection P_n.
    """
    model = level.model
    top = build_level(model, model.max_level)
    delta = np.zeros(model.num_grid)
    delta[0 if model.domain.periodic else model.num_grid // 3] = 1.0
    full = model.analyze(delta)
    truncated = np.asarray(multipliers) * full[:level.dim]
    return sobolev_norm(level, truncated, "Lp", p=1) / sobolev_norm(top, full, "Lp", p=1)


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

#: assembled matrices farther than this from Hermitian are rejected
HERMITICITY_TOLERANCE = 1e-10

#: the dense matrices and hermiticity defect of each live ``NoiseOperators``
_DENSE = weakref.WeakKeyDictionary()


def _dense(ops: jumps.NoiseOperators) -> tuple[np.ndarray, float]:
    if ops not in _DENSE:
        _DENSE[ops] = _assemble_matrices(ops.level, ops.symbols)
    return _DENSE[ops]


def matrices(ops: jumps.NoiseOperators) -> np.ndarray:
    """(N, dim, dim) complex Hermitian channel matrices, built on first request."""
    return _dense(ops)[0]


def hermiticity_defect(ops: jumps.NoiseOperators) -> float:
    """The largest entry deviation from Hermitian that symmetrization removed."""
    return _dense(ops)[1]


def bound_H(ops: jumps.NoiseOperators) -> float:
    """Sum over channels of the squared spectral norms ``||M_m||^2``."""
    return float(sum(np.linalg.norm(M, 2) ** 2 for M in matrices(ops)))


def bound_EA(ops: jumps.NoiseOperators) -> float:
    """Sum over channels of the squared operator norms of M_m on the energy space."""
    w = np.sqrt(ops.level.ea_weights)
    return float(sum(
        np.linalg.norm(w[:, None] * M / w[None, :], 2) ** 2 for M in matrices(ops)
    ))


def _assemble_matrices(level: GalerkinLevel, symbols: np.ndarray):
    """Quadrature assembly of the smoothed multiplication operators and their defect.

    Column j of channel m is the smoothed mode ``s_j h_j`` synthesized to
    the grid, multiplied by the symbol, analyzed back and scaled by the
    cutoff again, all through the model's transforms.  Columns go through in
    blocks of ``jumps.ASSEMBLY_BLOCK_ENTRIES`` grid values, and the Hermitian
    check and symmetrization in row/column strips of the same width; each
    entry takes the arithmetic, and the bits, of a single full-width pass.
    Raises ``ConfigurationError`` before allocating when the operators would
    exceed physical memory.
    """
    model, channels, dim = level.model, symbols.shape[0], level.dim
    width = max(1, jumps.ASSEMBLY_BLOCK_ENTRIES // model.num_grid)
    _check_memory(16 * (channels * dim * dim + min(width, dim) * model.num_grid),
                  f"noise operators of level {level.n} ({channels} x {dim}^2 "
                  f"complex entries and one assembly block)")

    smoother = level.multipliers
    matrices = np.empty((channels, dim, dim), dtype=complex)
    for start in range(0, dim, width):
        cols = slice(start, min(start + width, dim))
        unit = np.zeros((cols.stop - start, dim))
        unit[:, cols] = np.diag(smoother[cols])
        smoothed_modes = model.synthesize(unit, dim)
        for m, symbol in enumerate(symbols):
            # row j of ``rows`` holds column j of the operator
            rows = model.analyze(symbol * smoothed_modes, dim)
            matrices[m][:, cols] = smoother[:, None] * rows.T

    defect = 0.0
    for raw in matrices:
        for start in range(0, dim, width):
            strip = slice(start, min(start + width, dim))
            upper = raw[strip, start:].copy()
            lower = raw[start:, strip].copy()
            defect = max(defect, float(np.max(np.abs(upper - lower.conj().T))))
            raw[strip, start:] = 0.5 * (upper + lower.conj().T)
            raw[start:, strip] = 0.5 * (lower + upper.conj().T)
    if defect > HERMITICITY_TOLERANCE:
        raise NumericsError(
            f"assembled operator deviates from Hermitian by {defect:.3e} "
            f"(tolerance {HERMITICITY_TOLERANCE:.1e})"
        )
    return matrices, defect


def generator(ops: jumps.NoiseOperators, mark) -> np.ndarray:
    """Hermitian generator B(l) = sum_m l_m M_m for a mark l in R^N, from ``matrices``."""
    return np.tensordot(jumps._checked_mark(ops, mark), matrices(ops), axes=1)


#: largest radius times step of :func:`marcus_flow`'s RK4, 2^-8: its error
#: is then at most |duration| r 2^-32 / 120, 1.9e-12 |duration| r, relative
FLOW_STEP_RADIUS = 2.0**-8


def marcus_flow(
    ops: jumps.NoiseOperators,
    duration: float,
    mark,
    state: np.ndarray,
) -> np.ndarray:
    """Integrate du/dt = -i B(l) u for the given duration by classical RK4.

    Cross-validation oracle for :func:`jumps.jump_map` (the ``duration = 1``
    flow); kept independent of its Chebyshev series.  The steps h are equal,
    with ``h r <= FLOW_STEP_RADIUS`` for ``r = ops.radius(mark) >= ||B(l)||``.
    B(l) is Hermitian, so on each of its eigenvalues theta one step
    multiplies by the degree-4 Taylor polynomial of exp(-i theta h), which
    has modulus at most 1 and errs by at most |theta h|^5 / 120; the flow
    errs by at most ``|duration| r (h r)^4 / 120`` relative.
    """
    state = np.asarray(state, dtype=complex)
    rhs = -1j * generator(ops, mark)
    duration = float(duration)
    steps = max(1, math.ceil(abs(duration) * ops.radius(mark) / FLOW_STEP_RADIUS))
    h = duration / steps
    for _ in range(steps):
        k1 = rhs @ state
        k2 = rhs @ (state + 0.5 * h * k1)
        k3 = rhs @ (state + 0.5 * h * k2)
        k4 = rhs @ (state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EnergyReport:
    """Mass, kinetic part (1/2)||A^(1/2)u||^2, potential part, and their sum."""

    mass: float
    kinetic: float
    potential: float
    total: float


def energy(level: GalerkinLevel, nl: Nonlinearity | None, state: np.ndarray) -> EnergyReport:
    """The energy report of the level's coefficients ``state``."""
    state = np.asarray(state, dtype=complex)
    lam = level.eigenvalues_A
    if state.shape != lam.shape:
        raise ShapeError(f"expected {len(lam)} coefficients, got {state.shape}")
    sq = np.abs(state) ** 2
    mass = float(np.sum(sq))
    kinetic = float(0.5 * np.sum(lam * sq))
    potential = 0.0 if nl is None else eval_Fhat(level, nl, state)
    return EnergyReport(mass=mass, kinetic=kinetic, potential=potential,
                        total=kinetic + potential)


def energy_derivative(
    level: GalerkinLevel,
    nl: Nonlinearity | None,
    state: np.ndarray,
    direction: np.ndarray,
) -> float:
    """Directional derivative of the energy: Re <A u + F(u), h>."""
    state = np.asarray(state, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    grad = level.eigenvalues_A * state
    if nl is not None:
        grad = grad + eval_F(level, nl, state)
    return float(np.vdot(grad, direction).real)


def _noise_adjoint(problem, config, phis: np.ndarray) -> np.ndarray:
    """Rows ``G^H phi`` for the linear noise part G of the generator, one per row of ``phis``.

    G u is the drift's compensated mean ``i B(m) u`` and its closure of the
    small jumps, plus the jump term ``sum_a w_a (Phi(l_a) u - u)`` of the
    simulated region (``Phi(l) = exp(-i B(l))``).  The jump map is unitary,
    so the jump term's adjoint is ``sum_a w_a (Phi(-l_a) phi - phi)``; on a
    radial measure of one channel, whose ``B(l) = l M``, it is
    ``V diag(h) V^H phi`` with ``M = V diag(theta) V^H`` and
    ``h_j = c int_eps^1 r^(-1-beta) (2 cos(r theta_j) - 2) dr``.
    """
    ops, measure = problem.ops, problem.measure
    if ops is None or measure is None:
        return np.zeros_like(phis)
    moments = measure.moments()
    block = phis.T
    out = -1j * (generator(ops, moments.mean_simulated) @ block)
    if config.closure == CLOSURE_TAYLOR2:
        channels = matrices(ops)
        cov = moments.second_moment_small
        out -= 0.5 * sum(cov[m, n] * (channels[n] @ (channels[m] @ block))
                         for m in range(len(channels)) for n in range(len(channels)))
    else:
        for mark, weight in zip(*measure.small_atoms()):
            out += weight * (jumps.jump_map(ops, -mark, block) - block
                             - 1j * (generator(ops, mark) @ block))
    if isinstance(measure, AtomicMeasure):
        marks, weights, _ = measure._simulated
        for mark, weight in zip(marks, weights):
            out += weight * (jumps.jump_map(ops, -mark, block) - block)
    elif measure.dimension == 1:
        theta, vectors = np.linalg.eigh(matrices(ops)[0])
        c, b = measure.activity, measure.stability
        h = [radial_integral(lambda r: 2.0 * c * r ** (-1.0 - b) * (np.cos(r * t) - 1.0),
                             measure.epsilon, 1.0) for t in theta]
        out += vectors @ (np.asarray(h)[:, None] * (vectors.conj().T @ block))
    else:
        raise ValueError("the jump term of a radial measure needs one channel, "
                         f"got {measure.dimension}")
    return out.T


def martingale_residual(records, problem, config, phis) -> np.ndarray:
    """M(T) of each record for each linear test functional ``f = <., phi>``.

    ``f(u) = sum_j u_j conj(phi_j)`` for each row ``phi`` of ``phis`` (level
    coefficients), and

        M(T) = f(u_T) - f(u_0) - int_0^T L f(u(s-)) ds,
        L f(u) = f(drift(u)) + sum_a w_a (f(Phi(l_a) u) - f(u)),

    with ``drift`` the level's drift of ``problem`` under ``config.closure``
    and the sum over the simulated marks (an integral on a radial measure).
    M has mean zero for the law the Marcus generator defines (Ethier &
    Kurtz, *Markov Processes*, 1986, 4.3), so over an ensemble its mean is
    zero to sampling error plus the time step's bias.  The records must keep
    their states.  The integral is the trapezoid on each record's nodes, from
    the state after the jumps at a node to the state before the jumps at the
    next, which ``jump_map`` with the mark negated recovers (the group law).
    The drift is evaluated on each record's (nodes, dim) block of states, and
    the noise part, linear in u, through its adjoint on ``phis`` once
    (:func:`_noise_adjoint`).  Returns the complex (records, phis) array.
    """
    level, nl = problem.level, problem.nonlinearity
    phis = np.atleast_2d(np.asarray(phis, dtype=complex))
    if phis.shape[1:] != (level.dim,):
        raise ShapeError(f"each phi must have {level.dim} coefficients, got {phis.shape}")
    conj_phis, conj_noise = phis.conj().T, _noise_adjoint(problem, config, phis).conj().T

    def generated(states):
        drift = -1j * (level.eigenvalues_A * states)
        if nl is not None:
            drift -= 1j * eval_F(level, nl, states)
        return drift @ conj_phis + states @ conj_noise

    residuals = []
    for record in records:
        if record.states is None:
            raise ValueError("records must retain states for the martingale residual")
        after, before = record.states, record.states.copy()
        jumped = np.searchsorted(record.times, record.path.times)
        # the last jump at a node is undone first
        for i, mark in zip(jumped[::-1], record.path.marks[::-1]):
            before[i] = jumps.jump_map(problem.ops, -mark, before[i])
        rate_after = generated(after)
        rate_before = rate_after.copy()
        if len(jumped):
            rate_before[jumped] = generated(before[jumped])
        steps = np.diff(record.times)[:, None]
        integral = np.sum(0.5 * steps * (rate_after[:-1] + rate_before[1:]), axis=0)
        residuals.append(after[-1] @ conj_phis - before[0] @ conj_phis - integral)
    return np.array(residuals)


def cadlag_modulus(times: np.ndarray, values: np.ndarray, delta: float) -> float:
    """Coarse-partition oscillation modulus of a piecewise-constant path.

    The path takes value ``values[i]`` on ``[times[i], times[i+1])``; the last
    recorded time is the right endpoint T of the observation window.  The
    modulus is the smallest achievable worst-cell oscillation over partitions
    ``0 = t_0 < ... < t_N = T`` whose every cell is at least ``delta`` long,
    with cells read as half-open ``[t_{j-1}, t_j)``.  Oscillation of a cell is
    the largest distance between values attained in it.

    Partition boundaries are restricted to the recorded times; within that
    family the minimum is computed exactly (by dynamic programming).  The
    path only changes at recorded times, so moving a boundary off the grid
    never changes which values share a cell — it can only relax the cell
    length constraint — making this a tight upper bound for the free-boundary
    modulus at the same delta.

    ``values`` may be scalar per time (shape (m,)) or vectors (shape (m, d))
    compared in the Euclidean norm of whatever coordinates the caller supplies
    (e.g. coefficients pre-scaled to a weighted norm).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ShapeError("need at least two recorded times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] != len(times):
        raise ShapeError("one value per recorded time required")
    total = times[-1] - times[0]
    if not (0.0 < delta <= total):
        raise ValueError(f"delta must be in (0, {total}], got {delta}")

    m = len(times)
    # osc[i]: largest pairwise distance among values active on [t_i, t_j),
    # i.e. values i .. j-1, for the current j only.  Column j follows from
    # column j-1 via suffix maxima of the distances from value j-1 to the
    # earlier ones, so memory stays O(m).
    osc = np.zeros(m)
    best = np.full(m, np.inf)
    best[0] = 0.0
    for j in range(1, m):
        if j >= 2:
            row = np.sqrt(np.sum(np.abs(values[: j - 1] - values[j - 1]) ** 2, axis=1))
            suffix = np.maximum.accumulate(row[::-1])[::-1]
            osc[: j - 1] = np.maximum(osc[: j - 1], suffix)
        feasible = np.nonzero(times[j] - times[:j] >= delta)[0]
        if len(feasible) == 0:
            continue
        candidates = np.maximum(best[feasible], osc[feasible])
        best[j] = np.min(candidates)
    return float(best[m - 1])


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def reconstruct_levy_path(
    path: JumpPath,
    moments: NoiseMoments,
    time_grid: np.ndarray,
) -> np.ndarray:
    """Compensated path: sum of marks up to t minus t * mean_simulated.

    Returns an array of shape (len(time_grid), N).
    """
    time_grid = np.asarray(time_grid, dtype=float)
    n = len(moments.mean_simulated)
    out = np.zeros((len(time_grid), n))
    if len(path):
        cumulative = np.vstack([np.zeros(n), np.cumsum(path.marks, axis=0)])
        out = cumulative[np.searchsorted(path.times, time_grid, side="right")]
    return out - np.outer(time_grid, moments.mean_simulated)


#: Gauss-Legendre nodes per panel of :func:`radial_integral`, and its most
#: panels, each half as wide as the one above it
RADIAL_NODES, RADIAL_PANELS = 12, 200


def radial_integral(f, lo: float, hi: float) -> float:
    """``int_lo^hi f(r) dr`` for ``0 <= lo < hi`` and a power-like f, by Gauss-Legendre.

    The panels ``[hi 2^-(j+1), hi 2^-j]`` halve toward 0 and stop at ``lo``,
    or at ``hi 2^-RADIAL_PANELS`` and then 0 when ``lo = 0``.  A power of r,
    singular at 0 only, is analytic on a Bernstein ellipse of parameter
    3 + sqrt(8) around each panel, so ``RADIAL_NODES`` nodes per panel reach
    rounding; on the last panel of ``lo = 0``, an integrable ``r^-a`` leaves
    a share of order ``2^(-RADIAL_PANELS (1 - a))``.
    """
    edges = hi * 0.5 ** np.arange(RADIAL_PANELS + 1)
    edges = np.append(edges[edges > lo], lo)
    nodes, weights = np.polynomial.legendre.leggauss(RADIAL_NODES)
    half = 0.5 * (edges[:-1] - edges[1:])[:, None]
    middle = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return float(np.sum(half * weights * f(middle + half * nodes)))


def simulated_second_moment(measure) -> float:
    """Integral of ``|l|^2`` over the simulated region ``epsilon <= |l| <= 1``.

    ``measure`` is an ``AtomicMeasure`` (a sum over its simulated atoms) or a
    ``RadialStableMeasure`` (closed form).
    """
    if isinstance(measure, AtomicMeasure):
        marks, weights, _ = measure._simulated
        return float(np.sum(weights * np.sum(marks**2, axis=1)))
    c, b, n = measure.activity, measure.stability, measure.dimension
    return c * _sphere_area(n) * (1.0 - measure.epsilon ** (2.0 - b)) / (2.0 - b)
