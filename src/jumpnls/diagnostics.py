"""Conserved-quantity reports, path-regularity diagnostics, ensemble statistics."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import ShapeError
from .nonlinear import Nonlinearity, eval_F, eval_Fhat
from .spectral import SpectralModel


@dataclasses.dataclass(frozen=True)
class EnergyReport:
    """Mass, kinetic part (1/2)||A^(1/2)u||^2, potential part, and their sum."""

    mass: float
    kinetic: float
    potential: float
    total: float


def energy(
    model: SpectralModel,
    nl: Nonlinearity | None,
    state: np.ndarray,
    indices=None,
) -> EnergyReport:
    state = np.asarray(state, dtype=complex)
    idx = np.arange(model.num_modes) if indices is None else np.asarray(indices)
    if state.shape != (len(idx),):
        raise ShapeError(f"expected {len(idx)} coefficients, got {state.shape}")
    sq = np.abs(state) ** 2
    mass = float(np.sum(sq))
    kinetic = float(0.5 * np.sum(model.eigenvalues_A[idx] * sq))
    potential = 0.0 if nl is None else eval_Fhat(model, nl, state, indices=idx)
    return EnergyReport(mass=mass, kinetic=kinetic, potential=potential,
                        total=kinetic + potential)


def energy_derivative(
    model: SpectralModel,
    nl: Nonlinearity | None,
    state: np.ndarray,
    direction: np.ndarray,
    indices=None,
) -> float:
    """Directional derivative of the energy: Re <A u + F(u), h>."""
    state = np.asarray(state, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    idx = np.arange(model.num_modes) if indices is None else np.asarray(indices)
    grad = model.eigenvalues_A[idx] * state
    if nl is not None:
        grad = grad + eval_F(model, nl, state, indices=idx)
    return float(np.vdot(grad, direction).real)


# ---------------------------------------------------------------------------
# cadlag modulus
# ---------------------------------------------------------------------------

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
# ensemble statistics
# ---------------------------------------------------------------------------

#: the orders r, the resample count and the two-sided coverage of the bands
MOMENT_ORDERS = (1.0, 2.0)
BOOTSTRAP_RESAMPLES = 500
CONFIDENCE = 0.95

#: resample indices drawn and gathered at once (512 KiB of int64)
_BOOTSTRAP_BLOCK_ENTRIES = 2**16


def ensemble_moments(sup_ea_norm, seed: int = 0) -> dict:
    """Empirical E[sup_t ||u||_{E_A}^r] with seeded bootstrap bands.

    ``sup_ea_norm`` holds one sup_t ||u||_{E_A} per trajectory (the
    ``sup_ea_norm`` list of ``summary.json``); at least two are required.
    Returns ``{r: (mean, lower, upper)}`` for r in ``MOMENT_ORDERS``.  The
    resamples are drawn in row blocks that continue one random stream, so
    memory does not grow with the number of trajectories.
    """
    sup_ea = np.asarray(sup_ea_norm, dtype=float)
    if sup_ea.ndim != 1 or len(sup_ea) < 2:
        raise ValueError("need at least two per-trajectory suprema")
    rng = np.random.default_rng(seed)
    lo_q, hi_q = (1 - CONFIDENCE) / 2, 1 - (1 - CONFIDENCE) / 2
    k = len(sup_ea)
    samples = np.stack([sup_ea**r for r in MOMENT_ORDERS])
    boot_means = np.empty((len(MOMENT_ORDERS), BOOTSTRAP_RESAMPLES))
    rows = max(1, _BOOTSTRAP_BLOCK_ENTRIES // k)
    for start in range(0, BOOTSTRAP_RESAMPLES, rows):
        block = slice(start, min(start + rows, BOOTSTRAP_RESAMPLES))
        resamples = rng.integers(0, k, size=(block.stop - start, k))
        for values, means in zip(samples, boot_means):
            means[block] = np.mean(values[resamples], axis=1)
    boot_means.sort(axis=1)
    return {
        r: (float(np.mean(values)),
            _linear_quantile(means, lo_q),
            _linear_quantile(means, hi_q))
        for r, values, means in zip(MOMENT_ORDERS, samples, boot_means)
    }


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of sorted values, with the same arithmetic.

    The default (linear) method interpolates between the neighbours of the
    position ``(n - 1) q``; ``np.quantile`` finds them through ``np.unique``,
    which imports ``numpy.ma``.
    """
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    gamma = position - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    # numpy's lerp: from the nearer end, so that gamma = 1 returns b exactly
    if gamma >= 0.5:
        return float(b - (b - a) * (1.0 - gamma))
    return float(a + (b - a) * gamma)


# ---------------------------------------------------------------------------
# tightness-style increment statistic
# ---------------------------------------------------------------------------

def _state_at(record, t: float) -> np.ndarray:
    """Right-continuous lookup of the recorded state at time t."""
    i = int(np.searchsorted(record.times, t, side="right")) - 1
    i = max(0, min(i, len(record.times) - 1))
    return record.states[i]


def aldous_statistic(
    records,
    thetas,
    eta: float,
    stopping: tuple = ("fixed", 0.0),
) -> np.ndarray:
    """Empirical P(dual-norm increment after a stopping time >= eta).

    For each record, a stopping time tau is chosen by ``stopping``:
    ``("fixed", t0)`` takes tau = t0; ``("first_jump_after", t0)`` takes the
    first recorded jump time after t0 (or the horizon when none).  The
    statistic is the fraction of records with
    ``||u(tau + theta) - u(tau)||_{E_A*} >= eta`` for each theta; small values
    uniformly in theta are the discrete signature of tightness.

    Records must carry full states and their ``ea_weights``.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one trajectory record")
    if eta <= 0:
        raise ValueError("eta must be positive")
    kind, t0 = stopping
    if kind not in ("fixed", "first_jump_after"):
        raise ValueError(f"unknown stopping rule {kind!r}")
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros(len(thetas))
    for record in records:
        if record.states is None:
            raise ValueError("records must retain states for this statistic")
        horizon = record.times[-1]
        if kind == "fixed":
            tau = min(float(t0), horizon)
        else:
            jump_times = [e.time for e in record.events if e.time > t0]
            tau = min(jump_times) if jump_times else horizon
        u_tau = _state_at(record, tau)
        inv_w = 1.0 / record.ea_weights
        for i, theta in enumerate(thetas):
            u_later = _state_at(record, min(tau + theta, horizon))
            dist = np.sqrt(np.sum(np.abs(u_later - u_tau) ** 2 * inv_w))
            if dist >= eta:
                out[i] += 1.0
    return out / len(records)
