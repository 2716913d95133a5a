"""Diagnostics tests: energy report, oscillation modulus, ensemble statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from jumpnls.diagnostics import (
    BOOTSTRAP_RESAMPLES,
    CONFIDENCE,
    MOMENT_ORDERS,
    ensemble_moments,
)
from jumpnls.exceptions import ShapeError
from jumpnls.noise import AtomicMeasure, JumpPath, TrajectoryStream, sample_prm, trajectory_rng
from jumpnls.nonlinear import defocusing
from jumpnls.oracles import cadlag_modulus, energy, energy_derivative
from jumpnls.solver import GalerkinProblem, SolverConfig, simulate
from jumpnls.spectral import build_level

from conftest import brute_force_modulus, top_level


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_single_dirichlet_mode(dirichlet_model):
    state = np.zeros(dirichlet_model.num_modes, dtype=complex)
    state[0] = 1.0  # lowest mode, lambda_A = 1
    report = energy(top_level(dirichlet_model), defocusing(3.0), state)
    assert report.mass == pytest.approx(1.0, rel=1e-14)
    assert report.kinetic == pytest.approx(0.5, rel=1e-14)
    assert report.potential == pytest.approx(3.0 / (8.0 * math.pi), rel=1e-12)
    assert report.total == pytest.approx(report.kinetic + report.potential)


def test_energy_without_nonlinearity(torus_model):
    rng = np.random.default_rng(0)
    state = rng.normal(size=torus_model.num_modes) * (1.0 + 0.5j)
    report = energy(top_level(torus_model), None, state)
    assert report.potential == 0.0
    lam = torus_model.eigenvalues_A
    assert report.kinetic == pytest.approx(
        0.5 * float(np.sum(lam * np.abs(state) ** 2)), rel=1e-13
    )


def test_energy_shape_error(torus_model):
    with pytest.raises(ShapeError):
        energy(top_level(torus_model), None, np.ones(3, dtype=complex))


def test_energy_derivative_matches_difference_quotient(torus_model):
    rng = np.random.default_rng(7)
    level = build_level(torus_model, 4)
    nl = defocusing(3.0)
    x = rng.normal(size=level.dim) + 1j * rng.normal(size=level.dim)
    h = rng.normal(size=level.dim) + 1j * rng.normal(size=level.dim)
    exact = energy_derivative(level, nl, x, h)

    def total(state):
        return energy(level, nl, state).total

    eps = 1e-6
    fd = (total(x + eps * h) - total(x - eps * h)) / (2 * eps)
    assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


def test_energy_near_conservation_deterministic_run(torus_model):
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, np.exp(-np.sqrt(torus_model.eigenvalues_S)) + 0j,
        nonlinearity=defocusing(3.0),
    )
    record = simulate(problem, SolverConfig(dt=2e-3), JumpPath())
    drift = np.max(np.abs(record.energy - record.energy[0]))
    assert drift <= 1e-6 * max(1.0, abs(record.energy[0]))


# ---------------------------------------------------------------------------
# oscillation modulus
# ---------------------------------------------------------------------------

def test_modulus_hand_worked_path():
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    values = [0.0, 1.0, 1.0, 3.0, 9.0]
    # cells that isolate every step are allowed at delta = 0.25
    assert cadlag_modulus(times, values, 0.25) == pytest.approx(0.0, abs=0)
    # delta = 0.3 forces boundaries {0, 0.5, 1}: cells {0,1} and {1,3}
    assert cadlag_modulus(times, values, 0.3) == pytest.approx(2.0)
    # delta = 0.8 leaves only the trivial partition; the value at T is the
    # path's right endpoint and never enters a half-open cell
    assert cadlag_modulus(times, values, 0.8) == pytest.approx(3.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 3])
def test_modulus_matches_brute_force(seed, width):
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.random(6))
    times = np.concatenate([[0.0], inner, [1.0]])
    values = rng.normal(size=(len(times), width)) + 1j * rng.normal(
        size=(len(times), width)
    )
    for delta in (0.05, 0.2, 0.45, 0.8, 1.0):
        got = cadlag_modulus(times, values, delta)
        want = brute_force_modulus(times, values, delta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def dense_distance_modulus(times, values, delta):
    """The modulus computed from the full (m, m) pairwise distance table."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    m = len(times)
    diff = values[:, None, :] - values[None, :, :]
    dist = np.sqrt(np.sum(np.abs(diff) ** 2, axis=2))
    osc = np.zeros((m, m))
    for j in range(2, m):
        suffix = np.maximum.accumulate(dist[j - 1, : j - 1][::-1])[::-1]
        osc[: j - 1, j] = np.maximum(osc[: j - 1, j - 1], suffix)
    best = np.full(m, np.inf)
    best[0] = 0.0
    for j in range(1, m):
        feasible = np.nonzero(times[j] - times[:j] >= delta)[0]
        if len(feasible):
            best[j] = np.min(np.maximum(best[feasible], osc[feasible, j]))
    return float(best[m - 1])


def test_modulus_rowwise_distances_match_dense_table():
    # the row-by-row distances must reproduce the dense table bit for bit
    rng = np.random.default_rng(31)
    for trial in range(60):
        m = int(rng.integers(2, 80))
        width = int(rng.integers(1, 12))
        times = np.concatenate([[0.0], np.sort(rng.random(m - 2)), [1.0]])
        if np.any(np.diff(times) <= 0):
            continue
        scale = 10.0 ** rng.uniform(-8, 4)
        values = scale * (rng.normal(size=(m, width))
                          + 1j * rng.normal(size=(m, width)))
        for delta in (1e-3, 0.1, 0.37, 1.0):
            got = cadlag_modulus(times, values, delta)
            assert got == dense_distance_modulus(times, values, delta), trial


def test_modulus_memory_linear_in_times():
    # an (m, m) float table would take 32 MB at m = 2001
    m = 2001
    times = np.linspace(0.0, 1.0, m)
    values = np.random.default_rng(7).normal(size=m)
    tracemalloc.start()
    try:
        cadlag_modulus(times, values, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_modulus_monotone_in_delta():
    rng = np.random.default_rng(5)
    times = np.concatenate([[0.0], np.sort(rng.random(10)), [1.0]])
    values = rng.normal(size=len(times))
    deltas = np.linspace(0.05, 1.0, 12)
    mods = [cadlag_modulus(times, values, d) for d in deltas]
    assert all(a <= b + 1e-14 for a, b in zip(mods, mods[1:]))


def test_modulus_constant_path_is_zero():
    times = [0.0, 0.4, 1.0]
    values = [2.0 + 1j, 2.0 + 1j, 2.0 + 1j]
    assert cadlag_modulus(times, values, 0.9) == 0.0


def test_modulus_validation():
    with pytest.raises(ShapeError):
        cadlag_modulus([0.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        cadlag_modulus([0.0, 0.5, 0.5], [1.0, 2.0, 3.0], 0.1)
    with pytest.raises(ValueError):
        cadlag_modulus([0.0, 1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        cadlag_modulus([0.0, 1.0], [1.0, 2.0], 1.5)
    with pytest.raises(ShapeError):
        cadlag_modulus([0.0, 0.5, 1.0], [1.0, 2.0], 0.1)


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_ensemble(torus_model):
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[3.0, 3.0])
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, np.exp(-0.8 * np.sqrt(torus_model.eigenvalues_S)) + 0j,
        nonlinearity=defocusing(3.0),
        symbols=np.cos(torus_model.grid_points[:, 0]),
        measure=measure,
    )
    config = SolverConfig(dt=0.05)
    return [
        simulate(problem, config, sample_prm(measure, 1.0, trajectory_rng(99, k)))
        for k in range(6)
    ]


def test_ensemble_moments_summary(small_ensemble):
    sup_ea = [float(np.max(r.ea_norm)) for r in small_ensemble]
    moments = ensemble_moments(sup_ea)
    assert sorted(moments) == [1.0, 2.0]
    for r in (1.0, 2.0):
        mean, lo, hi = moments[r]
        assert mean == pytest.approx(float(np.mean(np.array(sup_ea)**r)), rel=1e-13)
        assert lo <= mean <= hi
        assert lo < hi
    # seeded bootstrap is reproducible
    again = ensemble_moments(sup_ea)
    assert again == moments


def test_ensemble_bootstrap_memory_does_not_grow_with_trajectories():
    # the resamples go in row blocks that continue one random stream, so the
    # bands equal those of a one-shot (500, K) draw, whose index table alone
    # takes 76 MiB here
    sup_ea = np.random.default_rng(3).lognormal(size=20_000)
    tracemalloc.start()
    try:
        moments = ensemble_moments(sup_ea, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert moments == numpy_bands(sup_ea, seed=7)


def numpy_bands(sup_ea, seed):
    """The bands from one (500, K) draw of ``numpy.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    resamples = rng.integers(0, len(sup_ea), size=(BOOTSTRAP_RESAMPLES, len(sup_ea)))
    lo_q, hi_q = (1 - CONFIDENCE) / 2, 1 - (1 - CONFIDENCE) / 2
    bands = {}
    for r in MOMENT_ORDERS:
        samples = sup_ea**r
        boot_means = np.mean(samples[resamples], axis=1)
        bands[r] = (float(np.mean(samples)), float(np.quantile(boot_means, lo_q)),
                    float(np.quantile(boot_means, hi_q)))
    return bands


@pytest.mark.parametrize("k", [2, 3, 16, 65, 66, 131, 132, 200])
def test_ensemble_bootstrap_is_numpys_bootstrap(k, monkeypatch):
    # the trajectory stream of the seed draws the indices numpy's generator
    # draws, itself while the first row block fits in
    # ``STREAM_INTEGER_ENTRIES`` (K <= 65), through numpy from K = 66 on
    sup_ea = np.random.default_rng(k).lognormal(size=k)
    handovers = []
    handover = TrajectoryStream._numpy
    monkeypatch.setattr(TrajectoryStream, "_numpy",
                        lambda self: handovers.append(k) or handover(self))
    assert ensemble_moments(sup_ea, seed=11) == numpy_bands(sup_ea, seed=11)
    assert bool(handovers) == (k >= 66)


def test_ensemble_requires_two_records(small_ensemble):
    sup_ea = [float(np.max(r.ea_norm)) for r in small_ensemble]
    with pytest.raises(ValueError):
        ensemble_moments(sup_ea[:1])
    with pytest.raises(ValueError):
        ensemble_moments([])
