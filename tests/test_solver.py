"""Stepper and trajectory tests: exactness, conservation, order, jump handling."""

import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from jumpnls import nonlinear, solver, spectral
from jumpnls.exceptions import ConfigurationError, NumericsError, ShapeError
from jumpnls.jumps import _chebyshev_coefficients, generator, jump_map
from jumpnls.noise import (
    AtomicMeasure,
    JumpEvent,
    RadialStableMeasure,
    sample_prm,
    trajectory_rng,
)
from jumpnls.nonlinear import (
    admissible_alpha_cap,
    defocusing,
    eval_F,
    eval_Fhat,
    focusing,
)
from jumpnls.solver import (
    CLOSURE_ATOMIC,
    CLOSURE_TAYLOR2,
    MODE_MIDPOINT,
    MODE_SPLITSTEP,
    GalerkinProblem,
    SolverConfig,
    _Dynamics,
    _new_record,
    _record_node,
    build_problem,
    drift,
    renormalize_initial,
    simulate,
    simulate_coupled,
    step_between_jumps,
)
from jumpnls.spectral import (
    DENSE_PAIR_MAX_ENTRIES,
    SpectralModel,
    build_level,
    build_spectral_model,
    torus_1d,
)

from conftest import eigenphase_factor


def decaying_initial(model, seed=11, rate=0.4):
    rng = np.random.default_rng(seed)
    lam = model.eigenvalues_S
    phases = np.exp(2j * np.pi * rng.random(model.num_modes))
    return np.exp(-rate * np.sqrt(lam)) * phases


@pytest.fixture(scope="module")
def cos_symbol(torus_model):
    return np.cos(torus_model.grid_points[:, 0])


# ---------------------------------------------------------------------------
# configuration and initial data
# ---------------------------------------------------------------------------

def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(mode="midpoint")
    with pytest.raises(ConfigurationError):
        SolverConfig(closure="taylor")
    with pytest.raises(ConfigurationError):
        SolverConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(dt=-1e-3)
    with pytest.raises(ConfigurationError):
        SolverConfig(fp_tol=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_fp_iters=0)


def test_problem_validation(torus_model):
    u0 = decaying_initial(torus_model)
    with pytest.raises(ConfigurationError):
        build_problem(torus_model, 4, u0, horizon=0.0)
    with pytest.raises(ConfigurationError):
        build_problem(torus_model, 4, u0, horizon=-1.0)
    # a measure without symbols has no operators to act through
    measure = AtomicMeasure(marks=[[0.3]], weights=[1.0])
    with pytest.raises(ConfigurationError):
        build_problem(torus_model, 4, u0, horizon=1.0, measure=measure)
    # channel count must match the mark dimension
    with pytest.raises(ConfigurationError):
        build_problem(
            torus_model, 4, u0, horizon=1.0,
            symbols=np.cos(torus_model.grid_points[:, 0]),
            measure=AtomicMeasure(marks=[[0.3, 0.1]], weights=[1.0]),
        )


def test_renormalize_preserves_norm(torus_model):
    level = build_level(torus_model, 4)
    u0 = decaying_initial(torus_model)
    tilde = renormalize_initial(torus_model, level, u0)
    assert tilde.shape == (level.dim,)
    assert np.linalg.norm(tilde) == pytest.approx(np.linalg.norm(u0), rel=1e-14)
    # direction matches the smoothed truncation
    smoothed = level.multipliers * u0[level.indices]
    cross = np.abs(np.vdot(smoothed, tilde))
    assert cross == pytest.approx(
        np.linalg.norm(smoothed) * np.linalg.norm(tilde), rel=1e-13
    )


def test_renormalize_annihilated_data_gives_zero(torus_model):
    level = build_level(torus_model, 2)
    u0 = decaying_initial(torus_model)
    u0[level.indices] = 0.0  # support entirely above the level
    tilde = renormalize_initial(torus_model, level, u0)
    assert np.all(tilde == 0.0)
    assert np.linalg.norm(u0) > 0


# ---------------------------------------------------------------------------
# drift assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("record_states", [False, True])
def test_time_grid_refused_beyond_physical_memory(torus_model, monkeypatch, record_states):
    # horizon 1 at dt 0.1 gives 11 nodes; each holds the grid, the jump
    # boundaries and five record columns in float64, plus the state if recorded
    problem = build_problem(torus_model, 3, decaying_initial(torus_model), 1.0)
    config = SolverConfig(dt=0.1)
    needed = 11 * (8 * (2 + 5) + (16 * problem.level.dim if record_states else 0))
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ConfigurationError, match="the 11 time nodes"):
        simulate(problem, config, [], record_states=record_states)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert len(simulate(problem, config, [], record_states=record_states).times) == 11


@pytest.mark.parametrize("events", [
    [], [0.0], [1.0], [0.25, 0.25, 0.25], [0.0, 0.3, 0.3, 0.61, 1.0, 1.0],
    "node",
])
def test_time_grid_equals_union1d(events):
    # the uniform nodes joined with the events, sorted and without repeats
    nodes = np.linspace(0.0, 1.0, 11)
    if events == "node":
        events = [nodes[3], nodes[3], nodes[7]]  # 0.30000000000000004, exactly
    grid = solver._time_grid(1.0, 0.1, events, 8)
    expected = np.union1d(nodes, events)
    assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()


def test_drift_pure_diagonal(torus_model):
    problem = build_problem(torus_model, 5, decaying_initial(torus_model), 1.0)
    config = SolverConfig()
    u = problem.initial
    d = drift(problem, config, u)
    lam = torus_model.eigenvalues_A[problem.level.indices]
    assert np.allclose(d, -1j * lam * u, rtol=0, atol=1e-15)


def test_drift_antisymmetry_no_closure(torus_model, cos_symbol):
    # asymmetric atoms, cutoff 0: compensated mean term but empty closure,
    # so Re<u, drift(u)> vanishes identically
    measure = AtomicMeasure(marks=[[0.4], [-0.2]], weights=[1.0, 0.5], epsilon=0.0)
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure,
    )
    config = SolverConfig()
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.normal(size=problem.level.dim) + 1j * rng.normal(size=problem.level.dim)
        d = drift(problem, config, u)
        pairing = np.vdot(u, d).real
        assert abs(pairing) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(d)


def test_drift_mean_term_matches_manual_formula(torus_model, cos_symbol):
    measure = AtomicMeasure(marks=[[0.4], [-0.2]], weights=[1.0, 0.5], epsilon=0.0)
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        symbols=cos_symbol, measure=measure,
    )
    u = problem.initial
    d = drift(problem, SolverConfig(), u)
    lam = torus_model.eigenvalues_A[problem.level.indices]
    mean = 1.0 * 0.4 + 0.5 * (-0.2)
    manual = -1j * lam * u + 1j * mean * (problem.ops.matrices[0] @ u)
    assert np.linalg.norm(d - manual) <= 1e-13 * np.linalg.norm(manual)


def test_closures_agree_to_third_order(torus_model, cos_symbol):
    # single small atom: Taylor2 reproduces the exact per-atom closure up to
    # the cubic remainder of exp(-iB), |theta|^3/6 per eigenvalue
    u = None
    for radius in (1e-2, 1e-3):
        measure = AtomicMeasure(
            marks=[[radius], [0.9]], weights=[2.0, 1.0], epsilon=0.5
        )
        problem = build_problem(
            torus_model, 5, decaying_initial(torus_model), 1.0,
            symbols=cos_symbol, measure=measure,
        )
        u = problem.initial
        d_taylor = drift(problem, SolverConfig(closure=CLOSURE_TAYLOR2), u)
        d_atomic = drift(problem, SolverConfig(closure=CLOSURE_ATOMIC), u)
        gap = np.linalg.norm(d_atomic - d_taylor)
        bound = 2.0 * (radius * np.sqrt(problem.ops.bound_H)) ** 3 / 6.0
        assert gap <= bound * np.linalg.norm(u) * (1 + 1e-10)
        assert gap > 0


ATOMIC_CLOSURE_MESSAGE = "AtomicExact closure needs an atomic jump measure"


def test_atomic_closure_rejects_infinite_activity(torus_model, cos_symbol):
    measure = RadialStableMeasure(activity=1.0, stability=1.0, dimension=1,
                                  epsilon=0.1)
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        symbols=cos_symbol, measure=measure,
    )
    config = SolverConfig(closure=CLOSURE_ATOMIC)
    with pytest.raises(ConfigurationError, match=ATOMIC_CLOSURE_MESSAGE):
        drift(problem, config, problem.initial)
    with pytest.raises(ConfigurationError, match=ATOMIC_CLOSURE_MESSAGE):
        simulate(problem, config, sample_prm(measure, 1.0, trajectory_rng(0, 0)))


def per_term_noise_drift(problem, closure, x):
    """Noise drift summed term by term: mean, then closure or one round-trip per small atom."""
    ops, moments = problem.ops, problem.measure.moments()
    out = 1j * generator(ops, moments.mean_simulated) @ x
    if closure == CLOSURE_TAYLOR2:
        mats = ops.matrices
        cov = moments.second_moment_small
        out += -0.5 * np.einsum("mn,mab,nbc->ac", cov, mats, mats) @ x
    else:
        # each atom's V f(theta) V^H from its own eigendecomposition
        marks, weights = problem.measure.small_atoms()
        for weight, mark in zip(weights, marks):
            theta, vectors = np.linalg.eigh(generator(ops, mark))
            factor = eigenphase_factor(theta, 2)
            out += weight * (vectors @ (factor * (vectors.conj().T @ x)))
    return out


# three atoms below the cutoff 0.25 and two above it, with a nonzero mean
FOLD_ATOMS = {
    1: ([[0.9], [-0.6], [0.05], [-0.12], [0.2]], [1.0, 0.7, 3.0, 2.0, 0.5]),
    2: ([[0.6, -0.5], [-0.3, 0.2], [0.05, 0.1], [-0.1, 0.02], [0.0, -0.2]],
        [1.0, 2.0, 3.0, 1.5, 0.5]),
}


@pytest.mark.parametrize("closure", [CLOSURE_TAYLOR2, CLOSURE_ATOMIC])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("domain", ["torus", "dirichlet"])
def test_noise_matrix_matches_per_term_drift(request, domain, channels, closure):
    model = request.getfixturevalue(f"{domain}_model")
    x = model.grid_points[:, 0]
    symbols = np.array([np.cos(x), np.sin(2.0 * x) + 0.3])[:channels]
    marks, weights = FOLD_ATOMS[channels]
    measure = AtomicMeasure(marks=marks, weights=weights, epsilon=0.25)
    problem = build_problem(
        model, 4, decaying_initial(model), 1.0, symbols=symbols, measure=measure,
    )
    dyn = _Dynamics(problem, SolverConfig(closure=closure))
    assert dyn.noise_matrix is not None
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = rng.normal(size=problem.level.dim) + 1j * rng.normal(size=problem.level.dim)
        want = per_term_noise_drift(problem, closure, u)
        assert np.linalg.norm(dyn.noise_drift(u) - want) <= 1e-13 * np.linalg.norm(want)


def test_noise_matrix_taylor2_infinite_activity(torus_model):
    x = torus_model.grid_points[:, 0]
    measure = RadialStableMeasure(activity=1.0, stability=1.2, dimension=2,
                                  epsilon=0.3)
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        symbols=[np.cos(x), np.sin(x)], measure=measure,
    )
    dyn = _Dynamics(problem, SolverConfig(closure=CLOSURE_TAYLOR2))
    u = problem.initial
    want = per_term_noise_drift(problem, CLOSURE_TAYLOR2, u)
    assert np.linalg.norm(dyn.noise_drift(u) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("closure", [CLOSURE_TAYLOR2, CLOSURE_ATOMIC])
def test_noise_matrix_absent_without_noise_terms(torus_model, cos_symbol, closure):
    # symmetric atoms, cutoff 0: zero mean and nothing below the cutoff
    measure = AtomicMeasure(marks=[[0.4], [-0.4]], weights=[1.0, 1.0], epsilon=0.0)
    noisy = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        symbols=cos_symbol, measure=measure,
    )
    quiet = build_problem(torus_model, 5, decaying_initial(torus_model), 1.0)
    for problem in (noisy, quiet):
        dyn = _Dynamics(problem, SolverConfig(closure=closure))
        assert dyn.noise_matrix is None
        assert not dyn.has_remainder
        assert not np.any(dyn.noise_drift(problem.initial))


def kernel_cases(model, level_n, dense):
    """Problems on one level for every sign and admissible alpha in {2.5, 3, 5}."""
    level = build_level(model, level_n)
    assert (level.dim * model.num_grid <= DENSE_PAIR_MAX_ENTRIES) == dense
    for make in (defocusing, focusing):
        for alpha in (2.5, 3.0, 5.0):
            nl = make(alpha)
            if alpha < admissible_alpha_cap(nl.sign, model.domain.dimension):
                yield build_problem(model, level_n, decaying_initial(model), 1.0,
                                    nonlinearity=nl)


@pytest.mark.parametrize("dense", [True, False], ids=["dense_pair", "fast_transform"])
def test_workspace_kernel_matches_eval_F(torus_model, torus2d_model, dense):
    # a 1-d level on the cached dense pair, a 2-d level on the fast transforms
    model, level_n = (torus_model, 6) if dense else (torus2d_model, 5)
    rng = np.random.default_rng(29)
    cases = list(kernel_cases(model, level_n, dense))
    assert len(cases) >= 4
    for problem in cases:
        dyn = _Dynamics(problem, SolverConfig())
        idx, nl, dim = problem.level.indices, problem.nonlinearity, problem.level.dim
        record = _new_record(problem, dyn, np.zeros(1), [], False)
        noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for u in (problem.initial, 2.0 * noise, np.zeros(dim, dtype=complex),
                  1e-310 * noise):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                want_F = eval_F(model, nl, u, indices=idx)
                want_Fhat = eval_Fhat(model, nl, u, indices=idx)
            got = dyn.remainder(u)
            assert np.linalg.norm(got - (-1j) * want_F) <= 1e-14 * np.linalg.norm(want_F)
            _record_node(record, dyn, 0, u)
            assert abs(record.potential[0] - want_Fhat) <= 1e-14 * abs(want_Fhat)
            if not np.any(u):
                assert not np.any(got) and record.potential[0] == 0.0


@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
@pytest.mark.parametrize("domain", ["torus", "torus2d"])
def test_step_loop_makes_no_per_call_transforms(request, monkeypatch, domain, mode):
    # the step loop goes through the workspace's bound transform pair; a
    # synthesize/analyze or eval_F/eval_Fhat call from it would bring back
    # the per-call lookups
    model = request.getfixturevalue(f"{domain}_model")
    x = model.grid_points[:, 0]
    measure = AtomicMeasure(marks=[[0.5], [-0.3], [0.05]], weights=[6.0, 6.0, 3.0],
                            epsilon=0.1)
    problem = build_problem(model, 5 if domain == "torus" else 4,
                            decaying_initial(model), 0.2,
                            nonlinearity=defocusing(3.0), symbols=np.cos(x),
                            measure=measure)
    calls = []

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper

    for name in ("synthesize", "analyze"):
        monkeypatch.setattr(SpectralModel, name,
                            counting(name, getattr(SpectralModel, name)))
    for name in ("eval_F", "eval_Fhat"):
        original = getattr(nonlinear, name)
        for module in [m for key, m in sys.modules.items()
                       if key == "jumpnls" or key.startswith("jumpnls.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))

    for closure in (CLOSURE_TAYLOR2, CLOSURE_ATOMIC):
        record = simulate(problem, SolverConfig(mode=mode, dt=0.05, closure=closure),
                          sample_prm(measure, 0.2, trajectory_rng(7, 0)))
        assert record.events and np.all(record.potential > 0)
    assert calls == []


def test_workspace_built_once_per_problem_and_closure(torus_model, cos_symbol,
                                                     monkeypatch):
    builds = []

    class CountingDynamics(_Dynamics):
        def __init__(self, problem, config):
            builds.append(config.closure)
            super().__init__(problem, config)

    monkeypatch.setattr(solver, "_Dynamics", CountingDynamics)
    measure = AtomicMeasure(marks=[[0.5], [-0.3], [0.05]], weights=[6.0, 6.0, 3.0],
                            epsilon=0.1)
    problem = build_problem(torus_model, 5, decaying_initial(torus_model), 0.3,
                            nonlinearity=defocusing(3.0), symbols=cos_symbol,
                            measure=measure)
    for closure in (CLOSURE_TAYLOR2, CLOSURE_ATOMIC):
        for mode in (MODE_MIDPOINT, MODE_SPLITSTEP):
            config = SolverConfig(mode=mode, dt=0.05, closure=closure)
            for k in range(2):
                simulate(problem, config, sample_prm(measure, 0.3, trajectory_rng(1, k)))
            drift(problem, config, problem.initial)
            step_between_jumps(problem, config, problem.initial, 0.01)
    assert builds == [CLOSURE_TAYLOR2, CLOSURE_ATOMIC]
    # a replaced problem starts with no workspaces
    assert dataclasses.replace(problem)._workspaces == {}


def test_fp_iters_max_counts_each_run_alone(torus_model):
    # a coarse-step run needs more iterations than a fine-step one; the
    # shared workspace must not carry the count over
    problem = build_problem(torus_model, 5, decaying_initial(torus_model), 0.2,
                            nonlinearity=defocusing(3.0))
    counts = []
    for dt in (0.1, 0.001):
        config = SolverConfig(dt=dt)
        shared = simulate(problem, config, [])
        fresh = simulate(dataclasses.replace(problem), config, [])
        assert shared.fp_iters_max == fresh.fp_iters_max
        counts.append(shared.fp_iters_max)
    assert counts[0] > counts[1] >= 1


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
def test_diagonal_flow_exact(torus_model, mode):
    problem = build_problem(torus_model, 6, decaying_initial(torus_model), 1.0)
    config = SolverConfig(mode=mode, dt=1e-2)
    lam = torus_model.eigenvalues_A[problem.level.indices]
    u = problem.initial.copy()
    steps = 100
    for _ in range(steps):
        u = step_between_jumps(problem, config, u, config.dt)
    exact = np.exp(-1j * lam * (steps * config.dt)) * problem.initial
    assert np.linalg.norm(u - exact) <= 1e-12 * np.linalg.norm(exact)
    assert abs(np.linalg.norm(u) - np.linalg.norm(problem.initial)) <= 1e-13


def test_midpoint_mass_conservation_nonlinear(torus_model):
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        nonlinearity=defocusing(3.0),
    )
    config = SolverConfig(mode=MODE_MIDPOINT, dt=1e-2)
    u = problem.initial.copy()
    mass0 = np.sum(np.abs(u) ** 2)
    for _ in range(100):
        u = step_between_jumps(problem, config, u, config.dt)
    assert abs(np.sum(np.abs(u) ** 2) - mass0) <= 1e-12 * mass0


def test_midpoint_time_reversibility(torus_model):
    # conjugation reverses time for the deterministic flow; a symmetric
    # stepper must return to the initial state through that involution
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0,
        nonlinearity=defocusing(3.0),
    )
    config = SolverConfig(mode=MODE_MIDPOINT, fp_tol=1e-14)
    tau = 0.02
    u0 = problem.initial
    forward = step_between_jumps(problem, config, u0, tau)
    back = np.conj(step_between_jumps(problem, config, np.conj(forward), tau))
    assert np.linalg.norm(back - u0) <= 1e-10 * np.linalg.norm(u0)


@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
def test_second_order_convergence(torus_model, mode):
    # steep decay keeps the truncation well resolved, so the asymptotic
    # second-order regime is reached at these step sizes
    problem = build_problem(
        torus_model, 4, decaying_initial(torus_model, rate=1.2), 1.0,
        nonlinearity=defocusing(3.0),
    )
    horizon = 0.25

    def advance(dt):
        config = SolverConfig(mode=mode, dt=dt, fp_tol=1e-14)
        u = problem.initial.copy()
        for _ in range(int(round(horizon / dt))):
            u = step_between_jumps(problem, config, u, dt)
        return u

    reference = advance(horizon / 1024)
    errors = [np.linalg.norm(advance(horizon / n) - reference) for n in (32, 64)]
    ratio = errors[0] / errors[1]
    assert 3.2 <= ratio <= 4.8, f"order-2 ratio {ratio}, errors {errors}"


def test_split_and_midpoint_agree_at_small_steps(torus_model, cos_symbol):
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[1.0, 1.0], epsilon=0.6)
    problem = build_problem(
        torus_model, 4, decaying_initial(torus_model), 1.0,
        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure,
    )
    u0 = problem.initial

    def one_step(mode, tau):
        return step_between_jumps(problem, SolverConfig(mode=mode), u0, tau)

    gaps = []
    for tau in (0.02, 0.01):
        gaps.append(
            np.linalg.norm(one_step(MODE_MIDPOINT, tau) - one_step(MODE_SPLITSTEP, tau))
        )
    # the Euler noise substep makes the split scheme first order in the
    # compensator terms, so one-step gaps shrink at O(tau^2)
    assert gaps[1] <= gaps[0] / 3.5
    assert gaps[0] > 0


def test_fixed_point_failure_raises(torus_model):
    problem = build_problem(
        torus_model, 6, 5.0 * decaying_initial(torus_model), 1.0,
        nonlinearity=defocusing(5.0),
    )
    bad = SolverConfig(mode=MODE_MIDPOINT, dt=0.5, max_fp_iters=2, max_halvings=0)
    with pytest.raises(NumericsError):
        step_between_jumps(problem, bad, problem.initial, bad.dt)
    # halving with a sane iteration budget rescues the same step
    rescued = SolverConfig(mode=MODE_MIDPOINT, dt=0.5, max_fp_iters=30,
                           max_halvings=12)
    out = step_between_jumps(problem, rescued, problem.initial, rescued.dt)
    mass0 = np.sum(np.abs(problem.initial) ** 2)
    assert abs(np.sum(np.abs(out) ** 2) - mass0) <= 1e-10 * mass0


def test_step_validation(torus_model):
    problem = build_problem(torus_model, 4, decaying_initial(torus_model), 1.0)
    config = SolverConfig()
    with pytest.raises(ConfigurationError):
        step_between_jumps(problem, config, problem.initial, 0.0)
    with pytest.raises(ShapeError):
        step_between_jumps(problem, config, problem.initial[:-1], 0.1)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_simulate_jump_adapted_grid_and_cadlag(torus_model, cos_symbol):
    # linear diagonal flow plus two prescribed jumps: everything has a
    # closed form, including the post-jump values recorded at event times
    level = build_level(torus_model, 5)
    problem = build_problem(
        torus_model, 5, decaying_initial(torus_model), 1.0, symbols=cos_symbol,
    )
    mark = np.array([0.7])
    events = [JumpEvent(time=0.35, mark=mark), JumpEvent(time=0.617, mark=-mark)]
    config = SolverConfig(dt=0.1)
    record = simulate(problem, config, events=events)

    assert record.times[0] == 0.0 and record.times[-1] == 1.0
    assert np.all(np.diff(record.times) > 0)
    for e in events:
        assert e.time in record.times

    lam = torus_model.eigenvalues_A[level.indices]
    u = problem.initial.copy()
    t_prev = 0.0
    expected = {}
    for e in events:
        u = np.exp(-1j * lam * (e.time - t_prev)) * u
        u = jump_map(problem.ops, e.mark, u)
        expected[e.time] = u.copy()
        t_prev = e.time
    final = np.exp(-1j * lam * (1.0 - t_prev)) * u

    for e in events:
        i = int(np.nonzero(record.times == e.time)[0][0])
        got = record.states[i]
        assert np.linalg.norm(got - expected[e.time]) <= 1e-12 * np.linalg.norm(got)
    assert np.linalg.norm(record.states[-1] - final) <= 1e-12 * np.linalg.norm(final)
    # unitary jumps: mass stays flat across the whole path
    assert np.max(np.abs(record.mass - record.mass[0])) <= 1e-12 * record.mass[0]
    assert record.events == events


def test_simulate_diagnostics_columns(torus_model, cos_symbol):
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[2.0, 2.0])
    problem = build_problem(
        torus_model, 4, decaying_initial(torus_model), 0.5,
        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure,
    )
    events = sample_prm(measure, 0.5, trajectory_rng(42, 0))
    record = simulate(problem, SolverConfig(dt=0.05), events)
    assert np.allclose(record.energy, record.kinetic + record.potential)
    sq = np.abs(record.states) ** 2
    assert np.allclose(record.mass, np.sum(sq, axis=1))
    assert np.allclose(record.ea_norm**2, np.sum(record.ea_weights * sq, axis=1))
    slim = simulate(problem, SolverConfig(dt=0.05), events, record_states=False)
    assert slim.states is None
    assert np.array_equal(slim.mass, record.mass)


def test_simulate_reproducible_streams(torus_model, cos_symbol):
    measure = AtomicMeasure(marks=[[0.4], [-0.4]], weights=[3.0, 3.0])
    problem = build_problem(
        torus_model, 4, decaying_initial(torus_model), 1.0,
        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure,
    )
    config = SolverConfig(dt=0.02)
    rec1, rec2, rec_other = (
        simulate(problem, config, sample_prm(measure, 1.0, trajectory_rng(7, k)))
        for k in (3, 3, 4)
    )
    assert np.array_equal(rec1.states, rec2.states)
    assert np.array_equal(rec1.times, rec2.times)
    if len(rec1.events) or len(rec_other.events):
        same = len(rec1.events) == len(rec_other.events) and all(
            e1.time == e2.time for e1, e2 in zip(rec1.events, rec_other.events)
        )
        assert not same


def test_simulate_event_validation(torus_model, cos_symbol):
    problem = build_problem(
        torus_model, 4, decaying_initial(torus_model), 1.0, symbols=cos_symbol,
    )
    mark = np.array([0.1])
    with pytest.raises(ConfigurationError):
        simulate(problem, SolverConfig(dt=0.1),
                 events=[JumpEvent(time=1.5, mark=mark)])
    with pytest.raises(ConfigurationError):
        simulate(problem, SolverConfig(dt=0.1),
                 events=[JumpEvent(time=0.9, mark=mark),
                         JumpEvent(time=0.2, mark=mark)])
    bare = build_problem(torus_model, 4, decaying_initial(torus_model), 1.0)
    with pytest.raises(ConfigurationError):
        simulate(bare, SolverConfig(dt=0.1), events=[JumpEvent(time=0.5, mark=mark)])
    # a run without its jump path is refused
    measure = AtomicMeasure(marks=[[0.4]], weights=[1.0])
    noisy = build_problem(torus_model, 4, decaying_initial(torus_model), 1.0,
                          symbols=cos_symbol, measure=measure)
    with pytest.raises(TypeError, match="events"):
        simulate(noisy, SolverConfig(dt=0.1))
    finer = build_problem(torus_model, 6, decaying_initial(torus_model), 1.0,
                          symbols=cos_symbol, measure=measure)
    with pytest.raises(TypeError, match="events"):
        simulate_coupled(noisy, finer, SolverConfig(dt=0.1))


@pytest.mark.parametrize("noise", ["atomic", "radial_stable"])
def test_jump_path_makes_no_eigh_call(torus_model, cos_symbol, noise, monkeypatch):
    # marks in the unit ball give radius <= 1, so each jump is a Chebyshev
    # sum of at most 16 matvecs: below the dimensions 23 and 45 of levels 6
    # and 8, above the dimension 5 of level 2
    if noise == "atomic":
        measure = AtomicMeasure(marks=[[0.5], [-0.3], [0.8]], weights=[6.0, 6.0, 4.0])
    else:
        measure = RadialStableMeasure(activity=2.0, stability=1.2, dimension=1,
                                      epsilon=0.2)
    tiny, low, high = (
        build_problem(torus_model, n, decaying_initial(torus_model), 1.0,
                      nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure)
        for n in (2, 6, 8)
    )
    config = SolverConfig(dt=0.05, closure=CLOSURE_TAYLOR2)
    events = sample_prm(measure, 1.0, trajectory_rng(5, 1))
    assert tiny.level.dim == 5
    assert all(len(_chebyshev_coefficients(tiny.ops.radius(e.mark))) - 1 > 5
               for e in events)

    def eigh(*args, **kwargs):
        raise AssertionError("eigh called on the jump path")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    record = simulate(high, config, sample_prm(measure, 1.0, trajectory_rng(5, 0)))
    coupled = simulate_coupled(low, high, config, events)
    small = simulate(tiny, config, events=events)
    assert record.events and coupled.record_high.events and small.events
    if noise == "atomic":
        # atoms below the cutoff: the AtomicExact compensator is built too
        split = AtomicMeasure(marks=[[0.5], [-0.3], [0.8], [0.1], [-1e-30]],
                              weights=[6.0, 6.0, 4.0, 3.0, 2.0], epsilon=0.2)
        problem = dataclasses.replace(high, measure=split)
        exact = simulate(problem, SolverConfig(dt=0.05, closure=CLOSURE_ATOMIC),
                         sample_prm(split, 1.0, trajectory_rng(5, 2)))
        assert exact.events


def test_coupled_levels_identical_for_resolved_linear_flow(torus_model, cos_symbol):
    # initial data and dynamics confined to modes the coarse level resolves
    # without smoothing: both levels then follow the same path
    coarse = build_level(torus_model, 3)
    u0 = np.zeros(torus_model.num_modes, dtype=complex)
    resolved = coarse.indices[coarse.multipliers == 1.0]
    u0[resolved] = decaying_initial(torus_model)[resolved]
    measure = AtomicMeasure(marks=[[0.6], [-0.6]], weights=[2.0, 2.0])
    constant_symbol = np.ones(torus_model.num_grid)

    problems = [
        build_problem(torus_model, n, u0, 1.0, symbols=constant_symbol,
                      measure=measure)
        for n in (3, 6)
    ]
    result = simulate_coupled(problems[0], problems[1], SolverConfig(dt=0.05),
                              sample_prm(measure, 1.0, trajectory_rng(5, 0)))
    assert result.levels == (3, 6)
    assert np.array_equal(result.record_low.times, result.record_high.times)
    assert result.distance <= 1e-12
    assert len(result.distances) == len(result.record_low.times)


def test_coupled_levels_validation(torus_model, cos_symbol):
    u0 = decaying_initial(torus_model)
    p4 = build_problem(torus_model, 4, u0, 1.0)
    p6 = build_problem(torus_model, 6, u0, 1.0)
    with pytest.raises(ConfigurationError):
        simulate_coupled(p6, p4, SolverConfig(dt=0.1), [])
    with pytest.raises(ConfigurationError):
        simulate_coupled(p4, p4, SolverConfig(dt=0.1), [])
    p_short = build_problem(torus_model, 6, u0, 0.5)
    with pytest.raises(ConfigurationError):
        simulate_coupled(p4, p_short, SolverConfig(dt=0.1), [])
    with pytest.raises(ConfigurationError):
        simulate_coupled(p4, p6, SolverConfig(dt=0.1),
                         [JumpEvent(0.5, np.array([0.3]))])


def test_coupled_nonlinear_distance_shrinks_with_level(torus_model):
    # same jump path, finer truncations successively closer to the finest
    u0 = decaying_initial(torus_model, rate=0.9)
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[2.0, 2.0])
    symbol = np.cos(torus_model.grid_points[:, 0])
    config = SolverConfig(dt=0.02)

    def problem(n):
        return build_problem(torus_model, n, u0, 0.5,
                             nonlinearity=defocusing(3.0), symbols=symbol,
                             measure=measure)

    fine = problem(7)
    events = sample_prm(measure, 0.5, trajectory_rng(123, 0))
    distances = [simulate_coupled(problem(n), fine, config, events).distance
                 for n in (3, 5)]
    assert distances[1] < distances[0]


@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
def test_coupled_levels_match_independent_runs(torus_model, cos_symbol, mode):
    # stepping the levels together changes nothing in either level's path
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[2.0, 2.0])
    config = SolverConfig(mode=mode, dt=0.05)
    problems = [
        build_problem(torus_model, n, decaying_initial(torus_model), 1.0,
                      nonlinearity=defocusing(3.0), symbols=cos_symbol,
                      measure=measure)
        for n in (4, 6)
    ]
    events = sample_prm(measure, 1.0, trajectory_rng(17, 0))
    assert events
    result = simulate_coupled(*problems, config, events)
    alone = [simulate(problem, config, events=events) for problem in problems]
    for record, single in zip((result.record_low, result.record_high), alone):
        assert record.states is None
        for field in ("times", "mass", "kinetic", "potential", "energy", "ea_norm"):
            assert np.array_equal(getattr(record, field), getattr(single, field)), field
        assert record.fp_iters_max == single.fp_iters_max
    if mode == MODE_MIDPOINT:
        assert result.record_high.fp_iters_max > 0

    # the dual-norm gap of the independent histories, coarse path zero-padded
    low, high = alone
    embedded = np.zeros_like(high.states)
    embedded[:, np.searchsorted(problems[1].level.indices,
                                problems[0].level.indices)] = low.states
    inv_w = 1.0 / high.ea_weights
    want = np.sqrt(np.sum(np.abs(high.states - embedded) ** 2 * inv_w, axis=1))
    assert np.array_equal(result.distances, want)
    assert result.distance == np.max(want)


def test_coupled_memory_does_not_grow_with_nodes():
    # a coupled run holds one state per level, so an 8x longer horizon adds
    # only per-node scalars: far less than the half fine-level state per
    # extra node that any kept history would cost
    model = build_spectral_model(torus_1d(2 * np.pi), beta=1.0, max_level=10)
    u0 = decaying_initial(model)
    config = SolverConfig(dt=0.01)

    def peak(horizon):
        low, high = (build_problem(model, n, u0, horizon,
                                   nonlinearity=defocusing(3.0))
                     for n in (8, 10))
        tracemalloc.start()
        try:
            result = simulate_coupled(low, high, config, [])
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    peak(0.1)  # one-time allocations of a first run stay outside the comparison
    short, short_result = peak(0.1)
    long, long_result = peak(0.8)
    assert long_result.record_low.states is None
    assert long_result.record_high.states is None
    extra_nodes = len(long_result.distances) - len(short_result.distances)
    fine_dim = len(long_result.record_high.ea_weights)
    assert extra_nodes > 60
    assert long - short < 8 * fine_dim * extra_nodes
