"""Stepper and trajectory tests: exactness, conservation, order, jump handling."""

import configparser
import dataclasses
import io
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpnls import jumps, nonlinear, oracles, solver, spectral
from jumpnls.config import build_problem_from_spec, parse_config
from jumpnls.exceptions import ConfigurationError, NumericsError, ShapeError
from jumpnls.jumps import _chebyshev_coefficients, jump_map
from jumpnls.noise import (
    AtomicMeasure,
    JumpPath,
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
    _record_node,
    _recorded_run,
    converge_ensemble,
    drift,
    renormalize_initial,
    simulate,
    simulate_coupled,
    simulate_ensemble,
    step_between_jumps,
)
from jumpnls.spectral import (
    DENSE_PAIR_MAX_ENTRIES,
    SpectralModel,
    build_level,
    build_spectral_model,
    interval_dirichlet,
    torus_1d,
)

from conftest import branch_nodes, eigenphase_factor

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped_spec(name: str, edits=()):
    """``configs/<name>.ini``, parsed with ``((section, key), value)`` edits."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG_DIR / f"{name}.ini", encoding="utf-8")
    for (section, key), value in edits:
        parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    return parse_config(text.getvalue())


def stiff_step_spec(scale: str, *edits):
    """One step of atomic_cubic from flat ``[initial]`` data of modulus ``scale``."""
    return shipped_spec("atomic_cubic", [(("initial", "scale"), scale),
                                         (("initial", "rate"), "0"),
                                         (("run", "horizon"), "0.005"), *edits])


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
    # a halving deepens the midpoint recursion by one; dt 2^-52 is one ulp of dt
    assert SolverConfig(max_halvings=0).max_halvings == 0
    assert SolverConfig(max_halvings=solver.MAX_HALVINGS).max_halvings == 52
    for bad in (-1, 53):
        with pytest.raises(ConfigurationError, match=r"max_halvings must be in \[0, 52\]"):
            SolverConfig(max_halvings=bad)


def test_problem_validation(torus_model):
    u0 = decaying_initial(torus_model)
    with pytest.raises(ConfigurationError):
        GalerkinProblem(build_level(torus_model, 4), 0.0, u0)
    with pytest.raises(ConfigurationError):
        GalerkinProblem(build_level(torus_model, 4), -1.0, u0)
    # a measure without symbols has no operators to act through
    measure = AtomicMeasure(marks=[[0.3]], weights=[1.0])
    with pytest.raises(ConfigurationError):
        GalerkinProblem(build_level(torus_model, 4), 1.0, u0, measure=measure)
    # channel count must match the mark dimension
    with pytest.raises(ConfigurationError):
        GalerkinProblem(
            build_level(torus_model, 4), 1.0, u0,
            symbols=np.cos(torus_model.grid_points[:, 0]),
            measure=AtomicMeasure(marks=[[0.3, 0.1]], weights=[1.0]),
        )


def test_a_problem_refuses_its_own_inadmissible_exponent(torus_model):
    # on the 1-d torus (beta 1)
    level = build_level(torus_model, 4)
    initial = np.ones(level.dim, dtype=complex)
    with pytest.raises(ConfigurationError, match=r"requires alpha < 5\.0"):
        GalerkinProblem(level, 1.0, initial, nonlinearity=focusing(6.0))
    assert GalerkinProblem(level, 1.0, initial, nonlinearity=focusing(4.0)).nonlinearity


def test_a_problem_refuses_initial_data_short_of_its_level(torus_model):
    level = build_level(torus_model, 4)
    with pytest.raises(ShapeError, match="does not cover the level's modes"):
        GalerkinProblem(level, 1.0, np.ones(level.dim - 1, dtype=complex))


def test_a_problem_takes_its_model_from_its_level():
    # A and B both have 16 grid nodes: a problem on B's level given A would
    # mix B's eigenvalues and pair with A's grid weights and symbols
    a = build_spectral_model(torus_1d(2 * np.pi), max_level=5)
    b = build_spectral_model(torus_1d(2 * np.pi * 1.001), max_level=5)
    assert a.num_grid == b.num_grid == 16
    level = build_level(b, 4)
    initial = np.ones(level.dim, dtype=complex)
    symbols = [np.cos(a.grid_points[:, 0])]
    with pytest.raises(TypeError, match="model"):
        GalerkinProblem(model=a, level=level, horizon=1.0, initial_full=initial)
    with pytest.raises(TypeError):
        jumps.assemble_noise_operators(a, level, symbols)
    problem = GalerkinProblem(level=level, horizon=1.0, initial_full=initial, symbols=symbols)
    assert problem.level.model is b and problem.ops.level is level
    assert _Dynamics(problem, SolverConfig()).grid_weights is b.grid_weights


def test_models_levels_problems_and_operators_compare_by_identity():
    # each holds arrays, which have no single truth value: equal builds are
    # distinct objects, and each hashes
    models = [build_spectral_model(torus_1d(2 * np.pi), max_level=4) for _ in range(2)]
    model = models[0]
    levels = [build_level(model, 3) for _ in range(2)]
    problems = [GalerkinProblem(build_level(model, 3), 1.0, decaying_initial(model),
                                symbols=np.cos(model.grid_points[:, 0]),
                                measure=AtomicMeasure(marks=[[0.3]], weights=[1.0]))
                for _ in range(2)]
    for a, b in (models, levels, problems, [p.ops for p in problems]):
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2


@pytest.mark.parametrize("case", ["inf", "nan", "norm overflow"])
def test_build_problem_refuses_initial_data_that_is_not_finite(torus_model, case):
    # refused before any multiply warns (a warning fails the test too)
    u0 = decaying_initial(torus_model)
    if case == "norm overflow":
        u0 = np.full_like(u0, 1e300)  # finite entries, infinite norm
    else:
        u0[3] = float(case)
    with pytest.raises(ConfigurationError, match="initial data for level 4 is not finite"):
        GalerkinProblem(build_level(torus_model, 4), 1.0, u0)


def test_initial_data_below_the_square_underflow_keep_their_scale():
    # the squares of coefficients near 1e-300 underflow, so a plain norm
    # reads 0 and the data would start from the zero state
    unit = build_problem_from_spec(shipped_spec("atomic_cubic"))
    tiny = build_problem_from_spec(
        shipped_spec("atomic_cubic", [(("initial", "scale"), "1e-300")]))
    want = 1e-300 * unit.initial
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(tiny.initial - want)) <= 1e-12 * np.max(np.abs(want))


def test_the_recorded_ea_norm_of_tiny_data_keeps_its_scale():
    # the record's sums of squares underflow near 1e-300: mass, kinetic and
    # potential read 0, and the E_A norm is taken over the largest modulus
    records = []
    for scale in ("1", "1e-300"):
        spec = shipped_spec("atomic_cubic", [(("initial", "scale"), scale)])
        problem = build_problem_from_spec(spec)
        records.append(simulate(problem, spec.solver, path=JumpPath()))
    unit, tiny = records
    assert unit.ea_norm[0] > 0.0
    assert abs(tiny.ea_norm[0] - 1e-300 * unit.ea_norm[0]) <= 1e-12 * 1e-300 * unit.ea_norm[0]
    assert tiny.mass[0] == tiny.kinetic[0] == tiny.potential[0] == 0.0


def test_renormalize_preserves_norm(torus_model):
    level = build_level(torus_model, 4)
    u0 = decaying_initial(torus_model)
    tilde = renormalize_initial(level, u0)
    assert tilde.shape == (level.dim,)
    assert np.linalg.norm(tilde) == pytest.approx(np.linalg.norm(u0), rel=1e-14)
    # direction matches the smoothed truncation
    smoothed = level.multipliers * u0[:level.dim]
    cross = np.abs(np.vdot(smoothed, tilde))
    assert cross == pytest.approx(
        np.linalg.norm(smoothed) * np.linalg.norm(tilde), rel=1e-13
    )


def test_renormalize_annihilated_data_gives_zero(torus_model):
    level = build_level(torus_model, 2)
    u0 = decaying_initial(torus_model)
    u0[:level.dim] = 0.0  # support entirely above the level
    tilde = renormalize_initial(level, u0)
    assert np.all(tilde == 0.0)
    assert np.linalg.norm(u0) > 0


# ---------------------------------------------------------------------------
# drift assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("record_states", [False, True, None],
                         ids=["False", "True", "coupled"])
def test_time_grid_refused_beyond_physical_memory(torus_model, monkeypatch, record_states):
    # horizon 1 at dt 0.1 gives 11 nodes; each holds the grid and the jump
    # boundaries in float64, then four record columns plus the state if
    # recorded, or the one distance of a coupled run (record_states None)
    problem = GalerkinProblem(build_level(torus_model, 3), 1.0, decaying_initial(torus_model))
    config = SolverConfig(dt=0.1)
    if record_states is None:
        finer = GalerkinProblem(build_level(torus_model, 5), 1.0, decaying_initial(torus_model))
        needed = 11 * 8 * (2 + 1)

        def run():
            return simulate_coupled(finer, 3, config, JumpPath())
    else:
        needed = 11 * (8 * (2 + 4) + (16 * problem.level.dim if record_states else 0))

        def run():
            return simulate(problem, config, JumpPath(), record_states=record_states)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ConfigurationError, match="the 11 time nodes"):
        run()
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert len(run().times) == 11


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
    problem = GalerkinProblem(build_level(torus_model, 5), 1.0, decaying_initial(torus_model))
    config = SolverConfig()
    u = problem.initial
    d = drift(problem, config, u)
    lam = torus_model.eigenvalues_A[:problem.level.dim]
    assert np.allclose(d, -1j * lam * u, rtol=0, atol=1e-15)


def test_drift_antisymmetry_no_closure(torus_model, cos_symbol):
    # asymmetric atoms, cutoff 0: compensated mean term but empty closure,
    # so Re<u, drift(u)> vanishes identically
    measure = AtomicMeasure(marks=[[0.4], [-0.2]], weights=[1.0, 0.5], epsilon=0.0)
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
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
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
        symbols=cos_symbol, measure=measure,
    )
    u = problem.initial
    d = drift(problem, SolverConfig(), u)
    lam = torus_model.eigenvalues_A[:problem.level.dim]
    mean = 1.0 * 0.4 + 0.5 * (-0.2)
    manual = -1j * lam * u + 1j * mean * (oracles.matrices(problem.ops)[0] @ u)
    assert np.linalg.norm(d - manual) <= 1e-13 * np.linalg.norm(manual)


def test_closures_agree_to_third_order(torus_model, cos_symbol):
    # single small atom: Taylor2 reproduces the exact per-atom closure up to
    # the cubic remainder of exp(-iB), |theta|^3/6 per eigenvalue
    u = None
    for radius in (1e-2, 1e-3):
        measure = AtomicMeasure(
            marks=[[radius], [0.9]], weights=[2.0, 1.0], epsilon=0.5
        )
        problem = GalerkinProblem(
            build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
            symbols=cos_symbol, measure=measure,
        )
        u = problem.initial
        d_taylor = drift(problem, SolverConfig(closure=CLOSURE_TAYLOR2), u)
        d_atomic = drift(problem, SolverConfig(closure=CLOSURE_ATOMIC), u)
        gap = np.linalg.norm(d_atomic - d_taylor)
        bound = 2.0 * (radius * np.sqrt(oracles.bound_H(problem.ops))) ** 3 / 6.0
        assert gap <= bound * np.linalg.norm(u) * (1 + 1e-10)
        assert gap > 0


ATOMIC_CLOSURE_MESSAGE = "AtomicExact closure needs an atomic jump measure"


def test_atomic_closure_rejects_infinite_activity(torus_model, cos_symbol):
    measure = RadialStableMeasure(activity=1.0, stability=1.0, dimension=1,
                                  epsilon=0.1)
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
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
    out = 1j * oracles.generator(ops, moments.mean_simulated) @ x
    if closure == CLOSURE_TAYLOR2:
        mats = oracles.matrices(ops)
        cov = moments.second_moment_small
        out += -0.5 * np.einsum("mn,mab,nbc->ac", cov, mats, mats) @ x
    else:
        # each atom's V f(theta) V^H from its own eigendecomposition
        marks, weights = problem.measure.small_atoms()
        for weight, mark in zip(weights, marks):
            theta, vectors = np.linalg.eigh(oracles.generator(ops, mark))
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
    problem = GalerkinProblem(
        build_level(model, 4), 1.0, decaying_initial(model), symbols=symbols, measure=measure,
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
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
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
    noisy = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
        symbols=cos_symbol, measure=measure,
    )
    quiet = GalerkinProblem(build_level(torus_model, 5), 1.0, decaying_initial(torus_model))
    for problem in (noisy, quiet):
        dyn = _Dynamics(problem, SolverConfig(closure=closure))
        assert dyn.noise_matrix is None
        assert not dyn.has_remainder
        assert not np.any(dyn.noise_drift(problem.initial))


#: case -> (closure, atoms, cutoff): a mean term alone (asymmetric atoms, all
#: above a zero cutoff), then each closure on top of it
NOISE_TERM_CASES = {
    "mean": (CLOSURE_TAYLOR2, ([[0.6, -0.5], [-0.3, 0.2]], [1.0, 1.0]), 0.0),
    "Taylor2": (CLOSURE_TAYLOR2, FOLD_ATOMS[2], 0.25),
    "AtomicExact": (CLOSURE_ATOMIC, FOLD_ATOMS[2], 0.25),
}


@pytest.mark.parametrize("case", NOISE_TERM_CASES)
def test_noise_matrix_refused_beyond_physical_memory(torus_model, monkeypatch, case):
    # the build is refused before its first dim^2 array, with an estimate
    # naming the level and the dim; a workspace without a noise term is not
    closure, (marks, weights), epsilon = NOISE_TERM_CASES[case]
    x = torus_model.grid_points[:, 0]
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, decaying_initial(torus_model),
        symbols=[np.cos(x), np.sin(2.0 * x) + 0.3],
        measure=AtomicMeasure(marks=marks, weights=weights, epsilon=epsilon),
    )
    quiet = GalerkinProblem(build_level(torus_model, 4), 1.0, decaying_initial(torus_model),
                            symbols=np.cos(x), measure=AtomicMeasure(
                              marks=[[0.4], [-0.4]], weights=[1.0, 1.0], epsilon=0.0))
    dim = problem.level.dim
    needed = 16 * jumps.NOISE_MATRIX_PEAK_ARRAYS * dim**2
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ConfigurationError, match=(
            f"complex {dim} x {dim} arrays building a noise matrix of level 4 "
            f"take about {needed / 2**30:.3g} GiB")):
        _Dynamics(problem, SolverConfig(closure=closure))
    assert _Dynamics(quiet, SolverConfig(closure=closure)).noise_matrix is None
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert _Dynamics(problem, SolverConfig(closure=closure)).noise_matrix.shape == (dim, dim)


def kernel_cases(model, level_n, dense):
    """Problems on one level for every sign and admissible alpha in {2.5, 3, 5}."""
    level = build_level(model, level_n)
    assert (level.dim * model.num_grid <= DENSE_PAIR_MAX_ENTRIES) == dense
    for make in (defocusing, focusing):
        for alpha in (2.5, 3.0, 5.0):
            nl = make(alpha)
            if alpha < admissible_alpha_cap(nl.sign, model.domain.dimension):
                yield GalerkinProblem(build_level(model, level_n), 1.0, decaying_initial(model),
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
        nl, dim = problem.nonlinearity, problem.level.dim
        _, record, _ = _recorded_run(problem, SolverConfig(), JumpPath(), False)
        noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for u in (problem.initial, 2.0 * noise, np.zeros(dim, dtype=complex),
                  1e-310 * noise):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                want_F = eval_F(problem.level, nl, u)
                want_Fhat = eval_Fhat(problem.level, nl, u)
            got = dyn.remainder(u)
            assert np.linalg.norm(got - (-1j) * want_F) <= 1e-14 * np.linalg.norm(want_F)
            _record_node(record, dyn, 0, u)
            assert abs(record.potential[0] - want_Fhat) <= 1e-14 * abs(want_Fhat)
            if not np.any(u):
                assert not np.any(got) and record.potential[0] == 0.0


@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
@pytest.mark.parametrize("domain", ["torus", "torus2d"])
def test_step_loop_makes_no_per_call_transforms(request, monkeypatch, domain, mode):
    # the step loop goes through the level's bound transform pair; a
    # synthesize/analyze or eval_F/eval_Fhat call from it would bring back the
    # per-call lookups.  build_level binds the pair, so binding the workspaces
    # transforms nothing either
    model = request.getfixturevalue(f"{domain}_model")
    x = model.grid_points[:, 0]
    measure = AtomicMeasure(marks=[[0.5], [-0.3], [0.05]], weights=[6.0, 6.0, 3.0],
                            epsilon=0.1)
    problem = GalerkinProblem(build_level(model, 5 if domain == "torus" else 4), 0.2,
                              decaying_initial(model), nonlinearity=defocusing(3.0),
                              symbols=np.cos(x), measure=measure)
    calls = []

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper

    for name in ("synthesize", "analyze", "transform_pair"):
        monkeypatch.setattr(SpectralModel, name,
                            counting(name, getattr(SpectralModel, name)))
    for name in ("eval_F", "eval_Fhat"):
        original = getattr(nonlinear, name)
        for module in [m for key, m in sys.modules.items()
                       if key == "jumpnls" or key.startswith("jumpnls.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))

    configs = [SolverConfig(mode=mode, dt=0.05, closure=closure)
               for closure in (CLOSURE_TAYLOR2, CLOSURE_ATOMIC)]
    for config in configs:
        solver._dynamics(problem, config)
    assert calls == []
    for config in configs:
        record = simulate(problem, config, sample_prm(measure, 0.2, trajectory_rng(7, 0)))
        assert len(record.path) and np.all(record.potential > 0)
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
    problem = GalerkinProblem(build_level(torus_model, 5), 0.3, decaying_initial(torus_model),
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
    problem = GalerkinProblem(build_level(torus_model, 5), 0.2, decaying_initial(torus_model),
                              nonlinearity=defocusing(3.0))
    counts = []
    for dt in (0.1, 0.001):
        config = SolverConfig(dt=dt)
        shared = simulate(problem, config, JumpPath())
        fresh = simulate(dataclasses.replace(problem), config, JumpPath())
        assert shared.fp_iters_max == fresh.fp_iters_max
        counts.append(shared.fp_iters_max)
    assert counts[0] > counts[1] >= 1


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
def test_diagonal_flow_exact(torus_model, mode):
    problem = GalerkinProblem(build_level(torus_model, 6), 1.0, decaying_initial(torus_model))
    config = SolverConfig(mode=mode, dt=1e-2)
    lam = torus_model.eigenvalues_A[:problem.level.dim]
    u = problem.initial.copy()
    steps = 100
    for _ in range(steps):
        u = step_between_jumps(problem, config, u, config.dt)
    exact = np.exp(-1j * lam * (steps * config.dt)) * problem.initial
    assert np.linalg.norm(u - exact) <= 1e-12 * np.linalg.norm(exact)
    assert abs(np.linalg.norm(u) - np.linalg.norm(problem.initial)) <= 1e-13


def test_midpoint_mass_conservation_nonlinear(torus_model):
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
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
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model),
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
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, decaying_initial(torus_model, rate=1.2),
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
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, decaying_initial(torus_model),
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


@pytest.mark.parametrize("scale", ["1", "30"])
def test_splitstep_refuses_a_gauge_phase_it_cannot_resolve(scale):
    # atomic_cubic's first step turns the gauge by 0.0024 rad at modulus 1 and
    # by 2.19 rad at modulus 30, where the grid rotation, projected back onto
    # the level, loses 8 % of the mass in one step
    spec = shipped_spec("atomic_cubic", [(("solver", "mode"), MODE_SPLITSTEP),
                                         (("initial", "scale"), scale)])
    problem = build_problem_from_spec(spec)
    level, nl, tau, u = problem.level, problem.nonlinearity, spec.solver.dt, problem.initial
    if scale == "30":
        with pytest.raises(NumericsError, match=r"SplitStep gauge phase "
                           r"tau\*max\|v\|\^\(alpha-1\) = 2\.19 rad exceeds 0\.5 rad"):
            step_between_jumps(problem, spec.solver, u, tau)
        return
    # below the bound the step is the half phases around the grid rotation,
    # bit for bit (the symmetric atoms above the cutoff leave no noise drift)
    half = np.exp(-0.5j * tau * level.eigenvalues_A)
    values = level.to_grid(half * u)
    v = level.from_grid(values * np.exp(-1j * tau * nl.sign * np.abs(values) ** (nl.alpha - 1)))
    assert solver._dynamics(problem, spec.solver).noise_matrix is None
    np.testing.assert_array_equal(step_between_jumps(problem, spec.solver, u, tau), half * v)


def test_fixed_point_failure_raises(torus_model):
    problem = GalerkinProblem(
        build_level(torus_model, 6), 1.0, 5.0 * decaying_initial(torus_model),
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


def test_stiff_midpoint_solve_halves_once_it_stops_contracting(monkeypatch):
    # one step of modulus 30 data halves 7 levels deep; a solve that used up
    # max_fp_iters before each halving cost 19 113 remainder calls
    spec = stiff_step_spec("30")
    problem = build_problem_from_spec(spec)
    dyn = solver._dynamics(problem, spec.solver)
    calls, remainder = [], dyn.remainder
    monkeypatch.setattr(dyn, "remainder", lambda state: calls.append(1) or remainder(state))
    record = simulate(problem, spec.solver, JumpPath(), record_states=False)
    assert len(calls) < 19_113
    assert abs(record.mass[-1] - record.mass[0]) <= 1e-11 * record.mass[0]


@pytest.mark.parametrize("scale,calls_before", [("10", 1_010), ("30", 7_411)])
def test_a_halved_step_keeps_the_mass_to_rounding(monkeypatch, scale, calls_before):
    # without the projection of each halved substep onto its starting norm the
    # substeps' fixed-point defects add up: +1.148e-12 at modulus 10 and
    # +1.764e-12 at 30, from 1 010 and 7 411 remainder calls
    spec = stiff_step_spec(scale)
    problem = build_problem_from_spec(spec)
    dyn = solver._dynamics(problem, spec.solver)
    assert dyn.noise_matrix is None
    calls, remainder = [], dyn.remainder
    monkeypatch.setattr(dyn, "remainder", lambda state: calls.append(1) or remainder(state))
    record = simulate(problem, spec.solver, JumpPath(), record_states=False)
    assert abs(record.mass[-1] - record.mass[0]) <= 1e-13 * record.mass[0]
    assert abs(len(calls) - calls_before) <= 0.05 * calls_before


def test_halving_failure_names_its_depth_and_substep():
    spec = stiff_step_spec("30", (("solver", "max_halvings"), "2"))
    problem = build_problem_from_spec(spec)
    with pytest.raises(NumericsError, match=r"step t=0\.0 -> 0\.005 .* at halving depth 2 "
                       r"\(max_halvings = 2\), smallest substep tau=1\.250e-03"):
        simulate(problem, spec.solver, JumpPath(), record_states=False)


def test_step_validation(torus_model):
    problem = GalerkinProblem(build_level(torus_model, 4), 1.0, decaying_initial(torus_model))
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
    problem = GalerkinProblem(
        build_level(torus_model, 5), 1.0, decaying_initial(torus_model), symbols=cos_symbol,
    )
    path = JumpPath([0.35, 0.617], [[0.7], [-0.7]])
    config = SolverConfig(dt=0.1)
    record = simulate(problem, config, path=path)

    assert record.times[0] == 0.0 and record.times[-1] == 1.0
    assert np.all(np.diff(record.times) > 0)
    assert np.isin(path.times, record.times).all()

    lam = torus_model.eigenvalues_A[:level.dim]
    u = problem.initial.copy()
    t_prev = 0.0
    expected = {}
    for t, mark in zip(path.times, path.marks):
        u = np.exp(-1j * lam * (t - t_prev)) * u
        u = jump_map(problem.ops, mark, u)
        expected[t] = u.copy()
        t_prev = t
    final = np.exp(-1j * lam * (1.0 - t_prev)) * u

    for t in path.times:
        i = int(np.nonzero(record.times == t)[0][0])
        got = record.states[i]
        assert np.linalg.norm(got - expected[t]) <= 1e-12 * np.linalg.norm(got)
    assert np.linalg.norm(record.states[-1] - final) <= 1e-12 * np.linalg.norm(final)
    # unitary jumps: mass stays flat across the whole path
    assert np.max(np.abs(record.mass - record.mass[0])) <= 1e-12 * record.mass[0]
    assert record.path is path


def test_simulate_diagnostics_columns(torus_model, cos_symbol):
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[2.0, 2.0])
    problem = GalerkinProblem(
        build_level(torus_model, 4), 0.5, decaying_initial(torus_model),
        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure,
    )
    path = sample_prm(measure, 0.5, trajectory_rng(42, 0))
    record = simulate(problem, SolverConfig(dt=0.05), path)
    assert np.allclose(record.energy, record.kinetic + record.potential)
    sq = np.abs(record.states) ** 2
    assert np.allclose(record.mass, np.sum(sq, axis=1))
    assert np.allclose(record.ea_norm**2, np.sum(problem.level.ea_weights * sq, axis=1))
    slim = simulate(problem, SolverConfig(dt=0.05), path, record_states=False)
    assert slim.states is None
    assert np.array_equal(slim.mass, record.mass)


def test_simulate_reproducible_streams(torus_model, cos_symbol):
    measure = AtomicMeasure(marks=[[0.4], [-0.4]], weights=[3.0, 3.0])
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, decaying_initial(torus_model),
        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure,
    )
    config = SolverConfig(dt=0.02)
    rec1, rec2, rec_other = (
        simulate(problem, config, sample_prm(measure, 1.0, trajectory_rng(7, k)))
        for k in (3, 3, 4)
    )
    assert np.array_equal(rec1.states, rec2.states)
    assert np.array_equal(rec1.times, rec2.times)
    if len(rec1.path) or len(rec_other.path):
        assert not np.array_equal(rec1.path.times, rec_other.path.times)


def test_simulate_event_validation(torus_model, cos_symbol):
    problem = GalerkinProblem(
        build_level(torus_model, 4), 1.0, decaying_initial(torus_model), symbols=cos_symbol,
    )
    mark = [0.1]
    for times in ([1.5], [-0.1], [0.2, np.nan]):
        with pytest.raises(ConfigurationError, match="within"):
            simulate(problem, SolverConfig(dt=0.1), path=JumpPath(times, [mark] * len(times)))
    with pytest.raises(ConfigurationError, match="time-sorted"):
        simulate(problem, SolverConfig(dt=0.1), path=JumpPath([0.9, 0.2], [mark, mark]))
    bare = GalerkinProblem(build_level(torus_model, 4), 1.0, decaying_initial(torus_model))
    with pytest.raises(ConfigurationError, match="without noise operators"):
        simulate(bare, SolverConfig(dt=0.1), path=JumpPath([0.5], [mark]))
    # a run without its jump path is refused
    measure = AtomicMeasure(marks=[[0.4]], weights=[1.0])
    noisy = GalerkinProblem(build_level(torus_model, 4), 1.0, decaying_initial(torus_model),
                            symbols=cos_symbol, measure=measure)
    with pytest.raises(TypeError, match="path"):
        simulate(noisy, SolverConfig(dt=0.1))
    finer = GalerkinProblem(build_level(torus_model, 6), 1.0, decaying_initial(torus_model),
                            symbols=cos_symbol, measure=measure)
    with pytest.raises(TypeError, match="path"):
        simulate_coupled(finer, 4, SolverConfig(dt=0.1))


@pytest.fixture(scope="module")
def shared_problem(torus_model, cos_symbol):
    # a nonzero mean and one atom below the cutoff, so both closures have a
    # noise term beside the nonlinearity; horizon 0.3 at dt 0.05 gives 7 nodes
    measure = AtomicMeasure(marks=[[0.5], [-0.3], [0.1]], weights=[2.0, 1.0, 3.0],
                            epsilon=0.2)
    return GalerkinProblem(build_level(torus_model, 4), 0.3, decaying_initial(torus_model),
                           nonlinearity=defocusing(3.0), symbols=cos_symbol,
                           measure=measure)


@st.composite
def jump_paths(draw):
    """A time-sorted path on [0, 0.3] whose first event lies at 0, on a
    uniform node of step 0.05, between two nodes, at the horizon, or nowhere."""
    nodes = np.linspace(0.0, 0.3, 7)
    kind = draw(st.sampled_from(["zero", "node", "between", "horizon", "none"]))
    if kind == "none":
        return JumpPath()
    if kind == "zero":
        first = 0.0
    elif kind == "horizon":
        first = 0.3
    else:
        i = draw(st.integers(1, 6 if kind == "node" else 5))
        first = float(nodes[i]) if kind == "node" else float(
            nodes[i] + 0.05 * draw(st.floats(0.01, 0.99)))
    later = draw(st.lists(st.floats(first, 0.3), max_size=3))
    marks = draw(st.lists(st.sampled_from([0.5, -0.3]), min_size=1 + len(later),
                          max_size=1 + len(later)))
    return JumpPath([first] + sorted(later), [[m] for m in marks])


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from([MODE_MIDPOINT, MODE_SPLITSTEP]),
       closure=st.sampled_from([CLOSURE_TAYLOR2, CLOSURE_ATOMIC]),
       record_states=st.booleans(),
       paths=st.lists(jump_paths(), min_size=1, max_size=3))
def test_jump_free_path_gives_the_same_record(shared_problem, mode, closure,
                                              record_states, paths):
    # the shared prefix is the same operations on the same inputs, so every
    # trajectory's record is the one of a run without the jump-free path; the
    # trajectories run in order of branch node, the last uniform node before
    # the first jump, ties by index
    problem = shared_problem
    config = SolverConfig(mode=mode, dt=0.05, closure=closure)
    nodes = np.linspace(0.0, 0.3, 7)
    branch = [int(np.searchsorted(nodes, path.times[0], side="left")) - 1 if len(path) else 6
              for path in paths]
    order = []
    for k, shared in simulate_ensemble(problem, config, len(paths), paths.__getitem__,
                                       record_states=record_states):
        path = paths[k]
        alone = simulate(problem, config, path, record_states=record_states)
        for column in ("times", "mass", "kinetic", "potential", "energy", "ea_norm"):
            assert getattr(shared, column).tobytes() == getattr(alone, column).tobytes()
        assert (shared.states is None) == (not record_states)
        if record_states:
            assert shared.states.tobytes() == alone.states.tobytes()
        assert shared.fp_iters_max == alone.fp_iters_max
        assert shared.path is path
        order.append(k)
    assert order == sorted(range(len(paths)), key=branch.__getitem__)


def test_branch_node_is_the_last_uniform_node_before_the_first_jump(shared_problem):
    config = SolverConfig(dt=0.05)
    nodes = simulate(shared_problem, config, JumpPath()).times
    assert nodes.tobytes() == np.linspace(0.0, 0.3, 7).tobytes()
    table = ((0.0, -1), (nodes[1], 0), (0.12, 2), (nodes[3], 2), (0.3, 5), (None, 6))
    paths = [JumpPath() if first is None else JumpPath([first, 0.3], [[0.5], [0.5]])
             for first, _ in table]
    assert branch_nodes(shared_problem, config, paths) == [branch for _, branch in table]
    # in reverse, they run in order of branch node, the tie at node 2 by index
    paths.reverse()
    runs = simulate_ensemble(shared_problem, config, len(paths), paths.__getitem__,
                             record_states=False)
    assert [k for k, _ in runs] == [5, 4, 2, 3, 1, 0]


def test_a_jump_at_time_zero_shows_in_the_node_zero_state():
    # cadlag: the value recorded at a jump time is the post-jump state, also
    # at t = 0, where the jump-free path shares nothing (branch node -1)
    spec = shipped_spec("atomic_cubic", [(("run", "horizon"), "0.01")])
    fine = build_problem_from_spec(spec)
    coarse = dataclasses.replace(fine, level=build_level(fine.level.model, 4))
    mark = np.array([0.45])
    path = JumpPath([0.0], [mark])
    jumped = jump_map(fine.ops, mark, fine.initial)
    assert np.max(np.abs(jumped - fine.initial)) > 0.1
    assert branch_nodes(fine, spec.solver, [path]) == [-1]
    (_, shared), = simulate_ensemble(fine, spec.solver, 1, lambda k: path)
    for record in (simulate(fine, spec.solver, path), shared):
        assert np.array_equal(record.states[0], jumped)
    gap = jumped.copy()
    gap[:coarse.level.dim] -= jump_map(coarse.ops, mark, coarse.initial)
    want = np.sqrt(np.sum(np.abs(gap) ** 2 / fine.level.ea_weights))
    distance = simulate_coupled(fine, 4, spec.solver, path).distances[0]
    assert distance == pytest.approx(want, rel=1e-14, abs=0)


def test_coupled_node_zero_distance_is_the_gap_of_the_smoothed_data(torus_model):
    # each level starts from S_n u0, not P_n u0: the cutoff multiplier times
    # the level's prefix of the full data, scaled back to the full norm.
    # Data with weight on every dyadic band tells the two truncations apart
    full = decaying_initial(torus_model, rate=0.1)
    problem = GalerkinProblem(build_level(torus_model, 6), 1.0, full)

    def smoothed(n):
        dim = build_level(torus_model, n).dim
        data = spectral.cutoff_multiplier(n, torus_model.eigenvalues_S[:dim]) * full[:dim]
        return data * (np.linalg.norm(full) / np.linalg.norm(data))

    for n in (3, 4, 5):
        gap, coarse = smoothed(6), smoothed(n)
        gap[:coarse.size] -= coarse
        want = problem.level.dual_norm(gap)
        got = simulate_coupled(problem, n, SolverConfig(dt=0.5), JumpPath()).distances[0]
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_numerics_error_names_the_first_trajectory_through_the_failed_step(shared_problem):
    # one fixed-point iteration converges no step, so the first trajectory to
    # run fails on the first step it takes.  A failed step of the jump-free
    # path lies on every path that branches after it, and the lowest such
    # index is named; a failed step after the branch names the running one
    config = SolverConfig(dt=0.05, max_fp_iters=1, max_halvings=0)
    node_1 = float(np.linspace(0.0, 0.3, 7)[1])
    for firsts, named, end in (((0.27, 0.12, 0.07), 0, node_1), ((0.27, 0.12, 0.03), 2, 0.03)):
        paths = [JumpPath([t], [[0.5]]) for t in firsts]
        # branch nodes 5, 2 and 1, then 5, 2 and 0: trajectory 2 runs first
        runs = simulate_ensemble(shared_problem, config, 3, paths.__getitem__,
                                 record_states=False)
        with pytest.raises(NumericsError) as failed:
            next(runs)
        assert str(failed.value).startswith(
            f"trajectory {named}: step t=0.0 -> {end!r} (dt={end:.3e}): ")
        assert "failed to converge" in str(failed.value)


@pytest.mark.parametrize("record_states", [False, True])
def test_time_grid_guard_counts_the_jump_free_path(shared_problem, monkeypatch,
                                                   record_states):
    # the jump-free path holds a record over the 7 uniform nodes beside the
    # trajectory's record over 7 + 2 nodes, each at 48 B per node plus the state
    config = SolverConfig(dt=0.05)
    per_node = 8 * (2 + 4) + (16 * shared_problem.level.dim if record_states else 0)
    needed = (7 + 9) * per_node
    path = JumpPath([0.12, 0.21], [[0.5], [0.5]])
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    assert len(simulate(shared_problem, config, path,
                        record_states=record_states).times) == 9
    runs = simulate_ensemble(shared_problem, config, 1, lambda k: path,
                             record_states=record_states)
    with pytest.raises(ConfigurationError) as refused:
        next(runs)
    message = str(refused.value)
    assert "the 9 time nodes of horizon 0.3 at dt = 0.05 and the jump-free path" in message
    assert f"about {needed / 2**30:.3g} GiB" in message
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    (k, record), = simulate_ensemble(shared_problem, config, 1, lambda k: path,
                                     record_states=record_states)
    assert k == 0 and len(record.times) == 9


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
    tiny, high = (
        GalerkinProblem(build_level(torus_model, n), 1.0, decaying_initial(torus_model),
                        nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure)
        for n in (2, 8)
    )
    config = SolverConfig(dt=0.05, closure=CLOSURE_TAYLOR2)
    path = sample_prm(measure, 1.0, trajectory_rng(5, 1))
    assert tiny.level.dim == 5
    assert all(len(_chebyshev_coefficients(tiny.ops.radius(mark))) - 1 > 5
               for mark in path.marks)

    def eigh(*args, **kwargs):
        raise AssertionError("eigh called on the jump path")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    record = simulate(high, config, sample_prm(measure, 1.0, trajectory_rng(5, 0)))
    coupled = simulate_coupled(high, 6, config, path)
    small = simulate(tiny, config, path=path)
    assert len(record.path) and len(small.path)
    assert np.isin(path.times, coupled.times).all()
    if noise == "atomic":
        # atoms below the cutoff: the AtomicExact compensator is built too
        split = AtomicMeasure(marks=[[0.5], [-0.3], [0.8], [0.1], [-1e-30]],
                              weights=[6.0, 6.0, 4.0, 3.0, 2.0], epsilon=0.2)
        problem = dataclasses.replace(high, measure=split)
        exact = simulate(problem, SolverConfig(dt=0.05, closure=CLOSURE_ATOMIC),
                         sample_prm(split, 1.0, trajectory_rng(5, 2)))
        assert len(exact.path)


def test_coupled_levels_identical_for_resolved_linear_flow(torus_model, cos_symbol):
    # initial data and dynamics confined to modes the coarse level resolves
    # without smoothing: both levels then follow the same path
    coarse = build_level(torus_model, 3)
    u0 = np.zeros(torus_model.num_modes, dtype=complex)
    resolved = np.flatnonzero(coarse.multipliers == 1.0)
    u0[resolved] = decaying_initial(torus_model)[resolved]
    measure = AtomicMeasure(marks=[[0.6], [-0.6]], weights=[2.0, 2.0])
    constant_symbol = np.ones(torus_model.num_grid)

    fine = GalerkinProblem(build_level(torus_model, 6), 1.0, u0, symbols=constant_symbol,
                           measure=measure)
    path = sample_prm(measure, 1.0, trajectory_rng(5, 0))
    result = simulate_coupled(fine, 3, SolverConfig(dt=0.05), path)
    assert result.levels == (3, 6)
    assert len(path) and np.isin(path.times, result.times).all()
    assert result.distance <= 1e-12
    assert len(result.distances) == len(result.times)


def test_coupled_levels_validation(torus_model):
    u0 = decaying_initial(torus_model)
    p4 = GalerkinProblem(build_level(torus_model, 4), 1.0, u0)
    for level_n in (6, 4):
        with pytest.raises(ConfigurationError, match=f"coupled level {level_n} must be coarser"):
            simulate_coupled(p4, level_n, SolverConfig(dt=0.1), JumpPath())
    with pytest.raises(ConfigurationError, match="without noise operators"):
        simulate_coupled(GalerkinProblem(build_level(torus_model, 6), 1.0, u0), 4,
                         SolverConfig(dt=0.1), JumpPath([0.5], [[0.3]]))


def test_converge_ensemble_drives_every_level_with_one_draw_per_trajectory(shared_problem):
    config = SolverConfig(dt=0.05)
    paths = [sample_prm(shared_problem.measure, 0.3, trajectory_rng(7, k)) for k in range(3)]
    draws = []

    def draw(k):
        draws.append(k)
        return paths[k]

    distances = converge_ensemble(shared_problem, [3, 2], config, 3, draw)
    assert draws == [0, 1, 2]
    assert list(distances) == [3, 2]
    for n in (3, 2):
        assert distances[n] == [simulate_coupled(shared_problem, n, config, path).distance
                                for path in paths]


def test_converge_ensemble_refuses_a_non_coarser_level_before_the_first_draw(shared_problem):
    # level 2 is coarser than the problem's level 4 and comes first
    draws = []
    with pytest.raises(ConfigurationError, match="coupled level 4 must be coarser"):
        converge_ensemble(shared_problem, [2, 4], SolverConfig(dt=0.05), 2, draws.append)
    assert draws == []


def test_converge_ensemble_refuses_a_repeated_level_before_the_first_draw(shared_problem):
    # each level has one list of distances, one entry per trajectory
    draws = []
    with pytest.raises(ConfigurationError, match=r"the level list \[2, 2\] repeats a level"):
        converge_ensemble(shared_problem, [2, 2], SolverConfig(dt=0.05), 2, draws.append)
    assert draws == []


@pytest.mark.parametrize("levels,message", [
    ([3, -1], r"level must be an integer in \[0, 8\], got -1"),
    ([3, 2.0], r"level must be an integer in \[0, 8\], got 2\.0"),
], ids=["negative", "float"])
def test_converge_ensemble_refuses_a_level_build_level_refuses_before_the_first_draw(
        shared_problem, levels, message):
    draws = []
    with pytest.raises(ConfigurationError, match=message):
        converge_ensemble(shared_problem, levels, SolverConfig(dt=0.05), 2, draws.append)
    assert draws == []


def test_converge_ensemble_refuses_an_empty_level_before_the_first_draw():
    # on a Dirichlet interval of length 1 the first lambda_S is pi^2 ~ 9.87:
    # level 3 holds one mode and level 2 none
    model = build_spectral_model(interval_dirichlet(1.0), max_level=4)
    problem = GalerkinProblem(build_level(model, 3), 1.0, np.ones(model.num_modes))
    draws = []
    with pytest.raises(ConfigurationError, match="level 2 holds no modes"):
        converge_ensemble(problem, [2], SolverConfig(dt=0.05), 2, draws.append)
    assert draws == []


def test_converge_ensemble_names_the_trajectory_that_fails(shared_problem, monkeypatch):
    def failing(problem, level_n, config, path):
        if path == "path 1":
            raise NumericsError(f"level {level_n}: step t=0.1 -> 0.15 (dt=5.000e-02): boom")
        return simulate_coupled(problem, level_n, config, JumpPath())

    monkeypatch.setattr(solver, "simulate_coupled", failing)
    with pytest.raises(NumericsError) as failed:
        converge_ensemble(shared_problem, [2, 3], SolverConfig(dt=0.05), 3,
                          lambda k: f"path {k}")
    assert str(failed.value) == "trajectory 1: level 2: step t=0.1 -> 0.15 (dt=5.000e-02): boom"


def test_coupled_nonlinear_distance_shrinks_with_level(torus_model):
    # same jump path, finer truncations successively closer to the finest
    u0 = decaying_initial(torus_model, rate=0.9)
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[2.0, 2.0])
    symbol = np.cos(torus_model.grid_points[:, 0])
    config = SolverConfig(dt=0.02)

    def problem(n):
        return GalerkinProblem(build_level(torus_model, n), 0.5, u0,
                               nonlinearity=defocusing(3.0), symbols=symbol,
                               measure=measure)

    fine = problem(7)
    path = sample_prm(measure, 0.5, trajectory_rng(123, 0))
    distances = [simulate_coupled(fine, n, config, path).distance for n in (3, 5)]
    assert distances[1] < distances[0]


@pytest.mark.parametrize("p", [1, 2])
def test_coupled_distance_falls_at_the_rate_of_the_data_on_every_path(p):
    # data with coefficients (1 + lambda_A)^-p on the 1-d torus: the E_A*
    # norm of the tail beyond level n, |k| > 2^(n/2), falls like
    # 2^(-(p + 1/4) n).  The ratio of one level to the next alternates with
    # the parity of n (the cutoff 2^((n+1)/2) is no integer), so each path's
    # log distance is fitted over levels 4-8 and its slope, in units of
    # log 2, must lie within SLOPE_BAND of -(p + 1/4).  The bands of p = 1
    # and p = 2 are disjoint.  A least-squares slope is blind to the middle
    # level, so every level must also lie within RESIDUAL_BAND of the line.
    # Measured: slopes within 0.15 (p = 1) and 0.23 (p = 2) of the rate,
    # residuals at most 0.07 and 0.13
    slope_band, residual_band = 0.35, 0.5
    model = build_spectral_model(torus_1d(2 * np.pi), max_level=9)
    measure = AtomicMeasure(marks=[[0.3], [-0.3]], weights=[4.0, 4.0])
    problem = GalerkinProblem(build_level(model, 9), 0.5, (1.0 + model.eigenvalues_A) ** -p,
                              nonlinearity=defocusing(3.0),
                              symbols=np.cos(model.grid_points[:, 0]), measure=measure)
    assert problem.level.dim == 63
    levels = [4, 5, 6, 7, 8]
    distances = converge_ensemble(problem, levels, SolverConfig(dt=5e-3), 8,
                                  lambda k: sample_prm(measure, 0.5, trajectory_rng(1409, k)))
    log_distances = np.log([distances[n] for n in levels])   # (levels, paths)
    slopes, intercepts = np.polyfit(levels, log_distances, 1)
    residuals = log_distances - (np.outer(levels, slopes) + intercepts)
    assert np.all(np.abs(slopes / np.log(2) + (p + 0.25)) <= slope_band), slopes
    assert np.all(np.abs(residuals) <= residual_band), residuals


@pytest.mark.parametrize("closure", [CLOSURE_TAYLOR2, CLOSURE_ATOMIC])
@pytest.mark.parametrize("mode", [MODE_MIDPOINT, MODE_SPLITSTEP])
def test_coupled_levels_match_independent_runs(torus_model, cos_symbol, mode, closure):
    # stepping the levels together changes nothing in either level's path, so
    # the coupled distances are those of two independent runs, bit for bit;
    # the atom below the cutoff gives either closure its noise term
    measure = AtomicMeasure(marks=[[0.5], [-0.5], [0.1]], weights=[2.0, 2.0, 3.0],
                            epsilon=0.2)
    config = SolverConfig(mode=mode, dt=0.05, closure=closure)
    problems = [
        GalerkinProblem(build_level(torus_model, n), 1.0, decaying_initial(torus_model),
                        nonlinearity=defocusing(3.0), symbols=cos_symbol,
                        measure=measure)
        for n in (4, 6)
    ]
    path = sample_prm(measure, 1.0, trajectory_rng(17, 0))
    assert len(path)
    result = simulate_coupled(problems[1], 4, config, path)
    low, high = (simulate(problem, config, path=path) for problem in problems)
    assert all(p._workspaces[closure].noise_matrix is not None for p in problems)
    assert result.levels == (4, 6)
    assert result.times.tobytes() == high.times.tobytes()

    # the dual-norm gap of the independent histories, coarse path zero-padded
    embedded = np.zeros_like(high.states)
    embedded[:, :problems[0].level.dim] = low.states
    inv_w = 1.0 / high.level.ea_weights
    want = np.sqrt(np.sum(np.abs(high.states - embedded) ** 2 * inv_w, axis=1))
    assert np.array_equal(result.distances, want)
    assert result.distance == np.max(want)


def test_coupled_memory_does_not_grow_with_nodes(monkeypatch):
    # a coupled run holds one state per level, so an 8x longer horizon adds
    # only the grid, the jump boundaries and the distance, 24 B per node: far
    # less than five record columns per level, or the half fine-level state
    # per extra node that any kept history would cost
    model = build_spectral_model(torus_1d(2 * np.pi), beta=1.0, max_level=10)
    u0 = decaying_initial(model)
    config = SolverConfig(dt=0.01)

    def coarse_level(model, n):
        # the coarse level's transform build peaks above the run: the peak
        # is taken from after it, or it would hide any growth of the run
        level = build_level(model, n)
        tracemalloc.reset_peak()
        return level

    monkeypatch.setattr(solver, "build_level", coarse_level)

    def peak(horizon):
        high = GalerkinProblem(build_level(model, 10), horizon, u0, nonlinearity=defocusing(3.0))
        tracemalloc.start()
        try:
            result = simulate_coupled(high, 8, config, JumpPath())
            return tracemalloc.get_traced_memory()[1], result, high.level.dim
        finally:
            tracemalloc.stop()

    peak(0.1)  # one-time allocations of a first run stay outside the comparison
    short, short_result, _ = peak(0.1)
    long, long_result, fine_dim = peak(0.8)
    extra_nodes = len(long_result.distances) - len(short_result.distances)
    assert extra_nodes > 60
    assert long - short < 8 * fine_dim * extra_nodes
    assert long - short < 48 * extra_nodes


def test_coupled_run_records_nothing(torus_model, cos_symbol, monkeypatch):
    # the step loop records nothing itself: only simulate's observer calls
    # _record_node, and a coupled run's observer writes its distance alone
    def record_node(*args):
        raise AssertionError("a node was recorded")

    monkeypatch.setattr(solver, "_record_node", record_node)
    measure = AtomicMeasure(marks=[[0.5], [-0.5]], weights=[2.0, 2.0])
    high = GalerkinProblem(build_level(torus_model, 6), 0.5, decaying_initial(torus_model),
                           nonlinearity=defocusing(3.0), symbols=cos_symbol, measure=measure)
    config = SolverConfig(dt=0.05)
    path = sample_prm(measure, 0.5, trajectory_rng(3, 0))
    assert len(path)
    result = simulate_coupled(high, 4, config, path)
    assert len(result.distances) == len(result.times) > 11
    with pytest.raises(AssertionError, match="a node was recorded"):
        simulate(high, config, path)


# ---------------------------------------------------------------------------
# the martingale problem
# ---------------------------------------------------------------------------

#: largest |z| of the ensemble mean of M(T), real and imaginary parts of the
#: first four modes, that a test mode accepts
MARTINGALE_Z_BOUND = 4.0


@pytest.mark.parametrize("closure", [CLOSURE_TAYLOR2, CLOSURE_ATOMIC])
def test_martingale_residual_matches_a_node_by_node_generator(torus_model, cos_symbol, closure):
    # the residual evaluates the drift on blocks and the noise part through
    # its adjoint on phi; here every node's generator is summed directly
    # from ``drift`` and ``jump_map`` on the pre-jump state
    measure = AtomicMeasure(marks=[[0.45], [-0.2], [0.1]], weights=[2.0, 1.0, 3.0],
                            epsilon=0.15)
    config = SolverConfig(dt=0.05, closure=closure)
    problem = GalerkinProblem(build_level(torus_model, 4), 0.5, decaying_initial(torus_model),
                              nonlinearity=defocusing(3.0), symbols=cos_symbol,
                              measure=measure)
    paths = [JumpPath(), JumpPath([0.0], [[0.45]]),
             JumpPath([0.12, 0.12, 0.3], [[-0.2], [0.45], [0.45]])]
    records = [simulate(problem, config, path) for path in paths]
    phis = np.eye(problem.level.dim)[1:4] + 0.5j * np.eye(problem.level.dim)[:3]
    marks, weights, _ = measure._simulated

    def generated(u):
        rate = drift(problem, config, u) + sum(
            w * (jump_map(problem.ops, mark, u) - u) for mark, w in zip(marks, weights))
        return rate @ phis.conj().T

    for record, path, got in zip(records, paths,
                                 oracles.martingale_residual(records, problem, config, phis)):
        before = record.states.copy()
        for t, mark in zip(path.times[::-1], path.marks[::-1]):
            i = int(np.searchsorted(record.times, t))
            before[i] = jump_map(problem.ops, -mark, before[i])
        integral = sum(0.5 * (b - a) * (generated(u) + generated(v)) for a, b, u, v in
                       zip(record.times, record.times[1:], record.states, before[1:]))
        want = (record.states[-1] - before[0]) @ phis.conj().T - integral
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(integral))
    with pytest.raises(ShapeError):
        oracles.martingale_residual(records, problem, config, phis[:, :-1])
    with pytest.raises(ValueError, match="retain states"):
        oracles.martingale_residual([simulate(problem, config, JumpPath(), record_states=False)],
                                    problem, config, phis)


def test_martingale_noise_term_of_a_radial_measure_matches_jump_maps(torus_model):
    # the radial jump term is integrated per eigenvalue of M, where B(l) = l M;
    # here it is summed from jump maps at Gauss-Legendre radii in [eps, 1]
    x = torus_model.grid_points[:, 0]
    measure = RadialStableMeasure(activity=1.3, stability=0.7, epsilon=0.3)
    problem = GalerkinProblem(build_level(torus_model, 4), 0.5, np.ones(torus_model.num_modes),
                              symbols=np.cos(x) + 0.3 * np.sin(2 * x), measure=measure)
    phis = np.eye(problem.level.dim)[:3] + 0.2j
    M = oracles.matrices(problem.ops)[0]
    want = -0.5 * measure.moments().second_moment_small[0, 0] * (M @ M @ phis.T)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    for node, weight in zip(nodes, weights):
        r = 0.65 + 0.35 * node
        want += (0.35 * weight * 1.3 * r ** -1.7) * (jump_map(problem.ops, [r], phis.T)
                                                     + jump_map(problem.ops, [-r], phis.T)
                                                     - 2.0 * phis.T)
    got = oracles._noise_adjoint(problem, SolverConfig(closure=CLOSURE_TAYLOR2), phis)
    assert np.max(np.abs(got - want.T)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["atomic_exact_midpoint", "radial_taylor2_splitstep"])
def test_martingale_residual_has_mean_zero_on_an_ensemble(case):
    # f = <., phi> for the first four modes: M(T) = f(u_T) - f(u_0) - int L f
    # has mean zero under the law the Marcus generator defines.  The atomic
    # mode (asymmetric atoms, the -0.2 atom closed by AtomicExact) kills a
    # flipped mark sign, a dropped mean term and a jump applied as Phi(-l);
    # the radial mode (symmetric, so blind to those) kills a dropped Taylor2
    # closure and a jump rate 1.5 times too high.  Measured: max |z| 0.71 and
    # 0.76; each mutant's |z| is in CHANGES.md
    model = build_spectral_model(torus_1d(2 * np.pi), max_level=4)
    level = build_level(model, 4)
    initial = np.exp(-0.5 * np.sqrt(model.eigenvalues_S)
                     + 2j * np.pi * 0.618 * np.arange(model.num_modes))
    if case == "atomic_exact_midpoint":
        measure = AtomicMeasure(marks=[[0.45], [-0.2]], weights=[2.0, 1.0], epsilon=0.3)
        config = SolverConfig(mode=MODE_MIDPOINT, dt=0.005, closure=CLOSURE_ATOMIC)
        count = 100
    else:
        measure = RadialStableMeasure(activity=1.0, stability=1.0, epsilon=0.3)
        config = SolverConfig(mode=MODE_SPLITSTEP, dt=0.005, closure=CLOSURE_TAYLOR2)
        count = 400
    problem = GalerkinProblem(level, 0.5, initial, nonlinearity=defocusing(3.0),
                              symbols=np.cos(model.grid_points[:, 0]), measure=measure)
    runs = simulate_ensemble(problem, config, count,
                             lambda k: sample_prm(measure, 0.5, trajectory_rng(13, k)))
    residuals = oracles.martingale_residual([record for _, record in runs], problem, config,
                                            np.eye(level.dim)[:4])
    assert residuals.shape == (count, 4)
    parts = np.concatenate([residuals.real, residuals.imag], axis=1)
    z = parts.mean(axis=0) / (parts.std(axis=0, ddof=1) / np.sqrt(count))
    assert np.max(np.abs(z)) <= MARTINGALE_Z_BOUND, z
