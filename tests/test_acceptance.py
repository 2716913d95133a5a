"""Acceptance battery: twelve numbered end-to-end criteria.

Each test prints a single "criterion NN <name>: PASS/FAIL (<detail>)" line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them) and asserts
at the stated tolerance.  Tolerances and case counts are fixed; do not tune
them to the implementation.
"""

import itertools
import json
import time

import numpy as np
import pytest

from jumpnls import jumps, noise, nonlinear, oracles, solver, spectral
from jumpnls.cli import main as cli_main

GOLDEN = 0.6180339887498949


def _check(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail})", flush=True)
    assert passed, f"criterion {num:02d} {name}: FAIL ({detail})"


@pytest.fixture(scope="module")
def model():
    return spectral.build_spectral_model(
        spectral.torus_1d(2 * np.pi), beta=1.0, max_level=8
    )


def golden_decaying(model):
    """Unit-norm profile with exponentially decaying modes and fixed phases."""
    k = np.arange(model.num_modes)
    u = np.exp(-0.4 * np.sqrt(model.eigenvalues_S)) * np.exp(2j * np.pi * GOLDEN * k)
    return u / np.linalg.norm(u)


def ball_point(rng, dim):
    """Uniform draw from the closed unit ball of R^dim."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return rng.uniform() ** (1.0 / dim) * direction


def unit_state(rng, dim):
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return u / np.linalg.norm(u)


def test_01_mass_conservation(model):
    x = model.grid_points[:, 0]
    measure = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, 1.0],
                                  epsilon=0.0)
    problem = solver.GalerkinProblem(
        spectral.build_level(model, 6), 1.0, golden_decaying(model),
        nonlinearity=nonlinear.defocusing(3.0), symbols=np.cos(x),
        measure=measure,
    )
    config = solver.SolverConfig(mode=solver.MODE_MIDPOINT, dt=1e-3,
                                 fp_tol=1e-12)
    start = time.perf_counter()
    worst = 0.0
    for k in range(16):
        path = noise.sample_prm(measure, 1.0, noise.trajectory_rng(31, k))
        record = solver.simulate(problem, config, path, record_states=False)
        mass = record.mass
        worst = max(worst, float(np.max(np.abs(mass - mass[0])) / mass[0]))
    elapsed = time.perf_counter() - start
    _check(1, "pathwise mass conservation",
           worst <= 1e-10 and elapsed < 60.0,
           f"worst rel defect {worst:.2e} over 16 seeds, {elapsed:.1f}s")


def test_02_jump_map_unitarity_and_group_law(model):
    x = model.grid_points[:, 0]
    level = spectral.build_level(model, 6)
    ops = jumps.assemble_noise_operators(level,
                                         np.stack([np.cos(x), np.sin(x)]))
    rng = np.random.default_rng(202)
    worst_norm = 0.0
    worst_inverse = 0.0
    for _ in range(1000):
        mark = ball_point(rng, 2)
        u = unit_state(rng, level.dim)
        forward = jumps.jump_map(ops, mark, u)
        worst_norm = max(worst_norm, abs(np.linalg.norm(forward) - 1.0))
        back = jumps.jump_map(ops, -mark, forward)
        worst_inverse = max(worst_inverse, float(np.linalg.norm(back - u)))
    _check(2, "jump-map unitarity and group law",
           worst_norm <= 1e-12 and worst_inverse <= 1e-10,
           f"norm dev {worst_norm:.2e}, inverse dev {worst_inverse:.2e}, 1000 cases")


def test_03_jump_difference_bounds(model):
    x = model.grid_points[:, 0]
    level = spectral.build_level(model, 6)
    ops = jumps.assemble_noise_operators(level,
                                         np.stack([np.cos(x), np.sin(x)]))
    bound_h = oracles.bound_H(ops)
    root_b = np.sqrt(bound_h)
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(1000):
        mark = ball_point(rng, 2)
        radius = np.linalg.norm(mark)
        u = unit_state(rng, level.dim)
        d1 = np.linalg.norm(jumps.jump_difference_1(ops, mark, u))
        d2 = np.linalg.norm(jumps.jump_difference_2(ops, mark, u))
        if d1 > root_b * radius or d2 > 0.5 * bound_h * radius**2:
            violations += 1
    _check(3, "jump-difference norm bounds", violations == 0,
           f"{violations} violations in 1000 cases, bound_H {bound_h:.3f}")


def test_04_marcus_flow_cross_validation(model):
    x = model.grid_points[:, 0]
    level = spectral.build_level(model, 6)
    ops = jumps.assemble_noise_operators(level,
                                         np.stack([np.cos(x), np.sin(x)]))
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        mark = ball_point(rng, 2)
        u = unit_state(rng, level.dim)
        flowed = oracles.marcus_flow(ops, 1.0, mark, u)
        worst = max(worst,
                    float(np.linalg.norm(flowed - jumps.jump_map(ops, mark, u))))
    _check(4, "Marcus flow vs jump map", worst <= 1e-8,
           f"worst deviation {worst:.2e}, 50 cases, RK4 at h r <= "
           f"{oracles.FLOW_STEP_RADIUS:g}")


def test_05_antiderivative_identity(model):
    nl = nonlinear.defocusing(3.0)
    level = spectral.build_level(model, 5)
    steps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    slopes = []
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        u = unit_state(rng, level.dim)
        v = unit_state(rng, level.dim)
        base = nonlinear.eval_Fhat(level, nl, u)
        pairing = float(np.vdot(nonlinear.eval_F(level, nl, u), v).real)
        errors = np.array([
            abs((nonlinear.eval_Fhat(level, nl, u + h * v) - base) / h - pairing)
            for h in steps
        ])
        slopes.append(float(np.polyfit(np.log(steps), np.log(errors), 1)[0]))
    _check(5, "antiderivative directional derivative",
           min(slopes) >= 0.9,
           f"min observed order {min(slopes):.3f} over 20 pairs")


def test_06_energy_jump_difference_scaling(model):
    x = model.grid_points[:, 0]
    nl = nonlinear.defocusing(3.0)
    level = spectral.build_level(model, 5)
    ops = jumps.assemble_noise_operators(
        level, np.stack([np.cos(x), np.sin(x), np.cos(2 * x)])
    )
    state = solver.renormalize_initial(level, golden_decaying(model))
    base = oracles.energy(level, nl, state).total
    radii = np.logspace(-1, -4, 7)
    rng = np.random.default_rng(606)
    worst_first = 0.0
    worst_second = 0.0
    for _ in range(5):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        first, second = [], []
        for radius in radii:
            mark = radius * direction
            jumped = jumps.jump_map(ops, mark, state)
            delta = oracles.energy(level, nl, jumped).total - base
            linear = oracles.energy_derivative(
                level, nl, state, 1j * (oracles.generator(ops, mark) @ state)
            )
            first.append(abs(delta) / radius)
            second.append(abs(delta + linear) / radius**2)
        worst_first = max(worst_first, max(first) / min(first))
        worst_second = max(worst_second, max(second) / min(second))
    _check(6, "energy jump-difference scaling",
           worst_first < 2.0 and worst_second < 2.0,
           f"ratio variation {worst_first:.3f} (first order), "
           f"{worst_second:.3f} (second order), 5 directions, |l| 1e-1..1e-4")


def test_07_small_jump_closure_consistency(model):
    x = model.grid_points[:, 0]
    nl = nonlinear.defocusing(3.0)
    horizon = 1.0
    config = solver.SolverConfig(mode=solver.MODE_MIDPOINT, dt=0.02,
                                 closure=solver.CLOSURE_TAYLOR2, fp_tol=1e-12)
    stats = {}
    for eps in (0.2, 0.1, 0.05):
        measure = noise.RadialStableMeasure(activity=1.0, stability=0.5,
                                            dimension=1, epsilon=eps)
        problem = solver.GalerkinProblem(
            spectral.build_level(model, 4), horizon, golden_decaying(model), nonlinearity=nl,
            symbols=0.3 * np.cos(x), measure=measure,
        )
        mass0 = float(np.linalg.norm(problem.initial) ** 2)
        defects = np.array([
            mass0 - solver.simulate(
                problem, config,
                noise.sample_prm(measure, horizon, noise.trajectory_rng(
                    2601, 1000 * int(eps * 100) + i)),
                record_states=False,
            ).mass[-1]
            for i in range(256)
        ])
        stats[eps] = (
            float(defects.mean()),
            float(defects.std(ddof=1) / np.sqrt(len(defects))),
            measure.moments().variance_budget,
        )
    # one K for all cutoffs, fitted at the middle one
    fitted = stats[0.1][0] / (horizon * stats[0.1][2])
    z_scores = {
        eps: abs(mean - fitted * horizon * budget) / sem
        for eps, (mean, sem, budget) in stats.items()
    }
    slopes = [mean / (horizon * budget) for mean, _, budget in stats.values()]
    drift = max(slopes) / min(slopes)
    _check(7, "small-jump closure consistency",
           max(z_scores.values()) <= 5.0 and drift < 2.0,
           f"worst |defect - K T sigma^2| = {max(z_scores.values()):.2f} sigma-hat, "
           f"K drift {drift:.4f}, 256 trajectories per cutoff")


def test_08_defocusing_energy_median_stability(model):
    x = model.grid_points[:, 0]
    nl = nonlinear.defocusing(3.0)
    measure = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, 1.0],
                                  epsilon=0.0)
    config = solver.SolverConfig(mode=solver.MODE_MIDPOINT, dt=0.01,
                                 fp_tol=1e-12)
    medians = {}
    for n in (4, 5, 6):
        problem = solver.GalerkinProblem(
            spectral.build_level(model, n), 0.5, golden_decaying(model), nonlinearity=nl,
            symbols=np.cos(x), measure=measure,
        )
        sups = [
            float(np.max(0.5 * rec.mass + rec.energy))
            for rec in (
                solver.simulate(problem, config,
                                noise.sample_prm(measure, 0.5,
                                                 noise.trajectory_rng(808, i)),
                                record_states=False)
                for i in range(64)
            )
        ]
        medians[n] = float(np.median(sups))
    ratio = max(medians.values()) / min(medians.values())
    _check(8, "defocusing energy-moment stability", ratio < 2.0,
           f"median sup energies {medians}, max/min {ratio:.3f}")


def test_09_coupled_level_convergence(model):
    x = model.grid_points[:, 0]
    nl = nonlinear.defocusing(3.0)
    measure = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[4.0, 4.0],
                                  epsilon=0.0)
    # polynomially decaying modes so every truncation error stays resolvable
    slow = np.exp(2j * np.pi * GOLDEN * np.arange(model.num_modes))
    slow = slow / (1.0 + model.eigenvalues_A)
    slow /= np.linalg.norm(slow)
    config = solver.SolverConfig(mode=solver.MODE_MIDPOINT, dt=5e-3,
                                 fp_tol=1e-12)
    path = noise.sample_prm(measure, 0.5, noise.trajectory_rng(909, 0))
    assert len(path) >= 3, "the fixed path is expected to carry jumps"
    fine = solver.GalerkinProblem(spectral.build_level(model, 8), 0.5, slow, nonlinearity=nl,
                                  symbols=np.cos(x), measure=measure)
    distances = []
    for n in (4, 5, 6, 7):
        result = solver.simulate_coupled(fine, n, config, path)
        distances.append(result.distance)
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    _check(9, "coupled-level convergence", decreasing and distances[-1] > 0,
           "sup dual distances "
           + ", ".join(f"n={n}: {d:.3e}" for n, d in zip((4, 5, 6, 7), distances))
           + f", {len(path)} shared jumps")


def brute_force_modulus(times, values, delta):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)[:, None]
    m = len(times)

    def osc(a, b):
        block = values[a:b]
        if len(block) <= 1:
            return 0.0
        return float(np.max(np.abs(block[:, None, :] - block[None, :, :])))

    best = np.inf
    for r in range(0, m - 1):
        for combo in itertools.combinations(range(1, m - 1), r):
            bounds = [0, *combo, m - 1]
            if any(times[b] - times[a] < delta
                   for a, b in zip(bounds, bounds[1:])):
                continue
            best = min(best, max(osc(a, b) for a, b in zip(bounds, bounds[1:])))
    return best


def test_10_modulus_oracle():
    times = np.linspace(0.0, 1.0, 6)
    mismatches = 0
    cases = 0
    for values in itertools.product((0.0, 1.0, 2.0), repeat=6):
        for delta in (0.15, 0.35, 0.6, 1.0):
            cases += 1
            got = oracles.cadlag_modulus(times, np.array(values), delta)
            if got != brute_force_modulus(times, values, delta):
                mismatches += 1
    _check(10, "cadlag modulus dynamic program", mismatches == 0,
           f"{mismatches} mismatches over {cases} exhaustive path/delta cases")


def test_11_mihlin_uniformity():
    grid = np.linspace(1.0, 2.0, 20001)
    profile_sup = [
        max(float(np.max(np.abs(spectral.transition_profile(grid, order=k)))),
            1.0 if k == 0 else 0.0)
        for k in range(3)
    ]
    per_level = np.array([oracles.mihlin_suprema(n, max_order=2)
                          for n in range(11)])
    bounded = all(
        per_level[n, k] <= 2.0**k * profile_sup[k] + 1e-9
        for n in range(11) for k in range(3)
    )
    constant = all(np.array_equal(per_level[n, 1:], per_level[0, 1:])
                   for n in range(11))
    _check(11, "Mihlin multiplier uniformity", bounded and constant,
           f"suprema {np.round(per_level[0], 6).tolist()} at every level 0..10")


CLI_CONFIG = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
beta = 1.0
max_level = 5
level = 3

[nonlinearity]
kind = defocusing
alpha = 3.0

[noise]
kind = atomic
symbols = cos
atoms = 0.5 : 3.0; -0.5 : 3.0

[solver]
mode = FaithfulMidpoint
dt = 0.05

[initial]
preset = decaying
rate = 0.5

[run]
horizon = 0.4
trajectories = 2
master_seed = 5

[output]
save_states = true
save_events = true
"""


def test_12_cli_determinism(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(CLI_CONFIG, encoding="utf-8")

    def run_all(out):
        assert cli_main(["simulate", "--config", str(config),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["converge", "--config", str(config),
                         "--levels", "1,2", "--trajectories", "2"]) == 0
        converge_text = capsys.readouterr().out
        assert cli_main(["moments", "--config", str(config)]) == 0
        moments_text = capsys.readouterr().out
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return files, converge_text, moments_text

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    identical = (
        sorted(first[0]) == sorted(second[0])
        and all(first[0][name] == second[0][name] for name in first[0])
        and first[1] == second[1]
        and first[2] == second[2]
    )
    json.loads(first[1])  # converge output stays parseable
    _check(12, "bit-identical reruns", identical,
           f"{len(first[0])} files plus converge/moments stdout compared")
