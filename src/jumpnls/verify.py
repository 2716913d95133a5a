"""Named runtime self-checks over the whole stack.

Each check is a ``check_<name>(ws, tol)`` function that exercises one
structural identity or bound with small, fixed inputs and returns ``(passed,
detail)``; the battery is every such function, in definition order.
``run_checks`` executes a selection, names each CheckResult after its function
and never raises on failure (failures are data).  ``tol_scale`` multiplies every
tolerance, so a sub-unit value tightens the battery and a large value can
reveal how much margin a check has.  Checks call library code through module
attributes, which keeps them patchable for fault-injection tests; the
references that no run reads (Mihlin suprema, dense channel matrices,
generator, ODE flow, level constants, Lévy path, modulus, energy report)
come from ``oracles``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import config as config_mod
from . import jumps, noise, nonlinear, oracles, solver, spectral
from .exceptions import ConfigurationError

__all__ = ["CheckResult", "check_names", "run_checks"]


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Workspace:
    """Shared small fixtures, built once per run_checks call."""

    def __init__(self):
        self.model = spectral.build_spectral_model(
            spectral.torus_1d(2.0 * np.pi), max_level=6
        )
        self.level = spectral.build_level(self.model, 4)
        self.symbol = np.cos(self.model.grid_points[:, 0])
        self.ops = jumps.assemble_noise_operators(self.level, self.symbol[None, :])
        rng = np.random.default_rng(2024)
        self.state = rng.normal(size=self.level.dim) + 1j * rng.normal(
            size=self.level.dim
        )
        self.full = rng.normal(size=self.model.num_modes) + 1j * rng.normal(
            size=self.model.num_modes
        )
        self.nl = nonlinear.defocusing(3.0)
        self.rng = rng


_SAMPLE_CONFIG = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
beta = 1.0
max_level = 6
level = 4
dealias_factor = 2

[nonlinearity]
kind = defocusing
alpha = 3.0

[noise]
kind = atomic
symbols = cos
epsilon = 0.5
atoms = 0.25 : 1.5; -0.9 : 1.0

[solver]
mode = FaithfulMidpoint
dt = 0.01
closure = Taylor2
fp_tol = 1e-12
max_fp_iters = 100
max_halvings = 20

[initial]
preset = decaying
rate = 0.5
mode = 0
scale = 1.0

[run]
horizon = 0.5
trajectories = 2
master_seed = 7
"""


# ---------------------------------------------------------------------------
# spectral layer
# ---------------------------------------------------------------------------

def check_quadrature_orthonormality(ws, tol):
    modes = ws.model.synthesize(np.eye(ws.model.num_modes))
    gram = (modes.conj() * ws.model.grid_weights) @ modes.T
    defect = float(np.max(np.abs(gram - np.eye(len(gram)))))
    return defect <= 1e-12 * tol, f"gram defect {defect:.3e}"


def check_transform_roundtrip(ws, tol):
    # synthesize/analyze run the fast transforms; the small model's bound
    # pair is dense, so compare both directions with it too
    model, coeffs = ws.model, ws.full
    values = model.synthesize(coeffs)
    back = model.analyze(values)
    err = float(np.linalg.norm(back - coeffs) / np.linalg.norm(coeffs))
    to_grid, from_grid = model.transform_pair()
    gap = max(
        float(np.linalg.norm(to_grid(coeffs) - values) / np.linalg.norm(values)),
        float(np.linalg.norm(from_grid(values) - back) / np.linalg.norm(back)),
    )
    return (max(err, gap) <= 1e-12 * tol,
            f"relative roundtrip error {err:.3e}, "
            f"dense vs fast gap {gap:.3e}")


def check_parseval_identity(ws, tol):
    values = ws.model.synthesize(ws.full)
    quad = float(np.sum(ws.model.grid_weights * np.abs(values) ** 2))
    coef = float(np.sum(np.abs(ws.full) ** 2))
    err = abs(quad - coef) / coef
    return err <= 1e-12 * tol, f"relative norm mismatch {err:.3e}"


def check_level_nesting(ws, tol):
    # levels nest as prefixes because the table is sorted by lambda_S and
    # level n holds the modes below 2**(n+1)
    lam = ws.model.eigenvalues_S
    ordered = bool(np.all(np.diff(lam) >= 0))
    dims = [spectral.build_level(ws.model, n).dim for n in range(ws.model.max_level + 1)]
    counts = [int(np.count_nonzero(lam < 2.0 ** (n + 1))) for n in range(len(dims))]
    ok = ordered and dims == counts
    return (ok,
            f"lambda_S nondecreasing: {ordered}, level dims {dims}, "
            f"modes below 2**(n+1) {counts}")


def check_cutoff_branches(ws, tol):
    values = (
        spectral.cutoff_multiplier(3, 7.9),
        spectral.cutoff_multiplier(3, 12.0),
        spectral.cutoff_multiplier(3, 16.0),
    )
    want = (1.0, 0.5, 0.0)
    err = max(abs(a - b) for a, b in zip(values, want))
    return err <= 1e-12 * tol, f"branch values {values}, max error {err:.3e}"


def check_mihlin_suprema(ws, tol):
    base = oracles.mihlin_suprema(0)
    high = oracles.mihlin_suprema(7)
    same = np.array_equal(base, high)
    t = np.linspace(0.0, 3.0, 4001)
    profile = np.array([
        np.max(np.abs(spectral.transition_profile(t, order=k))) for k in range(3)
    ])
    bounded = bool(np.all(base <= 2.0 ** np.arange(3) * profile + 1e-9 * tol))
    return same and bounded, f"level-free: {same}, bounded: {bounded}, values {base}"


def check_smoothing_contraction(ws, tol):
    projected = spectral.apply_projection(ws.level, ws.full)
    smoothed = spectral.apply_smoothing(ws.level, ws.full)
    ok = np.linalg.norm(smoothed) <= np.linalg.norm(projected) * (1 + 1e-15 * tol)
    return (ok,
            f"|S u| = {np.linalg.norm(smoothed):.6f} <= "
            f"|P u| = {np.linalg.norm(projected):.6f}")


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def check_pairing_reality(ws, tol):
    f = nonlinear.eval_F(ws.model, ws.nl, ws.state, ws.level.dim)
    pairing = float(np.vdot(ws.state, 1j * f).real)
    scale = np.linalg.norm(ws.state) * max(np.linalg.norm(f), 1.0)
    ok = abs(pairing) <= 1e-13 * tol * scale
    return ok, f"Re<u, iF(u)> = {pairing:.3e}"


def check_antiderivative_slope(ws, tol):
    u = ws.state
    h = np.roll(u, 1)
    f = nonlinear.eval_F(ws.model, ws.nl, u, ws.level.dim)
    exact = float(np.vdot(f, h).real)
    eps = 1e-6
    plus = nonlinear.eval_Fhat(ws.model, ws.nl, u + eps * h, ws.level.dim)
    minus = nonlinear.eval_Fhat(ws.model, ws.nl, u - eps * h, ws.level.dim)
    fd = (plus - minus) / (2 * eps)
    err = abs(fd - exact) / max(abs(exact), 1e-12)
    return err <= 1e-5 * tol, f"directional-derivative mismatch {err:.3e}"


def check_exponent_window(ws, tol):
    ok = True
    try:
        nonlinear.validate_exponent(nonlinear.defocusing(3.0), 1)
        nonlinear.validate_exponent(nonlinear.focusing(3.0), 1)
    except ConfigurationError:
        ok = False
    rejected = False
    try:
        nonlinear.validate_exponent(nonlinear.focusing(6.0), 1)
    except ConfigurationError:
        rejected = True
    return (ok and rejected,
            f"accepts alpha=3 (both signs): {ok}, "
            f"rejects focusing alpha=6 in 1d: {rejected}")


# ---------------------------------------------------------------------------
# jump operators
# ---------------------------------------------------------------------------

def check_hermiticity_defect(ws, tol):
    defect = oracles.hermiticity_defect(ws.ops)
    matrices_ok = all(
        np.array_equal(m, m.conj().T) for m in oracles.matrices(ws.ops)
    )
    return (defect <= 1e-10 * tol and matrices_ok,
            f"assembly defect {defect:.3e}, symmetrized: {matrices_ok}")


def check_jump_unitarity(ws, tol):
    mark = np.array([0.8])
    out = jumps.jump_map(ws.ops, mark, ws.state)
    err = abs(np.linalg.norm(out) - np.linalg.norm(ws.state))
    err /= np.linalg.norm(ws.state)
    return err <= 1e-12 * tol, f"relative norm change {err:.3e}"


def check_jump_group_law(ws, tol):
    mark = np.array([0.6])
    out = jumps.jump_map(ws.ops, -mark, jumps.jump_map(ws.ops, mark, ws.state))
    err = np.linalg.norm(out - ws.state) / np.linalg.norm(ws.state)
    return err <= 1e-10 * tol, f"inverse composition error {err:.3e}"


def check_flow_matches_map(ws, tol):
    mark = np.array([0.7])
    via_ode = oracles.marcus_flow(ws.ops, 1.0, mark, ws.state)
    direct = jumps.jump_map(ws.ops, mark, ws.state)
    err = np.linalg.norm(via_ode - direct) / np.linalg.norm(ws.state)
    return err <= 1e-8 * tol, f"time-1 flow vs spectral map {err:.3e}"


def check_chebyshev_jump(ws, tol):
    """The Chebyshev jump map and differences against eigh on two domain kinds.

    One case runs the series to a degree above the level's dimension.
    """
    dirichlet = spectral.build_spectral_model(spectral.interval_dirichlet(np.pi),
                                              max_level=9)
    cases = [(ws.model, 6, ws.symbol),
             (dirichlet, 9, np.sin(dirichlet.grid_points[:, 0])),
             (ws.model, 2, ws.symbol)]
    rng = np.random.default_rng(31)
    worst, details = 0.0, []
    for model, n, symbol in cases:
        ops = jumps.assemble_noise_operators(spectral.build_level(model, n), symbol[None, :])
        mark = np.array([0.9])
        degree = len(jumps._chebyshev_coefficients(ops.radius(mark))) - 1
        x = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
        theta, vectors = np.linalg.eigh(oracles.generator(ops, mark))
        phase = np.exp(-1j * theta)
        # |theta| <= 0.9 here: the unstable forms lose only ~1e-16 ||x||
        pairs = ((jumps.jump_map, phase), (jumps.jump_difference_1, phase - 1.0),
                 (jumps.jump_difference_2, phase - 1.0 + 1j * theta))
        err = 0.0
        for series, factor in pairs:
            exact = vectors @ (factor * (vectors.conj().T @ x))
            err = max(err, np.linalg.norm(series(ops, mark, x) - exact) / np.linalg.norm(x))
        worst = max(worst, err)
        details.append(f"{model.domain.kind} {err:.3e} (degree {degree}, dim {ops.dim})")
    return worst <= 1e-13 * tol, ", ".join(details)


def check_difference_bounds(ws, tol):
    rng = np.random.default_rng(11)
    bound_h = oracles.bound_H(ws.ops)
    root = np.sqrt(bound_h)
    worst1 = worst2 = -np.inf
    for _ in range(20):
        r = 10.0 ** rng.uniform(-3, 0)
        mark = np.array([r * (1 if rng.random() < 0.5 else -1)])
        x = rng.normal(size=ws.level.dim) + 1j * rng.normal(size=ws.level.dim)
        n1 = np.linalg.norm(jumps.jump_difference_1(ws.ops, mark, x))
        n2 = np.linalg.norm(jumps.jump_difference_2(ws.ops, mark, x))
        nx = np.linalg.norm(x)
        worst1 = max(worst1, n1 - root * r * nx)
        worst2 = max(worst2, n2 - 0.5 * bound_h * r * r * nx)
    ok = worst1 <= 1e-12 * tol and worst2 <= 1e-12 * tol
    return ok, f"worst slack d1 {worst1:.3e}, d2 {worst2:.3e}"


def check_taylor_remainder(ws, tol):
    radius, weight = 1e-2, 2.0
    measure = noise.AtomicMeasure(marks=[[radius], [0.9]],
                                  weights=[weight, 1.0], epsilon=0.5)
    problem = solver.GalerkinProblem(ws.level, 1.0, ws.full, symbols=ws.symbol,
                                     measure=measure)
    u = problem.initial
    d_t = solver.drift(problem, solver.SolverConfig(closure="Taylor2"), u)
    d_a = solver.drift(problem, solver.SolverConfig(closure="AtomicExact"), u)
    gap = np.linalg.norm(d_a - d_t)
    bound = weight * (radius * np.sqrt(oracles.bound_H(problem.ops))) ** 3 / 6.0
    ok = gap <= bound * np.linalg.norm(u) * (1 + 1e-10 * tol)
    return (ok,
            f"closure gap {gap:.3e} within cubic bound "
            f"{bound * np.linalg.norm(u):.3e}")


# ---------------------------------------------------------------------------
# jump measures and sampling
# ---------------------------------------------------------------------------

def check_atomic_moments(ws, tol):
    measure = noise.AtomicMeasure(marks=[[0.4], [-0.2]], weights=[1.0, 0.5],
                                  epsilon=0.0)
    m = measure.moments()
    err = max(
        abs(measure.simulated_intensity() - 1.5),
        abs(m.mean_simulated[0] - (0.4 - 0.1)),
        abs(m.variance_budget - 0.0),
    )
    return err <= 1e-14 * tol, f"closed-form moment error {err:.3e}"


def check_radial_moments(ws, tol):
    from scipy.integrate import quad

    measure = noise.RadialStableMeasure(activity=1.0, stability=1.0,
                                        dimension=1, epsilon=0.1)
    intensity = measure.simulated_intensity()
    # radial density c * |l|^{-1-beta} on [eps, 1], two boundary points in 1d
    want, _ = quad(lambda r: 2.0 * r ** (-2.0), 0.1, 1.0)
    err = abs(intensity - want) / want
    budget, _ = quad(lambda r: 2.0 * r ** (-2.0) * r * r, 0.0, 0.1)
    err = max(err, abs(measure.moments().variance_budget - budget) / budget)
    return err <= 1e-10 * tol, f"quadrature cross-check error {err:.3e}"


def check_prm_compensation(ws, tol):
    moments = noise.AtomicMeasure(
        marks=[[0.4], [-0.2]], weights=[1.0, 0.5]
    ).moments()
    grid = np.linspace(0.0, 2.0, 9)
    path = oracles.reconstruct_levy_path([], moments, grid)
    want = -np.outer(grid, moments.mean_simulated)
    err = float(np.max(np.abs(path - want)))
    return err <= 1e-14 * tol, f"compensator-only path error {err:.3e}"


def check_seed_streams(ws, tol):
    a = noise.trajectory_seed(12345, 0)
    b = noise.trajectory_seed(12345, 1)
    again = noise.trajectory_seed(12345, 0)
    ok = a == again and a != b
    return ok, f"deterministic: {a == again}, distinct: {a != b}"


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def _deterministic_problem(ws, nl=None, scale=1.0):
    return solver.GalerkinProblem(ws.level, 1.0, scale * ws.full, nonlinearity=nl)


def check_diagonal_exactness(ws, tol):
    problem = _deterministic_problem(ws)
    config = solver.SolverConfig(dt=0.05)
    u = problem.initial.copy()
    for _ in range(20):
        u = solver.step_between_jumps(problem, config, u, config.dt)
    lam = problem.level.eigenvalues_A
    exact = np.exp(-1j * lam * 1.0) * problem.initial
    err = np.linalg.norm(u - exact) / np.linalg.norm(exact)
    return err <= 1e-12 * tol, f"linear-flow error {err:.3e}"


def check_midpoint_mass(ws, tol):
    problem = _deterministic_problem(ws, nl=ws.nl, scale=0.3)
    config = solver.SolverConfig(dt=0.02)
    u = problem.initial.copy()
    mass0 = float(np.sum(np.abs(u) ** 2))
    for _ in range(25):
        u = solver.step_between_jumps(problem, config, u, config.dt)
    err = abs(float(np.sum(np.abs(u) ** 2)) - mass0) / mass0
    return err <= 1e-12 * tol, f"relative mass drift {err:.3e}"


def check_reversibility(ws, tol):
    problem = _deterministic_problem(ws, nl=ws.nl, scale=0.3)
    config = solver.SolverConfig(fp_tol=1e-14)
    u0 = problem.initial
    forward = solver.step_between_jumps(problem, config, u0, 0.02)
    back = np.conj(
        solver.step_between_jumps(problem, config, np.conj(forward), 0.02)
    )
    err = np.linalg.norm(back - u0) / np.linalg.norm(u0)
    return err <= 1e-10 * tol, f"conjugation round trip error {err:.3e}"


def check_drift_antisymmetry(ws, tol):
    measure = noise.AtomicMeasure(marks=[[0.4], [-0.2]], weights=[1.0, 0.5],
                                  epsilon=0.0)
    problem = solver.GalerkinProblem(ws.level, 1.0, ws.full, ws.nl, ws.symbol, measure)
    u = problem.initial
    d = solver.drift(problem, solver.SolverConfig(), u)
    pairing = abs(float(np.vdot(u, d).real))
    scale = np.linalg.norm(u) * np.linalg.norm(d)
    return pairing <= 1e-12 * tol * scale, f"Re<u, drift(u)> = {pairing:.3e}"


def check_second_order_step(ws, tol):
    problem = _deterministic_problem(ws, nl=ws.nl, scale=0.3)

    def advance(dt, steps):
        config = solver.SolverConfig(dt=dt, fp_tol=1e-14)
        u = problem.initial.copy()
        for _ in range(steps):
            u = solver.step_between_jumps(problem, config, u, dt)
        return u

    reference = advance(0.2 / 128, 128)
    coarse = np.linalg.norm(advance(0.2 / 8, 8) - reference)
    fine = np.linalg.norm(advance(0.2 / 16, 16) - reference)
    ratio = coarse / fine
    ok = abs(ratio - 4.0) <= 0.8 * tol
    return ok, f"error ratio {ratio:.3f}"


def check_jump_mass_conservation(ws, tol):
    measure = noise.AtomicMeasure(marks=[[0.5], [-0.5]], weights=[4.0, 4.0])
    problem = solver.GalerkinProblem(ws.level, 1.0, ws.full, ws.nl, ws.symbol, measure)
    events = noise.sample_prm(measure, problem.horizon, noise.trajectory_rng(3, 0))
    record = solver.simulate(problem, solver.SolverConfig(dt=0.05), events,
                             record_states=False)
    err = float(np.max(np.abs(record.mass - record.mass[0]))) / record.mass[0]
    return err <= 1e-10 * tol, f"mass drift across {len(record.events)} jumps {err:.3e}"


# ---------------------------------------------------------------------------
# diagnostics and config
# ---------------------------------------------------------------------------

def check_modulus_dynamic_program(ws, tol):
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([0.0, 1.0, 1.0, 3.0, 9.0])
    got = (
        oracles.cadlag_modulus(times, values, 0.25),
        oracles.cadlag_modulus(times, values, 0.3),
        oracles.cadlag_modulus(times, values, 0.8),
    )
    want = (0.0, 2.0, 3.0)
    err = max(abs(a - b) for a, b in zip(got, want))
    return err <= 1e-14 * tol, f"hand-worked moduli {got}"


def check_energy_report(ws, tol):
    report = oracles.energy(ws.model, ws.nl, ws.state, ws.level.dim)
    recomputed = report.kinetic + report.potential
    ok = (report.total == recomputed
          and abs(report.mass - float(np.sum(np.abs(ws.state) ** 2))) <= 1e-14 * tol)
    return ok, f"mass {report.mass:.6f}, total {report.total:.6f}"


def check_config_roundtrip(ws, tol):
    spec = config_mod.parse_config(_SAMPLE_CONFIG)
    text = config_mod.canonical_text(spec)
    again = config_mod.parse_config(text)
    digest = config_mod.config_hash(spec)
    ok = again == spec and len(digest) == 64 and digest == config_mod.config_hash(again)
    return ok, f"hash {digest[:12]}…"


# the battery: every check_ function above, in definition order; built before
# check_names, whose name would match
_CHECKS = {name.removeprefix("check_"): fn
           for name, fn in list(globals().items()) if name.startswith("check_")}


def check_names() -> list[str]:
    return list(_CHECKS)


def run_checks(names=None, tol_scale: float = 1.0) -> list[CheckResult]:
    """Execute the selected checks (all by default) and collect results.

    An empty selection, an unknown name or a repeated one is refused.  An
    exception inside a check is itself a failure, reported in the detail.
    """
    if not (0 < tol_scale < np.inf):
        raise ConfigurationError(f"tol_scale must be positive and finite, got {tol_scale}")
    if names is None:
        selected = list(_CHECKS)
    else:
        if not names:
            raise ConfigurationError("no checks selected")
        unknown = [n for n in names if n not in _CHECKS]
        if unknown:
            raise ConfigurationError(f"unknown checks: {unknown}")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigurationError(f"checks selected more than once: {repeated}")
        selected = list(names)
    ws = _Workspace()
    results = []
    for name in selected:
        try:
            passed, detail = _CHECKS[name](ws, tol_scale)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return results
