import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jumpnls import config, jumps, noise, nonlinear, oracles, solver, spectral
from jumpnls.exceptions import ConfigurationError, ShapeError

from conftest import closed_form_basis, eigenphase_factor, kind_id, random_state


@pytest.fixture(scope="module")
def cos_ops(torus_model):
    level = spectral.build_level(torus_model, 5)
    symbol = np.cos(torus_model.grid_points[:, 0])
    return jumps.assemble_noise_operators(level, [symbol])


@pytest.fixture(scope="module")
def two_channel_ops(torus_model):
    level = spectral.build_level(torus_model, 4)
    x = torus_model.grid_points[:, 0]
    return jumps.assemble_noise_operators(level, [np.cos(x), np.sin(x)])


def tridiagonal_cos_oracle(model, level):
    """Analytic matrix of the smoothed cos(x) multiplier on the torus.

    cos(x) e^{ikx} = (e^{i(k+1)x} + e^{i(k-1)x}) / 2, so in the exponential
    basis the raw multiplication operator has 1/2 on wavenumber-adjacent
    pairs; smoothing scales entry (j, k) by the two cutoff values.
    """
    ks = model.wavenumbers[:level.dim, 0]
    s = level.multipliers
    d = level.dim
    expected = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            if abs(ks[a] - ks[b]) == 1:
                expected[a, b] = 0.5 * s[a] * s[b]
    return expected


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assembled_matrices_hermitian(cos_ops, two_channel_ops):
    for ops in (cos_ops, two_channel_ops):
        assert oracles.hermiticity_defect(ops) <= 1e-12
        for M in oracles.matrices(ops):
            assert np.max(np.abs(M - M.conj().T)) == 0.0  # exactly symmetrized


def test_cos_matrix_matches_tridiagonal_oracle(torus_model, cos_ops):
    expected = tridiagonal_cos_oracle(torus_model, cos_ops.level)
    assert np.max(np.abs(oracles.matrices(cos_ops)[0] - expected)) < 1e-13
    # level constant from the independent construction
    assert oracles.bound_H(cos_ops) == pytest.approx(np.linalg.norm(expected, 2) ** 2, rel=1e-12)


@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_assembly_matches_dense_quadrature(model_name, request):
    model = request.getfixturevalue(model_name)
    level = spectral.build_level(model, model.max_level - 1)
    x = model.grid_points.sum(axis=1)
    symbols = [np.cos(x), 0.5 + np.sin(2.0 * x) * np.cos(x)]
    ops = jumps.assemble_noise_operators(level, symbols)
    basis = closed_form_basis(model)[:level.dim]
    s = level.multipliers
    for symbol, M in zip(symbols, oracles.matrices(ops)):
        raw = (basis.conj() * model.grid_weights * symbol) @ basis.T
        dense = s[:, None] * 0.5 * (raw + raw.conj().T) * s[None, :]
        assert np.max(np.abs(M - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_blocked_assembly_bit_identical(model_name, request):
    model = request.getfixturevalue(model_name)
    level = spectral.build_level(model, model.max_level - 1)
    x = model.grid_points.sum(axis=1)
    symbols = [np.cos(x), 0.5 + np.sin(2.0 * x) * np.cos(x)]

    def assemble(block_entries):
        # the matrices are built on their first request, so inside the patch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jumps, "ASSEMBLY_BLOCK_ENTRIES", block_entries)
            ops = jumps.assemble_noise_operators(level, symbols)
            return oracles.matrices(ops), oracles.hermiticity_defect(ops)

    # the fast transforms give each column the same bits at any block width
    one, full = assemble(1), assemble(level.dim * model.num_grid)
    shipped = assemble(jumps.ASSEMBLY_BLOCK_ENTRIES)
    for matrices, defect in (one, shipped):
        assert matrices.tobytes() == full[0].tobytes()
        assert defect == full[1]


def test_assembly_memory_is_the_operator_plus_blocks():
    # 2-d torus level 6: dim 401, grid 1024, transform-served.  Assembly keeps
    # the symbols only; the matrices are built on their first read, where a
    # full-width pass would peak near 27.5 MiB
    model = spectral.build_spectral_model(spectral.torus_2d(2 * np.pi, 2 * np.pi),
                                          max_level=7)
    level = spectral.build_level(model, 6)
    symbols = [np.cos(model.grid_points[:, 0])]
    oracles.matrices(jumps.assemble_noise_operators(level, symbols))  # transform plans
    tracemalloc.start()
    try:
        ops = jumps.assemble_noise_operators(level, symbols)
        assembly_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        oracles.matrices(ops)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level.dim == 401 and model.num_grid == 1024
    assert level.dim * model.num_grid > spectral.DENSE_PAIR_MAX_ENTRIES
    assert assembly_peak < 16 * level.dim**2  # below one operator
    assert build_peak <= 4 * oracles.matrices(ops).nbytes + 4 * 2**20


@pytest.mark.parametrize("domain,level_n", [("torus", 4), ("torus2d", 5)],
                         ids=["dense_pair", "transform_served"])
def test_matrices_refused_on_read_beyond_physical_memory(request, monkeypatch,
                                                         domain, level_n):
    # assembly keeps the symbols and jumps run without the matrices on every
    # level; the guard fires when they are first read
    model = request.getfixturevalue(f"{domain}_model")
    level = spectral.build_level(model, level_n)
    symbols = [np.cos(model.grid_points[:, 0]), np.sin(model.grid_points[:, -1])]
    assert ((level.dim * model.num_grid > spectral.DENSE_PAIR_MAX_ENTRIES)
            == (domain == "torus2d"))
    needed = 16 * (2 * level.dim**2 + level.dim * model.num_grid)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    ops = jumps.assemble_noise_operators(level, symbols)
    x = random_state(np.random.default_rng(3), level.dim)
    y = jumps.jump_map(ops, [0.7, -0.4], x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)
    with pytest.raises(ConfigurationError, match=f"about {needed / 2**30:.3g} GiB"):
        oracles.matrices(ops)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert oracles.matrices(ops).shape == (2, level.dim, level.dim)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: None)  # cannot tell
    ops = jumps.assemble_noise_operators(level, symbols)
    assert oracles.matrices(ops).shape == (2, level.dim, level.dim)


def test_build_level_binds_the_only_transform_pair(torus2d_model, monkeypatch):
    # binding a separable 2-d pair transforms its factors; the level binds it
    # once, and assembly, both closures' drift workspaces, jumps and simulate
    # read it
    model = torus2d_model
    bound, transform_pair = [], spectral.SpectralModel.transform_pair

    def counting(self, dim=None):
        bound.append(dim)
        return transform_pair(self, dim)

    monkeypatch.setattr(spectral.SpectralModel, "transform_pair", counting)
    level = spectral.build_level(model, 5)
    assert level.dim * model.num_grid > spectral.DENSE_PAIR_MAX_ENTRIES
    assert bound == [level.dim]
    bound.clear()
    measure = noise.AtomicMeasure(marks=[[0.5], [-0.3], [0.05]], weights=[6.0, 6.0, 3.0],
                                  epsilon=0.1)
    decaying = np.exp(-0.5 * np.sqrt(model.eigenvalues_S))
    problem = solver.GalerkinProblem(level, 0.2, decaying, nonlinear.defocusing(3.0),
                                     symbols=[np.cos(model.grid_points[:, 0])],
                                     measure=measure)
    ops = problem.ops
    configs = [solver.SolverConfig(dt=0.05, closure=closure)
               for closure in (solver.CLOSURE_TAYLOR2, solver.CLOSURE_ATOMIC)]
    for config in configs:
        solver._dynamics(problem, config)
    x = random_state(np.random.default_rng(4), level.dim)
    for mark in (0.7, -0.3, 1e-20):
        jumps.jump_map(ops, [mark], x)
        jumps.jump_difference_2(ops, [mark], np.eye(level.dim)[:, :3])
    for k, config in enumerate(configs):
        record = solver.simulate(problem, config,
                                 noise.sample_prm(measure, 0.2, noise.trajectory_rng(7, k)))
        assert len(record.path)
    assert bound == []


#: pair way -> (DENSE_PAIR_MAX_ENTRIES, SEPARABLE_PAIR_MAX_MULADDS)
PAIR_WAYS = {"dense": (2**62, 0), "separable": (0, 2**62), "fast": (0, 0)}


@pytest.mark.parametrize("model_name,way", [
    (name, way) for name in ("torus_model", "dirichlet_model", "neumann_model",
                             "torus2d_model")
    for way in PAIR_WAYS if way != "separable" or name == "torus2d_model"
])
def test_product_matches_dense_generator(request, monkeypatch, model_name, way):
    # every way a level's pair is served, patched before the level binds it
    model = request.getfixturevalue(model_name)
    max_entries, max_muladds = PAIR_WAYS[way]
    monkeypatch.setattr(spectral, "DENSE_PAIR_MAX_ENTRIES", max_entries)
    monkeypatch.setattr(spectral, "SEPARABLE_PAIR_MAX_MULADDS", max_muladds)
    calls, transform = [], spectral._transform

    def counting(kind, data, grid_shape, to_grid):
        calls.append(kind)
        return transform(kind, data, grid_shape, to_grid)

    monkeypatch.setattr(spectral, "_transform", counting)
    # the transforms that binding runs tell the ways apart
    binding = {"dense": [model.domain.kind], "separable": [spectral.TORUS_1D] * 4,
               "fast": []}[way]
    x = model.grid_points
    symbols = [np.cos(x[:, 0]), np.sin(x[:, -1]) ** 2 - 0.3]
    rng = np.random.default_rng(17)
    for n in (model.max_level - 2, model.max_level - 1):
        calls.clear()
        level = spectral.build_level(model, n)
        assert calls == binding
        ops = jumps.assemble_noise_operators(level, symbols)
        mark = rng.normal(size=2)
        for block in (random_state(rng, level.dim), random_state(rng, (level.dim, 3))):
            want = oracles.generator(ops, mark) @ block
            got = ops.product(mark)(block)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assembly_rejects_non_finite_symbols(torus_model, bad):
    # a NaN would otherwise read as a zero hermiticity defect and reach the
    # first jump as NaN operators
    level = spectral.build_level(torus_model, 4)
    x = torus_model.grid_points[:, 0]
    broken = np.cos(x)
    broken[7] = bad
    with pytest.raises(ConfigurationError, match="channel 1 "):
        jumps.assemble_noise_operators(level, [np.sin(x), broken])


def test_constant_symbol_is_diagonal(torus_model):
    level = spectral.build_level(torus_model, 4)
    c = 0.7
    ops = jumps.assemble_noise_operators(
        level, [np.full(torus_model.num_grid, c)]
    )
    expected = np.diag(c * level.multipliers**2).astype(complex)
    assert np.max(np.abs(oracles.matrices(ops)[0] - expected)) < 1e-13


def test_bound_ea_via_weighted_similarity(torus_model, cos_ops):
    level = cos_ops.level
    w = np.sqrt(1.0 + torus_model.eigenvalues_A[:level.dim])
    sim = w[:, None] * oracles.matrices(cos_ops)[0] / w[None, :]
    assert oracles.bound_EA(cos_ops) == pytest.approx(np.linalg.norm(sim, 2) ** 2, rel=1e-12)
    assert oracles.bound_EA(cos_ops) >= oracles.bound_H(cos_ops) - 1e-12  # weights stretch


def test_assembly_shape_error(torus_model):
    level = spectral.build_level(torus_model, 4)
    with pytest.raises(ShapeError):
        jumps.assemble_noise_operators(level, np.ones((1, 5)))


# ---------------------------------------------------------------------------
# generator and jump map
# ---------------------------------------------------------------------------

def test_generator_linear_and_bounded(two_channel_ops):
    rng = np.random.default_rng(41)
    root_bh = np.sqrt(oracles.bound_H(two_channel_ops))
    for _ in range(50):
        l1 = rng.uniform(-1, 1, size=2)
        l2 = rng.uniform(-1, 1, size=2)
        a, b = rng.uniform(-2, 2, size=2)
        combo = oracles.generator(two_channel_ops, a * l1 + b * l2)
        parts = a * oracles.generator(two_channel_ops, l1) + b * oracles.generator(
            two_channel_ops, l2
        )
        assert np.max(np.abs(combo - parts)) < 1e-13
        norm = np.linalg.norm(oracles.generator(two_channel_ops, l1), 2)
        assert norm <= np.linalg.norm(l1) * root_bh + 1e-12


def test_jump_map_unitary_and_inverse(two_channel_ops):
    rng = np.random.default_rng(42)
    for _ in range(200):
        mark = rng.uniform(-1, 1, size=2)
        mark *= min(1.0, 1.0 / np.linalg.norm(mark))
        x = random_state(rng, two_channel_ops.dim)
        y = jumps.jump_map(two_channel_ops, mark, x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
        back = jumps.jump_map(two_channel_ops, -mark, y)
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_flow_group_law_in_time(cos_ops):
    rng = np.random.default_rng(43)
    x = random_state(rng, cos_ops.dim)
    mark = np.array([0.6])
    once = jumps.jump_map(cos_ops, mark, x)
    twice = jumps.jump_map(cos_ops, mark, once)
    via_flow = oracles.marcus_flow(cos_ops, 2.0, mark, x)
    assert np.linalg.norm(twice - via_flow) <= 1e-8 * np.linalg.norm(x)


def test_jump_map_matches_ode_flow(two_channel_ops):
    rng = np.random.default_rng(44)
    for _ in range(10):
        mark = rng.uniform(-1, 1, size=2)
        x = random_state(rng, two_channel_ops.dim)
        exact = jumps.jump_map(two_channel_ops, mark, x)
        ode = oracles.marcus_flow(two_channel_ops, 1.0, mark, x)
        assert np.linalg.norm(exact - ode) <= 1e-8 * np.linalg.norm(x)


@pytest.fixture(scope="module", params=list(spectral._DOMAIN_TABLE), ids=kind_id)
def preset_ops(request):
    """Operators of every symbol preset, one channel each, on a level of dim 90-200."""
    kind = request.param
    domain = spectral.Domain(kind, (np.pi,) * spectral._DOMAIN_TABLE[kind].axes)
    max_level = 7 if kind == spectral.TORUS_2D else 12
    model = spectral.build_spectral_model(domain, max_level=max_level)
    symbols = [config.symbol_values(name, model) for name in config.SYMBOL_PRESETS]
    level = spectral.build_level(model, max_level)
    return jumps.assemble_noise_operators(level, symbols)


def scaled_norm(v) -> float:
    """2-norm of ``v`` taken on ``|v| / max|v|``, so tiny entries do not square to 0."""
    magnitudes = np.abs(v)
    peak = np.max(magnitudes)
    return float(peak * np.linalg.norm(magnitudes / peak)) if peak > 0 else 0.0


# order 0 is the jump map, orders 1 and 2 the jump differences: about 30
# examples of each
@settings(max_examples=90, deadline=None)
@given(
    order=st.sampled_from((0, 1, 2)),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    keep=st.lists(st.booleans(), min_size=4, max_size=4),
    # normal magnitudes: on subnormal entries rounding is not relative
    size=st.one_of(st.just(0.0), st.floats(1e-200, 50.0)),
    seed=st.integers(0, 2**32 - 1),
)
# radius 61-77, degree 106-125: above the dimension of every 1-d level here
@example(order=0, direction=[1.0] * 4, keep=[True] * 4, size=50.0, seed=0)
# small marks: the series tail scales with r^order, and below radius 1e-17
# the first remaining Taylor term stands in for the series
@example(order=1, direction=[1.0] * 4, keep=[True] * 4, size=1e-6, seed=0)
@example(order=2, direction=[1.0] * 4, keep=[True] * 4, size=1e-6, seed=0)
@example(order=2, direction=[1.0] * 4, keep=[True] * 4, size=1e-30, seed=0)
# results far below 1e-154, whose plain norms would square to zero
@example(order=2, direction=[1.0] * 4, keep=[True] * 4, size=1e-100, seed=0)
@example(order=1, direction=[1.0] * 4, keep=[True] * 4, size=1e-200, seed=0)
def test_chebyshev_jump_matches_eigh(preset_ops, order, direction, keep, size, seed):
    # the remainder after the Taylor terms scales like min(1, r)^order
    ops = preset_ops
    mark = np.where(keep, direction, 0.0)
    norm = np.linalg.norm(mark)
    mark = mark * (size / norm) if norm > 1e-6 else np.zeros_like(mark)
    x = random_state(np.random.default_rng(seed), ops.dim)
    series = (jumps.jump_map, jumps.jump_difference_1, jumps.jump_difference_2)[order]
    # the series runs on operators whose matrices nothing reads
    fresh = jumps.assemble_noise_operators(ops.level, ops.symbols)
    y = series(fresh, mark, x)
    assert fresh not in oracles._DENSE
    B = oracles.generator(ops, mark)
    r = ops.radius(mark)
    assert r >= np.linalg.norm(B, 2)
    theta, vectors = np.linalg.eigh(B)
    expected = vectors @ (eigenphase_factor(theta, order) * (vectors.conj().T @ x))
    nx = np.linalg.norm(x)
    scale = max(scaled_norm(expected), min(1.0, r) ** order * nx)
    # second differences below |l| ~ 1e-154 are subnormal, where both sides
    # round in absolute units of the smallest subnormal
    floor = ops.dim * np.finfo(float).smallest_subnormal
    assert scaled_norm(y - expected) <= 1e-13 * scale + floor
    if order == 0:
        assert abs(np.linalg.norm(y) - nx) <= 1e-14 * nx


def test_constant_symbols_commute(torus_model):
    level = spectral.build_level(torus_model, 4)
    g = torus_model.num_grid
    ops = jumps.assemble_noise_operators(
        level, [np.full(g, 0.5), np.full(g, -0.25)]
    )
    rng = np.random.default_rng(45)
    x = random_state(rng, ops.dim)
    l1, l2 = np.array([0.8, 0.0]), np.array([0.0, 0.9])
    ab = jumps.jump_map(ops, l1, jumps.jump_map(ops, l2, x))
    ba = jumps.jump_map(ops, l2, jumps.jump_map(ops, l1, x))
    assert np.linalg.norm(ab - ba) <= 1e-12 * np.linalg.norm(x)
    # diagonal generators: composition equals the summed mark exactly
    combined = jumps.jump_map(ops, l1 + l2, x)
    assert np.linalg.norm(ab - combined) <= 1e-12 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# jump differences
# ---------------------------------------------------------------------------

def test_differences_match_direct(two_channel_ops):
    rng = np.random.default_rng(46)
    for _ in range(20):
        mark = rng.uniform(-0.7, 0.7, size=2)
        x = random_state(rng, two_channel_ops.dim)
        jumped = jumps.jump_map(two_channel_ops, mark, x)
        d1 = jumps.jump_difference_1(two_channel_ops, mark, x)
        assert np.linalg.norm(d1 - (jumped - x)) <= 1e-12 * np.linalg.norm(x)
        bx = oracles.generator(two_channel_ops, mark) @ x
        d2 = jumps.jump_difference_2(two_channel_ops, mark, x)
        assert np.linalg.norm(d2 - (jumped - x + 1j * bx)) <= 1e-12 * np.linalg.norm(x)


def test_difference_bounds_hold(two_channel_ops):
    rng = np.random.default_rng(47)
    bound_h = oracles.bound_H(two_channel_ops)
    root_bh = np.sqrt(bound_h)
    for _ in range(200):
        mark = rng.uniform(-1, 1, size=2)
        mark *= rng.uniform(0, 1) / max(np.linalg.norm(mark), 1e-12)
        x = random_state(rng, two_channel_ops.dim)
        r = np.linalg.norm(mark)
        nx = np.linalg.norm(x)
        d1 = np.linalg.norm(jumps.jump_difference_1(two_channel_ops, mark, x))
        d2 = np.linalg.norm(jumps.jump_difference_2(two_channel_ops, mark, x))
        assert d1 <= root_bh * r * nx
        assert d2 <= 0.5 * bound_h * r**2 * nx


def test_second_difference_taylor_limit(cos_ops):
    # ||d2(l, x)|| / |l|^2 -> ||B(l/|l|)^2 x|| / 2 as |l| -> 0
    rng = np.random.default_rng(48)
    x = random_state(rng, cos_ops.dim)
    direction = np.array([1.0])
    B = oracles.generator(cos_ops, direction)
    target = 0.5 * np.linalg.norm(B @ (B @ x))
    r = 1e-4
    d2 = np.linalg.norm(jumps.jump_difference_2(cos_ops, r * direction, x)) / r**2
    assert d2 == pytest.approx(target, rel=1e-3)


def test_ea_growth_bound(torus_model, cos_ops):
    rng = np.random.default_rng(49)
    level = cos_ops.level
    w = 1.0 + torus_model.eigenvalues_A[:level.dim]
    root_bea = np.sqrt(oracles.bound_EA(cos_ops))
    for _ in range(50):
        mark = rng.uniform(-1, 1, size=1)
        x = random_state(rng, cos_ops.dim)
        y = jumps.jump_map(cos_ops, mark, x)
        ea = lambda v: np.sqrt(np.sum(w * np.abs(v) ** 2))
        bound = np.exp(abs(mark[0]) * root_bea) * ea(x)
        assert ea(y) <= bound * (1 + 1e-12)
