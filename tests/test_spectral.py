import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jumpnls import oracles, spectral
from jumpnls.exceptions import ConfigurationError, ShapeError
from jumpnls.verify import L1_GAIN_CASES

from conftest import closed_form_basis, kind_id, random_state, top_level

# Frozen oracle values for the quintic ramp (computed symbolically /
# by high-precision root finding, independent of the implementation):
#   sup_t |t^k ramp^(k)(t)| on the dyadic band, k = 0, 1, 2
SCALED_SUP = (1.0, 2.8506606002928616, 18.776932406820621)
#   sup |ramp^(k)| alone
PROFILE_SUP = (1.0, 1.875, 5.773502691896257)


# ---------------------------------------------------------------------------
# eigenvalue tables
# ---------------------------------------------------------------------------

def test_torus_symbol(torus_model):
    k = torus_model.wavenumbers[:, 0].astype(float)
    assert np.array_equal(torus_model.eigenvalues_A, k**2)
    assert np.array_equal(torus_model.eigenvalues_S, 1.0 + k**2)


def test_dirichlet_eigenvalues(dirichlet_model):
    k = dirichlet_model.wavenumbers[:, 0].astype(float)
    assert np.array_equal(dirichlet_model.eigenvalues_A, k**2)
    # strictly positive companion operator equals the main one here
    assert np.array_equal(dirichlet_model.eigenvalues_S, dirichlet_model.eigenvalues_A)
    assert dirichlet_model.eigenvalues_A[0] == 1.0


def test_dirichlet_fractional_power():
    m = spectral.build_spectral_model(
        spectral.interval_dirichlet(np.pi), beta=0.5, max_level=5
    )
    k = m.wavenumbers[:, 0].astype(float)
    assert np.allclose(m.eigenvalues_A, k, rtol=0, atol=1e-12)


def test_mode_ordering_and_nesting(torus_model):
    lam = torus_model.eigenvalues_S
    assert np.all(np.diff(lam) >= 0)
    lo = spectral.build_level(torus_model, 4)
    hi = spectral.build_level(torus_model, 5)
    # a level is the prefix of the modes below its dyadic bound
    for level in (lo, hi):
        assert level.dim == np.count_nonzero(lam < 2.0 ** (level.n + 1))
    # dyadic blocks: level dims strictly grow on this model
    assert lo.dim < hi.dim


# Per-kind lattice facts, written out independently of the model's table:
# (wavenumber range on an axis with scan bound K, frequency factor per unit
# length, lambda_S - lambda_A, first grid node in cells)
LATTICE = {
    spectral.TORUS_1D: (lambda K: range(-K, K + 1), 2 * math.pi, 1.0, 0.0),
    spectral.TORUS_2D: (lambda K: range(-K, K + 1), 2 * math.pi, 1.0, 0.0),
    spectral.INTERVAL_DIRICHLET: (lambda K: range(1, K + 1), math.pi, 0.0, 0.5),
    spectral.INTERVAL_NEUMANN: (lambda K: range(0, K + 1), math.pi, 1.0, 0.5),
}


@pytest.mark.parametrize("max_level", [0, 3, 6])
@pytest.mark.parametrize("beta", [0.75, 1.5])
@pytest.mark.parametrize("domain", [
    spectral.torus_1d(3.7),
    spectral.torus_2d(5.3, 2.1),
    spectral.interval_dirichlet(4.4),
    spectral.interval_neumann(1.3),
], ids=lambda d: kind_id(d.kind))
def test_mode_table_matches_lattice_oracle(domain, beta, max_level):
    """Brute-force lattice scan: retained wavenumbers, eigenvalues, order, grid nodes."""
    model = spectral.build_spectral_model(domain, beta=beta, max_level=max_level)
    axis_range, factor, shift, node_offset = LATTICE[domain.kind]
    threshold = 2.0 ** (max_level + 1)
    # lambda_A >= (factor |k| / L)^(2 beta) on each axis bounds the scan
    bounds = [int(L / factor * threshold ** (0.5 / beta)) + 1 for L in domain.lengths]
    expected = {}
    for k in itertools.product(*(axis_range(K) for K in bounds)):
        lam_A = sum((factor * kj / L) ** 2 for kj, L in zip(k, domain.lengths)) ** beta
        if shift + lam_A < threshold:
            expected[k] = lam_A
    got = [tuple(int(kj) for kj in k) for k in model.wavenumbers]
    assert len(got) == len(set(got))
    assert set(got) == set(expected)

    lam_A = np.array([expected[k] for k in got])
    assert np.allclose(model.eigenvalues_A, lam_A, rtol=1e-13, atol=0)
    assert np.allclose(model.eigenvalues_S, shift + lam_A, rtol=1e-13, atol=0)
    assert np.all(np.diff(model.eigenvalues_S) >= 0)

    axis_nodes = [L * (np.arange(M) + node_offset) / M
                  for L, M in zip(domain.lengths, model.grid_shape)]
    nodes = np.array(list(itertools.product(*axis_nodes)))
    assert model.grid_points.shape == nodes.shape
    assert np.allclose(model.grid_points, nodes, rtol=1e-15, atol=0)


def test_builder_validation():
    with pytest.raises(ConfigurationError):
        spectral.build_spectral_model(spectral.torus_1d(2 * np.pi), beta=0.0)
    with pytest.raises(ConfigurationError):
        spectral.build_spectral_model(spectral.torus_1d(2 * np.pi), dealias_factor=1)
    with pytest.raises(ConfigurationError):
        spectral.build_spectral_model(spectral.torus_1d(2 * np.pi), max_level=-1)
    with pytest.raises(ConfigurationError):
        spectral.torus_1d(-1.0)
    with pytest.raises(ConfigurationError):
        spectral.Domain(spectral.TORUS_1D, (1.0, 2.0))


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def test_cutoff_branch_values():
    assert spectral.cutoff_multiplier(3, 7.9) == 1.0
    assert spectral.cutoff_multiplier(3, 12.0) == 0.5  # ramp midpoint
    assert spectral.cutoff_multiplier(3, 16.0) == 0.0
    assert spectral.cutoff_multiplier(3, 8.0) == 1.0  # ramp starts at value 1
    with pytest.raises(ValueError):
        spectral.cutoff_multiplier(3, 0.0)
    with pytest.raises(ValueError):
        spectral.cutoff_multiplier(-1, 5.0)


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=0, max_value=12))
def test_cutoff_range_and_branches(lam, n):
    v = spectral.cutoff_multiplier(n, lam)
    assert 0.0 <= v <= 1.0
    if lam < 2.0**n:
        assert v == 1.0
    if lam >= 2.0 ** (n + 1):
        assert v == 0.0


def test_cutoff_monotone():
    lam = np.linspace(0.5, 40.0, 2000)
    v = spectral.cutoff_multiplier(3, lam)
    assert np.all(np.diff(v) <= 1e-15)


def test_profile_derivatives_consistent():
    # finite differences of the ramp match the analytic order-1/2 values
    t = np.linspace(0.8, 2.2, 141)
    h = 1e-6
    d1 = (spectral.transition_profile(t + h) - spectral.transition_profile(t - h)) / (2 * h)
    assert np.max(np.abs(d1 - spectral.transition_profile(t, order=1))) < 1e-7
    h2 = 1e-4  # larger step: second differences amplify rounding by 1/h^2
    d2 = (
        spectral.transition_profile(t + h2)
        - 2 * spectral.transition_profile(t)
        + spectral.transition_profile(t - h2)
    ) / h2**2
    # stencils straddling the seams see the third-derivative jump (C^2 only)
    interior = (np.abs(t - 1.0) > 2 * h2) & (np.abs(t - 2.0) > 2 * h2)
    assert np.max(np.abs(d2 - spectral.transition_profile(t, order=2))[interior]) < 1e-5


def test_profile_c2_at_seams():
    # derivatives vanish at both ends of the ramp: C^2 glue
    for order in (1, 2):
        assert spectral.transition_profile(1.0, order=order) == 0.0
        assert spectral.transition_profile(2.0, order=order) == 0.0
    assert spectral.transition_profile(1.0) == 1.0
    assert spectral.transition_profile(2.0) == 0.0


def test_profile_sup_norms():
    s = np.linspace(1.0, 2.0, 400001)
    for k, expected in enumerate(PROFILE_SUP):
        sampled = np.max(np.abs(spectral.transition_profile(s, order=k)))
        assert sampled == pytest.approx(expected, abs=1e-7)


def test_mihlin_suprema_frozen():
    sups = oracles.mihlin_suprema(5, max_order=2, samples=400001)
    for k in range(3):
        assert sups[k] == pytest.approx(SCALED_SUP[k], abs=1e-7)
        assert sups[k] <= 2.0**k * PROFILE_SUP[k] + 1e-9


def test_mihlin_level_independent():
    base = oracles.mihlin_suprema(0)
    for n in (*range(1, 11), 59, 510):
        assert np.array_equal(oracles.mihlin_suprema(n), base)


def test_mihlin_refuses_overflowing_level():
    # the band top 2**(n+1), squared for the second derivative, must stay finite
    assert np.isfinite(oracles.mihlin_suprema(1022, max_order=1)).all()
    for n, max_order in ((-1, 2), (511, 2), (1023, 1), (1023, 0)):
        with pytest.raises(ValueError, match="level must be in"):
            oracles.mihlin_suprema(n, max_order=max_order)


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_mihlin_refuses_fewer_than_two_samples(samples):
    # an empty or one-point sample does not span the band
    with pytest.raises(ValueError, match="samples"):
        oracles.mihlin_suprema(3, samples=samples)
    assert np.isfinite(oracles.mihlin_suprema(3, samples=2)).all()


# ---------------------------------------------------------------------------
# projections and smoothing
# ---------------------------------------------------------------------------

def test_projection_idempotent_contractive(torus_model):
    rng = np.random.default_rng(7)
    level = spectral.build_level(torus_model, 5)
    u = random_state(rng, torus_model.num_modes)
    pu = spectral.apply_projection(level, u)
    once = spectral.embed(level, pu)
    twice = spectral.embed(level, spectral.apply_projection(level, once))
    assert np.array_equal(once, twice)
    assert np.linalg.norm(pu) <= np.linalg.norm(u) + 1e-14


def test_projection_nesting(torus_model):
    rng = np.random.default_rng(8)
    u = random_state(rng, torus_model.num_modes)
    lo, hi = spectral.build_level(torus_model, 3), spectral.build_level(torus_model, 4)
    via_hi = spectral.apply_projection(
        lo, spectral.embed(hi, spectral.apply_projection(hi, u))
    )
    assert np.array_equal(via_hi, spectral.apply_projection(lo, u))


def test_smoothing_multiplier_placement(torus_model):
    level = spectral.build_level(torus_model, 4)
    lam = torus_model.eigenvalues_S[:level.dim]
    assert np.all(level.multipliers[lam < 2.0**4] == 1.0)
    band = (lam >= 2.0**4) & (lam < 2.0**5)
    assert np.all(level.multipliers[band] < 1.0) and np.all(level.multipliers[band] > 0.0)
    # no zero multipliers: those modes are simply not retained
    assert np.all(level.multipliers > 0.0)


def test_smoothing_contraction_and_convergence(torus_model):
    u = (1.0 + torus_model.eigenvalues_A) ** -3 * np.exp(
        1j * np.arange(torus_model.num_modes)
    )
    top, errs = top_level(torus_model), []
    for n in range(2, torus_model.max_level + 1):
        level = spectral.build_level(torus_model, n)
        su = spectral.embed(level, spectral.apply_smoothing(level, u))
        assert oracles.sobolev_norm(top, su, "H") <= oracles.sobolev_norm(
            top, u, "H"
        ) * (1 + 1e-14)
        errs.append(oracles.sobolev_norm(top, su - u, "E_A"))
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3 * errs[0]


# ---------------------------------------------------------------------------
# transforms and norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_transform_roundtrip(model_name, request):
    model = request.getfixturevalue(model_name)
    rng = np.random.default_rng(11)
    c = random_state(rng, model.num_modes)
    back = model.analyze(model.synthesize(c))
    assert np.max(np.abs(back - c)) <= 1e-12 * np.linalg.norm(c)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(spectral._DOMAIN_TABLE)),
    lengths=st.tuples(st.floats(1.0, 8.0), st.floats(1.0, 4.0)),
    max_level=st.integers(0, 7),
    dealias_factor=st.integers(2, 4),
    batch=st.sampled_from([(), (1,), (3,)]),
    select=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_match_closed_form(
    kind, lengths, max_level, dealias_factor, batch, select, seed
):
    domain = spectral.Domain(kind, lengths[: spectral._DOMAIN_TABLE[kind].axes])
    try:
        model = spectral.build_spectral_model(
            domain, max_level=max_level, dealias_factor=dealias_factor
        )
    except ConfigurationError:  # interval too short to hold a mode at this level
        assume(False)
    def checked(dim):
        return (lambda c: model.synthesize(c, dim),
                lambda v: model.analyze(v, dim))

    _check_transforms_match_closed_form(model, checked, batch, select, seed)
    # the bound pair above the dense crossover, on both sides of the 2-d
    # separable one (fast transforms, separable factors), and below it (dense)
    for max_entries, max_muladds in ((0, 0), (0, 2**62), (2**62, 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "DENSE_PAIR_MAX_ENTRIES", max_entries)
            patch.setattr(spectral, "SEPARABLE_PAIR_MAX_MULADDS", max_muladds)
            _check_transforms_match_closed_form(model, model.transform_pair,
                                                batch, select, seed)


def _check_transforms_match_closed_form(model, transforms, batch, select, seed):
    """``transforms(dim)`` gives ``(to_grid, from_grid)`` for the first ``dim`` modes."""
    rng = np.random.default_rng(seed)
    basis = closed_form_basis(model)
    dim = None
    if select:
        dim = int(rng.integers(1, model.num_modes + 1))
        basis = basis[:dim]
    c = random_state(rng, batch + (len(basis),))
    v = random_state(rng, batch + (model.num_grid,))
    to_grid, from_grid = transforms(dim)

    values = to_grid(c)
    expected = c @ basis
    assert values.shape == expected.shape
    assert np.linalg.norm(values - expected) <= 1e-13 * np.linalg.norm(expected)

    coefficients = from_grid(v)
    expected = v @ (basis.conj() * model.grid_weights).T
    assert coefficients.shape == expected.shape
    assert np.linalg.norm(coefficients - expected) <= 1e-13 * np.linalg.norm(expected)
    # real input still gives complex output
    assert to_grid(c.real).dtype == complex
    assert from_grid(v.real).dtype == complex


def test_mode_scan_refused_beyond_physical_memory(monkeypatch):
    # 2-d torus of side 2 pi, max_level 4: lambda_S = 1 + |k|^2 < 32 is scanned
    # over |k_x|, |k_y| <= floor(sqrt(31)) + 2 = 7, i.e. 15^2 lattice points
    domain = spectral.torus_2d(2 * np.pi, 2 * np.pi)
    needed = spectral.MODE_SCAN_BYTES_PER_POINT * 15**2
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ConfigurationError,
                       match=f"225 lattice points.*about {needed / 2**30:.3g} GiB"):
        spectral.build_spectral_model(domain, max_level=4)
    for available in (needed, None):  # None: the platform cannot tell
        monkeypatch.setattr(spectral, "_physical_memory", lambda: available)
        assert spectral.build_spectral_model(domain, max_level=4).num_modes > 0


def test_quadrature_grid_refused_beyond_physical_memory(monkeypatch):
    # 1-d torus, max_level 4 keeps |k| <= 5; dealias factor 64 gives
    # 64 * 6 = 384 nodes, whose meshgrid axis, stacked points and weights
    # take 3 float64 values each (more than the 15-point mode scan)
    domain = spectral.torus_1d(2 * np.pi)
    needed = 8 * 384 * 3
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ConfigurationError, match="the 384 nodes of the quadrature grid"):
        spectral.build_spectral_model(domain, max_level=4, dealias_factor=64)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert spectral.build_spectral_model(domain, max_level=4, dealias_factor=64).num_grid == 384


@pytest.mark.parametrize("max_level,beta", [(1100, 1.0), (6, 1e-3)])
def test_mode_scan_bound_overflow_is_a_configuration_error(max_level, beta):
    with pytest.raises(ConfigurationError,
                       match=f"max_level = {max_level} with beta = {beta} .*float range"):
        spectral.build_spectral_model(spectral.torus_1d(2 * np.pi), beta=beta,
                                      max_level=max_level)


def test_mode_scan_estimate_beyond_float_range_is_refused(monkeypatch):
    # the scan bound is finite, but its lattice point count times the bytes
    # per point is an integer beyond the float range
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 2**33)
    with pytest.raises(ConfigurationError, match="the inf lattice points.*about inf GiB") as info:
        spectral.build_spectral_model(spectral.torus_2d(1e5, 1e5), max_level=1020)
    # the count is quoted in short form, not as its 317 digits
    assert len(str(info.value)) < 200


def test_transform_pair_binds_a_dense_pair_below_the_limit(monkeypatch):
    model = spectral.build_spectral_model(spectral.torus_1d(2 * np.pi), max_level=6)
    small = spectral.build_level(model, 3)
    large = spectral.build_level(model, 5)
    limit = small.dim * model.num_grid
    assert large.dim * model.num_grid > limit
    monkeypatch.setattr(spectral, "DENSE_PAIR_MAX_ENTRIES", limit)
    calls, transform = [], spectral._transform

    def counting(kind, data, grid_shape, to_grid):
        calls.append(to_grid)
        return transform(kind, data, grid_shape, to_grid)

    monkeypatch.setattr(spectral, "_transform", counting)
    rng = np.random.default_rng(3)

    # below the limit: the pair is synthesized once, when bound
    to_grid, from_grid = model.transform_pair(small.dim)
    assert calls == [True]
    for _ in range(3):
        to_grid(random_state(rng, small.dim))
        from_grid(random_state(rng, (2, model.num_grid)))
    assert calls == [True]
    eye = np.eye(small.dim)
    assert np.array_equal(to_grid(eye), model.synthesize(eye, small.dim))
    # above it, and in synthesize/analyze at any size: one transform per call
    calls.clear()
    to_grid, from_grid = model.transform_pair(large.dim)
    to_grid(random_state(rng, large.dim))
    from_grid(random_state(rng, model.num_grid))
    model.synthesize(random_state(rng, small.dim), small.dim)
    model.analyze(random_state(rng, model.num_grid))
    assert calls == [True, False, True, False]
    # the model keeps nothing beyond its fields
    assert set(vars(model)) == {f.name for f in dataclasses.fields(model)}
    # at the shipped limit a pair takes at most 1 MiB
    monkeypatch.undo()
    assert 2 * 16 * spectral.DENSE_PAIR_MAX_ENTRIES <= 2**20


def assert_batch_rows_alone(to_grid, from_grid, c, v):
    """Each row of a batch, in C or Fortran layout, takes the bits it takes alone."""
    for order in ("C", "F"):
        batch_c, batch_v = np.asarray(c, order=order), np.asarray(v, order=order)
        values, coefficients = to_grid(batch_c), from_grid(batch_v)
        for i in np.ndindex(c.shape[:-1]):
            assert to_grid(c[i]).tobytes() == values[i].tobytes()
            assert from_grid(v[i]).tobytes() == coefficients[i].tobytes()
            assert to_grid(batch_c[i]).tobytes() == values[i].tobytes()
            assert from_grid(batch_v[i]).tobytes() == coefficients[i].tobytes()
        assert to_grid(c[1]).tobytes() == values[1].tobytes()
        assert from_grid(v[1]).tobytes() == coefficients[1].tobytes()


def test_transform_pair_binds_separable_factors_on_the_2d_torus(monkeypatch):
    # 32 x 32 grid; level 6 (dim 401) occupies 23 spectrum rows and columns,
    # so a synthesis takes 23 * 32 * (23 + 32) multiply-adds
    model = spectral.build_spectral_model(spectral.torus_2d(2 * np.pi, 2 * np.pi),
                                          max_level=7)
    level = spectral.build_level(model, 6)
    assert model.grid_shape == (32, 32)
    assert level.dim * model.num_grid > spectral.DENSE_PAIR_MAX_ENTRIES
    muladds = 23 * 32 * (23 + 32)
    assert muladds <= spectral.SEPARABLE_PAIR_MAX_MULADDS
    calls, transform = [], spectral._transform

    def counting(kind, data, grid_shape, to_grid):
        calls.append(kind)
        return transform(kind, data, grid_shape, to_grid)

    monkeypatch.setattr(spectral, "_transform", counting)
    monkeypatch.setattr(spectral, "SEPARABLE_PAIR_MAX_MULADDS", muladds)
    rng = np.random.default_rng(5)
    c = random_state(rng, (2, 3, level.dim))
    v = random_state(rng, (2, 3, model.num_grid))

    # at the crossover: the 1-d factors are transformed once, when bound
    to_grid, from_grid = model.transform_pair(level.dim)
    assert calls == [spectral.TORUS_1D] * 4
    assert_batch_rows_alone(to_grid, from_grid, c, v)
    assert calls == [spectral.TORUS_1D] * 4
    # one multiply-add above it: fft2 on every call
    calls.clear()
    monkeypatch.setattr(spectral, "SEPARABLE_PAIR_MAX_MULADDS", muladds - 1)
    to_grid, from_grid = model.transform_pair(level.dim)
    to_grid(c[0, 0])
    from_grid(v[0, 0])
    assert calls == [spectral.TORUS_2D] * 2


@pytest.mark.parametrize("max_entries", [0, 2**62], ids=["fast", "dense"])
@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_dense_and_fast_pairs_give_each_batch_row_its_own_bits(model_name, max_entries,
                                                              request, monkeypatch):
    # numpy sends one row to BLAS gemv and several to gemm, which round
    # differently; the dense pair multiplies a batch row by row
    model = request.getfixturevalue(model_name)
    monkeypatch.setattr(spectral, "DENSE_PAIR_MAX_ENTRIES", max_entries)
    monkeypatch.setattr(spectral, "SEPARABLE_PAIR_MAX_MULADDS", 0)
    rng = np.random.default_rng(21)
    for n in (1, model.max_level - 1):
        level = spectral.build_level(model, n)
        assert_batch_rows_alone(level.to_grid, level.from_grid,
                                random_state(rng, (2, 3, level.dim)),
                                random_state(rng, (2, 3, model.num_grid)))


@pytest.mark.parametrize("max_entries", [0, 2**62], ids=["fast", "dense"])
@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_synthesize_analyze_equal_transform_pair(model_name, max_entries, request,
                                                 monkeypatch):
    # the fast pair runs the same transforms as synthesize/analyze, bit for
    # bit; the dense and the separable 2-d pair's products round differently
    model = request.getfixturevalue(model_name)
    monkeypatch.setattr(spectral, "DENSE_PAIR_MAX_ENTRIES", max_entries)
    level = spectral.build_level(model, model.max_level - 1)
    rng = np.random.default_rng(13)
    separable = max_entries == 0 and model.domain.kind == spectral.TORUS_2D

    def agree(expected, got, exact):
        if exact:
            return np.array_equal(expected, got)
        return np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    # on the 2-d torus the fast side is the separable pair, then fft2 with
    # the separable crossover at 0
    for fft2 in ((False, True) if separable else (False,)):
        if fft2:
            monkeypatch.setattr(spectral, "SEPARABLE_PAIR_MAX_MULADDS", 0)
        exact = max_entries == 0 and (fft2 or not separable)
        for dim in (None, level.dim):
            to_grid, from_grid = model.transform_pair(dim)
            c = random_state(rng, (2, model.num_modes if dim is None else dim))
            v = random_state(rng, (2, model.num_grid))
            assert agree(model.synthesize(c, dim), to_grid(c), exact)
            assert agree(model.analyze(v, dim), from_grid(v), exact)
            assert agree(model.synthesize(c[0], dim), to_grid(c[0]), exact)
            assert agree(model.analyze(v[0], dim), from_grid(v[0]), exact)


@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_a_mode_count_synthesizes_its_zero_padded_table(model_name, request):
    # the first dim modes are the table with the rest set to zero, bit for bit;
    # analysis keeps the first dim coefficients of the full analysis
    model = request.getfixturevalue(model_name)
    rng = np.random.default_rng(17)
    v = random_state(rng, (2, model.num_grid))
    for n in range(model.max_level + 1):
        dim = spectral.build_level(model, n).dim
        c = random_state(rng, (2, dim))
        padded = np.pad(c, ((0, 0), (0, model.num_modes - dim)))
        assert model.synthesize(c, dim).tobytes() == model.synthesize(padded).tobytes()
        assert model.synthesize(c[0], dim).tobytes() == model.synthesize(padded[0]).tobytes()
        assert model.analyze(v, dim).tobytes() == model.analyze(v)[:, :dim].tobytes()
    with pytest.raises(ShapeError):
        model.synthesize(c, dim + 1)
    with pytest.raises(ShapeError):
        model.analyze(v, model.num_modes + 1)


def test_parseval(torus_model):
    rng = np.random.default_rng(12)
    c = random_state(rng, torus_model.num_modes)
    top = top_level(torus_model)
    l2 = oracles.sobolev_norm(top, c, "Lp", p=2)
    h = oracles.sobolev_norm(top, c, "H")
    assert abs(l2 - h) <= 1e-10 * h


def test_norm_values_frozen(dirichlet_model, torus_model):
    # first Dirichlet mode on (0, pi): unit mass, energy weight 1 + 1
    e1 = np.zeros(dirichlet_model.num_modes, dtype=complex)
    e1[0] = 1.0
    dirichlet = top_level(dirichlet_model)
    assert oracles.sobolev_norm(dirichlet, e1, "H") == pytest.approx(1.0, abs=1e-14)
    assert oracles.sobolev_norm(dirichlet, e1, "E_A") ** 2 == pytest.approx(
        2.0, abs=1e-12
    )
    assert oracles.sobolev_norm(dirichlet, e1, "E_A_dual") ** 2 == pytest.approx(
        0.5, abs=1e-12
    )
    # constant 1 on the torus: L4 norm is (2 pi)^(1/4)
    const = np.zeros(torus_model.num_modes, dtype=complex)
    zero_mode = int(np.nonzero(torus_model.wavenumbers[:, 0] == 0)[0][0])
    const[zero_mode] = math.sqrt(2 * math.pi)
    assert oracles.sobolev_norm(top_level(torus_model), const, "Lp", p=4) == pytest.approx(
        (2 * math.pi) ** 0.25, rel=1e-12
    )


@pytest.mark.parametrize(
    "model_name", ["torus_model", "dirichlet_model", "neumann_model", "torus2d_model"]
)
def test_level_norms_match_sobolev_norm_and_keep_the_scale_of_tiny_data(model_name,
                                                                       request):
    # a level's E_A and E_A* norms are sobolev_norm's on its modes; where the
    # weighted sum of squares underflows they are taken over the largest
    # modulus, so data scaled by 1e-300 keep 1e-300 times their norms
    model = request.getfixturevalue(model_name)
    rng = np.random.default_rng(23)
    for n in range(model.max_level + 1):
        level = spectral.build_level(model, n)
        x = random_state(rng, level.dim)
        for norm, space in ((level.ea_norm, "E_A"), (level.dual_norm, "E_A_dual")):
            want = oracles.sobolev_norm(level, x, space)
            assert norm(x) == pytest.approx(want, rel=1e-14, abs=0.0)
            assert norm(1e-300 * x) == pytest.approx(1e-300 * want, rel=1e-14, abs=0.0)
            assert norm(np.zeros(level.dim)) == 0.0


def test_norm_errors(torus_model):
    c, top = np.zeros(torus_model.num_modes, dtype=complex), top_level(torus_model)
    with pytest.raises(ValueError):
        oracles.sobolev_norm(top, c, "bogus")
    with pytest.raises(ValueError):
        oracles.sobolev_norm(top, c, "Lp")  # missing p
    with pytest.raises(ShapeError):
        oracles.sobolev_norm(top, c[:-1], "H")
    with pytest.raises(ShapeError):
        torus_model.synthesize(c[:-1])
    with pytest.raises(ShapeError):
        torus_model.analyze(np.zeros(torus_model.num_grid - 1))
    with pytest.raises(ShapeError):
        torus_model.synthesize(np.zeros((2, torus_model.num_modes + 1)))
    with pytest.raises(ShapeError):
        torus_model.analyze(np.zeros((2, torus_model.num_grid + 1)))


# ---------------------------------------------------------------------------
# the smoothed truncation against the sharp projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(L1_GAIN_CASES), ids=kind_id)
def test_smoothing_keeps_the_l1_gain_that_the_projection_outgrows(kind):
    # the reason for S_n beside P_n: on a grid delta its L^1 gain stays under
    # one constant as the level grows, while P_n's grows with its Lebesgue
    # constant (and in 2-d the ball multiplier is unbounded on L^p, p != 2)
    length, levels, bound = L1_GAIN_CASES[kind]
    domain = spectral.Domain(kind, (length,) * spectral._DOMAIN_TABLE[kind].axes)
    # one level above the sweep: at max_level itself P_n is the identity
    model = spectral.build_spectral_model(domain, max_level=levels[-1] + 1)
    smoothed, sharp = [], []
    for n in levels:
        level = spectral.build_level(model, n)
        smoothed.append(oracles.l1_delta_gain(level, level.multipliers))
        sharp.append(oracles.l1_delta_gain(level, np.ones(level.dim)))
    assert max(smoothed) < bound < sharp[-1], (smoothed, sharp)
