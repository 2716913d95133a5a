import itertools

import numpy as np
import numpy.random  # noqa: F401 - see below
import pytest

from jumpnls import spectral
from jumpnls.noise import JumpPath
from jumpnls.solver import simulate, simulate_ensemble

# numpy 2 imports numpy.random on first use.  Tier-1 runs
# perfbench/test_perfbench.py::test_worker_thread_spans_leave_main_self_time
# after collecting these tests; it bounds the self share of a first, cold
# ``cli.main`` call, so numpy.random (with hmac and cython_runtime) is loaded
# here, at collection, as the quadrature imports of the tests once did, and
# stays out of that call.


@pytest.fixture(scope="session")
def torus_model():
    """2*pi torus holding levels up to 8 (plenty for every test here)."""
    return spectral.build_spectral_model(spectral.torus_1d(2 * np.pi), beta=1.0, max_level=8)


@pytest.fixture(scope="session")
def dirichlet_model():
    return spectral.build_spectral_model(spectral.interval_dirichlet(np.pi), beta=1.0, max_level=6)


@pytest.fixture(scope="session")
def neumann_model():
    return spectral.build_spectral_model(spectral.interval_neumann(np.pi), beta=1.0, max_level=6)


@pytest.fixture(scope="session")
def torus2d_model():
    return spectral.build_spectral_model(
        spectral.torus_2d(2 * np.pi, 2 * np.pi), beta=1.0, max_level=5
    )


def kind_id(kind: str) -> str:
    """Test id of a domain kind in CamelCase: ``torus_1d`` -> ``Torus1D``."""
    return kind.title().replace("_", "")


def branch_nodes(problem, config, paths):
    """Each path's branch node off the jump-free path of ``problem`` and ``config``.

    ``simulate_ensemble`` runs reference paths that branch at -1 (a jump at
    0), at each uniform node (a jump halfway to the next) and at the last node
    (no jump), then ``paths``; ties run by index, so a path that branches at
    node b runs after the b + 2 references that branch at b or before.
    """
    nodes = simulate(problem, config, JumpPath(), record_states=False).times
    mark = np.zeros((1, problem.ops.num_channels))
    references = ([JumpPath([0.0], mark)]
                  + [JumpPath([0.5 * (a + b)], mark) for a, b in zip(nodes, nodes[1:])]
                  + [JumpPath()])
    everything = references + list(paths)
    runs = simulate_ensemble(problem, config, len(everything), everything.__getitem__,
                             record_states=False)
    order = [k for k, _ in runs]
    return [sum(i < len(references) for i in order[:order.index(len(references) + p)]) - 2
            for p in range(len(paths))]


def top_level(model):
    """The model's top level, ``max_level``: all of its modes."""
    return spectral.build_level(model, model.max_level)


def random_state(rng, dim, scale=1.0):
    return scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def eigenphase_factor(theta, order):
    """exp(-i theta) minus its Taylor terms below ``order``, without cancellation.

    The first difference is -2 sin(theta/2) (sin(theta/2) + i cos(theta/2)).
    The second is -2 sin^2(theta/2) + i (theta - sin theta), whose imaginary
    part is summed as a series below |theta| = 1.
    """
    half = 0.5 * theta
    if order == 0:
        return np.exp(-1j * theta)
    if order == 1:
        return -2.0 * np.sin(half) * (np.sin(half) + 1j * np.cos(half))
    t2 = theta * theta
    series, term = np.zeros_like(theta), theta * t2 / 6.0
    for k in range(2, 14):
        series += term
        term = term * (-t2 / ((2 * k) * (2 * k + 1)))
    minus_sin = np.where(np.abs(theta) < 1.0, series, theta - np.sin(theta))
    return -2.0 * np.sin(half) ** 2 + 1j * minus_sin


def closed_form_basis(model):
    """Eigenfunctions of the model's modes at its grid nodes, (num_modes, num_grid).

    Dense reference for the model's fast transforms: torus exponentials,
    Dirichlet sines and Neumann cosines, evaluated from their formulas.
    """
    kind = model.domain.kind
    values = np.ones((model.num_modes, model.num_grid), dtype=complex)
    for axis, L in enumerate(model.domain.lengths):
        k = model.wavenumbers[:, axis][:, None]
        x = model.grid_points[:, axis][None, :]
        if kind in (spectral.TORUS_1D, spectral.TORUS_2D):
            values *= np.exp(2j * np.pi * k * x / L) / np.sqrt(L)
        elif kind == spectral.INTERVAL_DIRICHLET:
            values *= np.sqrt(2.0 / L) * np.sin(k * np.pi * x / L)
        else:
            cosine = np.sqrt(2.0 / L) * np.cos(k * np.pi * x / L)
            values *= np.where(k == 0, 1.0 / np.sqrt(L), cosine)
    return values


def brute_force_modulus(times, values, delta):
    """Enumerate every partition with boundaries at recorded times."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    m = len(times)

    def osc(a, b):
        # values active on [times[a], times[b}) are indices a..b-1
        block = values[a:b]
        if len(block) <= 1:
            return 0.0
        diffs = block[:, None, :] - block[None, :, :]
        return float(np.max(np.sqrt(np.sum(np.abs(diffs) ** 2, axis=2))))

    best = np.inf
    interior = range(1, m - 1)
    for r in range(0, m - 1):
        for combo in itertools.combinations(interior, r):
            bounds = [0, *combo, m - 1]
            if any(times[b] - times[a] < delta
                   for a, b in zip(bounds, bounds[1:])):
                continue
            best = min(best, max(osc(a, b) for a, b in zip(bounds, bounds[1:])))
    return best
