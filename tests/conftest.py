import numpy as np
import pytest

from jumpnls import spectral


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


def random_state(rng, dim, scale=1.0):
    return scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


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
