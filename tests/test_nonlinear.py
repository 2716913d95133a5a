import math

import numpy as np
import pytest

from jumpnls import nonlinear, spectral
from jumpnls.exceptions import ConfigurationError

from conftest import random_state, top_level


@pytest.fixture(scope="module")
def cubic_exact_model():
    """Oversampled torus model: quadrature exact for cubic mode products."""
    return spectral.build_spectral_model(
        spectral.torus_1d(2 * np.pi), beta=1.0, max_level=4, dealias_factor=4
    )


def convolution_cubic(model, sign, coeffs):
    """Independent oracle for alpha = 3 on the torus: triple convolution.

    With basis e^{ikx} / sqrt(2 pi), the coefficient of |u|^2 u at wavenumber
    k is sum over a + b - d = k of c_a c_b conj(c_d) / (2 pi).
    """
    ks = model.wavenumbers[:, 0]
    pos = {int(k): i for i, k in enumerate(ks)}
    out = np.zeros(model.num_modes, dtype=complex)
    for ia, ka in enumerate(ks):
        for ib, kb in enumerate(ks):
            for id_, kd in enumerate(ks):
                k = int(ka + kb - kd)
                if k in pos:
                    out[pos[k]] += coeffs[ia] * coeffs[ib] * np.conj(coeffs[id_])
    return sign * out / (2 * np.pi)


def test_cubic_matches_convolution_oracle(cubic_exact_model):
    rng = np.random.default_rng(21)
    model = cubic_exact_model
    u = random_state(rng, model.num_modes, scale=0.7)
    got = nonlinear.eval_F(top_level(model), nonlinear.defocusing(3.0), u)
    want = convolution_cubic(model, +1, u)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    got_f = nonlinear.eval_F(top_level(model), nonlinear.focusing(3.0), u)
    assert np.max(np.abs(got_f + want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_single_mode_frozen(torus_model):
    # u = c h_1 with h_1 = e^{ix}/sqrt(2 pi):  F(u) = |c|^2 c / (2 pi) h_1
    c = 0.8 - 0.3j
    u = np.zeros(torus_model.num_modes, dtype=complex)
    m1 = int(np.nonzero(torus_model.wavenumbers[:, 0] == 1)[0][0])
    u[m1] = c
    coeffs = nonlinear.eval_F(top_level(torus_model), nonlinear.defocusing(3.0), u)
    expected = abs(c) ** 2 * c / (2 * np.pi)
    assert abs(coeffs[m1] - expected) < 1e-14
    others = np.delete(coeffs, m1)
    assert np.max(np.abs(others)) < 1e-14


def test_fhat_frozen_values(dirichlet_model, torus_model):
    # first Dirichlet mode on (0, pi), alpha = 3: integral of h_1^4 is 3/(2 pi)
    e1 = np.zeros(dirichlet_model.num_modes, dtype=complex)
    e1[0] = 1.0
    dirichlet = top_level(dirichlet_model)
    val = nonlinear.eval_Fhat(dirichlet, nonlinear.defocusing(3.0), e1)
    assert val == pytest.approx(3.0 / (8 * math.pi), rel=1e-12)
    neg = nonlinear.eval_Fhat(dirichlet, nonlinear.focusing(3.0), e1)
    assert neg == pytest.approx(-3.0 / (8 * math.pi), rel=1e-12)
    # constant 1 on the 2 pi torus: Fhat = (1/4) * 2 pi
    const = np.zeros(torus_model.num_modes, dtype=complex)
    zero_mode = int(np.nonzero(torus_model.wavenumbers[:, 0] == 0)[0][0])
    const[zero_mode] = math.sqrt(2 * math.pi)
    val = nonlinear.eval_Fhat(top_level(torus_model), nonlinear.defocusing(3.0), const)
    assert val == pytest.approx(2 * math.pi / 4, rel=1e-12)


def test_zero_and_homogeneity(torus_model):
    top = top_level(torus_model)
    nl = nonlinear.defocusing(2.5)
    zero = np.zeros(torus_model.num_modes, dtype=complex)
    assert np.all(nonlinear.eval_F(top, nl, zero) == 0)
    rng = np.random.default_rng(22)
    u = random_state(rng, torus_model.num_modes)
    f1 = nonlinear.eval_F(top, nl, u)
    f2 = nonlinear.eval_F(top, nl, 2.0 * u)
    assert np.allclose(f2, 2.0**nl.alpha * f1, rtol=1e-12, atol=1e-13)


def test_gauge_invariance(torus_model):
    top = top_level(torus_model)
    rng = np.random.default_rng(23)
    nl = nonlinear.focusing(3.0)
    u = random_state(rng, torus_model.num_modes)
    for theta in (0.3, 1.7, -2.2):
        rotated = nonlinear.eval_F(top, nl, np.exp(1j * theta) * u)
        assert np.allclose(
            rotated, np.exp(1j * theta) * nonlinear.eval_F(top, nl, u),
            rtol=1e-12, atol=1e-14,
        )
        # Fhat is gauge invariant
        assert nonlinear.eval_Fhat(top, nl, np.exp(1j * theta) * u) == (
            pytest.approx(nonlinear.eval_Fhat(top, nl, u), rel=1e-12)
        )


def test_pairing_orthogonality(torus_model):
    # Re <i u, F(u)> = 0: the quadrature pairing is a real sum by construction
    top = top_level(torus_model)
    rng = np.random.default_rng(24)
    for _ in range(25):
        u = random_state(rng, torus_model.num_modes)
        f = nonlinear.eval_F(top, nonlinear.defocusing(3.0), u)
        pairing = np.vdot(1j * u, f).real
        scale = np.linalg.norm(u) * max(np.linalg.norm(f), 1.0)
        assert abs(pairing) <= 1e-13 * scale


def test_local_lipschitz_ratio(torus_model):
    top = top_level(torus_model)
    rng = np.random.default_rng(25)
    nl = nonlinear.defocusing(3.0)
    for _ in range(25):
        u = random_state(rng, torus_model.num_modes, scale=0.5)
        v = u + random_state(rng, torus_model.num_modes, scale=0.05)
        gu = torus_model.synthesize(u)
        gv = torus_model.synthesize(v)
        radius = max(np.max(np.abs(gu)), np.max(np.abs(gv)))
        fu = nonlinear.eval_F(top, nl, u)
        fv = nonlinear.eval_F(top, nl, v)
        lhs = np.linalg.norm(fu - fv)
        rhs = nl.alpha * radius ** (nl.alpha - 1.0) * np.linalg.norm(u - v)
        assert lhs <= rhs * (1 + 1e-12)


def test_antiderivative_directional_derivative(torus_model):
    # (Fhat(u + h v) - Fhat(u)) / h -> Re <F(u), v> at first order in h
    top = top_level(torus_model)
    rng = np.random.default_rng(26)
    nl = nonlinear.defocusing(3.0)
    for _ in range(3):
        u = random_state(rng, torus_model.num_modes, scale=0.6)
        v = random_state(rng, torus_model.num_modes, scale=0.6)
        pairing = np.vdot(nonlinear.eval_F(top, nl, u), v).real
        hs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        base = nonlinear.eval_Fhat(top, nl, u)
        for h in hs:
            fd = (nonlinear.eval_Fhat(top, nl, u + h * v) - base) / h
            errs.append(abs(fd - pairing))
        slope = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
        assert slope >= 0.9


def test_exponent_windows():
    nonlinear.validate_exponent(nonlinear.focusing(3.0), dimension=1)
    with pytest.raises(ConfigurationError):
        nonlinear.validate_exponent(nonlinear.focusing(3.0), dimension=2)  # 3 >= 1 + 4/2
    # defocusing in d <= 2: unbounded window
    nonlinear.validate_exponent(nonlinear.defocusing(7.0), dimension=2)
    assert nonlinear.admissible_alpha_cap(nonlinear.DEFOCUSING, 1) == math.inf
    assert nonlinear.admissible_alpha_cap(nonlinear.FOCUSING, 1) == 5.0
    assert nonlinear.admissible_alpha_cap(nonlinear.FOCUSING, 2) == 3.0
    # fractional power shrinks the windows
    assert nonlinear.admissible_alpha_cap(nonlinear.FOCUSING, 1, beta=0.5) == 3.0
    with pytest.raises(ConfigurationError):
        nonlinear.validate_exponent(nonlinear.focusing(3.0), dimension=1, beta=0.5)
    nonlinear.validate_exponent(nonlinear.focusing(2.9), dimension=1, beta=0.5)


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        nonlinear.defocusing(1.0)
    with pytest.raises(ConfigurationError, match="defocusing or focusing"):
        nonlinear.Nonlinearity(kind="sublinear", alpha=2.0)
    assert nonlinear.defocusing(2.0).sign == nonlinear.DEFOCUSING
    assert nonlinear.Nonlinearity("focusing", 2.0).sign == nonlinear.FOCUSING
