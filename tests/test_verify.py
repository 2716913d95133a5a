"""Self-check battery: green on healthy code, red under injected faults."""

import dataclasses

import numpy as np
import pytest

from jumpnls import verify
from jumpnls.exceptions import ConfigurationError


def test_all_checks_pass():
    results = verify.run_checks()
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    assert len(results) == len(verify.check_names()) >= 25


def test_check_names_are_unique_and_stable():
    names = verify.check_names()
    assert len(names) == len(set(names))
    for expected in ("quadrature_orthonormality", "jump_unitarity",
                     "midpoint_mass", "config_roundtrip"):
        assert expected in names


def test_subset_selection():
    results = verify.run_checks(names=["seed_streams", "cutoff_branches"])
    assert [r.name for r in results] == ["seed_streams", "cutoff_branches"]
    with pytest.raises(ConfigurationError):
        verify.run_checks(names=["no_such_check"])
    # a selection that comes out empty must not pass as "0/0 checks passed"
    with pytest.raises(ConfigurationError, match="no checks selected"):
        verify.run_checks(names=[])


def test_tol_scale_validation():
    with pytest.raises(ConfigurationError):
        verify.run_checks(tol_scale=0.0)
    with pytest.raises(ConfigurationError):
        verify.run_checks(tol_scale=-2.0)
    # an infinite tolerance would pass every check vacuously
    for value in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            verify.run_checks(tol_scale=value)


def test_generous_tol_scale_still_passes():
    results = verify.run_checks(tol_scale=100.0)
    assert all(r.passed for r in results)


def test_tightened_tolerances_expose_margins():
    # far below machine margins at least one bound must give way, and the
    # runner reports that as data rather than raising
    results = verify.run_checks(tol_scale=1e-8)
    assert any(not r.passed for r in results)


def test_fault_injection_unitarity(monkeypatch):
    import jumpnls.jumps as jumps_mod

    real = jumps_mod.jump_map

    def lossy(ops, mark, state):
        return 0.5 * real(ops, mark, state)

    monkeypatch.setattr(jumps_mod, "jump_map", lossy)
    results = {r.name: r for r in verify.run_checks(names=["jump_unitarity"])}
    assert not results["jump_unitarity"].passed


def test_fault_injection_cutoff(monkeypatch):
    import jumpnls.spectral as spectral_mod

    monkeypatch.setattr(
        spectral_mod, "cutoff_multiplier",
        lambda n, lam: np.ones_like(np.asarray(lam, dtype=float)),
    )
    # every multiplier 1 makes S_n the projection P_n, whose L^1 gain outgrows the bound
    results = {r.name: r for r in verify.run_checks(names=["cutoff_branches",
                                                           "smoothing_l1_gain"])}
    assert not results["cutoff_branches"].passed
    assert not results["smoothing_l1_gain"].passed


def test_exceptions_reported_as_failures(monkeypatch):
    import jumpnls.noise as noise_mod

    def boom(measure):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(noise_mod.AtomicMeasure, "moments", boom)
    results = {r.name: r for r in verify.run_checks(names=["atomic_moments"])}
    assert not results["atomic_moments"].passed
    assert "synthetic fault" in results["atomic_moments"].detail


def test_fault_injection_chebyshev(monkeypatch):
    import jumpnls.jumps as jumps_mod

    real = jumps_mod._chebyshev_coefficients

    def conjugated(r, order=0):  # the series of exp(+i r x): the inverse jump
        return [c.conjugate() for c in real(r, order)]

    monkeypatch.setattr(jumps_mod, "_chebyshev_coefficients", conjugated)
    results = {r.name: r for r in verify.run_checks(names=["chebyshev_jump"])}
    assert not results["chebyshev_jump"].passed


def test_level_nesting_fails_on_a_table_out_of_lambda_S_order(monkeypatch):
    # levels are prefixes only because the table is sorted by lambda_S; two
    # rows of different lambda_S swapped break that, and the check must see it
    import jumpnls.spectral as spectral_mod

    real = spectral_mod.build_spectral_model

    def swapped(*args, **kwargs):
        model = real(*args, **kwargs)
        order = np.arange(model.num_modes)
        order[[0, 1]] = order[[1, 0]]
        assert model.eigenvalues_S[0] != model.eigenvalues_S[1]
        return dataclasses.replace(model, **{
            name: getattr(model, name)[order]
            for name in ("wavenumbers", "eigenvalues_A", "eigenvalues_S",
                         "ea_weights", "positions")})

    results = {r.name: r for r in verify.run_checks(names=["level_nesting"])}
    assert results["level_nesting"].passed
    monkeypatch.setattr(spectral_mod, "build_spectral_model", swapped)
    results = {r.name: r for r in verify.run_checks(names=["level_nesting"])}
    assert not results["level_nesting"].passed
    assert "lambda_S nondecreasing: False" in results["level_nesting"].detail
