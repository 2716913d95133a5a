"""Jump operators on a Galerkin level and the unitary maps they generate.

Each noise channel m has a real-valued symbol e_m(x); its action on the level
is the smoothed, truncated multiplication operator

    M_m = (cutoff) * <h_j, e_m h_k> * (cutoff)

assembled by grid quadrature, so every M_m is Hermitian.  A mark l in R^N
combines the channels into the Hermitian generator B(l) = sum_m l_m M_m, and a
jump acts through the time-1 unitary flow of ``du/dt = -i B(l) u`` —
evaluated exactly as ``exp(-i B(l))`` via eigendecomposition.  That
eigendecomposition is reused through a warmable per-mark cache.

The level constants ``bound_H`` and ``bound_EA`` (computed on first read) and
``estimate_lp_bound`` (an empirical estimate, computed on request) are the
sums of squared operator norms of the M_m in the respective spaces; the first
two give the elementary inequalities

    ||B(l)||        <= |l| sqrt(bound_H)
    ||e^{-iB(l)}x - x||           <= sqrt(bound_H) |l| ||x||
    ||e^{-iB(l)}x - x + iB(l)x||  <= bound_H |l|^2 ||x|| / 2
    ||e^{-itB(l)}||_{E_A}         <= exp(|t| |l| sqrt(bound_EA))

by Cauchy-Schwarz in l and spectral calculus.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .exceptions import NumericsError, ShapeError
from .spectral import GalerkinLevel, SpectralModel, _max_lp_ratio

#: assembled matrices farther than this from Hermitian are rejected
HERMITICITY_TOLERANCE = 1e-10


@dataclasses.dataclass
class NoiseOperators:
    """Assembled jump generators for one Galerkin level.

    ``matrices[m]`` is the Hermitian matrix of channel m on the level basis.
    ``hermiticity_defect`` records the largest entry deviation removed by
    symmetrization at assembly.  ``energy_weights`` are ``sqrt(1 + lambda_A)``
    on the level's modes.
    """

    level: GalerkinLevel
    matrices: np.ndarray           # (N, dim, dim) complex Hermitian
    energy_weights: np.ndarray     # (dim,)
    hermiticity_defect: float
    _eig_cache: dict = dataclasses.field(default_factory=dict, repr=False)

    @functools.cached_property
    def bound_H(self) -> float:
        """Sum over channels of the squared spectral norms ``||M_m||^2``."""
        return float(sum(np.linalg.norm(M, 2) ** 2 for M in self.matrices))

    @functools.cached_property
    def bound_EA(self) -> float:
        """Sum over channels of the squared operator norms of M_m on the energy space."""
        w = self.energy_weights
        return float(sum(
            np.linalg.norm(w[:, None] * M / w[None, :], 2) ** 2 for M in self.matrices
        ))

    @property
    def num_channels(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def warm_cache(self, marks) -> None:
        """Precompute eigendecompositions for the given marks (e.g. all atoms)."""
        for mark in np.atleast_2d(np.asarray(marks, dtype=float)):
            self._eig_cache[mark.tobytes()] = self._eig_for(mark)

    def _eig_for(self, mark: np.ndarray):
        cached = self._eig_cache.get(mark.tobytes())
        if cached is not None:
            return cached
        return np.linalg.eigh(generator(self, mark))


def assemble_noise_operators(
    model: SpectralModel,
    level: GalerkinLevel,
    symbols,
) -> NoiseOperators:
    """Quadrature assembly of the smoothed multiplication operators.

    ``symbols`` is an (N, num_grid) array (or list of grid samples) of
    real-valued multiplier functions.  Column j of channel m is the smoothed
    mode ``s_j h_j`` synthesized to the grid, multiplied by the symbol,
    analyzed back and scaled by the cutoff again, all through the model's
    transforms.
    """
    symbols = np.atleast_2d(np.asarray(symbols, dtype=float))
    if symbols.ndim != 2 or symbols.shape[1] != model.num_grid:
        raise ShapeError(
            f"symbols must be (N, {model.num_grid}) grid samples, got {symbols.shape}"
        )
    smoother = level.multipliers
    smoothed_modes = model.synthesize(np.diag(smoother), indices=level.indices)

    matrices = np.empty((symbols.shape[0], level.dim, level.dim), dtype=complex)
    defect = 0.0
    for m, symbol in enumerate(symbols):
        # row j holds column j of the operator
        rows = model.analyze(symbol * smoothed_modes, indices=level.indices)
        raw = smoother[:, None] * rows.T
        defect = max(defect, float(np.max(np.abs(raw - raw.conj().T))))
        matrices[m] = 0.5 * (raw + raw.conj().T)
    if defect > HERMITICITY_TOLERANCE:
        raise NumericsError(
            f"assembled operator deviates from Hermitian by {defect:.3e} "
            f"(tolerance {HERMITICITY_TOLERANCE:.1e})"
        )

    return NoiseOperators(
        level=level,
        matrices=matrices,
        energy_weights=np.sqrt(1.0 + model.eigenvalues_A[level.indices]),
        hermiticity_defect=defect,
    )


def estimate_lp_bound(
    model: SpectralModel,
    ops: NoiseOperators,
    p: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical L^p analogue of ``bound_H``: the sum of squared L^p -> L^p norms.

    Each channel's norm is maximised over 32 complex Gaussian probes drawn
    from ``rng``, the level's unit vectors and the all-ones vector.  A
    diagnostic estimate, not a certified bound.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    ones = np.ones(ops.dim, dtype=complex)
    total = 0.0
    for M in ops.matrices:
        est = _max_lp_ratio(model, lambda u: M @ u, p, rng, 32, extra=[ones],
                            indices=ops.level.indices)
        total += est**2
    return total


def generator(ops: NoiseOperators, mark) -> np.ndarray:
    """Hermitian generator B(l) = sum_m l_m M_m for a mark l in R^N."""
    mark = np.asarray(mark, dtype=float).reshape(-1)
    if mark.shape != (ops.num_channels,):
        raise ShapeError(
            f"mark must have {ops.num_channels} components, got {mark.shape}"
        )
    return np.tensordot(mark, ops.matrices, axes=1)


def _apply_spectral(ops: NoiseOperators, mark, factor, state) -> np.ndarray:
    """V diag(factor(theta)) V^H state, where B(l) = V diag(theta) V^H."""
    theta, vectors = ops._eig_for(np.asarray(mark, dtype=float).reshape(-1))
    state = np.asarray(state, dtype=complex)
    return vectors @ (factor(theta) * (vectors.conj().T @ state))


def jump_map(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """Unitary jump: exp(-i B(l)) applied through the eigendecomposition."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (ops.dim,):
        raise ShapeError(f"state must have length {ops.dim}, got {state.shape}")
    return _apply_spectral(ops, mark, lambda theta: np.exp(-1j * theta), state)


def marcus_flow(
    ops: NoiseOperators,
    duration: float,
    mark,
    state: np.ndarray,
    ode_tol: float = 1e-10,
) -> np.ndarray:
    """Integrate du/dt = -i B(l) u for the given duration with an ODE solver.

    Cross-validation oracle for :func:`jump_map` (which is the exact
    ``duration = 1`` flow); kept independent of the eigendecomposition path.
    """
    from scipy.integrate import solve_ivp

    state = np.asarray(state, dtype=complex)
    matrix = generator(ops, mark)

    def rhs(_t, y):
        return -1j * (matrix @ y)

    sol = solve_ivp(
        rhs,
        (0.0, float(duration)),
        state,
        method="DOP853",
        rtol=ode_tol,
        atol=ode_tol,
    )
    if not sol.success:
        raise NumericsError(f"flow integration failed: {sol.message}")
    return sol.y[:, -1]


def _theta_minus_sin(theta: np.ndarray) -> np.ndarray:
    """theta - sin(theta), evaluated stably near zero (series below 1e-3)."""
    small = np.abs(theta) < 1e-3
    t2 = theta * theta
    series = theta * t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0))
    return np.where(small, series, theta - np.sin(theta))


def _difference_2_factor(theta: np.ndarray) -> np.ndarray:
    """Eigenphase factor of exp(-iB)x - x + iBx: (cos theta - 1) + i (theta - sin theta).

    The real part is taken as -2 sin^2(theta/2) and the imaginary part
    through the small-angle series, so the modulus stays below theta^2 / 2
    without cancellation error.
    """
    return -2.0 * np.sin(0.5 * theta) ** 2 + 1j * _theta_minus_sin(theta)


def jump_difference_1(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """First jump difference exp(-iB(l))x - x via eigenphase factors.

    The spectral factor e^{-i theta} - 1 is evaluated as
    -2 sin(theta/2) (sin(theta/2) + i cos(theta/2)); its modulus
    2 |sin(theta/2)| never exceeds |theta|, so the operator bound
    sqrt(bound_H) |l| ||x|| is respected without cancellation error.
    """
    def factor(theta):
        half = 0.5 * theta
        return -2.0 * np.sin(half) * (np.sin(half) + 1j * np.cos(half))

    return _apply_spectral(ops, mark, factor, state)


def jump_difference_2(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """Second jump difference exp(-iB(l))x - x + iB(l)x, stable near zero."""
    return _apply_spectral(ops, mark, _difference_2_factor, state)


def difference_2_matrix(ops: NoiseOperators, marks, weights) -> np.ndarray:
    """Matrix of x -> sum_a w_a (exp(-iB(l_a))x - x + iB(l_a)x) over atoms (l_a, w_a).

    Each atom adds V diag(w f(theta)) V^H from its eigendecomposition, with
    the factor f of :func:`jump_difference_2`; this is the exact compensator
    of an atomic measure's small jumps.
    """
    total = np.zeros((ops.dim, ops.dim), dtype=complex)
    for weight, mark in zip(weights, np.atleast_2d(np.asarray(marks, dtype=float))):
        theta, vectors = ops._eig_for(mark)
        total += (vectors * (weight * _difference_2_factor(theta))) @ vectors.conj().T
    return total
