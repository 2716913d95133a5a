"""Jump operators on a Galerkin level and the unitary maps they generate.

Each noise channel m has a real-valued symbol e_m(x); its action on the level
is the smoothed, truncated multiplication operator

    M_m = (cutoff) * <h_j, e_m h_k> * (cutoff)

assembled by grid quadrature, so every M_m is Hermitian.  Assembly runs in
column blocks whose (block x grid) intermediates hold at most
``ASSEMBLY_BLOCK_ENTRIES`` complex entries, so its memory is the operators
plus a few blocks; a level whose operators would not fit in physical memory
is refused before anything is allocated.

A mark l in R^N combines the channels into the Hermitian generator
B(l) = sum_m l_m M_m, and a jump acts through the time-1 unitary flow of
``du/dt = -i B(l) u``.  ``jump_map`` evaluates it by the Chebyshev expansion
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984)

    exp(-i B) u = sum_k (2 - delta_k0) (-i)^k J_k(r) T_k(B / r) u

with the radius r = max_x |sum_m l_m e_m(x)|.  Quadrature makes synthesis an
isometry and the cutoff values are at most 1, so r bounds ||B(l)||.  The sum
stops once k > r and J_k(r) is below round-off, after about
r + 11 r^(1/3) matvecs at any degree, so a jump touches B(l) only through
matvecs.  The jump differences and the atomic compensator are spectral
functions evaluated by eigendecomposition.

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

from .exceptions import ConfigurationError, NumericsError, ShapeError
from .spectral import GalerkinLevel, SpectralModel, _check_memory, _max_lp_ratio

#: assembled matrices farther than this from Hermitian are rejected
HERMITICITY_TOLERANCE = 1e-10

#: complex entries in one (columns x grid nodes) assembly block, 1 MiB: at
#: 2-d torus level 6 (dim 401, grid 1024) a block is 64 columns and the
#: assembly peak is 7 MiB for the 2.45 MiB operator (27.5 MiB in one pass).
#: Assembly runs on the fast transforms, which give each column the same bits
#: at any block width
ASSEMBLY_BLOCK_ENTRIES = 2**16

#: relative widening of the jump radius; the computed norm of a constant
#: symbol's operator exceeds the symbol by about 10 ulps
_RADIUS_MARGIN = 1e-12

#: the Chebyshev sum of a jump stops at the first k > r with |J_k(r)| below this
_BESSEL_TAIL = 1e-17


@dataclasses.dataclass
class NoiseOperators:
    """Assembled jump generators for one Galerkin level.

    ``matrices[m]`` is the Hermitian matrix of channel m on the level basis,
    assembled from the grid samples ``symbols[m]``.  ``hermiticity_defect``
    records the largest entry deviation removed by symmetrization at
    assembly.  ``energy_weights`` are ``sqrt(1 + lambda_A)`` on the level's
    modes.
    """

    level: GalerkinLevel
    matrices: np.ndarray           # (N, dim, dim) complex Hermitian
    symbols: np.ndarray            # (N, num_grid) real
    energy_weights: np.ndarray     # (dim,)
    hermiticity_defect: float

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

    def radius(self, mark) -> float:
        """A bound on ``||B(l)||_2`` at O(grid) cost: ``max_x |sum_m l_m e_m(x)|``.

        Widened by ``_RADIUS_MARGIN`` for the rounding of the assembled
        entries, which can lift a computed norm above the exact bound (a
        constant symbol's operator is the identity on the low modes).
        """
        peak = np.max(np.abs(_checked_mark(self, mark) @ self.symbols))
        return float(peak) * (1.0 + _RADIUS_MARGIN)


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
    transforms.  Columns go through in blocks of ``ASSEMBLY_BLOCK_ENTRIES``
    grid values, and the Hermitian check and symmetrization in row/column
    strips of the same width; each entry takes the arithmetic, and the bits,
    of a single full-width pass.  Raises ``ConfigurationError`` before
    allocating when the operators would exceed physical memory, and when a
    channel's symbol has a non-finite grid sample.
    """
    symbols = np.atleast_2d(np.array(symbols, dtype=float))
    if symbols.ndim != 2 or symbols.shape[1] != model.num_grid:
        raise ShapeError(
            f"symbols must be (N, {model.num_grid}) grid samples, got {symbols.shape}"
        )
    for m, symbol in enumerate(symbols):
        if not np.all(np.isfinite(symbol)):
            raise ConfigurationError(f"symbol of channel {m} has non-finite grid samples")
    channels, dim = symbols.shape[0], level.dim
    width = max(1, ASSEMBLY_BLOCK_ENTRIES // model.num_grid)
    _check_memory(16 * (channels * dim * dim + min(width, dim) * model.num_grid),
                  f"noise operators of level {level.n} ({channels} x {dim}^2 "
                  f"complex entries and one assembly block)")

    smoother = level.multipliers
    matrices = np.empty((channels, dim, dim), dtype=complex)
    for start in range(0, dim, width):
        cols = slice(start, min(start + width, dim))
        unit = np.zeros((cols.stop - start, dim))
        unit[:, cols] = np.diag(smoother[cols])
        smoothed_modes = model.synthesize(unit, indices=level.indices)
        for m, symbol in enumerate(symbols):
            # row j of ``rows`` holds column j of the operator
            rows = model.analyze(symbol * smoothed_modes, indices=level.indices)
            matrices[m][:, cols] = smoother[:, None] * rows.T

    defect = 0.0
    for raw in matrices:
        for start in range(0, dim, width):
            strip = slice(start, min(start + width, dim))
            upper = raw[strip, start:].copy()
            lower = raw[start:, strip].copy()
            defect = max(defect, float(np.max(np.abs(upper - lower.conj().T))))
            raw[strip, start:] = 0.5 * (upper + lower.conj().T)
            raw[start:, strip] = 0.5 * (lower + upper.conj().T)
    if defect > HERMITICITY_TOLERANCE:
        raise NumericsError(
            f"assembled operator deviates from Hermitian by {defect:.3e} "
            f"(tolerance {HERMITICITY_TOLERANCE:.1e})"
        )

    return NoiseOperators(
        level=level,
        matrices=matrices,
        symbols=symbols,
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


def _checked_mark(ops: NoiseOperators, mark) -> np.ndarray:
    mark = np.asarray(mark, dtype=float).reshape(-1)
    if mark.shape != (ops.num_channels,):
        raise ShapeError(
            f"mark must have {ops.num_channels} components, got {mark.shape}"
        )
    return mark


def generator(ops: NoiseOperators, mark) -> np.ndarray:
    """Hermitian generator B(l) = sum_m l_m M_m for a mark l in R^N."""
    return np.tensordot(_checked_mark(ops, mark), ops.matrices, axes=1)


def _apply_spectral(ops: NoiseOperators, mark, factor, state) -> np.ndarray:
    """V diag(factor(theta)) V^H state, where B(l) = V diag(theta) V^H."""
    theta, vectors = np.linalg.eigh(generator(ops, mark))
    state = np.asarray(state, dtype=complex)
    return vectors @ (factor(theta) * (vectors.conj().T @ state))


def _bessel_j(r: float) -> list[float]:
    """J_0(r), J_1(r), ... for r > 0 by Miller's backward recurrence.

    The recurrence J_{k-1} = (2k / r) J_k - J_{k+1} runs down from an index
    well past the Chebyshev cutoff, rescaled whenever it nears overflow, and
    is normalised by J_0 + 2 sum_k J_2k = 1.  The values up to the cutoff
    are accurate to about 1e-16 absolute; the last few are not.
    """
    start = int(r + 15.0 * (r + 1.0) ** (1.0 / 3.0)) + 20
    values = [0.0] * (start + 2)
    values[start] = 1.0
    for k in range(start, 0, -1):
        value = (2.0 * k / r) * values[k] - values[k + 1]
        if abs(value) > 1e250:
            values[k:start + 1] = [v * 1e-250 for v in values[k:start + 1]]
            value *= 1e-250
        values[k - 1] = value
    norm = values[0] + 2.0 * sum(values[2::2])
    return [v / norm for v in values[:start + 1]]


def _chebyshev_coefficients(r: float) -> list[complex]:
    """Chebyshev coefficients (2 - delta_k0) (-i)^k J_k(r) of exp(-i r x).

    They run up to the first k > max(r, 1) with |J_k(r)| below the tail,
    which lies below the start of the Bessel recurrence.
    """
    bessel = _bessel_j(r)
    stop = next(k for k, value in enumerate(bessel)
                if k > max(r, 1.0) and abs(value) < _BESSEL_TAIL)
    phases = (2.0, -2j, -2.0, 2j)
    return [phases[k % 4] * bessel[k] if k else bessel[0] for k in range(stop)]


def jump_map(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """Unitary jump exp(-i B(l)) state: a Chebyshev series in B(l) / r, one matvec a term."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (ops.dim,):
        raise ShapeError(f"state must have length {ops.dim}, got {state.shape}")
    mark = _checked_mark(ops, mark)
    r = ops.radius(mark)
    if r < _BESSEL_TAIL:
        # ||exp(-iB) u - u|| <= r ||u||, below round-off
        return state.copy()
    coefficients = _chebyshev_coefficients(r)
    # T_{k+1} = 2 (B / r) T_k - T_{k-1}, with the 2 / r folded into the mark
    twice_scaled = generator(ops, (2.0 / r) * mark)
    previous, current = state, 0.5 * (twice_scaled @ state)
    out = coefficients[0] * previous + coefficients[1] * current
    for coefficient in coefficients[2:]:
        previous, current = current, twice_scaled @ current - previous
        out += coefficient * current
    return out


def marcus_flow(
    ops: NoiseOperators,
    duration: float,
    mark,
    state: np.ndarray,
    ode_tol: float = 1e-10,
) -> np.ndarray:
    """Integrate du/dt = -i B(l) u for the given duration with an ODE solver.

    Cross-validation oracle for :func:`jump_map` (the ``duration = 1``
    flow); kept independent of its Chebyshev series.
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
        theta, vectors = np.linalg.eigh(generator(ops, mark))
        total += (vectors * (weight * _difference_2_factor(theta))) @ vectors.conj().T
    return total
