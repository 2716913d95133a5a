"""Jump operators on a Galerkin level and the unitary maps they generate.

Each noise channel m has a real-valued symbol e_m(x); its action on the level
is the smoothed, truncated multiplication operator

    M_m = (cutoff) * <h_j, e_m h_k> * (cutoff)

by grid quadrature, so every M_m is Hermitian.  ``NoiseOperators.product``
applies B(l) = sum_m l_m M_m, and the size test of
``SpectralModel.transform_pair`` decides how a level holds its operators:

* on a dense-pair level (modes x grid nodes at most
  ``DENSE_PAIR_MAX_ENTRIES``) assembly builds the (N, dim, dim) matrices, and
  a product multiplies by their combination;
* on a transform-served level assembly keeps the symbols only, and a product
  is ``s * from_grid((sum_m l_m e_m) * to_grid(s * x))``: one transform pair
  whatever N, in column slices of ``ASSEMBLY_BLOCK_ENTRIES`` grid values.

The matrices of a transform-served level are built when first read (through
``matrices``, ``hermiticity_defect``, the level constants, ``generator`` or
the solver's mean and Taylor2 drift terms), then cached, and every later
product uses them.  The build runs in column blocks whose (block x grid)
intermediates hold at most ``ASSEMBLY_BLOCK_ENTRIES`` complex entries, so its
memory is the operators plus a few blocks; operators that would not fit in
physical memory are refused before anything is allocated.

A jump with mark l in R^N acts through the time-1 unitary flow of
``du/dt = -i B(l) u``.  The jump map, the jump differences exp(-iB) - 1 and
exp(-iB) - 1 + iB and the atomic compensator all sum one Chebyshev
expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984)

    exp(-i B) u = sum_k (2 - delta_k0) (-i)^k J_k(r) T_k(B / r) u,

the differences with their Taylor terms taken out of c_0 and c_1.  The
radius is r = max_x |sum_m l_m e_m(x)|: quadrature makes synthesis an
isometry and the cutoff values are at most 1, so r bounds ||B(l)||.  The sum
stops once k > r and J_k(r) is below round-off on the scale of the result,
after about r + 11 r^(1/3) products at any degree, so every function of B(l)
touches it only through ``product`` (on the identity for the compensator) and
no jump builds the matrices.

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
    """Jump generators of one Galerkin level.

    ``symbols[m]`` holds the grid samples of channel m and
    ``energy_weights`` are ``sqrt(1 + lambda_A)`` on the level's modes.
    ``matrices[m]`` is the Hermitian matrix of channel m on the level basis
    and ``hermiticity_defect`` the largest entry deviation removed by
    symmetrization; both are built on first read and then cached (at
    assembly on a dense-pair level).
    """

    level: GalerkinLevel
    model: SpectralModel
    symbols: np.ndarray            # (N, num_grid) real
    energy_weights: np.ndarray     # (dim,)

    @functools.cached_property
    def _dense(self) -> tuple[np.ndarray, float]:
        return _assemble_matrices(self.model, self.level, self.symbols)

    @property
    def matrices(self) -> np.ndarray:
        """(N, dim, dim) complex Hermitian channel matrices, built on first read."""
        return self._dense[0]

    @property
    def hermiticity_defect(self) -> float:
        return self._dense[1]

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
        return self.symbols.shape[0]

    @property
    def dim(self) -> int:
        return self.level.dim

    def radius(self, mark) -> float:
        """A bound on ``||B(l)||_2`` at O(grid) cost: ``max_x |sum_m l_m e_m(x)|``.

        Widened by ``_RADIUS_MARGIN`` for the rounding of the assembled
        entries, which can lift a computed norm above the exact bound (a
        constant symbol's operator is the identity on the low modes).
        """
        peak = np.max(np.abs(_checked_mark(self, mark) @ self.symbols))
        return float(peak) * (1.0 + _RADIUS_MARGIN)

    def product(self, mark):
        """The map ``x -> B(l) x`` on a state or a (dim, k) block of states.

        It multiplies by ``generator(mark)`` when the level holds its
        matrices.  Otherwise it computes ``s * from_grid(e * to_grid(s * x))``
        with ``e = sum_m l_m e_m`` through the level's transform pair,
        ``ASSEMBLY_BLOCK_ENTRIES // num_grid`` columns at a time.
        """
        if "_dense" in vars(self):   # the matrices are built
            matrix = generator(self, mark)
            return lambda block: matrix @ block
        symbol = _checked_mark(self, mark) @ self.symbols
        smoother = self.level.multipliers
        to_grid, from_grid = self.model.transform_pair(self.level.indices)
        width = max(1, ASSEMBLY_BLOCK_ENTRIES // self.model.num_grid)

        def apply(block):
            columns = block.reshape(self.dim, -1)
            out = np.empty(columns.shape, dtype=complex)
            for start in range(0, columns.shape[1], width):
                cols = slice(start, start + width)
                rows = smoother * columns[:, cols].T   # row j holds column j
                out[:, cols] = (smoother * from_grid(symbol * to_grid(rows))).T
            return out.reshape(block.shape)

        return apply


def assemble_noise_operators(
    model: SpectralModel,
    level: GalerkinLevel,
    symbols,
) -> NoiseOperators:
    """Noise operators of ``level`` for the grid samples ``symbols``.

    ``symbols`` is an (N, num_grid) array (or list of grid samples) of
    real-valued multiplier functions.  Raises ``ConfigurationError`` when a
    channel's symbol has a non-finite grid sample.  On a dense-pair level
    (see ``SpectralModel.transform_served``) the matrices are built here;
    on a transform-served level they wait for their first read.
    """
    symbols = np.atleast_2d(np.array(symbols, dtype=float))
    if symbols.ndim != 2 or symbols.shape[1] != model.num_grid:
        raise ShapeError(
            f"symbols must be (N, {model.num_grid}) grid samples, got {symbols.shape}"
        )
    for m, symbol in enumerate(symbols):
        if not np.all(np.isfinite(symbol)):
            raise ConfigurationError(f"symbol of channel {m} has non-finite grid samples")
    ops = NoiseOperators(
        level=level,
        model=model,
        symbols=symbols,
        energy_weights=np.sqrt(1.0 + model.eigenvalues_A[level.indices]),
    )
    if not model.transform_served(level.dim):
        ops.matrices  # built now: every product on this level multiplies by them
    return ops


def _assemble_matrices(model: SpectralModel, level: GalerkinLevel, symbols: np.ndarray):
    """Quadrature assembly of the smoothed multiplication operators and their defect.

    Column j of channel m is the smoothed mode ``s_j h_j`` synthesized to
    the grid, multiplied by the symbol, analyzed back and scaled by the
    cutoff again, all through the model's transforms.  Columns go through in
    blocks of ``ASSEMBLY_BLOCK_ENTRIES`` grid values, and the Hermitian check
    and symmetrization in row/column strips of the same width; each entry
    takes the arithmetic, and the bits, of a single full-width pass.  Raises
    ``ConfigurationError`` before allocating when the operators would exceed
    physical memory.
    """
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
    return matrices, defect


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
    """Hermitian generator B(l) = sum_m l_m M_m for a mark l in R^N, from ``matrices``."""
    return np.tensordot(_checked_mark(ops, mark), ops.matrices, axes=1)


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


def _chebyshev_coefficients(r: float, order: int = 0) -> list[complex]:
    """Chebyshev coefficients of exp(-i r x) minus its Taylor terms below ``order``.

    At order 0 they are (2 - delta_k0) (-i)^k J_k(r).  Order 1 takes 1 off
    c_0 and order 2 also adds i r x = i r T_1(x) to c_1; both corrections
    come from the normalisations J_0 + 2 sum_k J_2k = 1 and
    r = 2 sum_k (2k + 1) J_{2k+1}, so without cancellation:

        c_0 - 1 = -2 sum_{k>=1} J_2k,    c_1 + i r = 2i sum_{k>=1} (2k + 1) J_{2k+1}.

    They run up to the first k > max(r, 1) with |J_k(r)| below the tail
    times min(1, r)^order, the scale of the remainder, which lies below the
    start of the Bessel recurrence.
    """
    bessel = _bessel_j(r)
    tail = _BESSEL_TAIL * min(1.0, r) ** order
    stop = next(k for k, value in enumerate(bessel)
                if k > max(r, 1.0) and abs(value) < tail)
    phases = (2.0, -2j, -2.0, 2j)
    coefficients = [phases[k % 4] * bessel[k] if k else bessel[0] for k in range(stop)]
    if order >= 1:
        coefficients[0] = -2.0 * sum(bessel[2::2])
    if order >= 2:
        coefficients[1] = 2j * sum(k * bessel[k] for k in range(3, len(bessel), 2))
    return coefficients


def _series(ops: NoiseOperators, mark, block, order: int) -> np.ndarray:
    """exp(-i B(l)) minus its Taylor terms below ``order``, applied to ``block``.

    ``block`` is a state or a matrix whose columns are states.  The Chebyshev
    series in B(l) / r costs one ``product`` with B(l) a term.  Below a radius
    of ``_BESSEL_TAIL`` the result is the first remaining Taylor term
    (-i B)^order / order!, exact to rounding there.
    """
    block = np.asarray(block, dtype=complex)
    if block.ndim not in (1, 2) or block.shape[0] != ops.dim:
        raise ShapeError(f"state must have length {ops.dim}, got {block.shape}")
    mark = _checked_mark(ops, mark)
    r = ops.radius(mark)
    if r < _BESSEL_TAIL:
        apply = ops.product(mark)
        out = block.copy()
        for k in range(1, order + 1):
            out = (-1j / k) * apply(out)
        return out
    coefficients = _chebyshev_coefficients(r, order)
    # T_{k+1} = 2 (B / r) T_k - T_{k-1}, with the 2 / r folded into the mark
    twice_scaled = ops.product((2.0 / r) * mark)
    previous, current = block, 0.5 * twice_scaled(block)
    out = coefficients[0] * previous + coefficients[1] * current
    for coefficient in coefficients[2:]:
        previous, current = current, twice_scaled(current) - previous
        out += coefficient * current
    return out


def jump_map(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """Unitary jump exp(-i B(l)) state."""
    return _series(ops, mark, state, 0)


def jump_difference_1(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """First jump difference exp(-iB(l))x - x."""
    return _series(ops, mark, state, 1)


def jump_difference_2(ops: NoiseOperators, mark, state: np.ndarray) -> np.ndarray:
    """Second jump difference exp(-iB(l))x - x + iB(l)x."""
    return _series(ops, mark, state, 2)


def difference_2_matrix(ops: NoiseOperators, marks, weights) -> np.ndarray:
    """Matrix of x -> sum_a w_a (exp(-iB(l_a))x - x + iB(l_a)x) over atoms (l_a, w_a).

    Each atom adds w_a times the second difference applied to the identity;
    this is the exact compensator of an atomic measure's small jumps.
    """
    identity = np.eye(ops.dim, dtype=complex)
    total = np.zeros((ops.dim, ops.dim), dtype=complex)
    for weight, mark in zip(weights, np.atleast_2d(np.asarray(marks, dtype=float))):
        total += weight * _series(ops, mark, identity, 2)
    return total


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
