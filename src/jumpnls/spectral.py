"""Spectral bases, dyadic Galerkin levels, and smoothed spectral truncation.

A model holds the eigenbasis of the Laplacian on a torus or an interval as a
mode table and a uniform quadrature grid.  Coefficients move to grid samples
and back through one fast transform per domain:

* torus (1-d and 2-d): the discrete Fourier transform (``numpy.fft``);
* Dirichlet interval, midpoint grid: DST-III to the grid, DST-II back;
* Neumann interval, midpoint grid: DCT-III to the grid, DCT-II back.

All are taken in their orthonormal form, so the only scale is the square root
of the quadrature cell weight.  The interval transforms run on ``numpy.fft``
too: each cosine transform is one complex FFT of Makhoul's reordering of its
input (IEEE Trans. ASSP 28, 1980), and each sine transform is the cosine
transform of the sign-alternated input, reversed.

``_DOMAIN_TABLE`` is the single description of a domain kind, keyed by the
kind's ``[domain]`` name: its length keys (one per axis), whether it is
periodic, its wavenumber range, the shift of ``S`` and its transform pair.
Validation, the mode table, the grid, the mode positions, the transforms and
the ``[domain]`` section of the INI configuration all read it.  Adding a
domain takes a table row, a constructor and its closed-form basis in the
tests' oracle (``tests/conftest.py::closed_form_basis``).

``SpectralModel.synthesize`` and ``analyze`` check shapes and run the fast
transform, at every size; the model caches nothing.  A mode set is the
first ``dim`` modes of the table (None: all).  ``level_dim`` holds the rule
for a level number (an integer in [0, max_level] whose prefix holds a mode)
and returns its ``dim``; ``build_level`` calls it and binds each
level's pair once (``SpectralModel.transform_pair``: dense, separable on a
2-d torus, or the fast transforms), and every run-path product reads it.
The level also keeps its model (``GalerkinLevel.model``), so an API that works
on a level reads the model and the mode count there: none takes a model
beside a level or a ``dim``, and all modes are the model's top level,
``build_level(model, model.max_level)``.
Models and levels hold arrays, so they compare and hash by identity.

Two diagonal operators act on coefficients:

* ``A`` — the (fractional) Laplacian power, eigenvalues ``lambda_A``; it drives
  the linear part of the dynamics, and the model's ``ea_weights = 1 + lambda_A``
  weigh the energy norm.  A level owns the E_A and E_A* norms of its
  coefficients (``GalerkinLevel.ea_norm`` and ``dual_norm``), taken over the
  largest modulus where the weighted squares underflow.
* ``S`` — a strictly positive companion operator used only to organise modes
  into dyadic blocks: ``S = A`` on Dirichlet intervals and ``S = Id + A``
  otherwise.  Level ``n`` keeps the modes with ``lambda_S < 2**(n+1)``, which
  are the first ``dim`` of the table, sorted by ``lambda_S``: a level is its
  mode count, a prefix of every finer one, and carries prefix views of both
  eigenvalue arrays.  A level without modes is refused.

Smoothed truncation multiplies coefficients by a C^2 cutoff of ``lambda_S``
that is 1 below ``2**n``, 0 at and above ``2**(n+1)``, and a quintic ramp in
between.  The ramp is chosen so that the scaled derivative suprema
``sup |lambda^k d^k/dlambda^k cutoff|`` are bounded uniformly in ``n``.
The norms, the sampled suprema and the L^1 gain on a grid delta that tell
the smoothed truncation from the sharp projection are in ``oracles``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os

import numpy as np

from .exceptions import ConfigurationError, ShapeError

TORUS_1D = "torus_1d"
TORUS_2D = "torus_2d"
INTERVAL_DIRICHLET = "interval_dirichlet"
INTERVAL_NEUMANN = "interval_neumann"


@functools.lru_cache(maxsize=None)
def _cosine_plan(length: int):
    """Index maps and twiddles of the orthonormal DCT-II and DCT-III on ``length`` points.

    With ``v = x[order]`` (the even-indexed entries, then the odd ones
    reversed) and ``V = fft(v)``, the DCT-II is ``y_k = a_k V_k + b_k V_-k``,
    ``a_k = s_k e^(-i pi k / 2N) / 2`` and ``b_k = conj(a_k)``, where
    ``s_k = sqrt((2 - delta_k0) / N)``.  The formula is complex-linear, so a
    complex input needs no split into real and imaginary parts.  The DCT-III
    inverts it: ``W = p y + q y_-k`` with ``p_0 = s_0``, ``q_0 = 0``,
    ``p_k = s_k e^(i pi k / 2N) / 2`` and ``q_k = -i s_(N-k) e^(i pi k / 2N) / 2``
    otherwise, is the spectrum of ``v``.
    """
    k = np.arange(length)
    order = np.concatenate((k[0::2], k[1::2][::-1]))
    mirror = -k % length  # index of V_-k
    scale = np.sqrt(np.where(k == 0, 1.0, 2.0) / length)
    twiddle = np.exp(-0.5j * np.pi * k / length)
    a = 0.5 * scale * twiddle
    p = 0.5 * scale * twiddle.conj()
    p[0] = scale[0]
    q = -0.5j * scale[mirror] * twiddle.conj()
    q[0] = 0.0
    return order, np.argsort(order), mirror, a, a.conj(), p, q


def _dct2(data: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis; a real input gives a real output."""
    order, _, mirror, a, b, _, _ = _cosine_plan(data.shape[-1])
    spectrum = np.fft.fft(data[..., order])
    out = a * spectrum + b * spectrum[..., mirror]
    return out.real if np.isrealobj(data) else out


def _dct3(data: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-III along the last axis, the inverse of :func:`_dct2`."""
    _, inverse, mirror, _, _, p, q = _cosine_plan(data.shape[-1])
    v = np.fft.ifft(p * data + q * data[..., mirror], norm="forward")
    out = v[..., inverse]
    return out.real if np.isrealobj(data) else out


def _alternate(data: np.ndarray) -> np.ndarray:
    """``(-1)^j data_j`` along the last axis."""
    out = np.array(data)
    out[..., 1::2] *= -1
    return out


def _dst2(data: np.ndarray) -> np.ndarray:
    """Orthonormal DST-II along the last axis: the DCT-II of the sign-alternated input, reversed."""
    return _dct2(_alternate(data))[..., ::-1]


def _dst3(data: np.ndarray) -> np.ndarray:
    """Orthonormal DST-III along the last axis, the inverse of :func:`_dst2`."""
    return _alternate(_dct3(data[..., ::-1]))


@dataclasses.dataclass(frozen=True)
class _DomainKind:
    """Basis facts of one domain kind.

    ``length_keys`` name the lengths, one per axis, in ``[domain]`` order.
    Wavenumbers run over ``-k..k`` per periodic axis and ``first_k..k`` on an
    interval, and sit at spectrum index ``(k - first_k) mod M`` on M nodes;
    ``lambda_S = shift + lambda_A``.  The transforms are orthonormal.
    """

    length_keys: tuple[str, ...]
    periodic: bool
    first_k: int
    shift: float
    to_grid: object
    from_grid: object

    @property
    def axes(self) -> int:
        return len(self.length_keys)


_DOMAIN_TABLE = {
    TORUS_1D: _DomainKind(("length",), True, 0, 1.0,
                          functools.partial(np.fft.ifft, norm="ortho"),
                          functools.partial(np.fft.fft, norm="ortho")),
    TORUS_2D: _DomainKind(("length_x", "length_y"), True, 0, 1.0,
                          functools.partial(np.fft.ifft2, norm="ortho"),
                          functools.partial(np.fft.fft2, norm="ortho")),
    INTERVAL_DIRICHLET: _DomainKind(("length",), False, 1, 0.0, _dst3, _dst2),
    INTERVAL_NEUMANN: _DomainKind(("length",), False, 0, 1.0, _dct3, _dct2),
}

#: largest (selected modes) x (grid nodes) that ``transform_pair`` serves by a
#: dense pair, so a pair takes at most 1 MiB.  On one BLAS thread, on a torus
#: the dense pair is 2-5x faster than the transforms up to 23 114 entries
#: (127 x 182), breaks even near 46 000 (181 x 256) and is 2-5x slower from
#: 197 632 (193 x 1024).  On an interval (numpy DCT/DST, both directions,
#: one row; intervals of length pi, both boundary conditions, 2 runs), dense
#: time over transform time reads 0.10-0.18 up to 4 232 entries (46 x 92),
#: 0.21-0.37 at 8 064-16 562 (64 x 128, 91 x 182), 0.52-0.70 at
#: 32 512-32 768 (128 x 256) and 0.97-1.35 at 65 884-66 248 (182 x 364)
DENSE_PAIR_MAX_ENTRIES = 2**15

#: largest complex multiply-adds per synthesis, ``R0 * M1 * (R1 + M0)`` for
#: modes on R0 x R1 spectrum rows and columns of an M0 x M1 grid, that
#: ``transform_pair`` serves on a 2-d torus by separable per-axis DFT factors
#: instead of ``fft2``.  Per row through both directions on one BLAS thread,
#: fft2 time over separable time: 32^2 levels 3-7 (0.01-0.06 M) 3.9-1.5x
#: (75-110 us -> 25-59 us); 46^2 levels 4-8 (to 0.19 M) 5.6-2.1x; 64^2 levels
#: 7-9 (0.19, 0.31, 0.51 M) 1.6-1.3x, 1.3-1.1x, 0.9-0.7x; 92^2 levels 6-9
#: (0.24-0.90 M) 4.1-1.5x, level 10 (1.53 M) 0.9x; 128^2 levels 7-11 (0.63,
#: 1.00, 1.54, 2.55, 4.15 M) 2.0-1.8x, 1.4-1.3x, 0.97-0.91x, 0.7-1.0x, 0.4x
SEPARABLE_PAIR_MAX_MULADDS = 2**20

#: bytes the mode scan of :func:`build_spectral_model` takes per lattice point
#: it visits: 71-73 B measured (tracemalloc peak of the scan, 2-d tori at
#: max_level 12-14, 1-d tori and intervals, 3e4-4e6 points)
MODE_SCAN_BYTES_PER_POINT = 80

@dataclasses.dataclass(frozen=True)
class Domain:
    """Spatial domain: periodic box (1d/2d) or an interval with a boundary condition."""

    kind: str
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _DOMAIN_TABLE:
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        expected = _DOMAIN_TABLE[self.kind].axes
        if len(self.lengths) != expected:
            raise ConfigurationError(
                f"{self.kind} needs {expected} length(s), got {len(self.lengths)}"
            )
        if any(not (L > 0) or not math.isfinite(L) for L in self.lengths):
            raise ConfigurationError("domain lengths must be positive and finite")

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def periodic(self) -> bool:
        return _DOMAIN_TABLE[self.kind].periodic


def torus_1d(length: float) -> Domain:
    return Domain(TORUS_1D, (float(length),))


def torus_2d(length_x: float, length_y: float) -> Domain:
    return Domain(TORUS_2D, (float(length_x), float(length_y)))


def interval_dirichlet(length: float) -> Domain:
    return Domain(INTERVAL_DIRICHLET, (float(length),))


def interval_neumann(length: float) -> Domain:
    return Domain(INTERVAL_NEUMANN, (float(length),))


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def transition_profile(t, order: int = 0):
    """C^2 quintic ramp: 1 for t <= 1, 0 for t >= 2, monotone in between.

    On [1, 2] with s = t - 1 the value is ``1 - 10 s^3 + 15 s^4 - 6 s^5``;
    first and second derivatives vanish at both ends, so the piecewise
    extension is C^2 on (0, inf).  ``order`` in {0, 1, 2} selects the
    derivative.  Scalar or array input.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1, or 2, got {order}")
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    if order == 0:
        ramp = 1.0 + s**3 * (-10.0 + s * (15.0 - 6.0 * s))
        outside = np.where(t <= 1.0, 1.0, 0.0)
    elif order == 1:
        ramp = s**2 * (-30.0 + s * (60.0 - 30.0 * s))
        outside = np.zeros_like(t)
    else:
        ramp = s * (-60.0 + s * (180.0 - 120.0 * s))
        outside = np.zeros_like(t)
    result = np.where((t > 1.0) & (t < 2.0), ramp, outside)
    if np.ndim(t) == 0:
        return float(result)
    return result


def cutoff_multiplier(n: int, eigenvalue):
    """Dyadic smoothed-cutoff value(s) at level n.

    Equals 1 for ``eigenvalue < 2**n``, 0 for ``eigenvalue >= 2**(n+1)``, and
    ``transition_profile(eigenvalue / 2**n)`` on the dyadic band in between.
    Eigenvalues must be strictly positive.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    lam = np.asarray(eigenvalue, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("cutoff argument must be strictly positive")
    return transition_profile(lam * 2.0 ** (-n))


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class SpectralModel:
    """Mode table, quadrature grid, and diagonal operator data for one domain.

    Modes are sorted by increasing ``lambda_S`` (ties broken by wavenumber).
    Mode m sits at flat index ``positions[m]`` of the spectrum that the
    domain's transform maps to the grid (``grid_shape`` nodes per axis):
    ``k mod M`` on each torus axis, ``k - 1`` for Dirichlet sines and ``k``
    for Neumann cosines.  The quadrature rule (``grid_weights``, uniform)
    integrates products of retained modes exactly, so analyze/synthesize
    round-trips are identities to rounding.
    """

    domain: Domain
    beta: float
    max_level: int
    dealias_factor: int
    wavenumbers: np.ndarray      # (num_modes, dim) ints
    eigenvalues_A: np.ndarray    # (num_modes,)
    eigenvalues_S: np.ndarray    # (num_modes,)
    ea_weights: np.ndarray       # (num_modes,) 1 + lambda_A, the E_A weights
    grid_points: np.ndarray      # (num_grid, dim)
    grid_weights: np.ndarray     # (num_grid,)
    grid_shape: tuple[int, ...]  # nodes per axis
    positions: np.ndarray        # (num_modes,) flat spectrum index of each mode
    root_weight: float           # sqrt of the quadrature weight of one node

    @property
    def num_modes(self) -> int:
        return len(self.positions)

    @property
    def num_grid(self) -> int:
        return len(self.grid_weights)

    def synthesize(self, coefficients: np.ndarray, dim=None) -> np.ndarray:
        """Coefficients (last axis) -> samples on the quadrature grid.

        The last axis holds the first ``dim`` modes of the table (all of them
        when omitted); leading axes are a batch.
        """
        positions = self._prefix(dim)
        coefficients = np.asarray(coefficients)
        if coefficients.shape[-1:] != positions.shape:
            raise ShapeError(
                f"expected {len(positions)} coefficients, got shape {coefficients.shape}"
            )
        return self._fast_synthesize(coefficients, positions)

    def analyze(self, values: np.ndarray, dim=None) -> np.ndarray:
        """Grid samples (last axis) -> coefficients of the first ``dim`` modes (all when omitted)."""
        values = np.asarray(values)
        if values.shape[-1:] != (self.num_grid,):
            raise ShapeError(
                f"expected {self.num_grid} grid values, got shape {values.shape}"
            )
        return self._fast_analyze(values, self._prefix(dim))

    def transform_pair(self, dim=None):
        """``(to_grid, from_grid)`` for the first ``dim`` modes (all when omitted), bound once.

        The callables do what :meth:`synthesize` and :meth:`analyze` do,
        without the shape checks and the per-call lookups, served one of
        three ways:

        * up to ``DENSE_PAIR_MAX_ENTRIES`` modes x grid nodes, they multiply
          by a dense pair built here: ``S``, whose row j is mode
          ``positions[j]`` synthesized by the fast transform, and its
          quadrature adjoint ``w S^H``, which equals the fast analysis
          because the transforms are unitary.  A batch goes through one
          vector-matrix product per row;
        * above it on a 2-d torus, up to ``SEPARABLE_PAIR_MAX_MULADDS``
          multiply-adds per synthesis, they multiply by per-axis DFT factors
          (:meth:`_separable_pair`);
        * otherwise they run the fast transforms on the resolved positions.

        The dense and separable products round differently from the
        transforms; every pair gives each batch row the bits it gives that
        row alone.
        """
        positions = self._prefix(dim)
        if positions.size * self.num_grid <= DENSE_PAIR_MAX_ENTRIES:
            synthesis = self.synthesize(np.eye(positions.size), dim)
            adjoint = np.ascontiguousarray(self.grid_weights[:, None] * synthesis.conj().T)
            return _rowwise(synthesis), _rowwise(adjoint)
        pair = self._separable_pair(positions) if self.domain.kind == TORUS_2D else None
        if pair is not None:
            return pair
        return (lambda coefficients: self._fast_synthesize(coefficients, positions),
                lambda values: self._fast_analyze(values, positions))

    def _prefix(self, dim) -> np.ndarray:
        """Spectrum positions of the first ``dim`` modes, all of them for None."""
        if dim is not None and not 0 <= dim <= self.num_modes:
            raise ShapeError(f"dim must be in [0, {self.num_modes}], got {dim}")
        return self.positions[:dim]

    def _separable_pair(self, positions: np.ndarray):
        """The 2-d pair of ``positions`` as per-axis DFT factors on their support.

        The modes occupy a block of spectrum rows and columns.  Synthesis
        scatters the coefficients into that block ``Z`` and forms
        ``F0 Z F1``, where row k of ``F_a`` is axis a's mode k on its nodes,
        synthesized by the 1-d fast transform and divided by the root
        weight; analysis forms ``G0 V G1`` with the forward factors and
        gathers the modes back.  A batch goes through one product per
        stacked matrix, so each row takes the bits it takes alone.  None
        when a synthesis would take more than ``SEPARABLE_PAIR_MAX_MULADDS``
        multiply-adds.
        """
        num_rows, num_cols = self.grid_shape
        i0, i1 = np.divmod(positions, num_cols)
        # bincount, not np.unique, which imports numpy.ma
        rows = np.flatnonzero(np.bincount(i0, minlength=num_rows))
        cols = np.flatnonzero(np.bincount(i1, minlength=num_cols))
        if rows.size * num_cols * (cols.size + num_rows) > SEPARABLE_PAIR_MAX_MULADDS:
            return None
        slots = np.searchsorted(rows, i0) * cols.size + np.searchsorted(cols, i1)
        block, support = (rows.size, cols.size), rows.size * cols.size

        def factors(M, kept, to_grid):
            # row k of the transformed identity is mode k on the axis nodes,
            # or its analysis functional (the DFT matrices are symmetric)
            return _transform(TORUS_1D, np.eye(M), (M,), to_grid)[kept]

        scale = 1.0 / self.root_weight
        left = np.ascontiguousarray(scale * factors(num_rows, rows, True).T)
        right = factors(num_cols, cols, True)
        left_adjoint = self.root_weight * factors(num_rows, rows, False)
        right_adjoint = np.ascontiguousarray(factors(num_cols, cols, False).T)

        def to_grid(coefficients):
            batch = coefficients.shape[:-1]
            spectrum = np.zeros(batch + (support,), dtype=complex)
            spectrum.T[slots] = coefficients.T  # modes axis first
            values = left @ (spectrum.reshape(batch + block) @ right)
            return values.reshape(batch + (self.num_grid,))

        def from_grid(values):
            batch = values.shape[:-1]
            spectrum = (left_adjoint @ values.reshape(batch + self.grid_shape)) @ right_adjoint
            return spectrum.reshape(batch + (support,)).take(slots, axis=-1)

        return to_grid, from_grid

    def _fast_synthesize(self, coefficients: np.ndarray, positions: np.ndarray) -> np.ndarray:
        spectrum = np.zeros(coefficients.shape[:-1] + (self.num_grid,), dtype=complex)
        spectrum.T[positions] = coefficients.T / self.root_weight  # modes axis first
        return _transform(self.domain.kind, spectrum, self.grid_shape, True)

    def _fast_analyze(self, values: np.ndarray, positions: np.ndarray) -> np.ndarray:
        spectrum = _transform(self.domain.kind, values, self.grid_shape, False)
        coefficients = spectrum.take(positions, axis=-1) * self.root_weight
        return coefficients.astype(complex, copy=False)


def _rowwise(matrix: np.ndarray):
    """``x -> x @ matrix``, one vector-matrix product per row of a batch.

    numpy sends one row to BLAS gemv and several to gemm, whose kernels
    round differently, and gemv rounds a strided row differently from a
    contiguous one; contiguous single rows keep every row on the same gemv.
    """
    def apply(x):
        x = np.ascontiguousarray(x)
        if x.ndim == 1:
            return x @ matrix
        return np.matmul(x[..., None, :], matrix)[..., 0, :]
    return apply


def _transform(kind: str, data: np.ndarray, grid_shape, to_grid: bool) -> np.ndarray:
    """Orthonormal spectrum -> grid transform along the last axis, or its inverse."""
    facts = _DOMAIN_TABLE[kind]
    transform = facts.to_grid if to_grid else facts.from_grid
    square = data.reshape(data.shape[:-1] + grid_shape)
    return transform(square).reshape(data.shape)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _as_float(value) -> float:
    """``float(value)``, or inf for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _check_memory(estimate: float, what: str) -> None:
    """Refuse ``what`` when its ``estimate`` in bytes exceeds physical memory.

    The ``ConfigurationError`` quotes the estimate; where the platform cannot
    tell its memory, nothing is refused.
    """
    available = _physical_memory()
    if available is not None and estimate > available:
        raise ConfigurationError(
            f"{what} take about {_as_float(estimate) / 2**30:.3g} GiB, more than the "
            f"{available / 2**30:.3g} GiB of physical memory"
        )


def _mode_table(domain: Domain, beta: float, max_level: int):
    """The wavenumbers with lambda_S below 2**(max_level + 1) and their lambda_S
    and lambda_A, sorted by (lambda_S, wavenumber)."""
    facts = _DOMAIN_TABLE[domain.kind]
    scale = 2.0 if facts.periodic else 1.0
    factors = [scale * math.pi / L for L in domain.lengths]

    try:
        threshold = 2.0 ** (max_level + 1)
        # conservative per-axis scan bound: lambda_A alone already below threshold
        mu_cap = (threshold - facts.shift) ** (1.0 / beta)
        kmax = [int(math.floor(math.sqrt(mu_cap) / f)) + 2 for f in factors]
    except (OverflowError, ValueError):  # ValueError: inf / inf, when a factor overflows too
        raise ConfigurationError(
            f"max_level = {max_level} with beta = {beta} on lengths {domain.lengths} "
            f"puts the mode scan bound (2**(max_level + 1))**(1/beta) beyond the "
            f"float range"
        ) from None
    starts = [-k if facts.periodic else facts.first_k for k in kmax]
    points = math.prod(k + 1 - start for k, start in zip(kmax, starts))
    _check_memory(MODE_SCAN_BYTES_PER_POINT * points,
                  f"the {_as_float(points):.3g} lattice points of the mode scan "
                  f"below lambda_S = {threshold:g}")

    axes = [np.arange(start, k + 1) for start, k in zip(starts, kmax)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(points, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_A = sum((f * lattice[:, j]) ** 2 for j, f in enumerate(factors)) ** beta
    if not np.all(np.isfinite(lam_A)):
        raise ConfigurationError(
            f"beta = {beta} on lengths {domain.lengths} puts an eigenvalue mu**beta "
            f"of the mode scan beyond the float range"
        )
    lam_S = facts.shift + lam_A
    keep = lam_S < threshold
    wavenumbers, lam_S, lam_A = lattice[keep], lam_S[keep], lam_A[keep]
    order = np.lexsort((*wavenumbers.T[::-1], lam_S))
    if not order.size:
        raise ConfigurationError("no modes retained; increase max_level")
    if lam_S[order[0]] <= 0.0:  # S is strictly positive unless mu**beta underflows
        raise ConfigurationError(
            f"beta = {beta} on lengths {domain.lengths} puts an eigenvalue mu**beta "
            f"of the mode scan below the float range, so lambda_S = 0"
        )
    return wavenumbers[order], lam_S[order], lam_A[order]


def validate_model_parameters(beta: float, max_level: int, dealias_factor: int) -> None:
    """Refuse the model parameters ``build_spectral_model`` cannot build from."""
    if not (beta > 0) or not math.isfinite(beta):
        raise ConfigurationError(f"beta must be positive, got {beta}")
    if not isinstance(max_level, int) or max_level < 0:
        raise ConfigurationError(f"max_level must be a nonnegative integer, got {max_level}")
    if not isinstance(dealias_factor, int) or dealias_factor < 2:
        raise ConfigurationError(f"dealias_factor must be an integer >= 2, got {dealias_factor}")


def build_spectral_model(
    domain: Domain,
    beta: float = 1.0,
    max_level: int = 6,
    dealias_factor: int = 2,
) -> SpectralModel:
    """Construct the mode table and grid holding all levels up to ``max_level``.

    Parameters
    ----------
    domain : Domain
    beta : float
        Fractional power applied to the Laplacian eigenvalues: the linear
        operator acts by ``mu -> mu**beta``.  Must be positive.
    max_level : int
        Modes with ``lambda_S < 2**(max_level + 1)`` are retained.
    dealias_factor : int
        Grid nodes per dimension are at least ``dealias_factor * (kmax + 1)``
        where ``kmax`` is the largest retained wavenumber on that axis; 2 is
        the minimum guaranteeing exact quadrature of mode products, larger
        values reduce aliasing in nonlinear terms.
    """
    validate_model_parameters(beta, max_level, dealias_factor)
    wavenumbers, lam_S, lam_A = _mode_table(domain, beta, max_level)

    facts = _DOMAIN_TABLE[domain.kind]
    grid_shape = tuple(dealias_factor * (int(k) + 1) for k in np.abs(wavenumbers).max(axis=0))
    num_grid = math.prod(grid_shape)
    # float64 grid arrays: the meshgrid axes, the stacked points, the weights
    _check_memory(8 * num_grid * (2 * len(grid_shape) + 1),
                  f"the {num_grid} nodes of the quadrature grid {grid_shape}")
    weight = math.prod(L / M for L, M in zip(domain.lengths, grid_shape))
    offset = 0.0 if facts.periodic else 0.5  # intervals: midpoint rule, no boundary nodes
    axis_nodes = [L * (np.arange(M) + offset) / M for L, M in zip(domain.lengths, grid_shape)]
    grid_points = np.stack(np.meshgrid(*axis_nodes, indexing="ij"), -1).reshape(num_grid, -1)

    # spectrum index of each mode.  M >= 2 (kmax + 1): torus residues are
    # distinct, and no sine reaches index M - 1, which the orthonormal DST
    # scales differently
    positions = np.ravel_multi_index(((wavenumbers - facts.first_k) % grid_shape).T, grid_shape)

    return SpectralModel(
        domain=domain,
        beta=float(beta),
        max_level=max_level,
        dealias_factor=dealias_factor,
        wavenumbers=wavenumbers,
        eigenvalues_A=lam_A,
        eigenvalues_S=lam_S,
        ea_weights=1.0 + lam_A,
        grid_points=grid_points,
        grid_weights=np.full(num_grid, weight),
        grid_shape=grid_shape,
        positions=positions,
        root_weight=math.sqrt(weight),
    )


# ---------------------------------------------------------------------------
# Galerkin levels
# ---------------------------------------------------------------------------

#: smallest normal float64; a sum of squares below it has lost its digits
_TINY = float(np.finfo(float).tiny)


def _norm_over_top(x: np.ndarray, weights=1.0) -> float:
    """``sqrt(sum weights |x|^2)`` taken on ``x`` over its largest modulus, so
    data whose squares underflow keep a norm."""
    modulus = np.abs(x)
    top = float(np.max(modulus))
    # a real quotient: 1 / top overflows for subnormal data
    return top * math.sqrt(np.sum(weights * (modulus / top) ** 2)) if top else 0.0


@dataclasses.dataclass(frozen=True, eq=False)
class GalerkinLevel:
    """Dyadic block of ``model``'s modes (lambda_S < 2**(n+1)), cutoffs, bound pair and norms."""

    n: int
    multipliers: np.ndarray    # cutoffs of the first dim modes of the model's table
    eigenvalues_A: np.ndarray  # views of the model's arrays on the prefix
    ea_weights: np.ndarray
    to_grid: object = dataclasses.field(repr=False)
    from_grid: object = dataclasses.field(repr=False)
    model: SpectralModel = dataclasses.field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.multipliers)

    def ea_norm(self, x: np.ndarray) -> float:
        """``sqrt(ea_weights @ |x|^2)``, the E_A norm of the level coefficients ``x``."""
        total = self.ea_weights @ np.abs(x) ** 2
        return _norm_over_top(x, self.ea_weights) if total < _TINY else math.sqrt(total)

    def dual_norm(self, x: np.ndarray) -> float:
        """``sqrt(sum |x|^2 / ea_weights)``, the E_A* norm of the level coefficients ``x``."""
        inverse = 1.0 / self.ea_weights
        total = np.sum(np.abs(x) ** 2 * inverse)
        return _norm_over_top(x, inverse) if total < _TINY else math.sqrt(total)


def level_dim(model: SpectralModel, n) -> int:
    """The mode count of level ``n``, refusing a level number that
    ``build_level`` could not build: not an integer in [0, max_level], or a
    level whose prefix holds no mode."""
    if not isinstance(n, int) or n < 0 or n > model.max_level:
        raise ConfigurationError(
            f"level must be an integer in [0, {model.max_level}], got {n}"
        )
    # the modes with lambda_S < 2**(n+1) are a prefix: the table is sorted by lambda_S
    dim = int(np.searchsorted(model.eigenvalues_S, 2.0 ** (n + 1)))
    if dim == 0:
        raise ConfigurationError(
            f"level {n} holds no modes: lambda_S < 2**{n + 1} = {2.0 ** (n + 1):g} "
            f"takes none, and the first lambda_S is {model.eigenvalues_S[0]:.6g}"
        )
    return dim


def build_level(model: SpectralModel, n: int) -> GalerkinLevel:
    dim = level_dim(model, n)
    multipliers = cutoff_multiplier(n, model.eigenvalues_S[:dim])
    return GalerkinLevel(n, np.asarray(multipliers), model.eigenvalues_A[:dim],
                         model.ea_weights[:dim], *model.transform_pair(dim), model)


def apply_projection(level: GalerkinLevel, coefficients_full: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the level: keep its first ``dim`` coefficients."""
    coefficients_full = np.asarray(coefficients_full)
    if coefficients_full.ndim != 1 or len(coefficients_full) < level.dim:
        raise ShapeError("coefficient vector does not cover the level's modes")
    return coefficients_full[:level.dim]


def apply_smoothing(level: GalerkinLevel, coefficients_full: np.ndarray) -> np.ndarray:
    """Smoothed truncation: project onto the level and scale by the cutoff."""
    return level.multipliers * apply_projection(level, coefficients_full)


def embed(level: GalerkinLevel, coefficients_level: np.ndarray) -> np.ndarray:
    """Zero-pad a level coefficient vector back to its model's full mode table."""
    coefficients_level = np.asarray(coefficients_level)
    if coefficients_level.shape != (level.dim,):
        raise ShapeError(
            f"expected {level.dim} coefficients, got shape {coefficients_level.shape}"
        )
    return np.pad(coefficients_level.astype(complex), (0, level.model.num_modes - level.dim))
