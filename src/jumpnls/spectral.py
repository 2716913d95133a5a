"""Spectral bases, dyadic Galerkin levels, and smoothed spectral truncation.

A model holds the eigenbasis of the Laplacian on a torus or an interval as a
mode table and a uniform quadrature grid.  Coefficients move to grid samples
and back through one fast transform per domain:

* torus (1-d and 2-d): the discrete Fourier transform (``numpy.fft``);
* Dirichlet interval, midpoint grid: DST-III to the grid, DST-II back;
* Neumann interval, midpoint grid: DCT-III to the grid, DCT-II back.

All are taken in their orthonormal form, so the only scale is the square root
of the quadrature cell weight.  ``scipy.fft`` is imported the first time an
interval model transforms.

``_DOMAIN_TABLE`` is the single description of a domain kind: its number of
axes, whether it is periodic, its wavenumber range, the shift of ``S`` and
its transform pair.  Validation, the mode table, the grid, the mode
positions and the transforms all read it.  Adding a domain takes a table
row, a constructor, an INI row in ``config._DOMAINS`` and its closed-form
basis in the tests' oracle (``tests/conftest.py::closed_form_basis``).

``SpectralModel.synthesize`` and ``analyze`` check shapes and run the fast
transform, at every size; the model caches nothing.  A caller that
transforms one mode set many times (the solver's drift workspace, once per
level) binds it with ``SpectralModel.transform_pair``.  On small mode sets a
transform call costs more in call overhead than in arithmetic, so when the
selected modes times the grid nodes number at most ``DENSE_PAIR_MAX_ENTRIES``
that pair multiplies by a dense synthesis matrix, built by the fast transform
itself, and its quadrature adjoint; the caller owns the matrices.  The same
size test (``SpectralModel.transform_served``) decides whether a level's
noise operators are dense matrices or products through the transforms
(``jumps.NoiseOperators``).

Two diagonal operators act on coefficients:

* ``A`` — the (fractional) Laplacian power, eigenvalues ``lambda_A``; it drives
  the linear part of the dynamics and weighs the energy norm.
* ``S`` — a strictly positive companion operator used only to organise modes
  into dyadic blocks: ``S = A`` on Dirichlet intervals and ``S = Id + A``
  otherwise.  Level ``n`` keeps the modes with ``lambda_S < 2**(n+1)``.

Smoothed truncation multiplies coefficients by a C^2 cutoff of ``lambda_S``
that is 1 below ``2**n``, 0 at and above ``2**(n+1)``, and a quintic ramp in
between.  The ramp is chosen so that the scaled derivative suprema
``sup |lambda^k d^k/dlambda^k cutoff|`` are bounded uniformly in ``n``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os

import numpy as np

from .exceptions import ConfigurationError, ShapeError

TORUS_1D = "Torus1D"
TORUS_2D = "Torus2D"
INTERVAL_DIRICHLET = "IntervalDirichlet"
INTERVAL_NEUMANN = "IntervalNeumann"


def _scipy_transform(name: str, type: int):
    """``scipy.fft.<name>`` of one type; scipy is imported on the first call."""
    def transform(data, norm):
        import scipy.fft
        return getattr(scipy.fft, name)(data, type=type, norm=norm)
    return transform


@dataclasses.dataclass(frozen=True)
class _DomainKind:
    """Basis facts of one domain kind.

    Wavenumbers run over ``-k..k`` per periodic axis and ``first_k..k`` on an
    interval, and sit at spectrum index ``(k - first_k) mod M`` on M nodes;
    ``lambda_S = shift + lambda_A``.  The transforms take ``norm="ortho"``.
    """

    axes: int
    periodic: bool
    first_k: int
    shift: float
    to_grid: object
    from_grid: object


_DOMAIN_TABLE = {
    TORUS_1D: _DomainKind(1, True, 0, 1.0, np.fft.ifft, np.fft.fft),
    TORUS_2D: _DomainKind(2, True, 0, 1.0, np.fft.ifft2, np.fft.fft2),
    INTERVAL_DIRICHLET: _DomainKind(1, False, 1, 0.0, _scipy_transform("dst", 3),
                                    _scipy_transform("dst", 2)),
    INTERVAL_NEUMANN: _DomainKind(1, False, 0, 1.0, _scipy_transform("dct", 3),
                                  _scipy_transform("dct", 2)),
}

#: largest (selected modes) x (grid nodes) that ``transform_pair`` serves by a
#: dense pair, so a pair takes at most 1 MiB.  On one BLAS thread the dense
#: pair is 2-5x faster than the transforms up to 23 114 entries (127 x 182),
#: breaks even near 46 000 (181 x 256) and is 2-5x slower from 197 632
#: (193 x 1024)
DENSE_PAIR_MAX_ENTRIES = 2**15

#: bytes the mode scan of :func:`build_spectral_model` takes per lattice point
#: it visits: 170-190 B measured on a 2-d torus, at 6-7 us per point
MODE_SCAN_BYTES_PER_POINT = 200

#: spaces accepted by :func:`sobolev_norm`
NORM_SPACES = ("H", "E_A", "E_A_dual", "Lp")


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


def mihlin_suprema(n: int, max_order: int = 2, samples: int = 4001) -> np.ndarray:
    """Sampled suprema of ``|lambda^k d^k cutoff / dlambda^k|`` for k <= max_order.

    The derivatives of ``cutoff_multiplier(n, .)`` are sampled on level n's
    own band ``lambda in [2**n, 2**(n+1)]``, where the k-th one is
    ``2**(-n*k) * transition_profile(lambda * 2**(-n), order=k)``; the
    identity branch below the band contributes 1 for k = 0.  The returned
    values are independent of ``n`` by scale invariance.  A level whose
    ``lambda^k`` overflows on its band is refused.
    """
    if max_order < 0 or max_order > 2:
        raise ValueError("max_order must be in {0, 1, 2}")
    # the band's top 2**(n+1), raised to max_order, must stay below 2**1024
    top = 1023 // max(max_order, 1) - 1
    if not 0 <= n <= top:
        raise ValueError(f"level must be in [0, {top}] at max_order {max_order}, got {n}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2 to span the band, got {samples}")
    scale = 2.0 ** (-n)
    lam = np.linspace(1.0, 2.0, samples) / scale
    sups = []
    for k in range(max_order + 1):
        derivative = scale**k * transition_profile(lam * scale, order=k)
        band = np.abs(lam**k * derivative)
        sup = float(np.max(band))
        if k == 0:
            sup = max(sup, 1.0)  # branch below the band where the cutoff is 1
        sups.append(sup)
    return np.array(sups)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
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

    def synthesize(self, coefficients: np.ndarray, indices=None) -> np.ndarray:
        """Coefficients (last axis) -> samples on the quadrature grid.

        The last axis holds all retained modes, or those selected by
        ``indices``; leading axes are a batch.
        """
        positions = self.positions if indices is None else self.positions[indices]
        coefficients = np.asarray(coefficients)
        if coefficients.shape[-1:] != positions.shape:
            raise ShapeError(
                f"expected {len(positions)} coefficients, got shape {coefficients.shape}"
            )
        return self._fast_synthesize(coefficients, positions)

    def analyze(self, values: np.ndarray, indices=None) -> np.ndarray:
        """Grid samples (last axis) -> coefficients of the retained (or selected) modes."""
        values = np.asarray(values)
        if values.shape[-1:] != (self.num_grid,):
            raise ShapeError(
                f"expected {self.num_grid} grid values, got shape {values.shape}"
            )
        positions = self.positions if indices is None else self.positions[indices]
        return self._fast_analyze(values, positions)

    def transform_pair(self, indices=None):
        """``(to_grid, from_grid)`` for the retained (or selected) modes, bound once.

        The callables do what :meth:`synthesize` and :meth:`analyze` do,
        without the shape checks and the per-call lookups.  Above
        ``DENSE_PAIR_MAX_ENTRIES`` they run the fast transforms on the
        resolved mode positions.  Below it they multiply by a dense pair built
        here and owned by the callables: ``S``, whose row j is mode
        ``positions[j]`` synthesized by the fast transform, and its quadrature
        adjoint ``w S^H``, which equals the fast analysis because the
        transforms are unitary.  The products round differently from the
        transforms, and from each other with the number of batch rows.
        """
        positions = self.positions if indices is None else self.positions[indices]
        if self.transform_served(positions.size):
            return (lambda coefficients: self._fast_synthesize(coefficients, positions),
                    lambda values: self._fast_analyze(values, positions))
        synthesis = self._fast_synthesize(np.eye(positions.size), positions)
        adjoint = np.ascontiguousarray(self.grid_weights[:, None] * synthesis.conj().T)
        return (lambda coefficients: coefficients @ synthesis,
                lambda values: values @ adjoint)

    def transform_served(self, num_selected: int) -> bool:
        """Whether ``transform_pair`` serves ``num_selected`` modes by the fast transforms.

        True when the selected modes times the grid nodes exceed
        ``DENSE_PAIR_MAX_ENTRIES``; below that the pair is dense.
        """
        return num_selected * self.num_grid > DENSE_PAIR_MAX_ENTRIES

    def _fast_synthesize(self, coefficients: np.ndarray, positions: np.ndarray) -> np.ndarray:
        spectrum = np.zeros(coefficients.shape[:-1] + (self.num_grid,), dtype=complex)
        spectrum.T[positions] = coefficients.T / self.root_weight  # modes axis first
        return _transform(self.domain.kind, spectrum, self.grid_shape, True)

    def _fast_analyze(self, values: np.ndarray, positions: np.ndarray) -> np.ndarray:
        spectrum = _transform(self.domain.kind, values, self.grid_shape, False)
        coefficients = spectrum.take(positions, axis=-1) * self.root_weight
        return coefficients.astype(complex, copy=False)


def _transform(kind: str, data: np.ndarray, grid_shape, to_grid: bool) -> np.ndarray:
    """Orthonormal spectrum -> grid transform along the last axis, or its inverse."""
    facts = _DOMAIN_TABLE[kind]
    transform = facts.to_grid if to_grid else facts.from_grid
    square = data.reshape(data.shape[:-1] + grid_shape)
    return transform(square, norm="ortho").reshape(data.shape)


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
    """Enumerate wavenumbers with lambda_S below 2**(max_level + 1); return sorted table."""
    facts = _DOMAIN_TABLE[domain.kind]
    scale = 2.0 if facts.periodic else 1.0
    factors = [scale * math.pi / L for L in domain.lengths]

    try:
        threshold = 2.0 ** (max_level + 1)
        # conservative per-axis scan bound: lambda_A alone already below threshold
        mu_cap = (threshold - facts.shift) ** (1.0 / beta)
        kmax = [int(math.floor(math.sqrt(mu_cap) / f)) + 2 for f in factors]
    except OverflowError:
        raise ConfigurationError(
            f"max_level = {max_level} with beta = {beta} on lengths {domain.lengths} "
            f"puts the mode scan bound (2**(max_level + 1))**(1/beta) beyond the "
            f"float range"
        ) from None
    axes = [range(-k if facts.periodic else facts.first_k, k + 1) for k in kmax]
    points = math.prod(axis.stop - axis.start for axis in axes)
    _check_memory(MODE_SCAN_BYTES_PER_POINT * points,
                  f"the {_as_float(points):.3g} lattice points of the mode scan "
                  f"below lambda_S = {threshold:g}")

    rows = []
    try:
        for wn in itertools.product(*axes):
            mu = sum((f * k) ** 2 for f, k in zip(factors, wn))
            lam_A = mu**beta
            lam_s = facts.shift + lam_A
            if lam_s < threshold:
                rows.append((lam_s, wn, lam_A))
    except OverflowError:
        raise ConfigurationError(
            f"beta = {beta} on lengths {domain.lengths} puts an eigenvalue mu**beta "
            f"of the mode scan beyond the float range"
        ) from None
    rows.sort(key=lambda r: (r[0], r[1]))
    if not rows:
        raise ConfigurationError("no modes retained; increase max_level")
    return rows


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
    if not (beta > 0) or not math.isfinite(beta):
        raise ConfigurationError(f"beta must be positive, got {beta}")
    if not isinstance(max_level, int) or max_level < 0:
        raise ConfigurationError(f"max_level must be a nonnegative integer, got {max_level}")
    if not isinstance(dealias_factor, int) or dealias_factor < 2:
        raise ConfigurationError(f"dealias_factor must be an integer >= 2, got {dealias_factor}")

    rows = _mode_table(domain, beta, max_level)
    lam_S = np.array([r[0] for r in rows])
    wavenumbers = np.array([r[1] for r in rows], dtype=int)
    lam_A = np.array([r[2] for r in rows])

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
        grid_points=grid_points,
        grid_weights=np.full(num_grid, weight),
        grid_shape=grid_shape,
        positions=positions,
        root_weight=math.sqrt(weight),
    )


# ---------------------------------------------------------------------------
# Galerkin levels
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GalerkinLevel:
    """Dyadic block of modes: indices with lambda_S < 2**(n+1), plus cutoff values."""

    n: int
    indices: np.ndarray       # indices into the model's mode table
    multipliers: np.ndarray   # cutoff values at the retained eigenvalues

    @property
    def dim(self) -> int:
        return len(self.indices)


def build_level(model: SpectralModel, n: int) -> GalerkinLevel:
    if not isinstance(n, int) or n < 0 or n > model.max_level:
        raise ConfigurationError(
            f"level must be an integer in [0, {model.max_level}], got {n}"
        )
    mask = model.eigenvalues_S < 2.0 ** (n + 1)
    indices = np.nonzero(mask)[0]
    multipliers = cutoff_multiplier(n, model.eigenvalues_S[indices])
    return GalerkinLevel(n=n, indices=indices, multipliers=np.asarray(multipliers))


def apply_projection(level: GalerkinLevel, coefficients_full: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the level: keep the level's coefficients."""
    coefficients_full = np.asarray(coefficients_full)
    if coefficients_full.ndim != 1 or len(coefficients_full) <= int(level.indices.max()):
        raise ShapeError("coefficient vector does not cover the level's modes")
    return coefficients_full[level.indices]


def apply_smoothing(level: GalerkinLevel, coefficients_full: np.ndarray) -> np.ndarray:
    """Smoothed truncation: project onto the level and scale by the cutoff."""
    return level.multipliers * apply_projection(level, coefficients_full)


def embed(level: GalerkinLevel, coefficients_level: np.ndarray, num_modes: int) -> np.ndarray:
    """Zero-pad a level coefficient vector back to the full mode table."""
    coefficients_level = np.asarray(coefficients_level)
    if coefficients_level.shape != (level.dim,):
        raise ShapeError(
            f"expected {level.dim} coefficients, got shape {coefficients_level.shape}"
        )
    out = np.zeros(num_modes, dtype=complex)
    out[level.indices] = coefficients_level
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def sobolev_norm(
    model: SpectralModel,
    coefficients: np.ndarray,
    space: str = "H",
    indices=None,
    p: float | None = None,
) -> float:
    """Norm of a coefficient vector in H, the energy space, its dual, or Lp.

    ``coefficients`` are aligned with ``indices`` (all modes when omitted).
    The Hilbert norms are weighted Euclidean norms with weights 1,
    ``1 + lambda_A``, and ``1 / (1 + lambda_A)``; Lp norms are evaluated by
    grid quadrature and require ``p``.
    """
    if space not in NORM_SPACES:
        raise ValueError(f"space must be one of {NORM_SPACES}, got {space!r}")
    coefficients = np.asarray(coefficients)
    idx = np.arange(model.num_modes) if indices is None else np.asarray(indices)
    if coefficients.shape != (len(idx),):
        raise ShapeError(
            f"expected {len(idx)} coefficients, got shape {coefficients.shape}"
        )
    if space == "Lp":
        if p is None or not (p >= 1):
            raise ValueError("Lp norm requires p >= 1")
        values = model.synthesize(coefficients, indices=idx)
        return float(np.sum(model.grid_weights * np.abs(values) ** p) ** (1.0 / p))
    sq = np.abs(coefficients) ** 2
    if space == "H":
        return float(math.sqrt(np.sum(sq)))
    weights = 1.0 + model.eigenvalues_A[idx]
    if space == "E_A":
        return float(math.sqrt(np.sum(weights * sq)))
    return float(math.sqrt(np.sum(sq / weights)))


def _max_lp_ratio(model, apply, p, rng, num_probes, extra=(), indices=None):
    """Largest ``||apply(u)||_p / ||u||_p`` over a probe set of coefficient vectors.

    The probes are ``num_probes`` complex Gaussian vectors drawn from ``rng``,
    every unit vector, then ``extra``; probes of (numerically) zero norm are
    skipped.  Coefficients are aligned with ``indices`` (all modes when
    omitted).
    """
    d = model.num_modes if indices is None else len(indices)
    probes = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
              for _ in range(num_probes)]
    probes += list(np.eye(d, dtype=complex))
    probes += list(extra)

    best = 0.0
    for u in probes:
        denom = sobolev_norm(model, u, space="Lp", indices=indices, p=p)
        if denom < 1e-13:
            continue
        num = sobolev_norm(model, apply(u), space="Lp", indices=indices, p=p)
        best = max(best, num / denom)
    return best


def estimate_smoothing_lp_norm(
    model: SpectralModel,
    level: GalerkinLevel,
    p: float,
    num_probes: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical lower bound for the Lp operator norm of the smoothed truncation.

    Maximises ``||S_n u||_p / ||u||_p`` over random Gaussian coefficient
    vectors, single modes, and all-ones packets (Dirichlet-kernel-like states,
    the usual near-extremisers).  A diagnostic estimate, not a certified bound.
    """
    if not (p >= 1):
        raise ValueError("p must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    d = model.num_modes
    packets = []
    for c in sorted(set(np.linspace(1, d, num=min(d, 16), dtype=int))):
        packet = np.zeros(d, dtype=complex)
        packet[:c] = 1.0
        packets.append(packet)
    return _max_lp_ratio(
        model, lambda u: embed(level, apply_smoothing(level, u), d), p, rng,
        num_probes, extra=packets,
    )
