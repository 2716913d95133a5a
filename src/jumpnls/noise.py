"""Pure-jump driving noise: intensity measures, Poisson sampling, moments.

All marks live in the closed unit ball of R^N.  A cutoff ``epsilon`` splits
the measure: jumps with ``|l| >= epsilon`` are simulated as discrete events,
the remainder enters the dynamics only through its first/second moments.

Two measure families:

* ``AtomicMeasure`` — finitely many weighted atoms; exact simulation with
  ``epsilon = 0`` is allowed (finite activity).
* ``RadialStableMeasure`` — density ``c |l|^(-N-beta)`` on the punctured unit
  ball, ``beta`` in (0, 2); infinite activity, so ``epsilon > 0`` is required
  to simulate.

Randomness: one master seed; trajectory k draws from an independent stream
whose seed is a fixed 64-bit hash (splitmix64) of ``master_seed`` and ``k``.

One realization of the simulated region is a ``JumpPath``: the atoms
(t_i, l_i) of the Poisson random measure as a sorted ``(n,)`` array of times
and an ``(n, N)`` array of marks, 8 (1 + N) bytes per jump.  ``JumpPath()``
is the path without jumps.  Measures and paths hold arrays, so they compare
and hash by identity.  The compensated Lévy path of a jump path and the second
moment of the simulated region, which no run reads, are in ``oracles``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import ConfigurationError, ShapeError
from .spectral import _check_memory

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trajectory_seed(master_seed: int, index: int) -> int:
    """Fixed 64-bit hash mixing the trajectory index into the master seed."""
    if index < 0:
        raise ValueError(f"trajectory index must be >= 0, got {index}")
    return _splitmix64((int(master_seed) + (index + 1) * _GOLDEN64) & _MASK64)


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(trajectory_seed(master_seed, index))


def _sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclasses.dataclass(frozen=True, eq=False)
class JumpPath:
    """The jumps of one realization: ``marks[i]`` (N,) lands at ``times[i]``.

    ``times`` is an (n,) float64 array, sorted (``sample_prm`` sorts it, and
    ``solver.simulate`` refuses a path that is not), and ``marks`` an (n, N)
    float64 array; ``len(path)`` is n.  ``JumpPath()`` has no jumps and no
    channels.  Only the shapes are checked here, without a temporary array.
    """

    times: np.ndarray = dataclasses.field(default_factory=lambda: np.empty(0))
    marks: np.ndarray = dataclasses.field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=float)
        if times.ndim != 1 or marks.ndim != 2 or len(marks) != len(times):
            raise ShapeError(f"a jump path needs (n,) times and (n, N) marks, "
                             f"got {times.shape} and {marks.shape}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)

    def __len__(self) -> int:
        return len(self.times)


@dataclasses.dataclass(frozen=True, eq=False)
class NoiseMoments:
    """Closed-form moments of one intensity measure at its cutoff.

    ``mean_simulated`` is the first moment over the simulated region
    ``epsilon <= |l| <= 1``; ``second_moment_small`` and its trace
    ``variance_budget`` cover the neglected region ``|l| < epsilon`` and
    bound the error of dropping its martingale part.
    """

    mean_simulated: np.ndarray        # (N,)
    second_moment_small: np.ndarray   # (N, N)
    variance_budget: float


@dataclasses.dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite sum of weighted atoms inside the closed unit ball.

    The atoms are split at the cutoff once, on construction: ``_simulated``
    holds the marks, weights and normalised probabilities of the atoms with
    ``|l| >= epsilon``, ``_small`` the marks and weights of the rest.
    """

    marks: np.ndarray    # (J, N)
    weights: np.ndarray  # (J,)
    epsilon: float = 0.0

    def __post_init__(self):
        marks = np.atleast_2d(np.asarray(self.marks, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if marks.ndim != 2 or marks.shape[0] != len(weights):
            raise ShapeError("marks must be (J, N) with one weight per atom")
        if len(weights) == 0:
            raise ConfigurationError("need at least one atom")
        if not np.all(np.isfinite(marks)):
            raise ConfigurationError("atom marks must be finite")
        if not np.all(np.isfinite(weights)):
            raise ConfigurationError("atom weights must be finite")
        if np.any(weights <= 0):
            raise ConfigurationError("atom weights must be positive")
        radii = np.linalg.norm(marks, axis=1)
        if np.any(radii > 1.0 + 1e-12):
            raise ConfigurationError("atom marks must lie in the closed unit ball")
        if np.any(radii == 0.0):
            raise ConfigurationError("atom marks must be nonzero")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ConfigurationError(f"epsilon must be in [0, 1], got {self.epsilon}")
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "weights", weights)
        simulated = radii >= self.epsilon
        kept = weights[simulated]
        object.__setattr__(self, "_simulated", (marks[simulated], kept, kept / np.sum(kept)))
        object.__setattr__(self, "_small", (marks[~simulated], weights[~simulated]))

    @property
    def dimension(self) -> int:
        return self.marks.shape[1]

    def simulated_intensity(self) -> float:
        _, weights, _ = self._simulated
        return float(np.sum(weights))

    def moments(self) -> NoiseMoments:
        marks, weights, _ = self._simulated
        small_marks, small_weights = self._small
        # summed exactly: a BLAS dot of symmetric atoms may round to a nonzero
        # mean, which would add a drift term
        mean = [math.fsum(weights * channel) for channel in marks.T]
        sm = (small_weights[:, None] * small_marks).T @ small_marks
        return NoiseMoments(
            mean_simulated=np.asarray(mean, dtype=float).reshape(self.dimension),
            second_moment_small=np.asarray(sm, dtype=float),
            variance_budget=float(np.trace(sm)),
        )

    def small_atoms(self):
        """Atoms below the cutoff: (marks, weights) of the neglected region."""
        return self._small

    def sample_mark(self, rng: np.random.Generator) -> np.ndarray:
        """One simulated atom's mark, drawn by weight: a view of its row,
        which ``sample_prm`` copies into the path's marks."""
        marks, _, probabilities = self._simulated
        return marks[rng.choice(len(probabilities), p=probabilities)]


@dataclasses.dataclass(frozen=True)
class RadialStableMeasure:
    """Density c |l|^(-N-beta) on {0 < |l| <= 1}; infinite activity at 0."""

    activity: float          # c > 0
    stability: float         # beta in (0, 2)
    dimension: int = 1
    epsilon: float = 0.1

    def __post_init__(self):
        if not (self.activity > 0) or not math.isfinite(self.activity):
            raise ConfigurationError(f"activity must be positive, got {self.activity}")
        if not (0.0 < self.stability < 2.0):
            raise ConfigurationError(
                f"stability must be in (0, 2), got {self.stability}"
            )
        if self.dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {self.dimension}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigurationError(
                f"epsilon must be in (0, 1] for infinite activity, got {self.epsilon}"
            )
        try:
            self.epsilon**-self.stability
        except OverflowError:
            raise ConfigurationError(
                f"epsilon = {self.epsilon} with stability = {self.stability} puts the "
                f"simulated intensity's epsilon**-stability beyond the float range"
            ) from None

    def simulated_intensity(self) -> float:
        c, b = self.activity, self.stability
        return c * _sphere_area(self.dimension) * (self.epsilon**-b - 1.0) / b

    def moments(self) -> NoiseMoments:
        n = self.dimension
        c, b = self.activity, self.stability
        sigma2 = c * _sphere_area(n) * self.epsilon ** (2.0 - b) / (2.0 - b)
        return NoiseMoments(
            mean_simulated=np.zeros(n),  # radial symmetry
            second_moment_small=(sigma2 / n) * np.eye(n),
            variance_budget=sigma2,
        )

    def sample_mark(self, rng: np.random.Generator) -> np.ndarray:
        # inverse-CDF radius on [epsilon, 1]; isotropic direction
        b = self.stability
        u = rng.uniform()
        eb = self.epsilon**-b
        r = (eb - u * (eb - 1.0)) ** (-1.0 / b)
        if self.dimension == 1:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            return np.array([sign * r])
        vec = rng.standard_normal(self.dimension)
        vec /= np.linalg.norm(vec)
        return r * vec


def sample_prm(measure, horizon: float, rng: np.random.Generator) -> JumpPath:
    """Draw the jumps of the simulated region on [0, horizon].

    Count ~ Poisson(intensity * horizon), times i.i.d. uniform (sorted),
    marks i.i.d. from the normalized restriction of the measure, drawn one
    by one in time order.  The path's 8 (1 + N) bytes per expected jump are
    refused before the count is drawn if they exceed physical memory.
    """
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    channels = measure.dimension
    total = measure.simulated_intensity()
    if total == 0.0:
        return JumpPath(np.empty(0), np.empty((0, channels)))
    expected = total * horizon
    _check_memory(8 * (1 + channels) * expected,
                  f"the {expected:.3g} expected jump events on [0, {horizon!r}]")
    count = rng.poisson(expected)
    times = rng.uniform(0.0, horizon, size=count)
    times.sort()
    marks = np.empty((count, channels))
    for i in range(count):
        marks[i] = measure.sample_mark(rng)
    return JumpPath(times, marks)
