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
That stream, a ``TrajectoryStream``, is ``numpy.random.default_rng(seed)``
bit for bit: it runs SeedSequence and PCG64 (XSL-RR 128/64) in Python and
draws ``random``, ``uniform``, ``poisson`` below ``lam = 10`` and bounded
``integers`` on spans up to 2^32 itself, so a path of a few jumps and the
bootstrap of ``diagnostics`` (seeded with the master seed) are drawn without
importing ``numpy.random``.  At its first other draw it hands its state to a
numpy ``Generator`` and serves every later draw from there.

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
import operator

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


#: SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: numpy draws Poisson counts by multiplying uniforms below this mean, by
#: its PTRS rejection sampler from it on
_POISSON_MULT_BELOW = 10.0
#: the largest array a stream fills itself; numpy fills a larger one in C
STREAM_FILL_ENTRIES = 1024
#: the largest ``integers`` fill a stream draws itself; numpy draws a larger
#: one in C.  The bootstrap's first fill is min(500, 2**16 // K) * K indices
#: of span K, so ``numpy.random`` returns to ``simulate`` from K = 66
#: trajectories on.  A fill in a fresh process, the stream against importing
#: ``numpy.random`` and drawing there (medians of 9; 2-vCPU host, Python
#: 3.11, numpy 2.4):
#:
#:     entries (K)     stream     import + numpy draw
#:     8 000 (16)      2.3 ms     11.2 ms
#:     16 000 (32)     4.7 ms     10.4 ms
#:     32 000 (64)     12.2 ms    11.0 ms
#:     65 500 (131)    18.7 ms    11.3 ms
STREAM_INTEGER_ENTRIES = 2**15
#: atomic marks looked up at once (256 KiB of uniforms and indices)
MARK_BLOCK_ENTRIES = 2**14


def _pcg64_seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after ``numpy.random.PCG64(seed)``.

    SeedSequence hashes the seed's 32-bit words (low word first) into a pool
    of four, mixes every pool word into every other, and hashes the pool out
    into four 64-bit words; PCG64 seeds its LCG with the first two as the
    initial state and the last two as the stream.
    """
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian
    initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
    increment = (initseq << 1 | 1) & _MASK128
    # pcg_setseq_128_srandom_r: step from 0, add the initial state, step
    state = (increment + initstate) & _MASK128
    return (state * _PCG_MULT + increment) & _MASK128, increment


class TrajectoryStream:
    """``numpy.random.default_rng(seed)``, bit for bit, without ``numpy.random``.

    The stream steps PCG64 in Python and draws, as numpy does, ``random()``
    and ``random(size)`` as ``(next64 >> 11) * 2**-53``, ``uniform(low,
    high, size)`` as ``low + (high - low) * random()`` for scalar bounds,
    ``poisson(lam)`` for a scalar ``0 <= lam < 10`` by multiplying uniforms
    until the product falls to ``exp(-lam)`` or below (none for ``lam = 0``),
    and int64 ``integers(low, high, size)`` for integer bounds with
    ``0 < high - low <= 2**32`` by Lemire's multiply-shift with rejection on
    32-bit halves of the 64-bit words, low half first (``_bounded``).  A
    fill of more than ``STREAM_FILL_ENTRIES`` doubles or
    ``STREAM_INTEGER_ENTRIES`` integers, any other argument of these four
    and any other ``Generator`` attribute hand the state over: the stream
    then seeds ``default_rng(seed)``, sets its PCG64 state (with a buffered
    half) through the public ``bit_generator.state`` dict, and serves that
    and every later draw from that ``Generator``, so the stream has the
    whole ``Generator`` interface and heavy paths keep numpy's speed.
    Arrays are filled in place.  NumPy does not promise its ``Generator``
    streams across versions; the ported draws are this module's and stay
    fixed.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:  # the seeds ``trajectory_seed`` makes
            raise ValueError(f"a stream seed must be in [0, 2**64), got {seed}")
        self._state, self._increment = _pcg64_seed_state(self.seed)
        # the high half of a word a 32-bit draw left, numpy's ``uinteger``
        self._half = None
        self._generator = None

    def _next_double(self) -> float:
        state = (self._state * _PCG_MULT + self._increment) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rotation = state >> 122
        word = ((word >> rotation) | (word << (64 - rotation))) & _MASK64
        return (word >> 11) * 2.0**-53

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs, a uint64 array."""
        out = np.empty(count, np.uint64)
        state, increment = self._state, self._increment
        for i in range(count):
            state = (state * _PCG_MULT + increment) & _MASK128
            word = ((state >> 64) ^ state) & _MASK64
            rotation = state >> 122
            out[i] = ((word >> rotation) | (word << (64 - rotation))) & _MASK64
        self._state = state
        return out

    @staticmethod
    def _fills(size, limit: int = STREAM_FILL_ENTRIES) -> bool:
        """Whether the stream draws ``size`` values itself."""
        return size is None or int(np.prod(size)) <= limit

    def _doubles(self, size) -> np.ndarray:
        out = np.empty(size)
        flat = out.reshape(-1)
        for i in range(len(flat)):
            flat[i] = self._next_double()
        return out

    def _bounded(self, span: int, out: np.ndarray) -> None:
        """Fill the int64 ``out`` with draws in [0, span), 1 <= span <= 2**32.

        numpy's ``buffered_bounded_lemire_uint32`` on ``pcg64_next32``, run
        as a filter: a 32-bit half h gives ``m = h * span`` and is accepted
        iff ``m mod 2**32 >= (2**32 - span) mod span``, drawing ``m >> 32``.
        The accepted halves in order are the draws, so only the stepping is
        sequential; a shortfall steps more words, and the high half of the
        last word, when no draw takes it, stays buffered for the next.
        """
        if span == 1:
            out[:] = 0  # numpy draws nothing
            return
        threshold = np.uint64((2**32 - span) % span)
        span, low32 = np.uint64(span), np.uint64(_MASK32)
        filled = 0
        while filled < len(out):
            need = len(out) - filled
            buffered = [] if self._half is None else [self._half]
            words = self._words((need - len(buffered) + 1) // 2)
            halves = np.concatenate([np.asarray(buffered, np.uint64),
                                     words.astype("<u8", copy=False).view("<u4")])
            m = halves * span  # uint64: a half and the span are at most 2**32
            taken = np.flatnonzero((m & low32) >= threshold)[:need]
            # at most one half, the last, is left once ``need`` are taken
            self._half = (int(halves[-1]) if len(taken) == need
                          and taken[-1] < len(halves) - 1 else None)
            out[filled:filled + len(taken)] = m[taken] >> np.uint64(32)
            filled += len(taken)

    def _numpy(self) -> np.random.Generator:
        """The ``Generator`` that serves every draw from the first handover on."""
        if self._generator is None:
            generator = np.random.default_rng(self.seed)
            generator.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._increment},
                "has_uint32": int(self._half is not None),
                "uinteger": self._half or 0,
            }
            self._generator = generator
            # the draws this class ports now go straight to numpy
            self.random, self.uniform, self.poisson, self.integers = (
                generator.random, generator.uniform, generator.poisson,
                generator.integers)
        return self._generator

    # ``random``, ``uniform``, ``poisson`` and ``integers`` run only until
    # the handover
    def random(self, size=None, *args, **kwargs):
        if args or kwargs or not self._fills(size):  # a dtype or an out array
            return self._numpy().random(size, *args, **kwargs)
        return self._next_double() if size is None else self._doubles(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        if np.ndim(low) == np.ndim(high) == 0 and self._fills(size):
            span = float(high) - float(low)
            if math.isfinite(span):  # numpy refuses the rest
                if size is None:
                    return float(low) + span * self._next_double()
                out = self._doubles(size)
                out *= span
                out += float(low)
                return out
        return self._numpy().uniform(low, high, size)

    def poisson(self, lam=1.0, size=None):
        if (size is None and np.ndim(lam) == 0
                and 0.0 <= lam < _POISSON_MULT_BELOW):
            if lam == 0:
                return 0
            limit, product, count = math.exp(-lam), 1.0, 0
            while True:
                product *= self._next_double()
                if not product > limit:
                    return count
                count += 1
        return self._numpy().poisson(lam, size)

    def integers(self, low, high=None, size=None, *args, **kwargs):
        bounds = None if args or kwargs else _int64_bounds(low, high)
        if bounds is None or not self._fills(size, STREAM_INTEGER_ENTRIES):
            # a dtype, ``endpoint``, array bounds, a span numpy draws from
            # 64-bit words, bounds numpy refuses, or a large fill
            return self._numpy().integers(low, high, size, *args, **kwargs)
        low, span = bounds
        out = np.empty(1 if size is None else size, np.int64)
        self._bounded(span, out.reshape(-1))
        out += low
        return out[0] if size is None else out

    def __getattr__(self, name):
        if name.startswith("_"):  # not Generator API: copy's and pickle's probes
            raise AttributeError(name)
        return getattr(self._numpy(), name)


def _int64_bounds(low, high):
    """``(low, high - low)`` of integer scalar bounds whose span the stream
    draws (1 to 2**32, within int64), else None."""
    try:
        low = operator.index(low)
        high = None if high is None else operator.index(high)
    except TypeError:
        return None
    if high is None:
        low, high = 0, low
    if -2**63 <= low < high <= 2**63 and high - low <= 2**32:
        return low, high - low
    return None


def trajectory_rng(master_seed: int, index: int) -> TrajectoryStream:
    """Trajectory ``index``'s stream: ``numpy.random.default_rng`` of its
    ``trajectory_seed``, drawn without ``numpy.random`` while it can."""
    return TrajectoryStream(trajectory_seed(master_seed, index))


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
    holds the marks, weights and cumulative distribution of the atoms with
    ``|l| >= epsilon``, ``_small`` the marks and weights of the rest.  The
    cdf is the one ``Generator.choice(p=...)`` builds from the normalised
    weights: their cumulative sum divided by its last entry.
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
        cdf = np.cumsum(kept / np.sum(kept))
        if len(cdf):
            cdf /= cdf[-1]
        object.__setattr__(self, "_simulated", (marks[simulated], kept, cdf))
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

    def sample_marks(self, rng, count: int) -> np.ndarray:
        """``count`` simulated atoms' marks, (count, N), drawn by weight.

        ``rng.random`` and one lookup on the cdf per block of
        ``MARK_BLOCK_ENTRIES`` marks: the doubles, order and atoms of
        ``count`` calls of ``rng.choice(J, p=p)``, with the path's marks the
        only array that grows with ``count``.
        """
        marks, _, cdf = self._simulated
        out = np.empty((count, self.dimension))
        for start in range(0, count, MARK_BLOCK_ENTRIES):
            block = out[start:start + MARK_BLOCK_ENTRIES]
            # every index is below J (cdf[-1] is 1.0), and ``clip`` writes
            # straight into ``out`` where ``raise`` would buffer
            np.take(marks, cdf.searchsorted(rng.random(len(block)), side="right"),
                    axis=0, out=block, mode="clip")
        return out


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

    def sample_marks(self, rng, count: int) -> np.ndarray:
        """``count`` marks, (count, N), drawn one by one into the array."""
        marks = np.empty((count, self.dimension))
        for i in range(count):
            marks[i] = self.sample_mark(rng)
        return marks

    def sample_mark(self, rng) -> np.ndarray:
        """One mark: ``rng.uniform()`` for the radius, then ``rng.uniform()``
        for the sign on one channel or ``rng.standard_normal(N)`` for the
        direction on more (a ``TrajectoryStream`` hands over there)."""
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


def sample_prm(measure, horizon: float, rng) -> JumpPath:
    """Draw the jumps of the simulated region on [0, horizon].

    Count ~ Poisson(intensity * horizon), times i.i.d. uniform (sorted),
    marks i.i.d. from the normalized restriction of the measure in time
    order (``measure.sample_marks``).  ``rng`` is a ``TrajectoryStream`` or
    a numpy ``Generator``; both draw the same path from the same state.  The
    path's 8 (1 + N) bytes per expected jump are refused before the count is
    drawn if they exceed physical memory.
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
    return JumpPath(times, measure.sample_marks(rng, count))
