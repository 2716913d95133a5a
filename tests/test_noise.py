import math
import tracemalloc

import numpy as np
import pytest

from jumpnls import noise, oracles, spectral
from jumpnls.exceptions import ConfigurationError, ShapeError


def radial_oracle(c, beta, n, epsilon):
    """Quadrature oracle for the radial measure's intensity and moments."""
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    mass = oracles.radial_integral(lambda r: c * area * r ** (-1.0 - beta), epsilon, 1.0)
    small_var = oracles.radial_integral(lambda r: c * area * r ** (1.0 - beta), 0.0, epsilon)
    sim_second = oracles.radial_integral(lambda r: c * area * r ** (1.0 - beta), epsilon, 1.0)
    return mass, small_var, sim_second


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_radial_frozen_example():
    m = noise.RadialStableMeasure(activity=1.0, stability=1.0, dimension=1, epsilon=0.1)
    assert m.simulated_intensity() == pytest.approx(18.0, rel=1e-13)
    assert m.moments().variance_budget == pytest.approx(0.2, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta,eps", [(0.5, 0.1), (1.0, 0.05), (1.7, 0.3)])
def test_radial_moments_match_quadrature(n, beta, eps):
    c = 0.7
    m = noise.RadialStableMeasure(activity=c, stability=beta, dimension=n, epsilon=eps)
    mass, small_var, sim_second = radial_oracle(c, beta, n, eps)
    assert m.simulated_intensity() == pytest.approx(mass, rel=1e-10)
    mom = m.moments()
    assert mom.variance_budget == pytest.approx(small_var, rel=1e-10)
    assert oracles.simulated_second_moment(m) == pytest.approx(sim_second, rel=1e-10)
    assert np.allclose(mom.mean_simulated, 0.0)
    assert np.allclose(
        mom.second_moment_small, (small_var / n) * np.eye(n), rtol=1e-10, atol=1e-14
    )


def test_atomic_moments_exact():
    m = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, 1.0], epsilon=0.0)
    mom = m.moments()
    assert m.simulated_intensity() == 2.0
    assert np.array_equal(mom.mean_simulated, [0.0])
    assert mom.variance_budget == 0.0  # nothing below the cutoff
    assert oracles.simulated_second_moment(m) == pytest.approx(0.18, rel=1e-14)

    split = noise.AtomicMeasure(
        marks=[[0.3], [0.8]], weights=[2.0, 0.5], epsilon=0.5
    )
    mom = split.moments()
    assert split.simulated_intensity() == 0.5
    assert mom.mean_simulated[0] == pytest.approx(0.4, rel=1e-14)
    assert mom.variance_budget == pytest.approx(2.0 * 0.09, rel=1e-14)
    marks, weights = split.small_atoms()
    assert np.array_equal(marks, [[0.3]]) and np.array_equal(weights, [2.0])


def test_validation():
    with pytest.raises(ConfigurationError):
        noise.AtomicMeasure(marks=[[0.3]], weights=[0.0])
    with pytest.raises(ConfigurationError):
        noise.AtomicMeasure(marks=[[1.5]], weights=[1.0])
    with pytest.raises(ConfigurationError):
        noise.AtomicMeasure(marks=[[0.0]], weights=[1.0])
    with pytest.raises(ConfigurationError):
        noise.AtomicMeasure(marks=[[0.3]], weights=[1.0], epsilon=2.0)
    with pytest.raises(ConfigurationError):
        noise.RadialStableMeasure(activity=1.0, stability=2.0)
    with pytest.raises(ConfigurationError):
        noise.RadialStableMeasure(activity=1.0, stability=0.5, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        noise.RadialStableMeasure(activity=-1.0, stability=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_atomic_rejects_nonfinite_marks_and_weights(bad):
    # a NaN mark passes every comparison test and a NaN or inf weight would
    # first fail inside the Poisson sampler; both are refused by name
    with pytest.raises(ConfigurationError, match="atom marks"):
        noise.AtomicMeasure(marks=[[0.3], [bad]], weights=[1.0, 1.0])
    with pytest.raises(ConfigurationError, match="atom marks"):
        noise.AtomicMeasure(marks=[[0.3, bad]], weights=[1.0])
    with pytest.raises(ConfigurationError, match="atom weights"):
        noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, bad])


def test_measures_and_events_compare_and_hash_by_identity():
    # all hold arrays, so a generated __eq__ would raise on == and hash
    a = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, 1.0])
    b = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, 1.0])
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    e = noise.JumpPath([0.1], [[0.3, 0.1]])
    f = noise.JumpPath([0.1], [[0.3, 0.1]])
    assert e == e and e != f
    assert hash(e) == hash(e) and len({e, f, e}) == 2
    two = noise.AtomicMeasure(marks=[[0.3, 0.1], [-0.3, 0.2]], weights=[1.0, 1.0])
    m, n = two.moments(), two.moments()
    assert m == m and m != n
    assert hash(m) == hash(m) and len({m, n, m}) == 2
    p, q = (noise.sample_prm(a, 4.0, noise.trajectory_rng(5, 0)) for _ in range(2))
    assert len(p) >= 2 and p == p and p != q
    assert hash(p) == hash(p) and len({p, q, p}) == 2


def test_sigma2_scaling_rate():
    # variance budget decays like epsilon^(2 - beta): exact log-log slope
    beta = 0.7
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    vals = [
        noise.RadialStableMeasure(1.0, beta, 1, e).moments().variance_budget
        for e in eps
    ]
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert slope == pytest.approx(2.0 - beta, rel=1e-10)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_prm_counts_and_support():
    m = noise.RadialStableMeasure(activity=1.0, stability=0.5, dimension=1, epsilon=0.1)
    lam = m.simulated_intensity()
    rng = np.random.default_rng(31)
    horizon = 2.0
    counts = []
    for _ in range(600):
        path = noise.sample_prm(m, horizon, rng)
        counts.append(len(path))
        assert np.all((0.0 <= path.times) & (path.times <= horizon))
        r = np.linalg.norm(path.marks, axis=1)
        assert np.all((m.epsilon <= r) & (r <= 1.0 + 1e-12))
        assert np.all(np.diff(path.times) >= 0.0)
    counts = np.array(counts)
    se = math.sqrt(lam * horizon / len(counts))
    assert abs(np.mean(counts) - lam * horizon) <= 5 * se
    # Poisson: variance comparable to mean
    assert 0.7 * lam * horizon <= np.var(counts) <= 1.3 * lam * horizon


def test_prm_refused_beyond_physical_memory(monkeypatch):
    # intensity 4 over horizon 2.5: 10 expected events of one time and one
    # mark channel, 16 B each, are estimated before the Poisson count is drawn
    m = noise.AtomicMeasure(marks=np.array([[0.5], [-0.5]]), weights=np.array([2.0, 2.0]))
    needed = 8 * (1 + 1) * 10
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    with pytest.raises(ConfigurationError, match="the 10 expected jump events"):
        noise.sample_prm(m, 2.5, np.random.default_rng(0))
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert noise.sample_prm(m, 2.5, np.random.default_rng(0))


def test_jump_path_holds_one_time_and_one_mark_row_per_jump():
    path = noise.JumpPath([0.1, 0.4], [[0.3, 0.1], [-0.2, 0.5]])
    assert len(path) == 2 and path.marks.shape == (2, 2)
    assert path.times.dtype == path.marks.dtype == np.float64
    empty = noise.JumpPath()
    assert len(empty) == 0 and not empty and empty.marks.shape == (0, 0)
    for times, marks in (([0.1, 0.4], [[0.3]]), ([[0.1]], [[0.3]]), ([0.1], [0.3])):
        with pytest.raises(ShapeError, match="a jump path needs"):
            noise.JumpPath(times, marks)


def test_prm_length_is_the_poisson_count_it_draws():
    # the Poisson count is a stream's first draw
    m = noise.AtomicMeasure(marks=[[0.5], [-0.3]], weights=[2.0, 1.0])
    for k in range(8):
        count = noise.trajectory_rng(9, k).poisson(m.simulated_intensity() * 2.0)
        path = noise.sample_prm(m, 2.0, noise.trajectory_rng(9, k))
        assert len(path) == len(path.times) == len(path.marks) == count


#: (measure, master seed, index) -> the times and marks ``sample_prm`` drew on
#: horizon 1 when a path was a list of per-event objects, as ``float.hex``
PRM_CONTRACT = {
    "atomic_N1": (
        lambda: noise.AtomicMeasure(marks=[[0.45], [-0.3]], weights=[2.0, 1.0]), 11, 0,
        ["0x1.4ef44ea0fb708p-4", "0x1.3899deaa89adcp-2", "0x1.52c25d9b1aeacp-2",
         "0x1.810fbdcc4f978p-1"],
        [["-0x1.3333333333333p-2"], ["0x1.ccccccccccccdp-2"], ["0x1.ccccccccccccdp-2"],
         ["0x1.ccccccccccccdp-2"]]),
    "atomic_N2": (
        lambda: noise.AtomicMeasure(marks=[[0.3, 0.4], [-0.5, 0.1], [0.2, -0.6]],
                                    weights=[1.0, 2.0, 1.5]), 12, 0,
        ["0x1.2a59e1ca0b7a2p-2", "0x1.464bcf18a8692p-2", "0x1.6b1c8fe47426ap-2",
         "0x1.a2940e2ade8a7p-1"],
        [["-0x1.0000000000000p-1", "0x1.999999999999ap-4"],
         ["0x1.999999999999ap-3", "-0x1.3333333333333p-1"],
         ["-0x1.0000000000000p-1", "0x1.999999999999ap-4"],
         ["0x1.999999999999ap-3", "-0x1.3333333333333p-1"]]),
    "radial_N1": (
        lambda: noise.RadialStableMeasure(activity=0.5, stability=1.2, dimension=1,
                                          epsilon=0.3), 13, 1,
        ["0x1.50ed2674f4d80p-7", "0x1.1f32779deb5f8p-4", "0x1.814b956167cf8p-2"],
        [["0x1.c0997d83d1b60p-2"], ["-0x1.0e42304d6aec1p-1"], ["0x1.684d2d50e062fp-2"]]),
    "radial_N2": (
        lambda: noise.RadialStableMeasure(activity=0.5, stability=0.8, dimension=2,
                                          epsilon=0.4), 14, 0,
        ["0x1.872652ca880bep-2", "0x1.bf04969bba682p-2", "0x1.916b76b88e87fp-1"],
        [["-0x1.edc92d6cc8ecap-2", "0x1.ec2b7f31bc67fp-2"],
         ["0x1.7d4df6938d625p-1", "-0x1.b889a83dcf3c3p-7"],
         ["-0x1.358e2d766107fp-4", "-0x1.e3d4bd2df0cb1p-2"]]),
}


@pytest.mark.parametrize("case", sorted(PRM_CONTRACT))
def test_prm_draws_the_same_times_and_marks_from_a_stream(case):
    # the randomness contract: the Poisson count, the sorted uniform times,
    # then one mark per jump in time order, so every seed keeps its path
    measure, seed, index, times, marks = PRM_CONTRACT[case]
    path = noise.sample_prm(measure(), 1.0, noise.trajectory_rng(seed, index))
    assert path.times.tolist() == [float.fromhex(t) for t in times]
    assert path.marks.tolist() == [[float.fromhex(c) for c in row] for row in marks]


def test_prm_peak_memory_is_its_two_arrays():
    # about 1e5 jumps of one channel: the path's 8 (1 + N) B per jump, plus
    # at most a constant 16 KiB for the generator's scalar draws (1.7 kB
    # measured), where a list of per-event objects took 248-256 B per jump
    m = noise.RadialStableMeasure(activity=1.0, stability=1.0, dimension=1, epsilon=1e-4)
    horizon = 1e5 / m.simulated_intensity()
    noise.sample_prm(m, horizon / 100, noise.trajectory_rng(2, 0))  # warm the code paths
    tracemalloc.start()
    try:
        path = noise.sample_prm(m, horizon, noise.trajectory_rng(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 9e4 < len(path) < 1.1e5
    assert peak <= 8 * (1 + 1) * len(path) + 16 * 1024


def test_atomic_prm_peak_memory_is_its_two_arrays():
    # about 1e5 jumps of two channels: the path's 8 (1 + N) B per jump plus
    # one block of uniforms and atom indices, whatever the jump count
    m = noise.AtomicMeasure(marks=[[0.3, 0.1], [-0.2, 0.4], [0.1, -0.5]],
                            weights=[4e4, 3e4, 3e4])
    noise.sample_prm(m, 0.01, noise.trajectory_rng(2, 0))  # warm the code paths
    tracemalloc.start()
    try:
        path = noise.sample_prm(m, 1.0, noise.trajectory_rng(2, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 9e4 < len(path) < 1.1e5
    assert peak <= 8 * (1 + 2) * len(path) + 16 * noise.MARK_BLOCK_ENTRIES + 16 * 1024


def test_prm_disjoint_windows_uncorrelated():
    m = noise.AtomicMeasure(marks=[[0.5]], weights=[3.0], epsilon=0.0)
    rng = np.random.default_rng(32)
    first, second = [], []
    for _ in range(2000):
        times = noise.sample_prm(m, 1.0, rng).times
        first.append(np.sum(times < 0.5))
        second.append(np.sum(times >= 0.5))
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.08


def test_radial_mark_law():
    # empirical CDF of radii vs the inverse-CDF construction's target
    beta, eps = 0.8, 0.1
    m = noise.RadialStableMeasure(activity=1.0, stability=beta, dimension=1, epsilon=eps)
    rng = np.random.default_rng(33)
    radii = np.sort([np.linalg.norm(m.sample_mark(rng)) for _ in range(20000)])
    cdf = (eps**-beta - radii**-beta) / (eps**-beta - 1.0)
    empirical = np.arange(1, len(radii) + 1) / len(radii)
    assert np.max(np.abs(empirical - cdf)) < 0.02
    # in one dimension both signs appear about equally
    signs = [np.sign(m.sample_mark(rng)[0]) for _ in range(4000)]
    assert abs(np.mean(signs)) < 0.05


def test_isometry_at_desk_scale():
    # Var[sum of marks - T * mean] ~= T * second moment over the simulated region
    m = noise.AtomicMeasure(marks=[[0.3], [-0.3]], weights=[1.0, 1.0], epsilon=0.0)
    mom = m.moments()
    rng = np.random.default_rng(34)
    horizon = 1.0
    finals = []
    for _ in range(4000):
        jumps = noise.sample_prm(m, horizon, rng)
        path = oracles.reconstruct_levy_path(jumps, mom, np.array([horizon]))
        finals.append(path[0, 0])
    target = horizon * oracles.simulated_second_moment(m)
    assert np.var(finals) == pytest.approx(target, rel=0.15)
    assert abs(np.mean(finals)) <= 5 * math.sqrt(target / len(finals))


# ---------------------------------------------------------------------------
# path reconstruction
# ---------------------------------------------------------------------------

def test_path_compensation_no_events():
    mom = noise.NoiseMoments(
        mean_simulated=np.array([0.4]),
        second_moment_small=np.zeros((1, 1)),
        variance_budget=0.0,
    )
    grid = np.linspace(0.0, 2.0, 9)
    path = oracles.reconstruct_levy_path(noise.JumpPath(), mom, grid)
    assert np.allclose(path[:, 0], -0.4 * grid)


def test_path_steps_at_events():
    mom = noise.NoiseMoments(
        mean_simulated=np.zeros(1),
        second_moment_small=np.zeros((1, 1)),
        variance_budget=0.0,
    )
    jumps = noise.JumpPath([0.25, 0.75], [[0.5], [-0.2]])
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    path = oracles.reconstruct_levy_path(jumps, mom, grid)
    assert np.allclose(path[:, 0], [0.0, 0.5, 0.5, 0.3, 0.3])


# ---------------------------------------------------------------------------
# seed splitting
# ---------------------------------------------------------------------------

def test_trajectory_seed_deterministic_and_distinct():
    seeds = [noise.trajectory_seed(12345, k) for k in range(64)]
    assert seeds == [noise.trajectory_seed(12345, k) for k in range(64)]
    assert len(set(seeds)) == 64
    assert noise.trajectory_seed(12346, 0) != seeds[0]
    with pytest.raises(ValueError):
        noise.trajectory_seed(1, -1)


#: (name, draw): the draws a trajectory stream serves itself, each of which
#: ``test_trajectory_stream_is_numpys_stream`` checks against numpy's
PORTED_DRAWS = [
    ("random()", lambda rng: rng.random()),
    ("random(n)", lambda rng: rng.random(5)),
    ("uniform(a, b, size)", lambda rng: rng.uniform(-1.5, 2.0, size=4)),
    ("uniform(a, b)", lambda rng: rng.uniform(0.0, 3.0)),
    *((f"poisson({lam!r})", lambda rng, lam=lam: rng.poisson(lam))
      for lam in (0.0, 1e-3, 0.4, 2.0, 9.999)),
    ("integers(a, b, odd n)", lambda rng: rng.integers(-2, 5, size=3)),
    ("integers(a, a + 1, n)", lambda rng: rng.integers(4, 5, size=2)),
    ("integers(0, 2**31 + 1, (3, 3))", lambda rng: rng.integers(0, 2**31 + 1, size=(3, 3))),
    ("random(n) again", lambda rng: rng.random(3)),
]

#: (name, draw): draws that hand a trajectory stream's state over to numpy
HANDOVER_DRAWS = [
    *((f"poisson({lam!r})", lambda rng, lam=lam: rng.poisson(lam))
      for lam in (10.0, 46.35, 1e5)),
    ("standard_normal(n)", lambda rng: rng.standard_normal(3)),
    ("integers beyond the fill",
     lambda rng: rng.integers(0, 3, size=noise.STREAM_INTEGER_ENTRIES + 1)),
]


def assert_same_draw(name, ours, theirs):
    # the golden draws fail where the port moved and hold where numpy did
    name = f"{name}: tests/test_golden_draws.py tells which side moved"
    assert type(ours) is type(theirs), name
    assert np.shape(ours) == np.shape(theirs), name
    assert np.array_equal(ours, theirs), name


def test_trajectory_stream_is_numpys_stream():
    # bit for bit ``default_rng(trajectory_seed(m, k))``: the ported draws
    # interleaved, then each handover on its own fresh stream, checked by the
    # draws after it
    for master_seed in range(64):
        for index in range(16):
            seed = noise.trajectory_seed(master_seed, index)
            for handover_name, handover in HANDOVER_DRAWS:
                ours, theirs = noise.trajectory_rng(master_seed, index), np.random.default_rng(seed)
                for name, draw in PORTED_DRAWS + [(handover_name, handover)] + PORTED_DRAWS:
                    assert_same_draw((master_seed, index, name), draw(ours), draw(theirs))


#: (name, draw, the error it raises): numpy's refusals of the five draws'
#: forms, and the stream's own of a span beyond 2**32
REFUSED_DRAWS = [
    ("poisson(-1)", lambda rng: rng.poisson(-1.0), ValueError),
    ("poisson(nan)", lambda rng: rng.poisson(math.nan), ValueError),
    ("uniform(0, inf)", lambda rng: rng.uniform(0.0, math.inf), OverflowError),
    ("uniform(nan, 1)", lambda rng: rng.uniform(math.nan, 1.0), OverflowError),
    ("uniform(-1e308, 1e308, n)", lambda rng: rng.uniform(-1e308, 1e308, size=2),
     OverflowError),
    ("integers(3, 3, n)", lambda rng: rng.integers(3, 3, size=2), ValueError),
    ("integers(3, 2, n)", lambda rng: rng.integers(3, 2, size=2), ValueError),
    ("integers(0, 2**32 + 1, n)", lambda rng: rng.integers(0, 2**32 + 1, size=2), ValueError),
    ("integers(-2**40, 2**40, n)", lambda rng: rng.integers(-2**40, 2**40, size=2), ValueError),
]


@pytest.mark.parametrize("handed_over", [False, True])
@pytest.mark.parametrize("name,draw,error", REFUSED_DRAWS, ids=[r[0] for r in REFUSED_DRAWS])
def test_stream_refuses_what_numpy_refuses(name, draw, error, handed_over):
    # a ported draw checks its input as numpy does: no mean, span or bounds
    # numpy refuses may draw a value, before the handover or after it
    rng = noise.trajectory_rng(3, 1)
    if handed_over:
        rng.standard_normal(1)
    with pytest.raises(error):
        draw(rng)


@pytest.mark.parametrize("span", [1, 2, 3, 5, 7, 16, 1000, 2**31 + 1, 2**32])
def test_stream_integers_are_numpys_integers(span):
    # Lemire's rejection on 32-bit halves, run as a filter: the same draws in
    # continuing calls of odd and even counts, the same high half left
    # buffered (doubles do not take it), and that half carried over by a
    # handover, checked by the draws after it
    low = -(span // 2)
    for seed in range(32):
        ours, theirs = noise.TrajectoryStream(seed), np.random.default_rng(seed)
        for size in (1, 3, (2, 5), 7, (4, 3), 0, 9):
            name = (seed, span, size)
            assert_same_draw(name, ours.integers(low, low + span, size),
                             theirs.integers(low, low + span, size))
        assert_same_draw((seed, span, "random"), ours.random(2), theirs.random(2))
        assert_same_draw((seed, span, "odd"), ours.integers(low, low + span, 3),
                         theirs.integers(low, low + span, 3))
        assert_same_draw((seed, span, "handover"), ours.standard_normal(2),
                         theirs.standard_normal(2))
        assert_same_draw((seed, span, "after"), ours.integers(low, low + span, 5),
                         theirs.integers(low, low + span, 5))


@pytest.mark.parametrize("span", [3, 7, 2**31 + 1])
def test_stream_integers_accept_a_leftover_at_the_threshold(span):
    # numpy accepts a half h whose leftover h * span mod 2**32 equals the
    # threshold (2**32 - span) mod span.  No seed is known to draw one, so the
    # stream is set one step before a state whose output has such a low half
    threshold = (2**32 - span) % span
    half = threshold * pow(span, -1, 2**32) % 2**32
    output = 0x9E3779B9 << 32 | half
    high = 0xC123456789ABCDEF
    rotation = high >> 58  # XSL-RR: output = rotr(high ^ low, rotation)
    low = ((output << rotation | output >> (64 - rotation)) & (2**64 - 1)) ^ high
    ours = noise.TrajectoryStream(0)
    previous = ((high << 64 | low) - ours._increment) * pow(noise._PCG_MULT, -1, 2**128)
    ours._state = previous % 2**128
    theirs = np.random.default_rng(0)
    theirs.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                  "state": {"state": ours._state, "inc": ours._increment}}
    first = theirs.integers(0, span, size=4)
    assert first[0] == half * span >> 32
    assert_same_draw(span, ours.integers(0, span, size=4), first)


def tie_mean(u):
    """A mean ``lam`` with ``exp(-lam) == u`` exactly, or None if none is near
    ``-log(u)``."""
    lam = -math.log(u)
    for _ in range(8):
        limit = math.exp(-lam)
        if limit == u:
            return lam
        lam = math.nextafter(lam, math.inf if limit > u else -math.inf)
    return None


def test_stream_poisson_count_ends_at_a_tie():
    # the multiplication method counts while the product of uniforms stays
    # above exp(-lam): a first uniform equal to it gives 0, as numpy's does
    ties = 0
    for master_seed in range(64):
        for index in range(16):
            seed = noise.trajectory_seed(master_seed, index)
            lam = tie_mean(np.random.default_rng(seed).random())
            if lam is None:
                continue
            ties += 1
            ours, theirs = noise.trajectory_rng(master_seed, index), np.random.default_rng(seed)
            assert ours.poisson(lam) == theirs.poisson(lam) == 0
            assert ours.random() == theirs.random()
    assert ties > 800  # 870 of the 1024 first uniforms have a tie below lam = 5


@pytest.mark.parametrize("intensity", [4.0, 25.0])
@pytest.mark.parametrize("case", ["atomic_N1", "atomic_N2", "radial_N1", "radial_N2"])
def test_prm_paths_agree_on_a_stream_and_on_numpys_generator(case, intensity):
    # lambda T = 4 draws on the stream, 25 hands over at the Poisson count
    measure = {
        "atomic_N1": lambda: noise.AtomicMeasure(marks=[[0.45], [-0.3]], weights=[2.0, 1.0]),
        "atomic_N2": lambda: noise.AtomicMeasure(
            marks=[[0.3, 0.4], [-0.5, 0.1], [0.2, -0.6]], weights=[1.0, 2.0, 1.5]),
        "radial_N1": lambda: noise.RadialStableMeasure(activity=0.5, stability=1.2,
                                                       dimension=1, epsilon=0.3),
        "radial_N2": lambda: noise.RadialStableMeasure(activity=0.5, stability=0.8,
                                                       dimension=2, epsilon=0.4),
    }[case]()
    horizon = intensity / measure.simulated_intensity()
    for master_seed in range(16):
        seed = noise.trajectory_seed(master_seed, 0)
        ours = noise.sample_prm(measure, horizon, noise.trajectory_rng(master_seed, 0))
        theirs = noise.sample_prm(measure, horizon, np.random.default_rng(seed))
        assert np.array_equal(ours.times, theirs.times)
        assert np.array_equal(ours.marks, theirs.marks)


@pytest.mark.parametrize("weights", [[1.0], [2.0, 1.0], [1.0, 2.0, 1.5],
                                     [1e-9, 1.0, 1e-9], [0.1, 0.2, 0.3, 0.4, 1e3]])
def test_atomic_marks_are_the_atoms_choice_draws(weights):
    # one ``random(count)`` looked up on the cdf: the atoms and the stream
    # position of ``count`` per-jump ``Generator.choice(J, p=p)`` calls
    marks = np.linspace(-0.9, 0.9, 2 * len(weights))[: len(weights), None]
    measure = noise.AtomicMeasure(marks=marks, weights=weights)
    p = np.asarray(weights) / np.sum(weights)
    for seed in range(20):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = measure.sample_marks(ours, 50)
        chosen = [measure.marks[theirs.choice(len(p), p=p)] for _ in range(50)]
        assert np.array_equal(drawn, chosen)
        assert ours.random() == theirs.random()


def test_stream_seed_is_a_64_bit_seed():
    # the seeds ``trajectory_seed`` makes: the stream ports SeedSequence's
    # mixing of at most two 32-bit words
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
        ours = noise.TrajectoryStream(seed).random(4)
        assert ours.tolist() == np.random.default_rng(seed).random(4).tolist()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="stream seed"):
            noise.TrajectoryStream(seed)


def test_trajectory_rng_streams_reproducible():
    a = noise.trajectory_rng(7, 3).standard_normal(5)
    b = noise.trajectory_rng(7, 3).standard_normal(5)
    c = noise.trajectory_rng(7, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
