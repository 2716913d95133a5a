"""Config parsing, canonical round trip, hashing, and builder tests."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from jumpnls import solver
from jumpnls.config import (
    AtomicNoiseSpec,
    GalerkinSpec,
    InitialSpec,
    RadialStableNoiseSpec,
    RunSpec,
    build_model_from_spec,
    build_problem_from_spec,
    canonical_text,
    config_hash,
    initial_values,
    load_config,
    parse_config,
    symbol_values,
)
from jumpnls.exceptions import ConfigurationError
from jumpnls.noise import AtomicMeasure, RadialStableMeasure
from jumpnls.nonlinear import focusing
from jumpnls.solver import GalerkinProblem, simulate_coupled
from jumpnls.spectral import build_level

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
WORKLOAD_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

MINIMAL = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
level = 3

[solver]
dt = 0.01

[initial]
preset = decaying

[run]
horizon = 1.0
"""


def test_parse_minimal_defaults():
    spec = parse_config(MINIMAL)
    assert spec.domain.kind == "torus_1d"
    assert spec.galerkin.level == 3
    assert spec.galerkin.max_level == 6
    assert spec.solver.dt == 0.01
    assert spec.solver.mode == "FaithfulMidpoint"
    assert spec.nonlinearity is None
    assert spec.noise is None
    assert spec.trajectories == 1
    assert spec.output.save_states is False


SHIPPED_HASHES = {
    "atomic_cubic": "ba2f94d4a37cdee4c8bb315d287cd364af2ca9d120b33f320c634381a35f1980",
    "deterministic_cubic": "8f16a6aef20b8763c99523d7807dd95415fbd5da196dddd5db53f58c04015d5a",
    "stable_linear": "a46d5b7951713dd5e5ca978bc4ecd105cc146ff64e177d0e5f9ce5f1b321e823",
}
WORKLOAD_HASHES = {
    "converge-2d": "fc2b43dbf94551c9bfc9e0490c0c240d8cee7582081dc089df9192874d7bc379",
    "ensemble-1d": "c703c48ac1d775dfa0078243d114457fd537704ef99026f1247d32b29c815797",
    "jumps-stable": "b41fe1e43bc7fd2496dcbf3fbd49b103c30efd227cb1cdc71a53bc763f0b7049",
}


def test_parse_shipped_configs_roundtrip():
    for path, digest in [
        *[(CONFIG_DIR / f"{name}.ini", h) for name, h in SHIPPED_HASHES.items()],
        *[(WORKLOAD_DIR / f"{name}.ini", h) for name, h in WORKLOAD_HASHES.items()],
    ]:
        spec = load_config(str(path))
        text = canonical_text(spec)
        again = parse_config(text)
        assert again == spec, path.stem
        assert canonical_text(again) == text, path.stem
        # summary.json records this hash; a schema change must not move it
        assert config_hash(spec) == digest, path.stem


@pytest.mark.parametrize("domain,rendered,lengths", [
    ("kind = torus_2d\nlength_y = 2.5\nlength_x = 4", "kind = torus_2d\n"
     "length_x = 4.0\nlength_y = 2.5\n", (4.0, 2.5)),
    ("kind = interval_neumann\nlength = 1.5",
     "kind = interval_neumann\nlength = 1.5\n", (1.5,)),
    ("kind = interval_dirichlet\nlength = 3",
     "kind = interval_dirichlet\nlength = 3.0\n", (3.0,)),
])
def test_domain_section_roundtrip(domain, rendered, lengths):
    spec = parse_config(MINIMAL.replace("kind = torus_1d\nlength = 6.283185307179586",
                                        domain))
    text = canonical_text(spec)
    assert text.startswith("[domain]\n" + rendered + "\n")
    assert parse_config(text) == spec
    assert spec.domain.lengths == build_model_from_spec(spec).domain.lengths == lengths


def test_config_hash_sensitivity():
    spec = parse_config(MINIMAL)
    h1 = config_hash(spec)
    assert len(h1) == 64 and h1 == config_hash(spec)
    bumped = dataclasses.replace(
        spec, solver=dataclasses.replace(spec.solver, dt=0.02)
    )
    assert config_hash(bumped) != h1


def test_legacy_threads_key():
    # trajectories run serially: the key still parses and is still checked,
    # but it reaches neither the spec nor the canonical text
    base = parse_config(MINIMAL)
    legacy = parse_config(MINIMAL + "threads = 4\n")
    assert legacy == base
    assert config_hash(legacy) == config_hash(base)
    assert "threads" not in canonical_text(legacy)
    for bad in ("0", "-2", "two", "1.5"):
        with pytest.raises(ConfigurationError):
            parse_config(MINIMAL + f"threads = {bad}\n")


def test_atomic_noise_parsing():
    spec = load_config(str(CONFIG_DIR / "atomic_cubic.ini"))
    assert spec.noise.kind == "atomic"
    assert spec.noise.symbols == ("cos",)
    assert spec.noise.atoms == (((0.45,), 2.0), ((-0.45,), 2.0))
    measure = spec.noise.measure()
    assert isinstance(measure, AtomicMeasure)
    assert measure.dimension == 1
    assert measure.simulated_intensity() == pytest.approx(4.0)


def test_radial_noise_parsing():
    spec = load_config(str(CONFIG_DIR / "stable_linear.ini"))
    assert spec.noise.kind == "radial_stable"
    assert spec.noise.symbols == ("cos", "bump")
    measure = spec.noise.measure()
    assert isinstance(measure, RadialStableMeasure)
    assert measure.dimension == 2
    assert measure.moments().variance_budget > 0


@pytest.mark.parametrize("mutation,needle", [
    (lambda t: t.split("[run]")[0], "missing required section"),
    (lambda t: t + "\n[extra]\nkey = 1\n", "unknown config sections"),
    (lambda t: t.replace("kind = torus_1d", "kind = circle"), "domain kind"),
    (lambda t: t.replace("kind = torus_1d\nlength =", "kind = torus_2d\nlength_x ="),
     "missing key 'length_y'"),
    (lambda t: t.replace("length =", "length_x = 3.0\nlength ="),
     "unknown keys in [domain]: ['length_x']"),
    (lambda t: t.replace("level = 3", "level = 9"), "level"),
    (lambda t: t.replace("dt = 0.01", "dt = -1"), "dt"),
    (lambda t: t.replace("preset = decaying", "preset = fancy"), "preset"),
    (lambda t: t.replace("horizon = 1.0", "horizon = 1.0\nstyle = bold"),
     "unknown keys"),
    (lambda t: t.replace("dt = 0.01", "dt = 0.01\ntolerance = 1"),
     "unknown keys in [solver]"),
    (lambda t: t.replace("dt = 0.01\n", ""), "missing key 'dt'"),
    (lambda t: t.replace("level = 3\n", ""), "missing key 'level'"),
    (lambda t: t + "\n[output]\nsave_states = maybe\n", "save_states"),
    (lambda t: t + "\n[nonlinearity]\nkind = focusing\n", "missing key 'alpha'"),
    (lambda t: t + "\n[noise]\nkind = atomic\nsymbols = cos\natoms = 0.5 : 1\n"
     "activity = 3.0\n", "unknown keys in [noise]: ['activity']"),
    (lambda t: t + "\n[noise]\nkind = radial_stable\nsymbols = cos\nepsilon = 0.1\n"
     "activity = 1.0\nstability = 1.2\natoms = 0.5 : 1\n",
     "unknown keys in [noise]: ['atoms']"),
    (lambda t: t + "\n[noise]\nkind = atomic\nsymbols = cos\natoms = 0.5 : 1\n"
     "scale = 2\n", "unknown keys in [noise]: ['scale']"),
    (lambda t: t.replace("horizon = 1.0", "horizon = inf"),
     "[run] horizon = 'inf': not a finite number"),
    (lambda t: t.replace("length = 6.283185307179586", "length = nan"),
     "[domain] length = 'nan': not a finite number"),
    (lambda t: t.replace("length = 6.283185307179586", "length = -1"),
     "domain lengths must be positive"),
    (lambda t: t.replace("preset = decaying", "preset = decaying\nrate = nan"),
     "[initial] rate = 'nan': not a finite number"),
    (lambda t: t + "\n[noise]\nkind = atomic\nsymbols = cos\natoms = 0.45 : inf\n",
     "[noise] atoms = '0.45 : inf': not a finite number"),
    (lambda t: t + "\n[noise]\nkind = atomic\nsymbols = cos\natoms = -inf : 1\n",
     "[noise] atoms = '-inf : 1': not a finite number"),
    (lambda t: t + "\n[noise]\nkind = radial_stable\nsymbols = cos\nepsilon = 0.1\n"
     "activity = inf\nstability = 1.2\n", "[noise] activity = 'inf': not a finite number"),
])
def test_parse_errors(mutation, needle):
    with pytest.raises(ConfigurationError) as err:
        parse_config(mutation(MINIMAL))
    assert needle in str(err.value)


@pytest.mark.parametrize("section,needle", [
    ("kind = focusing\nalpha = 1.0", "alpha must be > 1, got 1.0"),
    ("kind = focusing\nalpha = 0.5", "alpha must be > 1, got 0.5"),
    ("kind = sublinear\nalpha = 3.0", "nonlinearity kind must be defocusing or focusing"),
])
def test_nonlinearity_section_is_validated_on_load(tmp_path, section, needle):
    # [nonlinearity] parses into a nonlinear.Nonlinearity, which refuses a
    # bad kind or an alpha <= 1 when the config is loaded
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL + "\n[nonlinearity]\n" + section + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=needle):
        load_config(str(path))
    path.write_text(MINIMAL + "\n[nonlinearity]\nkind = focusing\nalpha = 3.0\n",
                    encoding="utf-8")
    assert load_config(str(path)).nonlinearity == focusing(3.0)


def test_atom_syntax_errors():
    base = MINIMAL + """
[noise]
kind = atomic
symbols = cos
atoms = {atoms}
"""
    for bad in ("0.5", "0.5 :", ": 1.0", ""):
        with pytest.raises(ConfigurationError):
            parse_config(base.format(atoms=bad))
    # mark width must match the channel count
    with pytest.raises(ConfigurationError):
        parse_config(base.format(atoms="0.5 0.1 : 1.0"))


def test_noise_specs_hold_only_their_kind():
    atomic = AtomicNoiseSpec(symbols=("cos", "sin"), atoms=(((0.5, 0.0), 1.0),))
    assert atomic.kind == "atomic" and atomic.epsilon == 0.0
    assert atomic.measure().dimension == 2
    with pytest.raises(ConfigurationError, match="one component per symbol channel"):
        AtomicNoiseSpec(symbols=("cos",), atoms=(((0.5, 0.0), 1.0),))
    # each kind holds its own keys only, in canonical order
    assert [f.name for f in dataclasses.fields(AtomicNoiseSpec)] == [
        "kind", "symbols", "epsilon", "atoms"]
    assert [f.name for f in dataclasses.fields(RadialStableNoiseSpec)] == [
        "kind", "symbols", "epsilon", "activity", "stability"]


def test_symbol_presets(torus_model):
    ones = symbol_values("constant", torus_model)
    assert np.all(ones == 1.0)
    x = torus_model.grid_points[:, 0]
    assert np.allclose(symbol_values("cos", torus_model), np.cos(x))
    assert np.allclose(symbol_values("sin", torus_model), np.sin(x))
    bump = symbol_values("bump", torus_model)
    assert bump.max() <= 1.0
    assert x[np.argmax(bump)] == pytest.approx(np.pi, abs=0.2)
    with pytest.raises(ConfigurationError):
        symbol_values("spike", torus_model)


def test_initial_presets():
    spec = parse_config(MINIMAL)
    model = build_model_from_spec(spec)

    decaying = initial_values(spec, model)
    assert decaying.shape == (model.num_modes,)
    assert np.all(np.abs(decaying) > 0)
    mags = np.abs(decaying)
    assert np.all(np.diff(mags) <= 1e-15)  # eigenvalues are sorted

    single = dataclasses.replace(
        spec, initial=dataclasses.replace(spec.initial, preset="single_mode",
                                          mode=2, scale=0.5)
    )
    vec = initial_values(single, model)
    assert vec[2] == 0.5 and np.sum(np.abs(vec) > 0) == 1
    bad = dataclasses.replace(
        spec, initial=dataclasses.replace(spec.initial, preset="single_mode",
                                          mode=10_000)
    )
    with pytest.raises(ConfigurationError):
        initial_values(bad, model)

    plateau_spec = dataclasses.replace(
        spec, initial=dataclasses.replace(spec.initial, preset="plateau")
    )
    plateau = initial_values(plateau_spec, model)
    inside = model.eigenvalues_S < 2.0 ** (spec.galerkin.level + 1)
    assert np.all(plateau[~inside] == 0)
    assert np.linalg.norm(plateau) == pytest.approx(1.0)


def test_build_problem_from_spec_assembly():
    spec = load_config(str(CONFIG_DIR / "atomic_cubic.ini"))
    problem = build_problem_from_spec(spec)
    model = problem.level.model
    assert problem.level.n == spec.galerkin.level
    assert problem.ops is not None
    assert problem.ops.num_channels == 1
    # the problem assembles its operators on its own level
    assert problem.ops.level is problem.level
    assert problem.nonlinearity is not None
    assert problem.measure is not None
    np.testing.assert_array_equal(problem.symbols, symbol_values("cos", model)[None, :])


def test_coarse_level_keeps_configured_initial_data(monkeypatch):
    # the plateau preset reads galerkin.level, so the coarse problem that
    # simulate_coupled builds keeps the configured spec's initial data, not
    # that of a spec whose level was replaced; after renormalization the two
    # agree only to rounding, and converge output is compared byte for byte
    spec = parse_config(MINIMAL.replace("preset = decaying", "preset = plateau"))
    fine = build_problem_from_spec(spec)
    model = fine.level.model
    coupled = []
    run_levels = solver._run_levels

    def recording(problems, *args, **kwargs):
        coupled.append(problems)
        return run_levels(problems, *args, **kwargs)

    monkeypatch.setattr(solver, "_run_levels", recording)
    relevelled_differs = []
    for n in range(spec.galerkin.level):
        simulate_coupled(fine, n, spec.solver, [])
        (coarse, reference), = coupled
        coupled.clear()
        assert coarse.level.n == n and reference is fine
        direct = GalerkinProblem(build_level(model, n), spec.horizon, initial_values(spec, model))
        np.testing.assert_array_equal(coarse.initial, direct.initial)
        relevelled = dataclasses.replace(
            spec, galerkin=dataclasses.replace(spec.galerkin, level=n)
        )
        other = build_problem_from_spec(relevelled)
        relevelled_differs.append(not np.array_equal(coarse.initial,
                                                     other.initial))
    assert any(relevelled_differs)


def test_atomic_closure_requires_atomic_noise():
    # the run spec refuses the pair itself, before anything is built
    spec = load_config(str(CONFIG_DIR / "stable_linear.ini"))
    with pytest.raises(ConfigurationError,
                       match="AtomicExact closure needs an atomic jump measure"):
        dataclasses.replace(
            spec, solver=dataclasses.replace(spec.solver, closure="AtomicExact")
        )


def test_specs_built_in_code_refuse_bad_values():
    # the rules live in the dataclasses, not in the parser, so a spec built or
    # replaced in code is held to them as a parsed one is
    spec = parse_config(MINIMAL)
    with pytest.raises(ConfigurationError, match="trajectories must be at least 1, got 0"):
        dataclasses.replace(spec, trajectories=0)
    with pytest.raises(ConfigurationError, match="unknown initial preset 'nope'"):
        InitialSpec(preset="nope")
    with pytest.raises(ConfigurationError, match=r"level must lie in \[0, max_level=6\]"):
        GalerkinSpec(level=7, max_level=6)
    with pytest.raises(ConfigurationError, match="unknown symbol preset 'spike'"):
        RadialStableNoiseSpec(symbols=("spike",), epsilon=0.1, activity=1.0, stability=1.0)


def test_runspec_is_frozen():
    spec = parse_config(MINIMAL)
    assert isinstance(spec, RunSpec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.horizon = 2.0
