"""INI run configuration: parsing, canonical serialization, object builders.

The spec dataclasses are the schema of the sections ``[galerkin]``,
``[nonlinearity]`` (a ``nonlinear.Nonlinearity``), ``[noise]`` (one class per
noise kind), ``[solver]`` (a ``solver.SolverConfig``), ``[initial]`` and
``[output]``: their fields give the keys, the value types, the defaults and
the canonical key order.  Two sections are parsed by hand: ``[domain]``, a
``spectral.Domain`` whose kind's row in ``spectral._DOMAIN_TABLE`` gives its
length keys, and ``[run]``, with the legacy ``threads`` key.  ``parse_config``
only parses: each dataclass refuses its own bad values in ``__post_init__``,
calling the rule's runtime owner, so every caller of ``load_config`` refuses
what ``simulate`` refuses at set-up.
``build_problem_from_spec(spec)`` returns the problem at the configured level
alone, from one ``GalerkinProblem(level, horizon, initial_full, ...)`` call
with the preset initial data and the ``[noise]`` symbols stacked one channel a
row: its model is ``problem.level.model``, and ``converge`` truncates it at
coarser levels through ``solver.simulate_coupled``.

The canonical text form is deterministic (fixed section and key order,
``repr`` floats), so round-tripping a spec through text is the identity and
the sha256 of the canonical text is a stable fingerprint of the run.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math

import numpy as np

from .exceptions import ConfigurationError
from .noise import AtomicMeasure, RadialStableMeasure
from .nonlinear import Nonlinearity, validate_exponent
from .solver import GalerkinProblem, SolverConfig, check_closure
from .spectral import (_DOMAIN_TABLE, Domain, SpectralModel, build_level, build_spectral_model,
                       validate_model_parameters)

SYMBOL_PRESETS = ("constant", "cos", "sin", "bump")
INITIAL_PRESETS = ("decaying", "single_mode", "plateau")


# In the dataclass-driven sections the field order is the canonical key order:
# reordering a field changes every config_hash.

# annotations of the [noise] values that are not scalars (see _FIELD_TYPES)
Symbols = tuple[str, ...]                          # one preset name per channel
Atoms = tuple[tuple[tuple[float, ...], float], ...]  # ((mark...), weight) per atom


@dataclasses.dataclass(frozen=True, kw_only=True)
class GalerkinSpec:
    beta: float = 1.0
    max_level: int = 6
    level: int
    dealias_factor: int = 2

    def __post_init__(self):
        if not (0 <= self.level <= self.max_level):
            raise ConfigurationError(f"level must lie in [0, max_level={self.max_level}]")
        validate_model_parameters(self.beta, self.max_level, self.dealias_factor)


def _check_symbols(symbols: Symbols) -> None:
    for name in symbols:
        if name not in SYMBOL_PRESETS:
            raise ConfigurationError(
                f"unknown symbol preset {name!r}; choose from {SYMBOL_PRESETS}"
            )


@dataclasses.dataclass(frozen=True, kw_only=True)
class AtomicNoiseSpec:
    """Finitely many weighted atoms; ``epsilon = 0`` simulates every jump."""

    kind: str = "atomic"
    symbols: Symbols
    epsilon: float = 0.0
    atoms: Atoms

    def __post_init__(self):
        if {len(mark) for mark, _ in self.atoms} != {len(self.symbols)}:
            raise ConfigurationError(
                "every atom mark needs one component per symbol channel"
            )
        _check_symbols(self.symbols)

    def measure(self) -> AtomicMeasure:
        return AtomicMeasure(
            marks=np.array([mark for mark, _ in self.atoms], dtype=float),
            weights=np.array([weight for _, weight in self.atoms], dtype=float),
            epsilon=self.epsilon,
        )


@dataclasses.dataclass(frozen=True, kw_only=True)
class RadialStableNoiseSpec:
    """Density ``activity |l|^(-N-stability)`` on the unit ball of R^N."""

    kind: str = "radial_stable"
    symbols: Symbols
    epsilon: float
    activity: float
    stability: float

    def __post_init__(self):
        _check_symbols(self.symbols)

    def measure(self) -> RadialStableMeasure:
        return RadialStableMeasure(
            activity=self.activity, stability=self.stability,
            dimension=len(self.symbols), epsilon=self.epsilon,
        )


_NOISE_SPECS = {cls.kind: cls for cls in (AtomicNoiseSpec, RadialStableNoiseSpec)}


@dataclasses.dataclass(frozen=True)
class InitialSpec:
    preset: str = "decaying"
    rate: float = 0.5
    mode: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if self.preset not in INITIAL_PRESETS:
            raise ConfigurationError(
                f"unknown initial preset {self.preset!r}; choose from {INITIAL_PRESETS}"
            )


@dataclasses.dataclass(frozen=True)
class OutputSpec:
    save_states: bool = False
    save_events: bool = True


@dataclasses.dataclass(frozen=True)
class RunSpec:
    domain: Domain
    galerkin: GalerkinSpec
    solver: SolverConfig
    initial: InitialSpec
    horizon: float
    trajectories: int
    master_seed: int
    nonlinearity: Nonlinearity | None = None
    noise: AtomicNoiseSpec | RadialStableNoiseSpec | None = None
    output: OutputSpec = OutputSpec()

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.trajectories < 1:
            raise ConfigurationError(
                f"trajectories must be at least 1, got {self.trajectories}")
        # the streams hash the seed to 64 bits, and the bootstrap seeds numpy
        # with it unmasked: s and s + 2**64 would share paths but not bands
        if not 0 <= self.master_seed < 2**64:
            raise ConfigurationError(
                f"master_seed must lie in [0, 2**64), got {self.master_seed}"
            )
        if self.nonlinearity is not None:
            validate_exponent(self.nonlinearity, self.domain.dimension, self.galerkin.beta)
        check_closure(self.solver.closure,
                      None if self.noise is None else self.noise.measure())


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _require(section, known_keys):
    unknown = set(section.keys()) - set(known_keys)
    if unknown:
        raise ConfigurationError(
            f"unknown keys in [{section.name}]: {sorted(unknown)}"
        )


def _get(section, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigurationError(f"[{section.name}] is missing key {key!r}")
        return default
    raw = section[key].strip()
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"[{section.name}] {key} = {raw!r}: {exc}"
        ) from exc


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_atoms(raw: str):
    """Atoms as 'm1 m2 ... : weight' entries separated by ';'."""
    atoms = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"atom entry {chunk!r} lacks a ': weight' part")
        mark_part, weight_part = chunk.rsplit(":", 1)
        mark = tuple(_float(tok) for tok in mark_part.split())
        if not mark:
            raise ValueError(f"atom entry {chunk!r} has an empty mark")
        atoms.append((mark, _float(weight_part)))
    if not atoms:
        raise ValueError("no atoms given")
    return tuple(atoms)


def _format_atoms(atoms) -> str:
    return "; ".join(
        " ".join(repr(component) for component in mark) + " : " + repr(weight)
        for mark, weight in atoms
    )


# field annotation -> (parse, render)
_FIELD_TYPES = {
    "float": (_float, repr),
    "int": (int, str),
    "str": (str, str),
    "bool": (_bool, lambda value: "true" if value else "false"),
    "Symbols": (lambda raw: tuple(tok.strip() for tok in raw.split(",")),
                ", ".join),
    "Atoms": (_parse_atoms, _format_atoms),
}


def _parse_section(section, cls, required=()):
    """Build ``cls`` from ``section``, one key per field.

    A field without a default, or named in ``required``, must be given; any
    other absent key takes the field's default.
    """
    fields = dataclasses.fields(cls)
    _require(section, {f.name for f in fields})
    return cls(**{
        f.name: _get(section, f.name, _FIELD_TYPES[f.type][0], required=True)
        for f in fields
        if f.name in section or f.name in required
        or f.default is dataclasses.MISSING
    })


def _section_pairs(obj):
    """Canonical (key, text) pairs of a dataclass-driven section."""
    return [(f.name, _FIELD_TYPES[f.type][1](getattr(obj, f.name)))
            for f in dataclasses.fields(obj)]


def parse_config(text: str) -> RunSpec:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    known_sections = {"domain", "galerkin", "nonlinearity", "noise", "solver",
                      "initial", "run", "output"}
    present = set(parser.sections())
    unknown = present - known_sections
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    for name in ("domain", "galerkin", "solver", "initial", "run"):
        if name not in present:
            raise ConfigurationError(f"missing required section [{name}]")

    dom = parser["domain"]
    kind = _get(dom, "kind", str, required=True)
    if kind not in _DOMAIN_TABLE:
        raise ConfigurationError(f"domain kind must be one of {tuple(_DOMAIN_TABLE)}")
    keys = _DOMAIN_TABLE[kind].length_keys
    # a length key of another kind would be dropped silently
    _require(dom, ("kind",) + keys)
    domain = Domain(kind, tuple(_get(dom, key, _float, required=True) for key in keys))

    galerkin = _parse_section(parser["galerkin"], GalerkinSpec)

    nonlinearity = None
    if "nonlinearity" in present:
        nonlinearity = _parse_section(parser["nonlinearity"], Nonlinearity)

    noise = None
    if "noise" in present:
        noi = parser["noise"]
        noise_kind = _get(noi, "kind", str, required=True)
        if noise_kind not in _NOISE_SPECS:
            raise ConfigurationError(f"noise kind must be one of {tuple(_NOISE_SPECS)}")
        noise = _parse_section(noi, _NOISE_SPECS[noise_kind])

    solver = _parse_section(parser["solver"], SolverConfig, required=("dt",))

    initial = _parse_section(parser["initial"], InitialSpec)

    run = parser["run"]
    _require(run, {"horizon", "trajectories", "master_seed", "threads"})
    # legacy key: trajectories run serially, so the value is checked and dropped
    if _get(run, "threads", int, default=1) < 1:
        raise ConfigurationError("threads must be at least 1")

    output = OutputSpec()
    if "output" in present:
        output = _parse_section(parser["output"], OutputSpec)

    return RunSpec(
        domain=domain, galerkin=galerkin, solver=solver, initial=initial,
        horizon=_get(run, "horizon", _float, required=True),
        trajectories=_get(run, "trajectories", int, default=1),
        master_seed=_get(run, "master_seed", int, default=0),
        nonlinearity=nonlinearity, noise=noise, output=output,
    )


def load_config(path: str) -> RunSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


# ---------------------------------------------------------------------------
# canonical serialization and hashing
# ---------------------------------------------------------------------------

def canonical_text(spec: RunSpec) -> str:
    """Deterministic INI rendering: fixed order, repr floats, LF endings."""
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for key, value in pairs:
            out.write(f"{key} = {value}\n")
        out.write("\n")

    keys = _DOMAIN_TABLE[spec.domain.kind].length_keys
    section("domain", [("kind", spec.domain.kind)]
            + [(key, repr(L)) for key, L in zip(keys, spec.domain.lengths)])

    section("galerkin", _section_pairs(spec.galerkin))

    if spec.nonlinearity is not None:
        section("nonlinearity", _section_pairs(spec.nonlinearity))

    if spec.noise is not None:
        section("noise", _section_pairs(spec.noise))

    section("solver", _section_pairs(spec.solver))
    section("initial", _section_pairs(spec.initial))

    section("run", [
        ("horizon", repr(spec.horizon)),
        ("trajectories", spec.trajectories),
        ("master_seed", spec.master_seed),
    ])

    section("output", _section_pairs(spec.output))

    return out.getvalue()


def config_hash(spec: RunSpec) -> str:
    import hashlib  # OpenSSL costs start-up; only the outputs need the digest

    return hashlib.sha256(canonical_text(spec).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_model_from_spec(spec: RunSpec) -> SpectralModel:
    return build_spectral_model(
        spec.domain,
        beta=spec.galerkin.beta,
        max_level=spec.galerkin.max_level,
        dealias_factor=spec.galerkin.dealias_factor,
    )


def symbol_values(name: str, model: SpectralModel) -> np.ndarray:
    """Deterministic real symbol profiles on the quadrature grid."""
    x = model.grid_points[:, 0]
    length = model.domain.lengths[0]
    period = length if model.domain.periodic else 2.0 * length
    if name == "constant":
        return np.ones(model.num_grid)
    if name == "cos":
        return np.cos(2.0 * np.pi * x / period)
    if name == "sin":
        return np.sin(2.0 * np.pi * x / period)
    if name == "bump":
        width = length / 8.0
        return np.exp(-((x - 0.5 * length) ** 2) / (2.0 * width**2))
    raise ConfigurationError(f"unknown symbol preset {name!r}")


def initial_values(spec: RunSpec, model: SpectralModel) -> np.ndarray:
    """Deterministic full-space initial coefficients for the chosen preset."""
    ini = spec.initial
    lam = model.eigenvalues_S
    k = np.arange(model.num_modes)
    if ini.preset == "decaying":
        # smooth profile with fixed incommensurate phases
        phases = np.exp(2j * np.pi * ((np.sqrt(5.0) - 1.0) / 2.0) * k)
        # an overflowing profile is refused by renormalize_initial, by level
        with np.errstate(over="ignore", invalid="ignore"):
            return ini.scale * np.exp(-ini.rate * np.sqrt(lam)) * phases
    if ini.preset == "single_mode":
        if not (0 <= ini.mode < model.num_modes):
            raise ConfigurationError(
                f"mode index {ini.mode} outside the table of "
                f"{model.num_modes} modes"
            )
        out = np.zeros(model.num_modes, dtype=complex)
        out[ini.mode] = ini.scale
        return out
    if ini.preset == "plateau":
        # equal weight on every mode below the level threshold, zero above
        out = np.where(lam < 2.0 ** (spec.galerkin.level + 1), 1.0, 0.0)
        total = np.linalg.norm(out)
        return ini.scale * out.astype(complex) / (total if total else 1.0)
    raise ConfigurationError(f"unknown initial preset {ini.preset!r}")


def build_problem_from_spec(spec: RunSpec) -> GalerkinProblem:
    """The run's ready-to-integrate problem at the configured level."""
    model = build_model_from_spec(spec)
    initial = initial_values(spec, model)
    symbols = measure = None
    if spec.noise is not None:
        symbols = np.stack([symbol_values(name, model) for name in spec.noise.symbols])
        measure = spec.noise.measure()
    return GalerkinProblem(build_level(model, spec.galerkin.level), spec.horizon, initial,
                           spec.nonlinearity, symbols, measure)
