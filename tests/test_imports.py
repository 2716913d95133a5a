"""Static checks: every module uses each name it imports, every private
top-level name the package defines is read somewhere in the package,
``__all__`` lists exactly the names of the package's export table, no
run-path module imports ``verify`` at module level, only
``spectral.build_level`` and ``verify`` bind a transform pair, only
``solver._run_levels`` and ``solver.step_between_jumps`` pick a stepper,
only ``solver.GalerkinProblem`` and ``verify`` assemble noise operators,
``config`` names no domain constructor, only ``spectral.build_level`` builds a
``GalerkinLevel``, no module but ``spectral`` and ``verify`` adds 1 to the
``lambda_A`` eigenvalues, no module selects modes by an ``indices``
array, no module but ``spectral`` and ``oracles`` reads ``ea_weights``, no
function or class takes a ``model`` beside a ``level`` or a ``dim``, nor a
``level`` beside a ``num_modes``, no run-path module nor ``diagnostics``
imports ``oracles``, at any depth, and every ``.py`` file of the repository
parses as Python 3.10."""

import ast
import importlib
from pathlib import Path

import pytest

import jumpnls

PACKAGE_DIR = Path(jumpnls.__file__).resolve().parent
REPO_DIR = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def top_level_definitions(source: str) -> dict[str, int]:
    """Names a module's top-level functions, classes and assignments bind, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            defined.setdefault(name, node.lineno)
    return defined


def private_definitions(source: str) -> dict[str, int]:
    """Private top-level names (``_x``, not dunders) a module defines, with their lines."""
    return {name: line for name, line in top_level_definitions(source).items()
            if name.startswith("_") and not name.endswith("__")}


def names_read(source: str) -> set[str]:
    """Names a module loads, bare (``_x``) or as an attribute (``module._x``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names of any module that no module of the set reads."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return [f"{module} line {line}: {name}"
            for module, source in sorted(sources.items())
            for name, line in sorted(private_definitions(source).items())
            if name not in read]


def module_level_imports(source: str) -> set[str]:
    """Modules a source imports at module level, relative ones without their dots.

    ``from . import a`` counts as importing ``a``; imports inside functions
    are not counted.
    """
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module)
            if node.level and not node.module:
                found.update(alias.name for alias in node.names)
    return found


def top_level_sites(sources: dict[str, str], matches) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every node that ``matches``."""
    return [(module, getattr(node, "name", "<module>"))
            for module, source in sorted(sources.items())
            for node in ast.parse(source).body
            for inner in ast.walk(node) if matches(inner)]


def transform_pair_callers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``transform_pair`` call."""
    return top_level_sites(sources, lambda node: isinstance(node, ast.Call)
                           and getattr(node.func, "attr", None) == "transform_pair")


def stepper_lookups(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``_STEPPERS[...]``."""
    return top_level_sites(sources, lambda node: isinstance(node, ast.Subscript)
                           and getattr(node.value, "id", None) == "_STEPPERS")


def noise_assembly_callers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``assemble_noise_operators`` call."""
    return top_level_sites(sources, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == "assemble_noise_operators")


def level_constructors(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``GalerkinLevel(...)`` call."""
    return top_level_sites(sources, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == "GalerkinLevel")


def _reads_lambda_A(node) -> bool:
    return any(getattr(inner, "attr", getattr(inner, "id", None)) in ("eigenvalues_A", "lam")
               for inner in ast.walk(node))


def energy_weight_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``1 + x`` or ``x + 1``
    whose ``x`` reads ``eigenvalues_A`` or its solver alias ``lam``."""
    def matches(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            return False
        for one, other in ((node.left, node.right), (node.right, node.left)):
            if isinstance(one, ast.Constant) and one.value == 1 and _reads_lambda_A(other):
                return True
        return False
    return top_level_sites(sources, matches)


def mode_subset_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``x.indices`` read,
    ``indices=`` keyword passed or ``indices`` parameter named."""
    return top_level_sites(sources, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "indices"
        or isinstance(node, (ast.keyword, ast.arg)) and node.arg == "indices"))


def energy_weight_readers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every ``x.ea_weights`` read."""
    return top_level_sites(sources, lambda node: isinstance(node, ast.Attribute)
                           and node.attr == "ea_weights")


def oracle_importers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, top-level function or class) of every import of ``oracles``, at
    any depth: ``import jumpnls.oracles``, ``from .oracles import x``, ``from .
    import oracles`` or ``from jumpnls import oracles``."""
    def matches(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[-1] == "oracles" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return ((node.module or "").split(".")[-1] == "oracles"
                    or any(alias.name == "oracles" for alias in node.names))
        return False
    return top_level_sites(sources, matches)


#: parameter pairs that give an API a level's model or mode count beside
#: what already holds it: a level carries its model, and its model its dim
LEVEL_PARAMETER_PAIRS = ({"model", "level"}, {"model", "dim"}, {"level", "num_modes"})


def model_beside_level_sites(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of every function or method with parameters named as one
    of ``LEVEL_PARAMETER_PAIRS``, and of every class annotating one as fields."""
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            elif isinstance(node, ast.ClassDef):
                names = {getattr(stmt.target, "id", None) for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)}
            else:
                continue
            if any(pair <= names for pair in LEVEL_PARAMETER_PAIRS):
                found.append((module, node.name))
    return found


def domain_constructors(source: str) -> set[str]:
    """Top-level functions of a module annotated to return a ``Domain``."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.returns is not None
            and ast.unparse(node.returns).strip("'\"") == "Domain"}


def imported_names(source: str) -> set[str]:
    """Names a module imports with ``from ... import``, at any depth."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from .spectral import build_level, embed\n"
        "def f(x: np.ndarray):\n    return os.path.join(build_level(x))\n"
    )
    assert unused_imports(source) == ["line 5: embed", "line 2: math"]


def test_checker_flags_unread_private_names():
    sources = {
        "a.py": (
            "__all__ = []\n_KINDS = (1, 2)\n_TABLE, _spare = {}, None\n"
            "def _helper():\n    return _TABLE\n"
            "class _Row:\n    pass\n"
            "def public():\n    _local = 1\n    return _Row\n"
        ),
        "b.py": "from . import a\nx = a._helper()\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _KINDS", "a.py line 3: _spare"]


def test_checker_finds_module_level_imports():
    source = ("import os.path\nfrom . import verify as v, solver\n"
              "from .config import load_config\nfrom jumpnls.verify import run_checks\n"
              "def f():\n    from . import diagnostics\n    import hashlib\n")
    assert module_level_imports(source) == {"os.path", "verify", "solver", "config",
                                            "jumpnls.verify"}


#: modules a simulate, converge or moments run loads
RUN_PATH = ("cli", "config", "solver", "jumps", "spectral", "noise", "nonlinear")


def test_run_path_imports_verify_only_on_demand():
    # the check battery is compiled only by ``jumpnls verify``; a module-level
    # import on the run path would load it for every command
    for module in RUN_PATH:
        source = (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")
        assert not any(name.split(".")[-1] == "verify"
                       for name in module_level_imports(source)), module


def test_checker_finds_oracle_importers():
    sources = {
        "a.py": ("from .oracles import energy\n"
                 "def run():\n    from . import oracles\n"
                 "class Check:\n    def f(self):\n        import jumpnls.oracles as o\n"),
        "b.py": ("from jumpnls import oracles, spectral\n"
                 "from .diagnostics import ensemble_moments\nimport oracles_extra\n"
                 "def g(oracles):\n    return oracles.energy\n"),
    }
    assert oracle_importers(sources) == [("a.py", "<module>"), ("a.py", "run"),
                                         ("a.py", "Check"), ("b.py", "<module>")]


def test_run_path_never_imports_the_oracles():
    # the oracles are compiled only by verify and the tests; an import on the
    # run path, even inside a function, would put them back in a run
    sources = {f"{module}.py": (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")
               for module in RUN_PATH + ("diagnostics",)}
    assert oracle_importers(sources) == []


def test_checker_finds_transform_pair_callers():
    sources = {
        "a.py": ("def build():\n    return model.transform_pair(idx)\n"
                 "class Ops:\n    def bind(self):\n        self.model.transform_pair()\n"
                 "pair = model.transform_pair()\n"),
        "b.py": "x = model.transform_pair\n",
    }
    assert transform_pair_callers(sources) == [("a.py", "build"), ("a.py", "Ops"),
                                               ("a.py", "<module>")]


def test_only_build_level_binds_a_transform_pair():
    # one binding site on the run path: each level owns its pair, and the
    # drift workspace and the noise operators read it; verify compares the
    # pair with the transforms
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    callers = [c for c in transform_pair_callers(sources) if c[0] != "verify.py"]
    assert callers == [("spectral.py", "build_level")]


def test_checker_finds_noise_assembly_callers():
    sources = {
        "a.py": ("def build():\n    return assemble_noise_operators(m, lv, s)\n"
                 "class Problem:\n    def __post_init__(self):\n"
                 "        jumps.assemble_noise_operators(m, lv, s)\n"
                 "ops = assemble_noise_operators(m, lv, s)\n"),
        "b.py": ("f = jumps.assemble_noise_operators\n"
                 "def assemble_noise_operators(m, lv, s):\n    return s\n"),
    }
    assert noise_assembly_callers(sources) == [("a.py", "build"), ("a.py", "Problem"),
                                               ("a.py", "<module>")]


def test_only_the_problem_assembles_noise_operators():
    # a problem assembles its operators on its own model and level, so no
    # operators of another level can reach its drift; verify builds oracles
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    callers = [c for c in noise_assembly_callers(sources) if c[0] != "verify.py"]
    assert callers == [("solver.py", "GalerkinProblem")]


def test_checker_finds_level_constructors():
    sources = {
        "a.py": ("def build_level(model, n):\n    return GalerkinLevel(n, idx, m)\n"
                 "class Coupled:\n    def coarse(self):\n"
                 "        return spectral.GalerkinLevel(0, idx, m)\n"
                 "level = GalerkinLevel(1, idx, m)\n"),
        "b.py": ("from .spectral import GalerkinLevel\n"
                 "def f(level: GalerkinLevel) -> GalerkinLevel:\n    return level\n"),
    }
    assert level_constructors(sources) == [("a.py", "build_level"), ("a.py", "Coupled"),
                                           ("a.py", "<module>")]


def test_only_build_level_constructs_a_level():
    # a level is a prefix of its model's mode table because build_level keeps
    # it so; the coupled run embeds a coarse state as that prefix
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert level_constructors(sources) == [("spectral.py", "build_level")]


def test_checker_finds_energy_weight_sites():
    sources = {
        "a.py": ("def record(dyn):\n    return 1.0 + dyn.lam\n"
                 "class Ops:\n    def bound(self):\n"
                 "        return np.sqrt(self.model.eigenvalues_A[idx] + 1)\n"
                 "w = 1 + model.eigenvalues_A\n"),
        "b.py": ("def f(model, lam):\n    return 2.0 + model.eigenvalues_A, lam + 1.5, "
                 "1.0 + model.eigenvalues_S, model.ea_weights\n"),
    }
    assert energy_weight_sites(sources) == [("a.py", "record"), ("a.py", "Ops"),
                                            ("a.py", "<module>")]


def test_only_spectral_adds_one_to_lambda_A():
    # the model computes ea_weights = 1 + lambda_A once and each level holds a
    # view of it; verify's oracles recompute it on purpose
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")
               if p.name not in ("spectral.py", "verify.py")}
    assert energy_weight_sites(sources) == []


def test_checker_finds_mode_subset_sites():
    sources = {
        "a.py": ("def project(level, u):\n    return u[level.indices]\n"
                 "class Model:\n    def synthesize(self, c, indices=None):\n        return c\n"
                 "f = eval_F(model, nl, u, indices=idx)\n"),
        "b.py": ("def f(level, indices, dim=None):\n    return level.dim, indices\n"
                 "def g(x):\n    return np.take(x, idx), x.index(1)\n"),
    }
    assert mode_subset_sites(sources) == [("a.py", "project"), ("a.py", "Model"),
                                          ("a.py", "<module>"), ("b.py", "f")]


def test_no_module_selects_modes_by_indices():
    # a level is the first dim modes of its model's table, so every mode set
    # is a prefix count: ``dim`` and ``[:dim]``, never an index array
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert mode_subset_sites(sources) == []


def test_checker_finds_energy_weight_readers():
    sources = {
        "a.py": ("def record(level, u):\n    return level.ea_weights @ abs(u) ** 2\n"
                 "class Coupled:\n    def gap(self):\n"
                 "        return 1.0 / self.problem.level.ea_weights\n"
                 "w = model.ea_weights[:dim]\n"),
        "b.py": ("def f(level, ea_weights):\n    return level.ea_norm(ea_weights)\n"
                 "ea_weights = 1.0\n"),
    }
    assert energy_weight_readers(sources) == [("a.py", "record"), ("a.py", "Coupled"),
                                              ("a.py", "<module>")]


def test_only_spectral_and_oracles_read_ea_weights():
    # a level owns its E_A and E_A* norms (GalerkinLevel.ea_norm, dual_norm);
    # the record and the coupled run call them.  The
    # sobolev_norm and bound_EA oracles read the weights themselves
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")
               if p.name not in ("spectral.py", "oracles.py")}
    assert energy_weight_readers(sources) == []


def test_checker_finds_a_model_beside_a_level():
    sources = {
        "a.py": ("def assemble(model, level, symbols):\n    return symbols\n"
                 "class Ops:\n    def product(self, mark, *, model=None, level=None):\n"
                 "        return mark\n"
                 "@dataclasses.dataclass\nclass Problem:\n    model: object\n"
                 "    level: object\n    horizon: float\n"),
        "b.py": ("def build(model, level_n):\n    return model\n"
                 "def run(level, state, dim=None):\n    return level.model\n"
                 "class Record:\n    level: object\n    def bind(self, model):\n"
                 "        self.model = model\n"),
        "c.py": ("def eval_F(model, nl, u, dim=None):\n    return u\n"
                 "def embed(level, c, num_modes):\n    return c\n"
                 "class Model:\n    def synthesize(self, c, dim=None):\n        return c\n"
                 "def pad(c, num_modes, *, model):\n    return c\n"),
    }
    assert sorted(model_beside_level_sites(sources)) == [("a.py", "Problem"), ("a.py", "assemble"),
                                                         ("a.py", "product"), ("c.py", "embed"),
                                                         ("c.py", "eval_F")]


def test_no_api_takes_a_model_beside_a_level():
    # a level carries its model (``GalerkinLevel.model``, bound by
    # build_level) and its mode count (``GalerkinLevel.dim``), so an API given
    # a model and a count, or a level and its model's count, could be given
    # two that do not match; all modes are the model's top level
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert model_beside_level_sites(sources) == []


def test_checker_finds_domain_constructors_and_imported_names():
    source = ("from .spectral import torus_1d as t, Domain\n"
              "class Domain:\n    pass\n"
              "def disc(radius) -> Domain:\n    return Domain()\n"
              "def ring(radius) -> 'Domain':\n    return Domain()\n"
              "def build(domain: Domain) -> Model:\n    return Model()\n"
              "def scan(domain):\n    from .spectral import _DOMAIN_TABLE\n")
    assert domain_constructors(source) == {"disc", "ring"}
    assert imported_names(source) == {"torus_1d", "Domain", "_DOMAIN_TABLE"}


def test_config_imports_no_domain_constructor():
    # ``[domain]`` parses straight into a ``spectral.Domain`` through the
    # domain table; a constructor named in config would be a second table
    constructors = domain_constructors((PACKAGE_DIR / "spectral.py").read_text(encoding="utf-8"))
    assert constructors == {"torus_1d", "torus_2d", "interval_dirichlet", "interval_neumann"}
    config = (PACKAGE_DIR / "config.py").read_text(encoding="utf-8")
    assert not constructors & (imported_names(config) | names_read(config))


def test_checker_finds_stepper_lookups():
    sources = {"a.py": ("_STEPPERS = {}\ndef run():\n    return _STEPPERS[mode](x)\n"
                        "def check(mode):\n    return mode in _STEPPERS, tuple(_STEPPERS)\n"
                        "class Loop:\n    def step(self):\n        _STEPPERS['a'] = None\n")}
    assert stepper_lookups(sources) == [("a.py", "run"), ("a.py", "Loop")]


def test_one_step_loop_picks_the_stepper():
    # the jump-free path and every trajectory advance through ``_run_levels``;
    # a second step loop would have to look up a stepper of its own
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert stepper_lookups(sources) == [("solver.py", "step_between_jumps"),
                                        ("solver.py", "_run_levels")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")}
    assert unread_private_names(sources) == []


def test_all_lists_exactly_the_imported_names():
    # the package imports each public name from the module its export table
    # names; a name deleted from that module but left in the table fails here
    table = jumpnls._EXPORTS
    assert len(set(jumpnls.__all__)) == len(jumpnls.__all__)
    assert sorted(jumpnls.__all__) == sorted(table)
    for name in jumpnls.__all__:
        source = (PACKAGE_DIR / f"{table[name]}.py").read_text(encoding="utf-8")
        assert name in top_level_definitions(source), (name, table[name])
        assert getattr(jumpnls, name) is getattr(
            importlib.import_module(f"jumpnls.{table[name]}"), name)
    assert set(jumpnls.__all__) <= set(dir(jumpnls))


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml accepts 3.10, so no file of the package, its tests, its
    # tools or its benchmark may use syntax that only a later parser reads
    paths = [p for top in ("src", "tests", "tools", "perfbench")
             for p in sorted((REPO_DIR / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
