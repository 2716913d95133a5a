"""Properties of the CLI over configurations it may be handed.

One adversarial property: a shipped config with one or two keys of any
section set to an extreme or malformed value either runs or is refused with
exactly one ``error:`` line, and never prints a warning.  A section the
shipped file lacks is added with the one key.  The horizon is cut to one
step, and physical memory is taken to be 256 MiB, so a value that asks for a
large build is refused by the memory guards instead of allocating.  The step
may take at most 4 halvings of 20 fixed-point iterations each (the shipped
runs need at most 4 iterations): a stiff state, such as ``scale = 1_000``
with ``rate = 0``, otherwise spends minutes halving one step.
"""

import configparser
import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from jumpnls import spectral
from jumpnls.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(path.stem for path in CONFIG_DIR.glob("*.ini"))

#: values of the kinds that have broken runs: zero, signs, under- and
#: overflow, subnormals, other integer spellings (``1_000`` parses, ``0x10``
#: does not) and an empty value
POOL = ("0", "-1", "-1000", "1e-300", "5e-324", "1e300", "1_000", "0x10", "")

#: (section, key) sites a mutation may set, given or not in the shipped file
SITES = tuple((section, key) for section, keys in (
    ("initial", ("preset", "rate", "mode", "scale")),
    ("domain", ("kind", "length", "length_x", "length_y")),
    ("galerkin", ("beta", "max_level", "level", "dealias_factor")),
    ("nonlinearity", ("kind", "alpha")),
    ("noise", ("symbols", "epsilon", "atoms", "activity", "stability")),
    ("solver", ("mode", "dt", "closure", "fp_tol")),
    ("run", ("master_seed",)),
    ("output", ("save_states",)),
) for key in keys)


def mutated_config(name: str, edits) -> str:
    """The shipped config ``name`` with ``edits`` applied, one trajectory of one
    bounded step."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG_DIR / f"{name}.ini", encoding="utf-8")
    for (section, key), value in edits:
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    parser["solver"]["max_halvings"] = "4"
    parser["solver"]["max_fp_iters"] = "20"
    parser["run"]["horizon"] = parser["solver"]["dt"]
    parser["run"]["trajectories"] = "1"
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(config=st.sampled_from(CONFIGS),
       edits=st.lists(st.tuples(st.sampled_from(SITES), st.sampled_from(POOL)),
                      min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
@example(config="atomic_cubic", edits=[(("initial", "rate"), "-1000")])
@example(config="atomic_cubic", edits=[(("initial", "scale"), "1e300")])
@example(config="atomic_cubic", edits=[(("domain", "length"), "5e-324"),
                                       (("galerkin", "beta"), "5e-324")])
@example(config="stable_linear", edits=[(("domain", "length"), "1_000"),
                                        (("galerkin", "beta"), "1_000")])
def test_mutated_config_runs_or_is_refused_in_one_line(config, edits):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "run.ini"
        path.write_text(mutated_config(config, edits), encoding="utf-8")
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              mock.patch.object(spectral, "_physical_memory", lambda: 2**28),
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main(["simulate", "--config", str(path), "--out", str(Path(work) / "out")])
    err = err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        assert err == ""
