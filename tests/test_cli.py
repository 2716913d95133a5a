"""End-to-end command line tests: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jumpnls
from jumpnls import spectral
from jumpnls.cli import main
from jumpnls.jumps import jump_map
from jumpnls.solver import simulate_coupled

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
WORKLOAD_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

FAST_CONFIG = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
beta = 1.0
max_level = 5
level = 3
dealias_factor = 2

[nonlinearity]
kind = defocusing
alpha = 3.0

[noise]
kind = atomic
symbols = cos
epsilon = 0.0
atoms = 0.5 : 3.0; -0.5 : 3.0

[solver]
mode = FaithfulMidpoint
dt = 0.05
closure = Taylor2
fp_tol = 1e-12
max_fp_iters = 100
max_halvings = 20

[initial]
preset = decaying
rate = 0.5
mode = 0
scale = 1.0

[run]
horizon = 0.4
trajectories = 3
master_seed = 5
threads = 1

[output]
save_states = true
save_events = true
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return str(path)


def read(path: Path) -> bytes:
    return path.read_bytes()


def test_simulate_outputs(fast_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", fast_config, "--out", str(out)]) == 0
    assert "wrote 3 trajectories" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["config_hash"]) == 64
    assert summary["trajectories"] == 3
    assert summary["level"] == 3
    assert len(summary["trajectory_seeds"]) == 3
    assert len(summary["final_mass"]) == 3
    assert "ensemble" in summary

    csv_lines = (out / "traj_0000.csv").read_text().splitlines()
    assert csv_lines[0] == "t,mass,kinetic,potential,energy,ea_norm"
    first = [float(tok) for tok in csv_lines[1].split(",")]
    assert first[0] == 0.0
    # every row parses to six finite floats
    for line in csv_lines[1:]:
        values = [float(tok) for tok in line.split(",")]
        assert len(values) == 6 and all(np.isfinite(values))

    states = np.load(out / "states_0000.npy")
    assert states.ndim == 2 and states.dtype == complex
    assert len(states) == len(csv_lines) - 1

    events = (out / "events_0000.csv").read_text().splitlines()
    assert events[0] == "time,mark_0"
    assert len(events) - 1 == summary["event_counts"][0]

    assert (out / "config.ini").exists()


def test_simulate_byte_identical_and_thread_invariant(fast_config, tmp_path):
    # the legacy [run] threads key is accepted and changes nothing, not even
    # the config hash or the canonical config
    legacy = tmp_path / "legacy.ini"
    legacy.write_text(FAST_CONFIG.replace("threads = 1", "threads = 3"),
                      encoding="utf-8")
    outs = []
    for name, config in (("a", fast_config), ("b", fast_config),
                         ("c", str(legacy))):
        out = tmp_path / name
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        outs.append(out)
    a, b, c = outs
    names = sorted(p.name for p in a.iterdir())
    assert "summary.json" in names and "config.ini" in names
    assert "states_0002.npy" in names
    for other in (b, c):
        assert sorted(p.name for p in other.iterdir()) == names
        for fname in names:
            assert read(a / fname) == read(other / fname), (other.name, fname)


def test_trajectory_files_independent_of_trajectory_count(fast_config, tmp_path):
    # trajectory k's seed and path depend on k alone, so a longer ensemble
    # only adds files
    outs = {}
    for count in (2, 3):
        out = outs[count] = tmp_path / f"n{count}"
        assert main(["simulate", "--config", fast_config, "--out", str(out),
                     "--trajectories", str(count)]) == 0
    assert (outs[3] / "traj_0002.csv").exists()
    assert not (outs[2] / "traj_0002.csv").exists()
    for k in range(2):
        for fname in (f"traj_{k:04d}.csv", f"events_{k:04d}.csv", f"states_{k:04d}.npy"):
            assert read(outs[2] / fname) == read(outs[3] / fname), fname


def test_simulate_reports_fp_iters_max(fast_config, tmp_path):
    # the deterministic midpoint counter is reported per trajectory and is
    # the same on a rerun
    summaries = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", fast_config, "--out", str(out)]) == 0
        summaries.append(json.loads((out / "summary.json").read_text()))
    iters = summaries[0]["fp_iters_max"]
    assert len(iters) == 3
    assert all(isinstance(k, int) and k >= 1 for k in iters)
    assert summaries[1]["fp_iters_max"] == iters


# linear and noiseless on a 3-mode level, so the run is the time grid: 2001
# nodes of horizon 1 at dt 5e-4
LONG_CONFIG = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
max_level = 2
level = 1

[solver]
dt = 0.0005

[initial]
preset = decaying
rate = 0.5

[run]
horizon = 1.0
trajectories = 1
master_seed = 5
"""


def test_simulate_memory_independent_of_trajectory_count(tmp_path):
    # each trajectory is reduced to its summary row once its CSV rows are
    # written, so the run's peak is one trajectory's, whatever K
    config = tmp_path / "long.ini"
    config.write_text(LONG_CONFIG, encoding="utf-8")

    def traced_peak(count):
        out = tmp_path / f"n{count}"
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(config), "--out", str(out),
                         "--trajectories", str(count)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak, out

    traced_peak(1)  # warm-up: first-call imports and caches
    peak_2, out = traced_peak(2)
    peak_6, _ = traced_peak(6)
    nodes = len((out / "traj_0000.csv").read_text().splitlines()) - 1
    assert nodes == 2001
    assert abs(peak_6 - peak_2) < 64 * 2**10
    # the time-grid guard's estimate is 56 B per node for one level
    assert max(peak_2, peak_6) < 3 * 56 * nodes


def test_simulate_seed_override_changes_path(fast_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", fast_config, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", fast_config, "--out", str(out2),
                 "--seed", "6"]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["config_hash"] != s2["config_hash"]
    assert s1["trajectory_seeds"] != s2["trajectory_seeds"]


def test_converge_json(fast_config, capsys):
    assert main(["converge", "--config", fast_config, "--levels", "1,2",
                 "--trajectories", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fine_level"] == 3
    assert payload["levels"] == [1, 2]
    for key in ("1", "2"):
        assert len(payload["distances"][key]) == 2
        assert all(np.isfinite(payload["distances"][key]))
        assert payload["mean_distance"][key] >= 0.0


def test_converge_level_does_not_depend_on_the_other_levels(fast_config, capsys):
    # every coarse level of a trajectory sees the one jump path sampled for it
    payloads = []
    for levels in ("1", "1,2"):
        assert main(["converge", "--config", fast_config, "--levels", levels]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    alone, both = payloads
    assert alone["distances"]["1"] == both["distances"]["1"]
    assert alone["mean_distance"]["1"] == both["mean_distance"]["1"]


def test_converge_drives_each_trajectory_with_its_simulate_path(tmp_path, monkeypatch):
    # trajectory k sees one jump path, whichever command runs it
    config = str(CONFIG_DIR / "atomic_cubic.ini")
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out),
                 "--trajectories", "2"]) == 0
    paths = []

    def recording(low, high, config, events):
        paths.append(events)
        return simulate_coupled(low, high, config, events)

    monkeypatch.setattr(jumpnls.cli, "simulate_coupled", recording)
    assert main(["converge", "--config", config, "--levels", "4",
                 "--trajectories", "2"]) == 0
    assert len(paths) == 2
    for k, events in enumerate(paths):
        rows = (out / f"events_{k:04d}.csv").read_text().splitlines()[1:]
        assert events
        assert [[e.time, *e.mark] for e in events] == [
            [float(tok) for tok in row.split(",")] for row in rows
        ]


def test_converge_rejects_non_coarser_levels(fast_config, capsys):
    assert main(["converge", "--config", fast_config, "--levels", "3"]) == 2
    assert "coarser" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_trajectories_override_below_one_rejected(fast_config, tmp_path, capsys, count):
    out = tmp_path / "out"
    assert main(["simulate", "--config", fast_config, "--out", str(out),
                 "--trajectories", count]) == 2
    assert "--trajectories must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["converge", "--config", fast_config, "--levels", "1,2",
                 "--trajectories", count]) == 2
    captured = capsys.readouterr()
    assert "--trajectories must be at least 1" in captured.err
    assert captured.out == ""


def test_converge_rejects_duplicate_levels(fast_config, capsys):
    assert main(["converge", "--config", fast_config, "--levels", "2,1,2"]) == 2
    captured = capsys.readouterr()
    assert "repeats a level" in captured.err
    assert captured.out == ""


def test_verify_subcommand(capsys):
    assert main(["verify", "--only", "seed_streams,cutoff_branches"]) == 0
    out = capsys.readouterr().out
    assert "PASS seed_streams" in out
    assert "2/2 checks passed" in out
    assert main(["verify", "--only", ","]) == 2
    assert "no checks selected" in capsys.readouterr().err


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "jump_unitarity" in lines
    assert len(lines) >= 25


def test_verify_bad_tol_scale(capsys):
    assert main(["verify", "--tol-scale", "0"]) == 2
    assert "tol_scale" in capsys.readouterr().err


def test_moments_atomic(capsys):
    config = str(CONFIG_DIR / "atomic_cubic.ini")
    assert main(["moments", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "atomic"
    assert payload["simulated_intensity"] == pytest.approx(4.0)
    assert payload["mean_simulated"] == [0.0]
    assert payload["variance_budget"] == 0.0


def test_moments_radial(capsys):
    config = str(CONFIG_DIR / "stable_linear.ini")
    assert main(["moments", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "radial_stable"
    assert payload["channels"] == 2
    assert payload["variance_budget"] > 0
    second = np.array(payload["second_moment_small"])
    assert second.shape == (2, 2)
    assert np.allclose(second, second.T)


def test_moments_requires_noise(tmp_path, capsys):
    config = str(CONFIG_DIR / "deterministic_cubic.ini")
    assert main(["moments", "--config", config]) == 2
    assert "no [noise] section" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_numerics_error_names_trajectory_and_time(tmp_path, capsys):
    # a fixed-point budget that cannot converge without halving fails in the
    # first step of the first trajectory, which ends at the first grid node
    # or at an earlier jump
    config = tmp_path / "stiff.ini"
    config.write_text(
        FAST_CONFIG.replace("alpha = 3.0", "alpha = 5.0")
        .replace("max_fp_iters = 100", "max_fp_iters = 2")
        .replace("max_halvings = 20", "max_halvings = 0")
        .replace("scale = 1.0", "scale = 5.0")
        .replace("dt = 0.05", "dt = 0.4"),
        encoding="utf-8",
    )
    code = main(["simulate", "--config", str(config), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "trajectory 0:" in err
    assert "step t=0.0 -> " in err and "(dt=" in err
    assert "failed to converge" in err
    assert main(["converge", "--config", str(config), "--levels", "2"]) == 2
    err = capsys.readouterr().err
    assert "trajectory 0: level 2: step t=0.0 -> " in err and "(dt=" in err
    assert "failed to converge" in err


@pytest.mark.parametrize("config,old,new,needle", [
    ("deterministic_cubic", "horizon = 1.0", "horizon = inf", "not a finite number"),
    ("atomic_cubic", "atoms = 0.45 : 2.0", "atoms = 0.45 : inf", "not a finite number"),
    ("deterministic_cubic", "rate = 0.5", "rate = nan", "not a finite number"),
    ("deterministic_cubic", "max_level = 6", "max_level = 1100", "max_level = 1100 with beta"),
    ("deterministic_cubic", "beta = 1.0", "beta = 1e-3", "max_level = 6 with beta = 0.001"),
    ("deterministic_cubic", "horizon = 1.0", "horizon = 1e12", "time nodes"),
    ("deterministic_cubic", "dt = 0.001", "dt = 1e-300", "time nodes"),
    ("atomic_cubic", "atoms = 0.45 : 2.0", "atoms = 0.45 : 1e300", "expected jump events"),
    ("converge-2d", "dealias_factor = 2", "dealias_factor = 100000", "quadrature grid"),
    ("deterministic_cubic", "beta = 1.0", "beta = 1000", "beta = 1000.0 on lengths"),
    ("deterministic_cubic", "length = 6.283185307179586", "length = 1e-300",
     "lengths (1e-300,)"),
    ("stable_linear", "epsilon = 0.1", "epsilon = 5e-324",
     "epsilon = 5e-324 with stability = 1.2"),
])
def test_unrunnable_values_fail_with_configuration_error(tmp_path, capsys, monkeypatch,
                                                         config, old, new, needle):
    # each of these used to end in a traceback (OverflowError, MemoryError,
    # numpy's size or Poisson limits) or a misleading NumericsError
    source = CONFIG_DIR / f"{config}.ini"
    if not source.exists():
        source = WORKLOAD_DIR / f"{config}.ini"
    text = source.read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "run.ini"
    path.write_text(text.replace(old, new), encoding="utf-8")
    monkeypatch.setattr(spectral, "_physical_memory", lambda: 8 * 2**30)
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err and "Traceback" not in err
    assert peak < 2**26  # refused before any large allocation


def test_shipped_configs_simulate(tmp_path):
    # the shipped examples stay runnable end to end (trimmed for speed)
    config = str(CONFIG_DIR / "stable_linear.ini")
    out = tmp_path / "ship"
    assert main(["simulate", "--config", config, "--out", str(out),
                 "--trajectories", "1"]) == 0
    assert (out / "traj_0000.csv").exists()


def test_import_loads_no_scipy():
    # scipy costs most of start-up; only interval transforms, the flow oracle
    # and verify's quadrature import it, on first use
    probe = "import sys, jumpnls; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_runs_leave_numpy_ma_unimported(fast_config, tmp_path):
    # np.union1d and np.quantile import numpy.ma, 9-12 ms of start-up; the
    # time grid and the bootstrap bands avoid them.  scipy.fft imports it on
    # interval domains, so the probe runs on a torus
    probe = ("import sys; from jumpnls.cli import main; "
             "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    for argv in (["simulate", "--config", fast_config, "--out", str(tmp_path / "sim")],
                 ["converge", "--config", fast_config, "--levels", "1,2"]):
        out = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert out.stdout.strip().splitlines()[-1] == "0 False", argv


def test_converge_on_transform_served_levels_builds_no_matrices(tmp_path, monkeypatch):
    # converge-2d with more jumps: levels 4, 5 and 6 (dims 97, 193, 401 on
    # 1024 nodes) are transform-served and the drift has no noise term, so
    # the jumps run matrix-free and the run stays below one level-6 operator.
    # Marks +-0.5 keep the mean exactly 0 (+-0.45 at weight 40 sum to a
    # round-off mean of -4.4e-16, whose drift term reads the matrices)
    text = (WORKLOAD_DIR / "converge-2d.ini").read_text(encoding="utf-8")
    atoms = "0.45 : 2; -0.45 : 2"
    assert atoms in text
    config = tmp_path / "converge.ini"
    config.write_text(text.replace(atoms, "0.5 : 40; -0.5 : 40"), encoding="utf-8")
    jumps_applied = []

    def counting(ops, mark, state):
        jumps_applied.append(ops.dim)
        return jump_map(ops, mark, state)

    monkeypatch.setattr(jumpnls.solver, "jump_map", counting)
    tracemalloc.start()
    try:
        code = main(["converge", "--config", str(config), "--levels", "4,5",
                     "--trajectories", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert set(jumps_applied) == {97, 193, 401}
    assert peak < 16 * 401**2
