"""End-to-end command line tests: outputs, determinism, exit codes."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import jumpnls
from jumpnls import cli, noise, oracles, spectral
from jumpnls.cli import _jump_path, _trajectory_rows, main
from jumpnls.config import build_model_from_spec, build_problem_from_spec, load_config
from jumpnls.exceptions import NumericsError
from jumpnls.jumps import jump_map
from jumpnls.solver import simulate, simulate_coupled

from conftest import branch_nodes

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


def traced_peaks(tmp_path, text):
    """Traced peaks of ``simulate`` runs of ``text`` with 2 and 6 trajectories."""
    config = tmp_path / "long.ini"
    config.write_text(text, encoding="utf-8")

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

    # warm-up: first-call imports and caches, with K >= 2 so that the
    # ensemble moments run too
    traced_peak(2)
    peak_2, out = traced_peak(2)
    peak_6, _ = traced_peak(6)
    return peak_2, peak_6, out


def test_simulate_memory_independent_of_trajectory_count(tmp_path):
    # each trajectory is reduced to its summary row once its CSV rows are
    # written, so the run's peak is one trajectory's and the jump-free
    # path's, whatever K
    peak_2, peak_6, out = traced_peaks(tmp_path, LONG_CONFIG)
    nodes = len((out / "traj_0000.csv").read_text().splitlines()) - 1
    assert nodes == 2001
    assert abs(peak_6 - peak_2) < 64 * 2**10
    # the time-grid guard's estimate is 48 B per node for one level
    assert max(peak_2, peak_6) < 3 * 48 * nodes


def test_noisy_simulate_memory_independent_of_trajectory_count(tmp_path):
    # with jumps the trajectories branch off the jump-free path at different
    # nodes; the run still holds one record beside the path's, whatever K
    noisy = LONG_CONFIG + "\n[noise]\nkind = atomic\nsymbols = cos\natoms = 0.3 : 2.0\n"
    peak_2, peak_6, out = traced_peaks(tmp_path, noisy)
    summary = json.loads((out / "summary.json").read_text())
    assert all(count > 0 for count in summary["event_counts"])
    assert abs(peak_6 - peak_2) < 64 * 2**10


# linear on a 3-mode level with 200 jumps expected per path of horizon 1; the
# marks are below the Chebyshev series' cutoff, so a jump costs one product
BUSY_CONFIG = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
max_level = 2
level = 1

[noise]
kind = atomic
symbols = cos
atoms = 1e-18 : 100.0; -1e-18 : 100.0

[solver]
dt = 0.25

[initial]
preset = decaying

[run]
horizon = 1.0
master_seed = 5
"""


def test_simulate_holds_one_jump_path_at_a_time(tmp_path, monkeypatch):
    # a path is drawn again from its stream when its trajectory runs, and
    # each is dropped before the next draw, so no drawn path outlives the
    # next one.  Its 16 B per jump are below the spread of traced peaks, so
    # the live paths are counted, not weighed
    live, live_at_draw = [], []

    def draw(*args):
        path = noise.sample_prm(*args)
        live[:] = [ref for ref in live if ref() is not None] + [weakref.ref(path)]
        live_at_draw.append(len(live))
        return path

    monkeypatch.setattr(cli, "sample_prm", draw)
    config = tmp_path / "busy.ini"
    config.write_text(BUSY_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--trajectories", "6"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert min(summary["event_counts"]) > 150
    assert live_at_draw == [1] * 12


def test_noiseless_trajectories_are_the_jump_free_path(tmp_path):
    # without noise every trajectory copies the whole jump-free path, which
    # is the run of one trajectory without it
    config = tmp_path / "quiet.ini"
    config.write_text(FAST_CONFIG[:FAST_CONFIG.index("[noise]")]
                      + FAST_CONFIG[FAST_CONFIG.index("[solver]"):], encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    spec = load_config(str(config))
    record = simulate(build_problem_from_spec(spec), spec.solver, noise.JumpPath())
    for k in range(3):
        assert (out / f"traj_{k:04d}.csv").read_text() == "".join(_trajectory_rows(record))
        assert np.load(out / f"states_{k:04d}.npy").tobytes() == record.states.tobytes()
    assert not (out / "events_0000.csv").exists()


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

    def recording(problem, level_n, config, path):
        paths.append(path)
        return simulate_coupled(problem, level_n, config, path)

    monkeypatch.setattr(jumpnls.solver, "simulate_coupled", recording)
    assert main(["converge", "--config", config, "--levels", "4",
                 "--trajectories", "2"]) == 0
    assert len(paths) == 2
    for k, path in enumerate(paths):
        rows = (out / f"events_{k:04d}.csv").read_text().splitlines()[1:]
        assert len(path)
        assert np.column_stack([path.times, path.marks]).tolist() == [
            [float(tok) for tok in row.split(",")] for row in rows
        ]


def test_converge_rejects_non_coarser_levels(fast_config, capsys):
    assert main(["converge", "--config", fast_config, "--levels", "3"]) == 2
    assert "coarser" in capsys.readouterr().err


def test_converge_refuses_a_non_coarser_level_before_drawing_a_path(fast_config, capsys,
                                                                    monkeypatch):
    # level 1 is coarser than the configured level 3 and would run first
    draws = []
    monkeypatch.setattr(cli, "sample_prm", lambda *args: draws.append(args))
    assert main(["converge", "--config", fast_config, "--levels", "1,3"]) == 2
    assert "error: coupled level 3 must be coarser" in capsys.readouterr().err
    assert draws == []


@pytest.mark.parametrize("count", ["0", "-1"])
def test_trajectories_override_below_one_rejected(fast_config, tmp_path, capsys, count):
    out = tmp_path / "out"
    assert main(["simulate", "--config", fast_config, "--out", str(out),
                 "--trajectories", count]) == 2
    assert f"error: trajectories must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["converge", "--config", fast_config, "--levels", "1,2",
                 "--trajectories", count]) == 2
    captured = capsys.readouterr()
    assert f"error: trajectories must be at least 1, got {count}" in captured.err
    assert captured.out == ""


def test_trajectory_bookkeeping_slope_stays_below_its_constant(tmp_path, monkeypatch):
    # summary.json is streamed chunk by chunk, so what a trajectory adds to the
    # run's peak is its summary entries, not their JSON text.  The peak is
    # taken from the start of the summary's encoding, after a collection, so
    # the bootstrap's fixed blocks and leftover garbage do not count
    config = tmp_path / "quiet.ini"
    text = (FAST_CONFIG[:FAST_CONFIG.index("[noise]")]
            + FAST_CONFIG[FAST_CONFIG.index("[solver]"):])
    text = text.replace("horizon = 0.4", "horizon = 0.05")
    config.write_text(text.replace("save_states = true", "save_states = false"),
                      encoding="utf-8")
    real = cli._json_chunks

    def traced(payload):
        gc.collect()
        tracemalloc.reset_peak()
        yield from real(payload)

    monkeypatch.setattr(cli, "_json_chunks", traced)

    def traced_peak(count):
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(config), "--out",
                         str(tmp_path / f"n{count}"), "--trajectories", str(count)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    traced_peak(2)  # warm-up
    low, high = traced_peak(200), traced_peak(800)
    assert (high - low) / 600 < cli.TRAJECTORY_BYTES


def test_trajectory_bookkeeping_refused_beyond_physical_memory(fast_config, tmp_path,
                                                               capsys, monkeypatch):
    # simulate keeps a branch node, a seed and summary entries per trajectory
    # until summary.json is written; a count whose entries exceed physical
    # memory is refused before the model is built or the first path is drawn
    count = 100_000
    needed = cli.TRAJECTORY_BYTES * count
    out = tmp_path / "out"
    argv = ["simulate", "--config", fast_config, "--out", str(out),
            "--trajectories", str(count)]

    def first_path(*args):
        raise NumericsError("first path sampled")

    monkeypatch.setattr(cli, "_jump_path", first_path)
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed - 1)
    assert main(argv) == 2
    assert (f"the summary entries of {count} trajectories take about "
            f"{needed / 2**30:.3g} GiB") in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(spectral, "_physical_memory", lambda: needed)
    assert main(argv) == 2
    assert "first path sampled" in capsys.readouterr().err


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


def test_verify_rejects_a_repeated_check(capsys):
    # like a repeated converge level: a check named twice would run twice
    assert main(["verify", "--only", "seed_streams,cutoff_branches,seed_streams"]) == 2
    captured = capsys.readouterr()
    assert "checks selected more than once: ['seed_streams']" in captured.err
    assert captured.out == ""


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


def test_moments_refuses_an_alpha_of_at_most_one(tmp_path, capsys):
    # [nonlinearity] parses into a Nonlinearity, which validates alpha on load
    text = (CONFIG_DIR / "atomic_cubic.ini").read_text(encoding="utf-8")
    config = tmp_path / "flat.ini"
    config.write_text(text.replace("alpha = 3.0", "alpha = 1.0"), encoding="utf-8")
    assert main(["moments", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "error: alpha must be > 1, got 1.0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("config,edits,message", [
    ("atomic_cubic", [("horizon = 1.0", "horizon = -1")], "horizon must be positive, got -1.0"),
    ("atomic_cubic", [("beta = 1.0", "beta = -1")], "beta must be positive, got -1.0"),
    ("atomic_cubic", [("dealias_factor = 2", "dealias_factor = 1")],
     "dealias_factor must be an integer >= 2, got 1"),
    ("atomic_cubic", [("kind = defocusing", "kind = focusing"), ("alpha = 3.0", "alpha = 9")],
     "focusing alpha=9.0 not admissible in dimension 1"),
    ("stable_linear", [("closure = Taylor2", "closure = AtomicExact")],
     "AtomicExact closure needs an atomic jump measure"),
])
def test_moments_refuses_what_simulate_refuses(tmp_path, capsys, config, edits, message):
    # each value rule lives in its section's schema, so loading the config
    # refuses it for every command alike
    text = (CONFIG_DIR / f"{config}.ini").read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    refused = capsys.readouterr().err
    assert refused.startswith(f"error: {message}") and refused.count("\n") == 1
    assert main(["moments", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == refused and captured.out == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_master_seed_outside_64_bits_is_refused(fast_config, tmp_path, capsys, seed):
    # the streams hash the seed to 64 bits; the range is checked once, on the
    # run spec, whether the seed comes from [run] or from --seed
    in_file = tmp_path / "seeded.ini"
    in_file.write_text(FAST_CONFIG.replace("master_seed = 5", f"master_seed = {seed}"),
                       encoding="utf-8")
    out = tmp_path / "out"
    for config, override in ((fast_config, ["--seed", seed]), (str(in_file), [])):
        for command in (["simulate", "--out", str(out)], ["converge", "--levels", "1,2"]):
            assert main(command + ["--config", config] + override) == 2
            captured = capsys.readouterr()
            assert f"error: master_seed must lie in [0, 2**64), got {seed}" in captured.err
            assert captured.out == ""
    assert not out.exists()


def test_converge_distances_of_tiny_data_keep_their_scale(tmp_path, capsys):
    # without a nonlinearity the flow is linear, so data scaled by 1e-300 give
    # 1e-300 times the distances of unit data: the dual norm of a gap whose
    # squares underflow is taken over its largest modulus
    text = (CONFIG_DIR / "atomic_cubic.ini").read_text(encoding="utf-8")
    linear = text[:text.index("[nonlinearity]")] + text[text.index("[noise]"):]
    distances = {}
    for scale in ("1.0", "1e-300"):
        config = tmp_path / f"scale_{scale}.ini"
        config.write_text(linear.replace("scale = 1.0", f"scale = {scale}"), encoding="utf-8")
        assert main(["converge", "--config", str(config), "--levels", "2,3,4",
                     "--trajectories", "3"]) == 0
        distances[scale] = json.loads(capsys.readouterr().out)["distances"]
    for level in ("2", "3", "4"):
        for unit, tiny in zip(distances["1.0"][level], distances["1e-300"][level]):
            assert tiny != 0.0
            assert tiny == pytest.approx(1e-300 * unit, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("scale", ["1e80", "1e154"])
@pytest.mark.parametrize("mode", ["SplitStep", "FaithfulMidpoint"])
def test_an_overflowing_potential_is_recorded_as_inf_without_a_warning(tmp_path, capsys, mode,
                                                                        scale):
    # modulus 1e80: |v|^4 overflows on the grid; 1e154: the mass is near the
    # float maximum and the kinetic and ea_norm sums overflow too.  The suite
    # turns a leaked RuntimeWarning into an error, so each run must end as
    # the CLI reports it.  Both steppers refuse the first step: SplitStep
    # cannot resolve the gauge phase, and the midpoint solve does not converge
    def run(name, edits):
        text = (CONFIG_DIR / name).read_text(encoding="utf-8")
        for old, new in edits:
            text = text.replace(old, new)
        config = tmp_path / f"huge_{name}"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / f"out_{name}"
        code = main(["simulate", "--config", str(config), "--out", str(out),
                     "--trajectories", "1"])
        return code, capsys.readouterr().err, out

    code, err, _ = run("atomic_cubic.ini", [("mode = FaithfulMidpoint", f"mode = {mode}"),
                                            ("scale = 1.0", f"scale = {scale}"),
                                            ("horizon = 1.0", "horizon = 0.01")])
    assert code == 2
    assert err.startswith("error: trajectory 0: step t=0.0 -> 0.005 (dt=5.000e-03): ")
    assert err.count("\n") == 1
    if mode == "SplitStep":
        assert "SplitStep gauge phase" in err
        # without a nonlinearity there is no gauge phase, and SplitStep records
        # the overflowing kinetic and ea_norm sums as inf
        code, err, out = run("stable_linear.ini", [("scale = 1.0", "scale = 1e154"),
                                                   ("horizon = 0.5", "horizon = 0.01")])
        assert (code, err) == (0, "")
        rows = (out / "traj_0000.csv").read_text().splitlines()
        assert rows[0] == "t,mass,kinetic,potential,energy,ea_norm"
        assert all(row.split(",")[2:] == ["inf", "0.0", "inf", "inf"] for row in rows[1:])
    else:
        assert "halving depth 20" in err


def test_max_halvings_beyond_its_cap_is_a_configuration_error(tmp_path, capsys):
    # the midpoint solve recurses once per halving: at 1000 a huge state's
    # first step, which halves to the limit, ended in a RecursionError
    text = (CONFIG_DIR / "atomic_cubic.ini").read_text(encoding="utf-8")
    for old, new in (("scale = 1.0", "scale = 1e150"), ("horizon = 1.0", "horizon = 0.005"),
                     ("max_halvings = 20", "max_halvings = 1000")):
        text = text.replace(old, new)
    config = tmp_path / "deep.ini"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out),
                 "--trajectories", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "max_halvings must be in [0, 52], got 1000" in err
    assert not out.exists()


def test_a_level_with_no_modes_is_a_configuration_error(tmp_path, capsys):
    # on a Dirichlet interval of length 1 the first lambda_S is pi^2 ~ 9.87,
    # so levels 0-2 (lambda_S < 2, 4, 8) hold no mode; level 3 holds one
    text = (CONFIG_DIR / "stable_linear.ini").read_text(encoding="utf-8")
    text = text.replace("length = 3.141592653589793", "length = 1.0")
    for configured, empty, argv in ((0, 0, ["simulate", "--out", str(tmp_path / "out")]),
                                    (3, 1, ["converge", "--levels", "1,2"])):
        config = tmp_path / f"level{configured}.ini"
        config.write_text(text.replace("level = 4", f"level = {configured}"), encoding="utf-8")
        assert main(argv + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: level {empty} holds no modes")
        assert "the first lambda_S is 9.8696" in err


def test_numerics_error_on_the_jump_free_path_names_its_first_trajectory(tmp_path, capsys):
    # one fixed-point iteration converges no step.  At master seed 37 the
    # three paths branch off the jump-free path at nodes 4, 2 and 1, so
    # trajectory 2 runs first and fails on the path's first step; that step
    # lies on all three paths, and trajectory 0 is named
    text = (FAST_CONFIG.replace("max_fp_iters = 100", "max_fp_iters = 1")
            .replace("max_halvings = 20", "max_halvings = 0")
            .replace("master_seed = 5", "master_seed = 37"))
    config = tmp_path / "stiff.ini"
    config.write_text(text, encoding="utf-8")
    spec = load_config(str(config))
    problem = build_problem_from_spec(spec)
    converging = dataclasses.replace(spec.solver, max_fp_iters=100, max_halvings=20)
    paths = [_jump_path(problem, 37, k) for k in range(3)]
    assert branch_nodes(problem, converging, paths) == [4, 2, 1]
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith("error: trajectory 0: step t=0.0 -> 0.05 (dt=5.000e-02): ")
    assert "failed to converge" in err


@pytest.mark.parametrize("config,old,new,needle", [
    ("deterministic_cubic", "horizon = 1.0", "horizon = inf", "not a finite number"),
    ("atomic_cubic", "atoms = 0.45 : 2.0", "atoms = 0.45 : inf", "not a finite number"),
    ("deterministic_cubic", "rate = 0.5", "rate = nan", "not a finite number"),
    ("deterministic_cubic", "max_level = 6", "max_level = 1100", "max_level = 1100 with beta"),
    ("stable_linear", "beta = 1.0", "beta = 1e-3", "max_level = 6 with beta = 0.001"),
    ("deterministic_cubic", "beta = 1.0", "beta = 1e-3",
     "alpha=3.0 not admissible in dimension 1 with beta=0.001"),
    ("deterministic_cubic", "horizon = 1.0", "horizon = 1e12", "time nodes"),
    ("deterministic_cubic", "dt = 0.001", "dt = 1e-300", "time nodes"),
    ("atomic_cubic", "atoms = 0.45 : 2.0", "atoms = 0.45 : 1e300", "expected jump events"),
    ("converge-2d", "dealias_factor = 2", "dealias_factor = 100000", "quadrature grid"),
    ("deterministic_cubic", "beta = 1.0", "beta = 1000", "beta = 1000.0 on lengths"),
    ("deterministic_cubic", "length = 6.283185307179586", "length = 1e-300",
     "lengths (1e-300,)"),
    ("stable_linear", "epsilon = 0.1", "epsilon = 5e-324",
     "epsilon = 5e-324 with stability = 1.2"),
    ("atomic_cubic", "rate = 0.6", "rate = -1000", "initial data for level 5"),
    ("atomic_cubic", "scale = 1.0", "scale = 1e300", "initial data for level 5"),
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
    assert needle in err and "Traceback" not in err and "Warning" not in err
    assert peak < 2**26  # refused before any large allocation
    assert not (tmp_path / "out").exists()  # refused before any output


def test_shipped_configs_simulate(tmp_path):
    # the shipped examples stay runnable end to end (trimmed for speed)
    config = str(CONFIG_DIR / "stable_linear.ini")
    out = tmp_path / "ship"
    assert main(["simulate", "--config", config, "--out", str(out),
                 "--trajectories", "1"]) == 0
    assert (out / "traj_0000.csv").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    # ``python -m jumpnls`` exits with the code of ``cli.main``
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    listed = subprocess.run([sys.executable, "-m", "jumpnls", "verify", "--list"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert listed.returncode == 0
    assert listed.stdout.split() == jumpnls.check_names()
    assert len(listed.stdout.split()) == 31
    missing = subprocess.run(
        [sys.executable, "-m", "jumpnls", "simulate", "--config", str(tmp_path / "no.ini"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert missing.returncode == 2 and missing.stderr.startswith("error:")


#: run in one process per shipped config; after each command it prints its
#: name, its trajectory count and which of the modules only some commands
#: need are loaded
COMMAND_MODULES_PROBE = """
import contextlib, io, sys
from jumpnls.cli import main
config, out = sys.argv[1:]
for argv in (["converge", "--config", config, "--levels", "2,3", "--trajectories", "2"],
             ["moments", "--config", config],
             ["simulate", "--config", config, "--out", out, "--trajectories", "1"],
             ["simulate", "--config", config, "--out", out, "--trajectories", "2"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    print(argv[0], *argv[6:], *sorted({"jumpnls.verify", "jumpnls.diagnostics",
                                       "jumpnls.oracles", "numpy.random", "hashlib",
                                       "_hashlib"} & set(sys.modules)))
"""

#: the probe's lines per shipped config.  A trajectory stream draws the few
#: jumps of an atomic path (lambda T = 4) and the bootstrap indices of two
#: trajectories without ``numpy.random``, and ``config_hash`` hashes without
#: ``hashlib`` (OpenSSL); the two-channel radial path of stable_linear
#: (lambda T about 19) hands over at its Poisson count, and ``numpy.random``
#: brings ``hashlib`` through ``secrets`` and ``hmac``
COMMAND_MODULES = {
    "atomic_cubic.ini": ["converge 2", "moments", "simulate 1 jumpnls.diagnostics",
                         "simulate 2 jumpnls.diagnostics"],
    "deterministic_cubic.ini": ["converge 2", "moments", "simulate 1 jumpnls.diagnostics",
                                "simulate 2 jumpnls.diagnostics"],
    "stable_linear.ini": ["converge 2 _hashlib hashlib numpy.random",
                          "moments _hashlib hashlib numpy.random",
                          "simulate 1 _hashlib hashlib jumpnls.diagnostics numpy.random",
                          "simulate 2 _hashlib hashlib jumpnls.diagnostics numpy.random"],
}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
def test_each_command_loads_only_the_modules_it_runs(config, tmp_path):
    # only ``verify`` compiles the check battery, no run the oracles, only
    # ``simulate`` (for its ensemble bands) the diagnostics, and ``numpy.random``
    # (with ``hashlib`` and OpenSSL) only the draws a trajectory stream hands over
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES_PROBE, str(CONFIG_DIR / config),
         str(tmp_path / "sim")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.stdout.splitlines() == COMMAND_MODULES[config]


#: run in one process: blocks scipy when its first argument is "block", runs
#: the commands of its second (JSON), and prints the package modules that
#: ``import jumpnls`` loaded, each command's exit code and the scipy modules
#: loaded.  ``from jumpnls import *`` resolves every public name first
NUMPY_ONLY_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # every import of scipy raises ImportError
import jumpnls
packaged = sorted(m for m in sys.modules if m.startswith("jumpnls."))
from jumpnls import *
from jumpnls.cli import main
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"packaged": packaged, "codes": codes, "scipy": scipy}))
"""


def test_every_command_runs_on_numpy_alone(tmp_path):
    # the package needs numpy alone: with scipy blocked every command exits 0
    # on every shipped INI and on a Neumann copy of the Dirichlet example, so
    # on every domain kind; unblocked, the same commands load no scipy module
    inis = sorted(CONFIG_DIR.glob("*.ini")) + sorted(WORKLOAD_DIR.glob("*.ini"))
    texts = {ini.stem: ini.read_text(encoding="utf-8") for ini in inis}
    dirichlet = "kind = interval_dirichlet"
    assert dirichlet in texts["stable_linear"]
    texts["stable_linear_neumann"] = texts["stable_linear"].replace(
        dirichlet, "kind = interval_neumann")
    configs = {}
    for stem, text in texts.items():
        configs[stem] = tmp_path / f"{stem}.ini"
        configs[stem].write_text(re.sub(r"^horizon = .*$", "horizon = 0.02", text,
                                        flags=re.MULTILINE), encoding="utf-8")
    assert ({load_config(str(path)).domain.kind for path in configs.values()}
            == set(spectral._DOMAIN_TABLE))
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    for mode in ("block", "allow"):
        commands = []
        for stem, path in configs.items():
            commands += [["simulate", "--config", str(path), "--out",
                          str(tmp_path / mode / stem), "--trajectories", "2"],
                         ["converge", "--config", str(path), "--levels", "2,3",
                          "--trajectories", "2"]]
            if "[noise]" in texts[stem]:
                commands.append(["moments", "--config", str(path)])
        commands.append(["verify"])
        run = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_PROBE, mode, json.dumps(commands)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=300,
        )
        assert run.returncode == 0, (mode, run.stderr)
        report = json.loads(run.stdout)
        assert report["packaged"] == []
        assert report["codes"] == [0] * len(commands), (mode, commands)
        if mode == "allow":
            assert report["scipy"] == []


def test_runs_leave_numpy_ma_unimported(fast_config, tmp_path):
    # np.union1d and np.quantile import numpy.ma, 9-12 ms of start-up; the
    # time grid and the bootstrap bands avoid them, on a torus and on an
    # interval
    probe = ("import sys; from jumpnls.cli import main; "
             "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    interval = str(CONFIG_DIR / "stable_linear.ini")
    for argv in (["simulate", "--config", fast_config, "--out", str(tmp_path / "sim")],
                 ["converge", "--config", fast_config, "--levels", "1,2"],
                 ["simulate", "--config", interval, "--out", str(tmp_path / "interval"),
                  "--trajectories", "1"],
                 ["converge", "--config", interval, "--levels", "1,2", "--trajectories", "1"]):
        out = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert out.stdout.strip().splitlines()[-1] == "0 False", argv


#: case -> (workload, line replacements, event counts at seed 3, whether the
#: level is transform-served at dim 181 or more, where gemm and eigh round
#: differently on two threads)
BLAS_THREAD_CASES = {
    # level 9 of a 92 x 92 grid occupies 63 spectrum rows and columns: its
    # pair is separable, and its factor products (92 x 63 x 92) are past the
    # size below which OpenBLAS keeps a gemm on one thread
    "separable_2d": ("converge-2d", (("max_level = 7", "max_level = 10"),
                                     ("level = 6", "level = 9"),
                                     ("horizon = 0.1", "horizon = 0.05")),
                     [1, 0], True),
    # the Taylor2 closure of two channels at Dirichlet dim 181, from DST products
    "taylor2_dirichlet": ("jumps-stable", (("trajectories = 4", "trajectories = 2"),),
                          [57, 46], True),
    # the AtomicExact compensator of two small atoms and a nonzero mean at
    # 1-d torus dim 181
    "atomic_exact_torus": ("ensemble-1d", (("max_level = 9", "max_level = 12"),
                                           ("level = 8", "level = 12"),
                                           ("horizon = 0.5", "horizon = 0.25"),
                                           ("trajectories = 16", "trajectories = 2")),
                           [2, 4], True),
    # the same compensator and mean at dim 45 on 64 nodes, all through the
    # level's dense pair
    "dense_pair_torus": ("ensemble-1d", (("trajectories = 16", "trajectories = 2"),),
                         [4, 6], False),
}


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize("case", sorted(BLAS_THREAD_CASES))
def test_run_independent_of_blas_threads(tmp_path, case):
    # the run writes the same bytes on one and on two threads
    workload, replacements, event_counts, large = BLAS_THREAD_CASES[case]
    text = (WORKLOAD_DIR / f"{workload}.ini").read_text(encoding="utf-8")
    for old, new in replacements:
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    config = tmp_path / f"{case}.ini"
    config.write_text(text, encoding="utf-8")
    spec = load_config(str(config))
    model = build_model_from_spec(spec)
    level = spectral.build_level(model, spec.galerkin.level)
    assert (level.dim >= 181) == large
    assert (level.dim * model.num_grid > spectral.DENSE_PAIR_MAX_ENTRIES) == large
    if case == "separable_2d":
        assert model.grid_shape == (92, 92)
        assert 63 * 92 * (63 + 92) <= spectral.SEPARABLE_PAIR_MAX_MULADDS
    probe = ("import sys; from jumpnls.cli import main; "
             "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(jumpnls.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        blas = {name: threads for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        run = subprocess.run(
            [sys.executable, "-c", probe, "simulate", "--config", str(config),
             "--out", str(out), "--seed", "3"],
            capture_output=True, text=True, check=True,
            env={**os.environ, **blas, "PYTHONPATH": src}, timeout=120,
        )
        assert run.stdout.strip().splitlines()[-1] == "0 False", threads
        outs.append(out)
    one, two = outs
    assert json.loads((one / "summary.json").read_text())["event_counts"] == event_counts
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert read(one / name) == read(two / name), name


def test_no_cli_run_builds_dense_operators(tmp_path, monkeypatch):
    # every run product of the noise operators, the drift's noise terms
    # included, goes through NoiseOperators.product; the dense matrices are
    # oracles, for tests and verify alone
    def refuse(*args):
        raise AssertionError("a CLI run built the dense noise operators")

    monkeypatch.setattr(oracles, "_assemble_matrices", refuse)
    sources = sorted(CONFIG_DIR.glob("*.ini")) + sorted(WORKLOAD_DIR.glob("*.ini"))
    assert len(sources) == 6
    for source in sources:
        assert main(["simulate", "--config", str(source), "--out",
                     str(tmp_path / source.stem), "--trajectories", "1"]) == 0, source.name
    assert main(["converge", "--config", str(WORKLOAD_DIR / "converge-2d.ini"),
                 "--levels", "4,5"]) == 0


def test_cli_runs_bind_one_pair_per_level_built(tmp_path, monkeypatch):
    # build_level binds each level's transform pair and nothing else does:
    # simulate builds its level once; converge --levels 4,5 builds the fine
    # level once and each coarse level once per trajectory (K = 2)
    dims, transform_pair = [], spectral.SpectralModel.transform_pair

    def counting(self, dim=None):
        dims.append(dim)
        return transform_pair(self, dim)

    monkeypatch.setattr(spectral.SpectralModel, "transform_pair", counting)
    assert main(["simulate", "--config", str(WORKLOAD_DIR / "ensemble-1d.ini"),
                 "--out", str(tmp_path / "ensemble")]) == 0
    assert dims == [45]
    dims.clear()
    assert main(["converge", "--config", str(WORKLOAD_DIR / "converge-2d.ini"),
                 "--levels", "4,5"]) == 0
    assert dims == [401, 97, 193, 97, 193]


def test_converge_on_transform_served_levels_builds_no_matrices(tmp_path, monkeypatch):
    # converge-2d with more jumps: levels 4, 5 and 6 (dims 97, 193, 401 on
    # 1024 nodes) are transform-served and the drift has no noise term, so
    # the jumps run matrix-free and the run stays below one level-6 operator.
    # The mean of the symmetric atoms is summed exactly: at +-0.45 and weight
    # 40 a BLAS dot gives -4.4e-16, whose drift term would read the matrices
    text = (WORKLOAD_DIR / "converge-2d.ini").read_text(encoding="utf-8")
    atoms = "0.45 : 2; -0.45 : 2"
    assert atoms in text
    jumps_applied = []

    def counting(ops, mark, state):
        jumps_applied.append(ops.dim)
        return jump_map(ops, mark, state)

    monkeypatch.setattr(jumpnls.solver, "jump_map", counting)
    for mark in ("0.5", "0.45"):
        config = tmp_path / f"converge_{mark}.ini"
        config.write_text(text.replace(atoms, f"{mark} : 40; -{mark} : 40"),
                          encoding="utf-8")
        jumps_applied.clear()
        tracemalloc.start()
        try:
            code = main(["converge", "--config", str(config), "--levels", "4,5",
                         "--trajectories", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert set(jumps_applied) == {97, 193, 401}
        assert peak < 16 * 401**2, mark
