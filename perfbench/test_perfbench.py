"""Smoke tests of the benchmark itself, on tiny workloads."""

import json

import pytest

import jumpnls.cli
import jumpnls.solver
import run
import tracer

TINY = """
[domain]
kind = torus_1d
length = 6.283185307179586

[galerkin]
max_level = 5
level = 4

[nonlinearity]
kind = defocusing
alpha = 3.0

[noise]
kind = atomic
symbols = cos
epsilon = 0.0
atoms = 0.45 : 2; -0.45 : 2

[solver]
mode = FaithfulMidpoint
dt = 0.01

[initial]
preset = decaying

[run]
horizon = 0.05
trajectories = 2
threads = 2
"""


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY)
    return {
        "simulate": run.Workload("tiny-simulate", "simulate", ini),
        "converge": run.Workload("tiny-converge", "converge", ini, ("--levels", "2,3")),
    }


def test_end_to_end_metrics_present(tiny, tmp_path):
    result, lines = run.measure(tiny["simulate"], seed=5, seconds=0.01, trace=False,
                                references=None, work=tmp_path / "e2e")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("failed_frac" in line for line in lines)
    env = json.loads(lines[0].split(" env ", 1)[1])
    assert env["seed"] == 5 and env["blas_env"] == run.PINNED_BLAS
    json.dumps(result)


def test_traced_metrics_present(tiny, tmp_path):
    result, _ = run.measure(tiny["converge"], seed=0, seconds=0.01, trace=True,
                            references=None, work=tmp_path / "traced")
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["solver.simulate_coupled.calls"] == 4
    assert metrics["spectral.synthesize.calls"] > 0
    assert metrics["jumps.assemble_noise_operators.calls"] == 5


def test_corrupted_output_counts_as_failure(tiny, tmp_path):
    ops = run.Operations(tiny["simulate"], None, tmp_path)
    ops.run(0)
    assert ops.failed == 0
    reference = run.summary_values(tiny["simulate"], run.read_outputs(ops.out))

    traj = ops.out / "traj_0001.csv"
    rows = traj.read_text().splitlines()
    fields = rows[3].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))      # mass rises
    rows[3] = ",".join(fields)
    traj.write_text("\n".join(rows) + "\n")
    failures = ops.evaluate(ops.out, 0, 0)
    assert any("mass rises" in f for f in failures)
    assert any("differs from the run's first" in f for f in failures)

    reference["final_mass"][0] *= 1 + 1e-7
    files = run.read_outputs(ops.out)
    failures = run.check_outputs(tiny["simulate"], files, reference)
    assert any("final_mass[0]" in f for f in failures)


def test_converge_checks_reject_bad_distances(tiny):
    payload = {"levels": [2, 3], "distances": {"2": [0.1], "3": [float("nan")]},
               "mean_distance": {"2": 0.1, "3": 0.2}}
    files = {"out.json": json.dumps(payload).encode()}
    failures = run.check_outputs(tiny["converge"], files, None)
    assert any("non-finite" in f for f in failures)
    assert any("does not decrease" in f for f in failures)


def test_absent_hook_is_reported_not_fatal():
    hooks = tracer.HOOKS + (
        ("spectral.fft", "jumpnls.spectral", "NoSuchTransform.forward"),
        ("gone.f", "jumpnls.no_such_module", "f"),
    )
    original = jumpnls.solver.jump_map
    with tracer.Tracer(hooks) as t:
        assert jumpnls.solver.jump_map is not original
        jumpnls.spectral.build_spectral_model(jumpnls.spectral.torus_1d(1.0), max_level=3)
    assert jumpnls.solver.jump_map is original
    table = t.table()
    assert table["absent"] == ["gone.f", "spectral.fft"]
    assert table["spans"]["spectral.build_spectral_model"]["calls"] == 1
    metrics = run.layer_metrics(table, 0)
    assert metrics["jumps.eig_reuse"] == 0.0 and metrics["solver.ms_per_node"] == 0.0


def test_worker_thread_spans_leave_main_self_time(tmp_path):
    ini = tmp_path / "threads.ini"
    ini.write_text(TINY.replace("horizon = 0.05", "horizon = 0.5"))
    with tracer.Tracer() as t:
        code = jumpnls.cli.main(["simulate", "--config", str(ini),
                                 "--out", str(tmp_path / "out")])
    assert code == 0
    spans = t.table()["spans"]
    assert spans["solver.simulate"]["calls"] == 2
    # the pool's wait is covered by the worker-thread simulate spans
    assert spans["cli.main"]["self_s"] < 0.5 * spans["cli.main"]["s"]
    assert spans["cli.main"]["self_s"] >= 0.0
