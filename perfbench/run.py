"""Benchmark of the ``jumpnls`` CLI: end-to-end runs and a traced per-layer run.

Each workload is one CLI command a user would run (``perfbench/workloads``).
Every operation runs it in a fresh process with BLAS pinned to one thread;
one client runs one command at a time (a closed loop).  Run from the root of
a source checkout:

    python3 perfbench/run.py --workload ensemble-1d --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``perfbench/tracer.py``.  Human-readable lines (environment,
every metric with its unit, ``failed_frac``) come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
#: references exist for master seeds 0 .. REFERENCE_SEEDS - 1
REFERENCE_SEEDS = 64
#: a run cycles through this many master seeds (jump paths) drawn from the
#: workload seed, so its median does not hinge on one path's jump count
PATHS = 4
MASS_RISE_TOL = 1e-12
REFERENCE_RTOL = 1e-8
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "simulate" (writes a directory) | "converge"
    ini: Path
    extra: tuple[str, ...] = ()

    def argv(self, out: Path, master_seed: int) -> list[str]:
        return [self.command, "--config", str(self.ini), "--out", str(out),
                "--seed", str(master_seed), *self.extra]


WORKLOADS = {
    w.name: w for w in (
        Workload("ensemble-1d", "simulate", BENCH / "workloads" / "ensemble-1d.ini"),
        Workload("converge-2d", "converge", BENCH / "workloads" / "converge-2d.ini",
                 ("--levels", "4,5")),
        Workload("jumps-stable", "simulate", BENCH / "workloads" / "jumps-stable.ini"),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# spans of perfbench/tracer.py reported per layer, with the fields reported
SPAN_FIELDS = (
    ("config.load_config", ("s",)),
    ("config.build_model_from_spec", ("s",)),
    ("config.build_problem_from_spec", ("s",)),
    ("spectral.build_spectral_model", ("s",)),
    ("spectral.synthesize", ("calls", "s")),
    ("spectral.analyze", ("calls", "s")),
    ("nonlinear.eval_F", ("calls", "s", "self_s")),
    ("nonlinear.eval_Fhat", ("calls", "s")),
    ("noise.sample_prm", ("calls", "s")),
    ("jumps.assemble_noise_operators", ("calls", "s")),
    ("jumps.jump_map", ("calls", "s")),
    ("jumps.eigh", ("calls", "s")),
    ("jumps.jump_difference_2", ("calls", "s")),
    ("solver.simulate", ("calls", "s", "self_s")),
    ("solver.simulate_coupled", ("calls", "s", "self_s")),
    ("diagnostics.ensemble_moments", ("s",)),
    ("cli.main", ("s",)),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
DERIVED_UNITS = {
    "spectral.model_mb": "MB",
    "spectral.transform_gb": "GB",
    "noise.events": "count",
    "jumps.eig_reuse": "ratio",
    "jumps.eig_reuse_base": "count",
    "solver.nodes": "count",
    "solver.ms_per_node": "ms",
    "solver.fp_iters_max": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{span}.{field}": FIELD_UNITS[field]
       for span, fields in SPAN_FIELDS for field in fields},
    **DERIVED_UNITS,
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_BLAS)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(args: list[str], log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS MiB, exit code).

    The resource usage comes from ``os.wait4`` for this child alone.
    """
    with open(log, "wb") as handle:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                                stdout=handle, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# ---------------------------------------------------------------------------
# outputs and their checks
# ---------------------------------------------------------------------------

def read_outputs(out: Path) -> dict[str, bytes]:
    if out.is_file():
        return {out.name: out.read_bytes()}
    if out.is_dir():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    return {}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def summary_values(workload: Workload, files: dict[str, bytes]) -> dict:
    """The key values compared against the recorded references."""
    if workload.command == "converge":
        payload = json.loads(files[next(iter(files))])
        return {"distances": payload["distances"],
                "mean_distance": payload["mean_distance"]}
    summary = json.loads(files["summary.json"])
    return {key: summary[key]
            for key in ("event_counts", "final_mass", "sup_ea_norm")}


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()[1:]]


def _compare(path: str, value, ref, failures: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or sorted(value) != sorted(ref):
            failures.append(f"{path}: keys differ from the reference")
            return
        for key in ref:
            _compare(f"{path}.{key}", value[key], ref[key], failures)
    elif isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            failures.append(f"{path}: length differs from the reference")
            return
        for i, (v, r) in enumerate(zip(value, ref)):
            _compare(f"{path}[{i}]", v, r, failures)
    elif isinstance(ref, int):
        if value != ref:
            failures.append(f"{path}: {value} != reference {ref}")
    elif not abs(value - ref) <= REFERENCE_RTOL * abs(ref):
        failures.append(f"{path}: {value!r} not within {REFERENCE_RTOL} of {ref!r}")


def _check_simulate(files: dict[str, bytes], failures: list[str]) -> None:
    summary = json.loads(files["summary.json"])
    for k, count in enumerate(summary["event_counts"]):
        mass = [float(row[1]) for row in _csv_rows(files[f"traj_{k:04d}.csv"])]
        for i in range(1, len(mass)):
            if mass[i] - mass[i - 1] > MASS_RISE_TOL * mass[i - 1]:
                failures.append(f"trajectory {k}: mass rises at node {i} "
                                f"({mass[i - 1]!r} -> {mass[i]!r})")
                break
        events = len(_csv_rows(files[f"events_{k:04d}.csv"]))
        if events != count:
            failures.append(f"trajectory {k}: {events} events written, "
                            f"summary says {count}")


def _check_converge(files: dict[str, bytes], failures: list[str]) -> None:
    payload = json.loads(files[next(iter(files))])
    for level, values in payload["distances"].items():
        if not all(math.isfinite(v) for v in values):
            failures.append(f"level {level}: non-finite distance")
    means = [payload["mean_distance"][str(n)] for n in payload["levels"]]
    if not all(a > b for a, b in zip(means, means[1:])):
        failures.append(f"mean_distance does not decrease with level: {means}")


def check_outputs(workload: Workload, files: dict[str, bytes],
                  reference: dict | None) -> list[str]:
    """Correctness failures of one operation's outputs (empty when correct)."""
    failures: list[str] = []
    if not files:
        return ["no output written"]
    try:
        if workload.command == "converge":
            _check_converge(files, failures)
        else:
            _check_simulate(files, failures)
        if reference is not None:
            _compare("summary", summary_values(workload, files), reference, failures)
    except (KeyError, ValueError, IndexError, TypeError, StopIteration) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

class Operations:
    """Runs operations of one workload and counts the failed ones.

    An operation fails on a non-zero exit, a failed check, or output that is
    not byte-identical to the run's first operation with the same master seed.
    ``references`` maps a master seed (as text) to its reference values.
    """

    def __init__(self, workload: Workload, references: dict | None, work: Path):
        self.workload = workload
        self.references = references
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest: dict[int, str] = {}
        self.output_bytes = 0
        self.out = work / ("out.json" if workload.command == "converge" else "out")

    def _fresh_out(self) -> Path:
        if self.out.is_dir():
            shutil.rmtree(self.out)
        elif self.out.exists():
            self.out.unlink()
        return self.out

    def evaluate(self, out: Path, code: int, master_seed: int) -> list[str]:
        files = read_outputs(out)
        self.output_bytes = sum(len(data) for data in files.values())
        failures = [] if code == 0 else [f"exit code {code}"]
        reference = None
        if self.references is not None:
            reference = self.references[str(master_seed)]
        failures += check_outputs(self.workload, files, reference)
        fingerprint = digest(files)
        first = self.first_digest.setdefault(master_seed, fingerprint)
        if fingerprint != first:
            failures.append("output differs from the run's first operation")
        return failures

    def _record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.append(f"operation {self.attempted}: " + "; ".join(failures[:3]))

    def run(self, master_seed: int) -> tuple[float, float]:
        """One untraced CLI command: (wall seconds, peak RSS MiB)."""
        out = self._fresh_out()
        args = [sys.executable, "-m", "jumpnls.cli",
                *self.workload.argv(out, master_seed)]
        wall, rss, code = run_child(args, self.work / "cli.log")
        self._record(self.evaluate(out, code, master_seed))
        return wall, rss

    def run_traced(self, master_seed: int) -> tuple[float, dict | None]:
        """One traced CLI command: (wall seconds, layer table or None)."""
        out = self._fresh_out()
        layers = self.work / "layers.json"
        if layers.exists():
            layers.unlink()
        args = [sys.executable, str(BENCH / "tracer.py"), str(layers), "--",
                *self.workload.argv(out, master_seed)]
        wall, _, code = run_child(args, self.work / "traced.log")
        failures = self.evaluate(out, code, master_seed)
        table = None
        try:
            table = json.loads(layers.read_text())
        except (OSError, ValueError):
            failures.append("traced run wrote no layer table")
        self._record(failures)
        return wall, table

    def setup(self) -> dict | None:
        """One set-up probe in a fresh process; None if it failed."""
        log = self.work / "setup.log"
        _, _, code = run_child([sys.executable, str(BENCH / "setup_probe.py"),
                                str(self.workload.ini)], log)
        probe = None
        try:
            probe = json.loads(log.read_text().splitlines()[-1])
        except (OSError, ValueError, IndexError):
            pass
        failures = [] if code == 0 else [f"set-up probe exit code {code}"]
        if probe is None:
            failures.append("set-up probe printed no result")
        self._record(failures)
        return None if failures else probe


def layer_metrics(table: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced command; absent spans read as 0."""
    spans, counters = table["spans"], table["counters"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    metrics = {f"{name}.{field}": span(name, field)
               for name, fields in SPAN_FIELDS for field in fields}
    base = span("jumps.jump_map", "calls") + span("jumps.jump_difference_2", "calls")
    nodes = counters.get("solver.nodes", 0)
    metrics.update({
        "spectral.model_mb": counters.get("spectral.model_bytes", 0) / 2**20,
        "spectral.transform_gb": counters.get("spectral.transform_bytes", 0) / 1e9,
        "noise.events": counters.get("noise.events", 0),
        "jumps.eig_reuse": 1.0 - span("jumps.eigh", "calls") / base if base else 0.0,
        "jumps.eig_reuse_base": base,
        "solver.nodes": nodes,
        "solver.ms_per_node": 1e3 * span("solver.simulate", "s") / nodes if nodes else 0.0,
        "solver.fp_iters_max": counters.get("solver.fp_iters_max", 0),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
    })
    return metrics


def _deadline_loop(seconds: float, minimum: int):
    deadline = time.perf_counter() + seconds
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        yield count
        count += 1


def _line(workload: str, name: str, value, unit: str, note: str = "") -> str:
    return f"{workload:13s} {name:40s} {value:>14.6g} {unit:6s} {note}".rstrip()


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            references: dict | None, work: Path) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, human-readable report lines)."""
    master_seeds = [(seed * PATHS + j) % REFERENCE_SEEDS for j in range(PATHS)]
    if references is not None:
        references = references["workloads"][workload.name]
    work.mkdir(parents=True, exist_ok=True)
    ops = Operations(workload, references, work)
    ops.run(master_seeds[0])     # warm-up: byte-compiles, fills the file cache
    probe = None
    lines = []
    if not trace:
        walls, rss, setups = [], [], []
        for i in _deadline_loop(seconds, MIN_SAMPLES):
            wall, peak = ops.run(master_seeds[i % PATHS])
            walls.append(wall)
            rss.append(peak)
            sample = ops.setup()
            if sample is not None:
                probe = sample
                setups.append(sample["setup_s"])
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        metrics = {}
        for name, values in samples.items():
            if not values:
                continue
            metrics[name] = statistics.median(values)
            lines.append(_line(workload.name, name, metrics[name],
                               END_TO_END_UNITS[name],
                               f"median of {len(values)}, "
                               f"min {min(values):.6g}, max {max(values):.6g}"))
    else:
        walls, traced_walls, tables, missing = [], [], [], []
        for i in _deadline_loop(seconds, MIN_SAMPLES):
            walls.append(ops.run(master_seeds[i % PATHS])[0])
            wall, table = ops.run_traced(master_seeds[i % PATHS])
            if table is not None:
                traced_walls.append(wall)
                tables.append(layer_metrics(table, ops.output_bytes))
                missing = [("absent hooks", table["absent"]),
                           ("unreadable counters", table["observer_errors"])]
        metrics = {}
        if tables:
            metrics = {name: statistics.median(t[name] for t in tables)
                       for name in tables[0]}
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(walls))
            for name, value in metrics.items():
                lines.append(_line(workload.name, name, value, PER_LAYER_UNITS[name],
                                   f"median of {len(tables)} traced"))
            lines += [f"{workload.name:13s} {what}: " + ", ".join(names)
                      for what, names in missing if names]
        probe = ops.setup()
    frac = ops.failed / ops.attempted
    lines.append(_line(workload.name, "failed_frac", frac, "ratio",
                       f"{ops.failed} of {ops.attempted} operations"))
    lines += [f"{workload.name:13s} failure: {msg}" for msg in ops.failures[:10]]
    units = END_TO_END_UNITS if not trace else PER_LAYER_UNITS
    result = {
        "correct": ops.failed == 0 and set(metrics) == set(units),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    env = environment(seed, master_seeds, probe)
    lines.insert(0, f"{workload.name:13s} env " + json.dumps(env, sort_keys=True))
    return result, lines


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jumpnls").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, master_seeds: list[int], probe: dict | None) -> dict:
    probe = probe or {}
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "blas": probe.get("blas"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_env": PINNED_BLAS,
        "seed": seed,
        "master_seeds": master_seeds,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    if not (SRC / "jumpnls" / "cli.py").is_file():
        print(f"error: no jumpnls sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with open(REFERENCES, encoding="utf-8") as handle:
        references = json.load(handle)
    results = {}
    for name in names:
        result, lines = measure(WORKLOADS[name], args.seed, args.seconds,
                                bool(args.trace), references, WORK / name)
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
