"""Command line front end: simulate, converge, verify, moments.

Output files are byte-deterministic for a fixed effective configuration:
floats are rendered with ``repr`` (shortest round-trip form), JSON keys are
sorted and line endings are LF.  Each trajectory's jump path is sampled on
its own ``(master_seed, index)`` stream.  ``simulate`` takes the trajectories
in the order ``solver.simulate_ensemble`` runs them.  Each trajectory is
written row by row as soon as it finishes and then reduced to its summary
entries, and a run refuses a trajectory count whose summary entries
(``TRAJECTORY_BYTES`` each) would exceed physical memory.  ``converge``
parses ``--levels`` as integers and writes what one
``solver.converge_ensemble`` call returns; the solver refuses repeated or
non-coarser levels and orders, draws, couples and names the trajectories of
both commands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import (
    build_problem_from_spec,
    canonical_text,
    config_hash,
    load_config,
)
from .exceptions import ConfigurationError, NumericsError
from .noise import JumpPath, sample_prm, trajectory_rng, trajectory_seed
from .solver import converge_ensemble, simulate_ensemble
from .spectral import _check_memory

#: bytes ``simulate`` keeps per trajectory until it has streamed ``summary.json``:
#: the branch node, the seed and the summary lists.  153-159 B measured
#: (tracemalloc peak, 4 000 vs 8 000 and 8 000 vs 16 000 one-step trajectories
#: of ``deterministic_cubic`` and ``atomic_cubic``)
TRAJECTORY_BYTES = 192

#: trajectory CSV rows converted to Python floats at once: the block, not the
#: node count, bounds the floats held (32 B each against 8 B in the array)
ROW_BLOCK = 32


def _apply_overrides(spec, args):
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "trajectories", None) is not None:
        updates["trajectories"] = args.trajectories
    return dataclasses.replace(spec, **updates) if updates else spec


def _jump_path(problem, master_seed: int, index: int):
    """Trajectory ``index``'s jump path: the jumps its own stream samples."""
    if problem.measure is None:
        return JumpPath()
    return sample_prm(problem.measure, problem.horizon,
                      trajectory_rng(master_seed, index))


def _write_lines(path: str, lines) -> None:
    """Write an iterable of LF-terminated strings, one at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)


def _trajectory_rows(record):
    series = record.series()
    yield ",".join(series) + "\n"
    columns = list(series.values())
    # one ``tolist`` per column and block instead of one ``float`` per value
    for start in range(0, len(columns[0]), ROW_BLOCK):
        block = [column[start:start + ROW_BLOCK].tolist() for column in columns]
        for row in zip(*block):
            yield ",".join(map(repr, row)) + "\n"


def _event_rows(path):
    # a path without jumps writes the bare ``time`` header
    width = path.marks.shape[1] if len(path) else 0
    yield "time" + "".join(f",mark_{m}" for m in range(width)) + "\n"
    for time, mark in zip(path.times.tolist(), path.marks.tolist()):
        yield ",".join(map(repr, [time, *mark])) + "\n"


def _json_chunks(payload):
    """``payload`` as sorted, indented JSON and a final LF, streamed chunk by chunk."""
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    yield "\n"


def _cmd_simulate(args) -> int:
    # only simulate needs the diagnostics; compiled before the run, their
    # compiler memory is reused by it instead of adding to its peak
    from .diagnostics import ensemble_moments

    spec = _apply_overrides(load_config(args.config), args)
    count = spec.trajectories
    _check_memory(TRAJECTORY_BYTES * count, f"the summary entries of {count} trajectories")
    digest = config_hash(spec)
    problem = build_problem_from_spec(spec)

    runs = simulate_ensemble(problem, spec.solver, count,
                             lambda k: _jump_path(problem, spec.master_seed, k),
                             record_states=spec.output.save_states)
    os.makedirs(args.out, exist_ok=True)  # only once every path could be drawn
    event_counts, final_mass, sup_ea_norm, fp_iters_max = ([None] * count for _ in range(4))
    for k, record in runs:
        _write_lines(os.path.join(args.out, f"traj_{k:04d}.csv"),
                     _trajectory_rows(record))
        if spec.output.save_events and problem.measure is not None:
            _write_lines(os.path.join(args.out, f"events_{k:04d}.csv"),
                         _event_rows(record.path))
        if spec.output.save_states:
            np.save(os.path.join(args.out, f"states_{k:04d}.npy"),
                    record.states)
        event_counts[k] = len(record.path)
        final_mass[k] = float(record.mass[-1])
        sup_ea_norm[k] = float(np.max(record.ea_norm))
        fp_iters_max[k] = record.fp_iters_max
        del record  # nothing of trajectory k is held while the next runs

    summary = {
        "config_hash": digest,
        "mode": spec.solver.mode,
        "closure": spec.solver.closure,
        "dt": spec.solver.dt,
        "horizon": spec.horizon,
        "level": problem.level.n,
        "level_dimension": problem.level.dim,
        "num_modes": problem.level.model.num_modes,
        "master_seed": spec.master_seed,
        "trajectories": spec.trajectories,
        "trajectory_seeds": [
            trajectory_seed(spec.master_seed, k)
            for k in range(spec.trajectories)
        ],
        "variance_budget": (0.0 if problem.measure is None
                            else problem.measure.moments().variance_budget),
        "event_counts": event_counts,
        "final_mass": final_mass,
        "sup_ea_norm": sup_ea_norm,
        "fp_iters_max": fp_iters_max,
    }
    if spec.trajectories >= 2:
        moments = ensemble_moments(sup_ea_norm, seed=spec.master_seed)
        summary["ensemble"] = {
            str(order): list(values) for order, values in moments.items()
        }
    _write_lines(os.path.join(args.out, "summary.json"), _json_chunks(summary))
    _write_lines(os.path.join(args.out, "config.ini"), [canonical_text(spec)])
    print(f"wrote {spec.trajectories} trajectories to {args.out} "
          f"(config {digest[:12]})")
    return 0


def _cmd_converge(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    try:
        coarse_levels = sorted(int(tok) for tok in args.levels.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad --levels value {args.levels!r}") from exc

    fine = build_problem_from_spec(spec)
    distances = converge_ensemble(fine, coarse_levels, spec.solver, spec.trajectories,
                                  lambda k: _jump_path(fine, spec.master_seed, k))
    payload = {
        "config_hash": config_hash(spec),
        "fine_level": fine.level.n,
        "levels": coarse_levels,
        "trajectories": spec.trajectories,
        "mean_distance": {str(n): float(np.mean(ds)) for n, ds in distances.items()},
        "distances": {str(n): ds for n, ds in distances.items()},
    }
    if args.out:
        _write_lines(args.out, _json_chunks(payload))
        print(f"wrote convergence table to {args.out}")
    else:
        sys.stdout.writelines(_json_chunks(payload))
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    if args.list:
        for name in verify.check_names():
            print(name)
        return 0
    names = None
    if args.only is not None:
        names = [tok.strip() for tok in args.only.split(",") if tok.strip()]
    results = verify.run_checks(names=names, tol_scale=args.tol_scale)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        print(f"{status} {result.name} — {result.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_moments(args) -> int:
    spec = load_config(args.config)
    if spec.noise is None:
        raise ConfigurationError("config has no [noise] section")
    measure = spec.noise.measure()
    moments = measure.moments()
    payload = {
        "config_hash": config_hash(spec),
        "kind": spec.noise.kind,
        "epsilon": spec.noise.epsilon,
        "channels": measure.dimension,
        "simulated_intensity": float(measure.simulated_intensity()),
        "mean_simulated": [float(v) for v in moments.mean_simulated],
        "second_moment_small": [
            [float(v) for v in row] for row in moments.second_moment_small
        ],
        "variance_budget": float(moments.variance_budget),
    }
    sys.stdout.writelines(_json_chunks(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpnls",
        description="Spectral simulation of nonlinear Schrodinger dynamics "
                    "driven by compensated jump noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate trajectories and write CSV/JSON")
    p_sim.add_argument("--config", required=True, help="INI run configuration")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, help="override master seed")
    p_sim.add_argument("--trajectories", type=int, help="override trajectory count")
    p_sim.set_defaults(func=_cmd_simulate)

    p_con = sub.add_parser("converge",
                           help="couple coarse levels to the configured one")
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--levels", required=True,
                       help="comma-separated coarse levels, e.g. 3,4,5")
    p_con.add_argument("--out", help="write JSON here instead of stdout")
    p_con.add_argument("--seed", type=int, help="override master seed")
    p_con.add_argument("--trajectories", type=int, help="override trajectory count")
    p_con.set_defaults(func=_cmd_converge)

    p_ver = sub.add_parser("verify", help="run the named self-check battery")
    p_ver.add_argument("--tol-scale", type=float, default=1.0)
    p_ver.add_argument("--only", help="comma-separated subset of check names")
    p_ver.add_argument("--list", action="store_true", help="list check names")
    p_ver.set_defaults(func=_cmd_verify)

    p_mom = sub.add_parser("moments", help="print jump-measure moments as JSON")
    p_mom.add_argument("--config", required=True)
    p_mom.set_defaults(func=_cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
