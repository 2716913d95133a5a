"""Command line front end: simulate, converge, verify, moments.

Output files are byte-deterministic for a fixed effective configuration:
floats are rendered with ``repr`` (shortest round-trip form), JSON keys are
sorted and line endings are LF.  Trajectories run one after another, each on
its own ``(master_seed, index)`` stream.  Each is written row by row as soon
as it finishes and then reduced to its summary row, so a run holds one
trajectory record at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import verify as verify_mod
from .config import (
    build_problem_from_spec,
    canonical_text,
    config_hash,
    load_config,
)
from .diagnostics import ensemble_moments
from .exceptions import ConfigurationError, NumericsError
from .noise import sample_prm, trajectory_rng, trajectory_seed
from .solver import simulate, simulate_coupled

_CSV_HEADER = "t,mass,kinetic,potential,energy,ea_norm"


def _apply_overrides(spec, args):
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "trajectories", None) is not None:
        if args.trajectories < 1:
            raise ConfigurationError(
                f"--trajectories must be at least 1, got {args.trajectories}"
            )
        updates["trajectories"] = args.trajectories
    return dataclasses.replace(spec, **updates) if updates else spec


@contextlib.contextmanager
def _trajectory_context(index: int):
    """Prefix a ``NumericsError`` raised inside with the trajectory index."""
    try:
        yield
    except NumericsError as exc:
        raise NumericsError(f"trajectory {index}: {exc}") from exc


def _write_lines(path: str, lines) -> None:
    """Write an iterable of LF-terminated strings, one at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)


def _trajectory_rows(record):
    yield _CSV_HEADER + "\n"
    columns = (record.times, record.mass, record.kinetic, record.potential,
               record.energy, record.ea_norm)
    for row in zip(*columns):
        yield ",".join(repr(float(v)) for v in row) + "\n"


def _event_rows(record):
    width = len(record.events[0].mark) if record.events else 0
    yield "time" + "".join(f",mark_{m}" for m in range(width)) + "\n"
    for event in record.events:
        yield ",".join(
            [repr(float(event.time))] + [repr(float(c)) for c in event.mark]
        ) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_simulate(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    digest = config_hash(spec)
    model, problem = build_problem_from_spec(spec)

    os.makedirs(args.out, exist_ok=True)
    event_counts, final_mass, sup_ea_norm, fp_iters_max = [], [], [], []
    for k in range(spec.trajectories):
        with _trajectory_context(k):
            record = simulate(
                problem, spec.solver,
                rng=trajectory_rng(spec.master_seed, k),
                record_states=spec.output.save_states,
            )
        _write_lines(os.path.join(args.out, f"traj_{k:04d}.csv"),
                     _trajectory_rows(record))
        if spec.output.save_events and problem.measure is not None:
            _write_lines(os.path.join(args.out, f"events_{k:04d}.csv"),
                         _event_rows(record))
        if spec.output.save_states:
            np.save(os.path.join(args.out, f"states_{k:04d}.npy"),
                    record.states)
        event_counts.append(len(record.events))
        final_mass.append(float(record.mass[-1]))
        sup_ea_norm.append(float(np.max(record.ea_norm)))
        fp_iters_max.append(record.fp_iters_max)
        variance_budget = record.variance_budget
        del record  # nothing of trajectory k is held while k + 1 runs

    summary = {
        "config_hash": digest,
        "mode": spec.solver.mode,
        "closure": spec.solver.closure,
        "dt": spec.solver.dt,
        "horizon": spec.horizon,
        "level": problem.level.n,
        "level_dimension": problem.level.dim,
        "num_modes": model.num_modes,
        "master_seed": spec.master_seed,
        "trajectories": spec.trajectories,
        "trajectory_seeds": [
            trajectory_seed(spec.master_seed, k)
            for k in range(spec.trajectories)
        ],
        "variance_budget": variance_budget,
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
    _write_lines(os.path.join(args.out, "summary.json"), [_json_text(summary)])
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
    if len(set(coarse_levels)) != len(coarse_levels):
        raise ConfigurationError(f"--levels repeats a level: {args.levels!r}")
    fine_n = spec.galerkin.level
    if any(n >= fine_n for n in coarse_levels):
        raise ConfigurationError(
            f"--levels must all be coarser than the configured level {fine_n}"
        )

    model, fine = build_problem_from_spec(spec)
    distances = {n: [] for n in coarse_levels}
    for k in range(spec.trajectories):
        events = []
        if fine.measure is not None:
            events = sample_prm(fine.measure, spec.horizon,
                                trajectory_rng(spec.master_seed, k))
        for n in coarse_levels:
            _, coarse = build_problem_from_spec(spec, model, level=n)
            with _trajectory_context(k):
                result = simulate_coupled(coarse, fine, spec.solver, events)
            distances[n].append(result.distance)

    payload = {
        "config_hash": config_hash(spec),
        "fine_level": fine_n,
        "levels": coarse_levels,
        "trajectories": spec.trajectories,
        "mean_distance": {
            str(n): float(np.mean(distances[n])) for n in coarse_levels
        },
        "distances": {
            str(n): [float(d) for d in distances[n]] for n in coarse_levels
        },
    }
    text = _json_text(payload)
    if args.out:
        _write_lines(args.out, [text])
        print(f"wrote convergence table to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for name in verify_mod.check_names():
            print(name)
        return 0
    names = None
    if args.only:
        names = [tok.strip() for tok in args.only.split(",") if tok.strip()]
    results = verify_mod.run_checks(names=names, tol_scale=args.tol_scale)
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
        print("error: config has no [noise] section", file=sys.stderr)
        return 2
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
    sys.stdout.write(_json_text(payload))
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
