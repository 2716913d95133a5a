"""Digest the output files of a fixed set of ``jumpnls`` commands.

A refactor that must keep every command line output byte-identical is
checked by digesting the same command set against both source trees and
comparing the two digests:

    PYTHONPATH=/path/to/parent/src python tools/output_digest.py --out parent.json
    PYTHONPATH=src python tools/output_digest.py --out change.json
    python tools/output_digest.py --compare parent.json change.json

The set is ``simulate`` on ``configs/*.ini`` and ``perfbench/workloads/*.ini``
for master seeds 0-3 with ``save_states`` false and true, ``converge --levels
2,3`` on every INI and ``--levels 4,5`` on converge-2d, ``moments`` on every
INI, and ``verify``, ``verify --list`` and ``verify --only
seed_streams,cutoff_branches``, which take no INI.  The INIs are only read:
``save_states`` is set on a temporary copy.  Each command runs in-process in
its own temporary directory, and its digest maps each file it wrote,
``<stdout>`` and ``<stderr>`` to their sha256 and ``<exit>`` to its exit code.
``--compare`` lists the files whose digests differ and exits 1 if any do.
Only the standard library and ``jumpnls`` are used.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)


def commands():
    """``(key, INI or None, save_states or None, arguments)`` of each command of the set."""
    inis = sorted(ROOT.glob("configs/*.ini")) + sorted(ROOT.glob("perfbench/workloads/*.ini"))
    names = [ini.relative_to(ROOT).as_posix() for ini in inis]
    for ini, name in zip(inis, names):
        for seed in SEEDS:
            for save in ("false", "true"):
                yield (f"simulate {name} --seed {seed} save_states={save}", ini, save,
                       ["simulate", "--out", "out", "--seed", str(seed)])
    for ini, name in zip(inis, names):
        for levels in ("2,3", "4,5") if ini.stem == "converge-2d" else ("2,3",):
            yield (f"converge {name} --levels {levels}", ini, None,
                   ["converge", "--levels", levels])
    for ini, name in zip(inis, names):
        yield f"moments {name}", ini, None, ["moments"]
    for options in ([], ["--list"], ["--only", "seed_streams,cutoff_branches"]):
        yield " ".join(["verify"] + options), None, None, ["verify"] + options


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(ini: Path | None, save_states: str | None, arguments: list[str]) -> dict:
    """Run one command in a fresh directory; the digest of what it produced."""
    from jumpnls.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        config = ini
        if save_states is not None:
            parser = configparser.ConfigParser(interpolation=None)
            parser.read(ini, encoding="utf-8")
            if not parser.has_section("output"):
                parser.add_section("output")
            parser["output"]["save_states"] = save_states
            config = Path(work) / "run.ini"
            with open(config, "w", encoding="utf-8") as handle:
                parser.write(handle)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(arguments + ([] if ini is None else ["--config", str(config)]))
                except Exception as exc:  # an uncaught error is an output too
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = 1
        finally:
            os.chdir(cwd)
        out = Path(work) / "out"
        digest = {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
                  for path in sorted(out.rglob("*")) if path.is_file()}
    digest["<stdout>"] = _sha256(stdout.getvalue().encode("utf-8"))
    digest["<stderr>"] = _sha256(stderr.getvalue().encode("utf-8"))
    digest["<exit>"] = str(code)
    return digest


def digest_all(match: str = "") -> dict:
    """``{command: {file: sha256}}`` of the commands whose key contains ``match``."""
    return {key: run_command(ini, save, arguments)
            for key, ini, save, arguments in commands() if match in key}


def compare(a: dict, b: dict) -> list[str]:
    """``command: file`` of every file present in one digest only or differing."""
    differing = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            differing.append(f"{key}: only in {'B' if key not in a else 'A'}")
            continue
        files_a, files_b = a[key], b[key]
        differing += [f"{key}: {name}" for name in sorted(files_a.keys() | files_b.keys())
                      if files_a.get(name) != files_b.get(name)]
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the digest JSON here instead of stdout")
    parser.add_argument("--match", default="",
                        help="run only the commands whose key contains this text")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the files whose digests differ between two digests")
    args = parser.parse_args(argv)
    if args.compare:
        digests = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare]
        differing = compare(*digests)
        for line in differing:
            print(line)
        total = sum(len(files) for files in digests[0].values())
        print(f"{len(differing)} differing of {total} files over {len(digests[0])} commands")
        return 1 if differing else 0
    text = json.dumps(digest_all(args.match), sort_keys=True, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
