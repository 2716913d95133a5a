"""Smoke test of ``tools/output_digest.py``: one cheap command, then ``--compare``."""

import hashlib
import importlib.util
import json
from pathlib import Path

from jumpnls.cli import main as jumpnls_main

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_runs_one_command_and_compares(tmp_path, capsys):
    tool = load_tool()
    keys = [key for key, *_ in tool.commands()]
    # six INIs: simulate at 4 seeds x 2 save_states, converge once each and
    # once more on converge-2d, moments once each; three verify commands
    assert len(set(keys)) == len(keys) == 6 * 8 + 7 + 6 + 3
    key = "moments configs/atomic_cubic.ini"
    first = tmp_path / "a.json"
    assert tool.main(["--match", key, "--out", str(first)]) == 0
    table = json.loads(first.read_text(encoding="utf-8"))
    assert list(table) == [key]

    assert jumpnls_main(["moments", "--config", str(ROOT / "configs" / "atomic_cubic.ini")]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    empty = hashlib.sha256(b"").hexdigest()
    assert table[key] == {"<exit>": "0", "<stderr>": empty,
                          "<stdout>": hashlib.sha256(stdout).hexdigest()}

    assert tool.main(["--compare", str(first), str(first)]) == 0
    assert capsys.readouterr().out == "0 differing of 3 files over 1 commands\n"
    table[key]["<stdout>"] = empty
    second = tmp_path / "b.json"
    second.write_text(json.dumps(table), encoding="utf-8")
    assert tool.main(["--compare", str(first), str(second)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{key}: <stdout>"
