"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_runs(capsys):
    # the suite turns a warning into an error, so the sketch also runs clean
    exec(compile(library_sketch(), str(README), "exec"), {"__name__": "readme_sketch"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].startswith("(")   # the record's times shape
