"""Every python block in README.md runs, each in a fresh namespace, so a
rename the README still uses fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[tuple[int, str]]:
    text = README.read_text()
    return [
        (text.count("\n", 0, m.start()) + 2, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    ]


def test_blocks_found():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("line, code", [pytest.param(*b, id=f"line{b[0]}") for b in python_blocks()])
def test_python_block_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "__readme__"})
