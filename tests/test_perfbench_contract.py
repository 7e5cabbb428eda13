"""The benchmark's tracer (``perfbench/worker.py``) rebinds the public mjls
functions named in its ``TRACED`` table, so ``perfbench/run.py --trace 1``
breaks when one of them is renamed or removed.  The table is read as text;
the worker is never imported."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def traced_names() -> list[tuple[str, str]]:
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError(f"no TRACED table in {WORKER}")


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_is_a_function(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"mjls.{module}"), name, None))
