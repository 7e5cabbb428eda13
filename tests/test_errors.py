"""Every exception class in ``mjls.errors`` is raised somewhere in the
package, so a class whose last ``raise`` is deleted goes with it.  The
sources are read as text; nothing is imported."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mjls"


def error_classes() -> list[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef) and node.name != "MjlsError"]


def test_error_classes_found():
    assert "InvalidModel" in error_classes()


@pytest.mark.parametrize("name", error_classes())
def test_error_class_is_raised(name):
    raised = re.compile(rf"\braise\s+{name}\b")
    assert any(raised.search(path.read_text()) for path in PACKAGE.rglob("*.py")), f"{name} is never raised"
