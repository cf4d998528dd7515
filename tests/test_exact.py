"""The package works over the rationals: no float literal and no use of
the name `float` anywhere in its source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "singspec").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 7


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant)
             and isinstance(node.value, (float, complex))
             or isinstance(node, ast.Name) and node.id == "float"]
    assert not found, "%s: floats on lines %s" % (path.name, found)
