"""Every name a module of the package imports is used in it, every
private module-level name is used somewhere in the package, every
public module-level function and class is used somewhere in the
package, its tests or its benchmark, and the package imports only a
pinned set of standard-library modules."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singspec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# importing a module is start-up work that every run of the CLI pays,
# so a new one is a deliberate edit of this set
STDLIB_MODULES = {"argparse", "bisect", "fractions", "functools",
                  "itertools", "json", "math", "operator", "re", "sys",
                  "time"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_referenced(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _private_definitions(tree):
    """Module-level private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _referenced_names(paths):
    """Names read, attributes taken and names imported in the files."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_private_name_is_referenced():
    """A private module-level name that nothing in the package reads is
    a leftover."""
    defined = {name: path.name for path in PACKAGE.glob("*.py")
               for name in _private_definitions(ast.parse(path.read_text()))}
    used = _referenced_names(PACKAGE.glob("*.py"))
    assert sorted("%s in %s" % (name, module) for name, module
                  in defined.items() if name not in used) == []


def test_every_public_function_and_class_is_referenced():
    """A public module-level function or class that neither the package,
    its tests nor its benchmark uses is a leftover."""
    defined = {node.name: path.name for path in PACKAGE.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = _referenced_names(path for folder in ("src", "tests", "bench")
                             for path in (ROOT / folder).rglob("*.py"))
    assert sorted("%s in %s" % (name, module) for name, module
                  in defined.items() if name not in used) == []


def test_only_pinned_stdlib_modules_are_imported():
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert sorted(found - STDLIB_MODULES) == []
