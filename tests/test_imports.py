"""Import hygiene of the package, read from its source with ``ast``: every
name a module imports is used in it, and no module imports the benchmark
harness, which patches the package from outside."""

import ast
import pathlib

import pytest

import vslr

SRC = pathlib.Path(vslr.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
HARNESS = {"perfbench", "jobs", "tracing", "worker"}


def _imports(tree) -> list:
    """(bound name, dotted module) for each import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.module or "") for a in node.names]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name, _ in _imports(tree) if name not in used]
    assert unused == [], unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_the_harness(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [mod for name, mod in _imports(tree)
           if HARNESS & {name, *mod.split(".")}]
    assert bad == [], bad
