"""Import hygiene of the package, read from its source with ``ast``: every
name a module imports is used in it, no module imports the benchmark
harness, which patches the package from outside, and no module reads
another's private names beyond the few listed here."""

import ast
import pathlib

import pytest

import vslr

SRC = pathlib.Path(vslr.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
HARNESS = {"perfbench", "jobs", "tracing", "worker"}
# (reader, owner, name): attention's trace recomputes the fused op's weights,
# and cross_entropy builds its own graph node
PRIVATE_READS = {("attention", "tensor", "_attn_split"), ("attention", "tensor", "_attn_weights"),
                 ("train", "tensor", "_make_node")}


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


def _private_reads(path) -> set:
    """(reader, owner, name) for each private name of another package
    module that ``path`` reads: ``from .owner import _name``, or
    ``alias._name`` where ``alias`` is bound by ``from . import owner``.
    The package imports its own modules only relatively."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reader, owners, out = path.stem, {}, set()

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    owners[a.asname or a.name] = a.name
                elif private(a.name):
                    out.add((reader, node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in owners and private(node.attr)):
            out.add((reader, owners[node.value.id], node.attr))
    return out


def test_modules_read_no_other_private_names():
    reads = set().union(*(_private_reads(p) for p in MODULES))
    assert reads == PRIVATE_READS, reads ^ PRIVATE_READS
