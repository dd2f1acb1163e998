"""The package has no import cycle to work around: every import sits at
module top except ``cli.cmd_acceptance``'s, since acceptance imports cli."""

import ast
import os

import superdir

PACKAGE = os.path.dirname(os.path.abspath(superdir.__file__))


def _function_imports(path):
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((os.path.basename(path), node.name))
    return found


def test_only_cmd_acceptance_imports_inside_a_function():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            found += _function_imports(os.path.join(PACKAGE, name))
    assert found == [("cli.py", "cmd_acceptance")]


# Each module's intra-package imports at module top, in an order where a
# module imports only modules listed before it, so the graph has no cycle.
# beamforming imports only linalg: synthesis takes C as a plain array and
# needs no field model.
LAYERS = (
    ("linalg", ()),
    ("geometry", ()),
    ("coupling", ("geometry", "linalg")),
    ("impedance", ("geometry", "linalg")),
    ("surrogate", ("coupling", "geometry", "impedance", "linalg")),
    ("beamforming", ("linalg",)),
    ("fileio", ("coupling", "geometry")),
    ("cli", ("beamforming", "coupling", "fileio", "geometry", "impedance",
             "linalg", "surrogate")),
    ("acceptance", ("beamforming", "cli", "coupling", "geometry",
                    "impedance", "surrogate")),
    ("__init__", ("beamforming", "coupling", "geometry", "impedance",
                  "linalg", "surrogate")),
)


def _package_imports(path):
    """Sibling modules named by ``from .x import`` and ``from . import x``
    statements at module top."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_import_graph_matches_the_declared_layers():
    earlier = set()
    for module, imports in LAYERS:
        assert set(imports) <= earlier, (module, set(imports) - earlier)
        earlier.add(module)
    actual = {name[:-3]: _package_imports(os.path.join(PACKAGE, name))
              for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    assert actual == {module: set(imports) for module, imports in LAYERS}
