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
