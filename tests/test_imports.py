"""The package has no import cycle to work around: every import sits at
module top except ``cli.cmd_acceptance``'s, since acceptance imports cli.
Its runtime needs numpy alone: scipy is a test dependency only."""

import ast
import os
import subprocess
import sys

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
                    "impedance", "linalg", "surrogate")),
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


def test_no_module_mentions_scipy_or_defers_an_import():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as handle:
            text = handle.read()
        found += [(name, word) for word in ("scipy", "importlib")
                  if word in text]
        found += [(name, "__getattr__") for node in ast.parse(text).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "__getattr__"]
    assert found == []


RUN_WITHOUT_SCIPY = """
import os, sys
from superdir import acceptance, cli
golden, out = sys.argv[1], sys.argv[2]
config = os.path.join(out, "sweep.json")
with open(config, "w") as handle:
    handle.write('{"geometry": {"elements": 4, "spacing_wl": 0.1, '
                 '"element": "ideal_dipole", "steer_theta_deg": 90, '
                 '"steer_phi_deg": 90}, "sweep": {"d_min": 0.05, '
                 '"d_max": 0.5, "steps": 3}, "grid": {"n_theta": 16, '
                 '"n_phi": 32}, "efficiency": 0.96}')
codes = [
    cli.main(["sweep", "--config", config, "--regularize", "1e-12",
              "--out", os.path.join(out, "sweep.csv")]),
    cli.main(["estimate-c",
              "--es", os.path.join(golden, "dump", "es", "manifest.json"),
              "--ec", os.path.join(golden, "dump", "ec", "manifest.json"),
              "--out", os.path.join(out, "c.json")]),
    cli.main(["ingest", "--measurements", os.path.join(golden, "measurements"),
              "--config", os.path.join(golden, "ingest", "config.json"),
              "--out", os.path.join(out, "run")])]
assert all(r.passed for r in acceptance.run_all())
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_run_without_loading_scipy(tmp_path):
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE),
               TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY,
         os.path.join(tests, "golden"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0] []"
