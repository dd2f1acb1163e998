"""The benchmark tracer wraps package functions by name; keep them there.

``perfbench/tracer.py`` looks up every ``module.function`` of its
``TRACED`` table with ``getattr`` when it installs, so renaming or
removing one of those functions breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import pathlib
import types

TRACER = (pathlib.Path(__file__).resolve().parents[1] / "perfbench" /
          "tracer.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for name in tracer.TRACED:
        module_name, function_name = name.rsplit(".", 1)
        module = importlib.import_module(
            "%s.%s" % (tracer.PACKAGE, module_name))
        function = getattr(module, function_name, None)
        assert isinstance(function, types.FunctionType), name
