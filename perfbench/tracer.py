"""Span tracer that wraps package functions from outside the package.

``from .geometry import sphere_grid`` binds a second name to the same
function object, so a function is wrapped at every ``superdir.*`` module
global bound to it (and inside module-level tuples such as
``acceptance.CRITERIA``).  ``restore()`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, op]``, where ``parent`` is
the index of the enclosing span or -1.  Spans stay in memory until
``write()``.  Counts (calls, errors and per-function probes such as
bytes written) are kept per op.
"""

import collections
import functools
import json
import math
import os
import statistics
import sys
import time
import types

from superdir import linalg

PACKAGE = "superdir"


def _dir_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def _probe_gated_solve(result, args, kwargs):
    threshold = kwargs.get("threshold", linalg.CONDITION_GATE)
    cond = result[1]
    return {"regularized": int(not math.isfinite(cond) or cond > threshold)}


def _probe_coupled_fields(result, args, kwargs):
    return {"field_bytes": result[0].values.nbytes}


def _probe_write_field_dump(result, args, kwargs):
    return {"bytes": _dir_bytes(os.path.dirname(result))}


def _probe_read_field_dump(result, args, kwargs):
    return {"bytes": _dir_bytes(os.path.dirname(os.path.abspath(args[0])))}


# module.function -> (kind, probe).  "span" records a span per call;
# "count" only counts calls, for functions called thousands of times
# per op whose time belongs to the caller's self time.
TRACED = {
    "cli.main": ("span", None),
    "geometry.sphere_grid": ("span", None),
    "geometry.steering_matrix": ("span", None),
    "impedance.z_full": ("span", None),
    "impedance.port_impedance_for": ("span", None),
    "impedance.mutual_impedance_emf": ("count", None),
    "impedance.z_from_measurements": ("span", None),
    "surrogate.coupled_fields": ("span", _probe_coupled_fields),
    "linalg.gated_solve": ("span", _probe_gated_solve),
    "linalg.condition_number": ("span", None),
    "linalg.lstsq_cutoff": ("span", None),
    "linalg.singular_ratio": ("span", None),
    "beamforming.mrt_vector": ("span", None),
    "beamforming.traditional_vector": ("span", None),
    "beamforming.proposed_vector": ("span", None),
    "beamforming.max_directivity": ("span", None),
    "beamforming.pattern_metrics": ("span", None),
    "coupling.estimate_c_full": ("span", None),
    "coupling.estimate_c_reduced": ("span", None),
    "coupling.fields_from_measurements": ("span", None),
    "fileio.write_field_dump": ("span", _probe_write_field_dump),
    "fileio.read_field_dump": ("span", _probe_read_field_dump),
    "fileio.read_measurement_csv": ("span", None),
    "fileio.write_sweep_csv": ("span", None),
}
TRACED.update({"acceptance.criterion_%d" % n: ("span", None)
               for n in range(1, 15)})


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.defaultdict(int)  # (op, key) -> int
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, kind, probe):
        counts = self.counts

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[(self.op, name + ".calls")] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            counts[(op, name + ".calls")] += 1
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[(op, name + ".errors")] += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if probe is not None:
                for key, value in probe(result, args, kwargs).items():
                    counts[(op, name + "." + key)] += value
            return result
        return traced

    def _modules(self):
        prefix = PACKAGE + "."
        return [module for name, module in sorted(sys.modules.items())
                if module is not None and (name == PACKAGE or
                                           name.startswith(prefix))]

    def install(self):
        """Wrap every traced function at every module global bound to it."""
        wrappers = {}
        for name, (kind, probe) in TRACED.items():
            module_name, fn_name = name.rsplit(".", 1)
            module = sys.modules["%s.%s" % (PACKAGE, module_name)]
            original = getattr(module, fn_name)
            wrappers[original] = self._wrap(name, original, kind, probe)

        def swap(value):
            if isinstance(value, types.FunctionType):
                return wrappers.get(value, value)
            if isinstance(value, tuple) and any(swap(v) is not v
                                                for v in value):
                return tuple(swap(v) for v in value)
            return value

        for module in self._modules():
            for attr, value in list(vars(module).items()):
                replacement = swap(value)
                if replacement is not value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def restore(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def per_op(self):
        """{op: {metric: value}} with self and total seconds per name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = collections.defaultdict(lambda: collections.defaultdict(float))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            table[op][name + ".self_s"] += (end - start - child[index]) * 1e-9
            table[op][name + ".s"] += (end - start) * 1e-9
        for (op, key), value in self.counts.items():
            table[op][key] += value
        return table

    def summary(self, ops, names):
        """Median over ``ops`` of each named per-op metric (0 if absent)."""
        table = self.per_op()
        return {name: statistics.median(table[op].get(name, 0) for op in ops)
                for name in names}

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent,
                                         "op": op}) + "\n")
