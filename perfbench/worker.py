"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started by ``run.py`` in a fresh interpreter, with ``PYTHONPATH`` naming
the checkout's ``src`` and the BLAS/OpenMP thread count pinned in the
environment.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload sweep-m16 --seed 1 \
        --seconds 10 --trace 0 --workdir .perfbench_work/sweep-m16

``--setup-only`` stops after the set-up and reports its time.  With
``--trace 1`` odd-numbered ops run under the tracer and even-numbered
ops without it, so both see the same machine state; their medians give
the tracer's overhead.  ``--corrupt`` damages every op's output after
the first, which the checks must catch (used by ``selftest.py``).
"""

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback

# Set-up time starts before the package is imported.
START = time.perf_counter()
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle
                        if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment():
    import numpy
    import scipy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _tracer_key(name):
    """Tracer key of a per-layer metric: criterion_01 is criterion_1."""
    match = re.fullmatch(r"acceptance\.criterion_(\d+)\.s", name)
    return "acceptance.criterion_%d.s" % int(match.group(1)) if match else name


def main(argv=None):
    args = _parse(argv)
    import superdir
    import tracer as tracing
    import workloads

    src = os.path.join(os.path.abspath(os.getcwd()), "src")
    if not os.path.abspath(superdir.__file__).startswith(src + os.sep):
        print("error: superdir imported from %s, not from %s" %
              (superdir.__file__, src), file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer()
    records = []  # (op index, traced, seconds, captured or None)
    loop_start = time.perf_counter()
    while True:
        index = len(records)
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.op = index
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except Exception:
            result = None
            traceback.print_exc()
        t1 = time.perf_counter()
        if traced:
            tracer.restore()
        captured = None
        if result is not None:
            try:
                captured = workload.capture(result,
                                            corrupt=args.corrupt and index > 0)
            except (OSError, ValueError):
                traceback.print_exc()
        records.append((index, traced, t1 - t0, captured))
        # Tracing and corruption both need a second op beside op 0.
        if t1 - loop_start >= args.seconds and \
                index >= int(args.trace or args.corrupt):
            break
    wall_s = t1 - loop_start

    reference = next((c for _, _, _, c in records if c is not None), None)
    failures = {}
    for index, _, _, captured in records:
        if captured is None:
            found = ["op raised or left no output"]
        else:
            try:
                found = workload.check(captured, reference)
            except (ValueError, KeyError, IndexError) as exc:
                found = ["unreadable output: %r" % (exc,)]
        if found:
            failures[index] = found
    problems = ["op %d: %s" % (i, p) for i, found in sorted(failures.items())
                for p in found]

    plain = [s for _, traced, s, _ in records if not traced]
    out = {"setup_s": setup_s, "wall_s": wall_s, "durations": plain,
           "attempted": len(records), "failed": len(failures),
           "problems": problems[:10], "inputs": workload.inputs,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": _environment()}
    rows_above = []
    if hasattr(workload, "rows_above_bound"):
        rows_above = [workload.rows_above_bound(c) for i, _, _, c in records
                      if i not in failures]
    extra = {"cli.sweep.rows_above_bound":
             statistics.median(rows_above) if rows_above else 0}
    out["rows_above_bound"] = extra["cli.sweep.rows_above_bound"]
    if args.trace:
        traced_ops = [i for i, traced, _, _ in records if traced]
        traced_times = [s for _, traced, s, _ in records if traced]
        overhead = statistics.median(traced_times) - statistics.median(plain)
        extra["tracer.overhead_s"] = overhead
        extra["tracer.overhead_pct"] = 100.0 * overhead / \
            statistics.median(plain)
        with open(SPEC) as handle:
            names = [m["name"] for m in json.load(handle)["per_layer"]]
        keys = {n: _tracer_key(n) for n in names if n not in extra}
        values = tracer.summary(traced_ops, sorted(set(keys.values())))
        out["per_layer"] = {n: extra[n] if n in extra else values[keys[n]]
                            for n in names}
        out["trace_file"] = os.path.join(args.workdir, "trace.jsonl")
        tracer.write(out["trace_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
