"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-m16 --seed 1 --seconds 35 \
        --trace 0

Run from the root of a checkout; ``src/superdir`` is imported from that
checkout, never from an installed copy.  The workload runs in fresh
worker processes (``worker.py``) with BLAS/OpenMP pinned to one thread:
one runs the timed closed loop, and set-up-only workers before and after
it give the median set-up time.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for ``--trace 0`` and
its per-layer metrics for ``--trace 1``.  Earlier lines record the
environment and the details behind the metrics.  Scratch files go to
``.perfbench_work/<workload>/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
# Set-up is timed in fresh interpreters, this many before and as many
# after the timed loop, plus the loop's own worker; the median is
# reported.  Splitting them spreads the samples over the whole run, since
# a shared machine's speed drifts over tens of seconds.
SETUP_EACH_SIDE = 6
# Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
TAIL_BEYOND = 10


def _tail(durations):
    """Highest-percentile sample with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With too few samples
    it falls back to the smallest one, and says how many lie beyond.
    """
    ordered = sorted(durations)
    index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)


def _worker(args, workdir, extra, started, env):
    command = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir] + extra
    timeout = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(timeout, 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with code %d" % (proc.returncode,))
    return json.loads(lines[-1])


def _worker_env(workdir):
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # acceptance criterion 14 writes through tempfile; keep it in the checkout.
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    return env


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output after the first op "
                             "(self-test of the output checks)")
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "superdir", "__init__.py")
    if not os.path.isfile(package):
        print("error: %s has no src/superdir to benchmark" % (ROOT,),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("error: unknown workload %r" % (args.workload,), file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        print("error: --seconds must lie in (0, 120]", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "tmp"))
    env = _worker_env(workdir)

    def setup_only():
        return _worker(args, os.path.join(workdir, "setup"), ["--setup-only"],
                       started, env)["setup_s"]

    extra = ["--corrupt"] if args.corrupt else []
    # A traced run reports no setup_s, so it needs no set-up-only workers.
    each_side = 0 if args.trace else SETUP_EACH_SIDE
    try:
        setups = [setup_only() for _ in range(each_side)]
        run = _worker(args, os.path.join(workdir, "run"), extra, started, env)
        setups += [run["setup_s"]] + [setup_only() for _ in range(each_side)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1

    durations = run["durations"]
    tail, percentile, beyond = _tail(durations)
    succeeded = run["attempted"] - run["failed"]
    details = {"workload": args.workload, "seed": args.seed,
               "inputs": run["inputs"], "samples": len(durations),
               "op_tail_percentile": percentile,
               "op_tail_samples_beyond": beyond,
               "failed_ratio": run["failed"] / run["attempted"],
               "setup_samples_s": setups,
               "rows_above_bound": run["rows_above_bound"],
               "problems": run["problems"]}
    if "trace_file" in run:
        details["trace_file"] = os.path.relpath(run["trace_file"], ROOT)
    print(json.dumps({"env": run["env"]}, sort_keys=True))
    print(json.dumps({"details": details}, sort_keys=True))

    if args.trace:
        values = run["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {"op_p50_s": statistics.median(durations),
                  "op_tail_s": tail,
                  "ops_per_s": succeeded / run["wall_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        if metric["unit"] in ("count", "bytes"):
            value = int(value)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
