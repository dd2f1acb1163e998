"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

Checks, on every workload, that:

- a corrupted output is caught: ``run.py --corrupt`` damages each op's
  output after the first and must report ``failed`` > 0;
- two traced runs with the same seed report identical counts (calls,
  regularized solves, errors, bytes), and their outputs are byte-identical
  to the untraced op 0 of the same run (``correct`` is true);

that sweep-m16's comparison with its committed reference catches a
one-part-per-million change on a well-conditioned spacing and leaves the
gated spacings alone; and that ``run.py`` exits non-zero without a
result line in a directory that holds only ``BENCHMARK.json`` and
``perfbench/``.  Exits 1 on any failure.
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_UNITS = ("count", "bytes")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result


def check_rows(sweep, rows):
    """Problems sweep-m16's check finds in a sweep CSV made of ``rows``."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    captured = {"codes": [0], "bytes": text.getvalue().encode()}
    return sweep.check(captured, captured)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    counted = [m["name"] for m in spec["per_layer"]
               if m["unit"] in COUNT_UNITS]
    failures = []

    def expect(ok, what):
        print("%s  %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "3", "--seconds", "1"]
        code, result = run(base + ["--trace", "0", "--corrupt"])
        expect(code == 0 and result is not None and result["failed"] > 0
               and not result["correct"],
               "%s: corrupted outputs raise failed (%s of %s)" % (
                   workload, result and result["failed"],
                   result and result["attempted"]))
        counts = []
        for _ in range(2):
            code, result = run(base + ["--trace", "1"])
            expect(code == 0 and result is not None and result["correct"],
                   "%s: traced run correct, output bytes equal to untraced"
                   % (workload,))
            if result is not None:
                counts.append({n: result["metrics"][n]["value"]
                               for n in counted})
        expect(len(counts) == 2 and counts[0] == counts[1],
               "%s: counts repeat across two traced runs" % (workload,))

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    workdir = os.path.join(ROOT, ".perfbench_work", "selftest_reference")
    os.makedirs(workdir, exist_ok=True)
    sweep = workloads.SweepM16(0, workdir)
    reference = sweep.expected
    beamwidth = reference[0].index("beamwidth_deg")
    # The first row is d = 0.05 (cond(Z) ~ 1e16, gated), the last d = 0.5.
    for row, factor, caught in ((-1, 1 + 1e-6, True), (1, 1.5, False)):
        rows = [list(r) for r in reference]
        rows[row][beamwidth] = repr(float(rows[row][beamwidth]) * factor)
        found = check_rows(sweep, rows)
        expect(bool(found) == caught,
               "sweep-m16: beamwidth x %s at d=%s %s" % (
                   factor, rows[row][0],
                   "caught" if caught else "ignored (gated)"))
    expect(check_rows(sweep, reference) == [],
           "sweep-m16: the reference itself passes")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run(["--workload", spec["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare)
    expect(code != 0 and result is None,
           "without src/ the benchmark exits %d and prints no result" % code)
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
