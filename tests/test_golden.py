"""Golden outputs: every file ``tests/golden/make_golden.py`` writes must
match the committed copy byte for byte."""

import math
import os
import re
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
SCRIPT = os.path.join(GOLDEN, "make_golden.py")
SRC = os.path.join(os.path.dirname(TESTS), "src")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _files(root):
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            if path != SCRIPT:
                with open(path, "rb") as handle:
                    found[os.path.relpath(path, root)] = handle.read()
    return found


def _relative_change(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if math.isfinite(scale) else math.inf


def describe_difference(old, new):
    """First differing line of two files and the largest relative change
    among the numeric cells of lines that hold the same count of them."""
    old_lines = old.decode().splitlines()
    new_lines = new.decode().splitlines()
    first = next((i for i, (a, b) in enumerate(zip(old_lines, new_lines))
                  if a != b), min(len(old_lines), len(new_lines)))
    worst, worst_line = 0.0, None
    for lineno, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        cells_a, cells_b = NUMBER.findall(a), NUMBER.findall(b)
        if a == b or len(cells_a) != len(cells_b):
            continue
        for x, y in zip(cells_a, cells_b):
            change = _relative_change(float(x), float(y))
            if change > worst or worst_line is None:
                worst, worst_line = change, lineno
    text = "first differing line %d (%d lines golden, %d produced)" % (
        first + 1, len(old_lines), len(new_lines))
    if worst_line is not None:
        text += "; largest relative change %.3g at line %d" % (worst,
                                                               worst_line)
    return text


def test_outputs_match_goldens(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, SCRIPT, str(tmp_path)], env=env,
                   check=True, timeout=300)
    produced = _files(str(tmp_path))
    golden = _files(GOLDEN)
    assert sorted(produced) == sorted(golden)
    changed = ["%s: %s" % (name, describe_difference(golden[name],
                                                     produced[name]))
               for name in sorted(golden) if produced[name] != golden[name]]
    assert not changed, "outputs differ from tests/golden/:\n" + \
        "\n".join(changed)


def test_describe_difference_names_line_and_change():
    old = b"a,b\r\n1,2\r\n3,4\r\n"
    new = b"a,b\r\n1,2\r\n3,4.0004\r\n"
    assert describe_difference(old, new) == (
        "first differing line 3 (3 lines golden, 3 produced); "
        "largest relative change 0.0001 at line 3")
    assert describe_difference(b"x\n1\n", b"x\n1\n2\n") == \
        "first differing line 3 (2 lines golden, 3 produced)"
    assert describe_difference(b"nan,1\n", b"nan,-1\n").endswith(
        "largest relative change 2 at line 1")
