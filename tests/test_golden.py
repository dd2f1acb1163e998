"""Golden outputs: every file ``tests/golden/make_golden.py`` writes must
match the committed copy byte for byte."""

import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
SCRIPT = os.path.join(GOLDEN, "make_golden.py")
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _files(root):
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            if path != SCRIPT:
                with open(path, "rb") as handle:
                    found[os.path.relpath(path, root)] = handle.read()
    return found


def test_outputs_match_goldens(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, SCRIPT, str(tmp_path)], env=env,
                   check=True, timeout=300)
    produced = _files(str(tmp_path))
    golden = _files(GOLDEN)
    assert sorted(produced) == sorted(golden)
    changed = [name for name in sorted(golden)
               if produced[name] != golden[name]]
    assert not changed, "outputs differ from tests/golden/: %s" % (changed,)
