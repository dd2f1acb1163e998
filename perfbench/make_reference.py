"""Write the reference sweep CSVs that sweep-m16's check compares against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout whose sweep results are known to be
right: it overwrites ``perfbench/reference/``, one CSV per steering
azimuth in ``workloads.STEER_PHI_DEG``.
"""

import os

from workloads import REFERENCE_DIR, STEER_PHI_DEG, SweepM16, reference_path


def main():
    root = os.path.dirname(os.path.dirname(REFERENCE_DIR))
    workdir = os.path.join(root, ".perfbench_work", "reference")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    config = os.path.join(workdir, "sweep_config.json")
    for steer_phi in STEER_PHI_DEG:
        SweepM16.write_config(config, steer_phi)
        code = SweepM16.sweep(config, reference_path(steer_phi))
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
