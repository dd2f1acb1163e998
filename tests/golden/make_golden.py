"""Write the golden outputs that ``tests/test_golden.py`` compares byte for byte.

    PYTHONPATH=src python3 tests/golden/make_golden.py tests/golden

regenerates every file next to this script (run from the root of a
checkout).  The outputs cover the ``sweep`` and ``pattern`` commands for
an isotropic and a dipole config, an H-plane field-dump pair, ``estimate-c``
from that dump (full and reduced-angle), the measurement CSVs made from
the same fields, ``ingest`` on them, and a small full-sphere dump pair
that pins the axial fields.

BLAS is pinned to one thread before numpy loads. With two threads every
output here comes out the same, the acceptance report included, but the
lag sums of Z run through threaded BLAS, so on a large enough grid (an
M=8 dipole sweep on 128x256) the digits move with the thread count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib
import io
import sys

import numpy as np

from superdir import cli, fileio, impedance, surrogate
from superdir.coupling import PatternMeasurement
from superdir.geometry import ArrayGeometry, hplane_grid, sphere_grid
from superdir.surrogate import TerminationSpec

SWEEP = {"d_min": 0.05, "d_max": 0.5, "steps": 10}
GRID = {"n_theta": 32, "n_phi": 64}
CONFIGS = {
    # M=4 isotropic, endfire.
    "iso": {"geometry": {"elements": 4, "spacing_wl": 0.3,
                         "element": "isotropic",
                         "steer_theta_deg": 0.0, "steer_phi_deg": 0.0},
            "sweep": SWEEP, "grid": GRID, "efficiency": 0.96},
    # M=8 dipoles steered to phi = 75 deg; cond(Z) passes the gate at
    # d = 0.05, so the regularized rows are pinned too.
    "dipole": {"geometry": {"elements": 8, "spacing_wl": 0.1,
                            "element": "ideal_dipole",
                            "steer_theta_deg": 90.0, "steer_phi_deg": 75.0},
               "sweep": SWEEP, "grid": GRID, "efficiency": 0.96},
}
# 3 deg keeps the files small and puts both reduced angles of
# ``--angles 2`` (45 and 90 deg) on the grid.
DUMP_STEP_DEG = 3.0
# The full-sphere dump pair: M=4 dipoles at d = 0.1 on an 8x16 grid.
AXIAL_GRID = {"kind": "full_sphere", "n_theta": 8, "n_phi": 16}


def _run(argv):
    code = cli.main(argv)
    if code != 0:
        raise SystemExit("superdir %s exited %d" % (" ".join(argv), code))


def _synthesis(out):
    for name, config in CONFIGS.items():
        directory = os.path.join(out, name)
        os.makedirs(directory, exist_ok=True)
        config_path = os.path.join(directory, "config.json")
        fileio.write_json(config_path, config)
        for command, target in (("sweep", "sweep.csv"),
                                ("pattern", "pattern.csv")):
            _run([command, "--config", config_path, "--regularize", "1e-12",
                  "--out", os.path.join(directory, target)])


def _measurements(directory, es, ec):
    os.makedirs(directory, exist_ok=True)
    phi_deg = np.rad2deg(es.grid.phi)
    for prefix, fields in (("isolated", es), ("coupled", ec)):
        rows = fields.values
        for m in range(fields.element_count):
            measurement = PatternMeasurement(
                phi_deg=phi_deg, amplitude=np.abs(rows[:, m]) ** 2,
                phase_deg=np.rad2deg(np.angle(rows[:, m])), antenna_index=m)
            fileio.write_measurement_csv(
                os.path.join(directory, "%s_%d.csv" % (prefix, m + 1)),
                measurement)


def _field_files(out):
    geom = ArrayGeometry(element_count=4, spacing=0.3, element="ideal_dipole")
    grid = hplane_grid(DUMP_STEP_DEG)
    es = surrogate.isolated_fields(geom, grid)
    ec, _ = surrogate.coupled_fields(geom, grid,
                                     impedance.port_impedance_for(geom),
                                     TerminationSpec())
    params = {"kind": "h_plane", "step_deg": DUMP_STEP_DEG}
    dump = os.path.join(out, "dump")
    es_manifest = fileio.write_field_dump(os.path.join(dump, "es"), es, geom,
                                          params)
    ec_manifest = fileio.write_field_dump(os.path.join(dump, "ec"), ec, geom,
                                          params)
    pair = ["--es", es_manifest, "--ec", ec_manifest]
    _run(["estimate-c"] + pair + ["--out", os.path.join(dump, "c_full.json")])
    _run(["estimate-c"] + pair + ["--angles", "2",
                                  "--out", os.path.join(dump, "c_angles2.json")])

    measurements = os.path.join(out, "measurements")
    _measurements(measurements, es, ec)
    ingest = os.path.join(out, "ingest")
    os.makedirs(ingest, exist_ok=True)
    config_path = os.path.join(ingest, "config.json")
    fileio.write_json(config_path, {"geometry": fileio.geometry_to_dict(geom)})
    _run(["ingest", "--measurements", measurements, "--config", config_path,
          "--out", os.path.join(ingest, "run")])


def _axial_fields(out):
    geom = ArrayGeometry(element_count=4, spacing=0.1, element="ideal_dipole")
    grid = sphere_grid(AXIAL_GRID["n_theta"], AXIAL_GRID["n_phi"])
    ec, _ = surrogate.coupled_fields(geom, grid,
                                     impedance.port_impedance_for(geom))
    directory = os.path.join(out, "axial")
    for name, fields in (("es", surrogate.isolated_fields(geom, grid)),
                         ("ec", ec)):
        fileio.write_field_dump(os.path.join(directory, name), fields, geom,
                                AXIAL_GRID)


def _acceptance(out):
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        _run(["acceptance"])
    with open(os.path.join(out, "acceptance.txt"), "w") as handle:
        handle.write(report.getvalue())


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: make_golden.py <output-dir>")
    out = argv[0]
    _synthesis(out)
    _field_files(out)
    _axial_fields(out)
    _acceptance(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
