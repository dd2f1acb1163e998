"""The three benchmark workloads: inputs from a seed, one op, output checks.

A workload object is built once per worker process (``setup``), then the
worker calls ``op()`` in a closed loop, ``capture()`` after each op to
take the op's outputs off disk, and ``check()`` on every captured output
once the timed phase is over.  Only ``op()`` is timed.

The package is driven through public calls only: ``superdir.cli.main``,
``superdir.fileio.write_field_dump`` / ``write_measurement_csv`` and
``superdir.acceptance.run_all``.  The seed fixes the inputs; no workload
varies the amount of work with the seed, so figures from different seeds
are comparable.
"""

import csv
import io
import json
import math
import os
import random

import numpy as np

from superdir import acceptance, cli, fileio, impedance, surrogate
from superdir.coupling import PatternMeasurement
from superdir.geometry import ArrayGeometry, hplane_grid, sphere_grid
from superdir.surrogate import TerminationSpec

CONDITION_GATE = 1e12
# sweep-m16's steering azimuths; the seed picks one.  reference/ holds
# the sweep CSV of each, as written by ``make_reference.py``.
STEER_PHI_DEG = (90.0, 75.0, 60.0, 45.0)
# Sweep columns that sit at 0 (a grating lobe as high as the main lobe,
# the theoretical row's own deltas), where only an absolute tolerance works.
ZERO_LEVEL_COLUMNS = ("psll_db", "delta_d", "delta_f_db")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def reference_path(steer_phi):
    return os.path.join(REFERENCE_DIR, "sweep-m16_phi%g.csv" % (steer_phi,))


def _write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)


def _take(path):
    """Read an op's output file and delete it, so that an op which fails
    to write it cannot pass on the previous op's copy."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return b""
    os.remove(path)
    return data


def _corrupt_bytes(data):
    """Change the last digit in ``data`` to another digit."""
    for index in range(len(data) - 1, -1, -1):
        if data[index:index + 1].isdigit():
            digit = b"7" if data[index:index + 1] != b"7" else b"3"
            return data[:index] + digit + data[index + 1:]
    return data + b"0"


class SweepM16:
    """``superdir sweep``: M=16 ideal dipoles, 50 spacings, 64x128 grid.

    Almost all of the time is in impedance, surrogate, linalg and
    beamforming; fileio only writes one 200-row CSV.  d_min = 0.05 keeps
    the 20 gated spacings (cond(Z) > 1e12) in the sweep.
    """

    name = "sweep-m16"
    elements = 16
    steps = 50

    def __init__(self, seed, workdir):
        # The seed picks the steering azimuth in the H-plane; the amount
        # of work does not depend on it.
        steer_phi = STEER_PHI_DEG[seed % len(STEER_PHI_DEG)]
        self.inputs = {"steer_phi_deg": steer_phi}
        with open(reference_path(steer_phi), newline="") as handle:
            self.expected = list(csv.reader(handle))
        self.config = os.path.join(workdir, "sweep_config.json")
        self.out = os.path.join(workdir, "sweep.csv")
        self.write_config(self.config, steer_phi)

    @classmethod
    def write_config(cls, path, steer_phi):
        _write_json(path, {
            "geometry": {"elements": cls.elements, "spacing_wl": 0.1,
                         "element": "ideal_dipole", "steer_theta_deg": 90.0,
                         "steer_phi_deg": steer_phi},
            "methods": ["mrt", "traditional", "proposed", "theoretical"],
            "sweep": {"d_min": 0.05, "d_max": 0.5, "steps": cls.steps},
            "grid": {"n_theta": 64, "n_phi": 128},
            "efficiency": 0.96})

    @staticmethod
    def sweep(config, out):
        return cli.main(["sweep", "--config", config, "--out", out,
                         "--regularize", "1e-12"])

    def op(self):
        return [self.sweep(self.config, self.out)]

    def capture(self, codes, corrupt=False):
        data = _take(self.out)
        if corrupt:
            data = _corrupt_bytes(data)
        return {"codes": codes, "bytes": data}

    def check(self, captured, reference):
        """Problems with one op's output; an empty list means correct."""
        problems = ["exit code %d" % c for c in captured["codes"] if c != 0]
        if captured["bytes"] != reference["bytes"]:
            problems.append("sweep CSV differs from the run's first op")
        rows = list(csv.reader(io.StringIO(captured["bytes"].decode())))
        if not rows or rows[0] != fileio.SWEEP_COLUMNS:
            return problems + ["bad sweep CSV header"]
        if len(rows) != 1 + 4 * self.steps:
            problems.append("%d rows, expected %d" % (len(rows) - 1,
                                                       4 * self.steps))
        for row in rows[1:]:
            for column, text in zip(fileio.SWEEP_COLUMNS[2:], row[2:]):
                value = float(text)
                # psll_db is NaN by definition for a single-lobe cut.
                if math.isinf(value) or (math.isnan(value) and
                                         column != "psll_db"):
                    problems.append("non-finite %s at %s/%s" %
                                    (column, row[0], row[1]))
        for spacing, cond_z, proposed, bound in _proposed_vs_bound(captured):
            if cond_z <= CONDITION_GATE and abs(proposed - bound) > \
                    (1e-15 * cond_z + 1e-12) * abs(bound):
                problems.append("proposed %r != theoretical %r at d=%s" %
                                (proposed, bound, spacing))
        return problems + self._against_reference(rows)

    def _against_reference(self, rows):
        """Every numeric column against the committed reference sweep,
        on the spacings whose Z stays under the condition gate.  Rounding
        in a solve grows with cond(Z), and so does the tolerance; gated
        rows are left to ``rows_above_bound``."""
        problems = []
        condition = self.expected[0].index("condition_z")
        for got, want in zip(rows[1:], self.expected[1:]):
            cond_z = float(want[condition])
            if cond_z > CONDITION_GATE:
                continue
            if got[1] != want[1]:
                problems.append("method %s where the reference has %s" %
                                (got[1], want[1]))
                continue
            # A few ulps of change in Z (summation order, say) move a
            # solve's result by up to ~1e-14 cond(Z) relative.
            drift = 1e-13 * cond_z
            for column, a, b in zip(self.expected[0], got, want):
                if column == "method":
                    continue
                a, b = float(a), float(b)
                abs_tol = 1e-12 + drift if column in ZERO_LEVEL_COLUMNS \
                    else 0.0
                if not (math.isclose(a, b, rel_tol=1e-9 + drift,
                                     abs_tol=abs_tol)
                        or math.isnan(a) and math.isnan(b)):
                    problems.append("%s %r at %s/%s, reference %r" %
                                    (column, a, want[0], want[1], b))
        return problems

    @staticmethod
    def rows_above_bound(captured):
        """Proposed rows above the printed theoretical bound on spacings
        whose Z crossed the condition gate (regularized solves)."""
        return sum(1 for _, cond_z, proposed, bound
                   in _proposed_vs_bound(captured)
                   if cond_z > CONDITION_GATE and proposed > bound)


def _proposed_vs_bound(captured):
    """(spacing, cond(Z), proposed, theoretical) for each sweep spacing."""
    by_spacing = {}
    for row in csv.DictReader(io.StringIO(captured["bytes"].decode())):
        by_spacing.setdefault(row["spacing_wl"], {})[row["method"]] = row
    return [(spacing, float(m["proposed"]["condition_z"]),
             float(m["proposed"]["directivity"]),
             float(m["theoretical"]["directivity"]))
            for spacing, m in by_spacing.items()]


class FilesM8:
    """Field-file and measurement paths for M=8 on a 64x128 grid.

    One op writes the E_s/E_c dump pair, runs ``estimate-c --es --ec``,
    writes the 2x8 H-plane measurement CSVs (1 degree step), and runs
    ``ingest`` and ``estimate-c --measurements --angles 4``.  The time is
    in fileio and coupling; the sweep-side physics runs only in setup.
    """

    name = "files-m8"
    elements = 8

    def __init__(self, seed, workdir):
        # The seed picks the spacing and, per measurement file, how many
        # whole turns are added to the phase column (the unwrapping branch
        # an instrument export happens to use); Z and C must not change.
        rng = random.Random(seed)
        spacing = round(0.1 + 0.3 * rng.random(), 4)
        turns = [rng.randint(-2, 2) for _ in range(2 * self.elements)]
        self.inputs = {"spacing_wl": spacing, "phase_turns": turns}
        geom = ArrayGeometry(element_count=self.elements, spacing=spacing,
                             element="ideal_dipole")
        grid = sphere_grid(64, 128)
        self.geom = geom
        self.grid_params = {"kind": "full_sphere", "n_theta": 64,
                            "n_phi": 128}
        self.es = surrogate.isolated_fields(geom, grid)
        self.ec, c_true = surrogate.coupled_fields(
            geom, grid, impedance.port_impedance_for(geom), TerminationSpec())
        self.c_true = c_true.values
        hgrid = hplane_grid(1.0)
        self.z_hplane = impedance.z_hplane(geom, hgrid).values
        es_h = surrogate.isolated_fields(geom, hgrid).theta_rows()
        phi_deg = np.rad2deg(hgrid.phi)
        self.measurements = []
        for prefix, rows in (("isolated", es_h),
                             ("coupled", es_h @ self.c_true)):
            for m in range(self.elements):
                phase = np.rad2deg(np.angle(rows[:, m])) + \
                    360.0 * turns[len(self.measurements)]
                self.measurements.append((
                    "%s_%d.csv" % (prefix, m + 1),
                    PatternMeasurement(phi_deg=phi_deg,
                                       amplitude=np.abs(rows[:, m]) ** 2,
                                       phase_deg=phase, antenna_index=m)))
        self.dirs = {k: os.path.join(workdir, k)
                     for k in ("es", "ec", "measurements")}
        os.makedirs(self.dirs["measurements"], exist_ok=True)
        self.config = os.path.join(workdir, "files_config.json")
        _write_json(self.config, {"geometry": {
            "elements": self.elements, "spacing_wl": spacing,
            "element": "ideal_dipole"}})
        self.outputs = {
            "c_dump": os.path.join(workdir, "c_dump.json"),
            "z_ingest": os.path.join(workdir, "ingest_z.json"),
            "c_ingest": os.path.join(workdir, "ingest_c.json"),
            "c_reduced": os.path.join(workdir, "c_reduced.json")}

    def op(self):
        es_manifest = fileio.write_field_dump(self.dirs["es"], self.es,
                                              self.geom, self.grid_params)
        ec_manifest = fileio.write_field_dump(self.dirs["ec"], self.ec,
                                              self.geom, self.grid_params)
        codes = [cli.main(["estimate-c", "--es", es_manifest,
                           "--ec", ec_manifest,
                           "--out", self.outputs["c_dump"]])]
        for name, measurement in self.measurements:
            fileio.write_measurement_csv(
                os.path.join(self.dirs["measurements"], name), measurement)
        prefix = self.outputs["z_ingest"][:-len("_z.json")]
        codes.append(cli.main(["ingest", "--measurements",
                               self.dirs["measurements"],
                               "--config", self.config, "--out", prefix]))
        codes.append(cli.main(["estimate-c", "--measurements",
                               self.dirs["measurements"],
                               "--config", self.config, "--angles", "4",
                               "--out", self.outputs["c_reduced"]]))
        return codes

    def capture(self, codes, corrupt=False):
        files = {key: _take(path) for key, path in self.outputs.items()}
        if corrupt:
            files["c_dump"] = _corrupt_bytes(files["c_dump"])
        return {"codes": codes, "files": files}

    def check(self, captured, reference):
        problems = ["exit code %d" % c for c in captured["codes"] if c != 0]
        for key, data in captured["files"].items():
            if data != reference["files"][key]:
                problems.append("%s differs from the run's first op" % key)
        docs = {k: json.loads(v) for k, v in captured["files"].items()}
        c_values = {k: np.asarray(docs[k]["re"]) +
                    1j * np.asarray(docs[k]["im"])
                    for k in ("c_dump", "c_ingest", "c_reduced")}
        z_ingest = np.asarray(docs["z_ingest"]["values"])
        truth_norm = np.linalg.norm(self.c_true)
        for key, tol in (("c_dump", 1e-9), ("c_ingest", 1e-6),
                         ("c_reduced", 1e-6)):
            if c_values[key].shape != self.c_true.shape:
                problems.append("%s has shape %s" % (key, c_values[key].shape))
                continue
            gap = np.linalg.norm(c_values[key] - self.c_true) / truth_norm
            if not gap <= tol:
                problems.append("%s off C_true by %.3e > %g" % (key, gap, tol))
        if z_ingest.shape != self.z_hplane.shape:
            problems.append("ingest Z has shape %s" % (z_ingest.shape,))
        else:
            gap = np.max(np.abs(z_ingest - self.z_hplane))
            if not gap <= 1e-9:
                problems.append("ingest Z off z_hplane by %.3e" % (gap,))
        return problems


class Acceptance:
    """``acceptance.run_all()`` with every ``lru_cache`` of the module
    cleared before each op, so each op pays a user's cold cost.

    The same impedance/surrogate/coupling code as the other workloads,
    used differently: z_full runs as an oracle on a 128x256 grid and E_c
    is consumed.  The suite has fixed inputs, so the seed changes
    nothing here.
    """

    name = "acceptance"

    def __init__(self, seed, workdir):
        self.inputs = {}
        self.caches = [value for value in vars(acceptance).values()
                       if hasattr(value, "cache_clear")]

    def op(self):
        for cached in self.caches:
            cached.cache_clear()
        return acceptance.run_all()

    def capture(self, results, corrupt=False):
        rows = [(r.number, r.name, r.passed, r.detail) for r in results]
        if corrupt:
            number, name, _, detail = rows[-1]
            rows[-1] = (number, name, False, detail)
        return {"rows": rows}

    def check(self, captured, reference):
        rows = captured["rows"]
        problems = ["criterion %d %s failed: %s" % (n, name, detail)
                    for n, name, passed, detail in rows if not passed]
        if len(rows) != 14:
            problems.append("%d criteria ran, expected 14" % (len(rows),))
        if rows != reference["rows"]:
            problems.append("criteria report differs from the run's first op")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepM16, FilesM8, Acceptance)}
