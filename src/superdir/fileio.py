"""File formats: geometry JSON, measurement CSVs, field dumps, result files.

All numeric output uses 17 significant digits so emitted files
round-trip losslessly through these parsers and repeated runs are
byte-identical.
"""

import csv
import json
import os

import numpy as np

from .coupling import CouplingMatrix, FieldMatrix, PatternMeasurement
from .geometry import ArrayGeometry, Direction, hplane_grid, sphere_grid


class ValidationError(ValueError):
    """Input file or configuration rejected; maps to CLI exit code 1."""


def _fmt(x):
    return format(float(x), ".17g")


def geometry_from_dict(doc, context="config"):
    """Build (ArrayGeometry, steer Direction) from the geometry JSON."""
    try:
        geom = ArrayGeometry(element_count=int(doc["elements"]),
                             spacing=float(doc["spacing_wl"]),
                             element=str(doc.get("element", "isotropic")))
        steer = Direction(theta=np.deg2rad(float(doc.get("steer_theta_deg", 0.0))),
                          phi=np.deg2rad(float(doc.get("steer_phi_deg", 0.0))))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("%s: bad geometry: %s" % (context, exc)) from exc
    return geom, steer


def geometry_to_dict(geom, steer=None):
    doc = {"elements": geom.element_count,
           "spacing_wl": geom.spacing,
           "element": geom.element}
    if steer is not None:
        doc["steer_theta_deg"] = float(np.rad2deg(steer.theta))
        doc["steer_phi_deg"] = float(np.rad2deg(steer.phi))
    return doc


def read_measurement_csv(path, antenna_index=0):
    """Parse one measurement file: columns phi_deg, amplitude, phase_deg.

    The header row is mandatory and phi must ascend from -180 exclusive
    to 180 inclusive.
    """
    phi, amp, phase = [], [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("%s:1: empty file" % (path,)) from None
        expected = ["phi_deg", "amplitude", "phase_deg"]
        if [h.strip() for h in header] != expected:
            raise ValidationError(
                "%s:1: expected header %s" % (path, ",".join(expected)))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError("%s:%d: expected 3 columns" % (path, lineno))
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValidationError(
                    "%s:%d: non-numeric value" % (path, lineno)) from None
            phi.append(values[0])
            amp.append(values[1])
            phase.append(values[2])
    if not phi:
        raise ValidationError("%s: no data rows" % (path,))
    phi = np.asarray(phi)
    if np.any(np.diff(phi) <= 0.0):
        raise ValidationError("%s: phi_deg must be strictly ascending" % (path,))
    if phi[0] <= -180.0 or phi[-1] > 180.0:
        raise ValidationError(
            "%s: phi_deg must lie in (-180, 180]" % (path,))
    if min(amp) < 0.0:
        raise ValidationError("%s: negative amplitude sample" % (path,))
    return PatternMeasurement(phi_deg=phi, amplitude=np.asarray(amp),
                              phase_deg=np.asarray(phase),
                              antenna_index=antenna_index)


def write_measurement_csv(path, measurement):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phi_deg", "amplitude", "phase_deg"])
        for row in zip(measurement.phi_deg, measurement.amplitude,
                       measurement.phase_deg):
            writer.writerow([_fmt(v) for v in row])


def write_field_dump(directory, fields, geom, grid_params):
    """One CSV per excited port plus a manifest JSON describing the run."""
    os.makedirs(directory, exist_ok=True)
    theta_deg = np.rad2deg(fields.grid.theta)
    phi_deg = np.rad2deg(fields.grid.phi)
    e_theta = fields.theta_rows()
    e_phi = fields.phi_rows()
    files = []
    for m in range(fields.element_count):
        name = "port_%d.csv" % (m + 1,)
        files.append(name)
        with open(os.path.join(directory, name), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["theta_deg", "phi_deg", "e_theta_re",
                             "e_theta_im", "e_phi_re", "e_phi_im"])
            for p in range(fields.point_count):
                writer.writerow([_fmt(theta_deg[p]), _fmt(phi_deg[p]),
                                 _fmt(e_theta[p, m].real), _fmt(e_theta[p, m].imag),
                                 _fmt(e_phi[p, m].real), _fmt(e_phi[p, m].imag)])
    manifest = {"geometry": geometry_to_dict(geom),
                "grid": grid_params,
                "files": files}
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


def _grid_from_params(params, context):
    try:
        kind = params["kind"]
        if kind == "full_sphere":
            return sphere_grid(int(params["n_theta"]), int(params["n_phi"]))
        if kind == "h_plane":
            return hplane_grid(float(params["step_deg"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("%s: bad grid parameters: %s" % (context, exc)) from exc
    raise ValidationError("%s: unknown grid kind %r" % (context, kind))


def read_field_dump(manifest_path):
    """Rebuild a FieldMatrix and geometry from a dump directory."""
    directory = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError("%s: %s" % (manifest_path, exc)) from exc
    geom, _ = geometry_from_dict(manifest.get("geometry", {}), manifest_path)
    grid = _grid_from_params(manifest.get("grid", {}), manifest_path)
    files = manifest.get("files", [])
    if len(files) != geom.element_count:
        raise ValidationError(
            "%s: expected %d port files, found %d" %
            (manifest_path, geom.element_count, len(files)))
    values = np.zeros((2 * grid.size, geom.element_count), dtype=complex)
    for m, name in enumerate(files):
        path = os.path.join(directory, name)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != \
                    ["theta_deg", "phi_deg", "e_theta_re", "e_theta_im",
                     "e_phi_re", "e_phi_im"]:
                raise ValidationError("%s:1: bad field dump header" % (path,))
            rows = list(reader)
        if len(rows) != grid.size:
            raise ValidationError(
                "%s: expected %d rows for the declared grid, found %d" %
                (path, grid.size, len(rows)))
        for p, row in enumerate(rows):
            try:
                values_row = [float(x) for x in row]
            except ValueError:
                raise ValidationError(
                    "%s:%d: non-numeric value" % (path, p + 2)) from None
            if abs(values_row[0] - np.rad2deg(grid.theta[p])) > 1e-6 or \
                    abs(values_row[1] - np.rad2deg(grid.phi[p])) > 1e-6:
                raise ValidationError(
                    "%s:%d: angles disagree with the manifest grid" %
                    (path, p + 2))
            values[2 * p, m] = values_row[2] + 1j * values_row[3]
            values[2 * p + 1, m] = values_row[4] + 1j * values_row[5]
    return FieldMatrix(values=values, grid=grid), geom


def write_c_json(path, c):
    doc = {"m": c.size,
           "re": [[float(v.real) for v in row] for row in c.values],
           "im": [[float(v.imag) for v in row] for row in c.values],
           "condition": float(c.condition),
           "residual": float(c.residual)}
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_c_json(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
        values = np.asarray(doc["re"], dtype=float) + \
            1j * np.asarray(doc["im"], dtype=float)
        if values.shape != (int(doc["m"]), int(doc["m"])):
            raise ValueError("matrix shape disagrees with m")
        return CouplingMatrix(values=values,
                              condition=float(doc.get("condition", "nan")),
                              residual=float(doc.get("residual", 0.0)))
    except (OSError, KeyError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        raise ValidationError("%s: %s" % (path, exc)) from exc


def write_z_json(path, z):
    doc = {"m": z.size,
           "values": [[float(v) for v in row] for row in z.values],
           "self_power": float(z.self_power)}
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


SWEEP_COLUMNS = ["spacing_wl", "method", "directivity", "gain",
                 "beamwidth_deg", "psll_db", "delta_d", "delta_f_db",
                 "condition_z", "condition_c"]


def write_sweep_csv(path, rows):
    """Rows are dicts keyed by SWEEP_COLUMNS; method stays a string."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            out = []
            for col in SWEEP_COLUMNS:
                value = row[col]
                out.append(value if col == "method" else _fmt(value))
            writer.writerow(out)


def read_sweep_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SWEEP_COLUMNS:
            raise ValidationError("%s:1: bad sweep header" % (path,))
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(SWEEP_COLUMNS):
                raise ValidationError("%s:%d: wrong column count" % (path, lineno))
            parsed = {}
            for col, value in zip(SWEEP_COLUMNS, row):
                parsed[col] = value if col == "method" else float(value)
            rows.append(parsed)
    return rows


def write_pattern_csv(path, phi_deg, power_db):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phi_deg", "power_db_normalized"])
        for p, db in zip(phi_deg, power_db):
            writer.writerow([_fmt(p), _fmt(db)])


def read_pattern_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["phi_deg", "power_db_normalized"]:
            raise ValidationError("%s:1: bad pattern header" % (path,))
        phi, db = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ValidationError("%s:%d: wrong column count" % (path, lineno))
            phi.append(float(row[0]))
            db.append(float(row[1]))
    return np.asarray(phi), np.asarray(db)
