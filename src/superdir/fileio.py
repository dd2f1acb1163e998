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


MEASUREMENT_COLUMNS = ["phi_deg", "amplitude", "phase_deg"]
DUMP_COLUMNS = ["theta_deg", "phi_deg", "e_theta_re", "e_theta_im",
                "e_phi_re", "e_phi_im"]
PATTERN_COLUMNS = ["phi_deg", "power_db_normalized"]


def _write_table(path, header, columns):
    """Write equal-length float columns under a header, one %.17g cell
    per value and CRLF line ends, as ``csv.writer`` writes them."""
    table = np.column_stack(columns).astype(float)
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.write((row * len(table)) % tuple(table.ravel().tolist()))


def _read_table(path, header):
    """(n, k) float array of a headed CSV table, and each row's line.

    Blank lines are skipped.  A wrong header, a wrong column count, a
    non-numeric or a non-finite cell raises ValidationError naming
    ``path:line``.
    """
    try:
        with open(path) as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("%s: %s" % (path, exc)) from exc
    if [cell.strip() for cell in lines[0].split(",")] != header:
        raise ValidationError(
            "%s:1: expected header %s" % (path, ",".join(header)))
    # One flat list of floats: no per-row containers for the GC to track.
    cells, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != len(header):
            raise ValidationError("%s:%d: expected %d columns" %
                                  (path, lineno, len(header)))
        try:
            cells.extend(map(float, row))
        except ValueError:
            raise ValidationError(
                "%s:%d: non-numeric value" % (path, lineno)) from None
        linenos.append(lineno)
    table = np.array(cells, dtype=float).reshape(len(linenos), len(header))
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValidationError(
            "%s:%d: non-finite value" % (path, linenos[bad.argmax()]))
    return table, linenos


def read_measurement_csv(path, antenna_index=0):
    """Parse one measurement file: columns phi_deg, amplitude, phase_deg.

    The header row is mandatory and phi must ascend from -180 exclusive
    to 180 inclusive.
    """
    table, _ = _read_table(path, MEASUREMENT_COLUMNS)
    if not len(table):
        raise ValidationError("%s: no data rows" % (path,))
    phi, amp, phase = table.T.copy()
    if np.any(np.diff(phi) <= 0.0):
        raise ValidationError("%s: phi_deg must be strictly ascending" % (path,))
    if phi[0] <= -180.0 or phi[-1] > 180.0:
        raise ValidationError(
            "%s: phi_deg must lie in (-180, 180]" % (path,))
    if amp.min() < 0.0:
        raise ValidationError("%s: negative amplitude sample" % (path,))
    return PatternMeasurement(phi_deg=phi, amplitude=amp, phase_deg=phase,
                              antenna_index=antenna_index)


def write_measurement_csv(path, measurement):
    _write_table(path, MEASUREMENT_COLUMNS,
                 [measurement.phi_deg, measurement.amplitude,
                  measurement.phase_deg])


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
        _write_table(os.path.join(directory, name), DUMP_COLUMNS,
                     [theta_deg, phi_deg, e_theta[:, m].real,
                      e_theta[:, m].imag, e_phi[:, m].real, e_phi[:, m].imag])
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
    theta_deg = np.rad2deg(grid.theta)
    phi_deg = np.rad2deg(grid.phi)
    values = np.empty((2 * grid.size, geom.element_count), dtype=complex)
    for m, name in enumerate(files):
        path = os.path.join(directory, name)
        table, linenos = _read_table(path, DUMP_COLUMNS)
        if len(table) != grid.size:
            raise ValidationError(
                "%s: expected %d rows for the declared grid, found %d" %
                (path, grid.size, len(table)))
        off = (np.abs(table[:, 0] - theta_deg) > 1e-6) | \
            (np.abs(table[:, 1] - phi_deg) > 1e-6)
        if off.any():
            raise ValidationError(
                "%s:%d: angles disagree with the manifest grid" %
                (path, linenos[off.argmax()]))
        values[0::2, m] = table[:, 2] + 1j * table[:, 3]
        values[1::2, m] = table[:, 4] + 1j * table[:, 5]
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
            writer.writerow([row[col] if col == "method" else _fmt(row[col])
                             for col in SWEEP_COLUMNS])


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
            rows.append({col: value if col == "method" else float(value)
                         for col, value in zip(SWEEP_COLUMNS, row)})
    return rows


def write_pattern_csv(path, phi_deg, power_db):
    _write_table(path, PATTERN_COLUMNS, [phi_deg, power_db])


def read_pattern_csv(path):
    return tuple(_read_table(path, PATTERN_COLUMNS)[0].T.copy())
