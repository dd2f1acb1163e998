"""File formats: geometry JSON, measurement CSVs, field dumps, result files.

CSV cells are ``%.17g`` text and JSON numbers Python's shortest
round-trip repr, so every finite number read back through these
parsers keeps its bits and repeated runs are byte-identical.
"""

import json
import os

import numpy as np

from .coupling import CouplingMatrix, FieldMatrix, PatternMeasurement
from .geometry import ArrayGeometry, Direction, hplane_grid, sphere_grid


class ValidationError(ValueError):
    """Input file or configuration rejected; maps to CLI exit code 1."""


def read_json(path):
    """The JSON document at ``path``.  A file that cannot be read, is not
    UTF-8 or is not JSON raises ValidationError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an integer past Python's
        # digit limit; RecursionError: arrays nested too deep to parse.
        raise ValidationError("%s: %s" % (path, exc)) from exc


def write_json(path, doc):
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def integer(value):
    """``value`` as an int when it is a JSON number with no fractional
    part (4 or 4.0); booleans, strings and fractions raise ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError("must be an integer, got %r" % (value,))


def number(value):
    """``value`` as a float when it is a finite JSON number; booleans,
    strings, null and non-finite values raise ValueError (an integer
    too large for a float, OverflowError)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and np.isfinite(float(value)):
        return float(value)
    raise ValueError("must be a finite number, got %r" % (value,))


def read_value(doc, key, read, context, default=None):
    """``read(doc[name])``, or ``read(default)`` when ``name`` is absent,
    where ``name`` is the last part of the dotted ``key`` (``sweep.d_min``
    reads ``d_min`` from the sweep section ``doc``).  ``read`` is
    ``number`` or ``integer``; a rejected value raises ValidationError
    naming ``context: key``."""
    try:
        return read(doc.get(key.rpartition(".")[2], default))
    except (AttributeError, OverflowError, ValueError) as exc:
        raise ValidationError("%s: %s: %s" % (context, key, exc)) from exc


def read_section(doc, name, context):
    """Section ``name`` of the JSON object ``doc``, ``{}`` when absent; a
    section that is not a JSON object raises ValidationError naming
    ``context: name``."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError("%s: %s must be a JSON object" % (context, name))
    return section


def geometry_from_dict(doc, context="config"):
    """Build (ArrayGeometry, steer Direction) from the geometry JSON."""
    elements = read_value(doc, "geometry.elements", integer, context)
    spacing = read_value(doc, "geometry.spacing_wl", number, context)
    steer_deg = [read_value(doc, "geometry.steer_%s_deg" % (angle,), number,
                            context, 0.0) for angle in ("theta", "phi")]
    try:
        geom = ArrayGeometry(element_count=elements, spacing=spacing,
                             element=str(doc.get("element", "isotropic")))
        steer = Direction(theta=np.deg2rad(steer_deg[0]),
                          phi=np.deg2rad(steer_deg[1]))
    except ValueError as exc:
        raise ValidationError("%s: bad geometry: %s" % (context, exc)) from exc
    return geom, steer


def geometry_to_dict(geom):
    return {"elements": geom.element_count,
            "spacing_wl": geom.spacing,
            "element": geom.element}


MEASUREMENT_COLUMNS = ["phi_deg", "amplitude", "phase_deg"]
DUMP_COLUMNS = ["theta_deg", "phi_deg", "e_theta_re", "e_theta_im",
                "e_phi_re", "e_phi_im"]
PATTERN_COLUMNS = ["phi_deg", "power_db_normalized"]


def _cells(columns):
    """The ``%.17g`` text of every value of the equal-length float
    ``columns``, row by row, formatting each distinct value once.

    Values are told apart by bit pattern, not by ``==``: -0.0 prints
    ``-0`` where 0.0 prints ``0``, and every NaN prints ``nan``.
    """
    table = np.column_stack(columns).astype(float)
    bits, slot = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()],
                    dtype=object)
    return tuple(text[slot].tolist())


def _write_table(path, header, columns, rows=None):
    """Write equal-length float columns under a header, one %.17g cell
    per value and CRLF line ends, as ``csv.writer`` writes them.

    ``rows`` is the text of every row with a ``%s`` slot per value of
    ``columns``, for a caller that has written its other cells already.
    """
    if rows is None:
        rows = (",".join(["%s"] * len(header)) + "\r\n") * len(columns[0])
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.write(rows % _cells(columns))


def _check_rows(path, lines, linenos, width):
    """Raise ValidationError naming the first body line that has not
    ``width`` cells or has a cell outside the table grammar: ``float()``'s,
    less digit-group underscores and non-ASCII digits."""
    for line, lineno in zip(lines, linenos):
        row = line.split(",")
        if len(row) != width:
            raise ValidationError("%s:%d: expected %d columns" %
                                  (path, lineno, width))
        try:
            for cell in row:
                if "_" in cell or not cell.strip().isascii():
                    raise ValueError(cell)
                float(cell)
        except ValueError:
            raise ValidationError(
                "%s:%d: non-numeric value" % (path, lineno)) from None


def _read_table(path, header):
    """(n, k) float array of a headed CSV table, and each row's line.

    Blank lines are skipped.  A wrong header, a wrong column count, a
    non-numeric or a non-finite cell raises ValidationError naming
    ``path:line``.  A cell is an ASCII decimal in ``float()``'s syntax
    (``nan`` and ``inf`` parse, then fail the finite check), without
    digit-group underscores; ``np.loadtxt`` parses every row in one call.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("%s: %s" % (path, exc)) from exc
    lines = text.split("\n")
    if [cell.strip() for cell in lines[0].split(",")] != header:
        raise ValidationError(
            "%s:1: expected header %s" % (path, ",".join(header)))
    body = lines[1:]
    while body and not body[-1].strip():
        body.pop()  # trailing blank lines shift no line number
    linenos = range(2, len(body) + 2)
    # Parse every line first.  loadtxt skips empty and lone "\r" lines
    # and refuses other blank ones, so a row count short of the lines, or
    # any refusal, means a blank line may be in the way: only then find
    # them, and parse the rest.
    try:
        table = _parse_rows(path, body, linenos, len(header), text)
    except ValidationError:
        table = None
    if table is None or len(table) != len(body):
        linenos = [lineno for lineno in linenos if lines[lineno - 1].strip()]
        table = _parse_rows(path, [lines[lineno - 1] for lineno in linenos],
                            linenos, len(header), text)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValidationError(
            "%s:%d: non-finite value" % (path, linenos[bad.argmax()]))
    return table, linenos


def _parse_rows(path, lines, linenos, width, text):
    """(n, width) float array of the non-blank table ``lines``, from one
    ``np.loadtxt`` call; a line outside the table grammar raises
    ValidationError naming ``path:line``."""
    if not lines:
        return np.empty((0, width))
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _check_rows(path, lines, linenos, width)
        raise ValidationError("%s: %s" % (path, exc)) from exc
    # loadtxt also strips the ASCII separators \x1c-\x1f around a
    # cell as whitespace, where float() refuses them.
    if table.shape[1] != width or \
            any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        _check_rows(path, lines, linenos, width)
    return table


def read_measurement_csv(path):
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
    return PatternMeasurement(phi_deg=phi, amplitude=amp, phase_deg=phase)


def write_measurement_csv(path, measurement):
    _write_table(path, MEASUREMENT_COLUMNS,
                 [measurement.phi_deg, measurement.amplitude,
                  measurement.phase_deg])


def write_field_dump(directory, fields, geom, grid_params):
    """One CSV per excited port plus a manifest JSON describing the run.

    The e_phi columns are written as 0: a field matrix holds E_theta only.
    """
    os.makedirs(directory, exist_ok=True)
    theta_deg = np.rad2deg(fields.grid.theta)
    phi_deg = np.rad2deg(fields.grid.phi)
    # Every port shares the angle and e_phi cells: write them once,
    # leaving a slot per E_theta cell.
    rows = ("%s,%s,%%s,%%s,0,0\r\n" * len(theta_deg)) % \
        _cells([theta_deg, phi_deg])
    files = []
    for m in range(fields.element_count):
        name = "port_%d.csv" % (m + 1,)
        files.append(name)
        _write_table(os.path.join(directory, name), DUMP_COLUMNS,
                     [fields.values[:, m].real, fields.values[:, m].imag],
                     rows)
    manifest = {"geometry": geometry_to_dict(geom),
                "grid": grid_params,
                "files": files}
    manifest_path = os.path.join(directory, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path


def _grid_from_params(params, context):
    kind = params.get("kind")
    try:
        if kind == "full_sphere":
            return sphere_grid(
                read_value(params, "grid.n_theta", integer, context),
                read_value(params, "grid.n_phi", integer, context))
        if kind == "h_plane":
            return hplane_grid(
                read_value(params, "grid.step_deg", number, context))
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError("%s: bad grid parameters: %s" % (context, exc)) from exc
    raise ValidationError("%s: unknown grid kind %r" % (context, kind))


def read_field_dump(manifest_path):
    """Rebuild a FieldMatrix and geometry from a dump directory.  A
    nonzero e_phi cell raises ValidationError naming ``path:line``."""
    directory = os.path.dirname(os.path.abspath(manifest_path))
    manifest = read_json(manifest_path)
    files = manifest.get("files", []) if isinstance(manifest, dict) else None
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise ValidationError("%s: need a JSON object whose files is a list "
                              "of file names" % (manifest_path,))
    geom, _ = geometry_from_dict(
        read_section(manifest, "geometry", manifest_path), manifest_path)
    grid = _grid_from_params(read_section(manifest, "grid", manifest_path),
                             manifest_path)
    if len(files) != geom.element_count:
        raise ValidationError(
            "%s: expected %d port files, found %d" %
            (manifest_path, geom.element_count, len(files)))
    theta_deg = np.rad2deg(grid.theta)
    phi_deg = np.rad2deg(grid.phi)
    values = np.empty((grid.size, geom.element_count), dtype=complex)
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
        e_phi = (table[:, 4] != 0.0) | (table[:, 5] != 0.0)
        if e_phi.any():
            raise ValidationError(
                "%s:%d: e_phi must be 0: every element kind radiates "
                "E_theta only" % (path, linenos[e_phi.argmax()]))
        values[:, m] = table[:, 2] + 1j * table[:, 3]
    return FieldMatrix(values=values, grid=grid), geom


def write_c_json(path, c):
    doc = {"m": len(c.values),
           "re": [[float(v.real) for v in row] for row in c.values],
           "im": [[float(v.imag) for v in row] for row in c.values],
           "condition": float(c.condition),
           "residual": float(c.residual)}
    write_json(path, doc)


def read_c_json(path):
    """CouplingMatrix of a C JSON as ``write_c_json`` writes it: ``m`` an
    integer, ``re`` and ``im`` m x m lists of finite numbers, and the
    optional ``condition`` and ``residual`` finite numbers.  Anything
    else raises ValidationError naming ``path``."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("%s: need a JSON object" % (path,))
    m = read_value(doc, "m", integer, path)
    if m < 1:
        raise ValidationError("%s: m must be >= 1, got %d" % (path, m))
    parts = []
    for key in ("re", "im"):
        rows = doc.get(key)
        if not (isinstance(rows, list) and len(rows) == m and
                all(isinstance(row, list) and len(row) == m
                    for row in rows)):
            raise ValidationError("%s: %s must be an m x m list (m = %d)" %
                                  (path, key, m))
        try:
            parts.append(np.array([[number(v) for v in row]
                                   for row in rows]))
        except (OverflowError, ValueError) as exc:
            raise ValidationError("%s: %s: %s" % (path, key, exc)) from exc
    extra = {key: read_value(doc, key, number, path)
             for key in ("condition", "residual") if key in doc}
    return CouplingMatrix(values=parts[0] + 1j * parts[1], **extra)


def write_z_json(path, z):
    doc = {"m": len(z.values),
           "values": [[float(v) for v in row] for row in z.values],
           "self_power": float(z.self_power)}
    write_json(path, doc)


SWEEP_COLUMNS = ["spacing_wl", "method", "directivity", "gain",
                 "beamwidth_deg", "psll_db", "delta_d", "delta_f_db",
                 "condition_z", "condition_c"]


def write_sweep_csv(path, rows):
    """Rows are dicts keyed by SWEEP_COLUMNS; method stays a string."""
    # Each row's method text goes in beforehand, leaving a slot per
    # number.
    template = ",".join("{}" if col == "method" else "%s"
                        for col in SWEEP_COLUMNS) + "\r\n"
    text = "".join(template.format(row["method"].replace("%", "%%"))
                   for row in rows)
    _write_table(path, SWEEP_COLUMNS,
                 [[row[col] for row in rows]
                  for col in SWEEP_COLUMNS if col != "method"], text)


def write_pattern_csv(path, phi_deg, power_db):
    _write_table(path, PATTERN_COLUMNS, [phi_deg, power_db])

