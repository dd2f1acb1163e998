import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from superdir import fileio
from superdir.coupling import CouplingMatrix, FieldMatrix, PatternMeasurement
from superdir.fileio import ValidationError
from superdir.geometry import (ArrayGeometry, Direction, hplane_grid,
                               sphere_grid)
from superdir.impedance import z_isotropic_closed
from superdir.surrogate import isolated_fields

from tables import read_pattern, read_sweep


def test_geometry_dict_roundtrip():
    geom = ArrayGeometry(element_count=4, spacing=0.3,
                         element="ideal_dipole")
    steer = Direction(theta=np.pi / 2, phi=np.pi / 4)
    doc = dict(fileio.geometry_to_dict(geom), steer_theta_deg=90.0,
               steer_phi_deg=45.0)
    geom2, steer2 = fileio.geometry_from_dict(doc)
    assert geom2 == geom
    assert_allclose(steer2.theta, steer.theta, rtol=1e-12)
    assert_allclose(steer2.phi, steer.phi, rtol=1e-12)


def test_geometry_from_dict_errors():
    with pytest.raises(ValidationError):
        fileio.geometry_from_dict({"spacing_wl": 0.3})
    with pytest.raises(ValidationError):
        fileio.geometry_from_dict({"elements": 2, "spacing_wl": -1.0})
    for elements in (4.7, True, "4", None):
        with pytest.raises(ValidationError, match="geometry.elements: must "
                           "be an integer, got %r" % (elements,)):
            fileio.geometry_from_dict({"elements": elements,
                                       "spacing_wl": 0.3})
    geom, _ = fileio.geometry_from_dict({"elements": 4.0, "spacing_wl": 0.3})
    assert geom.element_count == 4 and isinstance(geom.element_count, int)
    for key, value in (("spacing_wl", "0.3"), ("spacing_wl", True),
                       ("steer_theta_deg", "90"), ("steer_phi_deg", True)):
        doc = {"elements": 2, "spacing_wl": 0.3, key: value}
        with pytest.raises(ValidationError, match="manifest.json: geometry.%s: "
                           "must be a finite number, got %r" % (key, value)):
            fileio.geometry_from_dict(doc, "manifest.json")


def test_field_dump_manifest_grid_needs_integers(tmp_path):
    geom = ArrayGeometry(element_count=2, spacing=0.3)
    root = tmp_path / "dump"
    manifest = fileio.write_field_dump(
        root, isolated_fields(geom, hplane_grid(2.0)), geom,
        {"kind": "h_plane", "step_deg": 2.0})
    with open(manifest) as handle:
        doc = json.load(handle)
    doc["grid"] = {"kind": "full_sphere", "n_theta": 64.5, "n_phi": 128}
    with open(manifest, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(ValidationError, match="grid.n_theta: must be an "
                       "integer, got 64.5"):
        fileio.read_field_dump(manifest)
    for step in ("2", True):
        doc["grid"] = {"kind": "h_plane", "step_deg": step}
        with open(manifest, "w") as handle:
            json.dump(doc, handle)
        with pytest.raises(ValidationError, match="grid.step_deg: must be a "
                           "finite number, got %r" % (step,)):
            fileio.read_field_dump(manifest)


def test_field_dump_manifest_must_be_an_object_with_file_names(tmp_path):
    manifest = tmp_path / "manifest.json"
    for doc in ([], {"files": 7}, {"files": [None]}):
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="need a JSON object whose "
                           "files is a list of file names"):
            fileio.read_field_dump(str(manifest))


def test_field_dump_manifest_sections_must_be_objects(tmp_path):
    geom = ArrayGeometry(element_count=2, spacing=0.3)
    manifest = fileio.write_field_dump(
        tmp_path / "dump", isolated_fields(geom, hplane_grid(2.0)), geom,
        {"kind": "h_plane", "step_deg": 2.0})
    with open(manifest) as handle:
        good = json.load(handle)
    for key in ("geometry", "grid"):
        for value in (None, 5, [1], "h_plane"):
            with open(manifest, "w") as handle:
                json.dump(dict(good, **{key: value}), handle)
            with pytest.raises(ValidationError) as caught:
                fileio.read_field_dump(manifest)
            assert str(caught.value) == "%s: %s must be a JSON object" % (
                manifest, key)


def test_measurement_csv_roundtrip(tmp_path):
    phi = np.arange(-179.0, 181.0, 1.0)
    meas = PatternMeasurement(phi_deg=phi,
                              amplitude=np.abs(np.sin(np.deg2rad(phi))) + 0.1,
                              phase_deg=np.linspace(-170.0, 170.0, 360))
    path = tmp_path / "meas.csv"
    fileio.write_measurement_csv(path, meas)
    back = fileio.read_measurement_csv(path)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.phi_deg, meas.phi_deg)
    assert np.array_equal(back.amplitude, meas.amplitude)
    assert np.array_equal(back.phase_deg, meas.phase_deg)


def test_measurement_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phi,amp,phase\n0.0,1.0,0.0\n")
    with pytest.raises(ValidationError, match="bad.csv:1"):
        fileio.read_measurement_csv(path)


def test_measurement_csv_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phi_deg,amplitude,phase_deg\n0.0,1.0\n")
    with pytest.raises(ValidationError, match="bad.csv:2"):
        fileio.read_measurement_csv(path)
    path.write_text("phi_deg,amplitude,phase_deg\n0.0,one,0.0\n")
    with pytest.raises(ValidationError, match="non-numeric"):
        fileio.read_measurement_csv(path)


@pytest.mark.parametrize("column", range(3))
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_measurement_csv_rejects_non_finite(tmp_path, column, cell):
    row = ["10.0", "1.0", "0.0"]
    row[column] = cell
    path = tmp_path / "bad.csv"
    path.write_text("phi_deg,amplitude,phase_deg\n0.0,1.0,0.0\n\n" +
                    ",".join(row) + "\n")
    with pytest.raises(ValidationError, match="bad.csv:4: non-finite"):
        fileio.read_measurement_csv(path)


def test_measurement_csv_ordering_and_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("phi_deg,amplitude,phase_deg\n"
                    "10.0,1.0,0.0\n5.0,1.0,0.0\n")
    with pytest.raises(ValidationError, match="ascending"):
        fileio.read_measurement_csv(path)
    path.write_text("phi_deg,amplitude,phase_deg\n"
                    "-180.0,1.0,0.0\n0.0,1.0,0.0\n")
    with pytest.raises(ValidationError, match="-180"):
        fileio.read_measurement_csv(path)
    path.write_text("phi_deg,amplitude,phase_deg\n0.0,-1.0,0.0\n")
    with pytest.raises(ValidationError, match="negative"):
        fileio.read_measurement_csv(path)


def test_field_dump_roundtrip(tmp_path):
    geom = ArrayGeometry(element_count=3, spacing=0.3)
    grid = hplane_grid(2.0)
    fields = isolated_fields(geom, grid)
    root = tmp_path / "dump"
    fileio.write_field_dump(root, fields, geom,
                            {"kind": "h_plane", "step_deg": 2.0})
    back, geom2 = fileio.read_field_dump(root / "manifest.json")
    assert geom2 == geom
    assert back.grid.same_points(grid)
    assert_allclose(back.values, fields.values, atol=1e-15)


def test_field_dump_detects_angle_mismatch(tmp_path):
    geom = ArrayGeometry(element_count=2, spacing=0.3)
    grid = hplane_grid(2.0)
    fields = isolated_fields(geom, grid)
    root = tmp_path / "dump"
    fileio.write_field_dump(root, fields, geom,
                            {"kind": "h_plane", "step_deg": 2.0})
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["grid"]["step_deg"] = 4.0
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError):
        fileio.read_field_dump(root / "manifest.json")


def _dump_port_lines(tmp_path, geom=ArrayGeometry(element_count=2,
                                                   spacing=0.3)):
    """Write an H-plane dump; return the root and port_1.csv's lines."""
    root = tmp_path / "dump"
    fileio.write_field_dump(root, isolated_fields(geom, hplane_grid(2.0)),
                            geom, {"kind": "h_plane", "step_deg": 2.0})
    return root, (root / "port_1.csv").read_text().splitlines()


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_field_dump_angle_mismatch_names_line(tmp_path):
    root, lines = _dump_port_lines(tmp_path)
    cells = lines[9].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)
    lines[9] = ",".join(cells)
    # a blank line is skipped but still counted
    _rewrite(root / "port_1.csv", lines[:3] + [""] + lines[3:])
    with pytest.raises(ValidationError,
                       match=r"port_1.csv:11: angles disagree"):
        fileio.read_field_dump(root / "manifest.json")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_field_dump_rejects_non_finite(tmp_path, cell):
    root, lines = _dump_port_lines(tmp_path)
    cells = lines[4].split(",")
    cells[3] = cell
    lines[4] = ",".join(cells)
    _rewrite(root / "port_1.csv", lines)
    with pytest.raises(ValidationError, match="port_1.csv:5: non-finite"):
        fileio.read_field_dump(root / "manifest.json")


def _set_cell(lines, index, column, cell):
    cells = lines[index].split(",")
    cells[column] = cell
    lines[index] = ",".join(cells)


@pytest.mark.parametrize("column,cell", [(4, "1e-300"), (5, "-2.5")],
                         ids=["e_phi_re", "e_phi_im"])
def test_field_dump_refuses_a_nonzero_e_phi_cell(tmp_path, column, cell):
    # a field matrix holds E_theta only: e_phi is written as 0 and must
    # read back as 0, where -0 counts as 0
    root, _ = _dump_port_lines(tmp_path)
    lines = (root / "port_2.csv").read_text().splitlines()
    _set_cell(lines, 3, column, "-0")
    _set_cell(lines, 7, column, cell)
    _rewrite(root / "port_2.csv", lines)
    with pytest.raises(ValidationError,
                       match=r"port_2.csv:8: e_phi must be 0"):
        fileio.read_field_dump(root / "manifest.json")
    _set_cell(lines, 7, column, "0")
    _rewrite(root / "port_2.csv", lines)
    fields, _ = fileio.read_field_dump(root / "manifest.json")
    assert fields.values.shape == (fields.grid.size, 2)


def test_field_dump_row_column_count(tmp_path):
    root, lines = _dump_port_lines(tmp_path)
    lines[6] = lines[6].rsplit(",", 1)[0]
    _rewrite(root / "port_1.csv", lines)
    with pytest.raises(ValidationError,
                       match="port_1.csv:7: expected 6 columns"):
        fileio.read_field_dump(root / "manifest.json")
    _rewrite(root / "port_1.csv", ["theta_deg,phi_deg"] + lines[1:])
    with pytest.raises(ValidationError, match="port_1.csv:1: expected header"):
        fileio.read_field_dump(root / "manifest.json")


def test_c_json_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = CouplingMatrix(values=values, condition=12.5, residual=1e-9)
    path = tmp_path / "c.json"
    fileio.write_c_json(path, c)
    back = fileio.read_c_json(path)
    assert np.array_equal(back.values, values)
    assert back.condition == 12.5
    assert back.residual == 1e-9


def test_c_json_shape_check(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m": 3, "re": [[1.0]], "im": [[0.0]]}))
    with pytest.raises(ValidationError):
        fileio.read_c_json(path)


def test_c_json_refuses_what_the_other_readers_refuse(tmp_path):
    # m is read as the config integers are, and every cell, condition and
    # residual as the config numbers are; each refusal names the path
    path = tmp_path / "c.json"
    good = {"m": 1, "re": [[1.0]], "im": [[2.0]], "condition": 3.0,
            "residual": 0.0}
    path.write_text(json.dumps(good))
    assert fileio.read_c_json(path).values[0, 0] == 1 + 2j
    bad = [{"re": [[True]]}, {"im": [["2"]]}, {"re": [[None]]},
           {"im": [[float("nan")]]}, {"re": [[float("inf")]]},
           {"re": [[10 ** 400]]}, {"condition": "inf"},
           {"condition": float("nan")}, {"residual": False},
           {"residual": "0"}, {"m": 1.5}, {"m": True}, {"m": "1"},
           {"m": 0, "re": [], "im": []}, {"re": [1.0]}, {"im": [[1.0, 2.0]]},
           {"re": 1.0}, {"m": 2}]
    for change in bad:
        path.write_text(json.dumps(dict(good, **change)))
        with pytest.raises(ValidationError, match="^" + re.escape("%s: " % (path,))):
            fileio.read_c_json(path)
    for doc in ("[]", "null", "{"):
        path.write_text(doc)
        with pytest.raises(ValidationError, match="^" + re.escape("%s: " % (path,))):
            fileio.read_c_json(path)


def test_z_json_contents(tmp_path):
    geom = ArrayGeometry(element_count=2, spacing=0.25)
    z = z_isotropic_closed(geom)
    path = tmp_path / "z.json"
    fileio.write_z_json(path, z)
    doc = json.loads(path.read_text())
    assert doc["m"] == 2
    assert doc["self_power"] == 1.0
    assert_allclose(doc["values"], z.values)


def test_sweep_csv_roundtrip(tmp_path):
    rows = [{"spacing_wl": 0.1, "method": "mrt", "directivity": 3.25,
             "gain": 3.0, "beamwidth_deg": 30.0, "psll_db": -12.0,
             "delta_d": 0.5, "delta_f_db": -20.0, "condition_z": 100.0,
             "condition_c": 5.0},
            {"spacing_wl": 0.2, "method": "proposed", "directivity": 9.1,
             "gain": 1.2, "beamwidth_deg": 45.0, "psll_db": -3.0,
             "delta_d": 0.0, "delta_f_db": -300.0, "condition_z": 10.0,
             "condition_c": 2.0}]
    path = tmp_path / "sweep.csv"
    fileio.write_sweep_csv(path, rows)
    assert read_sweep(path) == rows


def test_pattern_csv_roundtrip(tmp_path):
    phi = np.arange(-179.0, 181.0, 1.0)
    db = -30.0 * np.abs(np.sin(np.deg2rad(phi)))
    path = tmp_path / "pattern.csv"
    fileio.write_pattern_csv(path, phi, db)
    phi2, db2 = read_pattern(path)
    assert np.array_equal(phi2, phi)
    assert np.array_equal(db2, db)
    # csv-style CRLF line ends, one per row plus the header
    data = path.read_bytes()
    assert data.startswith(b"phi_deg,power_db_normalized\r\n-179,")
    assert data.count(b"\r\n") == len(phi) + 1
    assert data.count(b"\n") == len(phi) + 1


def test_serialization_is_exact(tmp_path):
    # %.17g round-trips arbitrary doubles bit for bit
    rng = np.random.default_rng(8)
    values = rng.standard_normal(100) * 10.0 ** rng.integers(-12, 12, 100)
    # signed zero, the smallest subnormal and the largest finite doubles
    values[:5] = [-0.0, 5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.0]
    phi = np.linspace(-179.0, 180.0, 100)
    path = tmp_path / "exact.csv"
    fileio.write_pattern_csv(path, phi, values)
    _, back = read_pattern(path)
    assert back.tobytes() == values.tobytes()


def _ascii_float(cell):
    """``float()`` without digit-group underscores or non-ASCII digits."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(cell)
    return float(cell)


def _walk_read_table(path, header, parse=float):
    """The row-by-row reader ``fileio._read_table`` replaced, kept as its
    reference: one ``parse`` call per cell, errors naming ``path:line``."""
    with open(path) as handle:
        lines = handle.read().split("\n")
    if [cell.strip() for cell in lines[0].split(",")] != header:
        raise ValidationError(
            "%s:1: expected header %s" % (path, ",".join(header)))
    cells, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = line.split(",")
        if len(row) != len(header):
            raise ValidationError("%s:%d: expected %d columns" %
                                  (path, lineno, len(header)))
        try:
            cells.extend(map(parse, row))
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


def _outcome(read, path, header, **kwargs):
    """A reader's table as int64 bits with its line numbers, or its
    error message."""
    try:
        table, linenos = read(path, header, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return table.shape, table.view(np.int64).tolist(), list(linenos)


TABLE_HEADERS = [fileio.MEASUREMENT_COLUMNS, fileio.DUMP_COLUMNS,
                 fileio.PATTERN_COLUMNS]

# Exact %.17g and shortest reprs of any double, and hand-picked cells:
# padded, signed, exponent and non-finite spellings, junk, the syntax
# float() takes but the reader refuses (1_0, Arabic-Indic digits), and
# the padding np.loadtxt strips but float() refuses (\x1c-\x1f).
TABLE_CELLS = st.one_of(
    st.floats().map(lambda x: "%.17g" % x), st.floats().map(repr),
    st.sampled_from(["0", "-0", "+3", ".5", "1.", " 2 ", "\t7", "1e-400",
                     "1e999", "nan", "-nan", "inf", "-Infinity", "", " ",
                     "abc", "1e", "0x10", '"3"', "\x00", "1_0", "1__0",
                     "_1", "\u0661", "\u0661\u0662", "\xa02", "2\u2003",
                     "\u30002", "0\x85", "0\x1f", "\x1c1"]),
    st.text(alphabet="0123456789.eE+-_ \t\x0b\x1c\x1f\x85", max_size=6))
FINITE_CELLS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from(["%.17g" % x, repr(x)]))

BLANK_LINES = st.sampled_from(["", " ", "\t", " \x0c ", "\x1f", "\xa0",
                               "\x85", "\r"])


@st.composite
def _table_bodies(draw, header):
    """A headed CSV body: rows of finite numbers or of any cells, near
    the header's width, sometimes with one cell moved from a row to a
    later one (the total cell count still matches), blank lines
    anywhere, LF or CRLF, with or without a final line end."""
    width = len(header)
    rows = draw(st.lists(st.one_of(
        st.lists(FINITE_CELLS, min_size=width, max_size=width),
        st.integers(width - 1, width + 1).flatmap(
            lambda n: st.lists(TABLE_CELLS, min_size=n, max_size=n))),
        max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        first, second = sorted(draw(st.lists(
            st.integers(0, len(rows) - 1), min_size=2, max_size=2,
            unique=True)))
        if rows[first]:
            rows[second].append(rows[first].pop())
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANK_LINES))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([",".join(header)] + lines) + \
        draw(st.sampled_from(["", end]))


# hypothesis' report hook trips mypy_extensions' TypedDict deprecation
# warning; ignored in the outer mark, which wins, it lets a failure be
# reported instead of ending the session in INTERNALERROR
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("header", TABLE_HEADERS,
                         ids=lambda header: header[-1])
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_read_table_matches_row_walk(header, data):
    # np.loadtxt's table, bit for bit, with the walk's line numbers and
    # errors; float() also reads 1_0 and non-ASCII digits, which the
    # reader refuses as non-numeric, so the walk uses _ascii_float here
    head, width = ",".join(header), len(header)
    body = data.draw(st.one_of(_table_bodies(header), st.sampled_from([
        head + "\r\n",
        # +1/-1 columns on two rows: the total cell count still matches
        "%s\n%s\n\n%s\n" % (head, ",".join("1" * (width + 1)),
                             ",".join("2" * (width - 1))),
        head + "\r\n" + ",".join(["1_0"] * width),
        head + "\r\n" + ",".join(["\u0661"] * width)])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
        got = _outcome(fileio._read_table, path, header)
        assert got == _outcome(_walk_read_table, path, header,
                               parse=_ascii_float)
        if got != _outcome(_walk_read_table, path, header):
            assert "_" in body or not body.isascii()
            assert got.endswith(": non-numeric value"), got


def _scan_read_table(path, header):
    """``fileio._read_table`` as it was when it stripped every line to
    find the blank ones before one ``np.loadtxt`` call, kept as the
    reference for its table, line numbers and messages."""
    with open(path) as handle:
        text = handle.read()
    lines = text.split("\n")
    if [cell.strip() for cell in lines[0].split(",")] != header:
        raise ValidationError(
            "%s:1: expected header %s" % (path, ",".join(header)))
    linenos = [lineno for lineno, line in enumerate(lines[1:], start=2)
               if line.strip()]
    lines = [lines[lineno - 1] for lineno in linenos]
    table = np.empty((0, len(header)))
    if lines:
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            fileio._check_rows(path, lines, linenos, len(header))
            raise ValidationError("%s: %s" % (path, exc)) from exc
        if table.shape[1] != len(header) or \
                any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
            fileio._check_rows(path, lines, linenos, len(header))
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValidationError(
            "%s:%d: non-finite value" % (path, linenos[bad.argmax()]))
    return table, linenos


# A good row, then each way a row can fail: non-numeric, short, long,
# non-finite and padded with a separator loadtxt strips.
SCAN_ROWS = ["1,2.5,-3", "1,x,3", "1,2", "1,2,3,4", "1,nan,3", "1,\x1f2,3"]


@pytest.mark.parametrize("blank", ["", "  ", "\t", "\x85", "\r", " \r",
                                   "\x0c", "\x1c", "\u3000"],
                         ids=repr)
def test_read_table_matches_the_line_scan(tmp_path, blank):
    # a blank line before, between or after the rows, or none, then a row
    # of each kind: the table bits, line numbers and message are the
    # scanning reader's
    header = fileio.MEASUREMENT_COLUMNS
    path = str(tmp_path / "table.csv")
    cases = 0
    for end in ("\n", "\r\n"):
        for where in (None, 0, 1, 2, 3):
            for row in SCAN_ROWS:
                for final in ("", end, end + blank, end + blank + end):
                    body = ["0,0,0", "0.5,1,2", row]
                    if where is not None:
                        body.insert(where, blank)
                    with open(path, "w", encoding="utf-8",
                              newline="") as handle:
                        handle.write(end.join([",".join(header)] + body) +
                                     final)
                    got = _outcome(fileio._read_table, path, header)
                    assert got == _outcome(_scan_read_table, path, header), \
                        (end, where, row, final)
                    cases += 1
    assert cases == 240


def test_read_table_parses_a_table_without_blank_lines_once(monkeypatch,
                                                            tmp_path):
    # no line is scanned for blanks when np.loadtxt takes every line
    calls = []
    original = fileio._parse_rows

    def counted(path, lines, *args):
        calls.append(len(lines))
        return original(path, lines, *args)

    monkeypatch.setattr(fileio, "_parse_rows", counted)
    path = tmp_path / "table.csv"
    for text, want in (("phi_deg,amplitude,phase_deg\r\n0,1,2\r\n", [1]),
                       ("phi_deg,amplitude,phase_deg\n0,1,2\n\n\n", [1]),
                       ("phi_deg,amplitude,phase_deg\n\n0,1,2\n", [2, 1]),
                       ("phi_deg,amplitude,phase_deg\n \n0,1,2\n", [2, 1])):
        path.write_text(text, encoding="utf-8")
        calls.clear()
        table, linenos = fileio._read_table(path, fileio.MEASUREMENT_COLUMNS)
        assert table.tolist() == [[0.0, 1.0, 2.0]]
        assert calls == want, text
        assert list(linenos) == [len(want) + 1]


@pytest.mark.parametrize("cell", ["1_0", "1_000.5", "\u0661",
                                  "\u0661.\u0665", "\uff11"])
def test_table_cells_are_ascii_decimals(tmp_path, cell):
    # float() reads these; the table reader refuses them
    float(cell)
    path = tmp_path / "isolated_1.csv"
    path.write_text("phi_deg,amplitude,phase_deg\n0,1,0\n180,1,%s\n" %
                    (cell,), encoding="utf-8")
    with pytest.raises(ValidationError,
                       match="isolated_1.csv:3: non-numeric"):
        fileio.read_measurement_csv(path)


@pytest.mark.parametrize("grid", [hplane_grid(45.0), sphere_grid(3, 5)],
                         ids=["h_plane", "full_sphere"])
@pytest.mark.parametrize("seed", range(3))
def test_write_field_dump_matches_per_port_tables(tmp_path, grid, seed):
    # one row template per dump gives the bytes of formatting every
    # column of every port, for any double, signed zeros and subnormals,
    # with the e_phi columns written as 0
    rng = np.random.default_rng(seed)
    m_count = 3
    parts = rng.standard_normal((grid.size, 2 * m_count)) * \
        10.0 ** rng.integers(-300, 300, (grid.size, 2 * m_count))
    specials = [-0.0, 5e-324, 1e-320, 1.7976931348623157e308,
                -1.7976931348623157e308]
    parts.flat[rng.choice(parts.size, len(specials), replace=False)] = \
        specials
    fields = FieldMatrix(values=parts[:, 0::2] + 1j * parts[:, 1::2],
                         grid=grid)
    geom = ArrayGeometry(element_count=m_count, spacing=0.3)
    fileio.write_field_dump(tmp_path / "dump", fields, geom, {})
    theta_deg, phi_deg = np.rad2deg(grid.theta), np.rad2deg(grid.phi)
    zero = np.zeros(grid.size)
    for m in range(m_count):
        e_theta = fields.values[:, m]
        reference = tmp_path / "reference.csv"
        fileio._write_table(reference, fileio.DUMP_COLUMNS,
                            [theta_deg, phi_deg, e_theta.real, e_theta.imag,
                             zero, zero])
        assert (tmp_path / "dump" / ("port_%d.csv" % (m + 1,))) \
            .read_bytes() == reference.read_bytes()
