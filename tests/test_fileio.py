import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir import fileio
from superdir.coupling import CouplingMatrix, PatternMeasurement
from superdir.fileio import ValidationError
from superdir.geometry import ArrayGeometry, Direction, hplane_grid
from superdir.impedance import z_isotropic_closed
from superdir.surrogate import isolated_fields


def test_geometry_dict_roundtrip():
    geom = ArrayGeometry(element_count=4, spacing=0.3,
                         element="ideal_dipole")
    steer = Direction(theta=np.pi / 2, phi=np.pi / 4)
    doc = fileio.geometry_to_dict(geom, steer)
    geom2, steer2 = fileio.geometry_from_dict(doc)
    assert geom2 == geom
    assert_allclose(steer2.theta, steer.theta, rtol=1e-12)
    assert_allclose(steer2.phi, steer.phi, rtol=1e-12)


def test_geometry_from_dict_errors():
    with pytest.raises(ValidationError):
        fileio.geometry_from_dict({"spacing_wl": 0.3})
    with pytest.raises(ValidationError):
        fileio.geometry_from_dict({"elements": 2, "spacing_wl": -1.0})


def test_measurement_csv_roundtrip(tmp_path):
    phi = np.arange(-179.0, 181.0, 1.0)
    meas = PatternMeasurement(phi_deg=phi,
                              amplitude=np.abs(np.sin(np.deg2rad(phi))) + 0.1,
                              phase_deg=np.linspace(-170.0, 170.0, 360),
                              antenna_index=2)
    path = tmp_path / "meas.csv"
    fileio.write_measurement_csv(path, meas)
    back = fileio.read_measurement_csv(path, antenna_index=2)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.phi_deg, meas.phi_deg)
    assert np.array_equal(back.amplitude, meas.amplitude)
    assert np.array_equal(back.phase_deg, meas.phase_deg)
    assert back.antenna_index == 2


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
    back = fileio.read_sweep_csv(path)
    assert back == rows
    with pytest.raises(ValidationError):
        path.write_text("wrong,header\n")
        fileio.read_sweep_csv(path)


def test_pattern_csv_roundtrip(tmp_path):
    phi = np.arange(-179.0, 181.0, 1.0)
    db = -30.0 * np.abs(np.sin(np.deg2rad(phi)))
    path = tmp_path / "pattern.csv"
    fileio.write_pattern_csv(path, phi, db)
    phi2, db2 = fileio.read_pattern_csv(path)
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
    _, back = fileio.read_pattern_csv(path)
    assert back.tobytes() == values.tobytes()
