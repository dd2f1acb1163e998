import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir import cli, fileio
from superdir.cli import ExperimentConfig
from superdir.coupling import PatternMeasurement
from superdir.fileio import ValidationError
from superdir.geometry import ArrayGeometry, hplane_grid
from superdir.impedance import port_impedance_for
from superdir.surrogate import TerminationSpec, coupled_fields, isolated_fields


def _write_config(path, **overrides):
    doc = {"geometry": {"elements": 4, "spacing_wl": 0.3,
                        "element": "isotropic",
                        "steer_theta_deg": 0.0, "steer_phi_deg": 0.0},
           "sweep": {"d_min": 0.2, "d_max": 0.5, "steps": 4},
           "grid": {"n_theta": 32, "n_phi": 64, "h_plane_step_deg": 1.0},
           "efficiency": 0.96}
    doc.update(overrides)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return str(path)


def test_config_parsing(tmp_path):
    path = _write_config(tmp_path / "config.json")
    config = ExperimentConfig.from_file(path)
    assert config.geometry.element_count == 4
    assert config.steps == 4
    assert config.efficiency == 0.96


def test_config_validation(tmp_path):
    path = _write_config(tmp_path / "config.json",
                         sweep={"d_min": 0.5, "d_max": 0.2, "steps": 4})
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(path)
    path = _write_config(tmp_path / "config2.json", efficiency=1.5)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(path)
    path = _write_config(tmp_path / "config3.json", methods=["mrt", "zf"])
    with pytest.raises(ValidationError):
        ExperimentConfig.from_file(path)


def test_sweep_writes_all_methods(tmp_path):
    config = _write_config(tmp_path / "config.json")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
    rows = fileio.read_sweep_csv(out)
    assert len(rows) == 4 * 4
    methods = {row["method"] for row in rows}
    assert methods == {"mrt", "traditional", "proposed", "theoretical"}
    spacings = sorted({row["spacing_wl"] for row in rows})
    assert_allclose(spacings, [0.2, 0.3, 0.4, 0.5], rtol=1e-12)
    for row in rows:
        if row["method"] == "proposed":
            theory = [r for r in rows
                      if r["method"] == "theoretical" and
                      r["spacing_wl"] == row["spacing_wl"]][0]
            assert_allclose(row["directivity"], theory["directivity"],
                            rtol=1e-9)


def test_sweep_deterministic_bytes(tmp_path):
    config = _write_config(tmp_path / "config.json")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", config, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_pattern_files_per_method(tmp_path):
    config = _write_config(tmp_path / "config.json")
    out = tmp_path / "cut.csv"
    assert cli.main(["pattern", "--config", config, "--out", str(out)]) == 0
    for method in ("mrt", "traditional", "proposed", "theoretical"):
        phi, db = fileio.read_pattern_csv(tmp_path / ("cut_%s.csv" % method))
        assert len(phi) == 360
        assert db.max() == 0.0
        assert db.min() >= -300.0


def test_exit_codes(tmp_path):
    assert cli.main(["sweep", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.csv")]) == 1
    config = _write_config(tmp_path / "tight.json",
                           geometry={"elements": 6, "spacing_wl": 0.3,
                                     "element": "isotropic",
                                     "steer_theta_deg": 0.0,
                                     "steer_phi_deg": 0.0},
                           sweep={"d_min": 0.005, "d_max": 0.01, "steps": 2})
    out = tmp_path / "tight.csv"
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 2
    assert cli.main(["sweep", "--config", config, "--out", str(out),
                     "--regularize", "1e-10"]) == 0


def test_unknown_arguments_exit_validation(tmp_path):
    assert cli.main(["sweep", "--nope"]) == 1
    assert cli.main(["unknown-subcommand"]) == 1
    config = _write_config(tmp_path / "config.json")
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--config", config, "--out", out,
                     "--seed", "3"]) == 1
    assert cli.main(["sweep", "--config", config]) == 1
    assert cli.main(["acceptance", "--config", config]) == 1


def test_h_plane_step_deg(tmp_path, capsys):
    config = _write_config(tmp_path / "five.json",
                           grid={"n_theta": 32, "n_phi": 64,
                                 "h_plane_step_deg": 5.0})
    assert cli.main(["pattern", "--config", config,
                     "--out", str(tmp_path / "cut.csv")]) == 0
    phi, _ = fileio.read_pattern_csv(tmp_path / "cut_mrt.csv")
    assert len(phi) == 72
    capsys.readouterr()
    # 7 does not divide 360; 120, 180 and 360 leave fewer than 4 cut points
    cases = [({"grid": {"h_plane_step_deg": step}}, "grid.h_plane_step_deg")
             for step in (7.0, 120.0, 180.0, 360.0)]
    cases += [({"grid": {"n_theta": 1}}, "grid.n_theta"),
              ({"sweep": {"stpes": 3}}, "sweep.stpes; valid keys: d_min, "
               "d_max, steps")]
    for number, (overrides, message) in enumerate(cases):
        config = _write_config(tmp_path / ("bad%d.json" % number),
                               **overrides)
        for command in ("sweep", "pattern"):
            assert cli.main([command, "--config", config,
                             "--out", str(tmp_path / "x.csv")]) == 1
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err


def _dump_surrogate(tmp_path, m_count=4, spacing=0.3):
    geom = ArrayGeometry(element_count=m_count, spacing=spacing,
                         element="ideal_dipole")
    grid = hplane_grid(1.0)
    es = isolated_fields(geom, grid)
    ec, c_true = coupled_fields(geom, grid, port_impedance_for(geom),
                                TerminationSpec())
    params = {"kind": "h_plane", "step_deg": 1.0}
    fileio.write_field_dump(tmp_path / "es", es, geom, params)
    fileio.write_field_dump(tmp_path / "ec", ec, geom, params)
    return geom, grid, es, ec, c_true


def test_estimate_c_from_dumps(tmp_path):
    _, _, _, _, c_true = _dump_surrogate(tmp_path)
    out = tmp_path / "c.json"
    assert cli.main(["estimate-c",
                     "--es", str(tmp_path / "es" / "manifest.json"),
                     "--ec", str(tmp_path / "ec" / "manifest.json"),
                     "--out", str(out)]) == 0
    c = fileio.read_c_json(out)
    assert_allclose(c.values, c_true.values, atol=1e-9)


def test_estimate_c_reduced_angles(tmp_path):
    _, _, _, _, c_true = _dump_surrogate(tmp_path)
    out = tmp_path / "c.json"
    assert cli.main(["estimate-c",
                     "--es", str(tmp_path / "es" / "manifest.json"),
                     "--ec", str(tmp_path / "ec" / "manifest.json"),
                     "--angles", "2", "--out", str(out)]) == 0
    c = fileio.read_c_json(out)
    assert_allclose(c.values, c_true.values, atol=1e-9)
    # below the counting bound for M=4
    assert cli.main(["estimate-c",
                     "--es", str(tmp_path / "es" / "manifest.json"),
                     "--ec", str(tmp_path / "ec" / "manifest.json"),
                     "--angles", "1", "--out", str(out)]) == 1


def _write_measurements(tmp_path, geom, es, ec):
    directory = tmp_path / "meas"
    directory.mkdir()
    phi_deg = np.rad2deg(es.grid.phi)
    for tag, fields in (("isolated", es), ("coupled", ec)):
        rows = fields.theta_rows()
        for m in range(geom.element_count):
            meas = PatternMeasurement(
                phi_deg=phi_deg,
                amplitude=np.abs(rows[:, m]) ** 2,
                phase_deg=np.rad2deg(np.angle(rows[:, m])),
                antenna_index=m)
            fileio.write_measurement_csv(
                directory / ("%s_%d.csv" % (tag, m)), meas)
    return directory


def test_estimate_c_from_measurements(tmp_path):
    geom, _, es, ec, c_true = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    out = tmp_path / "c.json"
    assert cli.main(["estimate-c", "--measurements", str(directory),
                     "--config", config, "--out", str(out)]) == 0
    c = fileio.read_c_json(out)
    assert_allclose(c.values, c_true.values, atol=1e-9)


def test_ingest_outputs_z_and_c(tmp_path):
    geom, grid, es, ec, c_true = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    out = tmp_path / "run"
    assert cli.main(["ingest", "--measurements", str(directory),
                     "--config", config, "--out", str(out)]) == 0
    zdoc = json.loads((tmp_path / "run_z.json").read_text())
    assert zdoc["m"] == 4
    z = np.asarray(zdoc["values"])
    assert_allclose(np.diag(z), 1.0, atol=1e-12)
    assert_allclose(z, z.T, atol=1e-12)
    c = fileio.read_c_json(tmp_path / "run_c.json")
    assert_allclose(c.values, c_true.values, atol=1e-9)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_inputs_exit_1(tmp_path, capsys, cell):
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    for path, index, column in ((directory / "coupled_2.csv", 7, 2),
                                (tmp_path / "ec" / "port_3.csv", 5, 4)):
        lines = path.read_text().splitlines()
        cells = lines[index].split(",")
        cells[column] = cell
        lines[index] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for argv, where in (
            (["ingest", "--measurements", str(directory), "--config", config,
              "--out", str(tmp_path / "run")], "coupled_2.csv:8"),
            (["estimate-c", "--measurements", str(directory),
              "--config", config, "--out", str(tmp_path / "c.json")],
             "coupled_2.csv:8"),
            (["estimate-c", "--es", str(tmp_path / "es" / "manifest.json"),
              "--ec", str(tmp_path / "ec" / "manifest.json"),
              "--out", str(tmp_path / "c.json")], "port_3.csv:6")):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert where + ": non-finite value" in err
        assert "Traceback" not in err


def test_ingest_rejects_incomplete_set(tmp_path):
    geom, grid, es, ec, _ = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    (directory / "coupled_3.csv").unlink()
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    assert cli.main(["ingest", "--measurements", str(directory),
                     "--config", config,
                     "--out", str(tmp_path / "run")]) == 1


def test_acceptance_tamper_exit_code(capsys):
    assert cli.main(["acceptance", "--tamper", "14"]) == 3
    out = capsys.readouterr().out
    assert "criterion 14" in out
    assert "FAIL" in out
    assert "13/14 criteria passed" in out
