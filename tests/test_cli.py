import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir import (beamforming, cli, coupling, experiment, fileio,
                      impedance, linalg, surrogate)
from superdir.experiment import ExperimentConfig
from superdir.coupling import PatternMeasurement
from superdir.fileio import ValidationError
from superdir.geometry import ArrayGeometry, hplane_grid
from superdir.impedance import port_impedance_for
from superdir.surrogate import TerminationSpec, coupled_fields, isolated_fields

from tables import read_pattern, read_sweep


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
    rows = read_sweep(out)
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


def test_sweep_takes_one_condition_and_one_z_solve_per_spacing(
        tmp_path, monkeypatch):
    conditions, z_solves = [], []
    original_condition = linalg.condition_number
    original_solve = linalg.gated_solve

    def counted_condition(a):
        # Z is real; C and Z_c are not.  A stack counts each of its matrices.
        conditions.extend([np.isrealobj(a)] * (len(a) if np.ndim(a) == 3
                                               else 1))
        return original_condition(a)

    def counted_solve(a, b, **kwargs):
        z_solves.append(kwargs.get("context"))
        return original_solve(a, b, **kwargs)

    for module in (linalg, impedance, coupling, surrogate):
        monkeypatch.setattr(module, "condition_number", counted_condition)
    monkeypatch.setattr(impedance, "gated_solve", counted_solve)
    config = ExperimentConfig.from_file(_write_config(tmp_path / "c.json"))
    rows = experiment.sweep_rows(config)
    assert len(rows) == 4 * config.steps
    assert sum(conditions) == config.steps
    # Z^-1 e* serves traditional, proposed and theoretical, and its
    # conjugate Z^-1 e the bound
    assert z_solves == ["impedance matrix"] * config.steps


def test_sweep_builds_the_grid_arrays_once(tmp_path, monkeypatch):
    # a sweep's grid and orientation do not change with the spacing
    calls = {"gain_arrays": 0, "phase_argument": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(impedance, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(impedance, name, counted)
    config = ExperimentConfig.from_file(_write_config(
        tmp_path / "c.json", sweep={"d_min": 0.05, "d_max": 0.5, "steps": 50}))
    rows = experiment.sweep_rows(config, tikhonov=1e-12)
    assert len(rows) == 4 * 50
    assert calls == {"gain_arrays": 1, "phase_argument": 1}


def test_sweep_takes_at_most_three_svds_and_cond_c_once_per_spacing(
        tmp_path, monkeypatch):
    # Z, Z_c + Z_L and C are each conditioned by one stacked SVD for the
    # whole sweep, and the proposed solve reads cond(C) from C_true
    stacks, c_conditions = [], []
    original_svd = np.linalg.svd
    original_solve = beamforming.gated_solve

    def counted_svd(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return original_svd(a, *args, **kwargs)

    def counted_solve(a, b, **kwargs):
        if kwargs.get("context") == "coupling matrix":
            c_conditions.append(kwargs.get("condition"))
        return original_solve(a, b, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(beamforming, "gated_solve", counted_solve)
    config = ExperimentConfig.from_file(_write_config(
        tmp_path / "c.json",
        geometry={"elements": 16, "spacing_wl": 0.1,
                  "element": "ideal_dipole", "steer_theta_deg": 90.0,
                  "steer_phi_deg": 75.0},
        sweep={"d_min": 0.05, "d_max": 0.5, "steps": 50},
        grid={"n_theta": 64, "n_phi": 128, "h_plane_step_deg": 1.0}))
    rows = experiment.sweep_rows(config, tikhonov=1e-12)
    assert len(rows) == 4 * 50
    assert stacks == [(50, 16, 16)] * 3
    proposed = [row["condition_c"] for row in rows
                if row["method"] == "proposed"]
    assert c_conditions == proposed


@pytest.mark.parametrize("methods", [[], ["mrt", "mrt"]],
                         ids=["empty", "repeated"])
def test_methods_must_name_each_method_once(tmp_path, capsys, methods):
    # an empty list wrote a header-only sweep and no pattern; a repeated
    # method wrote each of its rows twice
    config = _write_config(tmp_path / "config.json", methods=methods)
    for command in ("sweep", "pattern"):
        capsys.readouterr()
        assert cli.main([command, "--config", config,
                         "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s: methods " % (config,)), err
    assert not [path for path in tmp_path.iterdir()
                if path.name.startswith("out")]


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
        phi, db = read_pattern(tmp_path / ("cut_%s.csv" % method))
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


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_regularize_must_be_finite_and_positive(tmp_path, capsys, value):
    # the flag, not the config, is at fault; an epsilon <= 0 would solve
    # with Z - |eps| I, which can be indefinite
    config = _write_config(tmp_path / "config.json")
    for command in ("sweep", "pattern"):
        capsys.readouterr()
        assert cli.main([command, "--config", config, "--out",
                         str(tmp_path / "x.csv"), "--regularize", value]) == 1
        assert capsys.readouterr().err == (
            "error: argument --regularize: must be a finite number > 0, "
            "got %r\n" % (value,))
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_sweep_and_pattern_reject_what_cannot_be_steered(tmp_path, capsys):
    # inputs the sweep cannot steer or solve exit 1 naming the key
    dipole = {"elements": 2, "spacing_wl": 0.3, "element": "ideal_dipole",
              "steer_theta_deg": 0.0}
    cases = [("sweep", {"sweep": {"d_min": 0.0, "d_max": 0.2, "steps": 2}},
              "sweep needs 0 < d_min < d_max"),
             ("sweep", {"geometry": dipole}, "geometry.steer_theta_deg: the "
              "element radiates below -120 dB there"),
             ("pattern", {"geometry": dict(dipole, steer_theta_deg=1e-5)},
              "geometry.steer_theta_deg: the element radiates below -120 dB"),
             ("sweep", {"geometry": {"elements": 3, "spacing_wl": 0.5},
                        "sweep": {"d_min": 0.5, "d_max": 0.6, "steps": 2},
                        "grid": {"n_theta": 2, "n_phi": 2}},
              "non-positive radiated power; invalid impedance matrix "
              "(grid.n_theta = 2, grid.n_phi = 2)"),
             ("sweep", {"geometry": dict(dipole, steer_theta_deg=90.0),
                        "sweep": {"d_min": 1e-200, "d_max": 0.5,
                                  "steps": 4},
                        "grid": {"n_theta": 16, "n_phi": 32}},
              "sweep.d_min: spacing 1e-200 is below 1.4917e-154 "
              "wavelengths, where its square underflows")]
    for number, (command, overrides, message) in enumerate(cases):
        config = _write_config(tmp_path / ("bad%d.json" % number),
                               **overrides)
        capsys.readouterr()
        assert cli.main([command, "--config", config, "--out",
                         str(tmp_path / "x.csv"), "--regularize",
                         "1e-12"]) == 1
        assert "error: %s: %s" % (config, message) in capsys.readouterr().err


def test_only_a_power_error_blames_the_grid(tmp_path, capsys, monkeypatch):
    # a ValueError past the config checks names the config; only the
    # non-positive power of a Z from too coarse a grid names grid keys
    config = _write_config(tmp_path / "config.json",
                           grid={"n_theta": 4, "n_phi": 8,
                                 "h_plane_step_deg": 45.0})

    def broken_solve(*args, **kwargs):
        raise ValueError("array must not contain infs or NaNs")

    monkeypatch.setattr(impedance.ImpedanceMatrix, "solve", broken_solve)
    capsys.readouterr()
    assert cli.main(["sweep", "--config", config, "--out",
                     str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: %s: array must not contain infs or NaNs\n" % (
        config,)


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
    phi, _ = read_pattern(tmp_path / "cut_mrt.csv")
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


def test_config_integers_must_be_integral(tmp_path, capsys):
    geometry = {"spacing_wl": 0.3, "element": "isotropic"}
    config = _write_config(tmp_path / "whole.json",
                           geometry=dict(geometry, elements=4.0),
                           sweep={"d_min": 0.2, "d_max": 0.5, "steps": 4.0},
                           grid={"n_theta": 32.0, "n_phi": 64})
    loaded = ExperimentConfig.from_file(config)
    assert (loaded.geometry.element_count, loaded.steps, loaded.n_theta) == \
        (4, 4, 32)
    assert isinstance(loaded.steps, int) and isinstance(loaded.n_theta, int)
    cases = [({"geometry": dict(geometry, elements=value)},
              "geometry.elements: must be an integer, got %r" % (value,))
             for value in (4.7, True, "4")]
    cases += [({"sweep": {"steps": value}},
               "sweep.steps: must be an integer, got %r" % (value,))
              for value in (3.7, True)]
    cases += [({"grid": {key: value}},
               "grid.%s: must be an integer, got %r" % (key, value))
              for key, value in (("n_theta", 64.5), ("n_phi", False))]
    capsys.readouterr()
    for number, (overrides, message) in enumerate(cases):
        config = _write_config(tmp_path / ("bad%d.json" % number),
                               **overrides)
        assert cli.main(["sweep", "--config", config,
                         "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_config_numbers_must_be_numbers(tmp_path, capsys):
    geometry = {"elements": 4, "spacing_wl": 0.3, "element": "isotropic"}
    loaded = ExperimentConfig.from_file(_write_config(
        tmp_path / "ints.json", geometry=dict(geometry, steer_phi_deg=90),
        sweep={"d_min": 1, "d_max": 2, "steps": 4}, efficiency=1))
    assert (loaded.d_min, loaded.d_max, loaded.efficiency) == (1.0, 2.0, 1.0)
    assert isinstance(loaded.efficiency, float)
    cases = [({"efficiency": True}, "efficiency: must be a finite number, "
              "got True"),
             ({"sweep": {"d_min": "0.1"}}, "sweep.d_min: must be a finite "
              "number, got '0.1'"),
             ({"grid": {"h_plane_step_deg": "1"}}, "grid.h_plane_step_deg: "
              "must be a finite number, got '1'"),
             ({"geometry": dict(geometry, spacing_wl="0.3")},
              "geometry.spacing_wl: must be a finite number, got '0.3'"),
             ({"geometry": dict(geometry, steer_theta_deg=False)},
              "geometry.steer_theta_deg: must be a finite number, got False"),
             ({"geometry": dict(geometry, steer_phi_deg=None)},
              "geometry.steer_phi_deg: must be a finite number, got None")]
    capsys.readouterr()
    for number, (overrides, message) in enumerate(cases):
        config = _write_config(tmp_path / ("bad%d.json" % number),
                               **overrides)
        assert cli.main(["sweep", "--config", config,
                         "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "%s: %s" % (config, message) in err
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


def test_estimate_c_refuses_a_dump_with_e_phi(tmp_path, capsys):
    # a nonzero e_phi cell exits 1 naming its file and line, and writes
    # no C
    _dump_surrogate(tmp_path)
    path = tmp_path / "ec" / "port_3.csv"
    lines = path.read_text().splitlines()
    cells = lines[41].split(",")
    cells[5] = "1e-9"
    lines[41] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert cli.main(["estimate-c",
                     "--es", str(tmp_path / "es" / "manifest.json"),
                     "--ec", str(tmp_path / "ec" / "manifest.json"),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s:42: e_phi must be 0" % (path,)), err
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["0", "-2"])
def test_angles_must_be_a_positive_integer(tmp_path, capsys, value):
    # 0 is a count of angles, not an absent flag, and -2 is no fault of
    # the dumps
    _dump_surrogate(tmp_path, m_count=2)
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert cli.main(["estimate-c",
                     "--es", str(tmp_path / "es" / "manifest.json"),
                     "--ec", str(tmp_path / "ec" / "manifest.json"),
                     "--angles", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: argument --angles: must be an integer > 0, got %r\n" %
        (value,))
    assert not out.exists()


def _write_measurements(tmp_path, geom, es, ec):
    directory = tmp_path / "meas"
    directory.mkdir()
    phi_deg = np.rad2deg(es.grid.phi)
    for tag, fields in (("isolated", es), ("coupled", ec)):
        rows = fields.values
        for m in range(geom.element_count):
            meas = PatternMeasurement(
                phi_deg=phi_deg,
                amplitude=np.abs(rows[:, m]) ** 2,
                phase_deg=np.rad2deg(np.angle(rows[:, m])),
                antenna_index=m)
            fileio.write_measurement_csv(
                directory / ("%s_%d.csv" % (tag, m + 1)), meas)
    return directory


@pytest.mark.parametrize("value", ["100000",
                                   "99999999999999999999999999999"])
def test_angles_beyond_the_cut_exit_1_naming_the_flag(tmp_path, capsys,
                                                      value):
    # the 1 deg cut has 360 points; a larger count used to run a Python
    # loop per angle or ask numpy for an array past its size limit
    _dump_surrogate(tmp_path, m_count=2)
    manifests = [str(tmp_path / name / "manifest.json")
                 for name in ("es", "ec")]
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert cli.main(["estimate-c", "--es", manifests[0], "--ec", manifests[1],
                     "--angles", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: %s and %s: --angles %s exceeds the 360 points of the cut\n" %
        (manifests[0], manifests[1], value))
    assert not out.exists()


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


def test_estimate_c_from_measurements_at_half_the_angles_for_odd_m(tmp_path):
    # M=3 needs ceil(3/2) = 2 azimuths, not 3
    geom, _, es, ec, c_true = _dump_surrogate(tmp_path, m_count=3,
                                              spacing=0.2)
    directory = _write_measurements(tmp_path, geom, es, ec)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    out = tmp_path / "c.json"
    assert cli.main(["estimate-c", "--measurements", str(directory),
                     "--config", config, "--angles", "2",
                     "--out", str(out)]) == 0
    c = fileio.read_c_json(out)
    assert_allclose(c.values, c_true.values, rtol=0.0, atol=1e-12)


BOTH_SOURCES = ("error: estimate-c takes either --es and --ec or "
                "--measurements, not both\n")


@pytest.mark.parametrize("flags, message", [
    (["measurements", "config", "es"], BOTH_SOURCES),
    (["measurements", "config", "ec"], BOTH_SOURCES),
    (["measurements", "config", "es", "ec"], BOTH_SOURCES),
    (["es", "ec", "config"], "error: estimate-c takes --config with "
     "--measurements, not with --es and --ec\n"),
    (["es", "ec", "amplitude"], "error: estimate-c takes --amplitude with "
     "--measurements, not with --es and --ec\n"),
], ids=["es", "ec", "both", "config", "amplitude"])
def test_estimate_c_takes_one_source(tmp_path, capsys, flags, message):
    # the flags of one source were dropped without a word: the dumps
    # beside the measurements, and --config and --amplitude beside the dumps
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    values = {
        "measurements": str(_write_measurements(tmp_path, geom, es, ec)),
        "config": _write_config(tmp_path / "config.json",
                                geometry=fileio.geometry_to_dict(geom)),
        "es": str(tmp_path / "es" / "manifest.json"),
        "ec": str(tmp_path / "ec" / "manifest.json"),
        "amplitude": "power"}
    out = tmp_path / "c.json"
    argv = ["estimate-c", "--out", str(out)]
    for name in flags:
        argv += ["--" + name, values[name]]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


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


@pytest.mark.parametrize("gain", [1.0, 2.0])
def test_ingest_weights_each_element_by_its_own_amplitude(tmp_path, gain):
    # two co-phased elements, |E_1| = 1 and |E_2| = gain sqrt(2) |cos phi|:
    # the normalized correlation z_12 is the mean of sqrt(2) |cos phi|,
    # 2 sqrt(2) / pi up to the cut's quadrature error (2.5e-5 at 1 deg),
    # for either gain; antenna 1's amplitude for both elements would give
    # 1, and dividing by element 1's power alone gain 2 sqrt(2) / pi
    geom = ArrayGeometry(element_count=2, spacing=0.3)
    grid = hplane_grid(1.0)
    values = np.zeros((grid.size, 2), dtype=complex)
    values[:, 0] = 1.0
    values[:, 1] = gain * np.sqrt(2.0) * np.abs(np.cos(grid.phi))
    fields = coupling.FieldMatrix(values=values, grid=grid)
    directory = _write_measurements(tmp_path, geom, fields, fields)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    assert cli.main(["ingest", "--measurements", str(directory),
                     "--config", config,
                     "--out", str(tmp_path / "run")]) == 0
    z = np.asarray(json.loads((tmp_path / "run_z.json").read_text())["values"])
    assert_allclose(z[0, 1], 2.0 * np.sqrt(2.0) / np.pi, rtol=1e-4)
    assert_allclose(np.diag(z), 1.0)


def test_ingest_refuses_fields_whose_z_leaves_the_double_range(tmp_path,
                                                                capsys):
    # fields of 1e99 are finite, but the product of two element powers
    # overflows; the Z written was z_12 = 0
    geom, _, es, ec, _ = _dump_surrogate(tmp_path, m_count=2)
    scale = 1e99
    directory = _write_measurements(
        tmp_path, geom,
        coupling.FieldMatrix(values=scale * es.values, grid=es.grid),
        coupling.FieldMatrix(values=scale * ec.values, grid=ec.grid))
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    capsys.readouterr()
    assert cli.main(["ingest", "--measurements", str(directory),
                     "--config", config,
                     "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: impedance normalization leaves the "
                          "double range" % (directory,))
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "run_z.json").exists()


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


def test_zero_coupled_fields_exit_1_naming_the_inputs(tmp_path, capsys):
    # C = 0 has condition inf, which JSON cannot hold: the file would
    # say Infinity, which read_c_json refuses
    geom, grid, es, _, _ = _dump_surrogate(tmp_path, m_count=2)
    zero = coupling.FieldMatrix(values=np.zeros_like(es.values), grid=grid)
    fileio.write_field_dump(tmp_path / "ec", zero, geom,
                            {"kind": "h_plane", "step_deg": 1.0})
    directory = _write_measurements(tmp_path, geom, es, zero)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    manifests = [str(tmp_path / name / "manifest.json")
                 for name in ("es", "ec")]
    dumps = ["estimate-c", "--es", manifests[0], "--ec", manifests[1]]
    measured = ["--measurements", str(directory), "--config", config]
    for argv, source in (
            (dumps, " and ".join(manifests)),
            (dumps + ["--angles", "1"], " and ".join(manifests)),
            (["estimate-c"] + measured, str(directory)),
            (["ingest"] + measured, str(directory))):
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s: estimated coupling matrix is "
                              "singular (condition number inf)" % (source,)), \
            err
    assert not [path for path in tmp_path.iterdir()
                if path.name.startswith("out")]


NO_MEMORY = ("Unable to allocate 72.8 TiB for an array with shape "
             "(10000000000000,) and data type float64")


def _refuse(*args):
    raise MemoryError(NO_MEMORY)


@pytest.mark.parametrize("source", ["sweep", "dumps", "measurements",
                                    "ingest"])
def test_an_input_too_large_for_memory_exits_1_naming_it(
        tmp_path, capsys, monkeypatch, source):
    # 10^13 sweep steps, grid points or CSV rows ask numpy for 72.8 TiB;
    # the fakes raise its MemoryError without asking
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    config = _write_config(tmp_path / "config.json",
                           geometry=dict(fileio.geometry_to_dict(geom),
                                         steer_theta_deg=90.0,
                                         steer_phi_deg=90.0),
                           sweep={"d_min": 0.2, "d_max": 0.5,
                                  "steps": 10 ** 13})
    manifest = tmp_path / "es" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["grid"] = {"kind": "full_sphere", "n_theta": 4, "n_phi": 10 ** 13}
    manifest.write_text(json.dumps(doc))
    directory = _write_measurements(tmp_path, geom, es, ec)
    linspace = np.linspace

    def huge_linspace(start, stop, num, **kwargs):
        if num > 10 ** 9:
            _refuse()
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", huge_linspace)
    monkeypatch.setattr(fileio, "sphere_grid", _refuse)
    monkeypatch.setattr(fileio, "read_measurement_csv", _refuse)
    argv, named = {
        "sweep": (["sweep", "--config", config],
                  "--config %s" % (config,)),
        "dumps": (["estimate-c", "--es", str(manifest), "--ec",
                   str(manifest)],
                  "--es %s and --ec %s" % (manifest, manifest)),
        "measurements": (["estimate-c", "--config", config,
                          "--measurements", str(directory)],
                         "--config %s and --measurements %s" %
                         (config, directory)),
        "ingest": (["ingest", "--config", config, "--measurements",
                    str(directory)],
                   "--config %s and --measurements %s" %
                   (config, directory))}[source]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: %s: the input needs more memory than there is (%s)\n" %
        (named, NO_MEMORY))
    assert not [path for path in tmp_path.iterdir()
                if path.name.startswith("out")]


def test_measurement_phi_grid_must_be_uniform(tmp_path, capsys):
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    for path in directory.iterdir():  # every file loses phi = -170 deg
        lines = path.read_text().splitlines()
        del lines[10]
        path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for argv in (["ingest", "--out", str(tmp_path / "run")],
                 ["estimate-c", "--out", str(tmp_path / "c.json")]):
        assert cli.main(argv + ["--measurements", str(directory),
                                "--config", config]) == 1
        err = capsys.readouterr().err
        assert "%s: phi grid must ascend in equal steps" % (directory,) in err
        assert "the step after phi_deg = -171 is 2\n" in err
        assert "Traceback" not in err
    assert not (tmp_path / "run_z.json").exists()


def test_ten_element_measurements_are_read_in_numeric_order(tmp_path):
    # sorted by name, isolated_10.csv came second and scrambled Z and C
    geom, grid, es, ec, c_true = _dump_surrogate(tmp_path, m_count=10)
    directory = _write_measurements(tmp_path, geom, es, ec)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    measured = ["--measurements", str(directory), "--config", config]
    assert cli.main(["ingest"] + measured +
                    ["--out", str(tmp_path / "run")]) == 0
    assert cli.main(["estimate-c"] + measured +
                    ["--out", str(tmp_path / "c.json")]) == 0
    z = np.asarray(json.loads((tmp_path / "run_z.json").read_text())["values"])
    assert_allclose(z, impedance.z_hplane(geom, grid).values, rtol=0,
                    atol=1e-9)
    truth = c_true.values
    for name in ("run_c.json", "c.json"):
        c = fileio.read_c_json(tmp_path / name).values
        assert np.linalg.norm(c - truth) / np.linalg.norm(truth) < 1e-6


@pytest.mark.parametrize("rename, missing", [
    ({"isolated_2.csv": "isolated_5.csv"}, "isolated files must be "
     "numbered 1 to 4; isolated_2.csv is missing"),
    ({"coupled_%d.csv" % k: "coupled_%d.csv" % (k - 1)
      for k in range(1, 5)}, "coupled files must be numbered 1 to 4; "
     "coupled_4.csv is missing")], ids=["gap", "from-zero"])
def test_measurement_numbers_must_run_from_1_to_m(tmp_path, capsys, rename,
                                                  missing):
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    for old, new in rename.items():
        (directory / old).rename(directory / new)
    config = _write_config(tmp_path / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    for argv in (["ingest", "--out", str(tmp_path / "run")],
                 ["estimate-c", "--out", str(tmp_path / "c.json")]):
        capsys.readouterr()
        assert cli.main(argv + ["--measurements", str(directory),
                                "--config", config]) == 1
        assert capsys.readouterr().err == "error: %s: %s\n" % (directory,
                                                                missing)
    assert not (tmp_path / "run_z.json").exists()


@pytest.mark.parametrize("body", [b"\xff\xfe{}", b"[" * 100000,
                                  b'{"m": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf-8", "nested", "long-integer"])
def test_unreadable_json_exits_1_naming_the_file(tmp_path, capsys, body):
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    manifests = [str(tmp_path / name / "manifest.json")
                 for name in ("es", "ec")]
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    measured = ["--measurements", str(directory), "--config", str(bad)]
    out = ["--out", str(tmp_path / "out")]
    for argv in (["sweep", "--config", str(bad)],
                 ["pattern", "--config", str(bad)],
                 ["ingest"] + measured,
                 ["estimate-c"] + measured,
                 ["estimate-c", "--es", str(bad), "--ec", manifests[1]],
                 ["estimate-c", "--es", manifests[0], "--ec", str(bad)]):
        capsys.readouterr()
        assert cli.main(argv + out) == 1, argv
        assert capsys.readouterr().err.startswith("error: %s: " % (bad,))
    with pytest.raises(ValidationError, match="^%s: " % re.escape(str(bad))):
        fileio.read_c_json(bad)
    assert not [path for path in tmp_path.iterdir()
                if path.name.startswith("out")]


def test_measurement_directory_name_is_not_a_pattern(tmp_path):
    # glob read the "[1]" of the name as a character class and found
    # no files
    base = tmp_path / "run[1]"
    base.mkdir()
    geom, _, es, ec, _ = _dump_surrogate(base)
    directory = _write_measurements(base, geom, es, ec)
    config = _write_config(base / "config.json",
                           geometry=fileio.geometry_to_dict(geom))
    assert cli.main(["ingest", "--measurements", str(directory),
                     "--config", config, "--out", str(base / "run")]) == 0


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


@pytest.mark.parametrize("value, code", [("0", 1), ("15", 1), ("-3", 1),
                                         ("1", 3)])
def test_tamper_takes_a_criterion_number(capsys, value, code):
    # a number outside 1..14 tampered with nothing and passed 14/14; 14,
    # the other end, is test_acceptance_tamper_exit_code's
    assert cli.main(["acceptance", "--tamper", value]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err.startswith("error: argument --tamper: "), \
            captured.err
    else:
        assert "13/14 criteria passed" in captured.out


def test_unwritable_out_exits_1_naming_the_path(tmp_path, capsys):
    # every writer raised FileNotFoundError or IsADirectoryError
    geom, _, es, ec, _ = _dump_surrogate(tmp_path)
    directory = _write_measurements(tmp_path, geom, es, ec)
    dipoles = _write_config(tmp_path / "dipoles.json",
                            geometry=fileio.geometry_to_dict(geom))
    config = _write_config(tmp_path / "config.json")
    missing = str(tmp_path / "missing" / "out")
    for argv, out in (
            (["sweep", "--config", config], missing),
            (["sweep", "--config", config], str(tmp_path)),
            (["pattern", "--config", config], missing),
            (["estimate-c", "--es", str(tmp_path / "es" / "manifest.json"),
              "--ec", str(tmp_path / "ec" / "manifest.json")], missing),
            (["ingest", "--measurements", str(directory),
              "--config", dipoles], missing)):
        capsys.readouterr()
        assert cli.main(argv + ["--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err, err


def test_dipole_sweep_down_to_tiny_spacing(tmp_path):
    # At d = 1e-10 the EMF network used to hold Ci(0) = -inf: LAPACK
    # printed "DLASCL parameter number 4 had an illegal value" and the
    # sweep exited 2.  A subprocess sees what LAPACK writes to fd 1 and 2.
    config = _write_config(
        tmp_path / "tiny.json",
        geometry={"elements": 4, "spacing_wl": 0.3, "element": "ideal_dipole",
                  "steer_theta_deg": 90.0, "steer_phi_deg": 90.0},
        sweep={"d_min": 1e-10, "d_max": 0.5, "steps": 4},
        grid={"n_theta": 16, "n_phi": 32})
    out = tmp_path / "sweep.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(cli.__file__))))
    done = subprocess.run(
        [sys.executable, "-m", "superdir.cli", "sweep", "--config", config,
         "--regularize", "1e-12", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "illegal value" not in done.stdout + done.stderr
    rows = read_sweep(out)
    assert len(rows) == 16 and rows[0]["spacing_wl"] == 1e-10
    for row in rows:
        for column, value in row.items():
            if column not in ("method", "psll_db"):
                assert np.isfinite(value), (column, row)
