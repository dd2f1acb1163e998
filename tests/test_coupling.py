import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir.coupling import (CouplingMatrix, FieldMatrix,
                               PatternMeasurement, column_symmetry_residual,
                               default_reduced_angles, estimate_c_full,
                               estimate_c_reduced, fields_from_measurements,
                               minimum_angles)
from superdir.geometry import (ArrayGeometry, hplane_grid, sphere_grid,
                               steering_matrix)
from superdir.impedance import port_impedance_for
from superdir.linalg import gated_solve
from superdir.surrogate import TerminationSpec, coupled_fields, isolated_fields


def _surrogate_pair(m_count, spacing, grid):
    geom = ArrayGeometry(element_count=m_count, spacing=spacing,
                         element="ideal_dipole")
    es = isolated_fields(geom, grid)
    ec, c_true = coupled_fields(geom, grid, port_impedance_for(geom),
                                TerminationSpec())
    return geom, es, ec, c_true


def test_full_estimation_recovers_truth():
    grid = sphere_grid(32, 64)
    for m_count in (2, 5):
        _, es, ec, c_true = _surrogate_pair(m_count, 0.2, grid)
        c_est = estimate_c_full(es, ec)
        assert_allclose(c_est.values, c_true.values, atol=1e-10)
        assert c_est.residual < 1e-10
        assert not c_est.flagged


def test_solver_paths_agree():
    # the normal equations reach the least-squares C by another path
    grid = sphere_grid(32, 64)
    _, es, ec, _ = _surrogate_pair(4, 0.15, grid)
    c_svd = estimate_c_full(es, ec)
    c_normal, _ = gated_solve(es.values.conj().T @ es.values,
                              es.values.conj().T @ ec.values)
    assert_allclose(c_svd.values, c_normal, atol=1e-9)


@pytest.mark.parametrize("ports", [[0], [0, 1]], ids=["one", "all"])
def test_zero_coupled_field_is_refused(ports):
    # a port that radiates nothing leaves C singular, and its condition
    # number inf cannot be written as JSON
    grid = hplane_grid(30.0)
    _, es, ec, _ = _surrogate_pair(2, 0.2, grid)
    ec.values[:, ports] = 0.0
    with pytest.raises(ValueError, match="singular"):
        estimate_c_full(es, ec)


@pytest.mark.parametrize("columns", ["equal", "zero"])
def test_full_estimation_refuses_rank_deficient_isolated_fields(columns):
    grid = hplane_grid(30.0)
    _, es, ec, _ = _surrogate_pair(3, 0.2, grid)
    if columns == "equal":
        es.values[:, 2] = es.values[:, 0]
    else:
        es.values[:] = 0.0
    with pytest.raises(ValueError, match="rank deficient"):
        estimate_c_full(es, ec)


def test_estimation_rejects_mismatched_grids():
    grid_a = hplane_grid(1.0)
    grid_b = hplane_grid(2.0)
    geom = ArrayGeometry(element_count=2, spacing=0.3)
    es = isolated_fields(geom, grid_a)
    ec = isolated_fields(geom, grid_b)
    with pytest.raises(ValueError):
        estimate_c_full(es, ec)


def test_minimum_angles_counting():
    assert minimum_angles(4) == 2
    assert minimum_angles(8) == 4
    assert minimum_angles(3) == 3
    assert minimum_angles(7) == 7


def test_default_reduced_angles_span():
    angles = default_reduced_angles(4)
    assert len(angles) == 4
    assert_allclose(np.rad2deg(angles), [22.5, 45.0, 67.5, 90.0])


def _samples_at(geom, c_true, angles):
    a = steering_matrix(geom, np.full(len(angles), np.pi / 2), angles,
                        "in_plane")
    return a @ c_true.values


def test_reduced_even_matches_full():
    grid = hplane_grid(1.0)
    for m_count in (4, 8):
        geom, es, ec, c_true = _surrogate_pair(m_count, 0.3, grid)
        angles = default_reduced_angles(m_count // 2)
        c_red = estimate_c_reduced(_samples_at(geom, c_true, angles),
                                   angles, geom)
        assert_allclose(c_red.values, c_true.values, atol=1e-9)
        assert c_red.residual < 1e-10


def test_reduced_odd_needs_full_count():
    grid = hplane_grid(1.0)
    geom, _, _, c_true = _surrogate_pair(3, 0.3, grid)
    with pytest.raises(ValueError):
        angles = default_reduced_angles(2)
        estimate_c_reduced(_samples_at(geom, c_true, angles), angles, geom)
    angles = default_reduced_angles(3)
    c_red = estimate_c_reduced(_samples_at(geom, c_true, angles), angles, geom)
    assert_allclose(c_red.values, c_true.values, atol=1e-9)


def test_reduced_rejects_short_angle_set():
    grid = hplane_grid(1.0)
    geom, _, _, c_true = _surrogate_pair(8, 0.3, grid)
    angles = default_reduced_angles(3)
    with pytest.raises(ValueError):
        estimate_c_reduced(_samples_at(geom, c_true, angles), angles, geom)


def test_reduced_rejects_degenerate_angles():
    grid = hplane_grid(1.0)
    geom, _, _, c_true = _surrogate_pair(4, 0.3, grid)
    angles = np.array([0.3, 0.3])
    with pytest.raises(ValueError):
        estimate_c_reduced(_samples_at(geom, c_true, angles), angles, geom)


@pytest.mark.parametrize("m_count", [4, 3])
def test_reduced_names_a_degenerate_angle_set(m_count):
    # one azimuth repeated: every row of the solve is the same row
    grid = hplane_grid(1.0)
    geom, _, _, c_true = _surrogate_pair(m_count, 0.3, grid)
    angles = np.full(minimum_angles(m_count), 0.3)
    with pytest.raises(ValueError, match="angle set is degenerate"):
        estimate_c_reduced(_samples_at(geom, c_true, angles), angles, geom)


def test_reduced_shape_checks():
    geom = ArrayGeometry(element_count=4, spacing=0.3,
                         element="ideal_dipole")
    with pytest.raises(ValueError):
        estimate_c_reduced(np.zeros((3, 4), dtype=complex),
                           default_reduced_angles(2), geom)


def test_column_symmetry_residual():
    sym = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert column_symmetry_residual(sym) == 0.0
    skew = np.array([[1.0, 0.2], [0.3, 1.0]])
    assert column_symmetry_residual(skew) > 0.0
    persym = np.array([[1.0, 0.5, 0.1],
                       [0.4, 2.0, 0.4],
                       [0.1, 0.5, 1.0]])
    assert column_symmetry_residual(persym) == 0.0


def test_pattern_measurement_validation():
    phi = np.array([-90.0, 0.0, 90.0])
    PatternMeasurement(phi_deg=phi, amplitude=np.ones(3),
                       phase_deg=np.zeros(3), antenna_index=0)
    with pytest.raises(ValueError):
        PatternMeasurement(phi_deg=phi, amplitude=np.ones(2),
                           phase_deg=np.zeros(3), antenna_index=0)
    with pytest.raises(ValueError):
        PatternMeasurement(phi_deg=phi, amplitude=np.array([1.0, -1.0, 1.0]),
                           phase_deg=np.zeros(3), antenna_index=0)


def _measurements_from(fields, phi_deg):
    rows = fields.theta_rows()
    out = []
    for m in range(fields.element_count):
        out.append(PatternMeasurement(
            phi_deg=phi_deg,
            amplitude=np.abs(rows[:, m]) ** 2,
            phase_deg=np.rad2deg(np.angle(rows[:, m])),
            antenna_index=m))
    return out


def test_fields_from_measurements_roundtrip():
    grid = hplane_grid(1.0)
    geom, es, ec, c_true = _surrogate_pair(4, 0.25, grid)
    phi_deg = np.rad2deg(grid.phi)
    es_back = fields_from_measurements(_measurements_from(es, phi_deg))
    assert_allclose(es_back.values, es.values, atol=1e-12)
    ec_back = fields_from_measurements(_measurements_from(ec, phi_deg))
    c_est = estimate_c_full(es_back, ec_back)
    assert_allclose(c_est.values, c_true.values, atol=1e-9)


def test_fields_from_measurements_field_amplitude_kind():
    grid = hplane_grid(1.0)
    geom, es, _, _ = _surrogate_pair(2, 0.25, grid)
    phi_deg = np.rad2deg(grid.phi)
    rows = es.theta_rows()
    meas = [PatternMeasurement(phi_deg=phi_deg,
                               amplitude=np.abs(rows[:, m]),
                               phase_deg=np.rad2deg(np.angle(rows[:, m])),
                               antenna_index=m)
            for m in range(2)]
    back = fields_from_measurements(meas, amplitude_kind="field")
    assert_allclose(back.values, es.values, atol=1e-12)
    with pytest.raises(ValueError):
        fields_from_measurements(meas, amplitude_kind="rms")


def test_fields_from_measurements_grid_consistency():
    phi = np.array([-60.0, 60.0, 180.0])
    other = np.array([-60.0, 70.0, 180.0])
    meas = [PatternMeasurement(phi_deg=phi, amplitude=np.ones(3),
                               phase_deg=np.zeros(3), antenna_index=0),
            PatternMeasurement(phi_deg=other, amplitude=np.ones(3),
                               phase_deg=np.zeros(3), antenna_index=1)]
    with pytest.raises(ValueError):
        fields_from_measurements(meas)
    with pytest.raises(ValueError):
        fields_from_measurements([])


def test_fields_from_measurements_needs_uniform_circle():
    def fields(phi):
        return fields_from_measurements([PatternMeasurement(
            phi_deg=phi, amplitude=np.ones(len(phi)),
            phase_deg=np.zeros(len(phi)))])

    phi = np.rad2deg(hplane_grid(1.0).phi)
    assert fields(phi).grid.size == 360
    assert fields(np.arange(0.0, 360.0)).grid.size == 360
    jitter = np.zeros(360)
    jitter[100] = 5e-10
    assert fields(phi + jitter).grid.size == 360
    for bad, message in (
            # a dropped row: 359 points cannot step by 1 deg around 360
            (np.delete(phi, 10), "360/359 = 1.0027855153203342 deg around "
             "the circle; the step after phi_deg = -170 is 2$"),
            (phi + 100.0 * jitter, "after phi_deg = -80 is 1.0000000499"),
            # a descending grid is named where it first falls, not at
            # the wrap step
            (phi[::-1], "after phi_deg = 180 is -1$"),
            (phi[:180], "360/180 = 2 deg .* after phi_deg = 0 is 181$"),
            (np.array([-90.0, 0.0, 90.0]), "after phi_deg = 90 is 180$")):
        with pytest.raises(ValueError, match=message):
            fields(bad)


def test_flagged_condition():
    c = CouplingMatrix(values=np.eye(2), condition=1e12)
    assert c.flagged
    c_ok = CouplingMatrix(values=np.eye(2), condition=5.0)
    assert not c_ok.flagged
