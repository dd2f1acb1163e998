import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir import cli, fileio, impedance, surrogate
from superdir.geometry import (K, ArrayGeometry, Direction, gain_arrays,
                               hplane_grid, sphere_grid, steering_vector)
from superdir.impedance import (HALFWAVE_SELF_IMPEDANCE, port_impedance_for,
                                port_impedance_sweep)
from superdir.coupling import FieldMatrix
from superdir.linalg import (ConditionGateError, condition_number,
                             gated_solve, singular_ratio)
from superdir.surrogate import (TerminationSpec, couple, coupled_fields,
                                coupling_truth, coupling_truth_sweep,
                                isolated_fields)

NEGATIVE_ZERO_CELL = re.compile(r"(^|,)-0(,|$)", re.MULTILINE)


def test_termination_load():
    # the default conjugate-matches the self impedance on both networks'
    # diagonal
    assert TerminationSpec().load == np.conj(HALFWAVE_SELF_IMPEDANCE)
    assert TerminationSpec(load=50.0 + 0j).load == 50.0 + 0j
    with pytest.raises(ValueError):
        TerminationSpec(load=-1.0 + 0j)


@pytest.mark.parametrize("element", ["isotropic", "ideal_dipole"])
@pytest.mark.parametrize("m_count", [2, 8, 32])
@pytest.mark.parametrize("spacing", [1e-4, 1e-3, 0.01, 0.1, 0.5])
def test_terminated_port_network_stays_far_from_the_gate(element, m_count,
                                                         spacing):
    # cond(Z_c + Z_L) peaks near 37 over M <= 32 and d in [1e-4, 0.5], so
    # the 1e12 gate in coupling_truth cannot trip and --regularize has no
    # port-network solve to reach
    zc = port_impedance_for(ArrayGeometry(m_count, spacing, element))
    loaded = zc + TerminationSpec().load * np.eye(m_count)
    assert np.linalg.cond(loaded) < 1e3


def _coupling_truth_one(zc, term=TerminationSpec()):
    """(C, cond(C)) of one port network as ``coupling_truth`` computed
    them before the sweep: a gated solve, the mean of the diagonal and an
    SVD of C, each on its own."""
    a = zc + term.load * np.eye(len(zc))
    currents, _ = gated_solve(a, np.eye(len(zc), dtype=complex),
                              context="terminated port network")
    scale = np.mean(np.diag(currents))
    if scale == 0.0:
        raise ValueError("degenerate port network: zero mean diagonal current")
    c = currents / scale
    return c, condition_number(c)


SWEEP_SPACINGS = np.linspace(0.05, 0.5, 50)


@pytest.mark.parametrize("element", ["isotropic", "ideal_dipole"])
@pytest.mark.parametrize("m_count", [1, 2, 8, 16])
def test_coupling_truth_sweep_matches_one_network_at_a_time(element,
                                                            m_count):
    networks = port_impedance_sweep(ArrayGeometry(m_count, 0.1, element),
                                    SWEEP_SPACINGS)
    swept = coupling_truth_sweep(networks)
    assert len(swept) == len(SWEEP_SPACINGS)
    for zc, truth in zip(networks, swept):
        c, cond = _coupling_truth_one(zc)
        for got in (truth, coupling_truth(zc)):
            assert np.array_equal(got.values.view(np.int64),
                                  c.view(np.int64))
            assert (np.float64(got.condition).view(np.int64) ==
                    np.float64(cond).view(np.int64))
            assert type(got.condition) is float


def _first_error(networks):
    """(type, message) of the first error that solving ``networks`` one
    at a time raises, or None."""
    for zc in networks:
        try:
            _coupling_truth_one(zc)
        except (ValueError, ConditionGateError) as exc:
            return type(exc), str(exc)
    return None


LOAD = TerminationSpec().load
# Port networks of an even size whose Z_c + Z_L I is the matrix named:
# one whose entries are not finite, a rank-one matrix past the gate, and
# blocks [[0, 1], [1, 0]] on the diagonal, their own inverse, whose
# diagonal currents are zero.
BAD_NETWORKS = {
    "non-finite": lambda m: np.full((m, m), np.nan + 0j),
    "gated": lambda m: np.ones((m, m)) - LOAD * np.eye(m),
    "zero-current": lambda m: np.kron(np.eye(m // 2), [[0, 1], [1, 0]])
    - LOAD * np.eye(m),
}


@pytest.mark.parametrize("later", [None] + sorted(BAD_NETWORKS))
@pytest.mark.parametrize("first", sorted(BAD_NETWORKS))
def test_coupling_truth_sweep_raises_for_the_first_failing_network(first,
                                                                   later):
    # what a loop of one-network solves raises first, the gate's order
    # (entries, then the gate) and the zero-current check included
    m_count = 4
    networks = port_impedance_sweep(ArrayGeometry(m_count, 0.1),
                                    SWEEP_SPACINGS)
    networks[17] = BAD_NETWORKS[first](m_count)
    if later is not None:
        networks[31] = BAD_NETWORKS[later](m_count)
    expected = _first_error(networks)
    assert expected is not None and expected[0] is (
        ConditionGateError if first == "gated" else ValueError)
    with pytest.raises(expected[0]) as raised:
        coupling_truth_sweep(networks)
    assert str(raised.value) == expected[1]
    with pytest.raises(expected[0]) as alone:
        coupling_truth(networks[17])
    assert str(alone.value) == expected[1]


@pytest.mark.parametrize("bad, code, message", [
    ("gated", 2, "terminated port network has condition number"),
    ("non-finite", 1, "array must not contain infs or NaNs")])
def test_sweep_exit_code_of_a_failing_port_network(tmp_path, capsys,
                                                   monkeypatch, bad, code,
                                                   message):
    # a network past the gate exits 2 and one with a NaN exits 1, with
    # --regularize or without: the port-network solve takes no Tikhonov
    def broken(geom, spacings):
        networks = port_impedance_sweep(geom, spacings)
        networks[2] = BAD_NETWORKS[bad](geom.element_count)
        return networks

    monkeypatch.setattr(impedance, "port_impedance_sweep", broken)
    config = tmp_path / "config.json"
    fileio.write_json(str(config), {
        "geometry": {"elements": 4, "spacing_wl": 0.3,
                     "element": "ideal_dipole", "steer_theta_deg": 90.0,
                     "steer_phi_deg": 90.0},
        "sweep": {"d_min": 0.1, "d_max": 0.5, "steps": 5},
        "grid": {"n_theta": 16, "n_phi": 32}})
    for flags in ([], ["--regularize", "1e-12"]):
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(config), "--out",
                         str(tmp_path / "x.csv")] + flags) == code
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_isolated_fields_shape_and_rows():
    geom = ArrayGeometry(element_count=3, spacing=0.3)
    grid = hplane_grid(2.0)
    fields = isolated_fields(geom, grid)
    assert fields.values.shape == (grid.size, 3)
    assert fields.element_count == 3
    assert_allclose(np.abs(fields.values), 1.0)


def test_isolated_fields_phase_progression():
    geom = ArrayGeometry(element_count=2, spacing=0.25)
    grid = hplane_grid(90.0)
    fields = isolated_fields(geom, grid)
    rows = fields.values
    # at phi = 90 deg the second element leads by a quarter wavelength
    idx = int(np.argmin(np.abs(grid.phi - np.pi / 2)))
    assert_allclose(rows[idx, 1] / rows[idx, 0], 1.0j, atol=1e-12)


def test_coupled_fields_factorization():
    geom = ArrayGeometry(element_count=4, spacing=0.2,
                         element="ideal_dipole")
    grid = sphere_grid(32, 64)
    es = isolated_fields(geom, grid)
    ec, c = coupled_fields(geom, grid, port_impedance_for(geom),
                           TerminationSpec())
    assert_allclose(ec.values, es.values @ c.values, atol=1e-12)
    # normalization pins the mean self term of C to one
    assert_allclose(np.mean(np.diag(c.values)), 1.0, atol=1e-12)
    assert np.isfinite(c.condition)


def test_coupling_truth_is_the_c_of_coupled_fields():
    geom = ArrayGeometry(element_count=6, spacing=0.15,
                         element="ideal_dipole")
    zc = port_impedance_for(geom)
    term = TerminationSpec(load=HALFWAVE_SELF_IMPEDANCE)  # self match
    _, c = coupled_fields(geom, hplane_grid(5.0), zc, term)
    truth = coupling_truth(zc, term)
    assert np.array_equal(truth.values, c.values)
    assert truth.condition == c.condition
    assert not np.array_equal(coupling_truth(zc).values, c.values)


def test_coupling_strength_grows_as_spacing_shrinks():
    grid = sphere_grid(32, 64)
    ratios = []
    for d in (0.5, 0.1):
        geom = ArrayGeometry(element_count=2, spacing=d,
                             element="ideal_dipole")
        _, c = coupled_fields(geom, grid, port_impedance_for(geom),
                              TerminationSpec())
        ratios.append(abs(c.values[1, 0] / c.values[0, 0]))
    assert_allclose(ratios[0], 0.22183956473903654, rtol=1e-9)
    assert_allclose(ratios[1], 0.46324127448082747, rtol=1e-9)
    assert ratios[1] > ratios[0]


def test_coupled_fields_identity_at_weak_coupling():
    # a nearly diagonal port network leaves the patterns untouched
    geom = ArrayGeometry(element_count=3, spacing=7.25)
    grid = hplane_grid(5.0)
    _, c = coupled_fields(geom, grid, port_impedance_for(geom),
                          TerminationSpec())
    assert np.max(np.abs(c.values - np.eye(3))) < 0.02


def test_singular_ratio_full_rank():
    geom = ArrayGeometry(element_count=4, spacing=0.3)
    fields = isolated_fields(geom, sphere_grid(32, 64))
    assert singular_ratio(fields.values) > 1e-6


def test_field_matrix_validation():
    # one row per grid point; 8 is the two rows per point of an
    # (E_theta, E_phi) layout
    grid = hplane_grid(90.0)
    assert FieldMatrix(values=np.zeros((4, 2), dtype=complex),
                       grid=grid).element_count == 2
    for rows in (0, 3, 5, 8):
        with pytest.raises(ValueError, match="one row per grid point"):
            FieldMatrix(values=np.zeros((rows, 2), dtype=complex), grid=grid)


def _isolated_fields_per_point(geom, grid):
    """E_s with every point's axial row computed on its own."""
    g_theta = gain_arrays(geom.element, grid.theta, grid.phi)
    u = np.cos(grid.theta)
    m = np.arange(geom.element_count)
    return g_theta[:, None] * np.exp(
        1j * K * geom.spacing * u[:, None] * m[None, :])


@pytest.mark.parametrize("n_theta,n_phi", [(64, 128), (128, 256), (7, 3)])
@pytest.mark.parametrize("element", ["isotropic", "ideal_dipole"])
def test_axial_fields_are_bit_identical_to_per_point_rows(n_theta, n_phi,
                                                          element):
    grid = sphere_grid(n_theta, n_phi)
    for m_count in (1, 2, 8, 16):
        for d in (0.05, 0.3):
            geom = ArrayGeometry(m_count, d, element)
            got = isolated_fields(geom, grid).values
            want = _isolated_fields_per_point(geom, grid)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_steering_rows_are_built_once_per_theta_ring(monkeypatch):
    rows = []
    original = surrogate.steering_matrix

    def spy(geom, theta, phi, orientation):
        rows.append((orientation, len(theta)))
        return original(geom, theta, phi, orientation)

    monkeypatch.setattr(surrogate, "steering_matrix", spy)
    geom = ArrayGeometry(4, 0.1, "ideal_dipole")
    isolated_fields(geom, sphere_grid(64, 128))
    assert rows == [("axial", 64)]
    rows.clear()
    # the in-plane cut keeps one row per point
    isolated_fields(geom, hplane_grid(1.0))
    assert rows == [("in_plane", 360)]


def test_couple_keeps_the_theta_rows_of_the_product():
    geom = ArrayGeometry(8, 0.1, "ideal_dipole")
    grid = sphere_grid(16, 32)
    es = isolated_fields(geom, grid)
    c = coupling_truth(port_impedance_for(geom)).values
    ec = couple(es, c)
    product = es.values @ c
    assert np.array_equal(ec.values.view(np.int64), product.view(np.int64))
    assert ec.grid is grid


@pytest.mark.parametrize("grid,params", [
    (hplane_grid(3.0), {"kind": "h_plane", "step_deg": 3.0}),
    (sphere_grid(8, 16), {"kind": "full_sphere", "n_theta": 8, "n_phi": 16})],
    ids=["h_plane", "full_sphere"])
def test_no_field_dump_prints_negative_zero(tmp_path, grid, params):
    # no cell prints -0; a product 0 * C gave -0 in E_phi cells for
    # M = 2 and 3 while a field matrix still held E_phi rows
    for m_count in range(1, 9):
        geom = ArrayGeometry(m_count, 0.3, "ideal_dipole")
        ec, _ = coupled_fields(geom, grid, port_impedance_for(geom))
        for name, fields in (("es", isolated_fields(geom, grid)),
                             ("ec", ec)):
            directory = tmp_path / ("%s_%d" % (name, m_count))
            fileio.write_field_dump(str(directory), fields, geom, params)
            for port in range(1, m_count + 1):
                text = (directory / ("port_%d.csv" % port)).read_text()
                assert not NEGATIVE_ZERO_CELL.search(text), (name, m_count,
                                                              port)
