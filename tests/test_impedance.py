import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import j0

from superdir.geometry import ArrayGeometry, hplane_grid, sphere_grid
from superdir import impedance
from superdir.impedance import (HALFWAVE_SELF_IMPEDANCE, ImpedanceMatrix,
                                mutual_impedance_emf, port_impedance_emf,
                                port_impedance_for, port_impedance_synthetic,
                                z_from_measurements, z_full, z_hplane,
                                z_hplane_closed, z_isotropic_closed)


def test_isotropic_closed_form():
    geom = ArrayGeometry(element_count=3, spacing=0.25)
    z = z_isotropic_closed(geom)
    # sin(2 pi d)/(2 pi d) at d = 0.25 is 2/pi
    assert_allclose(z.values[0, 1], 0.6366197723675814, rtol=1e-14)
    assert_allclose(np.diag(z.values), 1.0)
    assert_allclose(z.values, z.values.T)
    assert z.self_power == 1.0


def test_halfwave_spacing_decouples():
    geom = ArrayGeometry(element_count=5, spacing=0.5)
    z = z_isotropic_closed(geom)
    assert_allclose(z.values, np.eye(5), atol=1e-15)


def test_quadrature_matches_closed_form():
    grid = sphere_grid(64, 128)
    for d in (0.1, 0.25, 0.4):
        geom = ArrayGeometry(element_count=4, spacing=d)
        z_quad = z_full(geom, grid)
        z_ref = z_isotropic_closed(geom)
        assert_allclose(z_quad.values, z_ref.values, atol=1e-12)
        assert_allclose(z_quad.self_power, 1.0, rtol=1e-12)


def test_dipole_self_power():
    geom = ArrayGeometry(element_count=2, spacing=0.3,
                         element="ideal_dipole")
    z = z_full(geom, sphere_grid(64, 128))
    # (1/4pi) integral of sin^2(theta) over the sphere
    assert_allclose(z.self_power, 2.0 / 3.0, rtol=1e-12)
    assert_allclose(np.diag(z.values), 1.0)


def test_dipole_inplane_overlap_weighting():
    # in-plane phasing under the sin^2 pattern reduces to the
    # sin^3-weighted Bessel average over elevation
    d = 0.3
    geom = ArrayGeometry(element_count=2, spacing=d,
                         element="ideal_dipole")
    z = z_full(geom, sphere_grid(96, 192), "in_plane")
    theta = np.linspace(0.0, np.pi, 20001)
    kern = np.sin(theta) ** 3 * j0(2.0 * np.pi * d * np.sin(theta))
    ref = 0.75 * np.trapezoid(kern, theta)
    assert_allclose(z.values[0, 1], ref, atol=1e-9)


def test_hplane_closed_form_is_bessel():
    geom = ArrayGeometry(element_count=2, spacing=0.25)
    z = z_hplane_closed(geom)
    assert_allclose(z.values[0, 1], 0.4720012157682347, rtol=1e-13)
    assert_allclose(z.values[0, 1], j0(np.pi / 2), rtol=1e-13)


def test_hplane_quadrature_matches_bessel():
    grid = hplane_grid(1.0)
    for d in (0.1, 0.3, 0.5):
        geom = ArrayGeometry(element_count=4, spacing=d)
        assert_allclose(z_hplane(geom, grid).values,
                        z_hplane_closed(geom).values, atol=1e-12)


def test_large_spacing_decorrelates():
    geom = ArrayGeometry(element_count=2, spacing=5.0)
    assert abs(z_isotropic_closed(geom).values[0, 1]) < 0.12


def test_validate_accepts_physical_matrix():
    geom = ArrayGeometry(element_count=6, spacing=0.15)
    z = z_isotropic_closed(geom)
    z.validate()
    bad = ImpedanceMatrix(values=np.array([[1.0, 2.0], [2.0, 1.0]]),
                          self_power=1.0)
    with pytest.raises(ValueError):
        bad.validate()


def test_emf_mutual_against_tabulated():
    # half-wave dipoles, side by side: classic tabulated curve
    z = mutual_impedance_emf(0.5)
    assert_allclose(z.real, -12.52340745248797, rtol=1e-12)
    assert_allclose(z.imag, -29.90793593466153, rtol=1e-12)
    z1 = mutual_impedance_emf(1.0)
    assert_allclose(z1.real, 4.008855692516059, rtol=1e-12)
    assert z1.real > 0 > z.real


def test_emf_close_spacing_approaches_self():
    z = mutual_impedance_emf(1e-3)
    gap = abs(z - HALFWAVE_SELF_IMPEDANCE) / abs(HALFWAVE_SELF_IMPEDANCE)
    assert gap < 0.01


def test_port_impedance_emf_structure():
    geom = ArrayGeometry(element_count=3, spacing=0.4,
                         element="ideal_dipole")
    zc = port_impedance_emf(geom)
    assert_allclose(np.diag(zc.values), HALFWAVE_SELF_IMPEDANCE)
    assert_allclose(zc.values, zc.values.T)
    assert_allclose(zc.values[0, 1], mutual_impedance_emf(0.4))
    assert zc.self_impedance == HALFWAVE_SELF_IMPEDANCE
    single = port_impedance_emf(ArrayGeometry(element_count=1, spacing=0.4,
                                              element="ideal_dipole"))
    assert_allclose(single.values, [[HALFWAVE_SELF_IMPEDANCE]])
    with pytest.raises(ValueError):
        port_impedance_emf(ArrayGeometry(element_count=3, spacing=0.4))


def test_port_impedance_emf_is_symmetric_toeplitz():
    geom = ArrayGeometry(element_count=5, spacing=0.13,
                         element="ideal_dipole")
    zc = port_impedance_emf(geom).values
    # symmetric, not Hermitian: the reactances are not conjugated
    assert np.array_equal(zc, zc.T)
    assert not np.allclose(zc, zc.conj().T)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert zc[i, j] == mutual_impedance_emf(0.13 * abs(i - j))


def test_port_impedance_synthetic_structure():
    geom = ArrayGeometry(element_count=3, spacing=0.25)
    zc = port_impedance_synthetic(geom)
    assert_allclose(np.diag(zc.values), HALFWAVE_SELF_IMPEDANCE)
    assert_allclose(zc.values[0, 1],
                    HALFWAVE_SELF_IMPEDANCE.real * 0.6366197723675814,
                    rtol=1e-12)
    with pytest.raises(ValueError):
        port_impedance_synthetic(ArrayGeometry(element_count=3, spacing=0.25,
                                               element="ideal_dipole"))


def test_port_impedance_dispatch():
    iso = ArrayGeometry(element_count=2, spacing=0.3)
    dip = ArrayGeometry(element_count=2, spacing=0.3,
                        element="ideal_dipole")
    assert_allclose(port_impedance_for(iso).values,
                    port_impedance_synthetic(iso).values)
    assert_allclose(port_impedance_for(dip).values,
                    port_impedance_emf(dip).values)


def test_z_from_measurements_recovers_hplane():
    # synthetic single-port patterns of an isotropic pair share one
    # power envelope; phase differences carry the impedance integrand
    grid = hplane_grid(1.0)
    geom = ArrayGeometry(element_count=3, spacing=0.3)
    psi = 2.0 * np.pi * 0.3 * np.sin(grid.phi)
    amplitude = np.ones(grid.size)
    phases = [m * psi for m in range(3)]
    z = z_from_measurements(amplitude, phases)
    assert_allclose(z.values, z_hplane_closed(geom).values, atol=1e-12)
    assert_allclose(np.diag(z.values), 1.0)


def test_z_from_measurements_rejects_negative_power():
    amplitude = np.array([1.0, -0.5, 1.0])
    phases = [np.zeros(3), np.zeros(3)]
    with pytest.raises(ValueError):
        z_from_measurements(amplitude, phases)
