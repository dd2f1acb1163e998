import dataclasses

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose
from scipy.linalg import toeplitz
from scipy.special import j0

from superdir.geometry import (K, ArrayGeometry, gain_arrays, hplane_grid,
                               phase_argument, sphere_grid)
from superdir import impedance, linalg
from superdir.impedance import (HALFWAVE_SELF_IMPEDANCE, ImpedanceMatrix,
                                mutual_impedance_emf, port_impedance_emf,
                                port_impedance_for, port_impedance_sweep,
                                port_impedance_synthetic, sici,
                                z_from_measurements, z_full, z_hplane,
                                z_isotropic_closed)


def z_hplane_closed(geom):
    """Bessel oracle for the H-plane matrix: J0(k d |m-n|)."""
    m = np.arange(geom.element_count)
    x = K * geom.spacing * np.abs(m[:, None] - m[None, :])
    return ImpedanceMatrix(values=j0(x), self_power=1.0)


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


def _gram_gemm(u, weight, geom):
    """Z from the whole P x M phase matrix and an M x M product, every
    entry summed on its own: the reference for the lag-sum kernel."""
    m = np.arange(geom.element_count)
    phase = np.exp(1j * K * geom.spacing * u[:, None] * m[None, :])
    raw = ((phase * weight[:, None]).conj().T @ phase).T
    self_term = raw[0, 0].real
    z = np.real(raw) / self_term
    z = 0.5 * (z + z.T)
    np.fill_diagonal(z, 1.0)
    return z, self_term


SPACINGS = np.linspace(0.05, 0.5, 50)
CASES = (("isotropic", "axial"), ("ideal_dipole", "axial"),
         ("ideal_dipole", "in_plane"))


@pytest.mark.parametrize("n_theta,n_phi", [(32, 64), (64, 128)])
def test_z_full_matches_gemm_reference(n_theta, n_phi):
    grid = sphere_grid(n_theta, n_phi)
    for element, orientation in CASES:
        g_theta, _ = gain_arrays(element, grid.theta, grid.phi)
        weight = g_theta ** 2 * grid.weight / (4.0 * np.pi)
        u = phase_argument(grid.theta, grid.phi, orientation)
        for m_count in (4, 8, 16):
            for d in SPACINGS:
                geom = ArrayGeometry(m_count, float(d), element)
                z = z_full(geom, grid, orientation)
                ref, self_term = _gram_gemm(u, weight, geom)
                assert_allclose(z.values, ref, rtol=0, atol=1e-13)
                assert_allclose(z.self_power, self_term, rtol=1e-14)


def test_z_hplane_matches_gemm_reference():
    grid = hplane_grid(1.0)
    for m_count in (4, 8, 16):
        for d in SPACINGS:
            geom = ArrayGeometry(m_count, float(d))
            ref, _ = _gram_gemm(np.sin(grid.phi), grid.weight / (2.0 * np.pi),
                                geom)
            assert_allclose(z_hplane(geom, grid).values, ref, rtol=0,
                            atol=1e-13)


def test_z_is_exactly_symmetric_toeplitz_with_unit_diagonal():
    grid = sphere_grid(32, 64)
    for element, orientation in CASES:
        for d in (0.05, 0.23, 0.5):
            geom = ArrayGeometry(9, d, element)
            for z in (z_full(geom, grid, orientation).values,
                      z_hplane(geom, hplane_grid(2.0)).values):
                assert np.array_equal(z, toeplitz(z[:, 0]))
                assert np.array_equal(z, z.T)
                assert np.all(np.diag(z) == 1.0)


def _closed_form(element, orientation, geom):
    """Exact sphere integrals of the three element/orientation pairs,
    x = k d |m - n|: sinc x; in-plane dipole 3/2 (sin x/x + cos x/x^2 -
    sin x/x^3); axial dipole 3 (sin x/x^3 - cos x/x^2)."""
    m = np.arange(geom.element_count)
    x = K * geom.spacing * np.abs(m[:, None] - m[None, :])
    s = np.where(x > 0.0, x, 1.0)
    if element == "isotropic":
        z = np.sin(s) / s
    elif orientation == "in_plane":
        z = 1.5 * (np.sin(s) / s + np.cos(s) / s ** 2 - np.sin(s) / s ** 3)
    else:
        z = 3.0 * (np.sin(s) / s ** 3 - np.cos(s) / s ** 2)
    return np.where(x > 0.0, z, 1.0)


def test_z_full_matches_closed_forms():
    grid = sphere_grid(64, 128)
    for element, orientation in CASES:
        for d in SPACINGS:
            geom = ArrayGeometry(16, float(d), element)
            assert_allclose(z_full(geom, grid, orientation).values,
                            _closed_form(element, orientation, geom),
                            rtol=0, atol=1e-13)


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


def test_impedance_matrix_memo_follows_values():
    z = z_full(ArrayGeometry(4, 0.2), sphere_grid(32, 64))
    e = np.exp(1j * np.arange(4.0))
    x = z.solve(e)
    assert z.solve(e) is x
    with pytest.raises(ValueError):  # the shared solve
        x[0] = 0.0
    assert z.condition == np.linalg.cond(z.values)
    assert np.array_equal(x, np.linalg.solve(z.values, e))
    with pytest.raises(ValueError):  # in place
        z.values[0, 1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):  # by assignment
        z.values = np.eye(4)
    raw = np.eye(4)
    copied = ImpedanceMatrix(values=raw)
    raw[0, 1] = 0.5  # the caller's array is not shared
    assert copied.values[0, 1] == 0.0 and copied.condition == 1.0
    singular = ImpedanceMatrix(values=np.ones((4, 4)))  # the gate applies
    with pytest.raises(linalg.ConditionGateError):
        singular.solve(e)
    for eps in (1.0, 2.0):
        assert np.array_equal(
            singular.solve(e, tikhonov=eps),
            np.linalg.solve(np.ones((4, 4)) + eps * np.eye(4), e))


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


def test_sici_matches_scipy():
    # both branches (series up to 4, continued fraction above) and the
    # switch between them
    x = np.logspace(-9, 3, 20001)
    si, ci = sici(x)
    ref_si, ref_ci = scipy.special.sici(x)
    assert np.max(np.abs(si - ref_si)) <= 3e-15
    assert np.max(np.abs(ci - ref_ci)) <= 3e-15


def test_sici_is_elementwise():
    # an element's value never depends on the rest of the array: the
    # continued fraction's depth and order follow each element's own x
    x = np.logspace(-9, 3, 2001)
    si, ci = sici(x)
    for i in range(0, len(x), 7):
        one_si, one_ci = sici(x[i:i + 1])
        assert one_si[0] == si[i] and one_ci[0] == ci[i]
    grid = sici(x.reshape(23, 87))
    assert np.array_equal(grid[0].ravel(), si)
    assert np.array_equal(grid[1].ravel(), ci)


def test_emf_network_finite_at_tiny_spacing():
    # sqrt(d^2 + L^2) - L rounds to 0 below d ~ 1e-9; the network must not
    # turn into Ci(0) = -inf
    for d in np.logspace(-12, np.log10(0.5), 60):
        zc = port_impedance_emf(ArrayGeometry(element_count=4, spacing=d,
                                              element="ideal_dipole"))
        assert np.all(np.isfinite(zc)), d
    assert np.all(np.isfinite(mutual_impedance_emf([1e-10, 1e-9])))
    # at the smallest spacing a geometry takes (d*d the smallest normal
    # double) the network is still the d -> 0 limit; below it d*d
    # underflowed and R went wrong in the 5th digit, then infinite
    limit = [port_impedance_emf(ArrayGeometry(element_count=4, spacing=d,
                                              element="ideal_dipole"))
             for d in (np.sqrt(np.finfo(float).tiny), 1e-100)]
    assert_allclose(limit[0], limit[1], rtol=1e-12)


def test_port_impedance_sweep_matches_one_network_at_a_time():
    spacings = np.linspace(0.05, 0.5, 7)
    for element in ("ideal_dipole", "isotropic"):
        geom = ArrayGeometry(element_count=5, spacing=0.1, element=element)
        networks = port_impedance_sweep(geom, spacings)
        assert len(networks) == len(spacings)
        for d, zc in zip(spacings, networks):
            single = port_impedance_for(dataclasses.replace(geom, spacing=d))
            assert np.array_equal(zc, single)


def test_port_impedance_emf_structure():
    geom = ArrayGeometry(element_count=3, spacing=0.4,
                         element="ideal_dipole")
    zc = port_impedance_emf(geom)
    assert zc.shape == (3, 3) and zc.dtype == complex
    assert np.array_equal(np.diag(zc), np.full(3, HALFWAVE_SELF_IMPEDANCE))
    assert_allclose(zc, zc.T)
    assert_allclose(zc[0, 1], mutual_impedance_emf(0.4))
    single = port_impedance_emf(ArrayGeometry(element_count=1, spacing=0.4,
                                              element="ideal_dipole"))
    assert_allclose(single, [[HALFWAVE_SELF_IMPEDANCE]])
    with pytest.raises(ValueError):
        port_impedance_emf(ArrayGeometry(element_count=3, spacing=0.4))


def test_port_impedance_emf_is_symmetric_toeplitz():
    geom = ArrayGeometry(element_count=5, spacing=0.13,
                         element="ideal_dipole")
    zc = port_impedance_emf(geom)
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
    assert np.array_equal(np.diag(zc), np.full(3, HALFWAVE_SELF_IMPEDANCE))
    assert_allclose(zc[0, 1],
                    HALFWAVE_SELF_IMPEDANCE.real * 0.6366197723675814,
                    rtol=1e-12)
    with pytest.raises(ValueError):
        port_impedance_synthetic(ArrayGeometry(element_count=3, spacing=0.25,
                                               element="ideal_dipole"))


def test_port_impedance_dispatch():
    iso = ArrayGeometry(element_count=2, spacing=0.3)
    dip = ArrayGeometry(element_count=2, spacing=0.3,
                        element="ideal_dipole")
    assert np.array_equal(port_impedance_for(iso),
                          port_impedance_synthetic(iso))
    assert np.array_equal(port_impedance_for(dip), port_impedance_emf(dip))


def test_z_from_measurements_recovers_hplane():
    # synthetic single-port patterns of an isotropic triple share one
    # power envelope; phase differences carry the impedance integrand
    grid = hplane_grid(1.0)
    geom = ArrayGeometry(element_count=3, spacing=0.3)
    psi = 2.0 * np.pi * 0.3 * np.sin(grid.phi)
    z = z_from_measurements(np.exp(1j * np.outer(psi, np.arange(3))))
    assert_allclose(z.values, z_hplane_closed(geom).values, atol=1e-12)
    assert_allclose(np.diag(z.values), 1.0)


def test_z_from_measurements_ignores_element_gain():
    # z_ij is the normalized correlation: a gain on one element (2 here)
    # must leave Z as it is, where dividing by element 0's self term
    # doubles that element's off-diagonal entries
    grid = hplane_grid(1.0)
    psi = 2.0 * np.pi * 0.3 * np.sin(grid.phi)
    e1 = np.ones(grid.size, dtype=complex)
    same = z_from_measurements(np.column_stack([e1, e1 * np.exp(1j * psi)]))
    gained = z_from_measurements(
        np.column_stack([e1, 2.0 * e1 * np.exp(1j * psi)]))
    assert_allclose(gained.values, same.values, atol=1e-15)
    assert_allclose(same.values[0, 1], z_hplane_closed(
        ArrayGeometry(element_count=2, spacing=0.3)).values[0, 1], atol=1e-12)
    # co-phased elements that differ only in gain are fully correlated,
    # and Z stays positive semi-definite
    scaled = z_from_measurements(np.column_stack([e1, 2.0 * e1])).validate()
    assert_allclose(scaled.values, np.ones((2, 2)), atol=1e-15)
    with pytest.raises(ValueError, match="non-positive self term"):
        z_from_measurements(np.column_stack([e1, 0.0 * e1]))

