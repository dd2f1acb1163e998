import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_legendre

from superdir.geometry import (ELEMENT_KINDS, AngularGrid, ArrayGeometry,
                               Direction, default_orientation, gain_arrays,
                               gauss_legendre, hplane_degrees, hplane_grid,
                               phase_argument, sphere_grid, steering_matrix,
                               steering_vector)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(element_count=0, spacing=0.3)
    with pytest.raises(ValueError):
        ArrayGeometry(element_count=2, spacing=-0.1)
    with pytest.raises(ValueError):
        ArrayGeometry(element_count=2, spacing=0.3, element="patch")
    # the smallest spacing is the one whose square is still a normal double
    floor = np.sqrt(np.finfo(float).tiny)
    ArrayGeometry(element_count=2, spacing=floor)
    for spacing in (np.nextafter(floor, 0.0), 1e-160, 5e-324):
        with pytest.raises(ValueError, match="below 1.4917e-154 wavelengths, "
                           "where its square underflows"):
            ArrayGeometry(element_count=2, spacing=spacing)


def test_direction_validation():
    Direction(theta=0.0, phi=0.0)
    Direction(theta=np.pi, phi=np.pi)
    with pytest.raises(ValueError):
        Direction(theta=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        Direction(theta=0.5, phi=-np.pi)


def test_gain_arrays_dipole():
    theta = np.array([0.0, 0.4, np.pi / 2, np.pi])
    g_theta = gain_arrays("ideal_dipole", theta, np.full(4, 0.3))
    assert_allclose(g_theta, np.sin(theta), atol=1e-15)
    assert_allclose(g_theta[[0, 3]], 0.0, atol=1e-15)


@pytest.mark.parametrize("element", ELEMENT_KINDS)
def test_element_gains_depend_on_theta_alone(element):
    # surrogate.isolated_fields evaluates one row per theta ring of an
    # axial grid and gathers it to the ring's points; an element kind
    # whose gain varies with phi must fail here before it takes that path
    theta = np.repeat(np.linspace(0.0, np.pi, 7), 9)
    phi = np.tile(np.linspace(-np.pi, np.pi, 9), 7)
    got = gain_arrays(element, theta, phi)
    want = gain_arrays(element, theta, np.zeros_like(phi))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_gain_arrays_isotropic():
    theta = np.linspace(0.0, np.pi, 7)
    assert_allclose(gain_arrays("isotropic", theta, np.zeros(7)), 1.0)


def test_phase_argument_conventions():
    theta = np.array([0.0, np.pi / 2, np.pi / 2])
    phi = np.array([0.0, np.pi / 2, 0.0])
    assert_allclose(phase_argument(theta, phi, "axial"),
                    np.cos(theta), atol=1e-15)
    assert_allclose(phase_argument(theta, phi, "in_plane"),
                    np.sin(theta) * np.sin(phi), atol=1e-15)
    with pytest.raises(ValueError):
        phase_argument(theta, phi, "diagonal")


def test_default_orientation():
    assert default_orientation("h_plane") == "in_plane"
    assert default_orientation("full_sphere") == "axial"


def test_steering_vector_quarter_wave_endfire():
    # d = 0.25 endfire: inter-element phase is exp(j*pi/2) = j
    geom = ArrayGeometry(element_count=2, spacing=0.25)
    e = steering_vector(geom, Direction(theta=0.0, phi=0.0))
    assert_allclose(e, [1.0, 1.0j], atol=1e-15)


def test_steering_vector_broadside_flat():
    geom = ArrayGeometry(element_count=5, spacing=0.4)
    e = steering_vector(geom, Direction(theta=np.pi / 2, phi=0.3))
    assert_allclose(e, np.ones(5), atol=1e-15)


def test_steering_matrix_matches_vector():
    geom = ArrayGeometry(element_count=3, spacing=0.3,
                         element="ideal_dipole")
    theta = np.array([0.2, 1.1, 2.4])
    phi = np.array([-0.5, 0.0, 2.0])
    a = steering_matrix(geom, theta, phi, "in_plane")
    assert a.shape == (3, 3)
    for i in range(3):
        row = steering_vector(geom, Direction(theta=theta[i], phi=phi[i]),
                              "in_plane")
        assert_allclose(a[i], row, atol=1e-14)


def test_sphere_grid_weights():
    grid = sphere_grid(16, 32)
    assert grid.kind == "full_sphere"
    assert_allclose(grid.weight.sum(), 4.0 * np.pi, rtol=1e-12)
    # Gauss-Legendre in cos(theta) integrates low-order polynomials exactly
    assert_allclose(np.sum(np.sin(grid.theta) ** 2 * grid.weight),
                    8.0 * np.pi / 3.0, rtol=1e-12)
    assert_allclose(np.sum(np.cos(grid.theta) ** 2 * grid.weight),
                    4.0 * np.pi / 3.0, rtol=1e-12)


def test_gauss_legendre_nodes_match_scipy():
    for n in range(2, 257):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.max(np.abs(x - roots_legendre(n)[0])) <= \
            np.finfo(float).eps, n


def test_gauss_legendre_weights_integrate_even_powers():
    # scipy's own weights are off by ~1e-12 at n = 64, so the oracle is
    # the integral itself: int_-1^1 x^2k dx = 2 / (2k + 1), exact for
    # 2k <= 2n - 1
    for n in (2, 3, 8, 31, 64, 65, 128, 256):
        x, w = gauss_legendre(n)
        for k in range(n):
            assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) <= 1e-14, (n, k)


def test_hplane_grid():
    grid = hplane_grid(1.0)
    assert grid.kind == "h_plane"
    assert grid.size == 360
    assert_allclose(grid.weight.sum(), 2.0 * np.pi, rtol=1e-12)
    assert_allclose(grid.theta, np.pi / 2)
    assert grid.phi[0] > -np.pi and grid.phi[-1] <= np.pi + 1e-12
    assert np.all(np.diff(grid.phi) > 0)
    assert np.array_equal(grid.phi, np.deg2rad(hplane_degrees(1.0)))
    degrees = hplane_degrees(5.0)
    assert len(degrees) == 72
    assert degrees[0] == -175.0 and degrees[-1] == 180.0
    for step in (0.7, 7.0, 0.0, -5.0, 720.0):
        with pytest.raises(ValueError):
            hplane_grid(step)


def test_grid_validation():
    n = 8
    with pytest.raises(ValueError):
        AngularGrid(theta=np.zeros(n), phi=np.zeros(n),
                    weight=np.ones(n), kind="full_sphere")
    with pytest.raises(ValueError):
        AngularGrid(theta=np.zeros(n), phi=np.zeros(n),
                    weight=np.full(n, 2.0 * np.pi / n), kind="h_plane")


def test_same_points():
    a = hplane_grid(1.0)
    b = hplane_grid(1.0)
    c = hplane_grid(2.0)
    assert a.same_points(b)
    assert not a.same_points(c)
    assert not a.same_points(sphere_grid(8, 16))


def test_grid_arrays_are_read_only_copies():
    theta = np.full(4, np.pi / 2)
    phi = np.deg2rad([-90.0, 0.0, 90.0, 180.0])
    weight = np.full(4, np.pi / 2)
    grid = AngularGrid(theta=theta, phi=phi, weight=weight, kind="h_plane")
    theta[0] = phi[0] = weight[0] = 0.0
    assert grid.theta[0] == np.pi / 2
    assert grid.phi[0] == -np.pi / 2 and grid.weight[0] == np.pi / 2
    for values in (grid.theta, grid.phi, grid.weight):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_rings_tell_theta_apart_by_bit_pattern():
    # out-of-order repeats, with -0.0 and 0.0 as two rings
    theta = np.array([0.5, 0.0, -0.0, 0.5, 1.0, 0.0, -0.0, 1.0, 0.5])
    grid = AngularGrid(theta=theta, phi=np.zeros(9),
                       weight=np.full(9, 4.0 * np.pi / 9), kind="full_sphere")
    first, index = grid.rings
    assert grid.rings is grid.rings  # computed once
    assert sorted(first.tolist()) == [0, 1, 2, 4]
    bits = grid.theta.view(np.int64)
    assert np.array_equal(bits[first][index], bits)
    assert len(set(bits[first].tolist())) == 4
    assert np.signbit(grid.theta[first]).sum() == 1
    for array in (first, index):
        assert not array.flags.writeable


@pytest.mark.parametrize("n_theta,n_phi", [(7, 3), (64, 128)])
def test_sphere_grid_has_one_ring_per_gauss_node(n_theta, n_phi):
    grid = sphere_grid(n_theta, n_phi)
    first, index = grid.rings
    assert len(first) == n_theta
    assert np.array_equal(np.bincount(index), np.full(n_theta, n_phi))
    assert np.array_equal(grid.theta[first][index], grid.theta)
