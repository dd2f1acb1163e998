"""Array geometry, element gains, steering vectors, and angular grids.

All lengths are expressed in wavelengths, so the wavenumber is k = 2*pi.
Uniform linear arrays sit on the z axis with the first element at the
origin.  Two phase conventions are supported when evaluating fields on a
grid: "axial" keeps the displacement along the pattern's polar axis
(phases go with cos(theta)), while "in_plane" rotates the array into the
theta = pi/2 plane (phases go with sin(theta)*sin(phi)), which is the
configuration used for H-plane measurements.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

K = 2.0 * np.pi

ELEMENT_KINDS = ("isotropic", "ideal_dipole")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of identical elements on the z axis."""

    element_count: int
    spacing: float
    element: str = "isotropic"

    def __post_init__(self):
        if self.element_count < 1:
            raise ValueError("element_count must be >= 1")
        if not self.spacing > 0.0:
            raise ValueError("spacing must be positive")
        # Below ~1.5e-154 d*d underflows and the EMF port network, which
        # needs d**2, loses its digits and then goes infinite.
        if self.spacing * self.spacing < np.finfo(float).tiny:
            raise ValueError("spacing %g is below %.5g wavelengths, where "
                             "its square underflows" %
                             (self.spacing, np.sqrt(np.finfo(float).tiny)))
        if self.element not in ELEMENT_KINDS:
            raise ValueError("unknown element kind %r" % (self.element,))


@dataclass(frozen=True)
class Direction:
    """Far-field direction in spherical coordinates (radians)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not -np.pi < self.phi <= np.pi + 1e-12:
            raise ValueError("phi must lie in (-pi, pi]")


@dataclass(frozen=True, eq=False)
class AngularGrid:
    """Sampling directions with quadrature weights.

    ``kind`` is "full_sphere" (weights sum to 4*pi) or "h_plane"
    (theta = pi/2 everywhere, weights sum to 2*pi).  Immutable: each
    array is a read-only float copy of the one given, so ``rings`` is
    computed once and never goes stale.  ``==`` is identity;
    ``same_points`` compares two grids' points.
    """

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    kind: str

    def __post_init__(self):
        for name in ("theta", "phi", "weight"):
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.kind not in ("full_sphere", "h_plane"):
            raise ValueError("unknown grid kind %r" % (self.kind,))
        if not (len(self.theta) == len(self.phi) == len(self.weight)):
            raise ValueError("grid arrays must share one length")
        if np.any(self.weight < 0.0):
            raise ValueError("grid weights must be non-negative")
        total = self.weight.sum()
        nominal = 4.0 * np.pi if self.kind == "full_sphere" else 2.0 * np.pi
        if abs(total - nominal) > 1e-9 * nominal:
            raise ValueError("grid weights sum to %g, expected %g" %
                             (total, nominal))
        if self.kind == "h_plane" and np.any(np.abs(self.theta - np.pi / 2) > 1e-12):
            raise ValueError("h_plane grid requires theta = pi/2 everywhere")

    @property
    def size(self):
        return len(self.theta)

    @cached_property
    def rings(self):
        """(first, index) of the grid's theta rings, computed once.

        A ring is the set of points that share one theta, told apart by
        bit pattern, so -0.0 and 0.0 are two rings.  ``first[r]`` is the
        first point of ring r and ``index[p]`` the ring of point p, so
        ``theta[first][index]`` is ``theta`` bit for bit.
        """
        _, first, index = np.unique(self.theta.view(np.int64),
                                    return_index=True, return_inverse=True)
        first.setflags(write=False)
        index.setflags(write=False)
        return first, index

    def row_points(self, orientation):
        """(theta, phi, gather): the points at which to evaluate a row of
        steering phases and element gains, and each grid point's row.

        The axial cosine cos(theta) and both element kinds' gains depend
        on theta alone, so an axial grid needs one row per theta ring;
        ``gather`` indexes them to the points.  An element whose gain
        varies with phi would break this.  In-plane rows are the points.
        """
        if orientation == "axial":
            first, index = self.rings
            return self.theta[first], self.phi[first], index
        return self.theta, self.phi, slice(None)

    def same_points(self, other):
        return (self.kind == other.kind and self.size == other.size and
                np.array_equal(self.theta, other.theta) and
                np.array_equal(self.phi, other.phi))


def gain_arrays(element, theta, phi):
    """Element gain g_theta over arrays of angles.

    Every element kind is z-directed and radiates E_theta only: ideal
    dipoles sin(theta), isotropic elements 1.
    """
    theta = np.asarray(theta, dtype=float)
    if element == "isotropic":
        return np.ones_like(theta)
    if element == "ideal_dipole":
        return np.sin(theta)
    raise ValueError("unknown element kind %r" % (element,))


def phase_argument(theta, phi, orientation):
    """Direction cosine multiplying k*(m-1)*d in the steering phase."""
    if orientation == "axial":
        return np.cos(theta)
    if orientation == "in_plane":
        return np.sin(theta) * np.sin(phi)
    raise ValueError("unknown orientation %r" % (orientation,))


def default_orientation(grid_kind):
    """H-plane work uses the in-plane (measurement) configuration."""
    return "in_plane" if grid_kind == "h_plane" else "axial"


def steering_vector(geom, direction, orientation="axial"):
    """Steering vector e with e[m] = g(theta, phi) * exp(j*k*(m-1)*d*u)."""
    u = phase_argument(direction.theta, direction.phi, orientation)
    g_theta = gain_arrays(geom.element, direction.theta, direction.phi)
    m = np.arange(geom.element_count)
    return g_theta * np.exp(1j * K * geom.spacing * m * u)


def steering_matrix(geom, theta, phi, orientation):
    """Design matrix (P, M) of theta-polarized fields over angle arrays."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    u = phase_argument(theta, phi, orientation)
    g_theta = gain_arrays(geom.element, theta, phi)
    m = np.arange(geom.element_count)
    return g_theta[:, None] * np.exp(1j * K * geom.spacing * u[:, None] * m[None, :])


def _legendre(n, x):
    """P_n(x) and P_n'(x) from the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        t = x * p1
        p0, p1 = p1, t + (k - 1) / k * (t - p0)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(n):
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    Newton's method on P_n from the guesses cos(pi (i - 1/4) / (n + 1/2)),
    until no step exceeds 1e-15 (the steps do not shrink below the
    nodes' own rounding, so a tighter stop may never be met), then
    w = 2 / ((1 - x^2) P_n'(x)^2).
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def sphere_grid(n_theta, n_phi):
    """Full-sphere grid: Gauss-Legendre in cos(theta) x trapezoid in phi.

    The sin(theta) Jacobian is folded into the Gauss-Legendre measure, so
    the weights sum to 4*pi exactly up to round-off.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("sphere_grid requires n_theta >= 2 and n_phi >= 2")
    u, w = gauss_legendre(n_theta)
    theta = np.arccos(u)
    phi = -np.pi + 2.0 * np.pi * np.arange(n_phi) / n_phi
    th = np.repeat(theta, n_phi)
    ph = np.tile(phi, n_theta)
    wt = np.repeat(w, n_phi) * (2.0 * np.pi / n_phi)
    return AngularGrid(theta=th, phi=ph, weight=wt, kind="full_sphere")


def hplane_degrees(step_deg):
    """H-plane cut azimuths in degrees, ascending from -180 exclusive to
    180 inclusive; ``step_deg`` must be positive and divide 360."""
    if not step_deg > 0.0:
        raise ValueError("step_deg must be positive, got %g" % (step_deg,))
    n = 360.0 / step_deg
    if abs(n - round(n)) > 1e-9:
        raise ValueError("step_deg must divide 360 evenly, got %g" % (step_deg,))
    n = int(round(n))
    return -180.0 + step_deg * np.arange(1, n + 1)


def hplane_grid(step_deg):
    """H-plane cut: phi ascending from -180 exclusive to 180 inclusive."""
    phi = np.deg2rad(hplane_degrees(step_deg))
    n = len(phi)
    theta = np.full(n, np.pi / 2)
    weight = np.full(n, 2.0 * np.pi / n)
    return AngularGrid(theta=theta, phi=phi, weight=weight, kind="h_plane")
