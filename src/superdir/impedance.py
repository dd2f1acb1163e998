"""Impedance coupling matrices.

The real normalized matrix Z is the Gram matrix of the element far-field
functions over the sphere (or over the H-plane cut only), scaled to a
unit diagonal.  ``self_power`` keeps the discarded self term, the mean
radiated power of a single element, so directivity can be restored to
absolute scale (1 for an isotropic element, 2/3 for an ideal dipole).

A complex symmetric (M, M) port-impedance array in ohms feeds the
terminated-port surrogate: half-wave dipole mutual impedances follow
the classical induced-EMF closed form in sine/cosine integrals, and
isotropic elements get a clearly-labeled synthetic network.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import K, gain_arrays, phase_argument
from .linalg import _allclose, condition_number, gated_solve

# Half-wave dipole self impedance in ohms, the standard textbook figure.
HALFWAVE_SELF_IMPEDANCE = 73.08 + 42.21j
FREE_SPACE_ETA = 376.730313668
EULER_GAMMA = 0.5772156649015329
# Si and Ci come from their power series up to this argument and from
# the continued fraction of E1(ix) above it.
SICI_SERIES_MAX = 4.0
# Ci(x) + i Si(x) = gamma + ln x + sum_{n>=1} (ix)^n / (n n!), and with
# t = x^2 that sum is t P(t) + i x Q(t).  The coefficients of P (real
# parts) and Q (imaginary parts), highest power first; 16 terms reach
# double precision at x = 4.
_SICI_SERIES = [complex((-1) ** (k + 1) / ((2 * k + 2) *
                                           math.factorial(2 * k + 2)),
                        (-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)))
                for k in range(15, -1, -1)]


@dataclass(frozen=True, eq=False)
class ImpedanceMatrix:
    """Real normalized impedance coupling matrix with unit diagonal.

    Immutable: ``values`` is a read-only copy of the matrix given, so
    cond(Z) and each solve are computed once and never go stale.
    """

    values: np.ndarray
    self_power: float = 1.0
    # The solves made so far, keyed on (rhs, tikhonov).
    _solves: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @cached_property
    def condition(self):
        """cond(Z), computed once per matrix."""
        return condition_number(self.values)

    def solve(self, rhs, tikhonov=None):
        """Z x = rhs through ``linalg.gated_solve`` (same gate, same
        Tikhonov rule), computed once per (rhs, tikhonov); the returned
        array is shared and read-only."""
        rhs = np.asarray(rhs)
        key = (rhs.shape, rhs.dtype.str, rhs.tobytes(), tikhonov)
        if key not in self._solves:
            x, _ = gated_solve(self.values, rhs, tikhonov=tikhonov,
                               context="impedance matrix",
                               condition=self.condition)
            x.setflags(write=False)
            self._solves[key] = x
        return self._solves[key]

    def validate(self):
        _validate(self.values[None])
        return self


def _validate(stack):
    """``ImpedanceMatrix.validate``'s checks over the whole (N, M, M)
    ``stack``, each on every matrix before the next: symmetric, unit
    diagonal, then positive semi-definite from one stacked ``eigvalsh``."""
    if not _allclose(stack, stack.swapaxes(-1, -2), 1e-12):
        raise ValueError("impedance matrix must be symmetric")
    if not _allclose(np.diagonal(stack, axis1=-2, axis2=-1), 1.0, 1e-12):
        raise ValueError("normalized impedance matrix needs a unit diagonal")
    if not (np.linalg.eigvalsh(stack).min(axis=-1) >= -1e-9).all():
        raise ValueError("impedance matrix is not positive semi-definite")


def _normalize(raw):
    """z_ij = raw_ij / sqrt(raw_ii raw_jj) of a real Gram matrix,
    symmetrized, with a unit diagonal.  A Gram matrix or a product
    raw_ii raw_jj that is not a finite normal double raises ValueError:
    z_ij would come out 0, infinite or short of digits."""
    power = np.diag(raw).copy()
    low, high = float(power.min()), float(power.max())
    if low <= 0.0:
        raise ValueError("non-positive self term in impedance computation")
    # every product p_i p_j lies between low^2 and high^2
    if not (np.isfinite(raw).all() and low * low >= np.finfo(float).tiny
            and high * high < math.inf):
        raise ValueError("impedance normalization leaves the double range: "
                         "self terms from %.3g to %.3g" % (low, high))
    z = raw / np.sqrt(np.outer(power, power))
    z = 0.5 * (z + z.T)
    np.fill_diagonal(z, 1.0)
    return z


def _toeplitz(col):
    """Symmetric Toeplitz matrix col[|i - j|]; a complex ``col`` is not
    conjugated, so the result is symmetric, not Hermitian."""
    index = np.arange(len(col))
    return col[np.abs(index[:, None] - index[None, :])]


def _lag_column(weight, phase, count, gather=slice(None)):
    """c_l = sum_p weight_p cos(l phase_p) for l = 0 .. count - 1.

    A uniform linear array's Gram matrix depends on m - n only, so these
    ``count`` lag sums fill it as a Toeplitz matrix.  One running complex
    product over the points gives every lag, where a (P, M) phase matrix
    and an M x M product would compute each lag M times over.  When
    ``phase`` holds one value per theta ring, ``gather`` gives each
    point's ring: the phasors are evaluated per ring and gathered.
    """
    step = np.exp(1j * phase)[gather]
    turn = np.ones_like(step)
    col = np.empty(count)
    for lag in range(count):
        col[lag] = weight @ turn.real
        turn *= step
    return col


def z_full_sweep(geom, grid, spacings, orientation="axial"):
    """Full-sphere quadrature of the normalized impedance matrix of
    ``geom``'s elements at each of ``spacings``, as a list.

    z_mn = (1/4pi) integral |g|^2 exp(j k r.(r_m - r_n)) dS, scaled so
    the diagonal is 1.  ``orientation`` selects whether element
    displacements run along the pattern's polar axis or in the
    theta = pi/2 plane (the measurement configuration).  Z keeps the
    integral's real (cosine) part, which depends on m - n only, so it is
    summed once per lag and filled in as a Toeplitz matrix.  The
    weighted power and the direction cosines are computed once for all
    spacings.  The axial cosine cos(theta) is one value per theta ring,
    so there each spacing's phasors are evaluated per ring and gathered
    to the points (``AngularGrid.row_points``).  The sweep is refused
    in check order: every spacing through ``ArrayGeometry`` before any Z
    is built, then each of ``ImpedanceMatrix.validate``'s checks over
    every Z, by one stacked ``eigvalsh``.  The condition numbers come
    from one stacked SVD.
    """
    if grid.kind != "full_sphere":
        raise ValueError("z_full requires a full-sphere grid")
    geoms = [replace(geom, spacing=float(d)) for d in spacings]
    g_theta = gain_arrays(geom.element, grid.theta, grid.phi)
    power = np.abs(g_theta) ** 2 * grid.weight / (4.0 * np.pi)
    theta, phi, gather = grid.row_points(orientation)
    u = phase_argument(theta, phi, orientation)
    m_count = geom.element_count
    cols = [_lag_column(power, K * at.spacing * u, m_count, gather)
            for at in geoms]
    stack = np.array([_normalize(_toeplitz(col)) for col in cols]).reshape(
        len(cols), m_count, m_count)
    _validate(stack)
    matrices = [ImpedanceMatrix(values=z, self_power=float(col[0]))
                for z, col in zip(stack, cols)]
    for z, cond in zip(matrices, condition_number(stack).tolist()):
        vars(z)["condition"] = cond  # where the cached_property keeps it
    return matrices


def z_full(geom, grid, orientation="axial"):
    """``z_full_sweep`` at ``geom``'s own spacing."""
    return z_full_sweep(geom, grid, [geom.spacing], orientation)[0]


def z_isotropic_closed(geom):
    """Closed-form oracle for isotropic elements: sinc(k d |m-n|)."""
    if geom.element != "isotropic":
        raise ValueError("closed form is only valid for isotropic elements")
    m = np.arange(geom.element_count)
    x = K * geom.spacing * np.abs(m[:, None] - m[None, :])
    z = np.sinc(x / np.pi)  # np.sinc(t) = sin(pi t)/(pi t)
    return ImpedanceMatrix(values=z, self_power=1.0).validate()


def z_hplane(geom, grid):
    """H-plane-only impedance matrix from the azimuthal cut.

    Evaluates (1/2pi) sum_phi w_phi exp(j k (m-n) d sin(phi)) with the
    array laid along the in-plane axis; equals J0(k d |m-n|) up to
    quadrature error.  Used to drive synthesis; not a full-sphere power
    normalization, so ``self_power`` stays 1.
    """
    if grid.kind != "h_plane":
        raise ValueError("z_hplane requires an H-plane grid")
    col = _lag_column(grid.weight / (2.0 * np.pi),
                      K * geom.spacing * np.sin(grid.phi), geom.element_count)
    return ImpedanceMatrix(values=_normalize(_toeplitz(col)), self_power=1.0)


def z_from_measurements(samples):
    """Impedance matrix from measured H-plane fields.

    ``samples`` is (P, M): each column one isolated element's complex
    field over a uniform phi grid, as
    ``coupling.fields_from_measurements(...).values`` gives it.
    z_ij = Re sum_phi conj(E_i) E_j / sqrt(p_i p_j), p_i the element's
    own power sum_phi |E_i|^2: the normalized correlation, so an element's
    gain leaves its row unchanged (the imaginary part cancels on
    symmetric phi grids).
    """
    e = np.asarray(samples, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # _normalize checks
        raw = np.real(e.conj().T @ e)
    return ImpedanceMatrix(values=_normalize(raw), self_power=1.0)


def sici(x):
    """Sine and cosine integrals (Si(x), Ci(x)) of x >= 0, elementwise.

    The power series for x <= ``SICI_SERIES_MAX``.  Above it, E1(ix) =
    -Ci(x) + i (Si(x) - pi/2) from its continued fraction (Numerical
    Recipes 6.9), evaluated backward from a depth of 170/x + 5 levels,
    which reaches double precision.  Each element's arithmetic depends
    on its own value only, never on the rest of the array.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    si = np.empty_like(flat)
    ci = np.empty_like(flat)
    series = flat <= SICI_SERIES_MAX
    small = flat[series]
    t = small * small
    p = np.zeros(len(t), dtype=complex)
    for coefficient in _SICI_SERIES:
        p = p * t + coefficient
    si[series] = small * p.imag
    ci[series] = EULER_GAMMA + np.log(small) + t * p.real
    rest = ~series
    if rest.any():
        # Sorted by ascending x, that is by descending depth, the elements
        # still inside their continued fraction at level n are a prefix.
        order = np.argsort(flat[rest])
        large = flat[rest][order]
        z = 1j * large
        depth = (170.0 / large).astype(int) + 5
        f = z + (2 * depth + 1)
        active = np.searchsorted(-depth, -np.arange(depth[0] + 1),
                                 side="right")
        for n in range(depth[0], 0, -1):
            k = active[n]
            f[:k] = z[:k] + (2 * n - 1) - n * n / f[:k]
        e1 = np.empty_like(f)
        e1[order] = np.exp(-z) / f
        si[rest] = 0.5 * np.pi + e1.imag
        ci[rest] = -e1.real
    return si.reshape(x.shape), ci.reshape(x.shape)


def mutual_impedance_emf(d):
    """Induced-EMF mutual impedance of parallel side-by-side dipoles.

    Classical closed form in sine/cosine integrals for two thin
    half-wave dipoles separated by d wavelengths, from one ``sici``
    call over the three arguments.
    """
    d = np.asarray(d, dtype=float)
    length = 0.5
    root = np.sqrt(d * d + length * length)
    # K (root - length) without the cancellation that rounds it to 0,
    # and Ci to -inf, below d ~ 1e-9.
    si, ci = sici(K * np.stack([d, root + length,
                                d * d / (root + length)]))
    scale = FREE_SPACE_ETA / (4.0 * np.pi)
    r = scale * (2.0 * ci[0] - ci[1] - ci[2])
    x = -scale * (2.0 * si[0] - si[1] - si[2])
    return r + 1j * x


def port_impedance_sweep(geom, spacings):
    """Complex symmetric (M, M) port network of ``geom``'s elements at
    each of ``spacings``, as a list.  Z_c depends on |i - j| only, so
    one lag column per spacing fills it, with the half-wave self
    impedance on the diagonal.

    Dipoles get the induced-EMF closed form, from one
    ``mutual_impedance_emf`` call over every (spacing, lag); it
    approaches the self value as the spacing goes to zero.  Isotropic
    elements get a synthetic network, not a physical model: the
    resistive part scales the isotropic pattern Gram sinc(k d |i - j|)
    to the half-wave self resistance and the reactance sits on the
    diagonal only.  It exists so coupling estimation runs on both
    element kinds.
    """
    spacings = np.asarray(spacings, dtype=float)
    lags = np.arange(1, geom.element_count)
    col = np.empty((len(spacings), geom.element_count), dtype=complex)
    if geom.element == "ideal_dipole":
        col[:, 1:] = mutual_impedance_emf(np.multiply.outer(spacings, lags))
    else:
        col[:, 1:] = HALFWAVE_SELF_IMPEDANCE.real * np.sinc(
            np.multiply.outer(K * spacings, lags) / np.pi)
    col[:, 0] = HALFWAVE_SELF_IMPEDANCE
    return [_toeplitz(c) for c in col]


def port_impedance_for(geom):
    """The port network of ``geom`` at its own spacing."""
    return port_impedance_sweep(geom, [geom.spacing])[0]
