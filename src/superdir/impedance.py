"""Impedance coupling matrices.

The real normalized matrix Z is the Gram matrix of the element far-field
functions over the sphere (or over the H-plane cut only), scaled to a
unit diagonal.  ``self_power`` keeps the discarded self term, the mean
radiated power of a single element, so directivity can be restored to
absolute scale (1 for an isotropic element, 2/3 for an ideal dipole).

A complex port-impedance variant feeds the terminated-port surrogate:
half-wave dipole mutual impedances follow the classical induced-EMF
closed form in sine/cosine integrals, and isotropic elements get a
clearly-labeled synthetic network.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import j0, sici

from .geometry import K, gain_arrays, phase_argument
from .linalg import condition_number, gated_solve

# Half-wave dipole self impedance in ohms, the standard textbook figure.
HALFWAVE_SELF_IMPEDANCE = 73.08 + 42.21j
FREE_SPACE_ETA = 376.730313668


@dataclass
class ImpedanceMatrix:
    """Real normalized impedance coupling matrix with unit diagonal."""

    values: np.ndarray
    self_power: float = 1.0
    # cond(Z) and the solves made so far.  The memo also keeps a copy of
    # ``values`` under "matrix"; a change to the matrix, in place or by
    # assignment, empties it.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def size(self):
        return self.values.shape[0]

    def _remembered(self, key, compute):
        z = self.values
        matrix = (z.shape, z.dtype.str, z.tobytes())
        if self._memo.get("matrix") != matrix:
            self._memo = {"matrix": matrix}
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def condition(self):
        """cond(Z), computed once per matrix."""
        return self._remembered("condition",
                                lambda: condition_number(self.values))

    def solve(self, rhs, tikhonov=None):
        """Z x = rhs through ``linalg.gated_solve`` (same gate, same
        Tikhonov rule), computed once per (rhs, tikhonov); the returned
        array is shared and read-only."""
        rhs = np.asarray(rhs)

        def compute():
            x, _ = gated_solve(self.values, rhs, tikhonov=tikhonov,
                               context="impedance matrix",
                               condition=self.condition)
            x.setflags(write=False)
            return x

        key = ("solve", rhs.shape, rhs.dtype.str, rhs.tobytes(), tikhonov)
        return self._remembered(key, compute)

    def validate(self, psd_tol=1e-9):
        z = self.values
        if not np.allclose(z, z.T, atol=1e-12):
            raise ValueError("impedance matrix must be symmetric")
        if not np.allclose(np.diag(z), 1.0, atol=1e-12):
            raise ValueError("normalized impedance matrix needs a unit diagonal")
        if np.linalg.eigvalsh(z).min() < -psd_tol:
            raise ValueError("impedance matrix is not positive semi-definite")
        return self


@dataclass
class PortImpedanceMatrix:
    """Complex symmetric port network in ohms for the surrogate."""

    values: np.ndarray
    self_impedance: complex

    @property
    def size(self):
        return self.values.shape[0]


def _normalize(raw):
    """Scale a raw Gram matrix to unit diagonal; returns (z, self_term)."""
    self_term = float(np.real(raw[0, 0]))
    if self_term <= 0.0:
        raise ValueError("non-positive self term in impedance computation")
    z = np.real(raw) / self_term
    z = 0.5 * (z + z.T)
    np.fill_diagonal(z, 1.0)
    return z, self_term


def _lag_column(weight, phase, count):
    """c_l = sum_p weight_p cos(l phase_p) for l = 0 .. count - 1.

    A uniform linear array's Gram matrix depends on m - n only, so these
    ``count`` lag sums fill it as a Toeplitz matrix.  One running complex
    product over the points gives every lag, where a (P, M) phase matrix
    and an M x M product would compute each lag M times over.
    """
    step = np.exp(1j * phase)
    turn = np.ones_like(step)
    col = np.empty(count)
    for lag in range(count):
        col[lag] = weight @ turn.real
        turn *= step
    return col


def z_full(geom, grid, orientation="axial"):
    """Full-sphere quadrature of the normalized impedance matrix.

    z_mn = (1/4pi) integral |g|^2 exp(j k r.(r_m - r_n)) dS, scaled so
    the diagonal is 1.  ``orientation`` selects whether element
    displacements run along the pattern's polar axis or in the
    theta = pi/2 plane (the measurement configuration).  Z keeps the
    integral's real (cosine) part, which depends on m - n only, so it is
    summed once per lag and filled in by ``toeplitz``.
    """
    if grid.kind != "full_sphere":
        raise ValueError("z_full requires a full-sphere grid")
    g_theta, g_phi = gain_arrays(geom.element, grid.theta, grid.phi)
    power = (np.abs(g_theta) ** 2 + np.abs(g_phi) ** 2) * grid.weight
    u = phase_argument(grid.theta, grid.phi, orientation)
    col = _lag_column(power / (4.0 * np.pi), K * geom.spacing * u,
                      geom.element_count)
    z, self_term = _normalize(toeplitz(col))
    return ImpedanceMatrix(values=z, self_power=self_term).validate()


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
    z, _ = _normalize(toeplitz(col))
    return ImpedanceMatrix(values=z, self_power=1.0)


def z_hplane_closed(geom):
    """Bessel oracle for the H-plane matrix: J0(k d |m-n|)."""
    m = np.arange(geom.element_count)
    x = K * geom.spacing * np.abs(m[:, None] - m[None, :])
    return ImpedanceMatrix(values=j0(x), self_power=1.0)


def z_from_measurements(amplitude, phases):
    """Impedance matrix from measured H-plane patterns.

    ``amplitude`` is the common power pattern of the isolated element
    over the phi grid; ``phases`` is a list of per-element phase
    patterns in radians.  Accumulates z_ij = sum_phi amplitude(phi)
    exp(j Psi_i) exp(-j Psi_j), Hermitian by construction, then
    normalizes the diagonal and keeps the real part (the imaginary part
    cancels on symmetric phi grids).
    """
    amplitude = np.asarray(amplitude, dtype=float)
    if np.any(amplitude < 0.0):
        raise ValueError("power samples must be non-negative")
    phases = [np.asarray(p, dtype=float) for p in phases]
    n = len(amplitude)
    for p in phases:
        if len(p) != n:
            raise ValueError("phase patterns must share the amplitude grid")
    e = np.exp(1j * np.stack(phases, axis=1))  # (P, M)
    raw = (e * amplitude[:, None]).conj().T @ e
    raw = raw.T
    raw = 0.5 * (raw + raw.conj().T)
    diag = np.diag(raw)
    if np.any(np.abs(diag.imag) > 1e-10 * np.abs(diag.real)):
        raise ValueError("diagonal of measured impedance is not real")
    z, _ = _normalize(raw)
    return ImpedanceMatrix(values=z, self_power=1.0)


def mutual_impedance_emf(d, half_length=0.25):
    """Induced-EMF mutual impedance of parallel side-by-side dipoles.

    Classical closed form in sine/cosine integrals for two thin
    half-wave dipoles separated by d wavelengths.  ``half_length`` is
    the dipole half length in wavelengths (0.25 for half-wave).
    """
    length = 2.0 * half_length
    u0 = K * d
    root = np.sqrt(d * d + length * length)
    u1 = K * (root + length)
    u2 = K * (root - length)
    si0, ci0 = sici(u0)
    si1, ci1 = sici(u1)
    si2, ci2 = sici(u2)
    scale = FREE_SPACE_ETA / (4.0 * np.pi)
    r = scale * (2.0 * ci0 - ci1 - ci2)
    x = -scale * (2.0 * si0 - si1 - si2)
    return r + 1j * x


def port_impedance_emf(geom):
    """Complex port network of a half-wave dipole array.

    Diagonal pinned to the textbook self impedance; off-diagonal terms
    from the induced-EMF closed form, which approaches the self value as
    the spacing goes to zero.
    """
    if geom.element != "ideal_dipole":
        raise ValueError("induced-EMF network requires ideal_dipole elements")
    if abs(geom.dipole_length - 0.5) > 1e-12:
        raise ValueError("induced-EMF network requires dipole_length = 0.5")
    # Z_c depends only on |i - j|: one vectorized call for the M - 1 lags.
    # toeplitz(col) alone would conjugate the row into a Hermitian matrix.
    col = np.empty(geom.element_count, dtype=complex)
    col[0] = HALFWAVE_SELF_IMPEDANCE
    col[1:] = mutual_impedance_emf(geom.spacing * np.arange(1, len(col)),
                                   half_length=geom.dipole_length / 2.0)
    zc = toeplitz(col, col)
    return PortImpedanceMatrix(values=zc, self_impedance=HALFWAVE_SELF_IMPEDANCE)


def port_impedance_synthetic(geom):
    """Synthetic port network for isotropic elements.

    Not a physical model: the resistive part scales the isotropic
    pattern Gram to the half-wave self resistance and the reactance sits
    on the diagonal only.  It exists so coupling-estimation tests run on
    both element kinds.
    """
    if geom.element != "isotropic":
        raise ValueError("synthetic network is defined for isotropic elements")
    base = z_isotropic_closed(geom).values
    zc = HALFWAVE_SELF_IMPEDANCE.real * base + \
        1j * HALFWAVE_SELF_IMPEDANCE.imag * np.eye(geom.element_count)
    return PortImpedanceMatrix(values=zc, self_impedance=HALFWAVE_SELF_IMPEDANCE)


def port_impedance_for(geom):
    """Dispatch to the dipole EMF network or the synthetic isotropic one."""
    if geom.element == "ideal_dipole":
        return port_impedance_emf(geom)
    return port_impedance_synthetic(geom)
