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

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, sici

from .geometry import K, gain_arrays, phase_argument

# Half-wave dipole self impedance in ohms, the standard textbook figure.
HALFWAVE_SELF_IMPEDANCE = 73.08 + 42.21j
FREE_SPACE_ETA = 376.730313668


@dataclass
class ImpedanceMatrix:
    """Real normalized impedance coupling matrix with unit diagonal."""

    values: np.ndarray
    self_power: float = 1.0

    @property
    def size(self):
        return self.values.shape[0]

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


def z_full(geom, grid, orientation="axial"):
    """Full-sphere quadrature of the normalized impedance matrix.

    z_mn = (1/4pi) integral |g|^2 exp(j k r.(r_m - r_n)) dS, scaled so
    the diagonal is 1.  ``orientation`` selects whether element
    displacements run along the pattern's polar axis or in the
    theta = pi/2 plane (the measurement configuration).
    """
    if grid.kind != "full_sphere":
        raise ValueError("z_full requires a full-sphere grid")
    m_count = geom.element_count
    g_theta, g_phi = gain_arrays(geom.element, grid.theta, grid.phi)
    power = (np.abs(g_theta) ** 2 + np.abs(g_phi) ** 2) * grid.weight
    u = phase_argument(grid.theta, grid.phi, orientation)
    m = np.arange(m_count)
    phase = np.exp(1j * K * geom.spacing * u[:, None] * m[None, :])
    raw = (phase * power[:, None]).conj().T @ phase / (4.0 * np.pi)
    raw = raw.T  # raw[m, n] accumulates e^{+j k u m} e^{-j k u n}
    z, self_term = _normalize(raw)
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
    m = np.arange(geom.element_count)
    u = np.sin(grid.phi)
    phase = np.exp(1j * K * geom.spacing * u[:, None] * m[None, :])
    raw = (phase * grid.weight[:, None]).conj().T @ phase / (2.0 * np.pi)
    raw = raw.T
    z, _ = _normalize(raw)
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
    m_count = geom.element_count
    zc = np.full((m_count, m_count), HALFWAVE_SELF_IMPEDANCE, dtype=complex)
    for i in range(m_count):
        for j in range(m_count):
            if i != j:
                zc[i, j] = mutual_impedance_emf(geom.spacing * abs(i - j),
                                                half_length=geom.dipole_length / 2.0)
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
