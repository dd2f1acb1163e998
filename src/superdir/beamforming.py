"""Excitation synthesis and evaluation.

Three synthesis methods: MRT conjugates the steering vector, the
traditional method whitens it through the impedance matrix, and the
proposed method additionally pre-inverts the field coupling matrix so
the effective radiating currents land exactly on the traditional
optimum.  Directivity is the Rayleigh quotient |a^T e|^2 / (a^T Z a*)
restored to absolute scale by the element self power; gain adds a
normalized loss resistance to the denominator.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import gated_solve

DELTA_F_FLOOR_DB = -300.0


@dataclass
class PatternMetrics:
    """Beamwidth and sidelobe metrics of one cut pattern."""

    beamwidth_3db_deg: float
    psll_db: float


class PowerError(ValueError):
    """An excitation's power a^T Z a* came out non-positive: Z is not
    positive definite, as when its quadrature grid is too coarse."""


def _quadratic_form(a, z):
    """Real quadratic form a^T Z a* for real symmetric Z."""
    s = np.conj(a)
    return float(np.real(np.vdot(s, z @ s)))


def mrt_vector(e):
    """Maximum ratio transmission: conjugate of the steering vector."""
    e = np.asarray(e, dtype=complex)
    norm = np.linalg.norm(e)
    if norm == 0.0:
        raise ValueError("steering vector is zero")
    return np.conj(e) / norm


def traditional_vector(z, e, tikhonov=None):
    """Impedance-aware optimum a = Z^-1 e*, unit-normalized."""
    x = z.solve(np.conj(np.asarray(e, dtype=complex)), tikhonov)
    return x / np.linalg.norm(x)


def proposed_vector(c, z, e, tikhonov=None):
    """Double-coupling synthesis b = C^-1 Z^-1 e*, unit-normalized."""
    x = z.solve(np.conj(np.asarray(e, dtype=complex)), tikhonov)
    b, _ = gated_solve(c, x, tikhonov=tikhonov,
                       context="coupling matrix")
    return b / np.linalg.norm(b)


def synthesize(method, z, e, c, tikhonov=None):
    """Unit-norm excitation ``a`` of one method and the effective currents
    w = C a it radiates, for the coupling matrix ``c`` as an (M, M) array.

    ``theoretical`` is the traditional excitation on the uncoupled array
    (C = I) that the bound e^H Z^-1 e describes, so its ``w`` is ``a``.
    """
    if method == "mrt":
        a = mrt_vector(e)
    elif method in ("traditional", "theoretical"):
        a = traditional_vector(z, e, tikhonov=tikhonov)
    elif method == "proposed":
        a = proposed_vector(c, z, e, tikhonov=tikhonov)
    else:
        raise ValueError("unknown synthesis method %r" % (method,))
    return a, (a if method == "theoretical" else c @ a)


def directivity(w, e, z, r_loss=0.0):
    """Rayleigh-quotient directivity of the effective currents w = C b
    toward e; a normalized loss resistance ``r_loss`` adds the ohmic
    loss r_loss |w|^2 to the radiated power and gives the gain."""
    if r_loss < 0.0:
        raise ValueError("loss resistance must be non-negative")
    e = np.asarray(e, dtype=complex)
    denom = (_quadratic_form(w, z.values) +
             r_loss * float(np.real(np.vdot(w, w)))) * z.self_power
    if denom <= 0.0:
        raise PowerError("non-positive radiated power; invalid impedance matrix")
    return float(np.abs(np.dot(w, e)) ** 2 / denom)


def max_directivity(z, e, tikhonov=None):
    """Upper bound e^H Z^-1 e over all excitations."""
    e = np.asarray(e, dtype=complex)
    # Z is real, so Z^-1 e = conj(Z^-1 e*): the solve the syntheses make
    x = np.conj(z.solve(np.conj(e), tikhonov))
    return float(np.real(np.vdot(e, x)) / z.self_power)


def loss_resistance(eta):
    """Normalized loss resistance (1 - eta)/eta of each element."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("radiation efficiency must lie in (0, 1]")
    return (1.0 - eta) / eta


def power_decomposition(z, e, r_loss):
    """Radiated and dissipated power of the ideal excitation Z^-1 e*.

    Eigendecomposition Z = U L U^T gives w = U^H e, P_rad = sum
    |w_i|^2 / l_i and P_loss = r_loss sum |w_i|^2 / l_i^2; small
    eigenvalues of a superdirective Z blow the loss term up first.
    """
    zv = z.values
    if not np.allclose(zv, zv.T, atol=1e-12):
        raise ValueError("power decomposition requires a symmetric matrix")
    lam, u = np.linalg.eigh(zv)
    if lam.min() <= 0.0:
        raise ValueError("impedance matrix must be positive definite here")
    w = u.conj().T @ np.asarray(e, dtype=complex)
    p_rad = float(np.sum(np.abs(w) ** 2 / lam))
    p_loss = float(r_loss * np.sum(np.abs(w) ** 2 / lam ** 2))
    return p_rad, p_loss


def delta_f_from_patterns(f_theory, f_actual):
    """Mean squared pattern deviation in dB after unit-peak scaling.

    Accepts per-point complex fields of shape (L,) or (L, 2) (two
    polarizations).  Both patterns are normalized to unit peak
    magnitude before differencing; identical patterns hit the floor.
    """
    f_theory = np.atleast_2d(np.asarray(f_theory, dtype=complex).T).T
    f_actual = np.atleast_2d(np.asarray(f_actual, dtype=complex).T).T
    if f_theory.shape != f_actual.shape or f_theory.shape[0] < 1:
        raise ValueError("patterns must share a non-empty shape")
    mag_th = np.sqrt(np.sum(np.abs(f_theory) ** 2, axis=1))
    mag_ac = np.sqrt(np.sum(np.abs(f_actual) ** 2, axis=1))
    peak_th = mag_th.max()
    peak_ac = mag_ac.max()
    if peak_th == 0.0 or peak_ac == 0.0:
        raise ValueError("cannot normalize an all-zero pattern")
    diff = f_theory / peak_th - f_actual / peak_ac
    mean_sq = float(np.mean(np.sum(np.abs(diff) ** 2, axis=1)))
    if mean_sq <= 10.0 ** (DELTA_F_FLOOR_DB / 10.0):
        return DELTA_F_FLOOR_DB
    return float(10.0 * np.log10(mean_sq))


def _circular_distance_deg(a, b):
    return abs((a - b + 180.0) % 360.0 - 180.0)


def _walk(power, start, direction, half, step):
    """Walk the cut from sample ``start`` one step at a time in
    ``direction`` (+1 or -1), wrapping around the circle: the index of the
    first local minimum and the angular offset of the first drop below
    ``half``, interpolated linearly on power; None for either one the
    walk never reaches."""
    n = len(power)
    minimum = offset_half = None
    i = start
    offset = 0.0
    for _ in range(n - 1):
        j = (i + direction) % n
        if minimum is None and power[j] > power[i]:
            minimum = i
        if offset_half is None and power[j] < half:
            frac = (power[i] - half) / (power[i] - power[j])
            offset_half = offset + frac * step
        if minimum is not None and offset_half is not None:
            break
        offset += step
        i = j
    return minimum, offset_half


def pattern_metrics(power, angles_deg, steer_deg):
    """3-dB beamwidth and peak sidelobe level of a full-circle cut.

    ``power`` holds linear power samples over ``angles_deg`` (ascending,
    covering the circle).  The main lobe is the contiguous region around
    the steer angle bounded by the first local minima; the -3 dB
    crossings are located by linear interpolation on power.  Patterns
    without a crossing report a 360-degree beamwidth, and patterns
    without two minima a NaN sidelobe level.
    """
    power = np.asarray(power, dtype=float)
    angles_deg = np.asarray(angles_deg, dtype=float)
    n = len(power)
    if n < 4 or len(angles_deg) != n:
        raise ValueError("need matching power and angle arrays over the circle")
    span = _circular_distance_deg(angles_deg[-1] + (angles_deg[1] - angles_deg[0]),
                                  angles_deg[0])
    if span > 1e-6:
        raise ValueError("pattern cut must cover the full circle")
    peak_idx = int(np.argmin(_circular_distance_deg(angles_deg, steer_deg)))
    peak = power[peak_idx]
    if peak <= 0.0:
        raise ValueError("steer direction has zero power; no main lobe")

    # the walks compare Python floats, cheaper than numpy scalars
    values = power.tolist()
    half = 0.5 * float(peak)
    step = float(angles_deg[1] - angles_deg[0])
    right_min, right_half = _walk(values, peak_idx, +1, half, step)
    left_min, left_half = _walk(values, peak_idx, -1, half, step)
    if right_half is None or left_half is None:
        beamwidth = 360.0
    else:
        beamwidth = right_half + left_half
    psll = float("nan")  # fewer than two local minima: no sidelobes
    if None not in (right_min, left_min) and right_min != left_min:
        # the main lobe runs right from left_min through the peak to
        # right_min, across the +-180 degree seam when left_min > right_min;
        # it never fills the circle: its ends would be neighbours, each
        # strictly below the other
        lobe = np.arange(left_min, left_min + (right_min - left_min) % n + 1)
        highest = np.delete(power, lobe % n).max()
        psll = (DELTA_F_FLOOR_DB if highest <= 0.0 else
                min(float(10.0 * np.log10(highest / peak)), 0.0))
    return PatternMetrics(beamwidth_3db_deg=beamwidth, psll_db=psll)


def eig_crosscheck(z, e):
    """Relative gap between the dominant eigenvalue of Z^-1 e e^H and
    the closed form e^H Z^-1 e, via 20 steps of power iteration (rank-1
    operator) from a seeded random start.
    """
    e = np.asarray(e, dtype=complex)
    t = z.solve(e)
    oracle = float(np.real(np.vdot(e, t)))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(len(e)) + 1j * rng.standard_normal(len(e))
    lam = 0.0
    for _ in range(20):
        y = t * np.vdot(e, x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            x = rng.standard_normal(len(e)) + 1j * rng.standard_normal(len(e))
            continue
        x = y / norm
        lam = float(np.real(np.vdot(x, t * np.vdot(e, x))))
    return abs(lam - oracle) / abs(oracle)
