"""Field coupling matrix estimation.

C maps intended excitations to effective radiating currents.  It is
recovered from sampled fields three ways: full-grid least squares
(C = pinv(E_s) E_c, solved without forming the pseudoinverse), a
reduced-angle solve exploiting the column-reversal symmetry of uniform
linear arrays, and the measurement ingestion path that converts
H-plane amplitude/phase patterns into complex fields first.
``FieldMatrix``, the sampled-field container, lives here rather than in
the surrogate, which itself imports this module.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import AngularGrid, steering_matrix
from .linalg import condition_number, lstsq_cutoff

RANK_GATE = 1e-6
CONDITION_FLAG = 1e10


@dataclass(eq=False)
class FieldMatrix:
    """Sampled far fields: the E_theta samples, one row per grid point
    and one column per element.  Every element kind is z-directed and
    radiates no E_phi."""

    values: np.ndarray
    grid: object

    def __post_init__(self):
        if self.values.shape[0] != self.grid.size:
            raise ValueError("field matrix needs one row per grid point")

    @property
    def element_count(self):
        return self.values.shape[1]

    def theta_rows(self):
        """``values``, under the name ``perfbench/workloads.py`` calls."""
        return self.values


@dataclass(eq=False)
class CouplingMatrix:
    """Complex field coupling matrix with estimation metadata, among it
    the singular ratio of the matrix an estimate was solved against."""

    values: np.ndarray
    condition: float = float("nan")
    residual: float = 0.0
    singular_ratio: float = float("nan")

    @property
    def flagged(self):
        """True when the condition number crosses the reporting threshold."""
        return bool(self.condition > CONDITION_FLAG)


@dataclass(eq=False)
class PatternMeasurement:
    """One antenna's H-plane pattern: amplitude and phase over phi."""

    phi_deg: np.ndarray
    amplitude: np.ndarray
    phase_deg: np.ndarray
    antenna_index: int = 0

    def __post_init__(self):
        self.phi_deg = np.asarray(self.phi_deg, dtype=float)
        self.amplitude = np.asarray(self.amplitude, dtype=float)
        self.phase_deg = np.asarray(self.phase_deg, dtype=float)
        if not (len(self.phi_deg) == len(self.amplitude) == len(self.phase_deg)):
            raise ValueError("measurement columns must share one length")
        if np.any(self.amplitude < 0.0):
            raise ValueError("measurement amplitude must be non-negative")


def estimate_c_full(es, ec):
    """Least-squares estimate of C from full sampled fields, by an
    orthogonal factorization with singular-value cutoff."""
    if not es.grid.same_points(ec.grid):
        raise ValueError("isolated and coupled fields use different grids")
    if es.values.shape != ec.values.shape:
        raise ValueError("field matrices must have matching shapes")
    c, ratio = lstsq_cutoff(es.values, ec.values)
    if ratio <= RANK_GATE:
        raise ValueError(
            "isolated field matrix is rank deficient "
            "(singular value ratio %.3e)" % (ratio,))
    return _estimate(c, es.values, ec.values, ratio)


def _estimate(c, design, samples, ratio):
    """``c`` as a CouplingMatrix, with its condition number, the
    relative residual ||design c - samples|| / ||samples|| and the
    singular ratio ``ratio`` of the solve.  A ``c`` whose condition
    number is not finite (a coupled field that is zero) raises
    ValueError: it cannot be written as JSON."""
    condition = condition_number(c)
    if not np.isfinite(condition):
        raise ValueError("estimated coupling matrix is singular (condition "
                         "number %g); is a coupled field zero?" %
                         (condition,))
    res = np.linalg.norm(design @ c - samples)
    denom = np.linalg.norm(samples)
    residual = float(res / denom) if denom > 0.0 else float(res)
    return CouplingMatrix(values=c, condition=condition,
                          residual=residual, singular_ratio=ratio)


def default_reduced_angles(p):
    """P azimuth angles equally spaced over (0, 90] degrees, in radians.

    Avoids phi = 0 and 180, whose sin(phi) phases collide.  The set
    always holds 90 degrees, whose in-plane phase exp(jkd) is its own
    conjugate at d = 0.5, so there ``estimate_c_reduced`` refuses an
    even M at P = M/2 and needs one more angle.
    """
    if p < 1:
        raise ValueError("need at least one angle")
    return np.deg2rad(90.0 * np.arange(1, p + 1) / p)


def minimum_angles(m_count):
    """Angle count required by the reduced solve: ceil(M/2)."""
    return (m_count + 1) // 2


def estimate_c_reduced(ec_samples, angles_phi, geom):
    """Recover C from H-plane samples at a handful of azimuth angles.

    ``ec_samples`` is (P, M): the coupled field of each single-port
    excitation at P angles on the theta = pi/2 cut.  The column-reversal
    symmetry ties column m to column M-1-m, so each pair of columns
    shares M unknowns fed by 2P equations and P >= ceil(M/2) suffices;
    an odd array's middle column is its own mirror.
    """
    ec_samples = np.asarray(ec_samples, dtype=complex)
    angles_phi = np.asarray(angles_phi, dtype=float)
    m_count = geom.element_count
    p = len(angles_phi)
    if ec_samples.shape != (p, m_count):
        raise ValueError("expected one row of samples per angle")
    need = minimum_angles(m_count)
    if p < need:
        raise ValueError(
            "insufficient angles: %d given, %d required for M=%d" %
            (p, need, m_count))
    theta = np.full(p, np.pi / 2)
    a = steering_matrix(geom, theta, angles_phi, "in_plane")
    # Column m and its mirror M-1-m stack into one right-hand side; one
    # solve takes every pair, and the mirror is the reversed column.  An
    # odd array's middle column is its own mirror, so its copy is dropped.
    half = (m_count + 1) // 2
    cols, ratio = lstsq_cutoff(
        np.vstack([a, a[:, ::-1]]),
        np.vstack([ec_samples[:, :half], ec_samples[:, ::-1][:, :half]]))
    c = np.hstack([cols, cols[::-1, ::-1][:, 2 * half - m_count:]])
    if ratio < 1e-10:
        # Row p of the stacked matrix holds the powers of the node
        # exp(jkd sin(phi_p)), and its mirrored row, up to one phase, those
        # of the conjugate node: M unknowns need M of these 2P distinct.
        raise ValueError(
            "angle set is degenerate for the reduced solve (singular value "
            "ratio %.3e below 1e-10): the phases exp(jkd sin(phi)) of P = %d "
            "angles and their conjugates are not 2P = %d distinct nodes; "
            "one more angle, or other angles, fixes it" % (ratio, p, 2 * p))
    return _estimate(c, a, ec_samples, ratio)


def fields_from_measurements(measurements, amplitude_kind="power"):
    """Complex H-plane field matrix from amplitude/phase patterns.

    With ``amplitude_kind`` "power" the amplitude column is a power
    density and the field is its square root; with "field" it is already
    a field magnitude.  The physical 2*eta factor is folded into the
    normalization, which directivity quantities never see.
    """
    if amplitude_kind not in ("power", "field"):
        raise ValueError("amplitude_kind must be 'power' or 'field'")
    if not measurements:
        raise ValueError("no measurements supplied")
    phi_deg = measurements[0].phi_deg
    for meas in measurements[1:]:
        if len(meas.phi_deg) != len(phi_deg) or \
                np.max(np.abs(meas.phi_deg - phi_deg)) > 1e-9:
            raise ValueError("measurements use inconsistent phi grids")
    n = len(phi_deg)
    # Every point gets the weight 2 pi / n, which holds only on a grid
    # that ascends in equal steps around the whole circle.
    gaps = np.diff(phi_deg, append=phi_deg[0] + 360.0)
    deviation = np.abs(gaps - 360.0 / n)
    if deviation.max() > 1e-9:
        # A step that does not ascend is the fault itself, so name the
        # first one.  Otherwise name the worst step, not the first: with a
        # row dropped, 360/n no longer equals the grid's step, so every
        # step is a little off and only the one across the gap is off by a
        # whole step.
        falls = np.flatnonzero(gaps <= 0.0)
        i = int(falls[0]) if falls.size else int(deviation.argmax())
        raise ValueError(
            "phi grid must ascend in equal steps of 360/%d = %.17g deg "
            "around the circle; the step after phi_deg = %.17g is %.17g" %
            (n, 360.0 / n, phi_deg[i], gaps[i]))
    grid = AngularGrid(theta=np.full(n, np.pi / 2),
                       phi=np.deg2rad(phi_deg),
                       weight=np.full(n, 2.0 * np.pi / n),
                       kind="h_plane")
    values = np.empty((n, len(measurements)), dtype=complex)
    for m, meas in enumerate(measurements):
        if amplitude_kind == "power":
            magnitude = np.sqrt(meas.amplitude)
        else:
            magnitude = meas.amplitude
        values[:, m] = magnitude * np.exp(1j * np.deg2rad(meas.phase_deg))
    return FieldMatrix(values=values, grid=grid)


def column_symmetry_residual(c):
    """Deviation from the column-reversal symmetry of uniform arrays.

    max over (i, j) of |c_ji - c_(M+1-j)(M+1-i)| / max|c|, which is 0
    for a perfectly symmetric array.  ``c`` is the (M, M) array.
    """
    peak = np.max(np.abs(c))
    if peak == 0.0:
        return 0.0
    return float(np.max(np.abs(c - c[::-1, ::-1])) / peak)
