"""Built-in acceptance suite.

Each criterion reduces to a scalar violation measure ``err`` compared
against its stated tolerance; orderings map to 0 (holds) or 1
(violated).  ``run_all(tamper=N)`` fails criterion N as an impossible
tolerance would, so the harness itself can be shown to fail loudly.
"""

import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import (beamforming, coupling, experiment, fileio, impedance,
               surrogate)
from .geometry import (AngularGrid, ArrayGeometry, Direction, hplane_grid,
                       sphere_grid, steering_matrix, steering_vector)
from .linalg import gated_solve

# The spacings of criteria 7, 11 and 12.  They hold every spacing at
# which a criterion reads a ground-truth C (0.1, 0.2 and 0.3 for criteria
# 4, 6 and 8, 0.3 for criterion 5 and 0.5 for criterion 2), so one
# port-network sweep per array builds them all.
SWEEP_SPACINGS = (0.5, 0.4, 0.3, 0.2, 0.1)
# The spacings at which criteria 5, 7, 11 and 12 read each in-plane
# dipole array's Z, by M.
_DIPOLE_Z_SPACINGS = {4: SWEEP_SPACINGS, 8: (0.3,)}
_Recovery = namedtuple("_Recovery", "singular_ratio c_error symmetry")


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _result(number, name, err, tol, detail):
    return CriterionResult(number=number, name=name, passed=bool(err <= tol),
                           detail=detail)


@lru_cache(maxsize=None)
def _grid():
    return sphere_grid(64, 128)


@lru_cache(maxsize=None)
def _ring_grid():
    """The full sphere with 2 points per theta ring, for the axial arrays
    of criteria 2, 3, 4, 6 and 8.

    Its 64 Gauss-Legendre rings are ``_grid()``'s, bit for bit.  Axial
    E_s and E_c depend on theta alone, so on either grid they are their
    64 ring rows, each repeated once per point of the ring (128 or 2
    times).  To an unweighted least squares, repeating every row 64 times
    more is scaling every row by 8, which changes neither its solution
    nor its singular ratio, relative residual or symmetry residuals: this
    grid is the whole problem, with 64 times fewer rows.  An axial Z's
    integrand depends on theta alone too, and the phi trapezoid of a
    constant is exact at any point count, so each ring contributes the
    same term on 2 points as on 128: the quadrature differs only in the
    rounding of its sums.  It is taken from ``_grid()``, so a cold run
    solves for the 64 nodes once.
    """
    return _two_per_ring(_grid(), 128)


def _two_per_ring(grid, n_phi):
    """``sphere_grid(n_theta, 2)``, bit for bit, taken from ``grid =
    sphere_grid(n_theta, n_phi)`` for n_phi a power of two: every
    (n_phi / 2)-th point, its weight times n_phi / 2, and no second
    Newton solve.  Both hold the same nodes, and scaling by a power of
    two is exact, so 2 pi (n_phi / 2) / n_phi is pi and the weight
    w (2 pi / n_phi) (n_phi / 2) is w pi, as sphere_grid(n_theta, 2)
    computes them.
    """
    step = n_phi // 2
    return AngularGrid(theta=grid.theta[::step], phi=grid.phi[::step],
                       weight=grid.weight[::step] * step, kind="full_sphere")


def _geom(m_count, spacing, element):
    return ArrayGeometry(element_count=m_count, spacing=spacing,
                         element=element)


@lru_cache(maxsize=None)
def _c_trues(element, m_count):
    """{spacing: ground-truth C as an (M, M) array} of the M-element
    array at each of the ``SWEEP_SPACINGS``, from one
    ``port_impedance_sweep`` and one ``coupling_truth_sweep``: each C
    keeps the bits of a ``coupling_truth`` of its own network."""
    networks = impedance.port_impedance_sweep(
        _geom(m_count, SWEEP_SPACINGS[0], element), SWEEP_SPACINGS)
    return {d: c_true.values for d, c_true in
            zip(SWEEP_SPACINGS, surrogate.coupling_truth_sweep(networks))}


def _c_true(geom):
    """Ground-truth C of ``geom`` as an (M, M) array."""
    return _c_trues(geom.element, geom.element_count)[geom.spacing]


def _fields(m_count, spacing, element, grid):
    """(geometry, E_s, E_c = E_s C_true, C_true) of the array on ``grid``.

    Not cached: kept field matrices would dominate the suite's memory.
    """
    geom = _geom(m_count, spacing, element)
    es = surrogate.isolated_fields(geom, grid)
    c_true = _c_true(geom)
    return geom, es, surrogate.couple(es, c_true), c_true


@lru_cache(maxsize=None)
def _recovery(element, m_count, spacing):
    """Scalars of one surrogate array on the full sphere: E_s's singular
    ratio, the relative Frobenius error of C's full-grid estimate, and the
    larger column-reversal residual of C_true and of that estimate.

    The fields are sampled on ``_ring_grid()``: an axial array's fields
    do not depend on phi, so its 64 theta rings hold every distinct row.
    """
    _, es, ec, c_true = _fields(m_count, spacing, element, _ring_grid())
    est = coupling.estimate_c_full(es, ec)
    c_est = est.values
    return _Recovery(
        est.singular_ratio,
        float(np.linalg.norm(c_est - c_true) / np.linalg.norm(c_true)),
        max(coupling.column_symmetry_residual(c_true),
            coupling.column_symmetry_residual(c_est)))


def _isotropic_endfire(m_count, spacing):
    """Closed-form Z and endfire steering vector of an isotropic array."""
    geom = _geom(m_count, spacing, "isotropic")
    return (impedance.z_isotropic_closed(geom),
            steering_vector(geom, Direction(theta=0.0, phi=0.0)))


@lru_cache(maxsize=None)
def _dipole_z(m_count):
    """{spacing: Z} of the in-plane M-dipole array on ``_grid()`` at each
    of its ``_DIPOLE_Z_SPACINGS``, from one ``z_full_sweep``, which gives
    each Z the bits of a ``z_full`` at that spacing."""
    spacings = _DIPOLE_Z_SPACINGS[m_count]
    return dict(zip(spacings, impedance.z_full_sweep(
        _geom(m_count, spacings[0], "ideal_dipole"), _grid(), spacings,
        "in_plane")))


@lru_cache(maxsize=None)
def _dipole_setup(m_count, spacing):
    """In-plane dipole array: Z, endfire steering, ground-truth C."""
    geom = _geom(m_count, spacing, "ideal_dipole")
    z = _dipole_z(m_count)[spacing]
    steer = Direction(theta=np.pi / 2, phi=np.pi / 2)
    e = steering_vector(geom, steer, "in_plane")
    return geom, z, e, _c_true(geom)


def criterion_1():
    """Isotropic endfire max directivity hits M^2 at d = 0.02."""
    worst = 0.0
    values = []
    for m_count in (2, 3, 4):
        z, e = _isotropic_endfire(m_count, 0.02)
        d_max = beamforming.max_directivity(z, e)
        gap = abs(d_max - m_count ** 2) / m_count ** 2
        worst = max(worst, gap)
        values.append("M=%d: %.3f" % (m_count, d_max))
    return _result(1, "uzkov_limit", worst, 0.02,
                   "%s, worst gap %.2e <= 2e-2" % ("; ".join(values), worst))


def criterion_2():
    """Half-wave decoupling: Z = I and all four methods agree.

    Z is the quadrature on ``_ring_grid()``: the axial isotropic
    integrand does not depend on phi, so its 64 theta rings are the
    whole of 64x128's quadrature."""
    geom = _geom(4, 0.5, "isotropic")
    z = impedance.z_full(geom, _ring_grid())
    err_z = float(np.max(np.abs(z.values - np.eye(4))))
    e = steering_vector(geom, Direction(theta=0.0, phi=0.0))
    c_true = _c_true(geom)
    d_th = beamforming.max_directivity(z, e)
    directivities = [d_th] + [
        beamforming.directivity(
            beamforming.synthesize(method, z, e, c_true)[1], e, z)
        for method in ("mrt", "traditional", "proposed")]
    spread = (max(directivities) - min(directivities)) / d_th
    err = max(err_z / 1e-9, spread / 0.01)
    return _result(2, "halfwave_decoupling", err, 1.0,
                   "max|Z-I| %.2e <= 1e-9, method spread %.2e <= 1e-2" %
                   (err_z, spread))


def criterion_3():
    """Quadrature Z matches the sinc oracle and is grid-converged.

    The axial isotropic integrand depends on theta alone, so its one
    discretization is the Gauss-Legendre theta nodes: ``_ring_grid()``
    holds 64x128's rings bit for bit, and 128x2 holds 128x256's.  The
    doubling check doubles those nodes; doubling the phi points, whose
    trapezoid of a constant is exact, would change nothing but rounding.
    """
    spacings = [round(float(d), 3) for d in np.arange(0.05, 0.501, 0.05)]
    geom = _geom(8, spacings[0], "isotropic")
    worst_oracle = 0.0
    worst_conv = 0.0
    for d, z_quad, z_fine in zip(
            spacings, impedance.z_full_sweep(geom, _ring_grid(), spacings),
            impedance.z_full_sweep(geom, sphere_grid(128, 2), spacings)):
        z_oracle = impedance.z_isotropic_closed(_geom(8, d, "isotropic"))
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs(z_quad.values - z_oracle.values))))
        worst_conv = max(worst_conv,
                         float(np.max(np.abs(z_quad.values - z_fine.values))))
    err = max(worst_oracle / 1e-8, worst_conv / 1e-9)
    return _result(3, "quadrature_oracle", err, 1.0,
                   "max oracle gap %.2e <= 1e-8, doubling change %.2e <= 1e-9" %
                   (worst_oracle, worst_conv))


def criterion_4():
    """Full-grid least squares recovers the surrogate C exactly.

    Full grid means every distinct row of the full sphere: the 64 theta
    rings of ``_ring_grid()`` (see ``_recovery``)."""
    worst = max(_recovery("ideal_dipole", m_count, d).c_error
                for m_count in (2, 4, 8) for d in (0.1, 0.2, 0.3))
    return _result(4, "c_recovery_oracle", worst, 1e-8,
                   "worst Frobenius relative error %.2e <= 1e-8" % (worst,))


def _reduced(geom, c_true, p):
    """Reduced-angle estimate of C_true from ``p`` default angles, or
    None when the solve refuses the angle set."""
    angles = coupling.default_reduced_angles(p)
    samples = steering_matrix(geom, np.full(p, np.pi / 2), angles,
                              "in_plane") @ c_true
    try:
        return coupling.estimate_c_reduced(samples, angles, geom)
    except ValueError:
        return None


def criterion_5():
    """Reduced-angle estimation: counting bound and pattern match."""
    worst = 0.0
    details = []
    for m_count in (3, 4, 8):
        geom, es_h, ec_h, c_true = _fields(m_count, 0.3, "ideal_dipole",
                                           hplane_grid(1.0))
        c_full = coupling.estimate_c_full(es_h, ec_h)
        p = coupling.minimum_angles(m_count)
        c_red = _reduced(geom, c_true, p)
        gap = np.linalg.norm(c_red.values - c_full.values) / \
            np.linalg.norm(c_full.values)
        worst = max(worst, float(gap) / 1e-6)
        details.append("M=%d gap %.1e" % (m_count, gap))
        if _reduced(geom, c_true, p - 1) is not None:
            worst = max(worst, 1.0 + 1e-9)
            details.append("M=%d short set accepted" % (m_count,))
    # pattern from the loop's last estimates: M=8, d=0.3, 4 angles
    _, z, e, _ = _dipole_setup(8, 0.3)
    db = []
    for c_used in (c_full, c_red):
        b = beamforming.proposed_vector(c_used.values, z, e)
        power = np.abs(es_h.values @ (c_true @ b)) ** 2
        db.append(10.0 * np.log10(power / power.max()))
    gap_db = float(np.max(np.abs(db[0] - db[1])))
    worst = max(worst, gap_db / 0.1)
    details.append("pattern gap %.1e dB" % (gap_db,))
    return _result(5, "reduced_angle_recovery", worst, 1.0,
                   "; ".join(details))


def criterion_6():
    """Column-reversal symmetry of true and estimated C, with C estimated
    from the full sphere's 64 theta rings (see ``_recovery``)."""
    worst = max(_recovery(element, m_count, d).symmetry
                for element in ("isotropic", "ideal_dipole")
                for m_count in (2, 4, 8) for d in (0.1, 0.3))
    return _result(6, "column_reversal_symmetry", worst, 1e-8,
                   "worst residual %.2e <= 1e-8" % (worst,))


def criterion_7():
    """Proposed synthesis collapses to the theoretical bound."""
    worst_gap = 0.0
    ordering = 0.0
    for d in SWEEP_SPACINGS:
        geom, z, e, c_true = _dipole_setup(4, d)
        d_max = beamforming.max_directivity(z, e)
        _, w = beamforming.synthesize("proposed", z, e, c_true)
        d_pr = beamforming.directivity(w, e, z)
        worst_gap = max(worst_gap, abs(d_pr - d_max) / d_max)
        if d <= 0.2:
            _, w = beamforming.synthesize("traditional", z, e, c_true)
            d_tr = beamforming.directivity(w, e, z)
            if not d_tr < d_pr:
                ordering = 1.0
    err = max(worst_gap / 1e-9, ordering)
    return _result(7, "algebraic_collapse", err, 1.0,
                   "worst relative gap %.2e <= 1e-9, ordering holds: %s" %
                   (worst_gap, ordering == 0.0))


def criterion_8():
    """Isolated-field matrices keep full column rank, so the cutoff least
    squares and the normal equations recover one coupling matrix.

    Both solves take the full sphere's 64 theta rings (``_ring_grid()``):
    64x128 repeats each of its rows 64 times, which scales E_s^H E_s and
    E_s^H E_c by 64 alike and leaves the solution and the singular ratio
    as they are."""
    min_ratio = min(_recovery(element, m_count, d).singular_ratio
                    for element in ("isotropic", "ideal_dipole")
                    for m_count in (2, 4, 8) for d in (0.1, 0.2, 0.3))
    _, es, ec, _ = _fields(4, 0.1, "ideal_dipole", _ring_grid())
    c_svd = coupling.estimate_c_full(es, ec)
    c_normal, _ = gated_solve(es.values.conj().T @ es.values,
                              es.values.conj().T @ ec.values,
                              context="normal equations")
    path_gap = np.linalg.norm(c_svd.values - c_normal) / \
        np.linalg.norm(c_svd.values)
    err = max(0.0 if min_ratio > 1e-6 else 1.0, float(path_gap) / 1e-9)
    return _result(8, "rank_uniqueness", err, 1.0,
                   "min singular ratio %.2e > 1e-6, solver path gap %.2e <= 1e-9" %
                   (min_ratio, path_gap))


def _solve_vs_eigh(z, e):
    """Relative gap between the bound e^H Z^-1 e from Z's solve and from
    Z's eigendecomposition, as a fraction of the tolerance 1e-9 + 1e-15
    cond(Z): a backward-stable solve is off by about eps cond(Z)."""
    d_solve = beamforming.max_directivity(z, e)
    d_eigh = beamforming.power_decomposition(z, e, 0.0)[0] / z.self_power
    return abs(d_solve - d_eigh) / d_eigh / (1e-9 + 1e-15 * z.condition)


def criterion_9():
    """Rayleigh bound: no random excitation beats e^H Z^-1 e, and the
    solve that gives the bound agrees with the eigh path."""
    rng = np.random.default_rng(20240817)
    worst = paths = 0.0
    for m_count in (2, 4, 8):
        for d in (0.1, 0.3, 0.5):
            z, e = _isotropic_endfire(m_count, d)
            d_max = beamforming.max_directivity(z, e)
            a = rng.standard_normal((1000, m_count)) + \
                1j * rng.standard_normal((1000, m_count))
            num = np.abs(a @ e) ** 2
            s = np.conj(a)
            den = np.real(np.einsum("ij,ij->i", s.conj(), s @ z.values))
            excess = float(np.max(num / den) - d_max) / d_max
            worst = max(worst, excess)
            paths = max(paths, _solve_vs_eigh(z, e))
    rng2 = np.random.default_rng(7)
    basis = rng2.standard_normal((8, 8))
    raw = basis @ basis.T + 8.0 * np.eye(8)
    dd = np.sqrt(np.diag(raw))
    z_random = impedance.ImpedanceMatrix(values=raw / np.outer(dd, dd),
                                         self_power=1.0)
    e_random = rng2.standard_normal(8) + 1j * rng2.standard_normal(8)
    paths = max(paths, _solve_vs_eigh(z_random, e_random))
    err = max(worst / 1e-9, paths)
    return _result(9, "rayleigh_bound", err, 1.0,
                   "max excess %.2e <= 1e-9, solve vs eigh gap %.2e of "
                   "1e-9 + 1e-15 cond(Z) <= 1" % (worst, paths))


def criterion_10():
    """Loss analysis: interior gain maximum and loss-ratio blow-up."""
    r_loss = beamforming.loss_resistance(0.96)
    gains = []
    for d in np.linspace(0.05, 0.5, 19):
        z, e = _isotropic_endfire(4, round(float(d), 6))
        a = beamforming.traditional_vector(z, e)
        gains.append(beamforming.directivity(a, e, z, r_loss))
    gains = np.asarray(gains)
    interior = 0.0 if (gains[0] < gains.max() and gains[-1] < gains.max() and
                       0 < int(np.argmax(gains)) < len(gains) - 1) else 1.0

    def loss_ratio(d):
        p_rad, p_loss = beamforming.power_decomposition(
            *_isotropic_endfire(4, d), r_loss)
        return p_loss / p_rad

    ratio_gain = loss_ratio(0.02) / loss_ratio(0.5)
    blowup = 0.0 if ratio_gain > 10.0 else 1.0
    err = max(interior, blowup)
    return _result(10, "loss_analysis", err, 0.0,
                   "peak gain %.2f at interior point: %s; "
                   "loss ratio amplification %.1e > 10: %s" %
                   (gains.max(), interior == 0.0, ratio_gain, blowup == 0.0))


def criterion_11():
    """Monotone degradation trend and the Delta-F doubling law."""
    deltas = []
    for d in SWEEP_SPACINGS:
        geom, z, e, c_true = _dipole_setup(4, d)
        a, w = beamforming.synthesize("traditional", z, e, c_true)
        deltas.append(beamforming.directivity(a, e, z) -
                      beamforming.directivity(w, e, z))
    trend = 0.0 if all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:])) \
        else 1.0
    base = np.ones(64, dtype=complex)
    base[0] = 2.0  # fixed peak, untouched by the perturbation
    bump = np.zeros(64, dtype=complex)
    bump[17] = 0.01 + 0.003j
    bump[33] = -0.004j
    df1 = beamforming.delta_f_from_patterns(base, base - bump)
    df2 = beamforming.delta_f_from_patterns(base, base - 2.0 * bump)
    doubling_gap = abs((df2 - df1) - 20.0 * np.log10(2.0))
    err = max(trend, doubling_gap / 1e-9)
    return _result(11, "degradation_trend", err, 1.0,
                   "delta-D %s non-decreasing: %s; doubling step off by %.1e dB" %
                   (["%.3f" % v for v in deltas], trend == 0.0, doubling_gap))


def criterion_12():
    """H-plane-only impedance is enough for the proposed method."""
    worst = np.inf
    for d in SWEEP_SPACINGS:
        geom, z, e, c_true = _dipole_setup(4, d)
        z_h = impedance.z_hplane(geom, hplane_grid(1.0))
        _, w = beamforming.synthesize("proposed", z_h, e, c_true)
        d_h = beamforming.directivity(w, e, z)
        d_full = beamforming.max_directivity(z, e)
        worst = min(worst, d_h / d_full)
    err = 0.0 if worst >= 0.9 else 1.0
    return _result(12, "hplane_sufficiency", err, 0.0,
                   "worst directivity ratio %.4f >= 0.90" % (worst,))


def criterion_13():
    """Synthetic measurements round-trip to the direct Z and C."""
    grid = hplane_grid(1.0)
    geom, es, ec, c_true = _fields(4, 0.3, "ideal_dipole", grid)
    phi_deg = np.rad2deg(grid.phi)

    def to_measurements(fields):
        return [coupling.PatternMeasurement(
            phi_deg=phi_deg, amplitude=np.abs(column) ** 2,
            phase_deg=np.rad2deg(np.angle(column)))
            for column in fields.values.T]

    es_meas = coupling.fields_from_measurements(to_measurements(es))
    z_meas = impedance.z_from_measurements(es_meas.values)
    z_direct = impedance.z_hplane(geom, grid)
    gap_z = float(np.max(np.abs(z_meas.values - z_direct.values)))
    ec_meas = coupling.fields_from_measurements(to_measurements(ec))
    c_est = coupling.estimate_c_full(es_meas, ec_meas)
    gap_c = np.linalg.norm(c_est.values - c_true) / np.linalg.norm(c_true)
    err = max(gap_z / 1e-9, float(gap_c) / 1e-6)
    return _result(13, "measurement_roundtrip", err, 1.0,
                   "Z gap %.2e <= 1e-9, C gap %.2e <= 1e-6" % (gap_z, gap_c))


def criterion_14():
    """Byte-identical sweep CSVs for identical configs."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        fileio.write_json(config_path, {
            "geometry": {"elements": 4, "spacing_wl": 0.3,
                         "element": "isotropic", "steer_theta_deg": 0.0,
                         "steer_phi_deg": 0.0},
            "sweep": {"d_min": 0.2, "d_max": 0.5, "steps": 4},
            "grid": {"n_theta": 32, "n_phi": 64}, "efficiency": 0.96})
        runs = []
        for name in ("a.csv", "b.csv"):
            out = os.path.join(tmp, name)
            fileio.write_sweep_csv(out, experiment.sweep_rows(
                experiment.steered_config(config_path)))
            with open(out, "rb") as handle:
                runs.append(handle.read())
    err = 0.0 if runs[0] == runs[1] else 1.0
    return _result(14, "determinism", err, 0.0,
                   "two runs, %d bytes, identical: %s" %
                   (len(runs[0]), err == 0.0))


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13, criterion_14)


def run_all(tamper=None):
    """Run every criterion; ``tamper`` fails criterion N on purpose."""
    results = [fn() for fn in CRITERIA]
    for result in results:
        if result.number == tamper:
            result.passed = False
            result.detail += " [tampered tolerance]"
    return results
