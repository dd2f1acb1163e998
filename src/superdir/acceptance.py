"""Built-in acceptance suite.

Each criterion reduces to a scalar violation measure ``err`` compared
against its stated tolerance; orderings map to 0 (holds) or 1
(violated).  ``tamper`` replaces the tolerance with an impossible one
so the harness itself can be shown to fail loudly.
"""

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import beamforming, cli, coupling, impedance, surrogate
from .geometry import (ArrayGeometry, Direction, hplane_grid, sphere_grid,
                       steering_matrix, steering_vector)
from .surrogate import TerminationSpec

SWEEP_SPACINGS = (0.5, 0.4, 0.3, 0.2, 0.1)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _result(number, name, err, tol, detail, tamper):
    if tamper:
        tol = -1.0
        detail += " [tampered tolerance]"
    return CriterionResult(number=number, name=name, passed=bool(err <= tol),
                           detail=detail)


@lru_cache(maxsize=None)
def _grid():
    return sphere_grid(64, 128)


@lru_cache(maxsize=None)
def _hgrid():
    return hplane_grid(1.0)


@lru_cache(maxsize=None)
def _geom(m_count, spacing, element):
    return ArrayGeometry(element_count=m_count, spacing=spacing,
                         element=element)


@lru_cache(maxsize=None)
def _surrogate(m_count, spacing, element):
    """(E_c, C_true) on the default sphere grid."""
    geom = _geom(m_count, spacing, element)
    zc = impedance.port_impedance_for(geom)
    return surrogate.coupled_fields(geom, _grid(), zc, TerminationSpec())


def _c_true(geom):
    """Ground-truth C alone, without the fields of ``_surrogate``."""
    return surrogate.coupling_truth(impedance.port_impedance_for(geom))


@lru_cache(maxsize=None)
def _dipole_setup(m_count, spacing):
    """In-plane dipole array: Z, endfire steering, ground-truth C."""
    geom = _geom(m_count, spacing, "ideal_dipole")
    z = impedance.z_full(geom, _grid(), "in_plane")
    steer = Direction(theta=np.pi / 2, phi=np.pi / 2)
    e = steering_vector(geom, steer, "in_plane")
    return geom, z, e, _c_true(geom)


def criterion_1(tamper=False):
    """Isotropic endfire max directivity hits M^2 at d = 0.02."""
    endfire = Direction(theta=0.0, phi=0.0)
    worst = 0.0
    values = []
    for m_count in (2, 3, 4):
        geom = _geom(m_count, 0.02, "isotropic")
        z = impedance.z_isotropic_closed(geom)
        e = steering_vector(geom, endfire)
        d_max = beamforming.max_directivity(z, e)
        gap = abs(d_max - m_count ** 2) / m_count ** 2
        worst = max(worst, gap)
        values.append("M=%d: %.3f" % (m_count, d_max))
    return _result(1, "uzkov_limit", worst, 0.02,
                   "%s, worst gap %.2e <= 2e-2" % ("; ".join(values), worst),
                   tamper)


def criterion_2(tamper=False):
    """Half-wave decoupling: Z = I and all four methods agree."""
    geom = _geom(4, 0.5, "isotropic")
    z = impedance.z_full(geom, _grid())
    err_z = float(np.max(np.abs(z.values - np.eye(4))))
    e = steering_vector(geom, Direction(theta=0.0, phi=0.0))
    c_true = _c_true(geom)
    d_th = beamforming.max_directivity(z, e)
    d_mrt = beamforming.directivity_coupled(beamforming.mrt_vector(e),
                                            c_true, e, z)
    d_tr = beamforming.directivity_coupled(
        beamforming.traditional_vector(z, e), c_true, e, z)
    d_pr = beamforming.directivity_coupled(
        beamforming.proposed_vector(c_true, z, e), c_true, e, z)
    spread = (max(d_th, d_mrt, d_tr, d_pr) - min(d_th, d_mrt, d_tr, d_pr)) / d_th
    err = max(err_z / 1e-9, spread / 0.01)
    return _result(2, "halfwave_decoupling", err, 1.0,
                   "max|Z-I| %.2e <= 1e-9, method spread %.2e <= 1e-2" %
                   (err_z, spread), tamper)


def criterion_3(tamper=False):
    """Quadrature Z matches the sinc oracle and is grid-converged."""
    fine = sphere_grid(128, 256)
    worst_oracle = 0.0
    worst_conv = 0.0
    for d in np.arange(0.05, 0.501, 0.05):
        geom = _geom(8, round(float(d), 3), "isotropic")
        z_quad = impedance.z_full(geom, _grid())
        z_oracle = impedance.z_isotropic_closed(geom)
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs(z_quad.values - z_oracle.values))))
        z_fine = impedance.z_full(geom, fine)
        worst_conv = max(worst_conv,
                         float(np.max(np.abs(z_quad.values - z_fine.values))))
    err = max(worst_oracle / 1e-8, worst_conv / 1e-9)
    return _result(3, "quadrature_oracle", err, 1.0,
                   "max oracle gap %.2e <= 1e-8, doubling change %.2e <= 1e-9" %
                   (worst_oracle, worst_conv), tamper)


def criterion_4(tamper=False):
    """Full-grid least squares recovers the surrogate C exactly."""
    worst = 0.0
    for m_count in (2, 4, 8):
        for d in (0.1, 0.2, 0.3):
            geom = _geom(m_count, d, "ideal_dipole")
            es = surrogate.isolated_fields(geom, _grid())
            ec, c_true = _surrogate(m_count, d, "ideal_dipole")
            c_est = coupling.estimate_c_full(es, ec)
            gap = np.linalg.norm(c_est.values - c_true.values) / \
                np.linalg.norm(c_true.values)
            worst = max(worst, float(gap))
    return _result(4, "c_recovery_oracle", worst, 1e-8,
                   "worst Frobenius relative error %.2e <= 1e-8" % (worst,),
                   tamper)


def _reduced_setup(m_count, d):
    geom = _geom(m_count, d, "ideal_dipole")
    c_true = _c_true(geom)
    es_h = surrogate.isolated_fields(geom, _hgrid())
    ec_h = coupling.FieldMatrix(values=es_h.values @ c_true.values,
                                grid=_hgrid())
    c_full = coupling.estimate_c_full(es_h, ec_h)
    return geom, c_true, c_full


def _reduced_samples(geom, c_true, angles):
    theta = np.full(len(angles), np.pi / 2)
    a = steering_matrix(geom, theta, angles, "in_plane")
    return a @ c_true.values


def criterion_5(tamper=False):
    """Reduced-angle estimation: counting bound and pattern match."""
    worst = 0.0
    details = []
    for m_count in (4, 8):
        geom, c_true, c_full = _reduced_setup(m_count, 0.3)
        angles = coupling.default_reduced_angles(m_count // 2)
        c_red = coupling.estimate_c_reduced(
            _reduced_samples(geom, c_true, angles), angles, geom)
        gap = np.linalg.norm(c_red.values - c_full.values) / \
            np.linalg.norm(c_full.values)
        worst = max(worst, float(gap) / 1e-6)
        details.append("M=%d gap %.1e" % (m_count, gap))
        short = coupling.default_reduced_angles(m_count // 2 - 1)
        try:
            coupling.estimate_c_reduced(
                _reduced_samples(geom, c_true, short), short, geom)
            worst = max(worst, 1.0 + 1e-9)
            details.append("M=%d short set accepted" % (m_count,))
        except ValueError:
            pass
    geom3 = _geom(3, 0.3, "ideal_dipole")
    c3 = _c_true(geom3)
    two = coupling.default_reduced_angles(2)
    try:
        coupling.estimate_c_reduced(_reduced_samples(geom3, c3, two), two, geom3)
        worst = max(worst, 1.0 + 1e-9)
        details.append("M=3 accepted P=2")
    except ValueError:
        pass
    three = coupling.default_reduced_angles(3)
    c3_red = coupling.estimate_c_reduced(
        _reduced_samples(geom3, c3, three), three, geom3)
    gap3 = np.linalg.norm(c3_red.values - c3.values) / np.linalg.norm(c3.values)
    worst = max(worst, float(gap3) / 1e-6)
    # pattern from the 4-angle estimate, M=8, d=0.3
    geom, z, e, c_true = _dipole_setup(8, 0.3)
    _, _, c_full = _reduced_setup(8, 0.3)
    angles = coupling.default_reduced_angles(4)
    c_red = coupling.estimate_c_reduced(
        _reduced_samples(geom, c_true, angles), angles, geom)
    phi = _hgrid().phi
    cut = steering_matrix(geom, np.full(len(phi), np.pi / 2), phi, "in_plane")
    db = []
    for c_used in (c_full, c_red):
        b = beamforming.proposed_vector(c_used, z, e)
        power = np.abs(cut @ (c_true.values @ b.values)) ** 2
        db.append(10.0 * np.log10(power / power.max()))
    gap_db = float(np.max(np.abs(db[0] - db[1])))
    worst = max(worst, gap_db / 0.1)
    details.append("pattern gap %.1e dB" % (gap_db,))
    return _result(5, "reduced_angle_recovery", worst, 1.0,
                   "; ".join(details), tamper)


def criterion_6(tamper=False):
    """Column-reversal symmetry of true and estimated C."""
    worst = 0.0
    for element in ("isotropic", "ideal_dipole"):
        for m_count in (2, 4, 8):
            for d in (0.1, 0.3):
                geom = _geom(m_count, d, element)
                es = surrogate.isolated_fields(geom, _grid())
                ec, c_true = _surrogate(m_count, d, element)
                c_est = coupling.estimate_c_full(es, ec)
                worst = max(worst,
                            coupling.column_symmetry_residual(c_true),
                            coupling.column_symmetry_residual(c_est))
    return _result(6, "column_reversal_symmetry", worst, 1e-8,
                   "worst residual %.2e <= 1e-8" % (worst,), tamper)


def criterion_7(tamper=False):
    """Proposed synthesis collapses to the theoretical bound."""
    worst_gap = 0.0
    ordering = 0.0
    for d in SWEEP_SPACINGS:
        geom, z, e, c_true = _dipole_setup(4, d)
        d_max = beamforming.max_directivity(z, e)
        b = beamforming.proposed_vector(c_true, z, e)
        d_pr = beamforming.directivity_coupled(b, c_true, e, z)
        worst_gap = max(worst_gap, abs(d_pr - d_max) / d_max)
        if d <= 0.2:
            a = beamforming.traditional_vector(z, e)
            d_tr = beamforming.directivity_coupled(a, c_true, e, z)
            if not d_tr < d_pr:
                ordering = 1.0
    err = max(worst_gap / 1e-9, ordering)
    return _result(7, "algebraic_collapse", err, 1.0,
                   "worst relative gap %.2e <= 1e-9, ordering holds: %s" %
                   (worst_gap, ordering == 0.0), tamper)


def criterion_8(tamper=False):
    """Isolated-field matrices keep full column rank, so the recovered
    coupling matrix is unique regardless of the solver path."""
    worst_ratio_err = 0.0
    min_ratio = np.inf
    for element in ("isotropic", "ideal_dipole"):
        for m_count in (2, 4, 8):
            for d in (0.1, 0.2, 0.3):
                geom = _geom(m_count, d, element)
                es = surrogate.isolated_fields(geom, _grid())
                ratio = es.singular_ratio()
                min_ratio = min(min_ratio, ratio)
                if ratio <= 1e-6:
                    worst_ratio_err = 1.0
    geom = _geom(4, 0.1, "ideal_dipole")
    es = surrogate.isolated_fields(geom, _grid())
    ec, _ = _surrogate(4, 0.1, "ideal_dipole")
    c_svd = coupling.estimate_c_full(es, ec, solver="svd")
    c_normal = coupling.estimate_c_full(es, ec, solver="normal")
    path_gap = np.linalg.norm(c_svd.values - c_normal.values) / \
        np.linalg.norm(c_svd.values)
    err = max(worst_ratio_err, float(path_gap) / 1e-9)
    return _result(8, "rank_uniqueness", err, 1.0,
                   "min singular ratio %.2e > 1e-6, solver path gap %.2e <= 1e-9" %
                   (min_ratio, path_gap), tamper)


def criterion_9(tamper=False):
    """Rayleigh bound and generalized-eigenvalue cross-check."""
    rng = np.random.default_rng(20240817)
    endfire = Direction(theta=0.0, phi=0.0)
    worst = 0.0
    for m_count in (2, 4, 8):
        for d in (0.1, 0.3, 0.5):
            geom = _geom(m_count, d, "isotropic")
            z = impedance.z_isotropic_closed(geom)
            e = steering_vector(geom, endfire)
            d_max = beamforming.max_directivity(z, e)
            a = rng.standard_normal((1000, m_count)) + \
                1j * rng.standard_normal((1000, m_count))
            num = np.abs(a @ e) ** 2
            s = np.conj(a)
            den = np.real(np.einsum("ij,ij->i", s.conj(), s @ z.values))
            excess = float(np.max(num / den) - d_max) / d_max
            worst = max(worst, excess)
    gap = beamforming.eig_crosscheck(
        impedance.z_isotropic_closed(_geom(2, 0.25, "isotropic")),
        steering_vector(_geom(2, 0.25, "isotropic"), endfire))
    rng2 = np.random.default_rng(7)
    basis = rng2.standard_normal((8, 8))
    raw = basis @ basis.T + 8.0 * np.eye(8)
    dd = np.sqrt(np.diag(raw))
    z_random = impedance.ImpedanceMatrix(values=raw / np.outer(dd, dd),
                                         self_power=1.0)
    e_random = rng2.standard_normal(8) + 1j * rng2.standard_normal(8)
    gap2 = beamforming.eig_crosscheck(z_random, e_random)
    err = max(worst / 1e-9, gap / 1e-9, gap2 / 1e-9)
    return _result(9, "rayleigh_bound", err, 1.0,
                   "max excess %.2e, eig gaps %.2e / %.2e (all <= 1e-9)" %
                   (worst, gap, gap2), tamper)


def criterion_10(tamper=False):
    """Loss analysis: interior gain maximum and loss-ratio blow-up."""
    endfire = Direction(theta=0.0, phi=0.0)
    r_loss = beamforming.loss_resistance(0.96)
    gains = []
    for d in np.linspace(0.05, 0.5, 19):
        geom = _geom(4, round(float(d), 6), "isotropic")
        z = impedance.z_isotropic_closed(geom)
        e = steering_vector(geom, endfire)
        a = beamforming.traditional_vector(z, e)
        identity = coupling.CouplingMatrix(values=np.eye(4), condition=1.0)
        gains.append(beamforming.gain(a, identity, e, z, r_loss))
    gains = np.asarray(gains)
    interior = 0.0 if (gains[0] < gains.max() and gains[-1] < gains.max() and
                       0 < int(np.argmax(gains)) < len(gains) - 1) else 1.0

    def loss_ratio(d):
        geom = _geom(4, d, "isotropic")
        z = impedance.z_isotropic_closed(geom)
        e = steering_vector(geom, endfire)
        p_rad, p_loss = beamforming.power_decomposition(z, e, r_loss)
        return p_loss / p_rad

    ratio_gain = loss_ratio(0.02) / loss_ratio(0.5)
    blowup = 0.0 if ratio_gain > 10.0 else 1.0
    err = max(interior, blowup)
    return _result(10, "loss_analysis", err, 0.0,
                   "peak gain %.2f at interior point: %s; "
                   "loss ratio amplification %.1e > 10: %s" %
                   (gains.max(), interior == 0.0, ratio_gain, blowup == 0.0),
                   tamper)


def criterion_11(tamper=False):
    """Monotone degradation trend and the Delta-F doubling law."""
    deltas = []
    for d in SWEEP_SPACINGS:
        geom, z, e, c_true = _dipole_setup(4, d)
        a = beamforming.traditional_vector(z, e)
        deltas.append(beamforming.delta_d(a, c_true, e, z))
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
                   (["%.3f" % v for v in deltas], trend == 0.0, doubling_gap),
                   tamper)


def criterion_12(tamper=False):
    """H-plane-only impedance is enough for the proposed method."""
    worst = np.inf
    for d in SWEEP_SPACINGS:
        geom, z, e, c_true = _dipole_setup(4, d)
        z_h = impedance.z_hplane(geom, _hgrid())
        b_h = beamforming.proposed_vector(c_true, z_h, e)
        d_h = beamforming.directivity_coupled(b_h, c_true, e, z)
        d_full = beamforming.max_directivity(z, e)
        worst = min(worst, d_h / d_full)
    err = 0.0 if worst >= 0.9 else 1.0
    return _result(12, "hplane_sufficiency", err, 0.0,
                   "worst directivity ratio %.4f >= 0.90" % (worst,), tamper)


def criterion_13(tamper=False):
    """Synthetic measurements round-trip to the direct Z and C."""
    geom, z_sphere, e, c_true = _dipole_setup(4, 0.3)
    grid = _hgrid()
    es = surrogate.isolated_fields(geom, grid)
    ec = coupling.FieldMatrix(values=es.values @ c_true.values, grid=grid)
    phi_deg = np.rad2deg(grid.phi)

    def to_measurements(fields):
        rows = fields.theta_rows()
        out = []
        for m in range(fields.element_count):
            out.append(coupling.PatternMeasurement(
                phi_deg=phi_deg,
                amplitude=np.abs(rows[:, m]) ** 2,
                phase_deg=np.rad2deg(np.angle(rows[:, m])),
                antenna_index=m))
        return out

    amplitude, phases, es_meas = coupling.power_patterns_from(
        to_measurements(es))
    z_meas = impedance.z_from_measurements(amplitude, phases)
    z_direct = impedance.z_hplane(geom, grid)
    gap_z = float(np.max(np.abs(z_meas.values - z_direct.values)))
    ec_meas = coupling.fields_from_measurements(to_measurements(ec))
    c_est = coupling.estimate_c_full(es_meas, ec_meas)
    gap_c = np.linalg.norm(c_est.values - c_true.values) / \
        np.linalg.norm(c_true.values)
    err = max(gap_z / 1e-9, float(gap_c) / 1e-6)
    return _result(13, "measurement_roundtrip", err, 1.0,
                   "Z gap %.2e <= 1e-9, C gap %.2e <= 1e-6" % (gap_z, gap_c),
                   tamper)


def criterion_14(tamper=False):
    """Byte-identical sweep CSVs for identical configs."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as handle:
            json.dump({"geometry": {"elements": 4, "spacing_wl": 0.3,
                                    "element": "isotropic",
                                    "steer_theta_deg": 0.0,
                                    "steer_phi_deg": 0.0},
                       "sweep": {"d_min": 0.2, "d_max": 0.5, "steps": 4},
                       "grid": {"n_theta": 32, "n_phi": 64},
                       "efficiency": 0.96}, handle)
        out1 = os.path.join(tmp, "a.csv")
        out2 = os.path.join(tmp, "b.csv")
        code1 = cli.main(["sweep", "--config", config_path, "--out", out1])
        code2 = cli.main(["sweep", "--config", config_path, "--out", out2])
        with open(out1, "rb") as handle:
            bytes1 = handle.read()
        with open(out2, "rb") as handle:
            bytes2 = handle.read()
    err = 0.0 if (code1 == 0 and code2 == 0 and bytes1 == bytes2) else 1.0
    return _result(14, "determinism", err, 0.0,
                   "two runs, %d bytes, identical: %s" %
                   (len(bytes1), err == 0.0), tamper)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13, criterion_14)


def run_all(tamper=None):
    """Run every criterion; ``tamper`` breaks criterion N on purpose."""
    results = []
    for index, fn in enumerate(CRITERIA, start=1):
        results.append(fn(tamper=(tamper == index)))
    return results
