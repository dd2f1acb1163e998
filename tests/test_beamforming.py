import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir import beamforming
from superdir.beamforming import (DELTA_F_FLOOR_DB, delta_f_from_patterns,
                                  directivity, loss_resistance,
                                  max_directivity, mrt_vector,
                                  pattern_metrics, power_decomposition,
                                  proposed_vector, synthesize,
                                  traditional_vector)
from superdir.geometry import (ArrayGeometry, Direction, hplane_grid,
                               sphere_grid, steering_matrix, steering_vector)
from superdir.impedance import (ImpedanceMatrix, port_impedance_for,
                                z_full, z_isotropic_closed)
from superdir.linalg import ConditionGateError
from superdir.surrogate import TerminationSpec, coupled_fields, coupling_truth

ENDFIRE = Direction(theta=0.0, phi=0.0)


def _pair(spacing=0.25):
    geom = ArrayGeometry(element_count=2, spacing=spacing)
    z = z_isotropic_closed(geom)
    e = steering_vector(geom, ENDFIRE)
    return geom, z, e


def test_single_dipole_directivity():
    geom = ArrayGeometry(element_count=1, spacing=0.1,
                         element="ideal_dipole")
    z = z_full(geom, sphere_grid(64, 128))
    e = steering_vector(geom, Direction(theta=np.pi / 2, phi=0.0))
    assert_allclose(directivity(np.array([1.0 + 0j]), e, z), 1.5, rtol=1e-12)


def test_two_element_quarter_wave_closed_form():
    # D_max = 2 / (1 - sinc(2 pi d)^2) at d = 0.25
    _, z, e = _pair()
    expected = 2.0 / (1.0 - np.sinc(0.5) ** 2)
    assert_allclose(max_directivity(z, e), expected, rtol=1e-12)
    assert_allclose(expected, 3.362953864235766, rtol=1e-14)


def test_traditional_matches_hand_solve():
    _, z, e = _pair()
    s = np.sinc(0.5)
    raw = np.array([1.0 + 1j * s, -1j - s]) / (1.0 - s * s)
    expected = raw / np.linalg.norm(raw)
    a = traditional_vector(z, e)
    # unit-norm vectors agree up to a global phase
    phase = np.vdot(expected, a)
    assert_allclose(a, expected * phase / abs(phase), atol=1e-12)
    assert_allclose(np.linalg.norm(a), 1.0, rtol=1e-12)


def test_traditional_attains_bound():
    for d in (0.1, 0.25, 0.4):
        geom, z, e = _pair(d)
        a = traditional_vector(z, e)
        assert_allclose(directivity(a, e, z), max_directivity(z, e),
                        rtol=1e-11)


def test_mrt_broadside_halfwave():
    # decoupled half-wave array: MRT reaches D = M exactly
    geom = ArrayGeometry(element_count=4, spacing=0.5)
    z = z_isotropic_closed(geom)
    e = steering_vector(geom, Direction(theta=np.pi / 2, phi=0.0))
    a = mrt_vector(e)
    assert_allclose(directivity(a, e, z), 4.0, rtol=1e-12)


def test_mrt_below_bound_when_coupled():
    geom, z, e = _pair(0.1)
    assert directivity(mrt_vector(e), e, z) < max_directivity(z, e)


def test_rayleigh_bound_random_excitations():
    geom = ArrayGeometry(element_count=5, spacing=0.2)
    z = z_isotropic_closed(geom)
    e = steering_vector(geom, ENDFIRE)
    bound = max_directivity(z, e)
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert directivity(a, e, z) <= bound * (1.0 + 1e-9)


def test_proposed_collapses_to_bound():
    grid = sphere_grid(48, 96)
    for d in (0.1, 0.2, 0.3):
        geom = ArrayGeometry(element_count=4, spacing=d,
                             element="ideal_dipole")
        z = z_full(geom, grid, "in_plane")
        e = steering_vector(geom, Direction(theta=np.pi / 2, phi=np.pi / 2),
                            "in_plane")
        _, truth = coupled_fields(geom, grid, port_impedance_for(geom),
                                  TerminationSpec())
        c = truth.values
        b = proposed_vector(c, z, e)
        assert_allclose(directivity(c @ b, e, z),
                        max_directivity(z, e), rtol=1e-10)


def test_coupled_ordering_tight_spacing():
    grid = sphere_grid(48, 96)
    geom = ArrayGeometry(element_count=4, spacing=0.15,
                         element="ideal_dipole")
    z = z_full(geom, grid, "in_plane")
    e = steering_vector(geom, Direction(theta=np.pi / 2, phi=np.pi / 2),
                        "in_plane")
    _, truth = coupled_fields(geom, grid, port_impedance_for(geom),
                              TerminationSpec())
    c = truth.values
    d_mrt = directivity(c @ mrt_vector(e), e, z)
    d_trad = directivity(c @ traditional_vector(z, e), e, z)
    d_prop = directivity(c @ proposed_vector(c, z, e), e, z)
    assert d_trad < d_prop
    assert d_mrt < d_prop


def test_synthesize_returns_excitation_and_effective_currents():
    # w = C a, bit for bit, except theoretical's uncoupled w = a
    geom = ArrayGeometry(element_count=4, spacing=0.15,
                         element="ideal_dipole")
    z = z_full(geom, sphere_grid(32, 64), "in_plane")
    e = steering_vector(geom, Direction(theta=np.pi / 2, phi=np.pi / 2),
                        "in_plane")
    c = coupling_truth(port_impedance_for(geom)).values
    excitations = {"mrt": mrt_vector(e),
                   "traditional": traditional_vector(z, e),
                   "proposed": proposed_vector(c, z, e),
                   "theoretical": traditional_vector(z, e)}
    for method, expected in excitations.items():
        a, w = synthesize(method, z, e, c)
        assert a.tobytes() == expected.tobytes(), method
        currents = a if method == "theoretical" else c @ a
        assert w.tobytes() == currents.tobytes(), method
    with pytest.raises(ValueError, match="unknown synthesis method 'zf'"):
        synthesize("zf", z, e, c)


def test_delta_d_sign_and_zero():
    geom, z, e = _pair(0.2)
    identity = np.eye(2)
    a = traditional_vector(z, e)
    assert_allclose(directivity(a, e, z) - directivity(identity @ a, e, z),
                    0.0, atol=1e-12)
    skew = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert directivity(a, e, z) - directivity(skew @ a, e, z) > 0.0


def test_loss_resistance():
    assert loss_resistance(1.0) == 0.0
    assert_allclose(loss_resistance(0.96), 0.04 / 0.96, rtol=1e-12)
    with pytest.raises(ValueError):
        loss_resistance(0.0)
    with pytest.raises(ValueError):
        loss_resistance(1.2)


def test_gain_never_exceeds_directivity():
    geom, z, e = _pair(0.15)
    identity = np.eye(2)
    a = traditional_vector(z, e)
    d = directivity(identity @ a, e, z)
    g = directivity(identity @ a, e, z, loss_resistance(0.9))
    assert g < d
    assert_allclose(directivity(identity @ a, e, z, 0.0), d, rtol=1e-12)
    with pytest.raises(ValueError):
        directivity(identity @ a, e, z, -0.1)


def test_power_decomposition_identities():
    geom = ArrayGeometry(element_count=4, spacing=0.1)
    z = z_isotropic_closed(geom)
    e = steering_vector(geom, ENDFIRE)
    r = loss_resistance(0.96)
    p_rad, p_loss = power_decomposition(z, e, r)
    # oracle: the same powers written with the explicit solve a = Z^-1 e*
    a = np.linalg.solve(z.values, np.conj(e))
    s = np.conj(a)
    assert_allclose(p_rad, np.real(np.vdot(s, z.values @ s)), rtol=1e-9)
    assert_allclose(p_loss, r * np.linalg.norm(a) ** 2, rtol=1e-9)


def test_power_decomposition_refuses_an_asymmetric_matrix():
    e = np.ones(2, dtype=complex)
    skew = ImpedanceMatrix(values=np.array([[1.0, 0.5], [0.5 + 1e-4, 1.0]]))
    with pytest.raises(ValueError, match="requires a symmetric matrix"):
        power_decomposition(skew, e, 0.0)
    # an asymmetry inside 1e-12 + 1e-5 |z| is accepted
    near = ImpedanceMatrix(values=np.array([[1.0, 0.5], [0.5 + 1e-6, 1.0]]))
    assert power_decomposition(near, e, 0.0)[0] > 0.0


def test_loss_ratio_blows_up_when_compact():
    r = loss_resistance(0.96)

    def ratio(d):
        geom = ArrayGeometry(element_count=4, spacing=d)
        z = z_isotropic_closed(geom)
        e = steering_vector(geom, ENDFIRE)
        p_rad, p_loss = power_decomposition(z, e, r)
        return p_loss / p_rad

    assert ratio(0.05) > 100.0 * ratio(0.5)


def test_delta_f_floor_on_identical_patterns():
    f = np.exp(1j * np.linspace(0.0, 2.0, 50))
    assert delta_f_from_patterns(f, f.copy()) == DELTA_F_FLOOR_DB


def test_delta_f_doubling_law():
    base = np.ones(32, dtype=complex)
    base[0] = 2.0
    bump = np.zeros(32, dtype=complex)
    bump[10] = 0.02 - 0.01j
    df1 = delta_f_from_patterns(base, base - bump)
    df2 = delta_f_from_patterns(base, base - 2.0 * bump)
    assert_allclose(df2 - df1, 20.0 * np.log10(2.0), atol=1e-9)


@pytest.mark.parametrize("shape_th,shape_act", [
    ((40, 2), (40, 2)), ((40, 1), (40, 1)), ((), ()), ((0,), (0,)),
    ((40,), (39,)), ((40,), (40, 1))],
    ids=["pairs", "column", "scalar", "empty", "lengths", "mixed"])
def test_delta_f_refuses_any_shape_but_one_dimension(shape_th, shape_act):
    # one polarization: a pattern is an (L,) array of E_theta samples
    with pytest.raises(ValueError, match="one non-empty"):
        delta_f_from_patterns(np.ones(shape_th, dtype=complex),
                              np.ones(shape_act, dtype=complex))


def test_pattern_metrics_broadside_uniform():
    # 4 elements at half wavelength, uniform: textbook 3 dB width; the
    # back lobe of the linear-array cut sits at the same height, so the
    # reported sidelobe level is 0 dB
    geom = ArrayGeometry(element_count=4, spacing=0.5)
    grid = hplane_grid(1.0)
    e = steering_vector(geom, Direction(theta=np.pi / 2, phi=0.0),
                        "in_plane")
    a = mrt_vector(e)
    cut = steering_matrix(geom, grid.theta, grid.phi, "in_plane")
    power = np.abs(cut @ a) ** 2
    metrics = pattern_metrics(power, np.rad2deg(grid.phi), 0.0)
    assert_allclose(metrics.beamwidth_3db_deg, 26.325, atol=0.5)
    assert_allclose(metrics.psll_db, 0.0, atol=1e-9)


def test_pattern_metrics_designed_sidelobe():
    angles = np.arange(-179.0, 181.0)
    power = np.full(360, 1e-6)
    main = np.exp(-0.5 * (angles / 8.0) ** 2)
    side = 10.0 ** (-7.0 / 10.0) * np.exp(-0.5 * ((angles - 120.0) / 5.0) ** 2)
    power = np.maximum(power, np.maximum(main, side))
    metrics = pattern_metrics(power, angles, 0.0)
    assert_allclose(metrics.psll_db, -7.0, atol=0.05)
    # Gaussian half-power width: 2 * sigma * sqrt(2 ln 2) with sigma = 8
    assert_allclose(metrics.beamwidth_3db_deg, 18.84, atol=1.0)


def test_pattern_metrics_single_lobe():
    angles = np.arange(-179.0, 181.0)
    power = np.exp(-0.5 * (angles / 40.0) ** 2)
    metrics = pattern_metrics(power, angles, 0.0)
    assert metrics.beamwidth_3db_deg < 360.0
    assert np.isnan(metrics.psll_db)
    # a flat cut has no half-power crossing and no minimum
    flat = pattern_metrics(np.full(360, 2.0), angles, 10.0)
    assert flat.beamwidth_3db_deg == 360.0
    assert np.isnan(flat.psll_db)


def _pattern_metrics_scalar(power, angles_deg, steer_deg):
    """Point-by-point reference for pattern_metrics: the distance list
    and the main-lobe set built one index at a time."""
    n = len(power)
    step = angles_deg[1] - angles_deg[0]
    distances = np.array([abs((a - steer_deg + 180.0) % 360.0 - 180.0)
                          for a in angles_deg])
    peak_idx = int(np.argmin(distances))
    peak = power[peak_idx]

    def first_minimum(direction):
        i = peak_idx
        for _ in range(n - 1):
            j = (i + direction) % n
            if power[j] > power[i]:
                return i
            i = j
        return None

    def half_power_offset(direction):
        half = 0.5 * peak
        i = peak_idx
        offset = 0.0
        for _ in range(n - 1):
            j = (i + direction) % n
            if power[j] < half:
                return offset + (power[i] - half) / (power[i] - power[j]) * step
            offset += step
            i = j
        return None

    right_min, left_min = first_minimum(+1), first_minimum(-1)
    right_cross, left_cross = half_power_offset(+1), half_power_offset(-1)
    if right_cross is None or left_cross is None:
        beamwidth = 360.0
    else:
        beamwidth = right_cross + left_cross
    if right_min is None or left_min is None or right_min == left_min:
        return (beamwidth, float("nan"))
    inside = set()
    i = left_min
    for _ in range(n + 1):
        inside.add(i)
        if i == right_min:
            break
        i = (i + 1) % n
    outside = [power[i] for i in range(n) if i not in inside]
    if not outside:
        return (beamwidth, float("nan"))
    highest = max(outside)
    psll = DELTA_F_FLOOR_DB if highest <= 0.0 else \
        float(10.0 * np.log10(highest / peak))
    return (beamwidth, min(psll, 0.0))


def _pattern_cases():
    rng = np.random.default_rng(11)
    # a 1.2-degree cut from 0 has a step of exactly 1.2, and an offset
    # summed step by step parts from k * step at the 6th step (the step of
    # hplane_grid(1.2), 1.200000000000017, only parts at the 218th)
    cuts = [np.rad2deg(hplane_grid(step).phi) for step in (1.0, 0.5, 2.0)]
    for angles in cuts + [1.2 * np.arange(300)]:
        for _ in range(40):
            geom = ArrayGeometry(element_count=int(rng.integers(2, 17)),
                                 spacing=float(rng.uniform(0.05, 0.6)))
            a = rng.standard_normal(geom.element_count) + \
                1j * rng.standard_normal(geom.element_count)
            cut = steering_matrix(geom, np.full(len(angles), np.pi / 2),
                                  np.deg2rad(angles), "in_plane")
            yield np.abs(cut @ a) ** 2, angles, float(rng.uniform(-180, 180))
        yield rng.random(len(angles)) + 1e-3, angles, 0.0
    angles = np.arange(-179.0, 181.0)
    for centre in (180.0, -178.0):
        # a main lobe across the +-180 degree seam, a sidelobe at 0
        off = np.abs((angles - centre + 180.0) % 360.0 - 180.0)
        lobe = np.exp(-0.5 * (off / 9.0) ** 2) + \
            0.1 * np.exp(-0.5 * (angles / 6.0) ** 2)
        yield lobe, angles, centre
    yield np.exp(-0.5 * (angles / 40.0) ** 2), angles, 0.0  # single lobe
    yield np.full(360, 2.0), angles, 10.0  # flat: no crossing, no minimum


def test_pattern_metrics_matches_scalar_walk():
    count = 0
    for power, angles, steer in _pattern_cases():
        m = pattern_metrics(power, angles, steer)
        got = (m.beamwidth_3db_deg, m.psll_db)
        want = _pattern_metrics_scalar(power, angles, steer)
        assert np.array_equal(np.array(got), np.array(want),
                              equal_nan=True), (steer, got, want)
        count += 1
    assert count == 4 * 41 + 4


def test_pattern_metrics_refusals():
    angles = np.arange(-179.0, 181.0)
    power = np.exp(-0.5 * (angles / 8.0) ** 2)
    for p, a in ((power[:3], angles[:3]), (power, angles[:-1])):
        with pytest.raises(ValueError, match="need matching power and "
                           "angle arrays over the circle"):
            pattern_metrics(p, a, 0.0)
    with pytest.raises(ValueError, match="must cover the full circle"):
        pattern_metrics(power[:180], angles[:180], 0.0)
    with pytest.raises(ValueError, match="steer direction has zero power"):
        pattern_metrics(np.where(angles == 90.0, 0.0, power), angles, 90.0)


def test_mrt_vector_rejects_zero():
    with pytest.raises(ValueError, match="steering vector is zero"):
        mrt_vector(np.zeros(3, dtype=complex))


def test_condition_gate_and_override():
    geom = ArrayGeometry(element_count=8, spacing=0.01)
    z = z_isotropic_closed(geom)
    e = steering_vector(geom, ENDFIRE)
    with pytest.raises(ConditionGateError):
        traditional_vector(z, e)
    a = traditional_vector(z, e, tikhonov=1e-8)
    assert np.isfinite(a).all()


def test_solution_stability_smoke():
    # small perturbations of a well-conditioned system move the answer
    # by O(sigma), not catastrophically
    geom, z, e = _pair(0.4)
    a0 = traditional_vector(z, e)
    rng = np.random.default_rng(9)
    sigma = 1e-6
    for _ in range(20):
        dz = sigma * rng.standard_normal((2, 2))
        dz = 0.5 * (dz + dz.T)
        z_pert = ImpedanceMatrix(values=z.values + dz)
        a1 = traditional_vector(z_pert, e)
        phase = np.vdot(a1, a0)
        a1 = a1 * phase / abs(phase)
        assert np.linalg.norm(a1 - a0) < 100.0 * sigma
