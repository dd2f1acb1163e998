import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir.geometry import (ArrayGeometry, Direction, hplane_grid,
                               sphere_grid, steering_vector)
from superdir.impedance import HALFWAVE_SELF_IMPEDANCE, port_impedance_for
from superdir.coupling import FieldMatrix
from superdir.linalg import singular_ratio
from superdir.surrogate import (TerminationSpec, coupled_fields,
                                coupling_truth, isolated_fields)


def test_termination_load():
    # the default conjugate-matches the self impedance on both networks'
    # diagonal
    assert TerminationSpec().load == np.conj(HALFWAVE_SELF_IMPEDANCE)
    assert TerminationSpec(load=50.0 + 0j).load == 50.0 + 0j
    with pytest.raises(ValueError):
        TerminationSpec(load=-1.0 + 0j)


@pytest.mark.parametrize("element", ["isotropic", "ideal_dipole"])
@pytest.mark.parametrize("m_count", [2, 8, 32])
@pytest.mark.parametrize("spacing", [1e-4, 1e-3, 0.01, 0.1, 0.5])
def test_terminated_port_network_stays_far_from_the_gate(element, m_count,
                                                         spacing):
    # cond(Z_c + Z_L) peaks near 37 over M <= 32 and d in [1e-4, 0.5], so
    # the 1e12 gate in coupling_truth cannot trip and --regularize has no
    # port-network solve to reach
    zc = port_impedance_for(ArrayGeometry(m_count, spacing, element))
    loaded = zc + TerminationSpec().load * np.eye(m_count)
    assert np.linalg.cond(loaded) < 1e3


def test_isolated_fields_shape_and_rows():
    geom = ArrayGeometry(element_count=3, spacing=0.3)
    grid = hplane_grid(2.0)
    fields = isolated_fields(geom, grid)
    assert fields.values.shape == (2 * grid.size, 3)
    assert fields.element_count == 3
    # isotropic elements put everything in the theta polarization
    assert_allclose(fields.phi_rows(), 0.0)
    assert_allclose(np.abs(fields.theta_rows()), 1.0)


def test_isolated_fields_phase_progression():
    geom = ArrayGeometry(element_count=2, spacing=0.25)
    grid = hplane_grid(90.0)
    fields = isolated_fields(geom, grid)
    rows = fields.theta_rows()
    # at phi = 90 deg the second element leads by a quarter wavelength
    idx = int(np.argmin(np.abs(grid.phi - np.pi / 2)))
    assert_allclose(rows[idx, 1] / rows[idx, 0], 1.0j, atol=1e-12)


def test_coupled_fields_factorization():
    geom = ArrayGeometry(element_count=4, spacing=0.2,
                         element="ideal_dipole")
    grid = sphere_grid(32, 64)
    es = isolated_fields(geom, grid)
    ec, c = coupled_fields(geom, grid, port_impedance_for(geom),
                           TerminationSpec())
    assert_allclose(ec.values, es.values @ c.values, atol=1e-12)
    # normalization pins the mean self term of C to one
    assert_allclose(np.mean(np.diag(c.values)), 1.0, atol=1e-12)
    assert np.isfinite(c.condition)


def test_coupling_truth_is_the_c_of_coupled_fields():
    geom = ArrayGeometry(element_count=6, spacing=0.15,
                         element="ideal_dipole")
    zc = port_impedance_for(geom)
    term = TerminationSpec(load=HALFWAVE_SELF_IMPEDANCE)  # self match
    _, c = coupled_fields(geom, hplane_grid(5.0), zc, term)
    truth = coupling_truth(zc, term)
    assert np.array_equal(truth.values, c.values)
    assert truth.condition == c.condition
    assert not np.array_equal(coupling_truth(zc).values, c.values)


def test_coupling_strength_grows_as_spacing_shrinks():
    grid = sphere_grid(32, 64)
    ratios = []
    for d in (0.5, 0.1):
        geom = ArrayGeometry(element_count=2, spacing=d,
                             element="ideal_dipole")
        _, c = coupled_fields(geom, grid, port_impedance_for(geom),
                              TerminationSpec())
        ratios.append(abs(c.values[1, 0] / c.values[0, 0]))
    assert_allclose(ratios[0], 0.22183956473903654, rtol=1e-9)
    assert_allclose(ratios[1], 0.46324127448082747, rtol=1e-9)
    assert ratios[1] > ratios[0]


def test_coupled_fields_identity_at_weak_coupling():
    # a nearly diagonal port network leaves the patterns untouched
    geom = ArrayGeometry(element_count=3, spacing=7.25)
    grid = hplane_grid(5.0)
    _, c = coupled_fields(geom, grid, port_impedance_for(geom),
                          TerminationSpec())
    assert np.max(np.abs(c.values - np.eye(3))) < 0.02


def test_singular_ratio_full_rank():
    geom = ArrayGeometry(element_count=4, spacing=0.3)
    fields = isolated_fields(geom, sphere_grid(32, 64))
    assert singular_ratio(fields.values) > 1e-6


def test_field_matrix_validation():
    grid = hplane_grid(90.0)
    with pytest.raises(ValueError):
        FieldMatrix(values=np.zeros((5, 2), dtype=complex), grid=grid)
