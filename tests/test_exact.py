"""The golden sweeps' directivities against the exact solve of their own
float Z and C: the relative error of every ungated row stays within
cond(Z)·ε (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7
and 9)."""

import os
from fractions import Fraction

import numpy as np
import pytest

from superdir import experiment
from superdir.linalg import CONDITION_GATE

import exact
from tables import read_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EPS = Fraction(float(np.finfo(float).eps))


def test_solve_inverts_the_hilbert_matrix_exactly():
    # H_ij = 1/(i + j + 1) has an integer inverse; a float solve of the
    # 8x8 one keeps about 6 of its digits
    n = 8
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    inverse = exact.solve(hilbert, identity)
    assert all(v.denominator == 1 for column in inverse for v in column)
    assert inverse[0][0] == n * n
    a = np.array([[2.0 + 1.0j, 0.5], [0.25j, 1.0 - 3.0j]])
    b = (np.array([1.0, -2.0]), np.array([0.5, 3.0]))
    x = exact.solve_complex(a, b)
    assert exact.matvec(a, x) == ([Fraction(v) for v in b[0]],
                                  [Fraction(v) for v in b[1]])


@pytest.mark.parametrize("name, ungated", [("iso", 40), ("dipole", 36)])
def test_golden_directivity_is_within_cond_z_eps_of_the_exact_solve(
        name, ungated):
    # theoretical prints e^H Z^-1 e and proposed the directivity of
    # C (C^-1 Z^-1 e*); both equal the exact e^H Z^-1 e of the float Z
    config = experiment.ExperimentConfig.from_file(
        os.path.join(GOLDEN, name, "config.json"))
    rows = read_sweep(os.path.join(GOLDEN, name, "sweep.csv"))
    spacings = np.linspace(config.d_min, config.d_max, config.steps)
    checked = 0
    for geom, z, e, c_true, _ in experiment.arrays(config, spacings):
        at = [row for row in rows if row["spacing_wl"] == geom.spacing and
              row["condition_z"] <= CONDITION_GATE]
        checked += len(at)
        if not at:
            continue
        x = exact.solve_real(z.values, np.conj(e))
        bound = exact.directivity(x, e, z.values, z.self_power)
        b = exact.solve_complex(c_true.values, x)
        proposed = exact.directivity(exact.matvec(c_true.values, b), e,
                                     z.values, z.self_power)
        assert proposed == bound  # C C^-1 = I, exactly
        for row in at:
            if row["method"] in ("theoretical", "proposed"):
                d = Fraction(row["directivity"])
                assert abs(d - bound) / d <= \
                    Fraction(row["condition_z"]) * EPS, row
    assert checked == ungated
