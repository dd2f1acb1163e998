import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir.linalg import (ConditionGateError, condition_number,
                             gated_solve, lstsq_cutoff, singular_ratio)


def test_gated_solve_well_conditioned():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 0.0])
    x, cond = gated_solve(a, b)
    assert_allclose(a @ x, b, atol=1e-14)
    assert_allclose(cond, condition_number(a), rtol=1e-12)


def test_gated_solve_raises_past_gate():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(ConditionGateError) as err:
        gated_solve(a, np.ones(2), context="test matrix")
    assert "test matrix" in str(err.value)
    assert err.value.condition > err.value.threshold


def test_gated_solve_tikhonov_override():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    x, cond = gated_solve(a, np.array([2.0, 2.0]), tikhonov=1e-6)
    # regularized system (A + eps I) x = b stays near the minimum-norm answer
    assert_allclose(x, np.ones(2), atol=1e-5)
    assert not np.isfinite(cond) or cond > 1e12


def test_lstsq_cutoff_discards_null_directions():
    a = np.array([[1.0, 0.0], [0.0, 1e-14], [0.0, 0.0]])
    b = np.array([3.0, 1.0, 0.0])
    x, rank, _ = lstsq_cutoff(a, b)
    assert rank == 1
    assert_allclose(x[0], 3.0, rtol=1e-12)
    assert abs(x[1]) < 1e-6


def test_singular_ratio():
    assert singular_ratio(np.eye(3)) == 1.0
    assert singular_ratio(np.zeros((2, 2))) == 0.0
    a = np.diag([4.0, 1.0])
    assert_allclose(singular_ratio(a), 0.25, rtol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_refuse_non_finite_input(bad):
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 0.0])
    broken_a = a.copy()
    broken_a[1, 0] = bad
    broken_b = b.copy()
    broken_b[1] = bad
    for tikhonov in (None, 1e-6):
        with pytest.raises(ValueError):
            gated_solve(broken_a, b, tikhonov=tikhonov)
        with pytest.raises(ValueError):
            gated_solve(a, broken_b, tikhonov=tikhonov)
        with pytest.raises(ValueError):  # given a condition number
            gated_solve(broken_a, b, tikhonov=tikhonov, condition=4.0)
    # and so is the Tikhonov epsilon
    with pytest.raises(ValueError):
        gated_solve(np.ones((2, 2)), b, tikhonov=bad)
    with pytest.raises(ValueError):
        lstsq_cutoff(broken_a, b)
    with pytest.raises(ValueError):
        lstsq_cutoff(a, broken_b)
