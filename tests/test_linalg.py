import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from superdir.linalg import (ConditionGateError, _allclose, condition_number,
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
    x, ratio = lstsq_cutoff(a, b)
    assert_allclose(ratio, 1e-14, rtol=1e-12)
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


def _no_warnings(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("b", [0.0, 1.0, -0.7, 3e-8, -2.5e6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_allclose_matches_numpy_at_the_tolerance_edge(b, sign):
    # a = b +- (atol + 1e-5 |b|) and the few doubles around it, so the
    # candidates straddle the edge by single ulps on both sides
    edge = b + sign * (1e-12 + 1e-5 * abs(b))
    candidates = [edge]
    for direction in (np.inf, -np.inf):
        a = edge
        for _ in range(3):
            a = np.nextafter(a, direction)
            candidates.append(a)
    verdicts = set()
    for a in candidates:
        expected = np.allclose(np.array([a]), np.array([b]), atol=1e-12)
        assert _no_warnings(_allclose, np.array([a]), np.array([b]),
                            1e-12) is expected, (a, b)
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("a, b", [
    (np.inf, np.inf), (-np.inf, -np.inf), (np.inf, -np.inf),
    (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, -np.inf),
    (np.nan, np.nan), (np.nan, 1.0), (1.0, np.nan), (np.nan, np.inf),
    (np.inf, np.nan)])
def test_allclose_matches_numpy_on_non_finite_values(a, b):
    x, y = np.array([[1.0, a], [a, 1.0]]), np.array([[1.0, b], [b, 1.0]])
    expected = np.allclose(x, y, atol=1e-12)
    assert _no_warnings(_allclose, x, y, 1e-12) is expected
    # against a scalar, as a unit diagonal is checked
    assert _no_warnings(_allclose, np.array([a]), b, 1e-12) is \
        np.allclose(np.array([a]), b, atol=1e-12)


def test_allclose_matches_numpy_on_a_symmetry_check():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 6))
    z = z + z.T
    assert _allclose(z, z.T, 1e-12) is True
    for offset in (1e-13, 1e-11, 1e-6):
        skew = z.copy()
        skew[0, 5] += offset
        assert _allclose(skew, skew.T, 1e-12) is \
            np.allclose(skew, skew.T, atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_condition_number_is_bit_equal_to_numpy_cond(dtype):
    rng = np.random.default_rng(11)
    for m_count in range(1, 33):
        a = rng.standard_normal((m_count, m_count))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((m_count, m_count))
        got = condition_number(a)
        assert type(got) is float
        assert got == float(np.linalg.cond(a)), m_count


def test_condition_number_of_singular_and_zero_matrices_is_inf():
    for a in (np.diag([1.0, 0.0]), np.zeros((3, 3)),
              np.zeros((2, 2), dtype=complex)):
        assert _no_warnings(condition_number, a) == np.inf
        assert float(np.linalg.cond(a)) == np.inf


def test_condition_number_of_a_nan_matrix_follows_numpy():
    # this LAPACK may refuse the SVD of a NaN-holding matrix; where it
    # returns NaN singular values, cond keeps the NaN
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    try:
        expected = float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            condition_number(a)
    else:
        assert np.isnan(expected) and np.isnan(condition_number(a))


def test_condition_number_keeps_nan_only_for_a_nan_matrix(monkeypatch):
    # the rule np.linalg.cond applies to a 0/0 or NaN ratio, on singular
    # values as a LAPACK that passes NaN through returns them
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, compute_uv: np.array([np.nan, np.nan]))
    assert np.isnan(condition_number(np.array([[1.0, np.nan], [0.0, 1.0]])))
    assert condition_number(np.eye(2)) == np.inf


def test_condition_number_of_a_stack_is_each_matrix_own():
    # one stacked SVD, bit-equal per matrix, with the inf rule per matrix
    rng = np.random.default_rng(7)
    stack = (rng.standard_normal((6, 5, 5)) +
             1j * rng.standard_normal((6, 5, 5)))
    stack[2] = 0.0
    stack[4, :, 0] = 0.0
    got = _no_warnings(condition_number, stack)
    assert got.shape == (6,)
    assert got[2] == np.inf
    for a, cond in zip(stack, got):
        assert (np.float64(cond).view(np.int64) ==
                np.float64(condition_number(a)).view(np.int64))
