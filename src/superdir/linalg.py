"""Gated linear solves and least squares used across the package.

Matrix inverses are never formed.  Solves go through
:func:`gated_solve`, which reports the condition number and refuses to
proceed past a conditioning threshold unless an explicit Tikhonov
parameter is supplied.  Solves and least squares refuse a NaN or inf
in their inputs with ``ValueError``, which LAPACK itself does not check.
"""

import numpy as np

CONDITION_GATE = 1e12
LSTSQ_CUTOFF = 1e-12


class ConditionGateError(RuntimeError):
    """Raised when a solve would cross the conditioning gate."""

    def __init__(self, condition, threshold, context):
        self.condition = condition
        self.threshold = threshold
        self.context = context
        super().__init__(
            "%s has condition number %.3e exceeding gate %.3e; "
            "pass an explicit Tikhonov parameter to override" %
            (context, condition, threshold))


def _require_finite(*arrays):
    for array in arrays:
        if not np.isfinite(array).all():
            raise ValueError("array must not contain infs or NaNs")


def condition_number(a):
    return float(np.linalg.cond(a))


def gated_solve(a, b, tikhonov=None, context="matrix", condition=None):
    """Solve a x = b with condition reporting.

    Returns (x, condition).  If the condition number exceeds
    ``CONDITION_GATE`` and no ``tikhonov`` epsilon is given, raises
    :class:`ConditionGateError`; with epsilon, solves (a + eps*I) x = b.
    ``condition``, when given, is ``condition_number(a)`` computed
    earlier by the caller and stands in for a new one.
    """
    a = np.asarray(a)
    _require_finite(a, b)
    cond = condition_number(a) if condition is None else condition
    if not np.isfinite(cond) or cond > CONDITION_GATE:
        if tikhonov is None:
            raise ConditionGateError(cond, CONDITION_GATE, context)
        _require_finite(tikhonov)
        a = a + tikhonov * np.eye(a.shape[0], dtype=a.dtype)
    return np.linalg.solve(a, b), cond


def lstsq_cutoff(a, b):
    """Least-squares solve with singular values below cutoff discarded.

    Returns (x, ``singular_ratio(a)``), the ratio taken from the
    singular values of the one factorization that solves for x.
    """
    _require_finite(a, b)
    x, _, _, sv = np.linalg.lstsq(a, b, rcond=LSTSQ_CUTOFF)
    return x, _ratio(sv)


def singular_ratio(a):
    """Smallest over largest singular value; 0 for an all-zero matrix."""
    return _ratio(np.linalg.svd(np.asarray(a), compute_uv=False))


def _ratio(sv):
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])
