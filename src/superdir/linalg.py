"""Gated linear solves and least squares used across the package.

Matrix inverses are never formed.  Solves go through
:func:`gated_solve`, which reports the condition number and refuses to
proceed past a conditioning threshold unless an explicit Tikhonov
parameter is supplied.
"""

import numpy as np
import scipy.linalg

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
    cond = condition_number(a) if condition is None else condition
    if not np.isfinite(cond) or cond > CONDITION_GATE:
        if tikhonov is None:
            raise ConditionGateError(cond, CONDITION_GATE, context)
        a = a + tikhonov * np.eye(a.shape[0], dtype=a.dtype)
    x = scipy.linalg.solve(a, b)
    return x, cond


def lstsq_cutoff(a, b):
    """Least-squares solve with singular values below cutoff discarded."""
    x, _, rank, sv = scipy.linalg.lstsq(a, b, cond=LSTSQ_CUTOFF)
    return x, rank, sv


def singular_ratio(a):
    """Smallest over largest singular value; 0 for an all-zero matrix."""
    sv = np.linalg.svd(np.asarray(a), compute_uv=False)
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])
