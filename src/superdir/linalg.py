"""Gated linear solves and least squares used across the package.

Matrix inverses are never formed.  Solves go through
:func:`gated_solve`, which reports the condition number and refuses to
proceed past a conditioning threshold unless an explicit Tikhonov
parameter is supplied.  Solves and least squares refuse a NaN or inf
in their inputs with ``ValueError``, which LAPACK itself does not check.
"""

import math

import numpy as np

CONDITION_GATE = 1e12
LSTSQ_CUTOFF = 1e-12
NON_FINITE = "array must not contain infs or NaNs"


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
            raise ValueError(NON_FINITE)


def condition_number(a):
    """2-norm condition number, bit-equal to ``float(np.linalg.cond(a))``
    from the one SVD, without that wrapper's per-call cost.  As there, a
    NaN ratio (0/0) reads inf unless ``a`` holds a NaN.  A stack of
    matrices (..., M, M) gets an array of their condition numbers from
    one stacked SVD, each bit-equal to its matrix's own."""
    sv = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = sv[..., 0] / sv[..., -1]
    undefined = np.isnan(ratio)
    if undefined.any():
        ratio = np.where(undefined & ~np.isnan(a).any(axis=(-2, -1)),
                         math.inf, ratio)
    return float(ratio) if np.ndim(ratio) == 0 else ratio


def _allclose(a, b, atol):
    """``np.allclose(a, b, atol=atol)``: every |a - b| <= atol + 1e-5 |b|
    where b is finite, or a == b, with the same predicate and without
    that wrapper's per-call cost."""
    with np.errstate(invalid="ignore"):
        return bool(((np.abs(a - b) <= atol + 1e-5 * np.abs(b)) &
                     np.isfinite(b) | (a == b)).all())


def _passes_gate(cond):
    """Whether a condition number, or each of an array of them, is
    finite and within ``CONDITION_GATE``."""
    return np.isfinite(cond) & (cond <= CONDITION_GATE)


def gate_sweep(stack, context="matrix"):
    """The checks ``gated_solve`` without Tikhonov makes, over the whole
    (N, M, M) ``stack`` from one stacked SVD: ``ValueError`` if any
    entry is not finite, then ``ConditionGateError`` for the first
    matrix past the gate.  Returns the condition numbers."""
    stack = np.asarray(stack)
    _require_finite(stack)
    conditions = condition_number(stack)
    passed = _passes_gate(conditions)
    if not passed.all():
        raise ConditionGateError(float(conditions[passed.argmin()]),
                                 CONDITION_GATE, context)
    return conditions


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
    if not _passes_gate(cond):
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
