"""Terminated-port surrogate for coupled far fields.

Stands in for a full-wave simulator: isolated element fields E_s come
straight from the steering phases, and coupled fields E_c follow from a
port network where one element is driven and the rest see matched
loads.  The induced current matrix, scaled so its mean diagonal is 1,
is the ground-truth field coupling matrix C, and E_c = E_s C holds
exactly by construction.
"""

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix, FieldMatrix
from .geometry import default_orientation, steering_matrix
from .linalg import condition_number, gated_solve


@dataclass(frozen=True)
class TerminationSpec:
    """Load on the non-excited ports during coupled-field capture."""

    convention: str = "conjugate_match"
    load: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.convention not in ("conjugate_match", "self_match", "custom"):
            raise ValueError("unknown termination convention %r" %
                             (self.convention,))
        if self.convention == "custom" and self.load.real < 0.0:
            raise ValueError("termination load needs a non-negative real part")

    def resolve(self, self_impedance):
        if self.convention == "conjugate_match":
            return np.conj(self_impedance)
        if self.convention == "self_match":
            return self_impedance
        return self.load


def isolated_fields(geom, grid, orientation=None):
    """E_s: each column is one isolated element sampled over the grid."""
    if orientation is None:
        orientation = default_orientation(grid.kind)
    e_theta = steering_matrix(geom, grid.theta, grid.phi, orientation)
    values = np.zeros((2 * grid.size, geom.element_count), dtype=complex)
    values[0::2] = e_theta
    return FieldMatrix(values=values, grid=grid)


def coupling_truth(zc, term=TerminationSpec()):
    """Ground-truth coupling matrix of the terminated port network.

    Exciting port m with a unit source while the others are loaded with
    Z_L induces currents (Z_c + Z_L I)^-1 applied column by column; the
    current matrix scaled to unit mean diagonal is C_true.
    """
    load = term.resolve(zc.self_impedance)
    a = zc.values + load * np.eye(zc.size)
    currents, _ = gated_solve(a, np.eye(zc.size, dtype=complex),
                              context="terminated port network")
    scale = np.mean(np.diag(currents))
    if scale == 0.0:
        raise ValueError("degenerate port network: zero mean diagonal current")
    c = currents / scale
    return CouplingMatrix(values=c, condition=condition_number(c))


def coupled_fields(geom, grid, zc, term=TerminationSpec(), orientation=None):
    """E_c = E_s C_true, exactly, and C_true from ``coupling_truth``."""
    if zc.size != geom.element_count:
        raise ValueError("port network size does not match the geometry")
    c_true = coupling_truth(zc, term)
    es = isolated_fields(geom, grid, orientation)
    return FieldMatrix(values=es.values @ c_true.values, grid=grid), c_true


def radiated_pattern(excitation, c, geom, grid, orientation=None):
    """Complex field per interleaved row for an excitation through C.

    Evaluates E_s (C a) on the grid; with C = I this is the uncoupled
    pattern function.
    """
    a = np.asarray(getattr(excitation, "values", excitation), dtype=complex)
    c_values = np.asarray(getattr(c, "values", c), dtype=complex)
    if c_values.shape != (geom.element_count, geom.element_count):
        raise ValueError("coupling matrix size does not match the geometry")
    if a.shape != (geom.element_count,):
        raise ValueError("excitation length does not match the geometry")
    es = isolated_fields(geom, grid, orientation)
    return es.values @ (c_values @ a)
