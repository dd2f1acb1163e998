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
from .impedance import HALFWAVE_SELF_IMPEDANCE
from .linalg import condition_number, gated_solve


@dataclass(frozen=True)
class TerminationSpec:
    """Load in ohms on the non-excited ports during coupled-field capture;
    the default conjugate-matches the self impedance that both port
    networks put on their diagonal."""

    load: complex = HALFWAVE_SELF_IMPEDANCE.conjugate()

    def __post_init__(self):
        if self.load.real < 0.0:
            raise ValueError("termination load needs a non-negative real part")


def isolated_fields(geom, grid):
    """E_s: each column is one isolated element sampled over the grid,
    in the grid kind's default orientation."""
    orientation = default_orientation(grid.kind)
    # one row per theta ring on an axial grid: the element gains must
    # depend on theta alone (see AngularGrid.row_points)
    theta, phi, gather = grid.row_points(orientation)
    return FieldMatrix(
        values=steering_matrix(geom, theta, phi, orientation)[gather],
        grid=grid)


def couple(es, c):
    """E_c = E_s C for isolated fields ``es`` and the (M, M) array ``c``."""
    return FieldMatrix(values=es.values @ c, grid=es.grid)


def coupling_truth(zc, term=TerminationSpec()):
    """Ground-truth coupling matrix of the terminated port network.

    ``zc`` is the complex (M, M) port network.  Exciting port m with a
    unit source while the others are loaded with Z_L induces currents
    (Z_c + Z_L I)^-1 applied column by column; the current matrix scaled
    to unit mean diagonal is C_true.
    """
    a = zc + term.load * np.eye(len(zc))
    currents, _ = gated_solve(a, np.eye(len(zc), dtype=complex),
                              context="terminated port network")
    scale = np.mean(np.diag(currents))
    if scale == 0.0:
        raise ValueError("degenerate port network: zero mean diagonal current")
    c = currents / scale
    return CouplingMatrix(values=c, condition=condition_number(c))


def coupled_fields(geom, grid, zc, term=TerminationSpec()):
    """E_c = E_s C_true, exactly, and C_true from ``coupling_truth``."""
    if len(zc) != geom.element_count:
        raise ValueError("port network size does not match the geometry")
    c_true = coupling_truth(zc, term)
    return couple(isolated_fields(geom, grid), c_true.values), c_true
