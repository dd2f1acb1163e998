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
from .linalg import condition_number, gate_sweep


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


def coupling_truth_sweep(networks, term=TerminationSpec()):
    """Ground-truth coupling matrix of each terminated port network, as
    a list.

    ``networks`` is a sequence of complex (M, M) port networks.
    Exciting port m with a unit source while the others are loaded with
    Z_L induces currents (Z_c + Z_L I)^-1 applied column by column; the
    current matrix scaled to unit mean diagonal is C_true.  The gate's
    SVDs, the solves and cond(C) are one stacked LAPACK call each, and a
    network that fails a check raises what solving the networks one at
    a time through ``linalg.gated_solve`` would raise first.
    """
    networks = np.asarray(networks)
    m_count = networks.shape[-1]
    a = networks + term.load * np.eye(m_count)
    conditions, refusal = gate_sweep(a, context="terminated port network")
    currents = np.linalg.solve(a[:len(conditions)],
                               np.eye(m_count, dtype=complex))
    scale = np.diagonal(currents, axis1=-2, axis2=-1).mean(axis=-1)
    if (scale == 0.0).any():
        raise ValueError("degenerate port network: zero mean diagonal current")
    if refusal is not None:
        raise refusal
    c = currents / scale[:, None, None]
    return [CouplingMatrix(values=values, condition=cond)
            for values, cond in zip(c, condition_number(c).tolist())]


def coupling_truth(zc, term=TerminationSpec()):
    """``coupling_truth_sweep`` of the one (M, M) port network ``zc``."""
    return coupling_truth_sweep([zc], term)[0]


def coupled_fields(geom, grid, zc, term=TerminationSpec()):
    """E_c = E_s C_true, exactly, and C_true from ``coupling_truth``."""
    if len(zc) != geom.element_count:
        raise ValueError("port network size does not match the geometry")
    c_true = coupling_truth(zc, term)
    return couple(isolated_fields(geom, grid), c_true.values), c_true
