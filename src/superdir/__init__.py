"""Superdirective beamforming for compact uniform linear arrays.

Models the impedance matrix Z (pattern overlap integrals), the field
coupling matrix C (distortion of the embedded patterns), recovers C
from sampled far fields, and synthesizes excitations that keep the
theoretical directivity bound under both couplings.
"""

from .beamforming import (ExcitationVector, PatternMetrics, delta_d, delta_f,
                          delta_f_from_patterns, directivity,
                          directivity_coupled, eig_crosscheck, gain,
                          loss_resistance, max_directivity, mrt_vector,
                          pattern_metrics, power_decomposition,
                          proposed_vector, traditional_vector)
from .coupling import (CouplingMatrix, FieldMatrix, PatternMeasurement,
                       column_symmetry_residual, default_reduced_angles,
                       estimate_c_full, estimate_c_reduced,
                       fields_from_measurements, minimum_angles)
from .geometry import (AngularGrid, ArrayGeometry, Direction, hplane_grid,
                       sphere_grid, steering_matrix, steering_vector)
from .impedance import (ImpedanceMatrix, PortImpedanceMatrix,
                        mutual_impedance_emf, port_impedance_emf,
                        port_impedance_for, z_from_measurements, z_full,
                        z_hplane, z_isotropic_closed)
from .linalg import ConditionGateError, condition_number, gated_solve
from .surrogate import (TerminationSpec, coupled_fields, coupling_truth,
                        isolated_fields, radiated_pattern)

__version__ = "0.1.0"

__all__ = [
    "AngularGrid", "ArrayGeometry", "ConditionGateError", "CouplingMatrix",
    "Direction", "ExcitationVector", "FieldMatrix", "ImpedanceMatrix",
    "PatternMeasurement", "PatternMetrics", "PortImpedanceMatrix",
    "TerminationSpec", "column_symmetry_residual", "condition_number",
    "coupled_fields", "coupling_truth", "default_reduced_angles", "delta_d",
    "delta_f", "delta_f_from_patterns", "directivity", "directivity_coupled",
    "eig_crosscheck", "estimate_c_full", "estimate_c_reduced",
    "fields_from_measurements",
    "gain", "gated_solve", "hplane_grid", "isolated_fields",
    "loss_resistance", "max_directivity", "minimum_angles", "mrt_vector",
    "mutual_impedance_emf", "pattern_metrics", "port_impedance_emf",
    "port_impedance_for", "power_decomposition", "proposed_vector",
    "radiated_pattern", "sphere_grid", "steering_matrix", "steering_vector",
    "traditional_vector", "z_from_measurements", "z_full", "z_hplane",
    "z_isotropic_closed",
]
