"""The configured experiment: a config file read and checked, the
array it describes at each spacing of its sweep, and one row of
metrics per spacing and method.

The command front end (``cli``) and the acceptance suite both run it.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import beamforming, fileio, impedance, surrogate
from .fileio import ValidationError
from .geometry import (ArrayGeometry, Direction, hplane_degrees, sphere_grid,
                       steering_matrix, steering_vector)

ALL_METHODS = ("mrt", "traditional", "proposed", "theoretical")


# The keys each config section accepts; "" is the top level.
CONFIG_KEYS = {
    "": ("geometry", "methods", "sweep", "grid", "efficiency"),
    "geometry": ("elements", "spacing_wl", "element", "steer_theta_deg",
                 "steer_phi_deg"),
    "sweep": ("d_min", "d_max", "steps"),
    "grid": ("n_theta", "n_phi", "h_plane_step_deg"),
}


def _section(path, doc, name):
    """Config section ``name`` as a dict whose keys are all known."""
    section = fileio.read_section(doc, name, path) if name else doc
    if not isinstance(section, dict):
        raise ValidationError("%s: the config must be a JSON object" %
                              (path,))
    for key in section:
        if key not in CONFIG_KEYS[name]:
            raise ValidationError("%s: unknown key %s; valid keys: %s" % (
                path, ".".join(filter(None, (name, key))),
                ", ".join(CONFIG_KEYS[name])))
    return section


def _number(path, section, name, key, kind=fileio.number):
    """``kind`` value of ``section[key]``, else the field default;
    ``kind`` is ``fileio.number`` or ``fileio.integer``."""
    return fileio.read_value(section, ".".join(filter(None, (name, key))),
                             kind, path, getattr(ExperimentConfig, key))


@dataclass
class ExperimentConfig:
    geometry: ArrayGeometry
    steer: Direction
    methods: tuple = ALL_METHODS
    d_min: float = 0.05
    d_max: float = 0.5
    steps: int = 19
    efficiency: float = 1.0
    n_theta: int = 64
    n_phi: int = 128
    h_plane_step_deg: float = 1.0

    @classmethod
    def from_file(cls, path):
        doc = _section(path, fileio.read_json(path), "")
        geom, steer = fileio.geometry_from_dict(
            _section(path, doc, "geometry"), path)
        methods = doc.get("methods", ALL_METHODS)
        if not isinstance(methods, (list, tuple)):
            raise ValidationError("%s: methods must be a list" % (path,))
        for method in methods:
            if method not in ALL_METHODS:
                raise ValidationError("%s: unknown method %r" % (path, method))
        if not methods or len(set(methods)) < len(methods):
            raise ValidationError("%s: methods must name at least one method, "
                                  "none twice" % (path,))
        sweep = _section(path, doc, "sweep")
        d_min = _number(path, sweep, "sweep", "d_min")
        d_max = _number(path, sweep, "sweep", "d_max")
        steps = _number(path, sweep, "sweep", "steps", fileio.integer)
        if not 0.0 < d_min < d_max:
            raise ValidationError("%s: sweep needs 0 < d_min < d_max" % (path,))
        try:
            replace(geom, spacing=d_min)
        except ValueError as exc:
            raise ValidationError("%s: sweep.d_min: %s" % (path, exc)) from exc
        if steps < 2:
            raise ValidationError("%s: sweep needs steps >= 2" % (path,))
        efficiency = _number(path, doc, "", "efficiency")
        if not 0.0 < efficiency <= 1.0:
            raise ValidationError("%s: efficiency must lie in (0, 1]" % (path,))
        grid = _section(path, doc, "grid")
        n_theta = _number(path, grid, "grid", "n_theta", fileio.integer)
        n_phi = _number(path, grid, "grid", "n_phi", fileio.integer)
        for key, value in (("n_theta", n_theta), ("n_phi", n_phi)):
            if value < 2:
                raise ValidationError("%s: grid.%s must be >= 2, got %d" %
                                      (path, key, value))
        step = _number(path, grid, "grid", "h_plane_step_deg")
        try:
            cut_points = len(hplane_degrees(step))
        except ValueError as exc:
            raise ValidationError(
                "%s: grid.h_plane_step_deg: %s" % (path, exc)) from exc
        if cut_points < 4:
            # pattern_metrics needs a lobe and its neighbours on the cut
            raise ValidationError(
                "%s: grid.h_plane_step_deg: %g leaves %d cut points, need "
                "at least 4" % (path, step, cut_points))
        return cls(geometry=geom, steer=steer, methods=tuple(methods),
                   d_min=d_min, d_max=d_max, steps=steps,
                   efficiency=efficiency, n_theta=n_theta, n_phi=n_phi,
                   h_plane_step_deg=step)


def steered_config(path):
    """The config of a command that steers the array (sweep, pattern)."""
    config = ExperimentConfig.from_file(path)
    # Past -120 dB the excitations solved from e underflow into NaN.
    if abs(steering_vector(config.geometry, config.steer)[0]) < 1e-6:
        raise ValidationError("%s: geometry.steer_theta_deg: the element "
                              "radiates below -120 dB there" % (path,))
    return config


def _cut(config):
    """(orientation, theta, phi, steer angle in degrees) of the config's
    full-circle cut.  Dipole arrays run in the measurement (in-plane)
    configuration, cut in the theta = pi/2 plane and steered in phi;
    other arrays are cut through their axis and steered in theta."""
    psi = np.deg2rad(hplane_degrees(config.h_plane_step_deg))
    steer = config.steer
    if config.geometry.element == "ideal_dipole":
        return ("in_plane", np.full(len(psi), np.pi / 2), psi,
                float(np.rad2deg(steer.phi)))
    opposite = steer.phi + np.pi if steer.phi <= 0.0 else steer.phi - np.pi
    return ("axial", np.abs(psi), np.where(psi >= 0.0, steer.phi, opposite),
            float(np.rad2deg(steer.theta)))


def arrays(config, spacings):
    """Yield (geometry, Z, steering vector, ground-truth C as a
    CouplingMatrix, cut matrix) of the configured array at each spacing.
    Every spacing's Z and C are built and checked before the first is
    yielded, so a spacing that fails either raises before any row."""
    orientation, cut_theta, cut_phi, _ = _cut(config)
    grid = sphere_grid(config.n_theta, config.n_phi)
    networks = impedance.port_impedance_sweep(config.geometry, spacings)
    zs = impedance.z_full_sweep(config.geometry, grid, spacings, orientation)
    c_trues = surrogate.coupling_truth_sweep(networks)
    for d, z, c_true in zip(spacings, zs, c_trues):
        geom = replace(config.geometry, spacing=float(d))
        e = steering_vector(geom, config.steer, orientation)
        cut = steering_matrix(geom, cut_theta, cut_phi, orientation)
        yield geom, z, e, c_true, cut


def sweep_rows(config, tikhonov=None):
    """One row of metrics per spacing and method.  At each spacing, each
    method's excitation, its directivity and gain and its cut field are
    computed once; the theoretical row is the traditional excitation
    radiating as it is (w = a), so it reuses them, and its pattern
    deviation is the floor."""
    r_loss = beamforming.loss_resistance(config.efficiency)
    psi_deg = hplane_degrees(config.h_plane_step_deg)
    steer_deg = _cut(config)[3]
    spacings = np.linspace(config.d_min, config.d_max, config.steps)
    rows = []
    for geom, z, e, c_true, cut in arrays(config, spacings):
        cond_z = z.condition
        cond_c = float(c_true.condition)
        d_max = beamforming.max_directivity(z, e, tikhonov=tikhonov)
        excited = {}
        for method in config.methods:
            base = "traditional" if method == "theoretical" else method
            if base not in excited:
                a, w = beamforming.synthesize(base, z, e, c_true.values,
                                              tikhonov=tikhonov,
                                              c_condition=c_true.condition)
                excited[base] = (w, beamforming.directivities(
                    a, e, z, (0.0, r_loss)), cut @ a)
            w, (d_a, g_a), field_a = excited[base]
            if method == "theoretical":
                direct, g, d_w = d_max, g_a, d_a
                field_w, df = field_a, beamforming.DELTA_F_FLOOR_DB
            else:
                d_w, g = beamforming.directivities(w, e, z, (0.0, r_loss))
                direct = d_w
                field_w = cut @ w
                df = beamforming.delta_f_from_patterns(field_a, field_w)
            metrics = beamforming.pattern_metrics(np.abs(field_w) ** 2,
                                                  psi_deg, steer_deg)
            rows.append({"spacing_wl": geom.spacing, "method": method,
                         "directivity": direct, "gain": g,
                         "beamwidth_deg": metrics.beamwidth_3db_deg,
                         "psll_db": metrics.psll_db,
                         "delta_d": d_a - d_w, "delta_f_db": df,
                         "condition_z": cond_z, "condition_c": cond_c})
    return rows
