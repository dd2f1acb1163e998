"""Command-line front end.

Subcommands: ``sweep`` (spacing sweep CSV), ``pattern`` (per-method
H-plane cuts), ``estimate-c`` (coupling matrix from field dumps or
measurements), ``ingest`` (measurement CSVs to Z and C JSON), and
``acceptance`` (the built-in acceptance suite).

Exit codes: 0 success, 1 validation error, 2 numerical condition gate,
3 acceptance failure.
"""

import argparse
import glob
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import beamforming, coupling, fileio, impedance, surrogate
from .fileio import ValidationError
from .geometry import (ArrayGeometry, Direction, hplane_degrees, sphere_grid,
                       steering_matrix, steering_vector)
from .linalg import ConditionGateError, condition_number

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
    section = doc.get(name, {}) if name else doc
    if not isinstance(section, dict):
        raise ValidationError("%s: %s must be a JSON object" %
                              (path, name or "the config"))
    for key in section:
        if key not in CONFIG_KEYS[name]:
            raise ValidationError("%s: unknown key %s; valid keys: %s" % (
                path, ".".join(filter(None, (name, key))),
                ", ".join(CONFIG_KEYS[name])))
    return section


def _number(path, section, name, key, kind=float):
    """Finite ``kind`` value of ``section[key]``, else the field default."""
    try:
        value = kind(section.get(key, getattr(ExperimentConfig, key)))
        if not np.isfinite(value):
            raise ValueError("must be finite, got %r" % (value,))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError("%s: %s: %s" % (
            path, ".".join(filter(None, (name, key))), exc)) from exc
    return value


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
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError("%s: %s" % (path, exc)) from exc
        doc = _section(path, doc, "")
        geom, steer = fileio.geometry_from_dict(
            _section(path, doc, "geometry"), path)
        methods = doc.get("methods", ALL_METHODS)
        if not isinstance(methods, (list, tuple)):
            raise ValidationError("%s: methods must be a list" % (path,))
        for method in methods:
            if method not in ALL_METHODS:
                raise ValidationError("%s: unknown method %r" % (path, method))
        sweep = _section(path, doc, "sweep")
        d_min = _number(path, sweep, "sweep", "d_min")
        d_max = _number(path, sweep, "sweep", "d_max")
        steps = _number(path, sweep, "sweep", "steps", int)
        if not d_min < d_max:
            raise ValidationError("%s: sweep needs d_min < d_max" % (path,))
        if steps < 2:
            raise ValidationError("%s: sweep needs steps >= 2" % (path,))
        efficiency = _number(path, doc, "", "efficiency")
        if not 0.0 < efficiency <= 1.0:
            raise ValidationError("%s: efficiency must lie in (0, 1]" % (path,))
        grid = _section(path, doc, "grid")
        n_theta = _number(path, grid, "grid", "n_theta", int)
        n_phi = _number(path, grid, "grid", "n_phi", int)
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


def _orientation_for(geom):
    """Dipole arrays run in the measurement (in-plane) configuration."""
    return "in_plane" if geom.element == "ideal_dipole" else "axial"


def _cut_angles(config, orientation):
    """(theta, phi) arrays of the full-circle cut at the config's step."""
    psi = np.deg2rad(hplane_degrees(config.h_plane_step_deg))
    if orientation == "in_plane":
        theta = np.full(len(psi), np.pi / 2)
        phi = psi
    else:
        theta = np.abs(psi)
        opposite = config.steer.phi + np.pi if config.steer.phi <= 0.0 \
            else config.steer.phi - np.pi
        phi = np.where(psi >= 0.0, config.steer.phi, opposite)
    return theta, phi


def _steer_cut_angle(config, orientation):
    if orientation == "in_plane":
        return float(np.rad2deg(config.steer.phi))
    return float(np.rad2deg(config.steer.theta))


def _arrays(config, spacings):
    """Yield (geometry, Z, steering vector, ground-truth C, cut matrix) of
    the configured array at each spacing."""
    orientation = _orientation_for(config.geometry)
    grid = sphere_grid(config.n_theta, config.n_phi)
    cut_theta, cut_phi = _cut_angles(config, orientation)
    for d in spacings:
        geom = replace(config.geometry, spacing=float(d))
        z = impedance.z_full(geom, grid, orientation)
        e = steering_vector(geom, config.steer, orientation)
        c_true = surrogate.coupling_truth(impedance.port_impedance_for(geom))
        cut = steering_matrix(geom, cut_theta, cut_phi, orientation)
        yield geom, z, e, c_true, cut


def _sweep_rows(config, tikhonov=None):
    orientation = _orientation_for(config.geometry)
    r_loss = beamforming.loss_resistance(config.efficiency)
    psi_deg = hplane_degrees(config.h_plane_step_deg)
    steer_deg = _steer_cut_angle(config, orientation)
    spacings = np.linspace(config.d_min, config.d_max, config.steps)
    rows = []
    for geom, z, e, c_true, cut in _arrays(config, spacings):
        cond_z = condition_number(z.values)
        cond_c = float(c_true.condition)
        d_max = beamforming.max_directivity(z, e, tikhonov=tikhonov)
        for method in config.methods:
            a, c_eval = beamforming.synthesize(method, z, e, c_true,
                                               tikhonov=tikhonov)
            if method == "theoretical":
                direct = d_max
            else:
                direct = beamforming.directivity_coupled(a, c_eval, e, z)
            g = beamforming.gain(a, c_eval, e, z, r_loss)
            dd = beamforming.delta_d(a, c_eval, e, z)
            field_th = cut @ a.values
            field_ac = cut @ (c_eval.values @ a.values)
            df = beamforming.delta_f_from_patterns(field_th, field_ac)
            power = np.abs(field_ac) ** 2
            metrics = beamforming.pattern_metrics(power, psi_deg, steer_deg)
            rows.append({"spacing_wl": geom.spacing, "method": method,
                         "directivity": direct, "gain": g,
                         "beamwidth_deg": metrics.beamwidth_3db_deg,
                         "psll_db": metrics.psll_db,
                         "delta_d": dd, "delta_f_db": df,
                         "condition_z": cond_z, "condition_c": cond_c})
    return rows


def cmd_sweep(args):
    config = ExperimentConfig.from_file(args.config)
    rows = _sweep_rows(config, tikhonov=args.regularize)
    fileio.write_sweep_csv(args.out, rows)
    return 0


def cmd_pattern(args):
    config = ExperimentConfig.from_file(args.config)
    psi_deg = hplane_degrees(config.h_plane_step_deg)
    _, z, e, c_true, cut = next(_arrays(config, [config.geometry.spacing]))
    root, ext = os.path.splitext(args.out)
    for method in config.methods:
        a, c_eval = beamforming.synthesize(method, z, e, c_true,
                                           tikhonov=args.regularize)
        power = np.abs(cut @ (c_eval.values @ a.values)) ** 2
        peak = power.max()
        if peak <= 0.0:
            raise ValidationError("all-zero pattern for method %s" % (method,))
        db = 10.0 * np.log10(np.maximum(power / peak, 1e-30))
        path = "%s_%s%s" % (root, method, ext or ".csv")
        fileio.write_pattern_csv(path, psi_deg, db)
    return 0


def _reduced_from_fields(ec, geom, n_angles):
    if ec.grid.kind != "h_plane":
        raise ValidationError(
            "--angles requires H-plane field data, got %s" % (ec.grid.kind,))
    wanted = np.rad2deg(coupling.default_reduced_angles(n_angles))
    grid_deg = np.rad2deg(ec.grid.phi)
    idx = []
    for w in wanted:
        idx.append(int(np.argmin(np.abs(grid_deg - w))))
    if len(set(idx)) != len(idx):
        raise ValidationError(
            "grid too coarse to pick %d distinct reduced angles" % (n_angles,))
    angles = np.deg2rad(grid_deg[idx])
    samples = ec.theta_rows()[idx, :]
    return coupling.estimate_c_reduced(samples, angles, geom)


def cmd_estimate_c(args):
    if args.measurements:
        if not args.config:
            raise ValidationError("--measurements requires --config for geometry")
        config = ExperimentConfig.from_file(args.config)
        geom = config.geometry
        isolated, coupled = _read_measurement_sets(args.measurements, geom)
        es = coupling.fields_from_measurements(isolated, args.amplitude)
        ec = coupling.fields_from_measurements(coupled, args.amplitude)
    elif args.es and args.ec:
        es, geom = fileio.read_field_dump(args.es)
        ec, geom_ec = fileio.read_field_dump(args.ec)
        if (geom.element_count, geom.spacing, geom.element) != \
                (geom_ec.element_count, geom_ec.spacing, geom_ec.element):
            raise ValidationError("isolated and coupled dumps disagree on geometry")
    else:
        raise ValidationError(
            "estimate-c needs either --es and --ec manifests or --measurements")
    try:
        if args.angles:
            c = _reduced_from_fields(ec, geom, args.angles)
        else:
            c = coupling.estimate_c_full(es, ec)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    fileio.write_c_json(args.out, c)
    return 0


def _read_measurement_sets(directory, geom):
    sets = []
    for prefix in ("isolated", "coupled"):
        paths = sorted(glob.glob(os.path.join(directory, prefix + "_*.csv")))
        if len(paths) != geom.element_count:
            raise ValidationError(
                "%s: expected %d %s_*.csv files, found %d" %
                (directory, geom.element_count, prefix, len(paths)))
        sets.append([fileio.read_measurement_csv(path, antenna_index=i)
                     for i, path in enumerate(paths)])
    return sets[0], sets[1]


def cmd_ingest(args):
    config = ExperimentConfig.from_file(args.config)
    geom = config.geometry
    isolated, coupled = _read_measurement_sets(args.measurements, geom)
    amplitude, phases, es = coupling.power_patterns_from(isolated,
                                                         args.amplitude)
    z = impedance.z_from_measurements(amplitude, phases)
    ec = coupling.fields_from_measurements(coupled, args.amplitude)
    c = coupling.estimate_c_full(es, ec)
    fileio.write_z_json(args.out + "_z.json", z)
    fileio.write_c_json(args.out + "_c.json", c)
    return 0


def cmd_acceptance(args):
    # Imported here because acceptance imports cli: criterion 14 drives main.
    from . import acceptance
    results = acceptance.run_all(tamper=args.tamper)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print("criterion %2d %-28s %s  (%s)" %
              (result.number, result.name, status, result.detail))
        if not result.passed:
            failures += 1
    print("%d/%d criteria passed" % (len(results) - failures, len(results)))
    return 0 if failures == 0 else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def build_parser():
    amplitude = _Parser(add_help=False)
    amplitude.add_argument("--amplitude", choices=("power", "field"),
                           default="power",
                           help="measurement amplitude column semantics")
    parser = _Parser(prog="superdir",
                     description="superdirective array beamforming toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
            ("sweep", cmd_sweep, "spacing sweep over all methods"),
            ("pattern", cmd_pattern, "H-plane cut per method")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True,
                       help="experiment config JSON")
        p.add_argument("--out", required=True, help="output path (or prefix)")
        p.add_argument("--regularize", type=float, default=None,
                       help="Tikhonov epsilon for gated solves")
        p.set_defaults(func=func)
    p = sub.add_parser("estimate-c", parents=[amplitude],
                       help="estimate the field coupling matrix")
    p.add_argument("--config", help="experiment config JSON (geometry for "
                   "--measurements)")
    p.add_argument("--out", required=True, help="output C JSON")
    p.add_argument("--es", help="manifest JSON of isolated fields")
    p.add_argument("--ec", help="manifest JSON of coupled fields")
    p.add_argument("--measurements", help="directory of measurement CSVs")
    p.add_argument("--angles", type=int, default=None,
                   help="reduced-angle solve with this many azimuths")
    p.set_defaults(func=cmd_estimate_c)
    p = sub.add_parser("ingest", parents=[amplitude],
                       help="measurement CSVs to Z and C JSON")
    p.add_argument("--config", required=True,
                   help="experiment config JSON (geometry)")
    p.add_argument("--out", required=True,
                   help="output prefix for <out>_z.json and <out>_c.json")
    p.add_argument("--measurements", required=True,
                   help="directory of isolated_*.csv and coupled_*.csv")
    p.set_defaults(func=cmd_ingest)
    p = sub.add_parser("acceptance", help="run the acceptance criteria")
    p.add_argument("--tamper", type=int, default=None,
                   help="inject a fault into criterion N (harness self-test)")
    p.set_defaults(func=cmd_acceptance)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except ConditionGateError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
