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
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import beamforming, coupling, fileio, impedance, surrogate
from .fileio import ValidationError
from .geometry import (ArrayGeometry, Direction, hplane_degrees, sphere_grid,
                       steering_matrix, steering_vector)
from .linalg import ConditionGateError

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


def _steered_config(path):
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


def _arrays(config, spacings):
    """Yield (geometry, Z, steering vector, ground-truth C as a
    CouplingMatrix, cut matrix) of the configured array at each spacing."""
    orientation, cut_theta, cut_phi, _ = _cut(config)
    grid = sphere_grid(config.n_theta, config.n_phi)
    networks = impedance.port_impedance_sweep(config.geometry, spacings)
    for d, zc in zip(spacings, networks):
        geom = replace(config.geometry, spacing=float(d))
        z = impedance.z_full(geom, grid, orientation)
        e = steering_vector(geom, config.steer, orientation)
        c_true = surrogate.coupling_truth(zc)
        cut = steering_matrix(geom, cut_theta, cut_phi, orientation)
        yield geom, z, e, c_true, cut


def _sweep_rows(config, tikhonov=None):
    r_loss = beamforming.loss_resistance(config.efficiency)
    psi_deg = hplane_degrees(config.h_plane_step_deg)
    steer_deg = _cut(config)[3]
    spacings = np.linspace(config.d_min, config.d_max, config.steps)
    rows = []
    for geom, z, e, c_true, cut in _arrays(config, spacings):
        cond_z = z.condition
        cond_c = float(c_true.condition)
        d_max = beamforming.max_directivity(z, e, tikhonov=tikhonov)
        for method in config.methods:
            a, w = beamforming.synthesize(method, z, e, c_true.values,
                                          tikhonov=tikhonov)
            d_w = beamforming.directivity(w, e, z)
            direct = d_max if method == "theoretical" else d_w
            g = beamforming.directivity(w, e, z, r_loss)
            dd = beamforming.directivity(a, e, z) - d_w
            field_ac = cut @ w
            df = beamforming.delta_f_from_patterns(cut @ a, field_ac)
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
    config = _steered_config(args.config)
    try:
        rows = _sweep_rows(config, tikhonov=args.regularize)
    except beamforming.PowerError as exc:  # past the gate: a grid too coarse
        raise ValidationError("%s: %s (grid.n_theta = %d, grid.n_phi = %d)" % (
            args.config, exc, config.n_theta, config.n_phi)) from exc
    except ValueError as exc:
        raise ValidationError("%s: %s" % (args.config, exc)) from exc
    fileio.write_sweep_csv(args.out, rows)
    return 0


def cmd_pattern(args):
    config = _steered_config(args.config)
    psi_deg = hplane_degrees(config.h_plane_step_deg)
    _, z, e, c_true, cut = next(_arrays(config, [config.geometry.spacing]))
    root, ext = os.path.splitext(args.out)
    for method in config.methods:
        _, w = beamforming.synthesize(method, z, e, c_true.values,
                                      tikhonov=args.regularize)
        power = np.abs(cut @ w) ** 2
        peak = power.max()
        if peak <= 0.0:
            raise ValidationError("all-zero pattern for method %s" % (method,))
        db = 10.0 * np.log10(np.maximum(power / peak, 1e-30))
        path = "%s_%s%s" % (root, method, ext or ".csv")
        fileio.write_pattern_csv(path, psi_deg, db)
    return 0


def _reduced_from_fields(ec, geom, n_angles):
    if ec.grid.kind != "h_plane":
        raise ValueError(
            "--angles requires H-plane field data, got %s" % (ec.grid.kind,))
    if n_angles > ec.grid.size:
        raise ValueError("--angles %d exceeds the %d points of the cut" %
                         (n_angles, ec.grid.size))
    wanted = np.rad2deg(coupling.default_reduced_angles(n_angles))
    grid_deg = np.rad2deg(ec.grid.phi)
    idx = []
    for w in wanted:
        idx.append(int(np.argmin(np.abs(grid_deg - w))))
    if len(set(idx)) != len(idx):
        raise ValueError(
            "grid too coarse to pick %d distinct reduced angles" % (n_angles,))
    angles = np.deg2rad(grid_deg[idx])
    samples = ec.theta_rows()[idx, :]
    return coupling.estimate_c_reduced(samples, angles, geom)


def cmd_estimate_c(args):
    if args.measurements:
        if not args.config:
            raise ValidationError("--measurements requires --config for geometry")
        geom = ExperimentConfig.from_file(args.config).geometry
        es, ec = _measured_fields(args, geom)
        source = args.measurements
    elif args.es and args.ec:
        source = "%s and %s" % (args.es, args.ec)
        es, geom = fileio.read_field_dump(args.es)
        ec, geom_ec = fileio.read_field_dump(args.ec)
        if geom != geom_ec:
            raise ValidationError("%s: isolated and coupled dumps disagree "
                                  "on geometry" % (source,))
    else:
        raise ValidationError(
            "estimate-c needs either --es and --ec manifests or --measurements")
    try:
        if args.angles is not None:
            c = _reduced_from_fields(ec, geom, args.angles)
        else:
            c = coupling.estimate_c_full(es, ec)
    except ValueError as exc:
        raise ValidationError("%s: %s" % (source, exc)) from exc
    fileio.write_c_json(args.out, c)
    return 0


def _measured_fields(args, geom):
    """(E_s, E_c) of the isolated_<k>.csv and coupled_<k>.csv files,
    k = 1..M in numeric order, in ``args.measurements``, read with
    ``args.amplitude``."""
    directory = args.measurements
    m_count = geom.element_count
    fields = []
    for prefix in ("isolated", "coupled"):
        found = glob.glob(os.path.join(glob.escape(directory),
                                       prefix + "_*.csv"))
        if len(found) != m_count:
            raise ValidationError(
                "%s: expected %d %s_*.csv files, found %d" %
                (directory, m_count, prefix, len(found)))
        present = {os.path.basename(path) for path in found}
        names = ["%s_%d.csv" % (prefix, k) for k in range(1, m_count + 1)]
        missing = [name for name in names if name not in present]
        if missing:
            raise ValidationError(
                "%s: %s files must be numbered 1 to %d; %s is missing" %
                (directory, prefix, m_count, missing[0]))
        paths = [os.path.join(directory, name) for name in names]
        measurements = [fileio.read_measurement_csv(path, antenna_index=i)
                        for i, path in enumerate(paths)]
        try:
            fields.append(coupling.fields_from_measurements(
                measurements, args.amplitude))
        except ValueError as exc:
            raise ValidationError("%s: %s" % (directory, exc)) from exc
    return tuple(fields)


def cmd_ingest(args):
    geom = ExperimentConfig.from_file(args.config).geometry
    es, ec = _measured_fields(args, geom)
    try:
        z = impedance.z_from_measurements(es.theta_rows())
        c = coupling.estimate_c_full(es, ec)
    except ValueError as exc:
        raise ValidationError("%s: %s" % (args.measurements, exc)) from exc
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


def _positive(kind, noun):
    """argparse type: a ``kind`` value in (0, inf), else exit 1 naming the
    flag and saying it must be ``noun`` > 0."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(
                "must be %s > 0, got %r" % (noun, text))
        return value
    return parse


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
        p.add_argument("--regularize", default=None,
                       type=_positive(float, "a finite number"),
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
    p.add_argument("--angles", type=_positive(int, "an integer"),
                   default=None,
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
