"""Command-line front end: argument parsing and files around ``experiment``.

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

import numpy as np

from . import acceptance, beamforming, coupling, experiment, fileio, impedance
from .fileio import ValidationError
from .geometry import hplane_degrees
from .linalg import ConditionGateError


def cmd_sweep(args):
    config = experiment.steered_config(args.config)
    try:
        rows = experiment.sweep_rows(config, tikhonov=args.regularize)
    except beamforming.PowerError as exc:  # past the gate: a grid too coarse
        raise ValidationError("%s: %s (grid.n_theta = %d, grid.n_phi = %d)" % (
            args.config, exc, config.n_theta, config.n_phi)) from exc
    except ValueError as exc:
        raise ValidationError("%s: %s" % (args.config, exc)) from exc
    fileio.write_sweep_csv(args.out, rows)
    return 0


def cmd_pattern(args):
    config = experiment.steered_config(args.config)
    psi_deg = hplane_degrees(config.h_plane_step_deg)
    _, z, e, c_true, cut = next(
        experiment.arrays(config, [config.geometry.spacing]))
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
    if args.measurements and (args.es or args.ec):
        raise ValidationError("estimate-c takes either --es and --ec or "
                              "--measurements, not both")
    if args.measurements:
        if not args.config:
            raise ValidationError("--measurements requires --config for geometry")
        geom = experiment.ExperimentConfig.from_file(args.config).geometry
        es, ec = _measured_fields(args, geom)
        source = args.measurements
    elif args.es and args.ec:
        for flag, value in (("--config", args.config),
                            ("--amplitude", args.amplitude)):
            if value is not None:
                raise ValidationError("estimate-c takes %s with "
                                      "--measurements, not with --es and "
                                      "--ec" % (flag,))
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
    ``args.amplitude`` (power when not given)."""
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
        measurements = [fileio.read_measurement_csv(path) for path in paths]
        try:
            fields.append(coupling.fields_from_measurements(
                measurements, args.amplitude or "power"))
        except ValueError as exc:
            raise ValidationError("%s: %s" % (directory, exc)) from exc
    return tuple(fields)


def cmd_ingest(args):
    geom = experiment.ExperimentConfig.from_file(args.config).geometry
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
                           help="measurement amplitude column semantics "
                           "(default power)")
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
    p.add_argument("--tamper", type=int, default=None, metavar="N",
                   choices=range(1, len(acceptance.CRITERIA) + 1),
                   help="inject a fault into criterion N (harness self-test)")
    p.set_defaults(func=cmd_acceptance)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except ConditionGateError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
