"""Hypothesis fuzzing of the inputs a user hands the package: sweep config
dicts through ``cli.main``, CSV bodies through the table readers, and
damaged dump pairs and measurement sets through ``estimate-c`` and
``ingest``.

Bad input must end in exit 1 (or 2, the condition gate) from the CLI and
in ``ValidationError`` from a reader, never in a traceback.  The arrays
stay tiny (M <= 4, steps <= 3, grid <= 8 x 16): only values the config
reader rejects are out of range, so no example can ask for a large run.
"""

import contextlib
import functools
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdir import cli, experiment, fileio
from superdir.coupling import PatternMeasurement
from superdir.fileio import ValidationError
from superdir.geometry import ArrayGeometry, hplane_grid
from superdir.impedance import port_impedance_for
from superdir.surrogate import coupled_fields, isolated_fields

from tables import read_sweep

FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                database=None)

# Values no config key accepts: wrong types, booleans, strings, null,
# containers and non-finite numbers.
JUNK = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(["0.1", "4", "", "nan"]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf]))


def _key(valid):
    return st.one_of(valid, JUNK)


def _floats(low, high):
    return st.floats(low, high, allow_nan=False)


# Per key, numbers the config reader must reject (d_min = 1e-300 lies
# below the spacing whose square underflows).
OUT_OF_RANGE = {
    "elements": [0, -1, 2.5], "spacing_wl": [0.0, -0.1],
    "element": ["patch", "Isotropic"], "steer_theta_deg": [-1.0, 180.5],
    "steer_phi_deg": [-180.0, 400.0], "methods": [["zf"], "mrt"],
    "d_min": [0.0, -0.1, 0.7, 1e-300], "d_max": [0.0, -1.0],
    "steps": [1, 0, -1, 2.5], "n_theta": [1, 0, 2.5], "n_phi": [1, -3],
    "h_plane_step_deg": [0.0, -1.0, 7.0, 120.0, 1e-300],
    "efficiency": [0.0, 1.5, -0.5]}


@st.composite
def _configs(draw):
    """A valid tiny sweep config with up to three keys broken: set to
    junk or to an out-of-range number, dropped, or joined by a typo;
    one in ten is junk as a whole."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    d_lo, d_hi = sorted(draw(st.lists(_floats(0.01, 0.6), min_size=2,
                                      max_size=2)))
    doc = {"geometry": {"elements": draw(st.integers(1, 4)),
                        "spacing_wl": draw(_floats(0.01, 0.6)),
                        "element": draw(st.sampled_from(
                            ["isotropic", "ideal_dipole"])),
                        "steer_theta_deg": draw(_floats(0.0, 180.0)),
                        "steer_phi_deg": draw(_floats(-179.0, 180.0))},
           "methods": draw(st.lists(st.sampled_from(experiment.ALL_METHODS),
                                    unique=True, max_size=4)),
           "sweep": {"d_min": d_lo, "d_max": d_hi,
                     "steps": draw(st.integers(2, 3))},
           "grid": {"n_theta": draw(st.integers(2, 8)),
                    "n_phi": draw(st.integers(2, 16)),
                    "h_plane_step_deg": draw(st.sampled_from(
                        [10.0, 45.0, 90.0]))},
           "efficiency": draw(_floats(0.01, 1.0))}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["", "geometry", "sweep", "grid"]))
        section = doc.get(name, doc) if name else doc
        if not isinstance(section, dict):
            continue
        key = draw(st.sampled_from(sorted(section) + ["stpes"]))
        change = draw(st.sampled_from(["junk", "range", "drop"]))
        if change == "drop":
            section.pop(key, None)
        elif change == "range" and key in OUT_OF_RANGE:
            section[key] = draw(st.sampled_from(OUT_OF_RANGE[key]))
        else:
            section[key] = draw(JUNK)
    return doc


TINY = {"geometry": {"elements": 2, "spacing_wl": 0.2},
        "sweep": {"steps": 2}, "grid": {"n_theta": 4, "n_phi": 8,
                                        "h_plane_step_deg": 45.0}}


@contextlib.contextmanager
def _stderr():
    """Collect stderr; fail if anything in the block printed a traceback."""
    buffer = io.StringIO()
    with contextlib.redirect_stderr(buffer):
        yield buffer
    assert "Traceback" not in buffer.getvalue(), buffer.getvalue()


# --regularize values the parser refuses: not a number, not finite or
# not above 0.
BAD_EPSILONS = ["abc", "nan", "inf", "0", "-1"]


@settings(FUZZ, max_examples=400)
@given(doc=_configs(),
       regularize=st.one_of(st.sampled_from([None, "1e-12"]),
                            st.sampled_from(BAD_EPSILONS)))
@example(doc=TINY, regularize=None)
@example(doc=dict(TINY, sweep={"d_min": -0.1, "d_max": 0.2, "steps": 2}),
         regularize=None)
@example(doc=dict(TINY, sweep={"d_min": 0.0, "d_max": 0.2, "steps": 2}),
         regularize="1e-12")
@example(doc=dict(TINY, geometry={"elements": 1, "spacing_wl": 0.5,
                                  "element": "ideal_dipole"}),
         regularize=None)  # steered into the dipole's null
@example(doc={"geometry": {"elements": 3, "spacing_wl": 0.5},
              "methods": ["mrt", "traditional"],
              "sweep": {"d_min": 0.5, "d_max": 0.5625, "steps": 2},
              "grid": {"n_theta": 2, "n_phi": 2, "h_plane_step_deg": 10.0}},
         regularize="1e-12")  # a 2 x 2 grid leaves Z singular
@example(doc=dict(TINY, geometry={"elements": 2, "spacing_wl": 0.2,
                                  "element": "ideal_dipole"},
                  sweep={"d_min": 1e-300, "d_max": 0.2, "steps": 2}),
         regularize="1e-12")
def test_sweep_config_never_tracebacks(doc, regularize):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp, "sweep.csv")
        argv = ["sweep", "--config", config, "--out", out]
        if regularize is not None:
            argv += ["--regularize", regularize]
        with _stderr() as err:
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if regularize in BAD_EPSILONS:
            assert code == 1 and "--regularize" in err.getvalue(), \
                err.getvalue()
        if code:
            assert err.getvalue().startswith("error: "), err.getvalue()
            return
        # no silently wrong output: only a single-lobe cut's psll is NaN
        for row in read_sweep(out):
            assert all(math.isfinite(value) for key, value in row.items()
                       if key not in ("method", "psll_db")), row


CELLS = st.sampled_from(["0", "1.5", "-180", "180", "-90", "90", "2", "-1",
                         "nan", "inf", "", "abc", "1e999", " 2 ", "1_0",
                         '"3"', "\x00"])


@st.composite
def _tables(draw, header):
    """CSV text: a header (right, wrong or missing) over rows of cells from
    valid numbers and junk, with LF or CRLF ends and stray blank lines."""
    head = draw(st.sampled_from([header, header[:-1], header[::-1], []]))
    width = st.integers(len(header) - 1, len(header) + 1)
    rows = draw(st.lists(width.flatmap(
        lambda n: st.lists(CELLS, min_size=n, max_size=n)), max_size=6))
    lines = [",".join(head)] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _bodies(header):
    return st.one_of(_tables(header), st.text(max_size=40),
                     st.binary(max_size=40))


def _write(path, body):
    if isinstance(body, str):
        body = body.encode("utf-8", "surrogatepass")
    with open(path, "wb") as handle:
        handle.write(body)


def _reads_or_rejects(read, path):
    """``read(path)`` returns or raises ValidationError, nothing else."""
    with _stderr():
        try:
            read(path)
        except ValidationError:
            pass


@FUZZ
@given(body=_bodies(fileio.MEASUREMENT_COLUMNS))
@example(body="phi_deg,amplitude,phase_deg\n90,1,0\n180,1,0\n")
def test_measurement_csv_never_tracebacks(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "isolated_1.csv")
        _write(path, body)
        _reads_or_rejects(fileio.read_measurement_csv, path)


MANIFEST = {"geometry": {"elements": 1, "spacing_wl": 0.2},
            "grid": {"kind": "h_plane", "step_deg": 90.0},
            "files": ["port_1.csv"]}

GRIDS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["h_plane", "full_sphere", "cube"])},
    optional={"step_deg": _key(st.sampled_from([90.0, 7.0, -1.0])),
              "n_theta": _key(st.integers(-1, 2)),
              "n_phi": _key(st.integers(-1, 2))})

# The valid manifest, junk, or an object whose entries are each valid,
# junk or missing (a grid may also be rebuilt from broken parameters).
ENTRIES = {"geometry": st.one_of(st.just(MANIFEST["geometry"]), JUNK),
           "grid": st.one_of(st.just(MANIFEST["grid"]), JUNK, GRIDS),
           "files": _key(st.lists(st.one_of(st.just("port_1.csv"), JUNK),
                                  max_size=2))}
MANIFESTS = st.one_of(st.just(MANIFEST), JUNK,
                      st.fixed_dictionaries({}, optional=ENTRIES))


@FUZZ
@given(manifest=MANIFESTS, body=_bodies(fileio.DUMP_COLUMNS))
@example(manifest=MANIFEST, body="\n".join(
    ["theta_deg,phi_deg,e_theta_re,e_theta_im,e_phi_re,e_phi_im"] +
    ["90,%d,1,0,0,0" % phi for phi in (-90, 0, 90, 180)]))
@example(manifest=[], body="")
@example(manifest=dict(MANIFEST, files=7), body="")
@example(manifest=dict(MANIFEST, files=[None]), body="")
def test_field_dump_never_tracebacks(manifest, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        _write(os.path.join(tmp, "port_1.csv"), body)
        _reads_or_rejects(fileio.read_field_dump, path)


@functools.lru_cache(maxsize=None)
def _pristine_inputs():
    """{relative path: bytes} of a valid M = 2 dipole dump pair and
    measurement set on a 30-degree H-plane cut, with their config."""
    geom = ArrayGeometry(element_count=2, spacing=0.2, element="ideal_dipole")
    grid = hplane_grid(30.0)
    es = isolated_fields(geom, grid)
    ec, _ = coupled_fields(geom, grid, port_impedance_for(geom))
    with tempfile.TemporaryDirectory() as tmp:
        params = {"kind": "h_plane", "step_deg": 30.0}
        for name, fields in (("es", es), ("ec", ec)):
            fileio.write_field_dump(os.path.join(tmp, name), fields, geom,
                                    params)
        os.makedirs(os.path.join(tmp, "meas"))
        for name, fields in (("isolated", es), ("coupled", ec)):
            rows = fields.theta_rows()
            for m in range(geom.element_count):
                fileio.write_measurement_csv(
                    os.path.join(tmp, "meas", "%s_%d.csv" % (name, m + 1)),
                    PatternMeasurement(phi_deg=np.rad2deg(grid.phi),
                                       amplitude=np.abs(rows[:, m]) ** 2,
                                       phase_deg=np.rad2deg(
                                           np.angle(rows[:, m])),
                                       antenna_index=m))
        with open(os.path.join(tmp, "config.json"), "w") as handle:
            json.dump({"geometry": fileio.geometry_to_dict(geom)}, handle)
        inputs = {}
        for folder, _, names in os.walk(tmp):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    inputs[os.path.relpath(path, tmp)] = handle.read()
    return inputs


# Per command, its arguments ({} is the input root) and the files it reads.
COMMANDS = {
    "dumps": (["estimate-c", "--es", "{}/es/manifest.json",
               "--ec", "{}/ec/manifest.json"], ("es/", "ec/")),
    "measurements": (["estimate-c", "--measurements", "{}/meas",
                      "--config", "{}/config.json"],
                     ("meas/", "config.json")),
    "ingest": (["ingest", "--measurements", "{}/meas",
                "--config", "{}/config.json"], ("meas/", "config.json")),
}

# Replacement cells: junk, numbers outside the data's range, and the
# syntax the table reader refuses (digit-group underscores, non-ASCII).
DAMAGED_CELLS = st.one_of(
    CELLS, st.sampled_from(["-0", "1e308", "-1e308", "5e-324", "0.5",
                            "361", "-180", "\u0661", "1e-320"]),
    st.floats(allow_nan=False).map(repr))

# Values a manifest or config entry may be set to: junk, and valid
# values that disagree with the rest of the input.
ENTRY_VALUES = st.one_of(
    JUNK, st.sampled_from([1, 3, 0.3, 0.2000000001, "isotropic",
                           "full_sphere", 90.0, 7.0, ["port_1.csv"],
                           ["port_2.csv", "port_1.csv"],
                           ["missing.csv", "port_2.csv"]]))


def _damage_table(data, text):
    """``text`` with one cell or one row of its body changed, or with
    every field cell of its body set to 0 (a port that radiates
    nothing)."""
    lines = text.split("\r\n")
    row = data.draw(st.integers(1, len(lines) - 2))
    cells = lines[row].split(",")
    kind = data.draw(st.sampled_from(["cell", "drop", "duplicate", "swap",
                                      "blank", "extra cell", "lost cell",
                                      "zero"]))
    if kind == "zero":
        fields = [i for i, name in enumerate(lines[0].split(","))
                  if not name.endswith("_deg")]
        for row in range(1, len(lines) - 1):
            cells = lines[row].split(",")
            for i in fields:
                cells[i] = "0"
            lines[row] = ",".join(cells)
    elif kind == "cell":
        cells[data.draw(st.integers(0, len(cells) - 1))] = \
            data.draw(DAMAGED_CELLS)
        lines[row] = ",".join(cells)
    elif kind == "drop":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "swap":
        other = data.draw(st.integers(1, len(lines) - 2))
        lines[row], lines[other] = lines[other], lines[row]
    elif kind == "blank":
        lines[row] = data.draw(st.sampled_from(["", " ", "\t"]))
    elif kind == "extra cell":
        lines[row] += "," + data.draw(DAMAGED_CELLS)
    else:
        lines[row] = ",".join(cells[:-1])
    return "\r\n".join(lines)


def _damage_json(data, text):
    """``text`` with one entry of its JSON document changed or dropped."""
    doc = json.loads(text)
    keys = [(section, key) for section in sorted(doc)
            if isinstance(doc[section], dict)
            for key in sorted(doc[section])]
    keys += [(key, None) for key in sorted(doc)]
    section, key = data.draw(st.sampled_from(keys))
    parent, name = (doc, section) if key is None else (doc[section], key)
    if data.draw(st.booleans()):
        del parent[name]
    else:
        parent[name] = data.draw(ENTRY_VALUES)
    return json.dumps(doc)


@FUZZ
@given(command=st.sampled_from(sorted(COMMANDS)),
       angles=st.sampled_from([None, 1, 2, 4]), data=st.data())
def test_estimate_c_and_ingest_never_traceback(command, angles, data):
    argv, reads = COMMANDS[command]
    inputs = _pristine_inputs()
    target = data.draw(st.sampled_from(sorted(
        name for name in inputs if name.startswith(reads))))
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in inputs.items():
            if name == target:
                damage = _damage_json if name.endswith(".json") \
                    else _damage_table
                body = damage(data, body.decode()).encode()
            path = os.path.join(tmp, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(body)
        args = [arg.format(tmp) for arg in argv]
        args += ["--out", os.path.join(tmp, "out")]
        if angles is not None and command != "ingest":
            args += ["--angles", str(angles)]
        with _stderr() as err:
            code = cli.main(args)
        assert code in (0, 1), err.getvalue()
        if code:
            # the last line; numpy may print an overflow warning above it
            message = err.getvalue().splitlines()[-1]
            assert message.startswith("error: "), err.getvalue()
            assert os.path.dirname(os.path.join(tmp, target)) in message, \
                (target, message)
            return
        # no silently wrong output: every written cell is finite, and a
        # written C reads back
        for name in os.listdir(tmp):
            if name.startswith("out"):
                path = os.path.join(tmp, name)
                with open(path) as handle:
                    doc = json.load(handle)
                cells = doc.get("values",
                                doc.get("re", []) + doc.get("im", []))
                assert all(math.isfinite(x) for row in cells for x in row), \
                    (name, doc)
                if not name.endswith("_z.json"):
                    fileio.read_c_json(path)
