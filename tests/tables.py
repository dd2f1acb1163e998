"""Readers of the sweep and pattern CSVs that ``sweep`` and ``pattern``
write, for the tests that check them; no command reads these files."""

import csv

from superdir import fileio


def read_sweep(path):
    """Rows of a sweep CSV as dicts; every column but ``method`` is a
    float (``nan`` in ``psll_db`` of a single-lobe cut)."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == fileio.SWEEP_COLUMNS, reader.fieldnames
        return [{col: value if col == "method" else float(value)
                 for col, value in row.items()} for row in reader]


def read_pattern(path):
    """(phi_deg, power_db_normalized) arrays of a pattern CSV."""
    return tuple(fileio._read_table(path, fileio.PATTERN_COLUMNS)[0].T)
