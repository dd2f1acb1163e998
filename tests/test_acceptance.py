"""Acceptance gate: one test per shipped criterion.

Each test calls the packaged criterion so ``pytest -v`` reads as a
per-criterion pass/fail report; the detail string lands in the assert
message on failure.
"""

import numpy as np

from superdir import acceptance, experiment


def _check(result):
    assert result.passed, "criterion %d %s: %s" % (
        result.number, result.name, result.detail)


def test_criterion_01_uzkov_limit():
    _check(acceptance.criterion_1())


def test_criterion_02_halfwave_decoupling():
    _check(acceptance.criterion_2())


def test_criterion_03_quadrature_oracle():
    _check(acceptance.criterion_3())


def test_criterion_04_c_recovery_oracle():
    _check(acceptance.criterion_4())


def test_criterion_05_reduced_angle_recovery():
    _check(acceptance.criterion_5())


def test_criterion_06_column_reversal_symmetry():
    _check(acceptance.criterion_6())


def test_criterion_07_algebraic_collapse():
    _check(acceptance.criterion_7())


def test_criterion_08_rank_uniqueness():
    _check(acceptance.criterion_8())


def test_criterion_09_rayleigh_bound():
    _check(acceptance.criterion_9())


def test_criterion_10_loss_analysis():
    _check(acceptance.criterion_10())


def test_criterion_11_degradation_trend():
    _check(acceptance.criterion_11())


def test_criterion_12_hplane_sufficiency():
    _check(acceptance.criterion_12())


def test_criterion_13_measurement_roundtrip():
    _check(acceptance.criterion_13())


def test_criterion_14_determinism():
    _check(acceptance.criterion_14())


def test_run_all_reports_every_criterion():
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 15))
    assert all(r.passed for r in results)


def test_tamper_forces_a_failure():
    # the self-check hook must be able to break any single criterion,
    # the first and the last included
    for number in (1, 5, 14):
        results = acceptance.run_all(tamper=number)
        failed = [r.number for r in results if not r.passed]
        assert failed == [number]
        assert "tampered" in results[number - 1].detail


def test_criterion_14_catches_a_sweep_that_changes(monkeypatch):
    # the second run moves one cell by one ulp, which the 17-digit CSV
    # keeps
    original = experiment.sweep_rows
    calls = []

    def drifting(config, tikhonov=None):
        rows = original(config, tikhonov)
        calls.append(config)
        if len(calls) == 2:
            rows[0]["gain"] = np.nextafter(rows[0]["gain"], np.inf)
        return rows

    monkeypatch.setattr(experiment, "sweep_rows", drifting)
    result = acceptance.criterion_14()
    assert len(calls) == 2
    assert not result.passed, result.detail
