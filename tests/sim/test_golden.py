"""Fleet campaigns against their frozen summaries.

``tests/sim/golden/summaries.json`` holds the summaries of the campaigns
in :data:`tests.sim.golden.CASES` and the records of one convergecast
run (see :mod:`tests.sim.golden`).  Each must be reproduced byte for
byte: any change to which draws a campaign makes, or in what order,
moves at least one of them.  ``calibration.json`` holds one small real
``DeliveryTable`` calibration: its cache file and a digest of every
capture it built.
"""

import pytest

from tests.sim.golden import (
    CALIBRATION,
    CASES,
    calibration_record,
    convergecast_records,
    load,
    load_calibration,
    logistic_table,
    run_case,
    summary_bytes,
)


@pytest.fixture(scope="module")
def golden():
    return load()


@pytest.fixture(scope="module")
def table():
    return logistic_table()


def test_every_case_is_frozen(golden):
    assert sorted(golden["campaigns"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_summary_is_byte_identical(name, golden, table):
    result = run_case(name, table)
    assert result.summary_json() == summary_bytes(golden["campaigns"][name])


def test_convergecast_records_are_identical(golden):
    assert convergecast_records() == golden["convergecast"]


@pytest.fixture(scope="module")
def calibration():
    return calibration_record()


def test_calibration_runs_interferers():
    assert CALIBRATION.max_interferers >= 1


def test_calibration_table_is_byte_identical(calibration):
    assert calibration["table"] == load_calibration()["table"]


def test_calibration_captures_are_bit_identical(calibration):
    frozen = load_calibration()
    assert calibration["captures"] == frozen["captures"]
    assert calibration["capture_sha256"] == frozen["capture_sha256"]
