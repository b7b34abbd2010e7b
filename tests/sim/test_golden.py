"""Fleet campaigns against their frozen summaries.

``tests/sim/golden/summaries.json`` holds the summaries of the campaigns
in :data:`tests.sim.golden.CASES` and the records of one convergecast
run (see :mod:`tests.sim.golden`).  Each must be reproduced byte for
byte: any change to which draws a campaign makes, or in what order,
moves at least one of them.
"""

import pytest

from tests.sim.golden import (
    CASES,
    convergecast_records,
    load,
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
