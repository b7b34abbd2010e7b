"""Regenerate ``summaries.json`` and ``calibration.json``.

Run from the repository root::

    PYTHONPATH=src python -m tests.sim.golden.freeze

Only rerun after a deliberate change to what a campaign decides: the
tests treat the file as the simulator's reference output.
"""

import json

from tests.sim.golden import (
    CALIBRATION_PATH,
    CASES,
    PATH,
    calibration_record,
    convergecast_records,
    logistic_table,
    run_case,
)


def main():
    table = logistic_table()
    campaigns = {
        name: json.loads(run_case(name, table).summary_json())
        for name in CASES
    }
    convergecast = convergecast_records()
    PATH.write_text(
        json.dumps(
            {"campaigns": campaigns, "convergecast": convergecast},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    for name, summary in campaigns.items():
        print(
            f"{name}: offered {summary['offered']}, delivered "
            f"{summary['delivered']}, retries {summary['retries']}, "
            f"defers {summary['csma_defers']}, events "
            f"{summary['events_processed']}"
        )
    print(
        f"convergecast: {len(convergecast['records'])} records of "
        f"{convergecast['readings_generated']} readings"
    )
    calibration = calibration_record()
    CALIBRATION_PATH.write_text(
        json.dumps(calibration, indent=1, sort_keys=True) + "\n"
    )
    print(
        f"calibration: {calibration['captures']} captures, sha256 "
        f"{calibration['capture_sha256'][:16]}"
    )


if __name__ == "__main__":
    main()
