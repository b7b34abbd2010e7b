"""Regenerate ``summaries.json`` from the current fleet simulator.

Run from the repository root::

    PYTHONPATH=src python -m tests.sim.golden.freeze

Only rerun after a deliberate change to what a campaign decides: the
tests treat the file as the simulator's reference output.
"""

import json

from tests.sim.golden import (
    CASES,
    PATH,
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


if __name__ == "__main__":
    main()
