"""Regenerate ``scan_golden.json`` from the current stream decoder.

Run from the repository root::

    PYTHONPATH=src python -m tests.stream.golden.freeze

Only rerun after a deliberate change to what the receiver decodes: the
tests treat the file as the scanner's reference output.
"""

import json

from tests.stream.golden import CAPTURES, CASES, PATH, record


def main():
    captures = {name: build() for name, build in CAPTURES.items()}
    golden = {
        case: record(case, captures[capture])
        for case, (capture, _, _) in CASES.items()
    }
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for case, entry in golden.items():
        print(
            f"{case}: {len(entry['frames'])} frames, "
            f"header_rejects {entry['header_rejects']}"
        )


if __name__ == "__main__":
    main()
