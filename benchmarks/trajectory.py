"""Print the perf-smoke trend and perf-ledger reports as tables.

    PYTHONPATH=src python -m benchmarks.trajectory [LEDGER_OUT.json ...]

Shows the last entries of ``BENCH_SMOKE_TREND.jsonl`` (appended by
``benchmarks/test_perf_smoke.py``) with the CPU and BLAS thread counts
each was recorded under.  Each argument is a JSON report written by
``benchmarks/ledger/run.py --out``; they print as ``workload metric``
rows with one column per file, headed by its commit (or, without one,
its file name) and seed, so a parent run and a change run read side by
side.  Exits 1 when there is nothing to show.
"""

import argparse
import json
from pathlib import Path

from repro.experiments.common import print_table

TREND_PATH = Path(__file__).resolve().parent.parent / "BENCH_SMOKE_TREND.jsonl"
#: Trend entries shown, newest last.
LAST = 8
#: Trend fields and their column headings.  Older lines lack some of
#: them (they predate the micro-benchmark) and show a dash.
TREND_COLUMNS = (
    ("serial_msps", "serial Msps"),
    ("scan_noise_msps", "noise decode"),
    ("frontend_msps", "bank"),
    ("derive_msps", "derive"),
    ("scan_msps", "scan"),
    ("serve_msps", "serve"),
    ("interference_msps", "ofdm"),
    ("headline_ratio", "d8/d4"),
    ("stream_vs_batch", "stream/batch"),
)


def _cell(value, spec=".2f"):
    if value is None:
        return "-"
    return format(value, spec) if isinstance(value, float) else str(value)


def print_trend(path, last=LAST):
    """Print the newest ``last`` trend entries; False when there are none."""
    if not path.exists():
        return False
    lines = path.read_text().splitlines()
    entries = [json.loads(line) for line in lines if line.strip()][-last:]
    if not entries:
        return False
    rows = [
        (
            entry.get("recorded_at", "-"),
            _cell(entry.get("cpu_count")),
            _cell(entry.get("blas_threads")),
            *(_cell(entry.get(key)) for key, _ in TREND_COLUMNS),
        )
        for entry in entries
    ]
    print_table(
        ("recorded", "cpus", "blas threads", *(h for _, h in TREND_COLUMNS)),
        rows,
        title=f"perf-smoke trend (last {len(entries)} of {path.name})",
    )
    return True


def print_ledger(paths):
    """Print ledger ``--out`` reports side by side, one column per file."""
    columns, heads = [], []
    for path in paths:
        report = json.loads(Path(path).read_text())
        columns.append({
            (workload, metric): value
            for workload, result in report["workloads"].items()
            for metric, value in {
                **result["metrics"], "ops_failed": result["failed"]
            }.items()
        })
        # A checkout without .git records no commit: head with the file name.
        rev = (report["git_rev"] or "")[:10] or Path(path).stem
        heads.append(f"{rev} seed {report['seed']}")
    keys = dict.fromkeys(key for column in columns for key in column)
    rows = [(*key, *(_cell(c.get(key), ".6g") for c in columns)) for key in keys]
    print_table(("workload", "metric", *heads), rows, title="perf ledger")


def main(argv=None, trend_path=TREND_PATH):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.trajectory",
        description="Print the perf-smoke trend and ledger reports.",
    )
    parser.add_argument(
        "ledger", nargs="*", help="JSON written by benchmarks/ledger/run.py --out"
    )
    args = parser.parse_args(argv)
    shown = print_trend(trend_path)
    if args.ledger:
        print_ledger(args.ledger)
    if not (shown or args.ledger):
        print(f"nothing to show: no {trend_path.name} and no ledger report")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
