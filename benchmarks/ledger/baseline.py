"""Record the ledger's run-to-run spread: ``baseline.json``.

    python3 benchmarks/ledger/baseline.py [--rounds 5] [--out PATH]

Runs two sets (A and B) of ``--rounds`` full untraced runs of every
workload, interleaved -- round *i* of set A, then round *i* of set B,
each looping over the workloads -- with a different seed for every run
(set A odd seeds, set B even).  For each workload and end-to-end metric
it records every run's value, each set's median and quartiles, the
spread of all runs (inter-quartile range over median, the statistic the
bounds in ``BENCHMARK.json`` are checked against) and the shift between
the two sets' medians.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run_once(workload, seed, seconds):
    """One untraced run; returns (summary line, the workload's full report)."""
    handle, out = tempfile.mkstemp(prefix=".ledger-baseline-", dir=ROOT)
    os.close(handle)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--out", out],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload} seed {seed}: exited {proc.returncode}")
        report = json.loads(Path(out).read_text())["workloads"][workload]
    finally:
        os.unlink(out)
    return json.loads(lines[-1]), report


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    runs = []
    for round_index in range(args.rounds):
        for set_index, label in enumerate("AB"):
            seed = 2 * round_index + set_index + 1
            for workload in workloads:
                started = time.monotonic()
                result, report = run_once(workload, seed, args.seconds)
                runs.append({
                    "wall_s": time.monotonic() - started,
                    "set": label, "round": round_index, "workload": workload,
                    "seed": seed, "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "raw_metrics": report["raw_metrics"],
                    "speed_factor": report["speed_factor"],
                    "info": report["info"],
                })
                print(f"{label}{round_index} {workload} seed={seed} "
                      f"correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr, flush=True)

    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for metric in metrics:
            by_set = {
                label: [r["metrics"][metric] for r in runs
                        if r["workload"] == workload and r["set"] == label]
                for label in "AB"
            }
            every = by_set["A"] + by_set["B"]
            total = quartiles(every)
            a, b = quartiles(by_set["A"]), quartiles(by_set["B"])
            summary[workload][metric] = {
                "A": a,
                "B": b,
                "all": total,
                "spread": (total["q3"] - total["q1"]) / total["median"],
                "shift": (b["median"] - a["median"]) / a["median"],
            }
    document = {
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "rounds": args.rounds,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
