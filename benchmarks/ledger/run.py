"""Command line of the perf ledger: each workload in a fresh, pinned child.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.ledger [--workload NAME ...]
        [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
    python3 benchmarks/ledger/run.py --workload idle --seed 3 \\
        --seconds 12 --trace 0

Per workload, the parent renders the inputs in a separate child (``idle``
and ``demux``), spawns :data:`SETUP_RUNS` ``- 1`` set-up probes, then the
measuring child, which sets up once more and runs for ``--seconds``.
``setup_s`` is the median of those set-ups, each at reference host speed
by the speed probes its child ran right after it.  Every child starts with
``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1`` and ``REPRO_JOBS=1``
in its environment, so the pin applies before numpy loads.

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace`` / ``--trace 1`` is a separate traced run
reporting the per-layer metrics.  Each metric prints as ``workload
metric value unit``; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when no result was wrong (receiver errors such as missed
frames count toward ``failed`` only), 1 when a result was wrong or BLAS
was not pinned to one thread, 2 when the benchmark could not run (for
instance, no ``src/repro`` next to it).

This module imports only the standard library.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
WORKLOADS = ("idle", "demux", "gateway", "fleet")
#: Workloads whose inputs a separate child renders ahead of the measured
#: process, keeping synthesis memory out of its peak RSS.
BUILDS_INPUTS = ("idle", "demux")
DEFAULT_SEED = 2027
#: Set-ups timed per run (the measuring child's own is one of them).
SETUP_RUNS = 3
#: Whole-command wall budget; children are killed past it.
BUDGET_S = 170.0
#: Work space inside the checkout; removed after every workload.
WORK_DIR = ".ledger_work"


class LedgerError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def git_rev(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _stop_group(proc):
    """Kill whatever is left of the child's process group and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(env, deadline, *args):
    """Run one child to completion; returns its JSON result."""
    command = [sys.executable, "-m", "benchmarks.ledger.child", *args]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{' '.join(args[:2])}: timed out") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise LedgerError(f"{' '.join(args[:2])}: exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise LedgerError(f"{' '.join(args[:2])}: no result")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """Build, set up and measure one workload; returns its result dict."""
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / WORK_DIR))
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        REPRO_JOBS="1",
        REPRO_CACHE_DIR=str(work / "cache"),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    common = [name, "--seed", str(seed), "--work", str(work)]
    try:
        if name in BUILDS_INPUTS:
            run_child(env, deadline, "build", *common)
        setups = []
        if not trace:
            for _ in range(SETUP_RUNS - 1):
                probe = run_child(
                    env, deadline, "probe", *common, "--t0", repr(time.monotonic())
                )
                setups.append((probe["setup_s"], probe["setup_factor"]))
        result = run_child(
            env, deadline, "measure", *common,
            "--seconds", str(seconds), "--trace", str(trace),
            "--t0", repr(time.monotonic()),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still holds its work directory
    if not trace:
        setups.append((result.pop("setup_s"), result.pop("setup_factor")))
        result["setup_samples"] = setups
        result["raw_metrics"]["setup_s"] = statistics.median(
            s for s, _ in setups
        )
        result["metrics"]["setup_s"] = statistics.median(
            s * f for s, f in setups
        )
    else:
        del result["setup_s"]
    return result


def check(name, result, units):
    """Add the harness-level checks to a workload result."""
    got, wanted = set(result["metrics"]), set(units)
    if got != wanted:
        raise LedgerError(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(wanted - got)}, extra {sorted(got - wanted)}"
        )
    if result["env"]["blas_threads"] != 1:
        result["problems"].append(
            f"BLAS runs {result['env']['blas_threads']} threads, not 1"
        )
    result["correct"] = not result["problems"]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Run the perf ledger workloads and print every metric.",
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measured seconds per workload (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): traced run reporting per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="also write JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2

    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    names = args.workload or list(WORKLOADS)
    deadline = time.monotonic() + BUDGET_S * len(names)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(ROOT),
        "workloads": {},
    }
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(
                name, args.seed, args.seconds, args.trace, deadline
            )
            check(name, result, units)
        except LedgerError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report["workloads"][name] = result
        env = result["env"]
        print(
            f"# {name} seed={args.seed} blas_threads={env['blas_threads']} "
            f"cpu_count={env['cpu_count']} numpy={env['numpy']} "
            f"git_rev={report['git_rev']}"
        )
        for metric, unit in units.items():
            value = result["metrics"][metric]
            print(f"{name} {metric} {value!r} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            summary["metrics"][key] = {"value": value, "unit": unit}
        print(f"{name} ops_attempted {result['attempted']} count")
        print(f"{name} ops_failed {result['failed']} count")
        for what, count in result["failures"].items():
            print(f"# {name} failed: {what}: {count}", file=sys.stderr)
        for problem in result["problems"]:
            print(f"# {name} INCORRECT: {problem}", file=sys.stderr)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
