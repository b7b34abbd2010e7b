"""The benchmark report reader, ``python -m benchmarks.trajectory``."""

import json

from benchmarks.trajectory import main


def _ledger_report(path, git_rev, seed, throughput, failed=0):
    path.write_text(
        json.dumps(
            {
                "seed": seed,
                "seconds": 14.0,
                "trace": 0,
                "git_rev": git_rev,
                "workloads": {
                    "idle": {
                        "metrics": {"throughput": throughput, "setup_s": 0.5},
                        "failed": failed,
                    }
                },
            }
        )
    )
    return str(path)


def test_trend_shows_cpu_and_blas_columns(tmp_path, capsys):
    old = {"recorded_at": "old", "cpu_count": 1, "serial_msps": 9.86}
    new = {
        "recorded_at": "new",
        "cpu_count": 2,
        "blas_threads": 1,
        "serial_msps": 28.808,
        "interference_msps": 19.976,
        "headline_ratio": 1.499,
    }
    trend = tmp_path / "BENCH_SMOKE_TREND.jsonl"
    trend.write_text("".join(json.dumps(e) + "\n" for e in (old, new)))
    assert main([], trend_path=trend) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("recorded"))
    assert header.split()[:4] == ["recorded", "cpus", "blas", "threads"]
    rows = {line.split()[0]: line.split()[1:] for line in lines
            if line.split()[:1] in (["old"], ["new"])}
    # A line recorded before BLAS pinning or a micro-benchmark shows a dash.
    assert rows["old"][:3] == ["1", "-", "9.86"]
    assert rows["new"][:3] == ["2", "1", "28.81"]
    assert "19.98" in rows["new"] and "1.50" in rows["new"]


def test_two_ledger_reports_render_side_by_side(tmp_path, capsys):
    parent = _ledger_report(tmp_path / "a.json", "4d078bd2eb" + "0" * 30, 1,
                            2.5e7)
    # Run in a checkout without .git: no commit, so the file names it.
    change = _ledger_report(tmp_path / "change.json", None, 2, 2.75e7,
                            failed=3)
    assert main([parent, change], trend_path=tmp_path / "none.jsonl") == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("workload"))
    assert header.split() == [
        "workload", "metric", "4d078bd2eb", "seed", "1", "change", "seed",
        "2",
    ]
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines
            if line.startswith("idle ")}
    assert rows[("idle", "throughput")] == ["2.5e+07", "2.75e+07"]
    assert rows[("idle", "setup_s")] == ["0.5", "0.5"]
    assert rows[("idle", "ops_failed")] == ["0", "3"]


def test_nothing_to_show_exits_one(tmp_path, capsys):
    assert main([], trend_path=tmp_path / "BENCH_SMOKE_TREND.jsonl") == 1
    assert "nothing to show" in capsys.readouterr().out
