"""CLI surface of the telemetry layer: run flags, run-all, obs summary."""

import json
import logging

import pytest

import repro.experiments
from repro.__main__ import main
from repro.obs import TRACER, build_manifest, read_run_jsonl


class _StubExperiment:
    """Registry-shaped stub whose main() is scripted."""

    def __init__(self, eid, fn):
        self.id = eid
        self.title = eid
        self._fn = fn

    def main(self):
        return self._fn()


def _boom():
    raise ValueError("synthetic failure")


def _traced_work():
    with TRACER.span("stub.work"):
        pass


class TestRunAll:
    def test_continues_past_failure_and_exits_nonzero(
        self, monkeypatch, capsys
    ):
        ran = []
        stubs = {
            "first": _StubExperiment("first", lambda: ran.append("first")),
            "bad": _StubExperiment("bad", _boom),
            "last": _StubExperiment("last", lambda: ran.append("last")),
        }
        monkeypatch.setattr(repro.experiments, "EXPERIMENTS", stubs)
        code = main(["run", "all"])
        assert code == 1
        assert ran == ["first", "last"]  # kept going past the failure
        captured = capsys.readouterr()
        assert "2/3 experiments passed" in captured.out
        assert "bad" in captured.out and "error" in captured.out
        assert "synthetic failure" in captured.err  # traceback surfaced

    def test_all_green_exits_zero(self, monkeypatch, capsys):
        stubs = {
            "a": _StubExperiment("a", lambda: None),
            "b": _StubExperiment("b", lambda: None),
        }
        monkeypatch.setattr(repro.experiments, "EXPERIMENTS", stubs)
        assert main(["run", "all"]) == 0
        assert "2/2 experiments passed" in capsys.readouterr().out

    def test_single_failure_exits_nonzero(self, monkeypatch, capsys):
        stubs = {"bad": _StubExperiment("bad", _boom)}
        monkeypatch.setattr(repro.experiments, "EXPERIMENTS", stubs)
        assert main(["run", "bad"]) == 1

    def test_unknown_experiment_still_exits_two(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "valid ids" in capsys.readouterr().err


class TestMetricsOut:
    def test_manifest_and_metric_stream_written(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["run", "table1", "--metrics-out", str(out)]) == 0
        manifest, spans = read_run_jsonl(out)
        assert manifest["experiments"][0]["id"] == "table1"
        assert manifest["experiments"][0]["status"] == "ok"
        assert manifest["schema_version"] == 1
        assert "jobs_resolved" in manifest["config"]
        assert spans == []  # no --trace
        # table1 is PHY-free, so streams may be empty — but the file is
        # valid line-JSON throughout.
        with open(out) as fh:
            for line in fh:
                json.loads(line)

    def test_trace_adds_spans(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(
            ["run", "fig07", "--metrics-out", str(out), "--trace"]
        ) == 0
        manifest, spans = read_run_jsonl(out)
        assert manifest["n_spans"] == len(spans)
        # The spans went to the file, so no table prints.
        assert "== trace spans ==" not in capsys.readouterr().out

    def test_failed_run_still_writes_manifest(
        self, monkeypatch, tmp_path, capsys
    ):
        stubs = {"bad": _StubExperiment("bad", _boom)}
        monkeypatch.setattr(repro.experiments, "EXPERIMENTS", stubs)
        out = tmp_path / "run.jsonl"
        assert main(["run", "bad", "--metrics-out", str(out)]) == 1
        manifest, _ = read_run_jsonl(out)
        assert manifest["experiments"][0]["status"] == "error"
        assert "synthetic failure" in manifest["experiments"][0]["error"]


_LISTEN = ["listen", "--senders", "1", "--duration", "0.01", "--wideband"]
_PROFILE_TITLE = "== profile (top 15 by internal time) =="


def _assert_span_report(out, span, profiled):
    """The span table with a ``span`` row; the cProfile table before it
    exactly when ``profiled``."""
    assert "== trace spans ==" in out
    assert any(line.startswith(span + " ") for line in out.splitlines())
    assert (_PROFILE_TITLE in out) == profiled
    if profiled:
        assert out.index(_PROFILE_TITLE) < out.index("== trace spans ==")


class TestSpanReport:
    """Traced without an output path, every recording command prints
    the span totals; ``--profile`` turns tracing on and adds only the
    cProfile table."""

    @pytest.mark.parametrize("flag", ["--trace", "--profile"])
    def test_run(self, flag, monkeypatch, capsys):
        stubs = {"traced": _StubExperiment("traced", _traced_work)}
        monkeypatch.setattr(repro.experiments, "EXPERIMENTS", stubs)
        assert main(["run", "traced", flag]) == 0
        _assert_span_report(
            capsys.readouterr().out, "stub.work", flag == "--profile"
        )
        assert not TRACER.enabled

    @pytest.mark.parametrize(
        "argv,span",
        [
            (_LISTEN + ["--trace"], "stream.block"),
            (_LISTEN + ["--profile"], "stream.block"),
            (["send", "--size", "4", "--trace"], "transport.message"),
        ],
        ids=["listen", "listen-profile", "send"],
    )
    def test_command(self, argv, span, capsys):
        assert main(argv) == 0
        _assert_span_report(
            capsys.readouterr().out, span, "--profile" in argv
        )


class TestRunFileLayout:
    def test_metrics_out_holds_each_instrument_once(self, tmp_path, capsys):
        out = tmp_path / "send.jsonl"
        assert main(
            ["send", "--size", "4", "--metrics-out", str(out), "--trace"]
        ) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["type"] for r in records].count("manifest") == 1
        assert {r["type"] for r in records} == {"manifest", "span"}
        snapshot = records[0]["metrics"]
        names = [
            name
            for kind in ("counters", "gauges", "histograms")
            for name in snapshot[kind]
        ]
        assert "transport.fragments.sent" in names
        assert len(names) == len(set(names))

    def test_old_layout_with_metric_records_reads_and_summarizes(
        self, tmp_path, capsys
    ):
        snapshot = {
            "counters": {"link.frames": 3},
            "gauges": {},
            "histograms": {},
        }
        old = [
            build_manifest(metrics=snapshot, argv=[], n_spans=1),
            {"type": "metric", "kind": "counter", "name": "link.frames",
             "value": 3},
            {"type": "span", "name": "link.decode", "start_s": 0.0,
             "duration_s": 0.001, "depth": 0, "parent": None,
             "error": None},
        ]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in old))
        manifest, spans = read_run_jsonl(path)
        assert manifest["metrics"] == snapshot
        assert [s["name"] for s in spans] == ["link.decode"]
        assert main(["obs", "summary", str(path)]) == 0
        text = capsys.readouterr().out
        assert text.count("link.frames") == 1
        assert "spans: 1 recorded" in text


class TestObsSummary:
    def test_summary_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(["run", "table1", "--metrics-out", str(out)])
        capsys.readouterr()
        assert main(["obs", "summary", str(out)]) == 0
        text = capsys.readouterr().out
        assert "table1" in text
        assert "repro" in text

    def test_summary_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().err


class TestVerbosity:
    @pytest.mark.parametrize(
        "argv,level",
        [
            (["list"], logging.WARNING),
            (["-v", "list"], logging.INFO),
            (["-vv", "list"], logging.DEBUG),
            (["-q", "list"], logging.ERROR),
        ],
    )
    def test_flags_set_repro_logger_level(self, argv, level, capsys):
        assert main(argv) == 0
        assert logging.getLogger("repro").level == level


class TestObsSummaryErrors:
    """Broken telemetry files fail with a one-line, path-naming message."""

    def test_missing_file_names_path_and_reason(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        assert main(["obs", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "No such file" in err
        assert err.count("\n") == 1

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "no manifest record" in err

    def test_malformed_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "manifest"}\nnot json at all\n')
        assert main(["obs", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err
        assert "not valid JSONL" in err

    def test_non_object_record(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        assert main(["obs", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert "expected a JSON object" in err
