"""Run manifests and the JSONL export/import round trip."""

import json

import pytest

from repro.obs.manifest import (
    build_manifest,
    git_revision,
    read_run_jsonl,
    summarize_manifest,
    write_run_jsonl,
)


def _snapshot():
    return {
        "counters": {"link.frames": 10, "link.bits.sent": 640},
        "gauges": {"link.snr_db": 4.0},
        "histograms": {
            "decoder.vote_margin": {
                "edges": [10.0, 42.0],
                "counts": [1, 2, 0],
                "count": 3,
                "total": 60.0,
            }
        },
    }


class TestBuildManifest:
    def test_core_fields(self):
        manifest = build_manifest(
            experiments=[
                {"id": "fig12", "status": "ok",
                 "elapsed_seconds": 1.5, "error": None}
            ],
            metrics=_snapshot(),
            argv=["run", "fig12"],
            n_spans=4,
        )
        assert manifest["type"] == "manifest"
        assert manifest["schema_version"] == 1
        assert manifest["argv"] == ["run", "fig12"]
        assert manifest["experiments"][0]["id"] == "fig12"
        assert manifest["metrics"]["counters"]["link.frames"] == 10
        assert manifest["n_spans"] == 4
        assert "jobs_resolved" in manifest["config"]
        assert manifest["python"] and manifest["numpy"]
        assert json.dumps(manifest)  # JSON-serializable end to end

    def test_git_revision_in_checkout(self):
        # The test suite runs from the source checkout, so this resolves.
        rev = git_revision()
        assert rev is None or (len(rev) >= 7 and all(
            c in "0123456789abcdef" for c in rev
        ))


class TestMetricRecords:
    def test_one_record_per_instrument(self, tmp_path):
        # The manifest's inline snapshot is the file's one copy of each
        # instrument: no per-instrument ``metric`` records follow it.
        path = tmp_path / "run.jsonl"
        write_run_jsonl(path, build_manifest(metrics=_snapshot(), argv=[]))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in records] == ["manifest"]
        hist = records[0]["metrics"]["histograms"]["decoder.vote_margin"]
        assert hist["counts"] == [1, 2, 0]


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "run.jsonl"
        manifest = build_manifest(metrics=_snapshot(), argv=[], n_spans=1)
        spans = [{"name": "link.decode", "start_s": 0.0,
                  "duration_s": 0.002, "depth": 0, "parent": None,
                  "error": None}]
        write_run_jsonl(path, manifest, spans=spans)

        parsed, parsed_spans = read_run_jsonl(path)
        assert parsed["type"] == "manifest"
        assert parsed["metrics"] == _snapshot()
        assert parsed_spans[0]["name"] == "link.decode"
        # every line is standalone JSON
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_read_requires_manifest(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "span", "name": "x"}\n')
        with pytest.raises(ValueError):
            read_run_jsonl(path)


class TestSummary:
    def test_mentions_key_facts(self):
        manifest = build_manifest(
            experiments=[
                {"id": "fig13", "status": "ok",
                 "elapsed_seconds": 2.0, "error": None},
                {"id": "fig14", "status": "error",
                 "elapsed_seconds": 0.1, "error": "ValueError: boom"},
            ],
            metrics=_snapshot(),
            n_spans=7,
        )
        text = summarize_manifest(manifest)
        assert "fig13" in text and "fig14" in text
        assert "ValueError: boom" in text
        assert "link.frames" in text
        assert "decoder.vote_margin" in text
        assert "spans: 7" in text
