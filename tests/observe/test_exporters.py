"""Exporter round-trips: emit a real trace, parse it back, check the tree."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemTopology,
    atmult,
    build_at_matrix,
    observe,
    parallel_atmult,
    to_chrome_trace,
    to_json_dict,
    to_text_summary,
    write_chrome_trace,
    write_json,
)
from repro.observe import spans_from_chrome_trace

from ..conftest import heterogeneous_array


@pytest.fixture
def traced_parallel_run(rng, small_config):
    """One parallel multiplication under observation, plus the numpy oracle."""
    array = heterogeneous_array(rng, 96, 96, background=0.05)
    matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
    topology = SystemTopology(sockets=4)
    with observe() as obs:
        result, report = parallel_atmult(
            matrix,
            matrix,
            topology=topology,
            options=MultiplyOptions(config=small_config),
        )
    return obs, report, result, array


class TestChromeTraceRoundTrip:
    def test_spans_cover_all_phases(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        document = to_chrome_trace(obs)
        parsed = spans_from_chrome_trace(document)
        names = {span.name for span in parsed}
        assert {"estimate", "water_level", "pair_loop", "pair", "optimize"} <= names
        # at least one kernel span (name ends in _gemm)
        assert any(name.endswith("_gemm") for name in names)

    def test_round_trip_preserves_span_tree(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        parsed = spans_from_chrome_trace(to_chrome_trace(obs))
        original = sorted(obs.tracer.spans(), key=lambda s: s.span_id)
        assert len(parsed) == len(original)
        for before, after in zip(original, parsed, strict=True):
            assert after.span_id == before.span_id
            assert after.name == before.name
            assert after.parent_id == before.parent_id
            assert after.thread_id == before.thread_id
            assert after.thread_name == before.thread_name
            assert after.start == pytest.approx(before.start, abs=1e-6)
            assert after.duration == pytest.approx(before.duration, abs=1e-6)

    def test_pair_spans_ran_on_multiple_worker_threads(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        parsed = spans_from_chrome_trace(to_chrome_trace(obs))
        pair_threads = {s.thread_id for s in parsed if s.name == "pair"}
        assert len(pair_threads) > 1
        team_names = {
            s.thread_name for s in parsed if s.thread_name.startswith("team")
        }
        assert len(team_names) > 1

    def test_kernel_spans_nest_under_pairs(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        spans = {s.span_id: s for s in obs.tracer.spans()}
        kernel_spans = [s for s in spans.values() if s.category == "kernel"]
        assert kernel_spans
        for span in kernel_spans:
            assert span.parent_id is not None
            assert spans[span.parent_id].name == "pair"

    def test_timestamps_are_microseconds(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        document = to_chrome_trace(obs)
        for event, span in zip(document["traceEvents"], obs.tracer.spans(), strict=True):
            assert event["ts"] == pytest.approx(span.start * 1e6)
            assert event["dur"] == pytest.approx(span.duration * 1e6)
            break

    def test_thread_metadata_events_present(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        document = to_chrome_trace(obs)
        metadata = [
            e for e in document["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert metadata
        assert all(e["args"]["name"] for e in metadata)

    def test_write_chrome_trace_is_valid_json(self, traced_parallel_run, tmp_path):
        obs, _, _, _ = traced_parallel_run
        path = tmp_path / "trace.json"
        write_chrome_trace(obs, str(path))
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_result_still_correct_under_observation(self, traced_parallel_run):
        _, _, result, array = traced_parallel_run
        np.testing.assert_allclose(result.to_dense(), array @ array, atol=1e-10)


class TestJsonExport:
    def test_json_export_contains_all_sections(self, traced_parallel_run):
        obs, report, _, _ = traced_parallel_run
        payload = to_json_dict(obs)
        assert payload["format"] == "repro-observation"
        assert payload["version"] == 1
        assert payload["spans"]
        assert payload["metrics"]
        assert payload["cost_accuracy"]["summary"]
        # per-kernel residuals present for every counted kernel
        for kernel, accuracy in payload["cost_accuracy"]["summary"].items():
            assert kernel in report.kernel_counts
            assert accuracy["count"] > 0
            assert "geometric_mean_ratio" in accuracy
            assert "mean_abs_relative_residual" in accuracy

    def test_json_export_serializes_to_stream(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        stream = io.StringIO()
        write_json(obs, stream)
        parsed = json.loads(stream.getvalue())
        assert parsed["format"] == "repro-observation"

    def test_worker_busy_metrics_recorded(self, traced_parallel_run):
        obs, report, _, _ = traced_parallel_run
        busy_names = [
            name for name in obs.metrics.names()
            if name.startswith("worker.busy_seconds.")
        ]
        assert busy_names
        for name in busy_names:
            worker = name.removeprefix("worker.busy_seconds.")
            assert report.worker_busy_seconds[worker] == pytest.approx(
                obs.metrics.value(name)
            )


class TestTextSummary:
    def test_text_summary_sections(self, traced_parallel_run):
        obs, _, _, _ = traced_parallel_run
        text = to_text_summary(obs)
        assert "spans (total seconds, by name):" in text
        assert "metrics:" in text
        assert "cost-model accuracy" in text

    def test_empty_observation_summary(self):
        with observe() as obs:
            pass
        text = to_text_summary(obs)
        assert "spans: none recorded" in text


class TestSequentialTrace:
    def test_sequential_atmult_records_expected_phases(self, rng, small_config):
        array = heterogeneous_array(rng, 64, 64, background=0.05)
        matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
        with observe() as obs:
            _, report = atmult(matrix, matrix, options=MultiplyOptions(config=small_config))
        names = {s.name for s in obs.tracer.spans()}
        assert {"estimate", "water_level", "pair", "optimize"} <= names
        assert report.observation is obs
        # cost accuracy recorded one sample per dispatched kernel product
        assert len(obs.cost_accuracy) == sum(report.kernel_counts.values())
