"""Tests of the benchmark's own code.

Run from the repository root::

    python -m pytest -q perfbench                 # fast tests
    python -m pytest -q perfbench --run-slow      # plus one command run per mode
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import BURST, dataset, make_requests, to_imputation_request  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- tail percentile --------------------------------------------------------
@pytest.mark.parametrize("count, percentile", [
    (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    assert run.tail_percentile(count) == percentile


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(run.BenchmarkError):
        run.tail_percentile(99)


def test_latency_summary_reports_the_chosen_percentile():
    seconds = [i / 1000.0 for i in range(1, 201)]           # 1..200 ms
    p50, tail, percentile = run.latency_summary(seconds)
    assert percentile == 95
    assert p50 == pytest.approx(100.5)
    assert tail == pytest.approx(190.05)


# -- self time ---------------------------------------------------------------
def _span(sid, name, start, end, parent=None):
    span = tracer.Span(sid, name, start, parent)
    span.end = end
    return span


def test_union_length_merges_overlaps():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (6, 7), (9, 8)]) == 5


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, "parent", 0.0, 10.0),
        _span(2, "child-thread-a", 1.0, 4.0, parent=1),
        _span(3, "child-thread-b", 3.0, 6.0, parent=1),      # overlaps a
        _span(4, "child-thread-c", 8.0, 12.0, parent=1),     # outlives the parent
        _span(5, "grandchild", 1.5, 2.0, parent=2),
    ]
    selves = tracer.self_times(spans)
    assert selves[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selves[2] == pytest.approx(3.0 - 0.5)
    assert selves[4] == pytest.approx(4.0)


def test_spans_on_other_threads_link_through_request_objects():
    recorder = tracer.Recorder()

    def submit(request):
        return request

    def execute(payloads):
        span, token = recorder.open("execute", link=payloads)
        recorder.close(span, token)

    submit = recorder.wrap(submit, "submit", adopt=lambda args, kwargs: args)
    requests = [object(), object()]
    parent, token = recorder.open("handle", rids=("r1",))
    for request in requests:
        submit(request)
    worker = threading.Thread(target=execute, args=(requests,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.close(parent, token)
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["execute"].parent == parent.sid
    assert by_name["execute"].rids == ("r1",)
    selves = tracer.self_times(recorder.spans)
    handle = by_name["handle"]
    children = [span for span in recorder.spans if span.parent == handle.sid]
    covered = tracer.union_length((c.start, c.end) for c in children)
    assert selves[handle.sid] == pytest.approx(handle.end - handle.start - covered)


def test_a_closed_owner_leaves_the_span_a_root_with_its_request_ids():
    recorder = tracer.Recorder()
    payload = object()
    span, token = recorder.open("post", rids=("7",))
    recorder.adopt(payload)
    recorder.close(span, token)
    linked, token = recorder.open("dispatch", link=(payload,))
    recorder.close(linked, token)
    assert linked.parent is None
    assert linked.rids == ("7",)


def test_outermost_skips_nested_calls_of_the_same_name():
    recorder = tracer.Recorder()

    def forward(depth):
        return forward_traced(depth - 1) if depth else 0

    forward_traced = recorder.wrap(forward, "nn.forward", outermost=True)
    forward_traced(3)
    assert [span.name for span in recorder.spans] == ["nn.forward"]


# -- seeded inputs -----------------------------------------------------------
def test_the_same_seed_gives_byte_identical_request_bodies():
    from repro.serving.gateway import NPZ_CONTENT_TYPE, encode_impute_request

    data = dataset(run.BURST_NODES)

    def bodies(seed):
        return [encode_impute_request(to_imputation_request(spec), NPZ_CONTENT_TYPE)
                for spec in make_requests(data, seed, 2 * BURST)]

    assert bodies(3) == bodies(3)
    assert bodies(3) != bodies(4)


def test_bursts_cycle_the_fixed_templates():
    specs = make_requests(dataset(run.BURST_NODES), 0, 3 * BURST)
    shapes = [(len(spec.values), spec.num_samples) for spec in specs]
    assert shapes[:BURST] == shapes[2 * BURST:]
    assert {length for length, _ in shapes} >= {6, 12, 20, 30}
    assert {samples for _, samples in shapes} == {1, 4}


# -- checksum keys -------------------------------------------------------------
def test_program_digest_follows_the_source_tree(tmp_path):
    def tree(name, text):
        source = tmp_path / name / "src" / "repro"
        source.mkdir(parents=True)
        (source / "kernel.py").write_text(text)
        return str(tmp_path / name)

    same, other = tree("a", "x = 1\n"), tree("b", "x = 1\n")
    changed = tree("c", "x = 2\n")
    assert run.program_digest(same) == run.program_digest(other)
    assert run.program_digest(same) != run.program_digest(changed)


def test_checksum_log_compares_only_runs_with_the_same_key(tmp_path):
    log = run.ChecksumLog(str(tmp_path / "checksums.json"))
    assert log.compare("program-a|seed=1", ["x", "y"]) == []
    assert log.compare("program-a|seed=1", ["x", "z"]) == [1]
    assert log.compare("program-b|seed=1", ["x", "z"]) == []


# -- every metric BENCHMARK.json names, with its unit -------------------------
def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert run.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_layer_builders_yield_every_per_layer_metric():
    counters = defaultdict(float)
    phase = {"records": [], "t0": 0.0, "t1": 1.0, "before": counters,
             "after": counters, "cpu": 0.0}
    record = run.Exchange(0)
    record.sent, record.done, record.status = 0.1, 0.2, 200
    phase["records"] = [record]
    serving = run.serving_layers(phase, phase, [], [
        {"queued_seconds": 0.0, "batch_seconds": 0.01}])
    offline_phase = {"fit": (0.0, 1.0), "impute": (1.0, 2.0), "cpu": 1.0, "ops": 2,
                     "steps": 1, "counters": (counters, counters)}
    offline = run.offline_layers(offline_phase, offline_phase, [])
    assert set(serving) == set(run.PER_LAYER_UNITS)
    assert set(offline) == set(run.PER_LAYER_UNITS)


@pytest.mark.slow
@pytest.mark.parametrize("workload, seconds", [
    ("burst-mixed", "4"), ("offline-large", "4"),
])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_command_prints_every_metric_with_its_unit(workload, seconds, trace):
    spec = _spec()
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "5",
                           "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
