"""The benchmark's own accounting, checked on scaled-down workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import os
import time

import pytest

import host_speed as H
import mulcom_bench as B

TINY = dict(train_docs=16, val_docs=8, epochs=1)
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")


def declared(kind: str) -> dict[str, str]:
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(B.WORKLOADS))
def test_traced_counts_repeat_and_add_up(name, tmp_path):
    w = dataclasses.replace(B.WORKLOADS[name], **TINY)
    runs = [
        B.run(w, seed=3, seconds=1, trace=True, work_dir=str(tmp_path / str(i)))
        for i in range(2)
    ]
    results = [result for result, _, _ in runs]
    for result, extras, _ in runs:
        assert result["correct"], extras["problems"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("per_layer")
    first, second = (r["metrics"] for r in results)
    counts = {k for k, m in first.items() if m["unit"] == "count"}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}

    value = {k: m["value"] for k, m in first.items()}
    parts = sum(value[f"streams.{s}.records_per_doc"] for s in B.M.STREAM_NAMES)
    parts += value["model.head.records_per_doc"]
    assert parts == pytest.approx(value["numerics.tape_records_per_doc"], rel=1e-12)
    assert value["trace_span_coverage"] >= B.MIN_SPAN_COVERAGE
    streams = w.model.get("streams", B.M.STREAM_NAMES)
    if "relation" not in streams:
        assert value["graph.directed_pairs_calls_per_doc"] == 0
        assert value["msrrn.records_per_doc"] == 0
    if "sentence" not in streams:
        assert value["streams.sentence.records_per_doc"] == 0
        assert value["streams.sentence.lstm_calls_per_doc"] == 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    w = dataclasses.replace(B.WORKLOADS["planted-wr"], **TINY)
    result, extras, _ = B.run(w, seed=3, seconds=1, trace=False, work_dir=str(tmp_path))
    assert result["correct"], extras["problems"]
    assert result["attempted"] == extras["train_steps"] + extras["eval_docs"]
    assert extras["eval_docs"] == extras["eval_splits"] * w.val_docs
    assert extras["setups"] == extras["train_rounds"] + B.SETUP_REPS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_host_speed_samples_stay_out_of_the_clock():
    speed = H.HostSpeed()
    t0, c0 = time.thread_time(), H.clock()
    with speed.sampling():
        end = t0 + 0.3
        while time.thread_time() < end:
            pass
    spent, counted = time.thread_time() - t0, H.clock() - c0
    assert len(speed.kernel_s) >= 10
    # every sample runs the kernel twice and times the second run
    assert counted < spent - 2 * sum(speed.kernel_s)
    everything = H.NOMINAL_KERNEL_S / (sum(speed.kernel_s) / len(speed.kernel_s))
    assert speed.scale(c0 - 1.0, c0) == pytest.approx(everything)
