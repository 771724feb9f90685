"""Self-checks of the benchmark harness at tiny sizes, through the same
code path as a full run: config file, fresh child process, CLI, report
checks and determinism across invocations."""
import copy
import json

import numpy as np
import pytest

import run
import tracer
from workloads import WORKLOADS

TINY = {
    "incidence": {"cone-incidence": {"sweep_lines": "1", "check_lines": "2"}},
    "projection": {"fractal": {"level": "8"}, "project-dim": {"x_samples": "2"}},
    "slab-volume": {"pair-volume": {"u_ladder": "0.5 0.25 0.125", "samples": "50000",
                                    "deltas": "0.00390625 0.001953125"}},
}


def tiny(name, **overrides):
    workload = copy.deepcopy(WORKLOADS[name])
    for section, keys in {**TINY[name], **overrides}.items():
        workload["sections"][section].update(keys)
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_at_tiny_size(name):
    invs = run.run_workload(f"tiny-{name}", tiny(name), 2026, 0.0, trace=False)
    assert len(invs) == 2
    assert [inv["problems"] for inv in invs] == [[], []]
    table = run.end_to_end(invs)
    assert set(table) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert 0.0 < table["setup_s"]["median"] < table["wall_s"]["median"]


def test_failing_verdict_counts_as_failed():
    band = {"project-dim": {**TINY["projection"]["project-dim"],
                            "band_lo": "0.1", "band_hi": "0.2"}}
    invs = run.run_workload("tiny-failing", tiny("projection", **band), 2026, 0.0, trace=False)
    assert all(any("verdict fail" in p for p in inv["problems"]) for inv in invs)


def test_traced_run_keeps_report_bytes_and_names_every_layer_metric():
    invs = run.run_workload("tiny-traced", tiny("slab-volume"), 2026, 0.0, trace=True)
    assert [inv["traced"] for inv in invs] == [False, True]
    assert invs[0]["digest"] == invs[1]["digest"]
    assert [inv["problems"] for inv in invs] == [[], []]
    table = run.per_layer(invs)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(table) == {m["name"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in table.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert table["projmap.pair_intersection_volume.calls"]["median"] == 6
    assert table["cone.nearest_direction.calls"]["median"] == 0
    assert set(run.layer_shares(invs)) >= {"projmap", "manifold", "util"}


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_record_spans_rows_and_outcomes():
    tr = tracer.Tracer("unit")
    inner = tr.wrap("inner", lambda x: [0] * len(x), rows=lambda a, k: len(a[0]), outcome=len)
    outer = tr.wrap("outer", lambda: inner([1, 2]) + inner([3]))
    assert outer() == [0, 0, 0]
    sp = tr.arrays()
    assert [tr.names[i] for i in sp["name"]] == ["outer", "inner", "inner"]
    assert sp["parent"].tolist() == [-1, 0, 0]
    assert sp["rows"].tolist() == [0, 2, 1]
    assert sp["outcome"].tolist() == [0, 2, 1]
