"""Checks of the benchmark's own machinery (no simulation).

    python3 perfbench/selftest.py

Covers the span recorder's self-time arithmetic on nested synthetic spans
(self time plus children equals the wall of the outermost span), the
digest gate (one perturbed counter is rejected), and that the metric names
and units ``run.py`` prints are the ones ``BENCHMARK.json`` declares.
Also collectable by pytest when named explicitly:
``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    """A clock that advances by a fixed step each time it is read."""

    def __init__(self, step: int = 10) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def test_self_time_of_nested_spans_adds_up_to_wall():
    recorder = tracing.SpanRecorder("synthetic", clock=FakeClock())

    def leaf():
        return 1

    def middle():
        return traced_leaf() + traced_leaf()

    def outer():
        return traced_middle() + traced_leaf()

    traced_leaf = recorder.wrap("leaf", leaf)
    traced_middle = recorder.wrap("middle", middle)
    traced_outer = recorder.wrap("outer", outer)
    assert traced_outer() == 3

    summary = recorder.summary()
    wall = recorder.end[0] - recorder.start[0]
    assert recorder.parent[0] == -1
    assert summary["outer"]["calls"] == 1
    assert summary["middle"]["calls"] == 1
    assert summary["leaf"]["calls"] == 3
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert round(total_self * 1e9) == wall
    assert summary["outer"]["total_s"] * 1e9 == wall
    for name, entry in summary.items():
        assert entry["self_s"] >= 0, name


def test_calls_count_outermost_span_of_a_name_once():
    recorder = tracing.SpanRecorder("synthetic", clock=FakeClock())

    def base(x):
        return x

    traced_base = recorder.wrap("lsu.store_committed", base)
    override = recorder.wrap("lsu.store_committed", lambda x: traced_base(x) + 1)
    assert override(1) == 2
    summary = recorder.summary()
    assert summary["lsu.store_committed"]["calls"] == 1
    assert len(recorder) == 2


def test_units_and_exceptions_close_spans():
    recorder = tracing.SpanRecorder("synthetic", clock=FakeClock())
    traced = recorder.wrap("compose", lambda n: list(range(n)),
                           units=lambda args, result: len(result))
    traced(5)
    traced(7)
    assert recorder.units["compose"] == 12

    def boom():
        raise ValueError("boom")

    traced_boom = recorder.wrap("boom", boom)
    try:
        traced_boom()
    except ValueError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert recorder.summary()["boom"]["calls"] == 1


def _stats_record():
    from repro.harness.runner import RunRecord
    from repro.pipeline.core import SimulationResult
    from repro.pipeline.config import CoreConfig
    from repro.pipeline.stats import SimStats

    stats = SimStats(cycles=1234, committed=1000, committed_loads=300,
                     loads_forwarded=40, flushes=3)
    result = SimulationResult(workload="w", policy="p", stats=stats,
                              config=CoreConfig(), extra={})
    return RunRecord(workload="w", config_name="c", result=result)


def test_digest_gate_rejects_one_perturbed_counter():
    record = _stats_record()
    frozen = {"w/c": gate.record_digest(record)}
    assert gate.check_digests({"w/c": gate.record_digest(record)}, frozen) == {}
    for field in dataclasses.fields(record.result.stats):
        perturbed = _stats_record()
        stats = perturbed.result.stats
        setattr(stats, field.name, getattr(stats, field.name) + 1)
        problems = gate.check_digests({"w/c": gate.record_digest(perturbed)}, frozen)
        assert "w/c" in problems, field.name
    assert "w/c" in gate.check_digests({}, frozen)


def test_invariants_flag_a_short_run():
    from repro.exec import JobSpec
    from repro.harness.runner import ExperimentSettings

    settings = ExperimentSettings(instructions=1000, stats_warmup_fraction=0.0)
    spec = JobSpec("w", "c", settings)
    assert gate.check_record(spec, _stats_record()) == []
    short = _stats_record()
    short.result.stats.committed = 900
    assert gate.check_record(spec, short)
    assert gate.check_record(spec, None)
    assert gate.check_ratio(float("nan"))
    assert gate.check_ratio(0.0)
    assert gate.check_ratio(1.02) is None


def _synthetic_pass(sampled: bool) -> dict:
    totals = dict.fromkeys(("committed", "squashed_uops", "committed_loads",
                            "committed_stores", "loads_reexecuted", "committed_branches",
                            "branch_mispredictions", "l1_misses", "misses_coalesced",
                            "prefetch_issued", "prefetch_useful"), 1)
    run_stats = dict.fromkeys(("total", "cache_hits", "inflight_peak", "dispatch_overhead_ns",
                               "job_retries", "blobs_quarantined", "checkpoint_generated",
                               "checkpoint_reused"), 1)
    run_stats.update(kernel="vector", backend="serial", workers=1)
    return {"setup_s": 0.2, "sim_s": 2.0, "job_s": {"a": [0.5, 0.01], "b": [0.7, 0.01]},
            "instr_configs": 1000, "rss_mb": 40.0, "jobs": 2,
            "problems": {}, "digests": {}, "rel_time_ci_pct": 9.0 if sampled else None,
            "gmeans": {}, "totals": totals, "run_stats": run_stats,
            "layers": {"pipeline.run": {"calls": 2, "self_s": 1.0, "total_s": 1.5}},
            "units": {"pipeline.run": 100, "pipeline.run.cycles": 50}}


def test_metric_names_match_benchmark_json():
    import json

    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for sampled in (False, True):
        traced = _synthetic_pass(sampled)
        layers = run.layer_metrics(traced, traced, traced)
        assert set(layers) == {m["name"] for m in bench["per_layer"]}
        for metric in bench["per_layer"]:
            assert layers[metric["name"]][1] == metric["unit"], metric
        e2e = run.end_to_end_metrics([traced], 4, 0)
        assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
        for metric in bench["end_to_end"]:
            assert e2e[metric["name"]][1] == metric["unit"], metric
            assert e2e[metric["name"]][0] > 0, metric
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)

    import workloads

    assert set(workloads.REL_TIME_PAIR) == set(run.WORKLOADS)
    assert workloads.DEFAULT_SEED == run.DEFAULT_SEED


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
