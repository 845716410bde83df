"""Unit tests for the execution-backend seam.

Backend resolution by worker count, the dispatcher's ordering and
observability contract, and the engine-level
satellites (chunksize honored-or-rejected everywhere, scheduler stats in
``last_run_stats``, stale checkpoint-stat carry-over).
"""

import pytest

from repro.exec import (
    DispatchJob,
    ExperimentEngine,
    ExperimentFailure,
    JobSpec,
    SerialBackend,
    SupervisedPoolBackend,
    dispatch,
    resolve_backend,
)
from repro.harness.runner import ExperimentSettings
from repro.sampling.plan import SamplingPlan

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)


def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _jobs(n):
    return [DispatchJob(index=i, payload=i) for i in range(n)]


ALL_BACKENDS = [
    pytest.param(lambda: SerialBackend(), id="serial"),
    pytest.param(lambda: SupervisedPoolBackend(2), id="supervised-pool"),
]


class TestResolution:
    def test_worker_count_decides(self):
        assert resolve_backend(1).name == "serial"
        assert resolve_backend(2).name == "supervised-pool"
        assert resolve_backend(4).workers == 4


class TestDispatchContract:
    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_results_in_order(self, make):
        results, stats = dispatch(make(), _square, _jobs(7))
        assert results == [i * i for i in range(7)]
        assert stats.backend == make().name
        assert stats.inflight_peak >= 1
        assert stats.dispatch_overhead_ns >= 0

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_empty_submission(self, make):
        results, stats = dispatch(make(), _square, [])
        assert results == []
        assert stats.inflight_peak == 0

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_failure_is_structured_and_late(self, make):
        """One poisoned job: every other job completes, then a structured
        ExperimentFailure names exactly the poisoned one — identical
        failure semantics on serial and the pool."""
        sink = {}
        with pytest.raises(ExperimentFailure) as info:
            dispatch(make(), _boom_on_three, _jobs(6), stats_sink=sink)
        assert [failure.index for failure in info.value.failures] == [3]
        assert "three is right out" in info.value.failures[0].error
        assert sink["backend"] == make().name

    def test_index_must_match_position(self):
        with pytest.raises(ValueError, match="list position"):
            dispatch(SerialBackend(), _square, [DispatchJob(index=1, payload=1)])

    def test_events_stream_through_hook(self):
        events = []
        dispatch(SerialBackend(), _square, _jobs(3), on_event=events.append)
        assert events == [("start", 0), ("done", 0, 0),
                          ("start", 1), ("done", 1, 1),
                          ("start", 2), ("done", 2, 4)]


class TestEngineSeam:
    def _specs(self, settings=FAST):
        return [JobSpec("gzip", name, settings)
                for name in ("oracle-associative-3", "indexed-3-fwd")]

    @pytest.mark.parametrize("jobs,name", [
        pytest.param(1, "serial", id="serial"),
        pytest.param(2, "supervised-pool", id="supervised-pool")])
    def test_backend_bit_identical(self, jobs, name):
        reference = ExperimentEngine(jobs=1, cache=False).run(self._specs())
        engine = ExperimentEngine(jobs=jobs, cache=False)
        records = engine.run(self._specs())
        assert [r.result.stats.as_dict() for r in records] == \
            [r.result.stats.as_dict() for r in reference]
        assert engine.last_run_stats["backend"] == name

    def test_scheduler_stats_always_present(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(self._specs())
        for key in ("backend", "inflight_peak", "dispatch_overhead_ns"):
            assert key in engine.last_run_stats
        assert engine.last_run_stats["inflight_peak"] == 1
        # All-hits run: counters zeroed, never stale.
        engine.run(self._specs())
        assert engine.last_run_stats["inflight_peak"] == 0
        assert engine.last_run_stats["backend"] == "serial"

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "four", True])
    def test_chunksize_rejected_on_every_path(self, jobs, bad):
        """The serial path used to swallow chunksize silently; now every
        path validates it identically."""
        engine = ExperimentEngine(jobs=jobs, cache=False)
        with pytest.raises(ValueError, match="chunksize"):
            engine.run(self._specs(), chunksize=bad)

    def test_chunksize_honored_where_supported(self):
        records = ExperimentEngine(jobs=2, cache=False).run(
            self._specs(), chunksize=2)
        assert len(records) == 2
        serial = ExperimentEngine(jobs=1, cache=False).run(
            self._specs(), chunksize=2)  # validated no-op, not an error
        assert [r.result.stats.as_dict() for r in records] == \
            [r.result.stats.as_dict() for r in serial]

    def test_serial_failure_is_structured(self):
        engine = ExperimentEngine(jobs=1, cache=False)
        with pytest.raises(ExperimentFailure) as info:
            engine.run([JobSpec("no-such-workload", "indexed-3-fwd", FAST)])
        assert len(info.value.failures) == 1
        assert engine.last_run_stats["failures"][0]["index"] == 0
        assert engine.last_run_stats["backend"] == "serial"

    def test_stale_checkpoint_stats_do_not_carry_over(self, tmp_path):
        """Regression: a run with no checkpointed specs must not re-report
        the previous run's checkpoint_generated/reused/passes."""
        plan = SamplingPlan(interval_length=500, detailed_warmup=500,
                            period=5_000, functional_warmup=1_000, seed=0)
        sampled = ExperimentSettings(instructions=20_000,
                                     stats_warmup_fraction=0.0,
                                     sampling=plan, checkpoints=True)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "ckpt")
        engine.run([JobSpec("vortex", "indexed-3-fwd", sampled)])
        assert engine.last_run_stats["checkpoint_generated"] > 0
        engine.run(self._specs())
        for stale in ("checkpoint_generated", "checkpoint_reused",
                      "checkpoint_passes", "checkpoint_identities"):
            assert stale not in engine.last_run_stats
