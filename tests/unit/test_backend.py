"""Unit tests for the pluggable execution-backend seam.

Backend resolution and validation, the dispatcher's ordering/observability
contract, dependency handling, cluster spool hygiene, and the engine-level
satellites (chunksize honored-or-rejected everywhere, scheduler stats in
``last_run_stats``, stale checkpoint-stat carry-over, ``REPRO_BACKEND``
kept out of cache keys).
"""

import asyncio
import glob
import os
import tempfile
import time

import pytest

from repro.exec import (
    BACKEND_NAMES,
    DispatchJob,
    EnvKnobError,
    ExperimentEngine,
    ExperimentFailure,
    JobSpec,
    LocalClusterBackend,
    SerialBackend,
    SupervisedPoolBackend,
    dispatch,
    dispatch_async,
    job_key,
    resolve_backend,
    resolve_backend_name,
    validate_environment,
)
from repro.harness.runner import ExperimentSettings
from repro.sampling.plan import SamplingPlan

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.1)
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _jobs(n, deps=None):
    return [DispatchJob(index=i, payload=i,
                        deps=tuple(deps.get(i, ())) if deps else ())
            for i in range(n)]


ALL_BACKENDS = [
    pytest.param(lambda: SerialBackend(), id="serial"),
    pytest.param(lambda: SupervisedPoolBackend(2), id="supervised-pool"),
    pytest.param(lambda: SupervisedPoolBackend(2, supervised=False),
                 id="raw-pool"),
    pytest.param(lambda: LocalClusterBackend(2), id="local-cluster"),
]


class TestResolution:
    def test_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name() is None
        assert resolve_backend(1).capabilities.name == "serial"
        assert resolve_backend(4).capabilities.name == "supervised-pool"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_forced_backend_wins(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_BACKEND", name)
        assert resolve_backend_name() == name
        assert resolve_backend(1).capabilities.name == name
        assert resolve_backend(8).capabilities.name == name

    @pytest.mark.parametrize("bad", ["cloud", "Serial", "pool", "1"])
    def test_garbage_is_an_env_knob_error(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_BACKEND", bad)
        with pytest.raises(EnvKnobError, match="REPRO_BACKEND"):
            resolve_backend_name()
        with pytest.raises(EnvKnobError):
            validate_environment()
        with pytest.raises(EnvKnobError):
            ExperimentEngine(jobs=1, cache=False)

    def test_backend_knob_excluded_from_cache_key(self, monkeypatch):
        """REPRO_BACKEND is execution-only: a forced backend must not
        invalidate (or fork) any cached result."""
        spec = JobSpec("gzip", "indexed-3-fwd", FAST)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        unset = job_key(spec)
        for name in BACKEND_NAMES:
            monkeypatch.setenv("REPRO_BACKEND", name)
            assert job_key(spec) == unset
        monkeypatch.setenv("REPRO_SPOOL_DIR", "/tmp/elsewhere")
        assert job_key(spec) == unset

    def test_capabilities_descriptors(self):
        serial = SerialBackend().capabilities
        pool = SupervisedPoolBackend(3).capabilities
        cluster = LocalClusterBackend(3).capabilities
        assert (serial.name, serial.parallel, serial.distributed) == \
            ("serial", False, False)
        assert not serial.supports_chunksize
        assert pool.supports_chunksize and pool.parallel
        assert cluster.distributed and not cluster.supports_chunksize
        assert cluster.max_workers == 3


class TestDispatchContract:
    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_results_in_order(self, make):
        results, stats = dispatch(make(), _square, _jobs(7))
        assert results == [i * i for i in range(7)]
        assert stats.backend == make().capabilities.name
        assert stats.queue_depth_peak == 7
        assert stats.inflight_peak >= 1
        assert stats.dispatch_overhead_ns >= 0

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_empty_submission(self, make):
        results, stats = dispatch(make(), _square, [])
        assert results == []
        assert stats.inflight_peak == 0

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_dependencies_respected(self, make):
        """A chain 0 -> 2 -> 4 plus independent fillers completes with the
        right values on every backend (gating style is backend-specific,
        correctness is not)."""
        deps = {2: (0,), 4: (2,), 5: (1, 3)}
        results, _stats = dispatch(make(), _square, _jobs(6, deps))
        assert results == [i * i for i in range(6)]

    @pytest.mark.parametrize("make", [ALL_BACKENDS[0], ALL_BACKENDS[1],
                                      ALL_BACKENDS[3]])
    def test_failure_is_structured_and_late(self, make):
        """One poisoned job: every other job completes, then a structured
        ExperimentFailure names exactly the poisoned one — identical
        failure semantics across serial, pool, and cluster."""
        sink = {}
        with pytest.raises(ExperimentFailure) as info:
            dispatch(make(), _boom_on_three, _jobs(6), stats_sink=sink)
        assert [failure.index for failure in info.value.failures] == [3]
        assert "three is right out" in info.value.failures[0].error
        assert sink["backend"] == make().capabilities.name

    def test_index_must_match_position(self):
        with pytest.raises(ValueError, match="list position"):
            dispatch(SerialBackend(), _square, [DispatchJob(index=1, payload=1)])

    def test_deps_must_point_earlier(self):
        with pytest.raises(ValueError, match="earlier jobs"):
            dispatch(SerialBackend(), _square,
                     [DispatchJob(index=0, payload=0, deps=(0,))])

    def test_events_stream_through_hook(self):
        events = []
        dispatch(SerialBackend(), _square, _jobs(3), on_event=events.append)
        assert events == [("start", 0), ("done", 0, 0),
                          ("start", 1), ("done", 1, 1),
                          ("start", 2), ("done", 2, 4)]

    def test_async_facade(self):
        async def run():
            seen = []
            async for event in dispatch_async(SerialBackend(), _square,
                                              _jobs(4)):
                seen.append(event)
            return seen

        seen = asyncio.run(run())
        assert seen[-1][0] == "result"
        assert seen[-1][1] == [0, 1, 4, 9]
        assert seen[-1][2].backend == "serial"
        assert [e for e in seen if e[0] == "done"] == \
            [("done", i, i * i) for i in range(4)]


class TestLocalCluster:
    def test_spool_is_removed_and_steals_counted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path))
        backend = LocalClusterBackend(2)
        results, stats = dispatch(backend, _square, _jobs(10))
        assert results == [i * i for i in range(10)]
        assert stats.steals == stats.counters.get("cluster_steals", 0)
        # Clean teardown: no spool directories, tickets, claims, or tmp
        # blobs survive the submit.
        assert os.listdir(tmp_path) == []

    def test_default_spool_location_cleaned(self):
        before = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-spool-*")))
        dispatch(LocalClusterBackend(2), _square, _jobs(4))
        after = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-spool-*")))
        assert after - before == set()

    def test_workers_are_reaped_on_abandoned_iterator(self, tmp_path,
                                                      monkeypatch):
        import multiprocessing

        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path))
        backend = LocalClusterBackend(2)
        events = backend.submit(_square, _jobs(6))
        next(events)  # workers are up
        events.close()  # abandon mid-run: finally must reap + clean
        assert os.listdir(tmp_path) == []
        assert multiprocessing.active_children() == []

    def test_late_claim_is_not_a_lost_result(self, tmp_path, monkeypatch):
        """A ticket claimed after the coordinator listed the claims but
        before it probed for the result is in flight, not lost: it must
        not be respooled (which would also hide a worker crash on that
        attempt from the crash accounting)."""
        from repro.exec import backend as backend_module

        coordinator = os.getpid()
        real_claim = backend_module._claim_next_ticket
        real_get = backend_module.ResultCache.get

        def late_claim(*args):
            time.sleep(0.01)
            return real_claim(*args)

        def slow_probe(store, key):
            if os.getpid() == coordinator:
                time.sleep(0.01)
            return real_get(store, key)

        # Workers fork after the patches, so both sides see them.
        monkeypatch.setattr(backend_module, "_claim_next_ticket", late_claim)
        monkeypatch.setattr(backend_module.ResultCache, "get", slow_probe)
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path))
        backend = LocalClusterBackend(2)
        results, stats = dispatch(backend, _slow_square, _jobs(8))
        assert results == [i * i for i in range(8)]
        assert stats.counters.get("job_retries", 0) == 0
        assert stats.counters.get("cluster_inline_jobs", 0) == 0

    def test_duplicate_payloads_stay_distinct(self):
        jobs = [DispatchJob(index=i, payload=7) for i in range(3)]
        results, _stats = dispatch(LocalClusterBackend(2), _square, jobs)
        assert results == [49, 49, 49]


class TestEngineSeam:
    def _specs(self, settings=FAST):
        return [JobSpec("gzip", name, settings)
                for name in ("oracle-associative-3", "indexed-3-fwd")]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_forced_backend_bit_identical(self, monkeypatch, name):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = ExperimentEngine(jobs=1, cache=False).run(self._specs())
        monkeypatch.setenv("REPRO_BACKEND", name)
        engine = ExperimentEngine(jobs=2, cache=False)
        records = engine.run(self._specs())
        assert [r.result.stats.as_dict() for r in records] == \
            [r.result.stats.as_dict() for r in reference]
        assert engine.last_run_stats["backend"] == name

    def test_scheduler_stats_always_present(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(self._specs())
        for key in ("backend", "queue_depth_peak", "inflight_peak",
                    "steals", "dispatch_overhead_ns"):
            assert key in engine.last_run_stats
        assert engine.last_run_stats["queue_depth_peak"] == 2
        # All-hits run: counters zeroed, never stale.
        engine.run(self._specs())
        assert engine.last_run_stats["queue_depth_peak"] == 0
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

    def test_serial_failure_is_structured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
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
