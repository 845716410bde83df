"""Unit tests for the checkpoint store (`repro.sampling.checkpoints`).

Covers the multi-policy functional warmer (one pass, many configurations),
the export/import round trip (exact for every warmed structure), store
invalidation (source fingerprints, plan changes), corruption robustness
(truncated snapshots repair in place, never crash and never change the
result), the engine's generation/reuse accounting, policy-group generation (one
full pass per group, bit-identical to the single pass), the on-disk
trace-segment memo, and the result-cache key semantics of checkpointed
interval specs.
"""

import dataclasses
import pickle

import pytest

from repro.exec import ExperimentEngine, IntervalJobSpec, JobSpec, job_key
from repro.exec import fingerprint as fingerprint_module
from repro.harness.runner import ExperimentSettings, make_policy
from repro.lsu.policies import IndexedSQPolicy
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.sampling import SamplingPlan
from repro.sampling import checkpoints as checkpoints_module
from repro.sampling.checkpoints import (
    CheckpointStore,
    checkpoints_enabled,
    execute_generation,
    generate_checkpoints,
    load_interval_state,
    plan_generation,
    policy_key,
    resolve_checkpointed,
    segment_key,
    shared_key,
    shared_signature,
)
from repro.sampling.driver import (
    expand_sampled_spec,
    merge_interval_records,
    run_interval_job,
)
from repro.sampling.functional import FunctionalWarmer
from repro.workloads.suites import build_workload, build_workload_window

WORKLOAD = "vortex"
PLAN = SamplingPlan(interval_length=500, detailed_warmup=500, period=5_000,
                    functional_warmup=1_000, seed=0)
SETTINGS = ExperimentSettings(instructions=20_000, stats_warmup_fraction=0.0,
                              sampling=PLAN, checkpoints=True)

CONFIG = "indexed-3-fwd+dly"
IDENTITY = (CONFIG, SETTINGS.sq_size, None)


def _checkpointed_specs(store, settings=SETTINGS, config=CONFIG):
    spec = JobSpec(WORKLOAD, config, settings)
    return expand_sampled_spec(spec, checkpointed=True,
                               checkpoint_dir=str(store.directory))


class TestResolution:
    def test_settings_override_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        assert not checkpoints_enabled()
        assert resolve_checkpointed(SETTINGS)  # explicit True wins
        assert not resolve_checkpointed(
            dataclasses.replace(SETTINGS, checkpoints=False))
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        assert resolve_checkpointed(
            dataclasses.replace(SETTINGS, checkpoints=None))

    def test_never_checkpointed_without_sampling(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        plain = dataclasses.replace(SETTINGS, sampling=None, checkpoints=None)
        assert not resolve_checkpointed(plain)


class TestMultiPolicyWarming:
    """One shared pass must warm each policy exactly as its own pass would."""

    PREFIX = 4_000

    def test_policy_state_matches_single_policy_pass(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        configs = ("indexed-3-fwd+dly", "associative-5-predictive")
        multi_policies = [make_policy(name) for name in configs]
        multi = FunctionalWarmer(CoreConfig(), policies=multi_policies)
        multi.warm(trace)
        for name, warmed in zip(configs, multi_policies):
            single_policy = make_policy(name)
            single = FunctionalWarmer(CoreConfig(), single_policy)
            single.warm(trace)
            assert warmed.state_signature() == single_policy.state_signature(), name

    def test_shared_state_matches_single_policy_pass(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        multi = FunctionalWarmer(CoreConfig(), policies=[
            make_policy("indexed-3-fwd+dly"), make_policy("associative-3")])
        multi.warm(trace)
        single = FunctionalWarmer(CoreConfig(), make_policy("indexed-3-fwd+dly"))
        single.warm(trace)
        a, b = multi.state, single.state
        assert a.branch_unit.state_signature() == b.branch_unit.state_signature()
        assert a.hierarchy.state_signature() == b.hierarchy.state_signature()
        assert a.memory.state_signature() == b.memory.state_signature()
        assert a.ssn_alloc == b.ssn_alloc
        assert a.last_writer == b.last_writer

    def test_export_state_carries_first_policy(self):
        policies = [make_policy("indexed-3-fwd"), make_policy("associative-3")]
        warmer = FunctionalWarmer(CoreConfig(), policies=policies)
        assert warmer.export_state().policy is policies[0]
        assert warmer.policies == policies


class TestExportImportRoundTrip:
    """export_state -> (pickle) -> import_state is exact for every warmed
    structure — the checkpoint analogue of the PR 2 functional-replay
    exactness test."""

    PREFIX = 6_000

    @pytest.fixture(scope="class")
    def warmed_blob(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        warmer = FunctionalWarmer(CoreConfig(), make_policy(CONFIG))
        warmer.warm(trace)
        return pickle.dumps(warmer.export_state())

    def test_every_structure_survives_the_round_trip(self, warmed_blob):
        original = pickle.loads(warmed_blob)
        core = OutOfOrderCore(CoreConfig(), make_policy(CONFIG))
        core.import_state(pickle.loads(warmed_blob))
        exported = core.export_state()
        assert (exported.branch_unit.state_signature()
                == original.branch_unit.state_signature())
        assert (exported.hierarchy.state_signature()
                == original.hierarchy.state_signature())
        assert (exported.memory.state_signature()
                == original.memory.state_signature())
        assert exported.ssn_alloc.ssn_rename == original.ssn_alloc.ssn_rename
        assert exported.ssn_alloc.ssn_commit == original.ssn_alloc.ssn_commit
        assert (exported.policy.state_signature()
                == original.policy.state_signature())
        # The exported last-writer map keeps every byte's writer SSN (the
        # only component import_state consumes).
        assert ({a: e[0] for a, e in exported.last_writer.items()}
                == {a: e[0] for a, e in original.last_writer.items()})

    def test_round_tripped_state_simulates_identically(self, warmed_blob):
        window = build_workload_window(WORKLOAD, self.PREFIX + 4_000, 1,
                                       self.PREFIX, self.PREFIX + 4_000)
        results = []
        for _ in range(2):
            core = OutOfOrderCore(CoreConfig(), make_policy(CONFIG))
            core.import_state(pickle.loads(warmed_blob))
            result = core.run(window, warm_memory=False)
            results.append(result.stats.as_dict())
        assert results[0] == results[1]


class TestPolicySnapshotSize:
    """A warmed indexed-SQ policy snapshot stays small and exact.

    The FSP and DDP (4K entries each) are flat per-field lists, so the
    pickled policy is dominated by small ints rather than one object per
    way; a layout with one object per way pickled this policy to about 396 KB.
    """

    MAX_BYTES = 128 * 1024

    @pytest.fixture(scope="class")
    def warmed_policy(self):
        policy = IndexedSQPolicy()
        warmer = FunctionalWarmer(CoreConfig(), policy)
        warmer.warm(build_workload(WORKLOAD, 6_000, seed=1))
        assert policy.fsp.occupancy() > 0 and policy.ddp.occupancy() > 0
        return policy

    def test_pickled_policy_fits_the_budget(self, warmed_policy):
        blob = pickle.dumps(warmed_policy, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= self.MAX_BYTES, len(blob)

    def test_round_trip_keeps_every_way(self, warmed_policy):
        loaded = pickle.loads(
            pickle.dumps(warmed_policy, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded.state_signature() == warmed_policy.state_signature()
        assert loaded.fsp.entries() == warmed_policy.fsp.entries()
        assert loaded.ddp.entries() == warmed_policy.ddp.entries()
        assert loaded.fsp.stats == warmed_policy.fsp.stats
        assert loaded.ddp.stats == warmed_policy.ddp.stats


class TestStoreInvalidation:
    def test_simulator_source_change_misses(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        before_shared = shared_key(WORKLOAD, SETTINGS, 0)
        before_policy = policy_key(WORKLOAD, SETTINGS, IDENTITY, 0)
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited-simulator-source")
        assert shared_key(WORKLOAD, SETTINGS, 0) != before_shared
        assert policy_key(WORKLOAD, SETTINGS, IDENTITY, 0) != before_policy
        # A populated store therefore misses end to end.
        monkeypatch.undo()
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        jobs, stats = plan_generation(store, _checkpointed_specs(store))
        assert stats["checkpoint_identities"] == 1 and not jobs  # warm before the "edit"
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited-simulator-source")
        jobs, stats = plan_generation(store, _checkpointed_specs(store))
        assert stats["checkpoint_identities"] == 1 and len(jobs) == 1
        assert jobs[0].identities == (IDENTITY,)
        assert jobs[0].write_shared

    def test_workload_source_change_misses(self, monkeypatch):
        before = segment_key(WORKLOAD, 1, 0, 4_096)
        before_shared = shared_key(WORKLOAD, SETTINGS, 0)
        monkeypatch.setattr(fingerprint_module, "workload_fingerprint",
                            lambda: "edited-workload-source")
        assert segment_key(WORKLOAD, 1, 0, 4_096) != before
        assert shared_key(WORKLOAD, SETTINGS, 0) != before_shared

    def test_functional_warmup_does_not_invalidate(self, tmp_path):
        # Snapshots and windows do not depend on the bounded-warming
        # horizon; toggling it must keep the store warm.
        other = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, functional_warmup=9))
        assert shared_key(WORKLOAD, SETTINGS, 0) == shared_key(WORKLOAD, other, 0)
        assert (policy_key(WORKLOAD, SETTINGS, IDENTITY, 0)
                == policy_key(WORKLOAD, other, IDENTITY, 0))
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        jobs, stats = plan_generation(
            store, _checkpointed_specs(store, settings=other))
        assert stats["checkpoint_identities"] == 1 and not jobs

    def test_plan_change_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        changed = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, detailed_warmup=600))
        jobs, _stats = plan_generation(
            store, _checkpointed_specs(store, settings=changed))
        assert len(jobs) == 1 and jobs[0].write_shared

    def test_new_configuration_reuses_shared_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        other = ("associative-5-predictive", SETTINGS.sq_size, None)
        jobs, stats = plan_generation(
            store, _checkpointed_specs(store, config=other[0]))
        assert stats["checkpoint_identities"] == 1 and len(jobs) == 1
        assert jobs[0].identities == (other,)
        assert not jobs[0].write_shared  # shared snapshots stay valid


class TestCorruptSnapshots:
    def test_truncated_snapshots_repair_in_place(self, tmp_path):
        store = CheckpointStore(tmp_path)
        specs = _checkpointed_specs(store)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        intact = run_interval_job(specs[1]).result.stats.as_dict()
        # Truncate every snapshot blob in the store.
        damaged = 0
        for path in store.directory.glob("*.pkl"):
            path.write_bytes(path.read_bytes()[:16])
            damaged += 1
        assert damaged > 0
        repaired = run_interval_job(specs[1])
        # No crash, and no silent accuracy loss: the exact full-history
        # state is recomputed, so the record is bit-identical.
        assert repaired.result.stats.as_dict() == intact
        # The store was repaired for subsequent jobs.
        again = run_interval_job(specs[1])
        assert again.result.stats.as_dict() == intact

    def test_cold_store_direct_interval_job_works(self, tmp_path):
        store = CheckpointStore(tmp_path)
        specs = _checkpointed_specs(store)
        record = run_interval_job(specs[0])  # nothing generated yet
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        assert (run_interval_job(specs[0]).result.stats.as_dict()
                == record.result.stats.as_dict())


class TestEngineGeneration:
    def test_generates_once_then_reuses_across_engines(self, tmp_path):
        spec = JobSpec(WORKLOAD, CONFIG, SETTINGS)
        cold = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        cold_record, = cold.run([spec])
        assert cold.last_run_stats["checkpoint_generated"] == 1
        assert cold.last_run_stats["checkpoint_passes"] == 1
        warm = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        warm_record, = warm.run([spec])
        assert warm.last_run_stats["checkpoint_generated"] == 0
        assert warm.last_run_stats["checkpoint_reused"] == 1
        assert (warm_record.result.stats.as_dict()
                == cold_record.result.stats.as_dict())

    def test_one_pass_warms_every_configuration_of_a_sweep(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        engine.run([JobSpec(WORKLOAD, CONFIG, SETTINGS),
                    JobSpec(WORKLOAD, "associative-5-predictive", SETTINGS)])
        stats = engine.last_run_stats
        assert stats["checkpoint_identities"] == 2
        assert stats["checkpoint_generated"] == 2
        assert stats["checkpoint_passes"] == 1  # a single shared O(N) pass
        assert stats["checkpoint_chains"] == 1  # one worker, one policy group

    def test_engine_matches_serial_driver(self, tmp_path):
        """The engine's record equals its stages run by hand in order:
        expand, generate, one interval job each, merge."""
        spec = JobSpec(WORKLOAD, CONFIG, SETTINGS)
        engine = ExperimentEngine(jobs=1, cache=False,
                                  checkpoint_dir=tmp_path / "engine")
        record, = engine.run([spec])
        store = CheckpointStore(tmp_path / "stages")
        intervals = _checkpointed_specs(store)
        execute_generation(plan_generation(store, intervals)[0])
        serial = merge_interval_records(
            spec, [run_interval_job(interval) for interval in intervals])
        assert record.result.stats.as_dict() == serial.result.stats.as_dict()


class TestSegmentMemo:
    def test_disk_memo_round_trips_segments(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        fresh = build_workload_window(WORKLOAD, 8_000, 7, 0, 8_000,
                                      disk_memo=True)
        assert len(CheckpointStore()) > 0  # segment blob written
        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        from_disk = build_workload_window(WORKLOAD, 8_000, 7, 0, 8_000,
                                          disk_memo=True)
        assert from_disk == fresh

    def test_default_call_writes_nothing(self, tmp_path, monkeypatch):
        # The disk memo is an explicit opt-in: a plain library call must
        # not create a store in the caller's working directory, whatever
        # the environment says.
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        build_workload_window(WORKLOAD, 8_000, 8, 0, 8_000)
        assert len(CheckpointStore()) == 0

    def test_disabled_environment_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        build_workload_window(WORKLOAD, 8_000, 8, 0, 8_000, disk_memo=True)
        assert len(CheckpointStore()) == 0


class TestCacheKeys:
    def test_checkpointed_flag_is_part_of_the_key(self):
        bounded = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0)
        checkpointed = dataclasses.replace(bounded, checkpointed=True)
        assert job_key(bounded) != job_key(checkpointed)

    def test_store_location_is_not(self):
        a = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0, checkpointed=True,
                            checkpoint_dir="/somewhere")
        b = dataclasses.replace(a, checkpoint_dir="/elsewhere")
        assert job_key(a) == job_key(b)

    def test_checkpoints_field_resolution_does_not_split_keys(self):
        # None (resolved from the environment) and an explicit flag produce
        # the same key: only the *resolved* checkpointed flag matters.
        explicit = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0,
                                   checkpointed=True)
        from_env = dataclasses.replace(
            explicit,
            settings=dataclasses.replace(SETTINGS, checkpoints=None))
        assert job_key(explicit) == job_key(from_env)


class TestStateLoading:
    def test_loaded_state_is_fresh_per_job(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        specs = _checkpointed_specs(store)
        window = PLAN.intervals(SETTINGS.instructions)[0]
        first = load_interval_state(specs[0], window)
        second = load_interval_state(specs[0], window)
        assert first.policy is not second.policy
        assert first.hierarchy is not second.hierarchy
        assert (first.policy.state_signature()
                == second.policy.state_signature())


# ---------------------------------------------------------------------------
# Policy-group generation (one full pass per group)
# ---------------------------------------------------------------------------

from repro.workloads.suites import TRACE_SEGMENT_UOPS  # noqa: E402

#: A multi-segment sampled run, so each policy-group pass replays several
#: trace segments.
GROUP_PLAN = SamplingPlan(interval_length=600, detailed_warmup=4_000,
                          period=16_384, functional_warmup=1_000, seed=1)
GROUP_SETTINGS = ExperimentSettings(instructions=3 * TRACE_SEGMENT_UOPS,
                                    stats_warmup_fraction=0.0,
                                    sampling=GROUP_PLAN, checkpoints=True)
GROUP_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly",
                 "associative-5-predictive")


def _interval_specs(store, settings, configs=GROUP_CONFIGS):
    specs = []
    for config in configs:
        specs.extend(expand_sampled_spec(
            JobSpec(WORKLOAD, config, settings), checkpointed=True,
            checkpoint_dir=str(store.directory)))
    return specs


def _store_signatures(store, settings, configs=GROUP_CONFIGS):
    """(shared, per-policy) signatures of every interval snapshot."""
    windows = settings.sampling.intervals(settings.instructions)
    out = []
    for window in windows:
        shared = store.get(shared_key(WORKLOAD, settings, window.index))
        assert shared is not None, f"missing shared snapshot {window.index}"
        policies = []
        for config in configs:
            policy = store.get(policy_key(
                WORKLOAD, settings, (config, settings.sq_size, None),
                window.index))
            assert policy is not None, f"missing policy {config}/{window.index}"
            policies.append(policy.state_signature())
        out.append((shared_signature(shared), tuple(policies)))
    return out


class TestPolicyGroupPlanning:
    def test_serial_plan_is_the_single_pass(self, tmp_path):
        store = CheckpointStore(tmp_path)
        jobs, stats = plan_generation(
            store, _interval_specs(store, GROUP_SETTINGS), workers=1)
        assert len(jobs) == 1
        assert stats["checkpoint_chains"] == stats["checkpoint_passes"] == 1
        assert [identity[0] for identity in jobs[0].identities] == \
            list(GROUP_CONFIGS)
        assert jobs[0].write_shared
        assert not jobs[0].disk_memo  # a lone pass composes in memory

    def test_configurations_dealt_over_workers(self, tmp_path):
        store = CheckpointStore(tmp_path)
        jobs, stats = plan_generation(
            store, _interval_specs(store, GROUP_SETTINGS), workers=2)
        assert stats["checkpoint_chains"] == len(jobs) == 2
        assert stats["checkpoint_passes"] == 1  # still one workload group
        assert stats["checkpoint_generated"] == len(GROUP_CONFIGS)
        # Round-robin deal; every configuration lands in exactly one job.
        assert [[identity[0] for identity in job.identities]
                for job in jobs] == [[GROUP_CONFIGS[0], GROUP_CONFIGS[2]],
                                     [GROUP_CONFIGS[1]]]
        # Exactly one job carries the shared-emission duty, and the jobs
        # share composed segments through the on-disk memo.
        assert [job.write_shared for job in jobs] == [True, False]
        assert all(job.disk_memo for job in jobs)

    @pytest.mark.parametrize("configs,workers", [
        pytest.param(GROUP_CONFIGS, 8, id="three-configs"),
        pytest.param((CONFIG,), 4, id="one-config")])
    def test_groups_capped_by_configurations(self, tmp_path, configs,
                                             workers):
        store = CheckpointStore(tmp_path)
        jobs, stats = plan_generation(
            store, _interval_specs(store, GROUP_SETTINGS, configs=configs),
            workers=workers)
        assert len(jobs) == stats["checkpoint_chains"] == len(configs)
        assert [job.identities[0][0] for job in jobs] == list(configs)

    def test_warm_store_plans_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        jobs, _stats = plan_generation(
            store, _interval_specs(store, GROUP_SETTINGS), workers=2)
        execute_generation(jobs)
        jobs, stats = plan_generation(
            store, _interval_specs(store, GROUP_SETTINGS), workers=2)
        assert jobs == []
        assert stats["checkpoint_passes"] == stats["checkpoint_chains"] == 0
        assert stats["checkpoint_reused"] == len(GROUP_CONFIGS)


class TestPolicyGroupBitIdentity:
    """Policy-group passes == the single multi-policy pass, snapshot for
    snapshot, whatever the number of groups."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        stores = {}
        for workers in (1, 2, 3):
            store = CheckpointStore(
                tmp_path_factory.mktemp(f"groups-{workers}"))
            jobs, stats = plan_generation(
                store, _interval_specs(store, GROUP_SETTINGS), workers=workers)
            assert stats["checkpoint_chains"] == workers
            execute_generation(jobs)  # in-process: the plan is what differs
            stores[workers] = store
        return stores

    def test_snapshots_identical_across_group_counts(self, stores):
        reference = _store_signatures(stores[1], GROUP_SETTINGS)
        assert _store_signatures(stores[2], GROUP_SETTINGS) == reference
        assert _store_signatures(stores[3], GROUP_SETTINGS) == reference

    def test_no_extra_blobs(self, stores):
        assert len(stores[3]) == len(stores[1])


class TestEngineGenerationJobs:
    def test_one_config_sweep_on_a_pool_is_one_full_pass(self, tmp_path,
                                                         monkeypatch):
        """A one-configuration checkpointed sweep at jobs=2 runs exactly
        one generation job — the full pass, never a chunked one — and
        merges the serial record."""
        log = tmp_path / "generation-jobs.txt"
        original = checkpoints_module.run_shard_job

        def logged(spec):
            with open(log, "a") as out:
                out.write(f"{spec.workload}\n")
            return original(spec)

        monkeypatch.setattr(checkpoints_module, "run_shard_job", logged)
        spec = JobSpec(WORKLOAD, CONFIG, GROUP_SETTINGS)
        engine = ExperimentEngine(jobs=2, cache=False,
                                  checkpoint_dir=tmp_path / "pool")
        record, = engine.run([spec])
        assert engine.last_run_stats["checkpoint_chains"] == 1
        assert log.read_text().splitlines() == [WORKLOAD]
        serial, = ExperimentEngine(
            jobs=1, cache=False,
            checkpoint_dir=tmp_path / "serial").run([spec])
        assert record.result.stats.as_dict() == serial.result.stats.as_dict()
        assert (record.result.sampled.cpi_mean
                == serial.result.sampled.cpi_mean)
