"""Validation guardrail for the sampling subsystem.

Asserts the acceptance contract of `repro.sampling`: on a small trace the
sampled CPI estimate must land within a stated error bound (±3%) of the
full-detail CPI for at least two store-queue configurations, the reported
confidence interval must cover the full-detail value, and the engine
(serial and parallel), its stages driven by hand and an in-memory run over
a materialised trace must agree bit for bit.

The validation plan uses *full* functional warming (``functional_warmup``
covering the whole trace) — the faithful SMARTS configuration in which the
only error sources are interval sampling variance (covered by the CI) and
the in-flight-window approximation at interval boundaries.  Bounded
functional warming trades a little accuracy for O(sampled) cost and is
exercised by the cheaper smoke assertions below.

Checkpointed warming (PR 3, ``TestCheckpointedAccuracy``) must reach the
same ±3% bound *without* a covering per-interval warm-up: its one O(N)
functional pass per workload carries full history into every interval, so
its measured bias must be strictly smaller than bounded warming's on the
same plan, and its serial/parallel/cached executions bit-identical.
"""

import dataclasses
import pickle

import pytest

from repro.exec import ExperimentEngine, JobSpec, ResultCache, run_job
from repro.harness.runner import (
    ExperimentSettings,
    RunRecord,
    make_policy,
    run_workload,
)
from repro.pipeline.core import OutOfOrderCore
from repro.sampling import SamplingPlan
from repro.sampling.checkpoints import resolve_checkpointed
from repro.sampling.driver import (
    _overrun,
    expand_sampled_spec,
    merge_interval_records,
)
from repro.sampling.functional import FunctionalWarmer
from repro.workloads.suites import build_workload

WORKLOAD = "vortex"
INSTRUCTIONS = 80_000

#: The two SQ configurations the guardrail validates (the paper's
#: contribution and the realistic associative baseline).
CONFIGS = ("indexed-3-fwd+dly", "associative-5-predictive")

#: Stated validation bound: sampled CPI within ±3% of full detail.
CPI_ERROR_BOUND = 0.03

FULL_PLAN = SamplingPlan(interval_length=2_000, detailed_warmup=1_000,
                         period=6_000, functional_warmup=INSTRUCTIONS, seed=0)


@pytest.fixture(scope="module")
def trace():
    return build_workload(WORKLOAD, INSTRUCTIONS, seed=1)


@pytest.fixture(scope="module", params=CONFIGS)
def config_name(request):
    return request.param


@pytest.fixture(scope="module")
def full_detail_cpi(trace, config_name):
    settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                  stats_warmup_fraction=0.0)
    record = run_workload(trace, config_name, settings)
    stats = record.result.stats
    return stats.cycles / stats.committed


def _run_sampled(config_name, settings, checkpoint_dir=None):
    record, = ExperimentEngine(jobs=1, cache=False,
                               checkpoint_dir=checkpoint_dir).run(
        [JobSpec(WORKLOAD, config_name, settings)])
    return record


def _materialised_sampled_run(trace, config_name, settings):
    """A sampled run over a materialised trace, held entirely in memory.

    An oracle independent of the engine, the trace-window memo and the
    checkpoint store.  Checkpointed settings warm one cumulative functional
    pass over the trace and snapshot it (a pickle round trip: the store's
    copy semantics) at each interval's detailed-warmup start; bounded
    settings warm each interval's own window from a cold machine.
    """
    config = settings.core
    total = len(trace)

    def fresh_policy():
        return make_policy(config_name, sq_size=settings.sq_size)

    cumulative = (FunctionalWarmer(config, fresh_policy())
                  if resolve_checkpointed(settings) else None)
    position = 0
    records = []
    for window in settings.sampling.intervals(total):
        if cumulative is not None:
            cumulative.warm(trace[position:window.detailed_start])
            position = window.detailed_start
            state = pickle.loads(pickle.dumps(cumulative.state))
        elif window.functional_length:
            warmer = FunctionalWarmer(config, fresh_policy(),
                                      start_index=window.functional_start)
            warmer.warm(trace[window.functional_start:window.detailed_start])
            state = warmer.export_state()
        else:
            state = None
        if state is not None:
            core = OutOfOrderCore(config, state.policy)
            core.import_state(state)
        else:
            core = OutOfOrderCore(config, fresh_policy())
        stop = min(total, window.measure_end + _overrun(config))
        result = core.run(
            trace[window.detailed_start:stop], warm_memory=False,
            stats_warmup_instructions=(window.measure_start
                                       - window.detailed_start),
            stats_measure_instructions=window.measure_length)
        records.append(RunRecord(workload=trace.name,
                                 config_name=config_name, result=result))
    return merge_interval_records(
        JobSpec(trace.name, config_name, settings), records)


@pytest.fixture(scope="module")
def sampled_record(config_name):
    settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                  stats_warmup_fraction=0.0,
                                  sampling=FULL_PLAN)
    return _run_sampled(config_name, settings)


class TestSampledAccuracy:
    def test_cpi_within_bound(self, sampled_record, full_detail_cpi, config_name):
        sampled = sampled_record.result.sampled
        error = abs(sampled.cpi_mean - full_detail_cpi) / full_detail_cpi
        assert error <= CPI_ERROR_BOUND, (
            f"{config_name}: sampled CPI {sampled.cpi_mean:.4f} vs full "
            f"{full_detail_cpi:.4f} ({error:.1%} > {CPI_ERROR_BOUND:.0%})")

    def test_confidence_interval_covers_true_value(self, sampled_record,
                                                   full_detail_cpi, config_name):
        sampled = sampled_record.result.sampled
        lo, hi = sampled.cpi_ci
        assert lo <= full_detail_cpi <= hi, (
            f"{config_name}: CI [{lo:.4f}, {hi:.4f}] misses full-detail CPI "
            f"{full_detail_cpi:.4f}")
        # The CI must be informative, not vacuous.
        assert sampled.relative_ci < 0.25

    def test_enough_intervals_for_inference(self, sampled_record):
        sampled = sampled_record.result.sampled
        assert sampled.num_intervals >= 5
        assert sampled.cpi_ci_halfwidth > 0.0


class TestExecutionPathEquivalence:
    """The engine, its stages driven by hand, a materialised trace and a
    parallel engine run agree."""

    SETTINGS = ExperimentSettings(
        instructions=30_000, stats_warmup_fraction=0.0,
        sampling=SamplingPlan(interval_length=1_000, detailed_warmup=500,
                              period=6_000, functional_warmup=4_000, seed=0))

    def test_engine_serial_and_trace_paths_identical(self):
        config = "indexed-3-fwd+dly"
        spec = JobSpec(WORKLOAD, config, self.SETTINGS)
        engine_record, = ExperimentEngine(jobs=1, cache=False).run([spec])
        serial_record = merge_interval_records(
            spec, [run_job(interval) for interval in expand_sampled_spec(spec)])
        trace = build_workload(WORKLOAD, 30_000, seed=1)
        trace_record = _materialised_sampled_run(trace, config, self.SETTINGS)
        reference = engine_record.result.stats.as_dict()
        assert serial_record.result.stats.as_dict() == reference
        assert trace_record.result.stats.as_dict() == reference
        assert (engine_record.result.sampled.cpi_values
                == trace_record.result.sampled.cpi_values)

    def test_parallel_matches_serial(self):
        config = "indexed-3-fwd+dly"
        serial, = ExperimentEngine(jobs=1, cache=False).run(
            [JobSpec(WORKLOAD, config, self.SETTINGS)])
        parallel, = ExperimentEngine(jobs=2, cache=False).run(
            [JobSpec(WORKLOAD, config, self.SETTINGS)])
        assert serial.result.stats.as_dict() == parallel.result.stats.as_dict()


#: The checkpointed-accuracy plan: same layout as FULL_PLAN but with a
#: bounded per-interval warm-up horizon nowhere near covering the trace —
#: checkpointed warming must make up the missing history from its snapshots.
CHECKPOINT_PLAN = dataclasses.replace(FULL_PLAN, functional_warmup=2_000)


@pytest.fixture(scope="module")
def checkpoint_store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("checkpoint-store"))


@pytest.fixture(scope="module")
def checkpointed_record(config_name, checkpoint_store_dir):
    settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                  stats_warmup_fraction=0.0,
                                  sampling=CHECKPOINT_PLAN, checkpoints=True)
    return _run_sampled(config_name, settings, checkpoint_store_dir)


@pytest.fixture(scope="module")
def bounded_record(config_name):
    settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                  stats_warmup_fraction=0.0,
                                  sampling=CHECKPOINT_PLAN, checkpoints=False)
    return _run_sampled(config_name, settings)


class TestCheckpointedAccuracy:
    """Acceptance contract of the checkpoint subsystem (PR 3)."""

    def test_cpi_within_bound_without_covering_warmup(
            self, checkpointed_record, full_detail_cpi, config_name):
        assert CHECKPOINT_PLAN.functional_warmup < INSTRUCTIONS // 10
        sampled = checkpointed_record.result.sampled
        error = abs(sampled.cpi_mean - full_detail_cpi) / full_detail_cpi
        assert error <= CPI_ERROR_BOUND, (
            f"{config_name}: checkpointed CPI {sampled.cpi_mean:.4f} vs full "
            f"{full_detail_cpi:.4f} ({error:.1%} > {CPI_ERROR_BOUND:.0%})")

    def test_bias_strictly_smaller_than_bounded_warming(
            self, checkpointed_record, bounded_record, full_detail_cpi,
            config_name):
        checkpointed_bias = abs(
            checkpointed_record.result.sampled.cpi_mean - full_detail_cpi)
        bounded_bias = abs(
            bounded_record.result.sampled.cpi_mean - full_detail_cpi)
        assert checkpointed_bias < bounded_bias, (
            f"{config_name}: checkpointed bias {checkpointed_bias:.4f} not "
            f"below bounded-warming bias {bounded_bias:.4f}")

    def test_equals_full_functional_warming(self, checkpointed_record,
                                            sampled_record):
        # Snapshots carry the whole prefix's history, so a checkpointed run
        # over a bounded plan is bit-identical to the same plan with
        # functional_warmup covering the trace (the faithful SMARTS mode).
        assert (checkpointed_record.result.stats.as_dict()
                == sampled_record.result.stats.as_dict())

    def test_materialised_trace_path_bit_identical(self, checkpointed_record,
                                                   trace, config_name):
        # One cumulative warming pass over a materialised trace, snapshotted
        # in memory, must equal the store-backed engine run bit for bit.
        settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                      stats_warmup_fraction=0.0,
                                      sampling=CHECKPOINT_PLAN,
                                      checkpoints=True)
        trace_record = _materialised_sampled_run(trace, config_name, settings)
        assert (trace_record.result.stats.as_dict()
                == checkpointed_record.result.stats.as_dict())

    def test_serial_parallel_cached_bit_identical(
            self, checkpointed_record, config_name, checkpoint_store_dir,
            tmp_path):
        settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                      stats_warmup_fraction=0.0,
                                      sampling=CHECKPOINT_PLAN,
                                      checkpoints=True)
        spec = JobSpec(WORKLOAD, config_name, settings)
        reference = checkpointed_record.result.stats.as_dict()
        parallel, = ExperimentEngine(
            jobs=2, cache=False,
            checkpoint_dir=checkpoint_store_dir).run([spec])
        assert parallel.result.stats.as_dict() == reference
        cached_engine = ExperimentEngine(
            jobs=1, cache=ResultCache(tmp_path / "cache"),
            checkpoint_dir=checkpoint_store_dir)
        cold, = cached_engine.run([spec])
        warm, = cached_engine.run([spec])
        assert cached_engine.last_run_stats["cache_hits"] \
            == cached_engine.last_run_stats["total"]
        assert cold.result.stats.as_dict() == reference
        assert warm.result.stats.as_dict() == reference


class TestBoundedWarmingSmoke:
    """Bounded functional warming (the O(sampled) fast path) stays sane:
    same order of magnitude and same cross-configuration ordering."""

    def test_bounded_plan_close_to_full_plan(self):
        bounded = dataclasses.replace(FULL_PLAN, functional_warmup=16_000)
        settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                      stats_warmup_fraction=0.0,
                                      sampling=bounded)
        record = _run_sampled("indexed-3-fwd+dly", settings)
        full_settings = dataclasses.replace(settings, sampling=FULL_PLAN)
        full_record = _run_sampled("indexed-3-fwd+dly", full_settings)
        bounded_cpi = record.result.sampled.cpi_mean
        full_cpi = full_record.result.sampled.cpi_mean
        assert abs(bounded_cpi - full_cpi) / full_cpi <= 0.10

    def test_sampled_figure4_ordering_preserved(self):
        # The delay predictor must still show its benefit under sampling.
        plan = SamplingPlan(interval_length=2_000, detailed_warmup=1_000,
                            period=8_000, functional_warmup=20_000, seed=0)
        settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                      stats_warmup_fraction=0.0, sampling=plan)
        engine = ExperimentEngine(jobs=1, cache=False)
        records = engine.run([
            JobSpec(WORKLOAD, "indexed-3-fwd", settings),
            JobSpec(WORKLOAD, "indexed-3-fwd+dly", settings),
        ])
        fwd, fwd_dly = (r.result.sampled.cpi_mean for r in records)
        assert fwd_dly <= fwd * 1.02, (fwd, fwd_dly)
