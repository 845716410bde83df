"""The sampled-simulation driver.

Splits a sampled ``(workload, configuration)`` run into per-interval jobs,
executes each interval (functional warming -> detailed warm-up -> measured
region), and merges the interval measurements into one
:class:`~repro.sampling.result.SampledSimulationResult`.

There is one way to run a sampled simulation:
:class:`~repro.exec.engine.ExperimentEngine`, which calls the three stages
here — :func:`expand_sampled_spec` (one
:class:`~repro.exec.jobs.IntervalJobSpec` per interval), then
:func:`run_interval_job` per interval (in pool workers or serially; this is
what the result cache stores, one entry per interval), then
:func:`merge_interval_records`.  Checkpointed warming adds a generation
stage between expansion and the interval jobs
(:mod:`repro.sampling.checkpoints`).

Imports from :mod:`repro.harness` are deferred inside functions: the
harness imports the engine, the engine expands sampled specs through this
module, and the module-level import set must stay acyclic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.exec.jobs import IntervalJobSpec, JobSpec
from repro.isa.plane import EncodedOps
from repro.pipeline.core import OutOfOrderCore
from repro.sampling.functional import FunctionalWarmer
from repro.sampling.plan import IntervalWindow
from repro.sampling.result import (
    IntervalMeasurement,
    SampledResult,
    SampledSimulationResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings, RunRecord


def expand_sampled_spec(spec: JobSpec, checkpointed: bool = False,
                        checkpoint_dir: Optional[str] = None
                        ) -> List[IntervalJobSpec]:
    """One :class:`IntervalJobSpec` per interval of a sampled base spec.

    ``checkpointed`` stamps the intervals to load full-history snapshots
    from the checkpoint store at ``checkpoint_dir`` (``None`` = environment
    default location) instead of bounded re-warming; callers resolve the
    flag first (:func:`repro.sampling.checkpoints.resolve_checkpointed`).
    """
    plan = spec.settings.sampling
    if plan is None:
        raise ValueError("spec has no sampling plan")
    count = plan.num_intervals(spec.settings.instructions)
    return [IntervalJobSpec(spec.workload, spec.config_name, spec.settings,
                            index, spec.predictors,
                            checkpointed=checkpointed,
                            checkpoint_dir=checkpoint_dir)
            for index in range(count)]


def _overrun(config) -> int:
    """Extra trace instructions appended past a measured interval.

    The measured region stops at its U-th commit *mid-steady-state* (see
    ``stats_measure_instructions`` in
    :meth:`~repro.pipeline.core.OutOfOrderCore.run`); the overrun keeps the
    fetch stream busy until then so the interval is never charged for a
    pipeline drain.  One ROB of younger instructions (plus a dispatch
    margin) is sufficient by construction.
    """
    return config.rob_size + 4 * config.rename_width


def _simulate_window(uops: EncodedOps, window: IntervalWindow,
                     workload: str, config_name: str,
                     settings: "ExperimentSettings",
                     predictors: Optional["PredictorSuiteConfig"],
                     state) -> "RunRecord":
    """Detailed warm-up + measured region over an already warmed machine.

    ``uops`` covers ``[window.detailed_start, window.measure_end)`` plus up
    to :func:`_overrun` trailing instructions; ``state`` is the warmed
    machine state at ``window.detailed_start`` (``None`` = cold start).
    """
    from repro.harness.runner import RunRecord, make_policy

    config = settings.core
    if state is not None:
        core = OutOfOrderCore(config, state.policy)
        core.import_state(state)
    else:
        core = OutOfOrderCore(config, make_policy(config_name,
                                                  sq_size=settings.sq_size,
                                                  predictors=predictors))
    result = core.run(
        uops.with_name(workload), warm_memory=False,
        stats_warmup_instructions=window.measure_start - window.detailed_start,
        stats_measure_instructions=window.measure_length)
    return RunRecord(workload=workload, config_name=config_name, result=result)


def run_interval_job(spec: IntervalJobSpec) -> "RunRecord":
    """Execute one interval job, regenerating its trace window by value.

    Checkpointed specs load (or exactly recompute, see
    :func:`repro.sampling.checkpoints.load_interval_state`) the interval's
    full-history snapshot and only regenerate the detailed window; bounded
    specs regenerate the functional-warming window too and warm in-process.
    """
    from repro.workloads.suites import build_workload_window

    settings = spec.settings
    plan = settings.sampling
    if plan is None:
        raise ValueError("interval spec has no sampling plan")
    window = plan.intervals(settings.instructions)[spec.interval_index]
    stop = min(settings.instructions,
               window.measure_end + _overrun(settings.core))
    if getattr(spec, "checkpointed", False):
        from repro.sampling.checkpoints import (
            load_interval_state,
            load_interval_window,
        )

        state = load_interval_state(spec, window)
        uops = load_interval_window(spec, window)
        return _simulate_window(uops, window, spec.workload, spec.config_name,
                                settings, spec.predictors, state)
    # Bounded warming is the no-store fast path: compose without the disk
    # segment memo (a one-shot window write-through costs more than it can
    # ever repay — checkpointed jobs get their windows from the store's
    # per-interval window memo instead).
    uops = build_workload_window(spec.workload, settings.instructions,
                                 settings.seed, window.functional_start, stop,
                                 disk_memo=False)
    warm_len = window.functional_length
    state = None
    if warm_len:
        from repro.harness.runner import make_policy

        warmer = FunctionalWarmer(
            settings.core, make_policy(spec.config_name,
                                       sq_size=settings.sq_size,
                                       predictors=spec.predictors),
            start_index=window.functional_start)
        warmer.warm(uops[:warm_len])
        state = warmer.export_state()
    return _simulate_window(uops[warm_len:], window, spec.workload,
                            spec.config_name, settings, spec.predictors, state)


def merge_interval_records(spec: JobSpec,
                           records: Sequence["RunRecord"]) -> "RunRecord":
    """Deterministically merge per-interval records into one sampled record.

    ``records`` must be in interval order (the engine preserves input
    order, so this holds however the intervals were executed or cached).
    """
    from repro.harness.runner import RunRecord

    settings = spec.settings
    plan = settings.sampling
    windows = plan.intervals(settings.instructions)
    if len(records) != len(windows):
        raise ValueError(
            f"expected {len(windows)} interval records, got {len(records)}")
    measurements = [
        IntervalMeasurement(
            index=window.index,
            measure_start=window.measure_start,
            instructions=record.result.stats.committed,
            cycles=record.result.stats.cycles,
            stats=record.result.stats,
            extra=dict(record.result.extra),
        )
        for window, record in zip(windows, records)
    ]
    sampled = SampledResult(workload=spec.workload,
                            config_name=spec.config_name,
                            plan=plan,
                            total_instructions=settings.instructions,
                            intervals=measurements)
    extra = sampled.merged_extra()
    extra.update({
        "sampled_intervals": float(sampled.num_intervals),
        "sampled_cpi_mean": sampled.cpi_mean,
        "sampled_cpi_ci_halfwidth": sampled.cpi_ci_halfwidth,
        "sampled_estimated_total_cycles": sampled.estimated_total_cycles,
    })
    result = SampledSimulationResult(
        workload=spec.workload,
        policy=records[0].result.policy,
        stats=sampled.merged_stats(),
        config=settings.core,
        extra=extra,
        sampled=sampled,
    )
    return RunRecord(workload=spec.workload, config_name=spec.config_name,
                     result=result)
