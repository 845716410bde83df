"""The benchmark's three workloads, as fixed job lists built from a seed.

Every workload is a closed-loop batch: one harness process submits the
whole job list to :class:`repro.exec.ExperimentEngine` and waits for it.
The seed feeds ``ExperimentSettings.seed`` (trace generation) and, for the
sampled workload, ``SamplingPlan.seed`` (the interval phase); nothing else
about a workload depends on it.

Why each workload exists (also recorded in ``PROVENANCE.md``):

``fig4-detail``
    The paper's headline artifact: the oracle baseline plus the five
    Figure-4 configurations in full detail over programs from all three
    suites, serial, fresh result cache.  Core, predictor and memory-image
    work dominates; sampling does nothing and exec very little.
``sampled-sweep``
    A checkpointed SMARTS sweep of one long ``vortex`` trace over four
    configurations from a fresh checkpoint store on the supervised pool.
    The only workload where functional warming, store I/O and pool
    dispatch do real work, and the only one with a sampling confidence
    interval.  The trace (200k instructions, 20 intervals) is smaller than
    the paper-scale cell so that at least three cold passes fit one run.
``mlp-memory``
    Memory-bound programs on the blocking hierarchy and on the MSHR
    hierarchy with and without the stride prefetcher, in full detail.
    Most simulated cycles are idle, and only this workload takes the
    non-blocking (MSHR) path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.exec import JobSpec, available_cpus
from repro.harness.runner import BASELINE_CONFIG, FIGURE4_CONFIGS, ExperimentSettings
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.mshr import MLPConfig, PrefetchConfig
from repro.pipeline.config import CoreConfig
from repro.sampling.plan import SamplingPlan

#: The seed whose per-job digests are frozen in ``digests.json``.
DEFAULT_SEED = 1

#: Two programs per suite: one forwarding-heavy, one moderate.
FIG4_PROGRAMS = ("mesa.m", "g721.e", "vortex", "bzip2", "sixtrack", "ammp")
FIG4_INSTRUCTIONS = 4_000

SWEEP_PROGRAM = "vortex"
SWEEP_CONFIGS = (BASELINE_CONFIG, "associative-5-predictive",
                 "indexed-3-fwd", "indexed-3-fwd+dly")
SWEEP_INSTRUCTIONS = 200_000
SWEEP_INTERVALS = 20
SWEEP_INTERVAL_LENGTH = 1_000

MLP_PROGRAMS = ("mcf", "art", "swim")
MLP_CONFIGS = ("indexed-3-fwd+dly", "associative-5-predictive")
MLP_INSTRUCTIONS = 5_000
#: label -> non-blocking hierarchy knobs ("blocking" is the default model).
MLP_MEMORY = (
    ("blocking", MLPConfig()),
    ("mshr8", MLPConfig(enabled=True, mshr_entries=8)),
    ("mshr8+pf", MLPConfig(enabled=True, mshr_entries=8,
                           prefetch=PrefetchConfig(enabled=True))),
)

#: Relative times the gate checks, as (numerator, denominator) configs.
#: On ``sampled-sweep`` the same pair gives ``rel_time_ci_pct``.
REL_TIME_PAIR = {
    "fig4-detail": ("indexed-3-fwd+dly", BASELINE_CONFIG),
    "sampled-sweep": ("indexed-3-fwd+dly", BASELINE_CONFIG),
    "mlp-memory": ("indexed-3-fwd+dly", "associative-5-predictive"),
}


@dataclass(frozen=True)
class Job:
    """One engine job plus the label the gate and the digests use."""

    label: str
    spec: JobSpec


def sweep_workers() -> int:
    """Pool width of the sampled sweep: ``min(2, CPUs available)``."""
    return min(2, available_cpus())


def sweep_plan(seed: int) -> SamplingPlan:
    period = SWEEP_INSTRUCTIONS // SWEEP_INTERVALS
    return SamplingPlan(interval_length=SWEEP_INTERVAL_LENGTH,
                        detailed_warmup=SWEEP_INTERVAL_LENGTH,
                        period=period,
                        functional_warmup=period - 2 * SWEEP_INTERVAL_LENGTH,
                        seed=seed)


def build(workload: str, seed: int) -> Tuple[List[Job], Optional[int]]:
    """The job list of ``workload`` for ``seed`` and its engine worker count
    (``None`` = serial)."""
    if workload == "fig4-detail":
        settings = ExperimentSettings(instructions=FIG4_INSTRUCTIONS, seed=seed)
        configs = (BASELINE_CONFIG,) + tuple(FIGURE4_CONFIGS)
        return [Job(f"{program}/{config}", JobSpec(program, config, settings))
                for program in FIG4_PROGRAMS for config in configs], None
    if workload == "sampled-sweep":
        settings = ExperimentSettings(instructions=SWEEP_INSTRUCTIONS, seed=seed,
                                      stats_warmup_fraction=0.0,
                                      sampling=sweep_plan(seed), checkpoints=True)
        return [Job(f"{SWEEP_PROGRAM}/{config}",
                    JobSpec(SWEEP_PROGRAM, config, settings))
                for config in SWEEP_CONFIGS], sweep_workers()
    if workload == "mlp-memory":
        base = ExperimentSettings(instructions=MLP_INSTRUCTIONS, seed=seed)
        jobs = []
        for program in MLP_PROGRAMS:
            for memory_label, mlp in MLP_MEMORY:
                settings = replace(base, core=CoreConfig(
                    memory=MemoryHierarchyConfig(mlp=mlp)))
                for config in MLP_CONFIGS:
                    jobs.append(Job(f"{program}/{memory_label}/{config}",
                                    JobSpec(program, config, settings)))
        return jobs, None
    raise ValueError(f"unknown workload {workload!r}")
