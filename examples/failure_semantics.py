#!/usr/bin/env python3
"""Failure semantics tour: supervised execution, fault injection, recovery.

Every pool fan-out through :class:`repro.exec.ExperimentEngine` runs
*supervised* by default: worker crashes and hung jobs are detected,
retried with backoff on a self-healed pool, and — when the retry budget
is exhausted — reported as a structured ``ExperimentFailure`` naming
each failed job and its cause. Cache and checkpoint blobs carry content
checksums; damaged blobs are quarantined and recomputed transparently.

This demo injects real faults via the deterministic ``REPRO_FAULT_PLAN``
knob and shows each layer recovering:

1. a clean reference sweep,
2. the same sweep with a worker crash + a hung job injected — recovered,
   bit-identical, recovery counters visible in ``engine.last_run_stats``,
3. a cache blob corrupted on write — quarantined and recomputed on read,
4. a fault so persistent the retry budget runs out — the structured
   failure report.

Run with::

    python examples/failure_semantics.py
"""

import os
import tempfile

from repro.exec import (
    ExperimentEngine,
    ExperimentFailure,
    JobSpec,
    ResultCache,
)
from repro.harness.runner import ExperimentSettings

WORKLOAD = "gzip"
CONFIGS = ("oracle-associative-3", "indexed-3-fwd", "indexed-3-fwd+dly")
SETTINGS = ExperimentSettings(instructions=6_000, stats_warmup_fraction=0.25)


def _specs():
    return [JobSpec(WORKLOAD, name, SETTINGS) for name in CONFIGS]


def _signature(records):
    return [record.result.stats.as_dict() for record in records]


def _with_fault_plan(plan, timeout=None):
    """Set/clear the fault-injection knobs around an engine run."""
    os.environ["REPRO_FAULT_PLAN"] = plan
    if timeout is not None:
        os.environ["REPRO_JOB_TIMEOUT"] = str(timeout)


def _clear_fault_plan():
    os.environ.pop("REPRO_FAULT_PLAN", None)
    os.environ.pop("REPRO_JOB_TIMEOUT", None)


def main() -> None:
    print("1. Clean reference sweep (supervised, as always)...")
    engine = ExperimentEngine(jobs=2, cache=False)
    clean = engine.run(_specs())
    reference = _signature(clean)
    print(f"   {len(clean)} jobs; stats: {dict(engine.last_run_stats)}")

    print("\n2. Same sweep with a worker crash (job 0) and a hang (job 2)...")
    _with_fault_plan("worker_crash@job:0,hang@job:2,seed=1", timeout=5)
    try:
        engine = ExperimentEngine(jobs=2, cache=False)
        faulted = engine.run(_specs())
        stats = engine.last_run_stats
    finally:
        _clear_fault_plan()
    assert _signature(faulted) == reference, "recovered run diverged!"
    print(f"   recovered bit-identically: crashes={stats.get('worker_crashes', 0)}, "
          f"timeouts={stats.get('job_timeouts', 0)}, "
          f"retries={stats.get('job_retries', 0)}, "
          f"respawns={stats.get('pool_respawns', 0)}")

    print("\n3. Cache blob corrupted on write -> quarantined + recomputed on read...")
    with tempfile.TemporaryDirectory(prefix="repro-demo-cache-") as cache_dir:
        _with_fault_plan("corrupt_blob@p=1.0,seed=2")
        try:
            # Cold run: every entry written damaged (p=1.0, fires once per key).
            ExperimentEngine(jobs=1, cache=ResultCache(cache_dir)).run(_specs())
        finally:
            _clear_fault_plan()
        # Warm run, no injection: checksums fail, blobs quarantine, jobs recompute.
        engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
        repaired = engine.run(_specs())
        stats = engine.last_run_stats
    assert _signature(repaired) == reference, "repaired run diverged!"
    print(f"   quarantined={stats.get('blobs_quarantined', 0)}, "
          f"recomputed={stats['simulated']}; results bit-identical")

    print("\n4. A fault that outlives the retry budget -> structured failure...")
    _with_fault_plan("worker_crash@job:1*99,seed=3")
    os.environ["REPRO_RETRIES"] = "1"
    engine = ExperimentEngine(jobs=2, cache=False)
    try:
        engine.run(_specs())
        raise AssertionError("expected ExperimentFailure")
    except ExperimentFailure as failure:
        print(f"   raised: {failure}")
        for entry in engine.last_run_stats["failures"]:
            print(f"   report: {entry}")
    finally:
        _clear_fault_plan()
        os.environ.pop("REPRO_RETRIES", None)

    print("\nKnobs: REPRO_RETRIES, REPRO_JOB_TIMEOUT, REPRO_FAULT_PLAN (all "
          "execution-only: never in cache keys; see repro.exec.knobs).")


if __name__ == "__main__":
    main()
