"""Benchmark: serial vs parallel vs cached execution of the Figure 4 sweep.

Runs the same Figure 4 sweep three ways through the experiment engine —
serial (one in-process worker), parallel (a ``multiprocessing`` fan-out),
and twice against an on-disk result cache (cold, then fully warm) — and
verifies that all of them produce *identical* statistics before reporting
wall-clock ratios.  The measurements land in ``BENCH_engine.json`` at the
repo root so the engine's performance trajectory is machine-readable.

The parallel assertion scales with the hardware: a >= 2x speedup is required
only when at least four CPUs are actually available (the paper-sweep target
box); on smaller machines the run still checks bit-identity and records the
measured ratio.  The warm-cache re-run must always be a large win — it
simulates nothing.

The ``backend_matrix`` leg times the same sweep through both execution
backends (``serial`` at one worker, ``supervised-pool`` at more) and
A/B-measures the dispatcher seam itself: the identical job list through
the frozen :func:`repro.exec.resilience.run_supervised` collector versus
through :func:`repro.exec.dispatch.dispatch` over ``SupervisedPoolBackend``.
The seam must cost < 3% fault-free (>= 2 CPUs); bit-identity across every
leg is asserted unconditionally.
"""

import time

from _common import DEFAULT_INSTRUCTIONS, write_bench_json

from repro.exec import (
    DispatchJob,
    ExperimentEngine,
    JobSpec,
    ResultCache,
    SupervisedPoolBackend,
    available_cpus,
    dispatch,
    run_job,
    run_supervised,
)
from repro.harness.figure4 import run_figure4
from repro.harness.runner import ExperimentSettings

#: A cross-suite subset (media / int / fp, forwarding-heavy and quiet,
#: cache-friendly and memory-bound) big enough to amortise pool start-up.
SPEEDUP_WORKLOADS = ("gzip", "mesa.m", "swim", "vortex", "mcf", "eon.c")

#: Both execution backends, swept by ``measure_backend_matrix``.
MATRIX_BACKENDS = ("serial", "supervised-pool")

#: Scheduler-observability keys recorded per matrix leg (the same set the
#: engine folds into ``last_run_stats``).
_SCHEDULER_KEYS = ("backend", "inflight_peak", "dispatch_overhead_ns")


def _signature(result):
    """Everything that must be identical across execution strategies."""
    return [(row.name, row.baseline_cycles,
             tuple(sorted(row.relative_time.items()))) for row in result.rows]


def measure_engine_speedup(cache_dir, instructions=None, workloads=SPEEDUP_WORKLOADS,
                           parallel_jobs=None):
    """Measure serial / parallel / cached wall times for one Figure 4 sweep.

    Returns a dict of measurements (also asserting bit-identity of the three
    execution strategies); reused by ``run_all.py``.
    """
    instructions = instructions or DEFAULT_INSTRUCTIONS
    cpus = available_cpus()
    if parallel_jobs is None:
        parallel_jobs = max(4, cpus) if cpus >= 4 else max(2, cpus)
    settings = ExperimentSettings(instructions=instructions, stats_warmup_fraction=0.25)
    names = list(workloads)

    serial_engine = ExperimentEngine(jobs=1, cache=False)
    start = time.perf_counter()
    serial = run_figure4(workloads=names, settings=settings, engine=serial_engine)
    serial_s = time.perf_counter() - start

    # The parallel leg runs supervised (the default execution path: per-job
    # deadlines, crash detection, retries) — its wall time is what users get.
    parallel_engine = ExperimentEngine(jobs=parallel_jobs, cache=False)
    start = time.perf_counter()
    parallel = run_figure4(workloads=names, settings=settings, engine=parallel_engine)
    parallel_s = time.perf_counter() - start

    cached_engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
    cold = run_figure4(workloads=names, settings=settings, engine=cached_engine)
    cold_stats = dict(cached_engine.last_run_stats)
    start = time.perf_counter()
    warm = run_figure4(workloads=names, settings=settings, engine=cached_engine)
    warm_s = time.perf_counter() - start
    warm_stats = dict(cached_engine.last_run_stats)

    reference = _signature(serial)
    assert _signature(parallel) == reference, "parallel run diverged from serial"
    assert _signature(cold) == reference, "cache-populating run diverged from serial"
    assert _signature(warm) == reference, "cache-hit run diverged from serial"
    assert warm_stats["cache_hits"] == warm_stats["total"], warm_stats

    return {
        "workloads": names,
        "cpus": cpus,
        "parallel_jobs": parallel_jobs,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 3) if parallel_s else 0.0,
        "warm_cache_s": round(warm_s, 4),
        "warm_cache_speedup": round(serial_s / warm_s, 1) if warm_s else 0.0,
        "cold_cache_stats": cold_stats,
        "warm_cache_stats": warm_stats,
        "gmean_indexed_fwd_dly": round(serial.gmean("indexed-3-fwd+dly"), 4),
    }


def measure_backend_matrix(instructions=None, workloads=SPEEDUP_WORKLOADS,
                           jobs=None):
    """Time one Figure 4 sweep through every execution backend.

    Returns a dict with one leg per ``MATRIX_BACKENDS`` entry (wall time
    plus the engine's scheduler counters; the worker count picks the
    backend) and the dispatcher A/B numbers:
    the identical job list through the frozen ``run_supervised`` collector
    and through ``dispatch()`` over ``SupervisedPoolBackend``.  Asserts
    bit-identity of every leg unconditionally; the hardware-gated speed
    bars live in :func:`assert_backend_matrix`.
    """
    instructions = instructions or DEFAULT_INSTRUCTIONS
    cpus = available_cpus()
    if jobs is None:
        jobs = max(4, cpus) if cpus >= 4 else max(2, cpus)
    settings = ExperimentSettings(instructions=instructions,
                                  stats_warmup_fraction=0.25)
    names = list(workloads)

    legs = {}
    reference = None
    for backend_name in MATRIX_BACKENDS:
        engine = ExperimentEngine(
            jobs=1 if backend_name == "serial" else jobs, cache=False)
        start = time.perf_counter()
        result = run_figure4(workloads=names, settings=settings,
                             engine=engine)
        wall = time.perf_counter() - start
        if reference is None:
            reference = _signature(result)
        else:
            assert _signature(result) == reference, \
                f"{backend_name} sweep diverged from serial"
        stats = engine.last_run_stats
        assert stats["backend"] == backend_name, stats
        legs[backend_name] = {
            "wall_s": round(wall, 3),
            "scheduler": {key: stats[key] for key in _SCHEDULER_KEYS},
        }

    # Dispatcher A/B on identical (fn, payloads): the frozen run_supervised
    # collector is the pre-seam reference implementation, so the difference
    # is exactly what the dispatch() event loop adds.
    specs = [JobSpec(workload, config, settings)
             for workload in names
             for config in ("indexed-3-fwd+dly", "associative-5-predictive")]
    start = time.perf_counter()
    frozen_records, _stats = run_supervised(run_job, specs, jobs,
                                            scope="job", chunksize=1)
    frozen_s = time.perf_counter() - start

    dispatch_jobs = [DispatchJob(index=position, payload=spec,
                                 label=f"{spec.workload}:{spec.config_name}")
                     for position, spec in enumerate(specs)]
    start = time.perf_counter()
    dispatched_records, _stats = dispatch(SupervisedPoolBackend(jobs),
                                          run_job, dispatch_jobs,
                                          scope="job", chunksize=1)
    dispatched_s = time.perf_counter() - start

    assert [record.result.stats.as_dict() for record in dispatched_records] \
        == [record.result.stats.as_dict() for record in frozen_records], \
        "dispatched records diverged from the frozen run_supervised path"

    return {
        "workloads": names,
        "cpus": cpus,
        "jobs": jobs,
        "legs": legs,
        "frozen_supervised_s": round(frozen_s, 3),
        "dispatched_supervised_s": round(dispatched_s, 3),
        "dispatch_overhead_pct": round(
            100.0 * (dispatched_s - frozen_s) / frozen_s, 2)
        if frozen_s else 0.0,
    }


def assert_backend_matrix(data):
    """Hardware-gated bar for the backend matrix.

    Bit-identity across every leg is asserted unconditionally inside
    ``measure_backend_matrix``; the speed bar below only fires where the
    hardware can express it — on a single-CPU box the supervisor, both
    workers, and the OS contend for one core and identical runs swing
    more than the band either way, so the trajectory number is recorded
    but not enforced.  A small absolute slack absorbs timer noise on
    sweeps short enough that 3% is milliseconds.
    """
    if data["cpus"] >= 2:
        assert data["dispatched_supervised_s"] <= \
            data["frozen_supervised_s"] * 1.03 + 0.75, (
                f"dispatcher seam {data['dispatched_supervised_s']}s exceeds "
                f"frozen run_supervised {data['frozen_supervised_s']}s by "
                f"more than 3% (+0.75s slack): "
                f"{data['dispatch_overhead_pct']}%")


def test_engine_speedup(tmp_path):
    data = measure_engine_speedup(cache_dir=tmp_path / "cache")
    matrix = measure_backend_matrix()
    path = write_bench_json("engine", {"wall_time_s": data["serial_s"],
                                       "backend_matrix": matrix, **data})
    print(f"\nengine speedup: serial {data['serial_s']}s, "
          f"parallel x{data['parallel_speedup']} ({data['parallel_jobs']} workers, "
          f"{data['cpus']} CPUs), warm cache x{data['warm_cache_speedup']}, "
          f"dispatcher overhead {matrix['dispatch_overhead_pct']}% "
          f"-> {path.name}")

    # The dispatcher seam must be nearly free when no faults fire.
    assert_backend_matrix(matrix)

    # The warm cache simulates nothing; it must be a large win everywhere.
    assert data["warm_cache_speedup"] >= 5.0, data

    # The parallel bar scales with the hardware the run actually has.
    if data["cpus"] >= 4:
        assert data["parallel_speedup"] >= 2.0, data
    elif data["cpus"] >= 2:
        assert data["parallel_speedup"] >= 1.1, data
    # Single-CPU boxes: fan-out cannot beat serial; bit-identity (asserted
    # inside the measurement) is the contract under test.
