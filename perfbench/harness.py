"""One benchmark pass: build a workload's job list, run it, check it.

``run.py`` starts this file in a fresh process for every pass, with every
caller ``REPRO_*`` knob removed and private result-cache and checkpoint
directories, so each pass is cold and isolated.  The last line of standard
output is one JSON object describing the pass.

    python3 perfbench/harness.py --workload fig4-detail --seed 1 \
        --spawned-at <time.monotonic() of the parent at spawn> [--traced] [--serial]

``setup_s`` runs from the parent's spawn time to the moment the job list is
submitted: interpreter start, imports, environment validation and engine
construction.  ``sim_s`` runs from submission until the engine returns.
In an untraced pass every engine job and checkpoint-generation shard is
timed, followed by a fixed reference slice whose time samples the host's
speed at that moment (``job_s``: job id -> [job seconds, slice seconds]).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _stats_totals(records):
    keys = ("committed", "squashed_uops", "committed_loads", "committed_stores",
            "loads_reexecuted", "committed_branches", "branch_mispredictions",
            "l1_misses", "misses_coalesced", "prefetch_issued", "prefetch_useful")
    totals = dict.fromkeys(keys, 0)
    for record in records:
        stats = record.result.stats
        for key in keys:
            totals[key] += getattr(stats, key)
    return totals


#: The paper's Figure-4 bar names, keyed by this repo's config names.
PAPER_CONFIG = {"associative-3": "associative-3",
                "associative-5-predictive": "associative-5",
                "indexed-3-fwd": "indexed-3-fwd",
                "indexed-3-fwd+dly": "indexed-3-fwd+dly"}


def _relative_times(workload, jobs, records, runner):
    """(relative times the gate checks, sampled CI pct or None, per-config
    [geometric-mean relative time, paper value or None])."""
    from workloads import REL_TIME_PAIR

    numerator, denominator = REL_TIME_PAIR[workload]
    by_label = {job.label: record for job, record in zip(jobs, records)}
    if workload == "sampled-sweep":
        prefix = jobs[0].spec.workload
        base = by_label[f"{prefix}/{denominator}"].result.sampled
        test = by_label[f"{prefix}/{numerator}"].result.sampled
        ratio = test.cpi_mean / base.cpi_mean
        # First-order CI of a ratio: relative half-widths add in quadrature
        # (the estimate BENCH_sampling.json records for the paper-scale cell).
        ci = ratio * math.hypot(base.relative_ci, test.relative_ci)
        return [ratio], 100.0 * ci, {}
    cells = sorted({label.rsplit("/", 1)[0] for label in by_label})
    ratios = [by_label[f"{cell}/{numerator}"].cycles
              / by_label[f"{cell}/{denominator}"].cycles for cell in cells]
    gmeans = {}
    if workload == "fig4-detail":
        from repro.harness.paper_data import FIGURE4_GMEANS

        paper = FIGURE4_GMEANS["all"]
        configs = sorted({label.rsplit("/", 1)[1] for label in by_label} - {denominator})
        for config in configs:
            gmeans[config] = [runner.geometric_mean(
                by_label[f"{cell}/{config}"].cycles / by_label[f"{cell}/{denominator}"].cycles
                for cell in cells), paper.get(PAPER_CONFIG.get(config))]
    return ratios, None, gmeans


def _job_id(spec) -> str:
    """A name for a job that is the same in every pass (store paths,
    which differ per pass, are blanked)."""
    blank = {f.name: None for f in dataclasses.fields(spec)
             if f.name in ("checkpoint_dir", "directory")}
    text = f"{type(spec).__name__}:{dataclasses.replace(spec, **blank)!r}"
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def reference_slice(n: int = 10_000) -> int:
    """A fixed slice of interpreter-bound work (slotted objects, method
    calls, dict and heap traffic), timed after every job to sample the
    host's speed at that moment."""
    import heapq

    class Rec:
        __slots__ = ("ready", "value")

        def __init__(self) -> None:
            self.ready = 0
            self.value = 0

        def bump(self, k: int) -> int:
            self.value = (self.value * 31 + k) & 0xFFFF
            return self.value

    table: dict = {}
    ring = [Rec() for _ in range(64)]
    heap: list = []
    acc = 0
    for i in range(n):
        rec = ring[i & 63]
        v = rec.bump(i)
        table[v & 1023] = table.get(v & 1023, 0) + 1
        heapq.heappush(heap, (v, i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0]
        if v & 1:
            rec.ready = i
        acc ^= rec.ready
    return acc


def time_jobs(log_dir: str) -> None:
    """Log the host time of every engine job and checkpoint-generation
    shard, wherever it runs.

    Pool workers are forked from this process, so they inherit the
    patched functions; each process appends to its own file in
    ``log_dir``, which :func:`read_job_times` collects.
    """
    from repro.exec import engine as engine_module
    from repro.sampling import checkpoints

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(spec):
            began = time.perf_counter()
            try:
                return fn(spec)
            finally:
                elapsed = time.perf_counter() - began
                began = time.perf_counter()
                reference_slice()
                reference = time.perf_counter() - began
                path = os.path.join(log_dir, f"jobtimes-{os.getpid()}.txt")
                with open(path, "a") as log:
                    log.write(f"{_job_id(spec)} {elapsed!r} {reference!r}\n")
        return wrapper

    engine_module.run_job = timed(engine_module.run_job)
    checkpoints.run_shard_job = timed(checkpoints.run_shard_job)


def read_job_times(log_dir: str) -> dict:
    """Job id -> [host seconds, reference-slice seconds] (a retried job's
    attempts add up)."""
    times: dict = {}
    for path in Path(log_dir).glob("jobtimes-*.txt"):
        for line in path.read_text().splitlines():
            job, seconds, reference = line.split()
            entry = times.setdefault(job, [0.0, 0.0])
            entry[0] += float(seconds)
            entry[1] += float(reference)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--serial", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import gate
    import workloads
    from repro.exec import ExperimentEngine
    from repro.harness import runner

    jobs, workers = workloads.build(args.workload, args.seed)
    if args.serial or args.traced:
        workers = 1
    recorder = restore = None
    if args.traced:
        import tracing

        recorder = tracing.SpanRecorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        restore = tracing.install(recorder)
    else:
        time_jobs(os.environ["TMPDIR"])
    engine = ExperimentEngine(jobs=workers or 1,
                              cache_dir=os.environ["REPRO_CACHE_DIR"],
                              checkpoint_dir=os.environ["REPRO_CHECKPOINT_DIR"])

    submitted = time.monotonic()
    records = engine.run([job.spec for job in jobs])
    sim_s = time.monotonic() - submitted

    problems = {}
    for job, record in zip(jobs, records):
        found = gate.check_record(job.spec, record)
        if found:
            problems[job.label] = "; ".join(found)
    digests = {job.label: gate.record_digest(record) for job, record in zip(jobs, records)}
    if args.seed == workloads.DEFAULT_SEED:
        frozen = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
        for label, problem in gate.check_digests(digests, frozen).items():
            problems.setdefault(label, problem)
    ratios, ci_pct, gmeans = _relative_times(args.workload, jobs, records, runner)
    for ratio in ratios:
        problem = gate.check_ratio(ratio)
        if problem:
            problems.setdefault("relative-time", problem)
    if restore is not None:
        restore()

    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    instructions = sum(job.spec.settings.instructions for job in jobs)
    run_stats = engine.last_run_stats
    out = {
        "setup_s": submitted - args.spawned_at,
        "sim_s": sim_s,
        "job_s": {} if args.traced else read_job_times(os.environ["TMPDIR"]),
        "instr_configs": instructions,
        "rss_mb": rss_kb / 1024.0,
        "jobs": len(jobs),
        "problems": problems,
        "digests": digests,
        "rel_time_ci_pct": ci_pct,
        "gmeans": gmeans,
        "totals": _stats_totals(records),
        "run_stats": {key: run_stats.get(key, 0) for key in (
            "kernel", "backend", "workers", "total", "cache_hits", "inflight_peak",
            "dispatch_overhead_ns", "job_retries", "blobs_quarantined",
            "checkpoint_generated", "checkpoint_reused")},
    }
    if recorder is not None:
        out["spans"] = len(recorder)
        out["layers"] = recorder.summary()
        out["units"] = recorder.units
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
