"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload fig4-detail --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/repro`` must be present;
without it the command exits with status 2).  Each pass runs in a fresh
process (``harness.py``) with every caller ``REPRO_*`` knob cleared and
private result-cache and checkpoint directories under
``.perfbench-tmp/``, which are removed afterwards.

``--trace 0`` repeats cold passes until ``--seconds`` is used up (at least
three) and reports the end-to-end metrics as medians over the passes, with
timings rescaled to a fixed host speed (see ``normalised_seconds``).
``--trace 1`` runs one untraced pass on the workload's own engine
configuration, an untraced serial pass when that configuration is not
serial, and one traced serial pass, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
1 when the correctness gate failed any job.

``--freeze-digests`` runs one pass of every workload at the default seed
and rewrites ``digests.json``; use it only when a change is meant to alter
simulated output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench-tmp"
WORKLOADS = ("fig4-detail", "sampled-sweep", "mlp-memory")
DEFAULT_SEED = 1
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
#: Reference-slice time that ``sim_kips`` is normalised to (about the
#: slice's time in this host's fast state; see ``normalised_seconds``).
NOMINAL_SLICE_S = 0.010


def _child_env(tmp: Path) -> dict:
    """The caller's environment minus every ``REPRO_*`` knob, plus the
    pass's private stores and temp directory and ``src`` as the only
    ``PYTHONPATH`` entry."""
    env = {key: value for key, value in os.environ.items()
           if "REPRO_" not in key and key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["REPRO_CHECKPOINT_DIR"] = str(tmp / "checkpoints")
    env["TMPDIR"] = str(tmp)
    return env


def run_pass(workload: str, seed: int, traced: bool = False, serial: bool = False) -> dict:
    """One cold pass in a fresh process; returns its JSON report.

    A pass that crashes or times out reports every job as failed.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=TMP_ROOT))
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if serial:
        cmd.append("--serial")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=_child_env(tmp), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\npass timed out after {PASS_TIMEOUT_S} s"
    finally:
        # Pool workers live in the pass's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        return {"crashed": True, "problems": {"pass": f"exit {proc.returncode}"}}
    return json.loads(lines[-1])


def _gate(passes, jobs):
    """(attempted, failed) over every pass.  A job fails when the pass's
    gate flagged it, when the pass crashed, or when its digest differs from
    the first pass's (every pass simulates the same inputs); the last case
    is added to the pass's ``problems``."""
    reference = next((p["digests"] for p in passes if not p.get("crashed")), {})
    failed = 0
    for p in passes:
        if p.get("crashed"):
            failed += jobs
            continue
        for label, value in p["digests"].items():
            if reference.get(label) != value:
                p["problems"].setdefault(label, "digest differs from the first pass")
        failed += min(len(p["problems"]), jobs)
    return jobs * len(passes), failed


def _job_count(passes):
    return max((p["jobs"] for p in passes if not p.get("crashed")), default=1)


def timed_run(workload, seed, seconds):
    passes = []
    begin = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed))
        if passes[-1].get("crashed"):
            break
        elapsed = time.monotonic() - begin
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    jobs = _job_count(passes)
    attempted, failed = _gate(passes, jobs)
    good = [p for p in passes if not p.get("crashed")]
    metrics = end_to_end_metrics(good, attempted, failed) if good else {}
    return attempted, failed, metrics, passes


def engine_seconds(p):
    """Host seconds of a pass's engine run, minus the reference slices run
    after each job (divided over the workers that ran them)."""
    slices = sum(reference for _, reference in p["job_s"].values())
    return p["sim_s"] - slices / (p["run_stats"]["workers"] or 1)


def normalised_seconds(p):
    """:func:`engine_seconds` rescaled to a host whose reference slice takes
    ``NOMINAL_SLICE_S``.

    This host switches between a fast state and one ~1.6x slower every few
    seconds, and drifts over minutes (see PROVENANCE.md).  The reference
    slice timed after every job samples the state the jobs ran in, so the
    ratio cancels the state and keeps the simulator's own speed.
    """
    return engine_seconds(p) * speed_factor(p)


def speed_factor(p):
    """``NOMINAL_SLICE_S`` over the pass's mean reference-slice time."""
    slices = [reference for _, reference in p["job_s"].values()]
    return NOMINAL_SLICE_S * len(slices) / sum(slices)


def end_to_end_metrics(good, attempted, failed):
    """Medians over the passes that ran (``good``) plus the job success
    share.  Both timings are rescaled by the pass's :func:`speed_factor`
    (set-up runs seconds before the jobs, well within one host state)."""
    return {
        "setup_s": (statistics.median(p["setup_s"] * speed_factor(p) for p in good), "s"),
        "sim_kips": (statistics.median(p["instr_configs"] / normalised_seconds(p) / 1e3
                                       for p in good), "kinstr/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in good), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def ci_metrics(passes):
    """``rel_time_ci_pct`` and ``s_to_1pct_ci`` of a sampled workload (zero
    elsewhere).  The CI is simulated, so every pass reports the same value;
    the time is the median of :func:`normalised_seconds` over the passes."""
    good = [p for p in passes if not p.get("crashed")]
    ci_pct = good[0]["rel_time_ci_pct"] if good else None
    if ci_pct is None:
        return {"sampling.rel_time_ci_pct": (0.0, "%"), "sampling.s_to_1pct_ci": (0.0, "s")}
    seconds = statistics.median(normalised_seconds(p) for p in good)
    return {"sampling.rel_time_ci_pct": (ci_pct, "%"),
            "sampling.s_to_1pct_ci": (seconds * ci_pct ** 2, "s")}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced_base, exec_pass):
    """Per-layer metrics from a traced pass (see ``PROVENANCE.md``)."""
    layers, units, totals = traced["layers"], traced["units"], traced["totals"]
    out = {}

    def span(name, key):
        out[f"{name}.{key}"] = (layers.get(name, {}).get(key, 0),
                                "count" if key == "calls" else "s")

    for name in ("workloads.compose", "isa.rebase", "pipeline.run",
                 "lsu.predict_load", "lsu.forward", "lsu.load_committed",
                 "lsu.store_committed", "core.fsp", "core.sat", "core.ddp", "core.svw",
                 "core.store_sets", "frontend.predict_and_resolve", "memory.load_latency",
                 "memory.store_touch", "memory.image_read", "memory.image_write",
                 "memory.mshr_load_latency", "sampling.warm", "sampling.load_state",
                 "sampling.interval", "exec.checkpoint_store.get",
                 "exec.checkpoint_store.put", "exec.result_cache.get",
                 "exec.result_cache.put"):
        span(name, "calls")
        span(name, "self_s")
    for name in ("sampling.generate", "sampling.merge", "exec.engine", "harness.aggregate"):
        span(name, "self_s")

    compose_s = layers.get("workloads.compose", {}).get("total_s", 0)
    warm_s = layers.get("sampling.warm", {}).get("total_s", 0)
    run_self_ns = layers.get("pipeline.run", {}).get("self_s", 0) * 1e9
    committed = totals["committed"]
    out.update({
        "workloads.compose.kuops_per_s": (
            _ratio(units.get("workloads.compose", 0), compose_s) / 1e3, "kuops/s"),
        "pipeline.ns_per_uop": (_ratio(run_self_ns, units.get("pipeline.run", 0)), "ns"),
        "pipeline.ns_per_cycle": (
            _ratio(run_self_ns, units.get("pipeline.run.cycles", 0)), "ns"),
        "pipeline.useful_frac": (
            _ratio(committed, committed + totals["squashed_uops"]), "ratio"),
        "lsu.reexec_frac": (_ratio(totals["loads_reexecuted"], totals["committed_loads"]),
                            "ratio"),
        "frontend.mispredict_rate": (
            _ratio(totals["branch_mispredictions"], totals["committed_branches"]), "ratio"),
        "memory.l1_miss_rate": (
            _ratio(totals["l1_misses"], totals["committed_loads"] + totals["committed_stores"]),
            "ratio"),
        "memory.mshr_coalesced": (totals["misses_coalesced"], "count"),
        "memory.prefetch_useful_frac": (
            _ratio(totals["prefetch_useful"], totals["prefetch_issued"]), "ratio"),
        "sampling.warm.kuops_per_s": (_ratio(units.get("sampling.warm", 0), warm_s) / 1e3,
                                      "kuops/s"),
        "sampling.checkpoints_generated": (
            exec_pass["run_stats"]["checkpoint_generated"], "count"),
        "sampling.checkpoints_reused": (exec_pass["run_stats"]["checkpoint_reused"], "count"),
    })
    stats = exec_pass["run_stats"]
    out.update({
        "exec.dispatch_overhead_ms": (stats["dispatch_overhead_ns"] / 1e6, "ms"),
        "exec.inflight_peak": (stats["inflight_peak"], "count"),
        "exec.retries": (stats["job_retries"], "count"),
        "exec.quarantined": (stats["blobs_quarantined"], "count"),
        "exec.cache_hit_frac": (_ratio(stats["cache_hits"], stats["total"]), "ratio"),
        "trace.overhead_pct": (
            100.0 * (traced["sim_s"] / engine_seconds(untraced_base) - 1.0), "%"),
    })
    out.update(ci_metrics([exec_pass]))
    return out


def traced_run(workload, seed):
    exec_pass = run_pass(workload, seed)
    passes = [exec_pass]
    if not exec_pass.get("crashed") and exec_pass["run_stats"]["workers"] > 1:
        passes.append(run_pass(workload, seed, serial=True))
    passes.append(run_pass(workload, seed, traced=True))
    attempted, failed = _gate(passes, _job_count(passes))
    if any(p.get("crashed") for p in passes):
        return attempted, failed, {}, passes
    return attempted, failed, layer_metrics(passes[-1], passes[-2], exec_pass), passes


def _report(workload, passes, metrics):
    """Human-readable lines (everything before the final JSON line).

    ``metrics`` may hold more than the JSON line reports (the sampled CI
    of an untraced run is printed for information)."""
    good = [p for p in passes if not p.get("crashed")]
    if good:
        stats = good[0]["run_stats"]
        print(f"# {workload}: {len(passes)} passes, kernel={stats['kernel']} "
              f"backend={stats['backend']} workers={stats['workers']}")
    for p in passes:
        for label, problem in p.get("problems", {}).items():
            print(f"# GATE FAIL {label}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    gmeans = good[0]["gmeans"] if good else {}
    if gmeans:
        print("# Figure-4 geometric means (information only; the model is "
              "unvalidated against hardware and compared only to the paper's simulator)")
        for config, (value, paper) in gmeans.items():
            if paper is None:
                print(f"#   {config:26s} measured {value:.3f}  paper n/a")
            else:
                print(f"#   {config:26s} measured {value:.3f}  paper {paper:.3f}  "
                      f"delta {value - paper:+.3f}")


def freeze_digests() -> int:
    frozen = {}
    for workload in WORKLOADS:
        report = run_pass(workload, DEFAULT_SEED)
        if report.get("crashed"):
            return 1
        problems = {k: v for k, v in report["problems"].items()
                    if not v.startswith(("digest", "no frozen digest"))}
        if problems:
            print(json.dumps(problems, indent=1))
            return 1
        frozen[workload] = report["digests"]
    (HERE / "digests.json").write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.freeze_digests:
        return freeze_digests()
    if args.workload is None:
        parser.error("--workload is required")
    # Compile once up front so no pass pays bytecode compilation in setup_s.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=False, stdout=subprocess.DEVNULL)

    if args.trace:
        attempted, failed, metrics, passes = traced_run(args.workload, args.seed)
    else:
        attempted, failed, metrics, passes = timed_run(args.workload, args.seed, args.seconds)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass
    correct = failed == 0 and bool(metrics)
    shown = dict(metrics)
    if not args.trace and metrics and passes[0]["rel_time_ci_pct"] is not None:
        shown.update(ci_metrics(passes))
    _report(args.workload, passes, shown)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
