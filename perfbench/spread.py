"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload sampled-sweep ...] [--out FILE]

For every workload and end-to-end metric this prints the median over the
seeds and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--out`` writes the values
with the machine they came from (CPU count, Python version).  Exits 1 when
a run fails or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"ok": False, "elapsed_s": elapsed}
    result = json.loads(lines[-1])
    return {"ok": result["correct"], "elapsed_s": elapsed,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    report = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform()},
              "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    status = 0
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(bench, workload, seed)
            runs.append(run)
            print(f"{workload} seed {seed}: {'ok' if run['ok'] else 'FAILED'} "
                  f"{run['elapsed_s']:.1f} s {run.get('metrics', {})}", flush=True)
            if not run["ok"]:
                status = 1
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs if r["ok"]]
            if len(values) < 2:
                continue
            median, rel = spread(values)
            summary[metric["name"]] = {"median": median, "iqr_share": rel,
                                       "bound": metric["bound"], "values": values}
            flag = "" if rel <= metric["bound"] else "  OVER BOUND"
            if flag and metric["name"] != "setup_s":
                status = 1
            print(f"  {metric['name']:14s} median {median:12.6g}  spread {rel:7.2%}  "
                  f"bound {metric['bound']:.0%}{flag}")
        report["workloads"][workload] = {
            "metrics": summary, "run_elapsed_s": [r["elapsed_s"] for r in runs]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
