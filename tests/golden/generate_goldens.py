#!/usr/bin/env python
"""Regenerate the frozen hot-path golden numbers.

The goldens pin the *exact* merged counter dictionaries of fixed-seed
full-detail runs (on the blocking and on non-blocking MSHR hierarchies) and
sampled runs, so hot-path refactors (static-plane trace
encoding, core-loop rework, warming changes) diff against frozen numbers
rather than against themselves.  Regenerate ONLY when trace content or
simulator semantics change intentionally:

    PYTHONPATH=src python tests/golden/generate_goldens.py

and explain the regeneration in the commit message.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "hotpath_golden.json"

FULL_DETAIL_WORKLOADS = ("vortex", "mesa.m")
FULL_DETAIL_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                       "indexed-3-fwd+dly")
FULL_DETAIL_INSTRUCTIONS = 20_000   # crosses the 16384-uop segment boundary

SAMPLED_WORKLOAD = "vortex"
SAMPLED_INSTRUCTIONS = 60_000
SAMPLED_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")

MLP_WORKLOADS = ("vortex", "mcf")
MLP_CONFIGS = ("indexed-3-fwd+dly", "associative-5-predictive")


def _plan():
    from repro.sampling.plan import SamplingPlan

    return SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, functional_warmup=2_000, seed=3)


def _stats_dict(stats) -> dict:
    return {name: value for name, value in sorted(stats.as_dict().items())}


def _full_detail() -> dict:
    from repro.harness.runner import ExperimentSettings, run_workload
    from repro.workloads.suites import build_workload

    settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
    out = {}
    for workload in FULL_DETAIL_WORKLOADS:
        trace = build_workload(workload, instructions=FULL_DETAIL_INSTRUCTIONS,
                               seed=1)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(trace, config, settings)
            out[f"{workload}/{config}"] = {
                "stats": _stats_dict(record.result.stats),
                "extra": dict(sorted(record.result.extra.items())),
            }
    return out


def _mlp() -> dict:
    from repro.harness.runner import ExperimentSettings, run_workload
    from repro.memory.hierarchy import MemoryHierarchyConfig
    from repro.memory.mshr import MLPConfig, PrefetchConfig
    from repro.pipeline.config import CoreConfig
    from repro.workloads.suites import build_workload

    hierarchies = {
        "mshr8": MLPConfig(enabled=True, mshr_entries=8),
        "mshr16": MLPConfig(enabled=True, mshr_entries=16),
        "mshr8+pf": MLPConfig(enabled=True, mshr_entries=8,
                              prefetch=PrefetchConfig(enabled=True)),
    }
    out = {}
    for workload in MLP_WORKLOADS:
        trace = build_workload(workload, instructions=FULL_DETAIL_INSTRUCTIONS,
                               seed=1)
        for label, mlp in hierarchies.items():
            settings = ExperimentSettings(
                instructions=FULL_DETAIL_INSTRUCTIONS,
                core=CoreConfig(memory=MemoryHierarchyConfig(mlp=mlp)))
            for config in MLP_CONFIGS:
                record = run_workload(trace, config, settings)
                out[f"{workload}/{label}/{config}"] = {
                    "stats": _stats_dict(record.result.stats),
                    "extra": dict(sorted(record.result.extra.items())),
                }
    return out


def _sampled(checkpointed: bool) -> dict:
    from repro.exec import ExperimentEngine, JobSpec
    from repro.harness.runner import ExperimentSettings

    settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                  sampling=_plan(),
                                  checkpoints=checkpointed)
    out = {}
    for config in SAMPLED_CONFIGS:
        with tempfile.TemporaryDirectory(prefix="repro-golden-ckpt-") as ckpt:
            record, = ExperimentEngine(jobs=1, cache=False,
                                       checkpoint_dir=ckpt).run(
                [JobSpec(SAMPLED_WORKLOAD, config, settings)])
        sampled = record.result.sampled
        out[f"{SAMPLED_WORKLOAD}/{config}"] = {
            "stats": _stats_dict(record.result.stats),
            "cpi_mean": sampled.cpi_mean,
            "interval_cycles": [m.cycles for m in sampled.intervals],
            "interval_instructions": [m.instructions for m in sampled.intervals],
        }
    return out


def main() -> int:
    golden = {
        "full_detail": _full_detail(),
        "mlp": _mlp(),
        "sampled_bounded": _sampled(checkpointed=False),
        "sampled_checkpointed": _sampled(checkpointed=True),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, os.pardir, "src"))
    sys.exit(main())
