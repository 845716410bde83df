"""Golden bit-identity regression for the detailed hot path.

``tests/golden/hotpath_golden.json`` pins the *exact* merged counter
dictionaries of fixed-seed full-detail and sampled runs, frozen from the
pre-two-plane (PR 4) simulator.  This and future hot-path refactors diff
against those frozen numbers — not merely against themselves — so a
representation change that silently shifts any statistic fails here even if
it is internally self-consistent.

The same runs are additionally fed as hand-built traces: the generator's
micro-ops decoded to :class:`~repro.isa.uop.MicroOp` objects and re-encoded
with :func:`~repro.isa.plane.encode_uops` onto a fresh static plane.  That
path must reproduce the frozen counters too.

The sampled cells run through :class:`~repro.exec.engine.ExperimentEngine`,
the one sampled-run path.

The ``mlp`` cells pin the non-blocking MSHR hierarchy (8 and 16 entries,
and 8 entries with the stride prefetcher) on two workloads and two SQ
policies.  They were frozen while an independent second implementation of
the core loop still existed and agreed with them bit for bit.

Regenerate the goldens ONLY for intentional trace-content or
simulator-semantics changes: ``python tests/golden/generate_goldens.py``
(see that file's docstring).
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.exec import ExperimentEngine, JobSpec
from repro.harness.runner import ExperimentSettings, run_workload
from repro.isa.plane import encode_uops
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.mshr import MLPConfig, PrefetchConfig
from repro.pipeline.config import CoreConfig
from repro.sampling.plan import SamplingPlan
from repro.workloads.suites import build_workload

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "hotpath_golden.json")

FULL_DETAIL_WORKLOADS = ("vortex", "mesa.m")
FULL_DETAIL_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                       "indexed-3-fwd+dly")
FULL_DETAIL_INSTRUCTIONS = 20_000   # crosses the 16384-uop segment boundary

SAMPLED_WORKLOAD = "vortex"
SAMPLED_INSTRUCTIONS = 60_000
SAMPLED_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")

MLP_WORKLOADS = ("vortex", "mcf")
MLP_CONFIGS = ("indexed-3-fwd+dly", "associative-5-predictive")
MLP_HIERARCHIES = {
    "mshr8": MLPConfig(enabled=True, mshr_entries=8),
    "mshr16": MLPConfig(enabled=True, mshr_entries=16),
    "mshr8+pf": MLPConfig(enabled=True, mshr_entries=8,
                          prefetch=PrefetchConfig(enabled=True)),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _plan():
    return SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, functional_warmup=2_000, seed=3)


def _stats_dict(stats) -> dict:
    return {name: value for name, value in sorted(stats.as_dict().items())}


def _run_sampled(config, settings, checkpoint_dir=None):
    record, = ExperimentEngine(jobs=1, cache=False,
                               checkpoint_dir=checkpoint_dir).run(
        [JobSpec(SAMPLED_WORKLOAD, config, settings)])
    return record


class TestFullDetailGoldens:
    @pytest.mark.parametrize("workload", FULL_DETAIL_WORKLOADS)
    def test_encoded_path_matches_frozen_counters(self, golden, workload):
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
        trace = build_workload(workload,
                               instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(trace, config, settings)
            want = golden["full_detail"][f"{workload}/{config}"]
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert dict(sorted(record.result.extra.items())) == want["extra"], config

    @pytest.mark.parametrize("workload", FULL_DETAIL_WORKLOADS)
    def test_object_path_matches_frozen_counters(self, golden, workload):
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
        encoded = build_workload(workload,
                                 instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        object_trace = encode_uops(encoded.uops, name=workload)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(object_trace, config, settings)
            want = golden["full_detail"][f"{workload}/{config}"]
            assert _stats_dict(record.result.stats) == want["stats"], config


class TestSampledGoldens:
    @pytest.mark.parametrize("config", SAMPLED_CONFIGS)
    def test_bounded_sampled_run_matches_frozen_counters(self, golden, config):
        settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                      sampling=_plan(), checkpoints=False)
        record = _run_sampled(config, settings)
        want = golden["sampled_bounded"][f"{SAMPLED_WORKLOAD}/{config}"]
        sampled = record.result.sampled
        assert _stats_dict(record.result.stats) == want["stats"]
        assert sampled.cpi_mean == want["cpi_mean"]
        assert [m.cycles for m in sampled.intervals] == want["interval_cycles"]
        assert [m.instructions for m in sampled.intervals] \
            == want["interval_instructions"]

    @pytest.mark.parametrize("config", SAMPLED_CONFIGS)
    def test_checkpointed_sampled_run_matches_frozen_counters(self, golden,
                                                              config):
        settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                      sampling=_plan(), checkpoints=True)
        with tempfile.TemporaryDirectory(prefix="repro-golden-ckpt-") as ckpt:
            record = _run_sampled(config, settings, ckpt)
        want = golden["sampled_checkpointed"][f"{SAMPLED_WORKLOAD}/{config}"]
        sampled = record.result.sampled
        assert _stats_dict(record.result.stats) == want["stats"]
        assert sampled.cpi_mean == want["cpi_mean"]
        assert [m.cycles for m in sampled.intervals] == want["interval_cycles"]


class TestDegenerateMLPGoldens:
    """The MLP degeneracy anchor, checked against the frozen goldens.

    ``mshr_entries=1`` with the non-blocking L2 and prefetcher off is
    *defined* to be the blocking hierarchy (PR 7), so running the golden
    workloads through a :class:`~repro.memory.mlp.NonBlockingHierarchy` in
    that configuration must reproduce the frozen counters bit for bit —
    including the *absence* of every MSHR statistic from the payload.
    """

    @pytest.mark.parametrize("workload", FULL_DETAIL_WORKLOADS)
    def test_degenerate_config_matches_frozen_counters(self, golden, workload):
        degenerate = MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False)
        core = CoreConfig(memory=MemoryHierarchyConfig(mlp=degenerate))
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS,
                                      core=core)
        trace = build_workload(workload,
                               instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(trace, config, settings)
            want = golden["full_detail"][f"{workload}/{config}"]
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert dict(sorted(record.result.extra.items())) == want["extra"], config


class TestNonBlockingMLPGoldens:
    """The non-blocking MSHR path (primary/secondary misses, the
    structural MSHR stall, prefetch scoring) against its frozen cells."""

    @pytest.mark.parametrize("label", sorted(MLP_HIERARCHIES))
    @pytest.mark.parametrize("workload", MLP_WORKLOADS)
    def test_mlp_cells_match_frozen_counters(self, golden, workload, label):
        core = CoreConfig(memory=MemoryHierarchyConfig(
            mlp=MLP_HIERARCHIES[label]))
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS,
                                      core=core)
        trace = build_workload(workload,
                               instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        for config in MLP_CONFIGS:
            record = run_workload(trace, config, settings)
            want = golden["mlp"][f"{workload}/{label}/{config}"]
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert dict(sorted(record.result.extra.items())) == want["extra"], config
