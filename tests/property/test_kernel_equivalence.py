"""Seeded-random equivalence of the core against the frozen seed simulator.

``benchmarks/legacy_ref/`` is the complete pre-refactor detailed stack —
trace composer, predictors, LSU, memory system, and the attribute-probing
out-of-order core — frozen verbatim.  It shares no code with
``src/repro``, so it is an independent oracle for the current core: these
properties attack the pair with randomized inputs instead of the golden
suite's fixed cells — random ``(workload, trace seed, trace length)``
triples crossed with every SQ policy family and warm-up splits — and
require identical statistics dictionaries and ``extra`` metrics.

Hierarchy coverage: the blocking model, and the ``mshr_entries=1``
non-blocking configuration, which is *defined* to be the blocking model.
Wider MSHR files have no counterpart in the seed stack; they are pinned by
the ``mlp`` cells of ``tests/golden/hotpath_golden.json``.

Further properties cover the straight-line cycle loop (``idle_skip=False``)
with the exact-count warm-up / measured-region split the sampling
subsystem uses, and the ``export_state`` → ``import_state`` hand-off that
checkpoints and functional warming depend on.
"""

import dataclasses
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.harness.runner import ExperimentSettings, make_policy, run_workload
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.mshr import MLPConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import legacy_ref  # noqa: E402
from legacy_ref.config import CoreConfig as LegacyCoreConfig  # noqa: E402

#: A spread of trace generators: SPEC-proxy and MediaBench-proxy, memory-
#: and branch-heavy alike (each name seeds a different generator mix).
WORKLOADS = ("vortex", "gzip", "mesa.m", "gsm.e", "epic.d", "twolf")

#: Every SQ policy family Figure 4 compares, by ``make_policy`` name,
#: mapped to the seed stack's constructors with the same parameters.  The
#: original Store Sets formulation is not drawn: it deadlocks on some
#: traces (e.g. vortex, seed 1, 700 instructions) identically in the seed
#: stack, a known model defect.
LEGACY_POLICIES = {
    "oracle-associative-3":
        lambda: legacy_ref.OracleAssociativePolicy(sq_latency=3),
    "associative-3":
        lambda: legacy_ref.AssociativeStoreSetsPolicy(
            sq_latency=3, scheduling="predictive"),
    "associative-5-optimistic":
        lambda: legacy_ref.AssociativeStoreSetsPolicy(
            sq_latency=5, scheduling="optimistic"),
    "associative-5-predictive":
        lambda: legacy_ref.AssociativeStoreSetsPolicy(
            sq_latency=5, scheduling="predictive"),
    "indexed-3-fwd": lambda: legacy_ref.IndexedSQPolicy(use_delay=False),
    "indexed-3-fwd+dly": lambda: legacy_ref.IndexedSQPolicy(use_delay=True),
}
CONFIGS = tuple(LEGACY_POLICIES)

#: Hierarchies the seed stack can model: blocking, and the single-entry
#: MSHR file (defined equal to blocking).
MLP_VARIANTS = (
    None,
    MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False),
)


def _core_config(mlp=None, **overrides):
    if mlp is not None:
        overrides["memory"] = MemoryHierarchyConfig(mlp=mlp)
    return CoreConfig(**overrides)


def _signature(result):
    return (dict(sorted(result.stats.as_dict().items())),
            dict(sorted(result.extra.items())))


def _both(workload, instructions, trace_seed, config_name, run_kwargs,
          mlp=None, **config_overrides):
    """Run one draw on the core and on the seed stack; both signatures."""
    core = OutOfOrderCore(_core_config(mlp, **config_overrides),
                          make_policy(config_name))
    got = core.run(build_workload(workload, instructions=instructions,
                                  seed=trace_seed), **run_kwargs)
    legacy = legacy_ref.OutOfOrderCore(LegacyCoreConfig(**config_overrides),
                                       LEGACY_POLICIES[config_name]())
    want = legacy.run(legacy_ref.build_workload(
        workload, instructions=instructions, seed=trace_seed), **run_kwargs)
    return _signature(got), _signature(want)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=st.sampled_from(WORKLOADS),
    config_name=st.sampled_from(CONFIGS),
    mlp=st.sampled_from(MLP_VARIANTS),
    trace_seed=st.integers(min_value=1, max_value=6),
    instructions=st.sampled_from([700, 1100, 1600]),
    warmup=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_core_matches_seed_stack_on_random_draws(workload, config_name, mlp,
                                                 trace_seed, instructions,
                                                 warmup):
    got, want = _both(workload, instructions, trace_seed, config_name,
                      {"stats_warmup_fraction": warmup}, mlp=mlp)
    assert got == want, f"core diverged from legacy_ref on " \
        f"{workload}/{config_name}"


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=st.sampled_from(WORKLOADS),
    config_name=st.sampled_from(CONFIGS),
    trace_seed=st.integers(min_value=1, max_value=6),
    warmup_instructions=st.sampled_from([0, 150, 400]),
    measure_instructions=st.sampled_from([None, 300, 600]),
)
def test_straight_line_loop_matches_seed_stack(workload, config_name,
                                               trace_seed,
                                               warmup_instructions,
                                               measure_instructions):
    """``idle_skip=False`` on both sides, with the sampling subsystem's
    exact-count warm-up and early-stopping measured region."""
    run_kwargs = {"stats_warmup_instructions": warmup_instructions,
                  "stats_measure_instructions": measure_instructions}
    got, want = _both(workload, 1100, trace_seed, config_name, run_kwargs,
                      idle_skip=False)
    assert got == want


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=st.sampled_from(WORKLOADS),
    config_name=st.sampled_from(("indexed-3-fwd+dly",
                                 "associative-5-predictive")),
    trace_seed=st.integers(min_value=1, max_value=4),
)
def test_state_handoff_matches_seed_stack(workload, config_name, trace_seed):
    """Export mid-workload state, import it into a fresh core, continue on a
    second trace: the core and the seed stack doing the same hand-off must
    agree — the FunctionalState bundle carries everything that matters."""

    def handoff(core_cls, config_cls, policy, build):
        first = build(workload, instructions=900, seed=trace_seed)
        second = build(workload, instructions=900, seed=trace_seed + 50)
        warm = core_cls(config_cls(), policy())
        warm.run(first)
        state = warm.export_state()
        cont = core_cls(config_cls(), policy())
        cont.import_state(state)
        # warm_memory=False: the imported hierarchy IS the warm state.
        return _signature(cont.run(second, warm_memory=False))

    got = handoff(OutOfOrderCore, CoreConfig,
                  lambda: make_policy(config_name), build_workload)
    want = handoff(legacy_ref.OutOfOrderCore, LegacyCoreConfig,
                   LEGACY_POLICIES[config_name], legacy_ref.build_workload)
    assert got == want


def test_mlp_settings_equivalent_through_harness():
    """The harness-level MLP sweep cell (the ``ExperimentSettings`` shape
    the Figure/Table drivers use) matches a bare core on the same
    configuration — guarding the construction path the engine's workers
    take, not just bare cores."""
    core_config = CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=8)))
    settings = ExperimentSettings(instructions=1600, core=core_config)
    trace = build_workload("vortex", instructions=1600, seed=2)
    harness = _signature(
        run_workload(trace, "indexed-3-fwd+dly", settings).result)
    bare = _signature(OutOfOrderCore(
        core_config, make_policy("indexed-3-fwd+dly")).run(
            trace, stats_warmup_fraction=settings.stats_warmup_fraction))
    assert harness == bare
    assert "mlp_avg" in harness[1]


def test_mlp_variants_are_dataclasses():
    # Guards the MLP_VARIANTS constants against accidental mutation by a
    # future edit: frozen draw inputs keep the properties reproducible.
    for variant in MLP_VARIANTS[1:]:
        assert dataclasses.is_dataclass(variant)
