"""The detailed core's public contract and window bookkeeping.

The run loop (:mod:`repro.pipeline._vector_loop`) keeps the reorder buffer
and load queue in struct-of-arrays form and writes their counters back to
:class:`~repro.pipeline.rob.ReorderBuffer` and
:class:`~repro.lsu.load_queue.LoadQueue` after every run.  These tests pin
the invariants those counters must satisfy after a complete run, the one
trace form ``run`` accepts, and the ``VectorCore`` alias that class-level
instrumentation hooks into.
"""

from functools import lru_cache

import pytest

from repro.harness.runner import make_policy
from repro.isa.plane import encode_uops
from repro.pipeline.config import CoreConfig, small_test_config
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.vector import VectorCore
from repro.workloads.suites import build_workload

INSTRUCTIONS = 2000

#: One SQ policy per workload: two that flush on mis-forwarding (so the
#: window squashes), one that never does, one that waits on predictions.
CELLS = (
    ("vortex", "indexed-3-fwd"),
    ("gzip", "associative-5-optimistic"),
    ("mesa.m", "indexed-3-fwd+dly"),
    ("gsm.e", "oracle-associative-3"),
)

WINDOWS = {"paper": CoreConfig, "small": small_test_config}

RUNS = [pytest.param(workload, policy, window,
                     id=f"{workload}-{policy}-{window}")
        for workload, policy in CELLS for window in WINDOWS]


@lru_cache(maxsize=None)
def _run(workload, policy, window):
    core = OutOfOrderCore(WINDOWS[window](), make_policy(policy))
    result = core.run(build_workload(workload, instructions=INSTRUCTIONS,
                                     seed=1))
    return core, result.stats


def _signature(result):
    return (result.stats.as_dict(), result.extra)


@pytest.mark.parametrize("workload, policy, window", RUNS)
class TestWindowCounters:
    def test_every_instruction_commits(self, workload, policy, window):
        _core, stats = _run(workload, policy, window)
        assert stats.committed == INSTRUCTIONS

    def test_rob_allocations_are_commits_plus_squashes(self, workload,
                                                       policy, window):
        core, stats = _run(workload, policy, window)
        assert core.rob.allocations == stats.committed + stats.squashed_uops

    def test_rob_occupancy_bounded_by_capacity(self, workload, policy,
                                               window):
        core, _stats = _run(workload, policy, window)
        assert 0 < core.rob.max_occupancy <= core.config.rob_size

    def test_lq_allocations_released_or_squashed(self, workload, policy,
                                                 window):
        core, stats = _run(workload, policy, window)
        lq = core.load_queue.stats
        assert lq.allocations == lq.releases + lq.squashes
        assert lq.releases == stats.committed_loads

    def test_squashes_only_after_flushes(self, workload, policy, window):
        core, stats = _run(workload, policy, window)
        squashed = core.load_queue.stats.squashes + stats.squashed_uops
        assert (squashed > 0) == (stats.flushes > 0)


class TestTinyWindow:
    def test_rob_fills_to_capacity(self):
        core = OutOfOrderCore(CoreConfig(rob_size=16), make_policy(
            "oracle-associative-3"))
        stats = core.run(build_workload("vortex", instructions=INSTRUCTIONS,
                                        seed=1)).stats
        assert core.rob.max_occupancy == 16
        assert stats.rob_stall_cycles > 0

    def test_full_load_queue_stalls_dispatch(self):
        core = OutOfOrderCore(CoreConfig(load_queue_size=4), make_policy(
            "oracle-associative-3"))
        stats = core.run(build_workload("vortex", instructions=INSTRUCTIONS,
                                        seed=1)).stats
        assert stats.lq_stall_cycles > 0
        assert core.load_queue.stats.releases == stats.committed_loads


class TestTraceForms:
    @pytest.fixture(scope="class")
    def encoded(self):
        return build_workload("vortex", instructions=1500, seed=2)

    @pytest.fixture(scope="class")
    def reference(self, encoded):
        return _signature(OutOfOrderCore(
            CoreConfig(), make_policy("indexed-3-fwd+dly")).run(encoded))

    def test_microop_list_is_interned(self, encoded, reference):
        core = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd+dly"))
        trace = encode_uops(list(encoded.uops), name=encoded.name)
        assert _signature(core.run(trace)) == reference

    def test_microop_list_raises_type_error(self, encoded):
        core = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd+dly"))
        with pytest.raises(TypeError, match="encode_uops"):
            core.run(encoded.uops)

    def test_subclass_runs_the_same_loop(self, encoded, reference):
        class Stock(OutOfOrderCore):
            pass

        core = Stock(CoreConfig(), make_policy("indexed-3-fwd+dly"))
        assert _signature(core.run(encoded)) == reference


class TestVectorCoreAlias:
    def test_alias_is_the_core(self):
        assert VectorCore is OutOfOrderCore

    def test_class_level_run_patch_wraps_every_core(self, monkeypatch):
        """Instrumentation that wraps ``VectorCore.run`` sees every core
        run, including cores built as ``OutOfOrderCore`` by the harness."""
        from repro.harness.runner import ExperimentSettings, run_workload

        calls = []
        original = VectorCore.run

        def traced(core, trace, *args, **kwargs):
            allocations = core.rob.allocations
            result = original(core, trace, *args, **kwargs)
            calls.append(core.rob.allocations - allocations)
            return result

        monkeypatch.setattr(VectorCore, "run", traced)
        trace = build_workload("gzip", instructions=800, seed=1)
        record = run_workload(trace, "indexed-3-fwd",
                              ExperimentSettings(instructions=800))
        assert len(calls) == 1
        assert calls[0] >= record.result.stats.committed
