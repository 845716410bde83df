"""Span recording around the public calls into each ``repro`` layer.

The traced pass wraps public methods *at class level* before any engine or
core is built.  The fused detailed loop binds ``policy.predict_load``,
``hierarchy.load_latency``, ``branch_unit.predict_and_resolve`` and friends
once at loop entry, so a class-level wrapper sees every call.  A method is
wrapped only on the classes whose own ``__dict__`` defines it: replacing an
inherited attribute on a subclass would change the identity checks the
core uses to pick its inlined commit paths (``_fast_store_commit``,
``_fast_reexec``), and with it the code that runs.

Spans carry a name, start and end (``perf_counter_ns``), the index of the
enclosing span, and the recorder's run id.  They stay in memory (four
``array('q')`` columns, 32 bytes a span) until the pass ends and are then
reduced to per-name call counts, self time and work units.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.run_id = run_id
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        #: name -> work units (uops, cycles, ...) reported by wrapped calls.
        self.units: Dict[str, int] = {}

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Open a span (the caller closes it with :meth:`close`)."""
        index = len(self.start)
        stack = self._stack
        self.name_of.append(self._intern(name))
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def add_units(self, name: str, count: int) -> None:
        self.units[name] = self.units.get(name, 0) + count

    def wrap(self, name: str, fn: Callable,
             units: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``units(args, result)`` (optional) returns the work units the call
        did; they accumulate under ``name``.
        """
        nid = self._intern(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = self.clock
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if units is not None:
                recorder.add_units(name, units(args, result))
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``self_s`` and ``total_s``.

        ``calls`` counts only spans not directly nested in a span of the
        same name, so an override that delegates to ``super()`` counts once.
        ``total_s`` sums the same outermost spans.
        """
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        count = len(self.start)
        child_ns = array("q", bytes(8 * count))
        durations = array("q", (self.end[i] - self.start[i] for i in range(count)))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += durations[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        self_ns = dict.fromkeys(self.names, 0)
        total_ns = dict.fromkeys(self.names, 0)
        for i in range(count):
            name = self.names[self.name_of[i]]
            self_ns[name] += durations[i] - child_ns[i]
            p = self.parent[i]
            if p < 0 or self.name_of[p] != self.name_of[i]:
                out[name]["calls"] += 1
                total_ns[name] += durations[i]
        for name in self.names:
            out[name]["self_s"] = self_ns[name] / 1e9
            out[name]["total_s"] = total_ns[name] / 1e9
        return out


# ----------------------------------------------------------------- targets --

def _len_result(_args, result) -> int:
    return len(result)


def _len_arg1(args, _result) -> int:
    return len(args[1])


def _public_functions(cls) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)]


def targets() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, units)`` for every wrapped call.

    Owners are classes (wrapped where they define the attribute) or
    modules whose function is looked up at call time by its callers.
    ``CheckpointStore`` inherits ``get``/``put`` from ``ResultCache``; its
    entries come first so they wrap the unpatched originals, and the two
    stores get separate names.
    """
    from repro.core.ddp import DelayDistancePredictor
    from repro.core.fsp import ForwardingStorePredictor
    from repro.core.sat import StoreAliasTable
    from repro.core.store_sets import StoreSetsPredictor
    from repro.core.svw import StorePCTable, StoreSequenceBloomFilter, SVWFilter
    from repro.exec.cache import ResultCache
    from repro.exec.engine import ExperimentEngine
    from repro.frontend.branch_predictor import BranchUnit
    from repro.harness import runner
    from repro.isa.plane import EncodedOps
    from repro.lsu import policies
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.image import MemoryImage
    from repro.memory.mlp import NonBlockingHierarchy
    from repro.sampling import checkpoints, driver
    from repro.sampling.functional import FunctionalWarmer
    from repro.workloads.suites import WorkloadComposer

    out: List[Tuple[str, object, str, Optional[Callable]]] = [
        ("workloads.compose", WorkloadComposer, "compose", _len_result),
        ("isa.rebase", EncodedOps, "rebase", None),
        ("frontend.predict_and_resolve", BranchUnit, "predict_and_resolve", None),
        ("memory.load_latency", MemoryHierarchy, "load_latency", None),
        ("memory.store_touch", MemoryHierarchy, "store_touch", None),
        ("memory.image_read", MemoryImage, "read", None),
        ("memory.image_write", MemoryImage, "write", None),
        ("memory.mshr_load_latency", NonBlockingHierarchy, "load_access", None),
        ("sampling.warm", FunctionalWarmer, "warm", _len_arg1),
        ("sampling.generate", checkpoints, "execute_generation", None),
        ("sampling.load_state", checkpoints, "load_interval_state", None),
        ("sampling.interval", driver, "run_interval_job", None),
        ("sampling.merge", driver, "merge_interval_records", None),
        ("exec.checkpoint_store.get", checkpoints.CheckpointStore, "get", None),
        ("exec.checkpoint_store.put", checkpoints.CheckpointStore, "put", None),
        ("exec.result_cache.get", ResultCache, "get", None),
        ("exec.result_cache.put", ResultCache, "put", None),
        ("exec.engine", ExperimentEngine, "run", None),
        ("harness.aggregate", runner, "geometric_mean", None),
    ]
    for method in ("predict_load", "forward", "load_committed", "store_committed"):
        for cls in (policies.SQPolicy, policies.OracleAssociativePolicy,
                    policies.AssociativeStoreSetsPolicy, policies.IndexedSQPolicy):
            if method in vars(cls):
                out.append((f"lsu.{method}", cls, method, None))
    for layer, classes in (("fsp", (ForwardingStorePredictor,)),
                           ("sat", (StoreAliasTable,)),
                           ("ddp", (DelayDistancePredictor,)),
                           ("svw", (SVWFilter, StoreSequenceBloomFilter, StorePCTable)),
                           ("store_sets", (StoreSetsPredictor,))):
        for cls in classes:
            for method in _public_functions(cls):
                if method not in ("state_signature", "storage_bits"):
                    out.append((f"core.{layer}", cls, method, None))
    return out


def _wrap_run(recorder: SpanRecorder, run: Callable) -> Callable:
    """``VectorCore.run`` with uop and cycle counts per call.

    Uops are ROB allocations (squashed re-dispatches included) and cycles
    the core's cycle counter, both as deltas across the call, so cores
    resumed from a checkpoint count only what this call simulated.
    """
    @functools.wraps(run)
    def traced(core, *args, **kwargs):
        uops0, cycle0 = core.rob.allocations, core._cycle
        index = recorder.open("pipeline.run")
        try:
            return run(core, *args, **kwargs)
        finally:
            recorder.close(index)
            recorder.add_units("pipeline.run", core.rob.allocations - uops0)
            recorder.add_units("pipeline.run.cycles", core._cycle - cycle0)

    return traced


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    from repro.pipeline.vector import VectorCore

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    for name, owner, attr, units in targets():
        patch(owner, attr, recorder.wrap(name, getattr(owner, attr), units))
    patch(VectorCore, "run", _wrap_run(recorder, VectorCore.run))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore
