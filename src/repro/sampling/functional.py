"""Functional warming: fast in-order replay that trains long-lived state.

The cycle-accurate core spends most of its time in per-cycle machinery
(dispatch, wakeup heaps, completion queues).  For sampling, what matters
between measurement intervals is only the **long-lived microarchitectural
state**: branch direction tables, BTB, RAS, cache and TLB contents, the SVW
tables (SSBF/SPCT), the architectural memory image, the SSN counters, and
the PC-indexed dependence predictors (FSP/SAT, store sets, DDP).
:class:`FunctionalWarmer` retires a trace window in program order and
updates exactly that state, skipping the out-of-order timing model — an
order-of-magnitude cheaper per-instruction path.

Two deliberate approximations (shared by all configurations, so relative
comparisons are preserved):

* There is no in-flight window, so every store commits instantly
  (``SSNren == SSNcmt``).  A load is treated as *would-forward* when its
  most recent writer is within ``sq_size`` committed stores **and** within
  ``rob_size`` dynamic instructions — the store would plausibly still have
  been in the SQ of the detailed machine.  Policies use this signal in
  their :meth:`~repro.lsu.policies.SQPolicy.warm_load` hook to train the
  FSP / store sets the way detailed-mode violations and forwardings would
  have.
* Caches and the branch predictor are updated in program order rather than
  in (out-of-order) execution order; the SVW tables, memory image, and SSN
  counters are exact, because in the detailed core they are updated at
  commit, which *is* program order.
* Non-blocking hierarchies (``config.memory.mlp``; built through
  :func:`repro.memory.mlp.build_hierarchy` so the warmed structure matches
  what the detailed core adopts) warm through the inherited *blocking*
  access path: program-order replay has no clock to schedule fills
  against, so the MSHR file stays empty and cache tags warm with
  install-at-miss timing.  The detailed warm-up interval then populates
  the in-flight state, exactly as it settles the other short-lived
  structures.

The warmed state is handed to a detailed core via
:meth:`~repro.pipeline.core.OutOfOrderCore.import_state`, after which a
short detailed warm-up (:class:`~repro.sampling.plan.SamplingPlan`'s *W*)
lets the short-lived state (window occupancy, in-flight dependences, DDP
counters) settle before measurement begins.

**Encoded input**: the warm loop consumes the one trace type, two-plane
:class:`~repro.isa.plane.EncodedOps` streams — static fields come from the
shared plane's arrays, dynamic fields from the stream.

**Multi-policy warming** (PR 3): everything above except the policy tables is
configuration-independent, so one replay pass can warm several store-queue
policies at once — the branch predictor, caches, memory image, SSN counters,
and last-writer map are updated once per micro-op while the per-policy
``warm_store_renamed``/``store_committed``/``warm_load`` hooks run for every
policy.  This is what lets the checkpoint store
(:mod:`repro.sampling.checkpoints`) amortise a single O(N) functional pass
across every configuration of a sweep.  With a single policy the update
sequence is identical to the original single-policy warmer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.branch_predictor import BranchUnit
from repro.isa.plane import KIND_BRANCH, KIND_LOAD, KIND_STORE, EncodedOps
from repro.lsu.policies import SQPolicy
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mlp import build_hierarchy
from repro.memory.image import MemoryImage
from repro.core.ssn import SSNAllocator
from repro.pipeline.config import CoreConfig


@dataclass
class FunctionalState:
    """The long-lived machine state produced by a functional replay.

    ``last_writer`` maps byte address to ``(ssn, store_pc, instr_index)`` of
    the youngest store writing that byte (the exact analogue of the detailed
    core's oracle last-writer tracker).
    """

    config: CoreConfig
    branch_unit: BranchUnit
    hierarchy: MemoryHierarchy
    memory: MemoryImage
    ssn_alloc: SSNAllocator
    policy: SQPolicy
    last_writer: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    instructions_warmed: int = 0


class FunctionalWarmer:
    """Replays micro-ops in order, updating long-lived state only.

    ``policy`` names the single policy to warm (the common case).  Passing
    ``policies`` instead warms several policies through one shared replay:
    the shared structures are updated once per micro-op and every policy's
    training hooks run against them (``policy`` then defaults to the first
    entry, which :attr:`state` and :meth:`export_state` expose).

    ``start_index`` is the absolute dynamic-instruction index of the first
    micro-op warmed, so bounded warming that starts mid-trace keeps the
    in-flight-window distances of the full trace.
    """

    def __init__(self, config: CoreConfig, policy: Optional[SQPolicy] = None,
                 start_index: int = 0,
                 policies: Optional[Sequence[SQPolicy]] = None) -> None:
        if policies is None:
            if policy is None:
                raise ValueError("provide a policy (or a policies sequence)")
            policies = [policy]
        elif policy is not None and (not policies or policies[0] is not policy):
            raise ValueError("pass either policy or policies, not both")
        self.config = config
        self._policies: List[SQPolicy] = list(policies)
        if not self._policies:
            raise ValueError("at least one policy is required")
        self.state = FunctionalState(
            config=config,
            branch_unit=BranchUnit(config.branch_predictor),
            hierarchy=build_hierarchy(config.memory),
            memory=MemoryImage(),
            ssn_alloc=SSNAllocator(bits=config.ssn_bits),
            policy=self._policies[0],
        )
        #: Dynamic instruction index of the next micro-op (used for the
        #: in-flight-window approximation; offsets into the full trace keep
        #: the distances meaningful when warming starts mid-trace).
        self._index = start_index

    @property
    def policies(self) -> List[SQPolicy]:
        """The policies warmed by this replay (first == ``state.policy``)."""
        return self._policies

    # ------------------------------------------------------------------ warm --

    def warm(self, uops: EncodedOps) -> None:
        """Functionally retire ``uops`` in order.

        Shared structures (caches, branch tables, memory image, SSN
        counters, last-writer map) are updated once per micro-op; every
        policy's warming hooks run against that shared state, with the
        would-forward window computed per policy (SQ sizes may differ).
        """
        state = self.state
        branch_resolve = state.branch_unit.predict_and_resolve
        hierarchy = state.hierarchy
        memory_write = state.memory.write
        ssn_alloc = state.ssn_alloc
        warm_stores = [p.warm_store_renamed for p in self._policies]
        commit_hooks = [p.store_committed for p in self._policies]
        warm_loads = [(p.warm_load, p.sq_size) for p in self._policies]
        last_writer = state.last_writer
        last_writer_get = last_writer.get
        window_span = self.config.rob_size
        index = self._index

        plane = uops.plane
        kind_arr = plane.kind
        pc_arr = plane.pc
        sidx = uops.sidx
        addr_arr = uops.addr
        size_arr = uops.size

        for i, si in enumerate(sidx):
            kind = kind_arr[si]
            if kind == KIND_LOAD:
                pc = pc_arr[si]
                addr = addr_arr[i]
                size = size_arr[i]
                hierarchy.load_latency(addr)
                best = None
                best_ssn = 0
                for byte_addr in range(addr, addr + size):
                    entry = last_writer_get(byte_addr)
                    if entry is not None and entry[0] > best_ssn:
                        best_ssn = entry[0]
                        best = entry
                ssn_cmt = ssn_alloc.ssn_commit
                if best is not None:
                    in_window = index - best[2] < window_span
                    for warm_load, sq_size in warm_loads:
                        would_forward = (in_window
                                         and ssn_cmt - best_ssn < sq_size)
                        warm_load(pc, addr, size, best_ssn, best[1],
                                  would_forward, ssn_cmt)
                else:
                    for warm_load, _sq_size in warm_loads:
                        warm_load(pc, addr, size, 0, 0, False, ssn_cmt)
            elif kind == KIND_STORE:
                pc = pc_arr[si]
                addr = addr_arr[i]
                size = size_arr[i]
                ssn = ssn_alloc.allocate()
                for warm_store_renamed in warm_stores:
                    warm_store_renamed(pc, ssn)
                memory_write(addr, size, uops.value[i])
                ssn_alloc.commit(ssn)
                for store_committed in commit_hooks:
                    store_committed(pc, ssn, addr, size)
                hierarchy.store_touch(addr)
                entry = (ssn, pc, index)
                for byte_addr in range(addr, addr + size):
                    last_writer[byte_addr] = entry
            elif kind == KIND_BRANCH:
                target = uops.target[i]
                branch_resolve(pc_arr[si], uops.taken[i],
                               target if target >= 0 else None,
                               plane.hint_call[si], plane.hint_return[si])
            index += 1

        self._index = index
        state.instructions_warmed += len(sidx)

    # ---------------------------------------------------------------- export --

    def export_state(self) -> FunctionalState:
        """The warmed state bundle (shared references, not a copy).

        For multi-policy warming the bundle carries the *first* policy; the
        checkpoint store persists the other policies' state individually
        (:func:`repro.sampling.checkpoints.run_shard_job`) and
        reassembles per-configuration bundles at load time.
        """
        return self.state
