"""Cycle-level out-of-order core.

The core replays a dynamic micro-op trace through a model of the paper's
machine: an 8-wide rename/issue/commit pipeline with a 512-entry ROB,
300-entry issue queue, 128-entry load queue, and 64-entry store queue
(Section 4.1).  The store-queue access behaviour — associative vs. indexed,
ideal vs. realistic latency, with or without delay prediction — is supplied
by an :class:`~repro.lsu.policies.SQPolicy`.

Modelling notes (and deliberate simplifications, shared by *all*
configurations so relative comparisons are preserved):

* The model is trace driven: wrong-path instructions are not fetched.  A
  mispredicted branch instead blocks fetch until the branch resolves plus a
  front-end redirect penalty, the standard trace-driven treatment.
* Scheduler replay is modelled as a penalty added to a load's value-broadcast
  time whenever its actual latency exceeds the latency the scheduler assumed
  when speculatively waking dependants (cache misses, and SQ forwarding when
  the SQ is slower than the cache), plus a replay counter.
* Re-execution-detected violations (memory-ordering violations and the
  indexed SQ's mis-forwardings) flush everything younger than the offending
  load; the load itself commits with the re-executed (correct) value.
* Fetch and decode are folded into dispatch: up to ``rename_width`` trace
  micro-ops enter the window per cycle, at most one taken branch per cycle,
  provided no redirect is pending and no structure is full.  The explicit
  front-end depth appears only in the redirect/flush penalties.

This module holds the machine's long-lived state (hierarchy, predictors,
memory image, SSN counters, queues, the oracle last-writer map), its
checkpoint hand-off (:meth:`OutOfOrderCore.export_state` /
:meth:`~OutOfOrderCore.import_state`), and result assembly.  The cycle loop
itself — dispatch, issue, wakeup, commit, flush, and the event-aware idle
fast-forward (``CoreConfig.idle_skip``) fused into one pass over
struct-of-arrays in-flight state — is
:func:`repro.pipeline._vector_loop.run_core_loop`.  It runs on the one
trace type, the static-plane :class:`~repro.isa.plane.EncodedOps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.frontend.branch_predictor import BranchUnit
from repro.isa.plane import KIND_LOAD, EncodedOps
from repro.lsu.load_queue import LoadQueue
from repro.lsu.policies import SQPolicy
from repro.lsu.store_queue import StoreQueue
from repro.memory.mlp import NonBlockingHierarchy, build_hierarchy
from repro.memory.image import MemoryImage
from repro.core.ssn import SSNAllocator
from repro.pipeline._vector_loop import run_core_loop
from repro.pipeline.config import CoreConfig
from repro.pipeline.rename import RegisterAliasTable
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.stats import SimStats


@dataclass
class SimulationResult:
    """Result of simulating one trace under one SQ configuration."""

    workload: str
    policy: str
    stats: SimStats
    config: CoreConfig
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class OutOfOrderCore:
    """Trace-driven cycle-level model of the paper's processor."""

    #: Abort if no instruction commits for this many consecutive cycles.
    DEADLOCK_LIMIT = 50_000

    def __init__(self, config: CoreConfig, policy: SQPolicy) -> None:
        self.config = config
        self.policy = policy
        self.stats = SimStats()

        self.hierarchy = build_hierarchy(config.memory)
        #: The non-blocking hierarchy when one is being modelled, else None
        #: (blocking model *and* the mshr_entries=1 degenerate mode, which
        #: is bit-identical to it).  Gates the MSHR integration: the
        #: issue-stage structural stall and the fill-timed load path.
        self._mlp_hier = self.hierarchy \
            if isinstance(self.hierarchy, NonBlockingHierarchy) \
            and self.hierarchy.nonblocking else None
        self.memory = MemoryImage()
        self.branch_unit = BranchUnit(config.branch_predictor)
        self.rat = RegisterAliasTable()
        self.rob = ReorderBuffer(config.rob_size)
        self.load_queue = LoadQueue(config.load_queue_size)
        self.store_queue = StoreQueue(config.store_queue_size)
        self.ssn_alloc = SSNAllocator(bits=config.ssn_bits)

        # Scalar machine state the run loop starts from and writes back.
        self._cycle = 0
        self._fetch_seq = 0
        self._fetch_resume_cycle = 0
        self._iq_occupancy = 0
        # Oracle last-writer tracker: byte address -> (seq, ssn) of the
        # youngest dispatched store writing that byte.
        self._last_writer: Dict[int, Tuple[int, int]] = {}

    # ---------------------------------------------------------- state import --

    def import_state(self, state) -> None:
        """Adopt functionally warmed machine state before a detailed run.

        ``state`` is a :class:`~repro.sampling.functional.FunctionalState`:
        its branch unit, memory hierarchy, memory image, SSN counters, and
        policy replace this core's freshly constructed ones, and its exact
        last-writer map seeds the oracle dependence tracker (with a sentinel
        sequence number of ``-1`` so flush repair can never confuse an
        imported writer with an in-flight store).  Statistics *counters* on
        the imported components are reset so a subsequent run reports only
        its own activity; the predictive/tag state itself stays warm.
        """
        from repro.lsu.policies import PolicyStats
        from repro.core.svw import SVWStats

        self.hierarchy = state.hierarchy
        self._mlp_hier = self.hierarchy \
            if isinstance(self.hierarchy, NonBlockingHierarchy) \
            and self.hierarchy.nonblocking else None
        self.memory = state.memory
        self.branch_unit = state.branch_unit
        self.ssn_alloc = state.ssn_alloc
        self.policy = state.policy
        self._last_writer = {
            byte_addr: (-1, entry[0]) for byte_addr, entry in state.last_writer.items()}
        self.hierarchy.reset_stats()
        self.branch_unit.reset_stats()
        self.policy.stats = PolicyStats()
        self.policy.svw.stats = SVWStats()

    def export_state(self):
        """Export the core's long-lived state, symmetric to :meth:`import_state`.

        Returns a :class:`~repro.sampling.functional.FunctionalState` bundling
        the live branch unit, memory hierarchy, memory image, SSN counters,
        policy, and oracle last-writer map — everything a subsequent
        :meth:`import_state` (on this or another core) adopts.  Serialising
        the bundle (the checkpoint store pickles it) freezes a copy.

        Intended for a *drained* core (between runs): in-flight window state
        (ROB/IQ/LQ/SQ occupancy, pending completions) is short-lived by
        design and is not exported.  The exported last-writer map keeps each
        byte's youngest writer SSN; the writer's PC and dynamic index are
        not tracked per byte by the detailed core and are exported as
        ``(0, -1)`` sentinels — :meth:`import_state` only consumes the SSN.
        """
        from repro.sampling.functional import FunctionalState

        return FunctionalState(
            config=self.config,
            branch_unit=self.branch_unit,
            hierarchy=self.hierarchy,
            memory=self.memory,
            ssn_alloc=self.ssn_alloc,
            policy=self.policy,
            last_writer={byte_addr: (entry[1], 0, -1)
                         for byte_addr, entry in self._last_writer.items()},
            instructions_warmed=self.stats.committed,
        )

    # ------------------------------------------------------------------ run --

    def run(self, trace: EncodedOps, warm_memory: bool = True,
            stats_warmup_fraction: float = 0.0,
            stats_warmup_instructions: Optional[int] = None,
            stats_measure_instructions: Optional[int] = None) -> SimulationResult:
        """Simulate ``trace`` to completion and return the result.

        ``trace`` is an :class:`~repro.isa.plane.EncodedOps` (what the
        workload generators produce); anything else raises
        :class:`TypeError` — intern a hand-built micro-op list with
        :func:`~repro.isa.plane.encode_uops` first.

        ``stats_warmup_fraction`` discards the statistics accumulated over the
        first fraction of committed instructions (while keeping all
        microarchitectural state: caches, predictors, branch history), the
        same role the paper's 8% warm-up plays for its samples.  The reported
        ``cycles`` likewise cover only the measured region.

        ``stats_warmup_instructions`` is the exact-count form of the same
        knob (used by the sampling subsystem, whose detailed warm-up is
        specified in instructions); it overrides the fraction when given.

        ``stats_measure_instructions`` stops the simulation once that many
        *post-warm-up* instructions have committed, leaving younger
        instructions in flight.  Interval sampling uses this so a measured
        region ends mid-steady-state (window still full) instead of
        charging the interval for the pipeline drain that a full run would
        have overlapped with subsequent instructions.
        """
        if not 0.0 <= stats_warmup_fraction < 1.0:
            raise ValueError("stats_warmup_fraction must be in [0, 1)")
        if not isinstance(trace, EncodedOps):
            raise TypeError(
                f"OutOfOrderCore.run takes an EncodedOps trace, not "
                f"{type(trace).__name__}; use encode_uops(uops, name=...)")
        # Policies that keep the base-class SVW re-execution filter / store
        # commit hooks get the loop's inlined commit-path versions;
        # overrides are honoured via the methods.  Checked once per run,
        # after any import_state has installed the policy being simulated.
        policy_type = type(self.policy)
        self._fast_reexec = (policy_type.needs_reexecution
                             is SQPolicy.needs_reexecution)
        self._fast_store_commit = (policy_type.store_committed
                                   is SQPolicy.store_committed)
        total = len(trace)
        if warm_memory:
            self._warm_caches(trace)

        if stats_warmup_instructions is not None:
            if not 0 <= stats_warmup_instructions < max(total, 1):
                raise ValueError(
                    "stats_warmup_instructions must be in [0, len(trace))")
            warmup_committed = stats_warmup_instructions
        else:
            warmup_committed = int(total * stats_warmup_fraction)
        stop_committed = total
        if stats_measure_instructions is not None:
            if stats_measure_instructions <= 0:
                raise ValueError("stats_measure_instructions must be positive")
            stop_committed = min(total,
                                 warmup_committed + stats_measure_instructions)

        (warmup_cycle_offset, warmup_instr_offset, warmup_l1_misses,
         warmup_l2_misses, mlp_base) = run_core_loop(
            self, trace, warmup_committed, stop_committed)

        # Report only the measured (post-warm-up) region — the miss
        # counters subtract the warm-up share so every SimStats field
        # covers exactly the same instructions (the hierarchy's own stats
        # stay cumulative for the run and feed the l1_miss_rate extra).
        stats = self.stats
        stats.cycles = self._cycle - warmup_cycle_offset
        stats.committed -= warmup_instr_offset
        stats.l1_misses = self.hierarchy.stats.l1_misses - warmup_l1_misses
        stats.l2_misses = self.hierarchy.stats.l2_misses - warmup_l2_misses
        extra = {
            "branch_misprediction_rate": self.branch_unit.misprediction_rate,
            "svw_reexecution_rate": self.policy.svw.stats.reexecution_rate,
            "l1_miss_rate": self.hierarchy.stats.l1_miss_rate(),
            "rob_max_occupancy": float(self.rob.max_occupancy),
        }
        mlp_hier = self._mlp_hier
        if mlp_hier is not None:
            mlp_stats = mlp_hier.mlp_stats
            delta = [after - before
                     for after, before in zip(mlp_stats.snapshot(), mlp_base)]
            stats.mshr_modeled = 1
            stats.mshr_demand_misses = delta[0]
            stats.misses_coalesced = delta[1]
            stats.mshr_inflight_sum = delta[2]
            stats.prefetch_issued = delta[3]
            stats.prefetch_useful = delta[4]
            # Occupancy is a peak over the whole run (warm-up included):
            # peaks have no warm-up share to subtract.
            stats.mshr_occupancy = mlp_stats.occupancy_peak
            extra["mlp_avg"] = stats.mlp_avg
            extra["mshr_occupancy"] = float(stats.mshr_occupancy)
        return SimulationResult(workload=trace.name, policy=self.policy.name,
                                stats=stats, config=self.config, extra=extra)

    def _warm_caches(self, encoded: EncodedOps) -> None:
        """Pre-touch the lines referenced by the first portion of the trace.

        The paper warms caches/predictors for 8% of each sample; touching the
        first few thousand accesses approximates starting from a warm state
        without perturbing the timing statistics."""
        budget = min(len(encoded), 4000)
        warm = self.hierarchy.warm
        kind = encoded.plane.kind
        sidx = encoded.sidx
        addr = encoded.addr
        for i in range(budget):
            if kind[sidx[i]] >= KIND_LOAD:   # loads and stores carry mem
                warm(addr[i])
