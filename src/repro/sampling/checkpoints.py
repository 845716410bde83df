"""Checkpointed functional warming: full-history passes, shared on disk.

Bounded functional warming (PR 2) keeps sampled runs ``O(sampled)`` but
cannot reproduce machine history older than its horizon, which leaves a
recorded lukewarm CPI bias on cache-heavy workloads at paper-scale counts.
This module removes that bias at amortised cost: **one full-trace
functional pass per policy group** (see *Generation jobs* below)
serialises the warmed machine state at every interval start into a
content-addressed on-disk **checkpoint store**, and every interval job
of every configuration in a sweep then *loads* its snapshot (via
:meth:`~repro.pipeline.core.OutOfOrderCore.import_state`) instead of
re-warming.  Because snapshots carry full history, the remaining error
is detailed-warmup-only — the faithful SMARTS configuration — while
the O(N) replay is paid once per policy group rather than once per
``(configuration, interval)``.

Storage layout (one pickle per entry, exactly like the result cache):

* **shared snapshots** — branch predictor/BTB/RAS, caches/TLB, memory
  image, SSN counters, and the oracle last-writer map are identical for
  every store-queue configuration, so they are stored once per
  ``(workload, plan, core config, interval)``.
* **policy snapshots** — the per-configuration predictor state (SVW tables,
  FSP/SAT, store sets, DDP) is stored per ``(configuration, sq_size,
  predictor overrides)`` on top of the shared key.  One
  :class:`~repro.sampling.functional.FunctionalWarmer` pass warms *all*
  missing configurations simultaneously (the shared structures update once
  per micro-op).
* **trace windows** — the same store memoises each interval's composed
  detailed-window micro-ops (written during the generation pass, tiny next
  to the segments they straddle), so checkpointed interval jobs stop
  re-emitting trace content entirely.  Windows and segments are stored in
  encoded two-plane form (:class:`~repro.isa.plane.EncodedOps`, schema v2):
  flat arrays that unpickle far cheaper than they recompose, which is what
  lets concurrent generation jobs share composed segments through the segment
  memo (``build_workload_window(..., disk_memo=True)`` in
  :mod:`repro.workloads.suites`).

Keys cover the trace identity, the sampling plan, the core configuration,
and SHA-256 fingerprints of the workload-generator and simulator sources —
editing a simulator source or changing the plan invalidates every snapshot
automatically, so restoring a stale store (e.g. from a CI cache) is always
safe.  Corrupt or truncated snapshot files are repaired in place: the
affected interval recomputes the exact same full-history state in-process
(never a silently-lukewarm result, never a crash).

**Generation jobs**: the O(N) pass is planned as one job per *policy
group*.  A workload group's missing configurations are dealt round-robin
into up to ``workers // #workload groups`` groups; each group's job replays
the full warming prefix once, warming its configurations simultaneously.
Policies are independent folds over the shared replay stream, so the
per-group passes are bit-identical to the one multi-policy pass; the group
carrying ``write_shared`` also emits the shared snapshots and window memos.
The jobs have no dependencies on one another and fan out through
:func:`repro.exec.dispatch.dispatch`.  Every job is a full-history pass, as
SMARTS checkpointed warming prescribes (Wunderlich et al., ISCA 2003).

``REPRO_CHECKPOINTS`` (``0`` disables checkpointing) and
``REPRO_CHECKPOINT_DIR`` (store location, safe to delete) are parsed by
:mod:`repro.exec.knobs`.  ``ExperimentSettings.checkpoints`` overrides the
environment per run (``None`` means "follow the environment").
"""

from __future__ import annotations

import json
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exec import fingerprint as _fingerprint
from repro.exec import knobs
from repro.exec.cache import ResultCache, _canonical
from repro.sampling.functional import FunctionalState, FunctionalWarmer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings

#: Bumped when the snapshot payload layout changes incompatibly.
#: v2: trace windows and segments are stored in encoded two-plane form
#: (:class:`~repro.isa.plane.EncodedOps`) instead of micro-op object lists.
#: v3: blobs carry the store's integrity frame (magic + SHA-256 checksum,
#: see :mod:`repro.exec.cache`), so pre-frame snapshots are keyed away
#: instead of mass-quarantined on upgrade.
#: v4: snapshots may carry a non-blocking hierarchy
#: (:class:`~repro.memory.mlp.NonBlockingHierarchy`: MSHR file, stride
#: prefetcher table, prefetched-line set) when ``core.memory.mlp`` is
#: enabled; the ``core`` key already distinguishes MLP configurations, but
#: the payload class set changed, so old readers are keyed away.
#: v5: the FSP and DDP in policy snapshots are pickled as flat per-field
#: lists indexed ``set * assoc + way``, not as lists of per-way entry
#: objects.
CHECKPOINT_SCHEMA_VERSION = 5

#: A policy identity: (configuration name, SQ size, predictor overrides).
PolicyIdentity = Tuple[str, int, Optional["PredictorSuiteConfig"]]


def checkpoints_enabled() -> bool:
    """Whether checkpointed warming is enabled by the environment."""
    return knobs.value("REPRO_CHECKPOINTS")


def resolve_checkpointed(settings) -> bool:
    """Whether a sampled run with ``settings`` uses checkpointed warming.

    ``settings.checkpoints`` wins when not ``None``; otherwise the
    ``REPRO_CHECKPOINTS`` environment default applies.  Never true for
    non-sampled settings.
    """
    if getattr(settings, "sampling", None) is None:
        return False
    explicit = getattr(settings, "checkpoints", None)
    if explicit is None:
        return checkpoints_enabled()
    return bool(explicit)


class CheckpointStore(ResultCache):
    """Content-addressed snapshot/segment store (pickle per entry).

    Reuses the result cache's atomic-write/corruption-tolerant blob
    machinery under its own default directory and environment knob.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        super().__init__(directory or knobs.value("REPRO_CHECKPOINT_DIR"))

    def contains(self, key: str) -> bool:
        """Cheap existence check (no deserialisation; corruption is only
        discovered — and repaired — at load time).  Entries held by the
        in-memory fallback of a degraded (``ENOSPC``) directory count."""
        return self._path(key).exists() or key in self._memory()


# --------------------------------------------------------------------- keys --

def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _shared_payload(workload: str, settings: "ExperimentSettings") -> dict:
    """The configuration-independent part of every snapshot key."""
    plan = _canonical(settings.sampling)
    if isinstance(plan, dict):
        # Snapshots cover [0, detailed_start) and windows
        # [detailed_start, measure_end + overrun): neither depends on the
        # bounded-warming horizon, so toggling that knob (e.g. to compare
        # the bounded mode) must not invalidate the store.
        plan.pop("functional_warmup", None)
    return {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "workload": workload,
        "instructions": settings.instructions,
        "seed": settings.seed,
        "plan": plan,
        "core": _canonical(settings.core),
        "trace_sources": _fingerprint.workload_fingerprint(),
        "simulator_sources": _fingerprint.simulator_fingerprint(),
    }


def shared_key(workload: str, settings: "ExperimentSettings",
               interval_index: int) -> str:
    """Key of the shared (configuration-independent) snapshot of one interval."""
    payload = _shared_payload(workload, settings)
    payload["kind"] = "functional-shared"
    payload["interval"] = interval_index
    return _digest(payload)


def policy_key(workload: str, settings: "ExperimentSettings",
               identity: PolicyIdentity, interval_index: int) -> str:
    """Key of one configuration's policy snapshot of one interval."""
    config_name, sq_size, predictors = identity
    payload = _shared_payload(workload, settings)
    payload["kind"] = "functional-policy"
    payload["interval"] = interval_index
    payload["config"] = config_name
    payload["sq_size"] = sq_size
    payload["predictors"] = _canonical(predictors)
    return _digest(payload)


def segment_key(name: str, seed: int, index: int, length: int) -> str:
    """Key of one composed trace segment (workload sources fingerprinted)."""
    return _digest({
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "kind": "trace-segment",
        "workload": name,
        "seed": seed,
        "segment": index,
        "length": length,
        "trace_sources": _fingerprint.workload_fingerprint(),
    })


def window_key(workload: str, settings: "ExperimentSettings",
               interval_index: int) -> str:
    """Key of one interval's composed detailed-window micro-ops.

    A checkpointed interval simulates only ``[detailed_start, measure_end +
    overrun)`` — a small fraction of a 16384-uop segment — so the
    generation pass memoises exactly that slice; interval jobs then load a
    few thousand micro-ops instead of composing (or unpickling) every
    overlapping segment.  This is the hot-loop fix for the window
    regeneration cost that dominated interval jobs.
    """
    payload = _shared_payload(workload, settings)
    payload["kind"] = "trace-window"
    payload["interval"] = interval_index
    return _digest(payload)


def segment_store() -> Optional[CheckpointStore]:
    """The store used for the on-disk trace-segment memo, or ``None`` when
    checkpointing is disabled by the environment."""
    if not checkpoints_enabled():
        return None
    return CheckpointStore()


# ---------------------------------------------------------------- snapshots --

@dataclass
class SharedWarmState:
    """The configuration-independent half of a functional snapshot."""

    branch_unit: object
    hierarchy: object
    memory: object
    ssn_alloc: object
    last_writer: Dict[int, Tuple[int, int, int]]
    instructions_warmed: int


def _shared_snapshot(state: FunctionalState) -> SharedWarmState:
    return SharedWarmState(
        branch_unit=state.branch_unit,
        hierarchy=state.hierarchy,
        memory=state.memory,
        ssn_alloc=state.ssn_alloc,
        last_writer=state.last_writer,
        instructions_warmed=state.instructions_warmed,
    )


def _assemble(settings: "ExperimentSettings", shared: SharedWarmState,
              policy) -> FunctionalState:
    return FunctionalState(
        config=settings.core,
        branch_unit=shared.branch_unit,
        hierarchy=shared.hierarchy,
        memory=shared.memory,
        ssn_alloc=shared.ssn_alloc,
        policy=policy,
        last_writer=shared.last_writer,
        instructions_warmed=shared.instructions_warmed,
    )


def shared_signature(shared: SharedWarmState) -> tuple:
    """Canonical equality signature of one shared snapshot.

    Composes the per-structure ``state_signature()`` methods (exactly the
    structures :meth:`~repro.pipeline.core.OutOfOrderCore.import_state`
    adopts), so two snapshots with equal signatures warm a detailed core
    identically — the equality the policy-group-vs-single-pass bit-identity
    tests and the CI generation smoke assert per interval.
    """
    return (
        shared.branch_unit.state_signature(),
        shared.hierarchy.state_signature(),
        shared.memory.state_signature(),
        (shared.ssn_alloc.bits, shared.ssn_alloc.ssn_rename,
         shared.ssn_alloc.ssn_commit, shared.ssn_alloc.wraps),
        tuple(sorted(shared.last_writer.items())),
        shared.instructions_warmed,
    )


# --------------------------------------------------------------- generation --

@dataclass(frozen=True)
class CheckpointJobSpec:
    """One checkpoint-generation job, described by value (pool-friendly).

    The job replays the full warming prefix of ``workload`` once, warming
    every policy in ``identities`` simultaneously, and writes one policy
    snapshot per identity at each interval's detailed-warmup start.
    ``identities`` may be empty when only the shared snapshots are
    missing; ``write_shared`` asks for the shared snapshots and window
    memos too.
    """

    workload: str
    settings: "ExperimentSettings"
    identities: Tuple[PolicyIdentity, ...]
    write_shared: bool
    directory: str
    #: Read/write composed segments through the on-disk segment memo.  Set
    #: by the planner whenever the generation grid has more than one job
    #: (every policy group replays the same segments); a lone job composes
    #: in memory only, so it cannot flood the store with segments nothing
    #: re-reads.
    disk_memo: bool = False


def _identity_token(identity: PolicyIdentity) -> str:
    config_name, sq_size, predictors = identity
    return json.dumps({"config": config_name, "sq_size": sq_size,
                       "predictors": _canonical(predictors)},
                      sort_keys=True, default=repr)


def plan_generation(store: CheckpointStore, interval_specs: Sequence,
                    workers: int = 1,
                    ) -> Tuple[List[CheckpointJobSpec], Dict[str, int]]:
    """Plan the generation jobs a set of interval jobs still needs.

    ``interval_specs`` are (typically cache-missed) checkpointed
    :class:`~repro.exec.jobs.IntervalJobSpec`; they are grouped by shared
    identity (workload, trace length, seed, plan, core configuration), and
    each group is probed for missing shared/policy snapshots across *all*
    intervals of its plan.  A group with work gets one job per policy
    group: its missing identities are dealt round-robin into
    ``min(#identities, workers // #groups with work)`` jobs (at least
    one), and the first job inherits the ``write_shared`` duty.  A group
    whose policy snapshots all hit but whose shared snapshots are damaged
    still gets one job (``write_shared=True``, empty ``identities``).

    Returns ``(jobs, stats)``; ``stats`` holds the engine's
    ``checkpoint_identities`` (every (group, configuration) pair seen),
    ``checkpoint_generated``/``checkpoint_reused`` (identities with
    missing / present policy snapshots), ``checkpoint_passes`` (groups
    with work, so "no work done" is ``checkpoint_passes == 0``) and
    ``checkpoint_chains`` (``len(jobs)``).
    """
    groups: Dict[str, dict] = {}
    for spec in interval_specs:
        payload = _shared_payload(spec.workload, spec.settings)
        token = json.dumps(payload, sort_keys=True, default=repr)
        group = groups.setdefault(token, {
            "workload": spec.workload, "settings": spec.settings,
            "identities": {},
        })
        identity = (spec.config_name, spec.settings.sq_size, spec.predictors)
        group["identities"].setdefault(_identity_token(identity), identity)

    pending = []
    total_identities = 0
    for group in groups.values():
        workload = group["workload"]
        settings = group["settings"]
        count = settings.sampling.num_intervals(settings.instructions)
        identities = list(group["identities"].values())
        total_identities += len(identities)
        write_shared = any(
            not store.contains(shared_key(workload, settings, i))
            for i in range(count))
        missing = [identity for identity in identities
                   if any(not store.contains(policy_key(workload, settings,
                                                        identity, i))
                          for i in range(count))]
        if write_shared or missing:
            pending.append((workload, settings, missing, write_shared))

    chains = []
    for workload, settings, missing, write_shared in pending:
        group_count = max(1, min(len(missing), workers // len(pending)))
        for g in range(group_count):
            chains.append((workload, settings, tuple(missing[g::group_count]),
                           write_shared and g == 0))
    directory = str(store.directory)
    jobs = [CheckpointJobSpec(workload=workload, settings=settings,
                              identities=identities, write_shared=write_shared,
                              directory=directory, disk_memo=len(chains) > 1)
            for workload, settings, identities, write_shared in chains]
    generated = sum(len(missing) for _w, _s, missing, _ws in pending)
    return jobs, {
        "checkpoint_identities": total_identities,
        "checkpoint_generated": generated,
        "checkpoint_reused": total_identities - generated,
        "checkpoint_passes": len(pending),
        "checkpoint_chains": len(jobs),
    }


def generate_checkpoints(store: CheckpointStore, workload: str,
                         settings: "ExperimentSettings",
                         identities: Sequence[PolicyIdentity],
                         write_shared: bool = True) -> int:
    """One full functional pass: snapshot every interval start into ``store``.

    Warms all ``identities`` simultaneously (plus the shared structures) and
    writes one shared snapshot (when ``write_shared``) and one policy
    snapshot per identity at each interval's detailed-warmup start.  Returns
    the number of snapshot points written.  A by-argument front end to
    :func:`run_shard_job`, the one emission loop.
    """
    return run_shard_job(CheckpointJobSpec(
        workload=workload, settings=settings, identities=tuple(identities),
        write_shared=write_shared, directory=str(store.directory)))


def interval_window_uops(workload: str, settings: "ExperimentSettings",
                         window, disk_memo: bool = False):
    """Compose the micro-ops a checkpointed interval simulates in detail:
    ``[detailed_start, measure_end + overrun)``."""
    from repro.sampling.driver import _overrun
    from repro.workloads.suites import build_workload_window

    stop = min(settings.instructions,
               window.measure_end + _overrun(settings.core))
    return build_workload_window(workload, settings.instructions,
                                 settings.seed, window.detailed_start, stop,
                                 disk_memo=disk_memo)


def _fresh_policies(spec: CheckpointJobSpec) -> List:
    from repro.harness.runner import make_policy

    if spec.identities:
        return [make_policy(config_name, sq_size=sq_size, predictors=predictors)
                for config_name, sq_size, predictors in spec.identities]
    # Shared-only regeneration: any policy drives the shared structures
    # identically; a base policy is the cheapest stand-in.
    from repro.lsu.policies import SQPolicy

    return [SQPolicy(sq_size=spec.settings.sq_size)]


def _advance(warmer: FunctionalWarmer, workload: str,
             settings: "ExperimentSettings", position: int, target: int,
             disk_memo: bool) -> int:
    """Warm ``[position, target)`` segment-aligned.

    ``disk_memo`` routes segment composition through the encoded on-disk
    segment memo, so concurrent policy-group jobs share composed segments.
    """
    from repro.workloads.suites import TRACE_SEGMENT_UOPS, build_workload_window

    while position < target:
        step = min(target,
                   (position // TRACE_SEGMENT_UOPS + 1) * TRACE_SEGMENT_UOPS)
        warmer.warm(build_workload_window(
            workload, settings.instructions, settings.seed,
            position, step, disk_memo=disk_memo))
        position = step
    return position


def run_shard_job(spec: CheckpointJobSpec) -> int:
    """Execute one generation job; returns snapshot points written.

    Replays the warming prefix from a cold machine and, at each interval's
    detailed-warmup start, emits the shared snapshot and window memo (when
    ``write_shared``) and one policy snapshot per identity.
    """
    store = CheckpointStore(spec.directory)
    settings = spec.settings
    plan = settings.sampling
    if plan is None:
        raise ValueError("settings carry no sampling plan")
    windows = plan.intervals(settings.instructions)
    warmer = FunctionalWarmer(settings.core, policies=_fresh_policies(spec))
    position = 0
    for window in windows:
        position = _advance(warmer, spec.workload, settings, position,
                            window.detailed_start, spec.disk_memo)
        if spec.write_shared:
            store.put(shared_key(spec.workload, settings, window.index),
                      _shared_snapshot(warmer.state))
            # Memoise the interval's detailed window too (it is tiny next
            # to the segments it straddles, and every configuration's
            # interval job re-reads it).
            store.put(window_key(spec.workload, settings, window.index),
                      interval_window_uops(spec.workload, settings, window,
                                           disk_memo=False))
        for identity, policy in zip(spec.identities, warmer.policies):
            store.put(policy_key(spec.workload, settings, identity,
                                 window.index), policy)
    return len(windows)


def execute_generation(jobs: Sequence[CheckpointJobSpec],
                       workers: int = 1) -> None:
    """Run planned generation jobs over up to ``workers`` processes.

    The jobs are independent, so they fan out through the execution
    backend seam (:func:`repro.exec.dispatch.dispatch`) with no ordering
    constraints: in-process for one worker, the supervised pool otherwise.
    A crashed or hung job is retried; generation jobs are idempotent folds.
    """
    from repro.exec.backend import DispatchJob, resolve_backend
    from repro.exec.dispatch import dispatch

    if not jobs:
        return
    dispatch_jobs = [
        DispatchJob(index=position, payload=job,
                    label=f"{job.workload}:group{position}")
        for position, job in enumerate(jobs)]
    dispatch(resolve_backend(min(workers, len(jobs))), run_shard_job,
             dispatch_jobs, scope="shard", chunksize=1)


# ------------------------------------------------------------------ loading --

def load_interval_window(spec, window):
    """The detailed-window micro-ops of one checkpointed interval.

    Served from the store's window memo when possible; a missing or
    corrupt blob falls back to composing the window from its segments
    (bit-identical by construction) and repairs the store entry.
    """
    store = CheckpointStore(spec.checkpoint_dir)
    key = window_key(spec.workload, spec.settings, spec.interval_index)
    uops = store.get(key)
    if uops is not None:
        return uops
    # Compose without the (environment-located) segment memo: the repaired
    # window blob below lands in *this* spec's store, keeping explicitly
    # isolated runs from writing anywhere else.
    uops = interval_window_uops(spec.workload, spec.settings, window,
                                disk_memo=False)
    store.put(key, uops)
    return uops


def load_interval_state(spec, window) -> FunctionalState:
    """The warmed machine state at ``window.detailed_start`` for one interval.

    Loads the shared + policy snapshots of a checkpointed
    :class:`~repro.exec.jobs.IntervalJobSpec` and assembles them into a
    :class:`~repro.sampling.functional.FunctionalState`.  A missing,
    truncated, or otherwise unreadable snapshot never fails the job and
    never degrades its accuracy: the exact full-history state is recomputed
    in-process (a functional replay of ``[0, detailed_start)``) and the
    store entries are repaired, keeping serial/parallel/cached runs
    bit-identical whatever the store's condition.
    """
    from repro.harness.runner import make_policy

    store = CheckpointStore(spec.checkpoint_dir)
    settings = spec.settings
    identity = (spec.config_name, settings.sq_size, spec.predictors)
    skey = shared_key(spec.workload, settings, spec.interval_index)
    pkey = policy_key(spec.workload, settings, identity, spec.interval_index)
    shared = store.get(skey)
    policy = store.get(pkey)
    if isinstance(shared, SharedWarmState) and policy is not None:
        return _assemble(settings, shared, policy)

    # Exact in-process fallback + store repair.
    warmer = FunctionalWarmer(
        settings.core,
        make_policy(spec.config_name, sq_size=settings.sq_size,
                    predictors=spec.predictors))
    _advance(warmer, spec.workload, settings, 0, window.detailed_start,
             disk_memo=False)
    state = warmer.export_state()
    store.put(skey, _shared_snapshot(state))
    store.put(pkey, state.policy)
    return state
