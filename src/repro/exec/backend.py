"""Pluggable execution backends: one dispatch seam under every fan-out.

The engine's three fan-out paths — the supervised job pool, the raw-pool
escape hatch, and sharded checkpoint generation — all speak one protocol
now: an :class:`ExecutionBackend` accepts a list of :class:`DispatchJob`
and yields ``("start", index)`` / ``("done", index, value)`` completion
events.  The event stream (consumed by :func:`repro.exec.dispatch.dispatch`
or its asyncio facade) is what makes progress streaming and CI-driven
early stopping possible later without touching call sites again.

Three in-tree backends, all **bit-identical** on every workload (jobs are
pure functions of their spec):

* :class:`SerialBackend` — the always-available in-process reference.
  Runs jobs in input order; failure semantics match the supervised pool's
  degraded-serial path (exceptions are collected per job, the rest of the
  sweep completes, then one structured
  :class:`~repro.exec.resilience.ExperimentFailure`).
* :class:`SupervisedPoolBackend` — today's
  :func:`~repro.exec.resilience.run_supervised` semantics (per-job
  deadlines, crash retry, pool self-healing, degradation, fault plans)
  moved *behind* the seam, not duplicated: it forwards the
  :func:`~repro.exec.resilience.supervised_events` stream.  With
  ``supervised=False`` (the ``REPRO_SUPERVISE=0`` escape hatch) it runs a
  raw ``multiprocessing`` pool instead.
* :class:`LocalClusterBackend` — the distributed seam's proof: N
  independent worker processes pull jobs **work-stealing-style** from a
  spool of content-addressed job descriptors and publish records through
  the existing checksummed store machinery
  (:class:`~repro.exec.cache.ResultCache` frames, quarantine, degradation).
  Workers drain their home ticket partition first and steal from the
  others when idle; crashes, hangs, and damaged blobs are detected by the
  coordinator and retried, with an in-process fallback so a poisoned
  spool still completes.  Teardown always reaps every worker and removes
  the spool — no orphan processes, no stranded ``*.tmp`` or ticket files.

**Job dependencies** (``DispatchJob.deps``, each ``dep < index``) express
ordering constraints explicitly instead of relying on pool-FIFO luck:

* the supervised pool *dispatch-gates* — a job is not handed to a worker
  until its dependencies have been dispatched, which preserves the
  checkpoint chains' compose-ahead overlap (a consumer may run
  concurrently with its producer and wait in-worker for the handoff);
* the local cluster *completion-gates* — a ticket is not spooled until
  its dependencies' results are published, so a worker never waits on a
  handoff that is not already in the store (no in-worker waits to
  deadlock a one-worker cluster);
* the serial backend runs input order, which satisfies any valid DAG.

Backend selection: ``REPRO_BACKEND`` (``serial`` / ``supervised-pool`` /
``local-cluster``; validated at engine construction, ``EnvKnobError`` on
garbage) forces a backend; unset means *auto* — serial for one-worker
fan-outs, the supervised pool otherwise.  Execution-only, like every
scheduling knob: never part of cache or snapshot keys.  ``REPRO_SPOOL_DIR``
relocates cluster spools (default: the system temp directory).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exec import resilience as _resilience
from repro.exec.cache import ResultCache
from repro.exec.resilience import (
    BACKEND_NAMES,
    ExperimentFailure,
    JobFailure,
    backoff_delay,
    resolve_backend_name,
    resolve_spool_dir,
)

__all__ = [
    "BACKEND_NAMES",
    "BackendCapabilities",
    "DispatchJob",
    "ExecutionBackend",
    "LocalClusterBackend",
    "SerialBackend",
    "SupervisedPoolBackend",
    "resolve_backend",
    "resolve_backend_name",
]


@dataclass(frozen=True)
class DispatchJob:
    """One schedulable unit: an index, a payload, and its dependencies.

    ``index`` must equal the job's position in the submitted list (results
    are addressed by it); ``deps`` lists indices of jobs that must be
    scheduled ahead of this one (each ``dep < index`` — topological input
    order).  How strictly "ahead" is interpreted is a backend property:
    dispatch-order for the supervised pool, completion-order for the
    cluster (see the module docstring).
    """

    index: int
    payload: Any
    label: str = ""
    deps: Tuple[int, ...] = ()


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend does with the knobs callers may hand it.

    ``supports_chunksize`` documents the ``chunksize`` contract: ``True``
    means consecutive jobs are batched per worker assignment;``False``
    means the hint is accepted but a documented no-op (serial execution
    and the one-ticket-per-job cluster have nothing to batch).  The value
    is still *validated* everywhere — a malformed chunksize is rejected at
    the engine, never silently ignored (it used to be, on the serial
    path).  ``supervised`` covers crash/deadline retries and structured
    failure reports; ``distributed`` means jobs travel through a shared
    content-addressed spool rather than in-process queues.
    """

    name: str
    parallel: bool
    supervised: bool
    distributed: bool
    supports_chunksize: bool
    max_workers: int


class ExecutionBackend:
    """Protocol: ``submit(fn, jobs)`` yields completion events.

    Events are ``("start", index)`` and ``("done", index, value)``;
    exactly one ``done`` per job on success.  Permanent job failures are
    collected and raised as one
    :class:`~repro.exec.resilience.ExperimentFailure` *after* every other
    job has completed (never a hang, never a silent drop).  Abandoning
    the iterator (``close()``) tears the backend's workers down — the
    generator ``finally`` blocks are the lifecycle.
    """

    capabilities: BackendCapabilities
    #: Scheduling counters of the most recent completed ``submit`` (e.g.
    #: ``steals``, ``job_retries``); empty until one finishes.
    last_submit_stats: Dict[str, int]

    def submit(self, fn: Callable[[Any], Any], jobs: Sequence[DispatchJob],
               *, scope: str = "job",
               chunksize: Optional[int] = None) -> Iterator[tuple]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any long-lived resources (per-submit backends: no-op)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _check_jobs(jobs: Sequence[DispatchJob]) -> List[DispatchJob]:
    jobs = list(jobs)
    for position, job in enumerate(jobs):
        if job.index != position:
            raise ValueError(
                f"job at position {position} carries index {job.index}; "
                f"DispatchJob.index must equal the list position")
        for dep in job.deps:
            if not 0 <= dep < job.index:
                raise ValueError(
                    f"job {job.index} depends on {dep}: dependencies must "
                    f"point at earlier jobs (topological input order)")
    return jobs


# ------------------------------------------------------------------ serial --

class SerialBackend(ExecutionBackend):
    """The always-available in-process reference backend.

    Input order satisfies any valid dependency DAG (``dep < index``), and
    the failure semantics mirror the supervised pool's degraded-serial
    path: per-job exceptions are collected, the remaining jobs complete,
    then one structured :class:`ExperimentFailure` is raised.  ``chunksize``
    is a documented no-op (there is no assignment to batch).
    """

    def __init__(self) -> None:
        self.capabilities = BackendCapabilities(
            name="serial", parallel=False, supervised=True,
            distributed=False, supports_chunksize=False, max_workers=1)
        self.last_submit_stats = {}

    def submit(self, fn, jobs, *, scope="job", chunksize=None):
        jobs = _check_jobs(jobs)
        before = _resilience.counters_snapshot()
        failures: List[JobFailure] = []
        for job in jobs:
            yield ("start", job.index)
            try:
                value = fn(job.payload)
            except Exception:
                text = traceback.format_exc(limit=12)
                failures.append(JobFailure(
                    index=job.index,
                    label=job.label or f"{scope} {job.index}",
                    kind="exception", attempts=0,
                    error=text.strip().splitlines()[-1]))
            else:
                yield ("done", job.index, value)
        self.last_submit_stats = _resilience.counters_delta(before)
        if failures:
            raise ExperimentFailure(failures)


# --------------------------------------------------------- supervised pool --

class SupervisedPoolBackend(ExecutionBackend):
    """The single-host pool behind the seam: supervised by default.

    Forwards :func:`~repro.exec.resilience.supervised_events` — one
    scheduler implementation, not a copy — so deadlines, crash retry,
    self-healing, degradation, and fault plans all apply unchanged.  With
    ``supervised=False`` (``REPRO_SUPERVISE=0``) it runs a raw
    ``multiprocessing`` pool instead: no retries, no deadlines, results
    stream in input order (the A/B overhead baseline).
    """

    def __init__(self, workers: int, *, supervised: Optional[bool] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> None:
        self.workers = max(1, int(workers))
        if supervised is None:
            supervised = _resilience.supervision_enabled()
        self._supervised = bool(supervised)
        self._timeout = timeout
        self._retries = retries
        self.capabilities = BackendCapabilities(
            name="supervised-pool", parallel=self.workers > 1,
            supervised=self._supervised, distributed=False,
            supports_chunksize=True, max_workers=self.workers)
        self.last_submit_stats = {}

    def submit(self, fn, jobs, *, scope="job", chunksize=None):
        jobs = _check_jobs(jobs)
        payloads = [job.payload for job in jobs]
        labels = [job.label or f"{scope} {job.index}" for job in jobs]
        chunksize = 1 if chunksize is None else max(1, int(chunksize))
        if self._supervised:
            deps = [job.deps for job in jobs] \
                if any(job.deps for job in jobs) else None
            stats = yield from _resilience.supervised_events(
                fn, payloads, self.workers, scope=scope, labels=labels,
                chunksize=chunksize, timeout=self._timeout,
                retries=self._retries, deps=deps)
            self.last_submit_stats = dict(stats or {})
            return
        # Raw escape hatch: plain pool, in-order imap dispatch (dependency
        # order holds because deps point earlier and dispatch is FIFO);
        # exceptions propagate raw, exactly like the pre-seam hatch.
        before = _resilience.counters_snapshot()
        ctx = _resilience._pool_context()
        with ctx.Pool(processes=self.workers) as pool:
            for job, value in zip(jobs, pool.imap(fn, payloads, chunksize)):
                yield ("start", job.index)
                yield ("done", job.index, value)
        self.last_submit_stats = _resilience.counters_delta(before)


# ----------------------------------------------------------- local cluster --

#: Coordinator poll cadence: how often results/claims/liveness are scanned.
_CLUSTER_POLL_SECONDS = 0.02

#: Idle worker sleep between empty ticket scans.
_CLUSTER_IDLE_SECONDS = 0.005

#: Grace given to a graceful stop before terminate()/kill() escalation.
_CLUSTER_STOP_GRACE_SECONDS = 2.0

#: File whose existence tells cluster workers to drain and exit.
_STOP_SENTINEL = "stop"


def _spool_digest(index: int, payload: Any) -> str:
    """Content address of one job descriptor (index + payload identity).

    The index participates so duplicate payloads in one submission stay
    distinct spool entries (results are addressed per job, not per value).
    """
    blob = pickle.dumps((index, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def _remove_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _claim_next_ticket(partitions: Sequence[str], claims_dir: str,
                       slot: int) -> Optional[Tuple[int, int, str, bool, str]]:
    """Atomically claim the next ticket, own partition first, then steal.

    Tickets are files named ``<index>.<attempt>.<digest>``; a claim is an
    ``os.replace`` into the claims directory under
    ``<index>.<attempt>.<digest>.<slot>.<pid>`` — atomic on POSIX, so two
    workers can never both win one ticket.  Returns ``(index, attempt,
    digest, stolen, claim_path)`` or ``None`` when every partition is dry.
    """
    for position, partition in enumerate(partitions):
        try:
            names = sorted(os.listdir(partition))
        except OSError:
            continue
        for name in names:
            parts = name.split(".")
            if len(parts) != 3:
                continue
            claim_path = os.path.join(
                claims_dir, f"{name}.{slot}.{os.getpid()}")
            try:
                os.replace(os.path.join(partition, name), claim_path)
            except OSError:
                continue  # another worker won the race
            return (int(parts[0]), int(parts[1]), parts[2],
                    position != 0, claim_path)
    return None


def _claim_present(claims_dir: str, index: int, attempt: int) -> bool:
    """Whether a claim on attempt ``attempt`` of job ``index`` exists now."""
    prefix = f"{index:08d}.{attempt}."
    try:
        return any(name.startswith(prefix) for name in os.listdir(claims_dir))
    except OSError:
        return False


def _cluster_worker_main(slot: int, workers: int, spool: str, fn,
                         scope: str, deadline_active: bool) -> None:
    """Cluster worker loop: claim ticket -> run job -> publish result.

    Stateless by design: everything the worker needs travels through the
    spool's checksummed stores.  The claim file is removed only *after*
    the result is published, so the coordinator can always distinguish
    in-flight (claim present) from lost (no ticket, no claim, no result).
    """
    _resilience.mark_pool_worker()
    jobs_store = ResultCache(os.path.join(spool, "jobs"))
    results_store = ResultCache(os.path.join(spool, "results"))
    claims_dir = os.path.join(spool, "claims")
    tickets = [os.path.join(spool, "tickets", f"p{k}") for k in range(workers)]
    order = tickets[slot:] + tickets[:slot]  # home partition first
    stop_path = os.path.join(spool, _STOP_SENTINEL)
    while not os.path.exists(stop_path):
        claim = _claim_next_ticket(order, claims_dir, slot)
        if claim is None:
            time.sleep(_CLUSTER_IDLE_SECONDS)
            continue
        index, attempt, digest, stolen, claim_path = claim
        before = _resilience.counters_snapshot()
        if stolen:
            _resilience.count("cluster_steals")
        job = jobs_store.get(digest)
        try:
            if job is None:
                # The descriptor blob was damaged (now quarantined): the
                # coordinator still owns the payload, so report the loss
                # and let it respool a fresh descriptor.
                message: tuple = ("lost", "job descriptor unreadable",
                                  _resilience.counters_delta(before))
            else:
                _resilience._maybe_inject_job_fault(
                    scope, index, attempt, deadline_active)
                value = fn(job[1])
                message = ("ok", value, _resilience.counters_delta(before))
        except BaseException:
            message = ("error", traceback.format_exc(limit=12),
                       _resilience.counters_delta(before))
        results_store.put(f"{digest}-a{attempt}", message)
        _remove_quiet(claim_path)


@dataclass
class _ClusterJobState:
    job: DispatchJob
    digest: str
    attempt: int = 0
    ticket_path: Optional[str] = None
    claim_path: Optional[str] = None
    claim_slot: Optional[int] = None
    claim_pid: Optional[int] = None
    claim_seen: float = 0.0
    ready_at: float = 0.0
    spooled: bool = False
    started: bool = False
    done: bool = False
    failed: bool = False


class LocalClusterBackend(ExecutionBackend):
    """Work-stealing multi-process cluster over a content-addressed spool.

    The distributed seam's in-tree proof: the coordinator serialises each
    job descriptor into a checksummed store (``spool/jobs``), drops a
    ticket into one of N per-worker partitions (round-robin home
    assignment), and N worker processes claim tickets — own partition
    first, stealing from the others when idle — and publish results
    through ``spool/results``.  Every blob transits the
    :class:`~repro.exec.cache.ResultCache` frame machinery, so torn writes
    and bit rot are quarantined and retried, never silently wrong.

    Failure semantics match the supervised pool where they overlap: dead
    workers are detected by claim-file liveness (the claim name carries
    the pid) and respawned; claimed jobs that outlive the per-job deadline
    get their worker killed; both are retried with backoff up to
    ``REPRO_RETRIES``, then failed as structured
    :class:`~repro.exec.resilience.JobFailure` entries.  Results lost to
    blob damage or store degradation are retried too, with an in-process
    coordinator fallback as the last resort, so a sweep completes even on
    a fully poisoned spool.  Dependencies are completion-gated: a ticket
    is only spooled once every dependency's result is published.

    Teardown (any exit path, including an abandoned iterator) stops and
    reaps every worker and deletes the spool directory.
    """

    def __init__(self, workers: int, *, spool_dir: Optional[os.PathLike] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> None:
        self.workers = max(1, int(workers))
        self._spool_root = spool_dir if spool_dir is not None \
            else resolve_spool_dir()
        self._timeout = _resilience.resolve_job_timeout() \
            if timeout is None else float(timeout)
        self._retries = _resilience.resolve_retries() \
            if retries is None else int(retries)
        self.capabilities = BackendCapabilities(
            name="local-cluster", parallel=self.workers > 1, supervised=True,
            distributed=True, supports_chunksize=False,
            max_workers=self.workers)
        self.last_submit_stats = {}

    # -- spool plumbing ----------------------------------------------------

    def _make_spool(self) -> str:
        root = self._spool_root
        if root is not None:
            os.makedirs(root, exist_ok=True)
        spool = tempfile.mkdtemp(prefix="repro-spool-", dir=root)
        for k in range(self.workers):
            os.makedirs(os.path.join(spool, "tickets", f"p{k}"))
        os.makedirs(os.path.join(spool, "claims"))
        return spool

    @staticmethod
    def _result_key(state: _ClusterJobState) -> str:
        return f"{state.digest}-a{state.attempt}"

    def _spool_ticket(self, spool: str, state: _ClusterJobState) -> None:
        partition = os.path.join(spool, "tickets",
                                 f"p{state.job.index % self.workers}")
        name = f"{state.job.index:08d}.{state.attempt}.{state.digest}"
        path = os.path.join(partition, name)
        with open(path, "w"):
            pass
        state.ticket_path = path
        state.claim_path = None
        state.claim_pid = None
        state.spooled = True

    # -- submission --------------------------------------------------------

    def submit(self, fn, jobs, *, scope="job", chunksize=None):
        jobs = _check_jobs(jobs)
        # chunksize accepted but a no-op: one ticket per job is what makes
        # stealing fine-grained (documented on the capabilities).
        total = len(jobs)
        self.last_submit_stats = {}
        if total == 0:
            return
        before_counters = _resilience.counters_snapshot()
        stats: Dict[str, int] = {}

        def bump(name: str, value: int = 1) -> None:
            stats[name] = stats.get(name, 0) + value

        spool = self._make_spool()
        jobs_store = ResultCache(os.path.join(spool, "jobs"))
        results_store = ResultCache(os.path.join(spool, "results"))
        claims_dir = os.path.join(spool, "claims")
        deadline_active = self._timeout > 0
        states = [_ClusterJobState(job=job,
                                   digest=_spool_digest(job.index, job.payload))
                  for job in jobs]
        failures: List[JobFailure] = []
        workers: List[Optional[object]] = [None] * self.workers
        ctx = _resilience._pool_context()
        degraded = False
        crash_deaths = 0
        degrade_after = max(3, self.workers + 1)

        def label(state: _ClusterJobState) -> str:
            return state.job.label or f"{scope} {state.job.index}"

        def fail(state: _ClusterJobState, kind: str, error: str) -> None:
            state.failed = True
            failures.append(JobFailure(
                index=state.job.index, label=label(state), kind=kind,
                attempts=state.attempt, error=error))

        def spawn(slot: int) -> None:
            process = ctx.Process(
                target=_cluster_worker_main,
                args=(slot, self.workers, spool, fn, scope, deadline_active),
                daemon=True)
            process.start()
            workers[slot] = process

        def run_inline(state: _ClusterJobState):
            """Coordinator-side last resort (degraded pool / poisoned
            store): no spool round-trip, so it cannot lose the result."""
            bump("cluster_inline_jobs")
            if not state.started:
                state.started = True
                yield ("start", state.job.index)
            try:
                value = fn(state.job.payload)
            except Exception:
                fail(state, "exception", traceback.format_exc(
                    limit=12).strip().splitlines()[-1])
            else:
                state.done = True
                yield ("done", state.job.index, value)

        def retry_or_inline(state: _ClusterJobState, kind: str, error: str):
            """Charge an attempt; respool within budget, else give up on
            the spool for this job and run it inline (kinds that mean the
            *store* lost the result) or fail it (worker kinds)."""
            state.attempt += 1
            state.spooled = False
            state.claim_path = None
            state.claim_pid = None
            if state.attempt <= self._retries and not degraded:
                bump("job_retries")
                state.ready_at = time.monotonic() + backoff_delay(
                    state.attempt, label(state))
                return
            if kind in ("crash", "timeout"):
                fail(state, kind, error)
                return
            yield from run_inline(state)

        def resolved(index: int) -> bool:
            return states[index].done or states[index].failed

        try:
            for slot in range(self.workers):
                spawn(slot)

            while not all(state.done or state.failed for state in states):
                now = time.monotonic()

                # Spool every eligible job: dependencies completed (or
                # failed — their consumers fall back to recompute paths),
                # backoff elapsed, not already in flight.
                for state in states:
                    if (state.done or state.failed or state.spooled
                            or state.ready_at > now):
                        continue
                    if any(not resolved(dep) for dep in state.job.deps):
                        continue
                    if degraded:
                        yield from run_inline(state)
                        continue
                    # (Re)publish the descriptor on every spool: a retry
                    # after a quarantined descriptor heals the store, and
                    # re-framing an intact one is cheap.
                    jobs_store.put(state.digest,
                                   (state.job.index, state.job.payload))
                    self._spool_ticket(spool, state)

                time.sleep(_CLUSTER_POLL_SECONDS)
                now = time.monotonic()

                # Observe claims: start events, liveness, deadlines.
                try:
                    claim_names = os.listdir(claims_dir)
                except OSError:
                    claim_names = []
                claims: Dict[int, Tuple[str, int, int, int]] = {}
                for name in claim_names:
                    parts = name.split(".")
                    if len(parts) != 5:
                        continue
                    claims[int(parts[0])] = (
                        os.path.join(claims_dir, name), int(parts[1]),
                        int(parts[3]), int(parts[4]))
                for state in states:
                    claim = claims.get(state.job.index)
                    if claim is None or state.done or state.failed:
                        continue
                    path, attempt, slot, pid = claim
                    if attempt != state.attempt:
                        continue  # stale claim of a superseded attempt
                    if state.claim_path != path:
                        state.claim_path = path
                        state.claim_slot = slot
                        state.claim_pid = pid
                        state.claim_seen = now
                        if not state.started:
                            state.started = True
                            yield ("start", state.job.index)

                # Collect published results.
                for state in states:
                    if state.done or state.failed or not state.spooled:
                        continue
                    message = results_store.get(self._result_key(state))
                    if message is None:
                        # No readable result, the ticket is claimed, and
                        # the claim is already retired: the worker
                        # published (results land before the claim is
                        # removed) but the blob was lost — quarantined,
                        # a vanished write, or stranded in the worker's
                        # in-memory fallback.  Retry through the spool,
                        # inline as the last resort.  The claim listing
                        # above may predate the claim, so the ticket is
                        # checked first and the claim looked up afresh:
                        # a vanished ticket is either a live claim or a
                        # published result.
                        if (state.ticket_path is None
                                or os.path.exists(state.ticket_path)
                                or _claim_present(claims_dir, state.job.index,
                                                  state.attempt)):
                            continue
                        message = results_store.get(self._result_key(state))
                        if message is None:
                            yield from retry_or_inline(
                                state, "lost", "result blob lost in spool")
                            continue
                    status, value, delta = message
                    # Worker deltas (steals, job faults, store repairs)
                    # land in the global counters here; the final
                    # last_submit_stats delta picks them up from there.
                    _resilience.merge_counters(delta)
                    if not state.started:
                        state.started = True
                        yield ("start", state.job.index)
                    if status == "ok":
                        state.done = True
                        yield ("done", state.job.index, value)
                    elif status == "error":
                        # Deterministic job exception: permanent, like
                        # every other backend.
                        fail(state, "exception",
                             value.strip().splitlines()[-1])
                    else:  # "lost": descriptor damaged, respool it
                        yield from retry_or_inline(
                            state, "lost", "job descriptor lost in spool")

                # Liveness + deadlines for claimed, unfinished jobs.  A
                # crashed child is a *zombie* until reaped, and zombies
                # still accept signal 0 — so liveness must come from the
                # Process objects (``is_alive()`` also reaps), never from
                # ``os.kill(pid, 0)``.
                now = time.monotonic()
                alive_pids = {process.pid for process in workers
                              if process is not None and process.is_alive()}
                for state in states:
                    if (state.done or state.failed or not state.spooled
                            or state.claim_pid is None):
                        continue
                    if state.claim_pid not in alive_pids:
                        # Re-check the result store before declaring a
                        # crash: the worker may have published and exited.
                        message = results_store.get(self._result_key(state))
                        if message is not None:
                            continue  # picked up next iteration
                        bump("worker_crashes")
                        crash_deaths += 1
                        _remove_quiet(state.claim_path)
                        slot = state.claim_slot
                        if crash_deaths >= degrade_after:
                            degraded = True
                            bump("pool_degraded")
                        elif slot is not None:
                            process = workers[slot]
                            if process is not None and not process.is_alive():
                                process.join()
                                bump("pool_respawns")
                                spawn(slot)
                        yield from retry_or_inline(
                            state, "crash",
                            f"cluster worker died (pid {state.claim_pid})")
                    elif (deadline_active
                          and now - state.claim_seen > self._timeout):
                        bump("job_timeouts")
                        try:
                            os.kill(state.claim_pid, signal.SIGKILL)
                        except OSError:
                            pass
                        slot = state.claim_slot
                        if slot is not None and workers[slot] is not None:
                            workers[slot].join(_CLUSTER_STOP_GRACE_SECONDS)
                            bump("pool_respawns")
                            spawn(slot)
                        _remove_quiet(state.claim_path)
                        yield from retry_or_inline(
                            state, "timeout",
                            f"deadline exceeded ({self._timeout:g}s)")

                if degraded:
                    # Tear the pool down once; the spool loop above runs
                    # the remaining jobs inline from here on.
                    for slot, process in enumerate(workers):
                        if process is not None:
                            process.terminate()
                            process.join(_CLUSTER_STOP_GRACE_SECONDS)
                            if process.is_alive():  # pragma: no cover
                                process.kill()
                                process.join()
                            workers[slot] = None
                    for state in states:
                        if not (state.done or state.failed):
                            state.spooled = False
        finally:
            try:
                with open(os.path.join(spool, _STOP_SENTINEL), "w"):
                    pass
            except OSError:  # pragma: no cover - spool already gone
                pass
            deadline = time.monotonic() + _CLUSTER_STOP_GRACE_SECONDS
            for process in workers:
                if process is None:
                    continue
                process.join(max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.terminate()
                    process.join(_CLUSTER_STOP_GRACE_SECONDS)
                if process.is_alive():  # pragma: no cover - SIGTERM ignored
                    process.kill()
                    process.join()
            shutil.rmtree(spool, ignore_errors=True)

        _resilience.merge_counters(stats)
        self.last_submit_stats = _resilience.counters_delta(before_counters)
        if failures:
            raise ExperimentFailure(
                sorted(failures, key=lambda failure: failure.index))


# -------------------------------------------------------------- resolution --

def resolve_backend(workers: int, *,
                    name: Optional[str] = None) -> ExecutionBackend:
    """Build the backend a fan-out of ``workers`` should run on.

    ``name`` (or ``REPRO_BACKEND`` when ``None``) forces a backend; auto
    picks ``serial`` for one-worker fan-outs and ``supervised-pool``
    otherwise (honouring the ``REPRO_SUPERVISE=0`` raw escape hatch).
    Every choice is bit-identical; only wall-clock and failure-recovery
    behaviour differ.
    """
    if name is None:
        name = resolve_backend_name()
    if name is None:
        name = "supervised-pool" if workers > 1 else "serial"
    if name == "serial":
        return SerialBackend()
    if name == "supervised-pool":
        return SupervisedPoolBackend(max(1, workers))
    return LocalClusterBackend(max(1, workers))
