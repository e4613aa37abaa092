"""Asynchronous experiment jobs: queueing, dedup, and cached execution.

A :class:`JobQueue` turns submitted :class:`~repro.core.spec.ExperimentSpec`
objects into background :class:`Job`\\ s executed by daemon worker
threads, with three cache tiers applied in order:

1. **Whole-result hit** — the spec's fingerprint is already in the
   :class:`~repro.service.store.ResultStore`: the job is born ``done``
   with ``cache_hit=True`` and never touches the queue (O(1)).
2. **In-flight dedup** — an identical fingerprint is already queued or
   running: the submission joins that job (``submissions`` increments),
   so N concurrent submitters of the paper grid share one execution.
3. **Shard reuse** — otherwise the spec is planned via
   :func:`repro.core.spec.plan_experiment` and every unit whose
   content-addressed fingerprint is already stored is loaded instead of
   recomputed; only the remainder executes (streamed through the
   executor's ``on_result`` so per-shard progress counts stay live).

Jobs carry their own executor choice: the spec's resolved executor runs
*in-process* inside a worker thread (optionally multi-process via
``process_pool`` specs), with the spec's ``checkpoint_dir`` stripped —
the store supersedes per-run checkpoints on the server.

**Reliability.**  Jobs run in the executor's quarantine mode: transient
shard failures retry under the queue's :class:`~repro.reliability.
RetryPolicy`, worker crashes rebuild the pool, and units that exhaust
their budget are quarantined instead of killing the job outright — the
completed shards stay in the store (partial results), the job turns
``failed`` with a structured ``failed_units`` list, per-unit retry
counts, and the full :class:`~repro.reliability.FailureReport` persisted
under ``<store>/failures/<job-id>.json``.  ``job_timeout`` bounds each
job's wall clock and ``stall_timeout`` bounds the gap between progress
heartbeats (every shard completion or retry touches the heartbeat);
either firing aborts the run.  :meth:`begin_draining` flips the queue
into shutdown mode — new submissions raise :class:`ServiceUnavailable`
(HTTP 503) while in-flight jobs finish — and :meth:`persist_state` /
:meth:`restore_state` round-trip unfinished submissions through
``<store>/queue-state.json`` across server restarts.  The draining flag
and every job's terminal transition happen under the queue lock, so a
submission racing a SIGTERM drain either lands before the flag flips
(and is waited for) or gets the 503 — it can never slip into the window
between a job finishing and the queue state being persisted and end up
executed twice.

**Progress events.**  Every unit completion, retry, quarantine
and state change appends to the job's monotonically numbered event log;
:meth:`Job.events_since` long-polls it (the ``GET
/experiments/<id>/events?since=N`` endpoint), and
:meth:`JobQueue.partial_result` assembles a quarantined job's completed
shards plus its persisted failure report (``?partial=1``).
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.executor import executor_class, get_executor
from repro.core.spec import ExperimentSpec, plan_experiment
from repro.reliability.faults import corrupt_file
from repro.reliability.policy import ExecutionAborted
from repro.service.store import ResultStore

__all__ = ["Job", "JobQueue", "ServiceError", "ServiceUnavailable"]


class ServiceError(ValueError):
    """A submission the service cannot accept (maps to HTTP 400)."""


class ServiceUnavailable(ServiceError):
    """The service is draining for shutdown (maps to HTTP 503)."""


#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One tracked experiment execution (or cache hit) on the server."""

    job_id: str
    spec: ExperimentSpec
    fingerprint: str
    state: str = "queued"
    #: How many times this exact fingerprint was submitted while the job
    #: was in flight (deduplicated submitters sharing one execution).
    submissions: int = 1
    #: True when the whole result came from the store without executing.
    cache_hit: bool = False
    total_units: int = 0
    completed_units: int = 0
    #: Of the completed units, how many were served from cached shards.
    cached_units: int = 0
    #: unit_id -> extra attempts consumed (absent = first-try success).
    retried_units: Dict[str, int] = field(default_factory=dict)
    #: Quarantined units: ``{unit_id, attempts, error_type, error_message}``.
    failed_units: List[dict] = field(default_factory=list)
    pool_rebuilds: int = 0
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    #: Last observed progress (shard completion, retry, rebuild).
    heartbeat_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Planned unit ids in unit order (set once the job is planned);
    #: drives partial-result assembly for quarantined jobs.
    unit_order: List[str] = field(default_factory=list, repr=False)
    #: unit_id -> content fingerprint (the store's shard-tier key).
    unit_fingerprints: Dict[str, str] = field(default_factory=dict, repr=False)
    #: Monotonically numbered progress events (see :meth:`record_event`).
    events: List[dict] = field(default_factory=list, repr=False, compare=False)
    _events_cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )

    def heartbeat(self) -> None:
        self.heartbeat_at = time.time()

    def record_event(self, kind: str, **data: Any) -> None:
        """Append one progress event and wake any long-pollers.

        Every event snapshots the job's headline counters, so a client
        consuming the stream needs no extra status requests to render
        progress — the deltas between consecutive events are the
        ``completed_units``/``cached_units``/retry movements.
        """
        with self._events_cond:
            self.events.append(
                {
                    "seq": len(self.events) + 1,
                    "kind": kind,
                    "state": self.state,
                    "completed_units": self.completed_units,
                    "cached_units": self.cached_units,
                    "total_units": self.total_units,
                    "total_retries": int(sum(self.retried_units.values())),
                    **data,
                }
            )
            self._events_cond.notify_all()

    def events_since(self, since: int, timeout: float = 25.0) -> List[dict]:
        """Events with ``seq > since``, long-polling up to ``timeout``.

        Returns immediately when fresh events exist or the job is
        terminal (so pollers of finished/cache-hit jobs never hang);
        otherwise blocks until the next :meth:`record_event` or the
        timeout, whichever comes first (timeout returns ``[]``).
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._events_cond:
            while True:
                fresh = [event for event in self.events if event["seq"] > since]
                if fresh or self.state in ("done", "failed"):
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._events_cond.wait(remaining)

    def status_dict(self) -> dict:
        """JSON-able status payload (the ``GET /experiments/<id>`` body)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "kind": self.spec.kind,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "submissions": self.submissions,
            "progress": {
                "total_units": self.total_units,
                "completed_units": self.completed_units,
                "cached_units": self.cached_units,
            },
            "reliability": {
                "retried_units": dict(self.retried_units),
                "total_retries": int(sum(self.retried_units.values())),
                "failed_units": list(self.failed_units),
                "pool_rebuilds": self.pool_rebuilds,
                "heartbeat_age": (
                    None
                    if self.heartbeat_at is None or self.state != "running"
                    else round(time.time() - self.heartbeat_at, 3)
                ),
            },
            "error": self.error,
        }


class JobQueue:
    """Deduplicating background queue over a :class:`ResultStore`.

    ``retry`` feeds every job's executor (anything
    :meth:`~repro.reliability.RetryPolicy.coerce` accepts);
    ``job_timeout``/``stall_timeout`` are seconds (``None`` disables).
    An unknown ``executor`` override raises :class:`ValueError` here,
    before any job is accepted.
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        executor: Optional[str] = None,
        worker_threads: int = 1,
        retry: Any = None,
        job_timeout: Optional[float] = None,
        stall_timeout: Optional[float] = None,
    ):
        if executor is not None:
            executor_class(executor)
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        #: Forced executor name for every job (``None`` honours each
        #: spec's own :meth:`ExperimentSpec.resolved_executor`).
        self.executor_override = executor
        self.worker_threads = max(1, int(worker_threads))
        self.retry = retry
        self.job_timeout = None if job_timeout is None else float(job_timeout)
        self.stall_timeout = (
            None if stall_timeout is None else float(stall_timeout)
        )
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        #: fingerprint -> job_id for jobs still queued/running.
        self._inflight: Dict[str, str] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._counter = itertools.count(1)
        self._started = False
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobQueue":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._draining = False
            for index in range(self.worker_threads):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"repro-job-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker threads (idempotent; warns on a failed join)."""
        with self._lock:
            threads, self._threads = self._threads, []
            self._started = False
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                warnings.warn(
                    f"job worker {thread.name} did not stop within "
                    f"{timeout}s; a daemon thread is being leaked (its job "
                    f"may still be running)",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # -- graceful shutdown -------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_draining(self) -> None:
        """Refuse new submissions; in-flight jobs keep running."""
        with self._lock:
            self._draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every queued/running job to finish.

        Returns True when the queue emptied, False on timeout.  Call
        :meth:`begin_draining` first or new submissions can starve this.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._inflight:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                with self._lock:
                    return not self._inflight
            time.sleep(0.05)

    def state_path(self) -> Path:
        return self.store.root / "queue-state.json"

    def persist_state(self) -> Path:
        """Write unfinished submissions to ``<store>/queue-state.json``.

        Finished jobs need no persistence (their results are in the
        store); queued/running ones are recorded so
        :meth:`restore_state` can resubmit them after a restart.
        """
        with self._lock:
            unfinished = [
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "submissions": job.submissions,
                    "spec": job.spec.to_dict(),
                }
                for job_id in self._order
                for job in (self._jobs[job_id],)
                if job.state in ("queued", "running")
            ]
        path = self.state_path()
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps({"jobs": unfinished}, indent=2), encoding="utf-8"
        )
        os.replace(tmp, path)
        return path

    def restore_state(self) -> int:
        """Resubmit jobs persisted by a previous process's shutdown.

        Returns how many specs were resubmitted (0 when there is no
        state file or it is unreadable).  The state file is consumed.
        """
        path = self.state_path()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            entries = payload["jobs"]
        except (OSError, ValueError, KeyError, TypeError):
            return 0
        try:
            path.unlink()
        except OSError:
            pass
        restored = 0
        for entry in entries:
            try:
                self.submit(entry["spec"])
                restored += 1
            except (ServiceError, KeyError, TypeError) as error:
                warnings.warn(
                    f"could not restore persisted job "
                    f"{entry.get('job_id', '?')}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return restored

    # -- submission --------------------------------------------------------

    def _coerce_spec(self, spec: Union[ExperimentSpec, dict]) -> ExperimentSpec:
        try:
            if isinstance(spec, dict):
                spec = ExperimentSpec.from_dict(spec)
            elif not isinstance(spec, ExperimentSpec):
                raise TypeError(
                    f"expected an ExperimentSpec or its dict form, got "
                    f"{type(spec).__name__}"
                )
        except (TypeError, ValueError) as error:
            raise ServiceError(f"invalid experiment spec: {error}") from error
        if spec.kind == "sweep":
            raise ServiceError(
                "sweep specs are not servable as one job; submit one "
                "variance spec per swept value (they share cached shards)"
            )
        overrides = {"checkpoint_dir": None}
        if self.executor_override is not None:
            overrides["executor"] = self.executor_override
        from dataclasses import replace

        return replace(spec, **overrides)

    def submit(self, spec: Union[ExperimentSpec, dict]) -> Job:
        """Register a spec: cache-hit, join an in-flight twin, or enqueue."""
        if self._draining:
            raise ServiceUnavailable(
                "service is draining for shutdown; not accepting new "
                "experiments"
            )
        spec = self._coerce_spec(spec)
        try:
            fingerprint = spec.fingerprint()
        except (TypeError, ValueError) as error:
            raise ServiceError(
                f"spec is not fingerprintable: {error}"
            ) from error
        enqueue = False
        with self._lock:
            # Authoritative drain check: begin_draining flips the flag
            # under this lock, so a submission racing a SIGTERM drain
            # either lands before the flip (the drain waits for it) or
            # 503s here — the unlocked check above is only a fast path.
            # Without this, a submission could slip in after drain()
            # observed an empty queue and be both persisted for the next
            # server AND executed by a not-yet-stopped worker thread:
            # the same spec run twice.
            if self._draining:
                raise ServiceUnavailable(
                    "service is draining for shutdown; not accepting new "
                    "experiments"
                )
            inflight_id = self._inflight.get(fingerprint)
            if inflight_id is not None:
                job = self._jobs[inflight_id]
                job.submissions += 1
                return job
            job = Job(
                job_id=f"job-{next(self._counter):06d}",
                spec=spec,
                fingerprint=fingerprint,
            )
            if self.store.has_result(fingerprint):
                job.state = "done"
                job.cache_hit = True
                job.finished_at = time.time()
            else:
                self._inflight[fingerprint] = job.job_id
                enqueue = True
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        if enqueue:
            self._queue.put(job.job_id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def result_text(self, job: Job) -> Optional[str]:
        """The stored result payload for a finished job (exact bytes)."""
        return self.store.read_result_text(job.fingerprint)

    def partial_result(self, job: Job) -> dict:
        """Completed shards plus failure report for a (failed) job.

        The ``?partial=1`` result view: everything the store holds for
        the job right now — each planned unit's cached shard data (in
        unit order), the units still missing, and the persisted
        :class:`~repro.reliability.FailureReport` if the job quarantined
        units — so a client can salvage a partially-failed grid without
        resubmitting.
        """
        completed: List[dict] = []
        missing: List[str] = []
        for unit_id in job.unit_order:
            unit_fp = job.unit_fingerprints.get(unit_id, "")
            hit, data = (
                self.store.get_shard(unit_fp) if unit_fp else (False, None)
            )
            if hit:
                completed.append(
                    {"unit_id": unit_id, "fingerprint": unit_fp, "data": data}
                )
            else:
                missing.append(unit_id)
        failure_report = None
        report_path = self.store.root / "failures" / f"{job.job_id}.json"
        try:
            failure_report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            pass
        return {
            "job_id": job.job_id,
            "state": job.state,
            "fingerprint": job.fingerprint,
            "partial": True,
            "total_units": job.total_units,
            "completed_units": completed,
            "missing_units": missing,
            "failure_report": failure_report,
            "error": job.error,
        }

    def retry_metrics(self) -> dict:
        """Queue-wide reliability counters (the ``/healthz`` payload).

        Aggregates every tracked job under the queue lock: jobs by
        state, total extra attempts consumed, how many distinct units
        retried, how many were quarantined, and process-pool rebuilds —
        one glance tells an operator whether the fleet is healthy,
        limping on retries, or shedding units.
        """
        with self._lock:
            jobs_by_state: Dict[str, int] = {}
            total_retries = 0
            units_retried = 0
            units_failed = 0
            pool_rebuilds = 0
            for job_id in self._order:
                job = self._jobs[job_id]
                jobs_by_state[job.state] = jobs_by_state.get(job.state, 0) + 1
                total_retries += int(sum(job.retried_units.values()))
                units_retried += len(job.retried_units)
                units_failed += len(job.failed_units)
                pool_rebuilds += int(job.pool_rebuilds)
            return {
                "jobs_by_state": jobs_by_state,
                "total_retries": total_retries,
                "units_retried": units_retried,
                "units_failed": units_failed,
                "pool_rebuilds": pool_rebuilds,
            }

    # -- execution ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            if job is None:  # pragma: no cover - defensive
                continue
            error_text: Optional[str] = None
            try:
                self._run_job(job)
            except Exception as error:  # noqa: BLE001 - surface via the job
                error_text = f"{type(error).__name__}: {error}"
            # Terminal transition and in-flight release are one atomic
            # step under the queue lock: drain()/persist_state() can
            # never observe a finished job still holding its
            # fingerprint, or a released fingerprint on an unfinished
            # job (the double-execution window).
            with self._lock:
                if error_text is None:
                    job.state = "done"
                else:
                    job.error = error_text
                    job.state = "failed"
                job.finished_at = time.time()
                self._inflight.pop(job.fingerprint, None)
            job.record_event("state")

    def _should_abort(self, job: Job) -> Optional[str]:
        """The reason this job must stop now, or None to keep going."""
        now = time.time()
        if (
            self.job_timeout is not None
            and job.started_at is not None
            and now - job.started_at >= self.job_timeout
        ):
            return (
                f"job exceeded its wall-clock timeout "
                f"({self.job_timeout:g}s)"
            )
        if (
            self.stall_timeout is not None
            and job.heartbeat_at is not None
            and now - job.heartbeat_at >= self.stall_timeout
        ):
            return (
                f"job stalled: no progress heartbeat for "
                f"{self.stall_timeout:g}s"
            )
        return None

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        job.heartbeat()
        job.record_event("state")
        # Re-check the whole-result tier: a twin submitted before dedup
        # could exist may have finished while this job sat queued.
        if self.store.has_result(job.fingerprint):
            job.cache_hit = True
            return
        spec = job.spec
        executor = get_executor(
            spec.resolved_executor(),
            workers=spec.workers,
            # A spec-level policy/plan wins over the queue-wide default.
            retry=self.retry if spec.retry is None else spec.retry,
            fault_plan=spec.fault_plan,
        )
        plan = plan_experiment(spec, executor)
        job.total_units = len(plan.units)
        job.unit_order = [unit.unit_id for unit in plan.units]
        job.unit_fingerprints = dict(plan.unit_fingerprints)
        # Resolve the chaos plan (if any) once so corrupt_shard actions
        # can fire parent-side as shards land in the store.
        fault_actions = (
            executor.fault_plan.resolve([unit.unit_id for unit in plan.units])
            if executor.fault_plan
            else {}
        )
        shard_writes: Dict[str, int] = {}
        outputs: Dict[str, Any] = {}
        pending = []
        for unit in plan.units:
            unit_fp = plan.unit_fingerprints.get(unit.unit_id, "")
            hit, data = self.store.get_shard(unit_fp) if unit_fp else (False, None)
            if hit:
                outputs[unit.unit_id] = data
                job.cached_units += 1
                job.completed_units += 1
                job.record_event("unit", unit_id=unit.unit_id, cached=True)
            else:
                pending.append(unit)

        def on_result(unit, output):
            unit_fp = plan.unit_fingerprints.get(unit.unit_id, "")
            if unit_fp:
                path = self.store.put_shard(unit_fp, unit.unit_id, output)
                for action in fault_actions.get(unit.unit_id, ()):
                    if action.kind == "corrupt_shard":
                        count = shard_writes.get(unit.unit_id, 0) + 1
                        shard_writes[unit.unit_id] = count
                        if action.applies(count):
                            corrupt_file(str(path))
            outputs[unit.unit_id] = output
            job.completed_units += 1
            job.heartbeat()
            job.record_event("unit", unit_id=unit.unit_id, cached=False)

        def on_event(kind, payload):
            job.heartbeat()
            if kind == "retry":
                unit_id = payload.get("unit_id", "")
                job.retried_units[unit_id] = job.retried_units.get(unit_id, 0) + 1
                job.record_event("retry", unit_id=unit_id)
            elif kind == "pool_rebuild":
                job.pool_rebuilds = payload.get(
                    "rebuilds", job.pool_rebuilds + 1
                )
                job.record_event("pool_rebuild")
            elif kind == "quarantine":
                job.record_event(
                    "quarantine", unit_id=payload.get("unit_id", "")
                )

        abort_reason: List[str] = []

        def should_abort() -> bool:
            reason = self._should_abort(job)
            if reason is not None:
                abort_reason.append(reason)
                return True
            return False

        try:
            executor.map_units(
                pending,
                fingerprint=plan.fingerprint,
                on_result=on_result,
                on_event=on_event,
                raise_on_failure=False,
                should_abort=should_abort,
                unit_keys=plan.unit_fingerprints,
            )
        except ExecutionAborted:
            raise ExecutionAborted(
                abort_reason[0] if abort_reason else "job aborted"
            ) from None
        finally:
            report = executor.last_report
            if report is not None:
                job.retried_units = dict(report.retries)
                job.pool_rebuilds = report.pool_rebuilds
                job.failed_units = [
                    {
                        "unit_id": failure.unit_id,
                        "attempts": failure.attempts,
                        "error_type": failure.error_type,
                        "error_message": failure.error_message,
                    }
                    for failure in report.quarantined
                ]
                if report.quarantined:
                    self._persist_failure_report(job, report)
        if job.failed_units:
            # Completed shards are already persisted in the store's shard
            # tier (partial results); the whole-result tier stays empty so
            # a resubmission recomputes only the quarantined units.
            first = job.failed_units[0]
            raise RuntimeError(
                f"{len(job.failed_units)} of {job.total_units} unit(s) "
                f"exhausted their retry budget and were quarantined "
                f"(first: {first['unit_id']}: {first['error_type']}: "
                f"{first['error_message']}); completed shards are cached, "
                f"see failures/{job.job_id}.json for the full report"
            )
        ordered = [outputs[unit.unit_id] for unit in plan.units]
        self.store.put_result(job.fingerprint, plan.finalize(ordered))

    def _persist_failure_report(self, job: Job, report) -> None:
        from repro.io import save_result

        failures_dir = self.store.root / "failures"
        try:
            failures_dir.mkdir(parents=True, exist_ok=True)
            save_result(
                report, failures_dir / f"{job.job_id}.json", atomic=True
            )
        except OSError as error:
            warnings.warn(
                f"could not persist failure report for {job.job_id}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
