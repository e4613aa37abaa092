"""Pluggable execution backends for experiment work units.

An :class:`Executor` schedules a list of :class:`WorkUnit` items — picklable
``(id, function, args)`` triples produced by the spec layer — and returns
their outputs in unit order.  Three registered strategies cover the
library's workloads:

``serial``
    In-process loop.  Each variance work unit folds its same-shape
    structures into mega-batched executions with batch sizes in the
    hundreds (see :mod:`repro.core.variance`); each training trajectory
    is its own unit.
``lockstep``
    Like ``serial``, and additionally advertises lock-step training
    (``training_lockstep``): the spec layer folds all training
    trajectories into one batched-adjoint work unit instead of one unit
    per trajectory, with bit-identical histories.  The default for
    analytic, noiseless training specs that name no executor, and for
    non-numpy array backends (the widest resident batches, which is the
    shape device namespaces want; the namespace itself comes from the
    config's ``backend`` field).
``process_pool``
    Shards units across OS processes via :mod:`concurrent.futures`.  Work
    units carry pre-reserved RNG children (see
    :func:`repro.utils.rng.spawn_seeds`), so a seeded run is bit-identical
    to serial regardless of worker count or completion order.  Each
    worker mega-folds its own slice of a variance bucket, and slicing is
    invisible to results.

Four more registry names are aliases kept so stored specs, scripts and
``--executor`` values still resolve: ``batched`` runs ``serial``,
``async`` and ``remote`` run ``process_pool``, and ``device`` runs
``lockstep``.

Every executor streams through one contract: :meth:`Executor.map_units`
calls ``on_result`` once per unit the moment its output lands, so the
``repro serve`` queue reports per-shard progress on whichever executor
a spec resolves to.

All executors support checkpoint/resume: given a ``checkpoint_dir``, each
completed unit's output is persisted through :mod:`repro.io` as a
:class:`ShardCheckpoint`, and a restarted run re-executes only the units
without a matching (fingerprinted) checkpoint.

**Reliability.**  Every executor runs its units under a
:class:`repro.reliability.RetryPolicy`: transiently-failing units (the
policy's classification; see :class:`repro.reliability.TransientError`)
re-run with deterministic exponential backoff, and — because units carry
pre-reserved RNG children — a retried unit is byte-identical to a
never-failed one.  The process pool additionally survives
``BrokenProcessPool``: the pool is rebuilt and only unfinished units are
re-dispatched, with the crash charged as one attempt against the units
deterministically suspected of killing the worker.  Two failure modes:
with ``raise_on_failure=True`` (the default, the behaviour the library
always had) a unit that exhausts its budget re-raises; with ``False``
the unit is *quarantined* — recorded in the run's
:class:`repro.reliability.FailureReport` (``executor.last_report``,
persisted as ``failure-report.json`` next to checkpoints) while the rest
of the run completes, with ``None`` placeholders in the returned list.
A :class:`repro.reliability.FaultPlan` (constructor argument or the
``REPRO_FAULT_PLAN`` env var) injects deterministic chaos for testing.

Register custom strategies with :func:`register_executor`; the registry
backs ``repro info`` and the CLI's ``--workers`` routing.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.reliability.faults import (
    FaultAction,
    FaultPlan,
    WorkerCrash,
    call_with_faults,
    corrupt_file,
)
from repro.reliability.policy import ExecutionAborted, RetryPolicy
from repro.reliability.report import FailureReport, UnitFailure

__all__ = [
    "WorkUnit",
    "ShardCheckpoint",
    "Executor",
    "SerialExecutor",
    "LockstepExecutor",
    "ProcessPoolExecutor",
    "EXECUTORS",
    "register_executor",
    "executor_class",
    "get_executor",
    "available_executors",
]

#: How often pool-draining loops wake up to poll ``should_abort``.
_ABORT_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of work: a picklable function plus arguments.

    ``fn(*args)`` must return a JSON-encodable value (plain dicts, lists
    and scalars) so outputs can round-trip through shard checkpoints.
    """

    unit_id: str
    fn: Callable[..., Any]
    args: Tuple = ()


@dataclass
class ShardCheckpoint:
    """Persisted output of one completed work unit.

    ``fingerprint`` ties the checkpoint to the exact (kind, config, seed,
    plan) it came from; a resumed run ignores checkpoints whose
    fingerprint does not match, so stale files from a different grid can
    never leak into a result.
    """

    unit_id: str
    fingerprint: str
    data: Any

    def to_dict(self) -> dict:
        return {
            "unit_id": self.unit_id,
            "fingerprint": self.fingerprint,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardCheckpoint":
        return cls(
            unit_id=str(payload["unit_id"]),
            fingerprint=str(payload["fingerprint"]),
            data=payload["data"],
        )


@dataclass
class _RunContext:
    """Per-``map_units``-call reliability state (thread-local on the executor)."""

    policy: RetryPolicy
    faults: Dict[str, Tuple[FaultAction, ...]]
    fingerprint: str
    on_event: Optional[Callable[[str, dict], None]]
    raise_on_failure: bool
    should_abort: Optional[Callable[[], bool]]
    unit_keys: Dict[str, str]
    started: float = field(default_factory=time.monotonic)
    #: unit_id -> attempts observably consumed (success counts as one).
    attempts: Dict[str, int] = field(default_factory=dict)
    unit_started: Dict[str, float] = field(default_factory=dict)
    corruptions: Dict[str, int] = field(default_factory=dict)
    quarantined: List[UnitFailure] = field(default_factory=list)
    pool_rebuilds: int = 0


class _PoolBroken(Exception):
    """Internal escape from a pool drain: the process pool died.

    Carries the units that were in flight (``unit_id -> attempt``) so
    the rebuild logic can charge the crash deterministically.
    """

    def __init__(self, cause: BaseException, inflight: Mapping[str, int]):
        super().__init__(str(cause))
        self.cause = cause
        self.inflight = dict(inflight)


#: Registered executor classes keyed by their ``name``.
EXECUTORS: Dict[str, Type["Executor"]] = {}


def register_executor(cls: Type["Executor"]) -> Type["Executor"]:
    """Class decorator adding an executor to the registry by its ``name``."""
    EXECUTORS[cls.name] = cls
    return cls


def executor_class(name: str) -> Type["Executor"]:
    """The registered class behind ``name``, aliases included.

    An unknown name raises :class:`ValueError` listing the choices, so a
    spec, the CLI or the service can reject it before anything runs.
    """
    if not isinstance(name, str) or name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; choose from {available_executors()}"
        )
    return EXECUTORS[name]


def get_executor(
    name: Union[str, "Executor"],
    workers: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    retry: Any = None,
    fault_plan: Any = None,
) -> "Executor":
    """Instantiate a registered executor by name (instances pass through).

    ``retry`` accepts anything :meth:`RetryPolicy.coerce` does (``None``
    = environment/default policy, int = ``max_attempts`` shorthand,
    dict, or a policy instance); ``fault_plan`` likewise goes through
    :meth:`FaultPlan.coerce` (``None`` = honour ``REPRO_FAULT_PLAN``).
    """
    if isinstance(name, Executor):
        return name
    return executor_class(name)(
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        fault_plan=fault_plan,
    )


def available_executors() -> List[str]:
    """Sorted names of the registered execution strategies."""
    return sorted(EXECUTORS)


class Executor:
    """Schedules work units; subclasses choose where/how they execute."""

    name: ClassVar[str]
    #: True when training trajectories should be folded into one lock-step
    #: batched unit instead of one unit per trajectory (the spec layer
    #: applies this; results are bit-identical either way).
    training_lockstep: ClassVar[bool] = False

    def __init__(
        self,
        workers: int = 1,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        retry: Any = None,
        fault_plan: Any = None,
    ):
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.retry = RetryPolicy.coerce(retry)
        self.fault_plan = (
            FaultPlan.coerce(fault_plan)
            if fault_plan is not None
            else FaultPlan.from_env()
        )
        # Run state is per-thread: the service layer may drive one
        # executor instance from several job-worker threads at once.
        self._local = threading.local()

    def circuits_per_shard(self, num_circuits: int) -> Optional[int]:
        """Advised shard granularity (``None`` = one shard per qubit count)."""
        return None

    # -- run lifecycle ----------------------------------------------------

    @property
    def last_report(self) -> Optional[FailureReport]:
        """Reliability summary of this thread's most recent run."""
        return getattr(self._local, "report", None)

    @property
    def _run(self) -> _RunContext:
        ctx = getattr(self._local, "run", None)
        if ctx is None:
            # Direct _execute use outside map_units: retry still
            # applies, fault selectors cannot resolve.
            self._begin_run((), "", None, True, None, None)
            ctx = self._local.run
        return ctx

    def _begin_run(
        self,
        units: Sequence[WorkUnit],
        fingerprint: str,
        on_event: Optional[Callable[[str, dict], None]],
        raise_on_failure: bool,
        should_abort: Optional[Callable[[], bool]],
        unit_keys: Optional[Mapping[str, str]],
    ) -> None:
        plan = self.fault_plan
        faults = (
            plan.resolve([unit.unit_id for unit in units]) if plan else {}
        )
        self._local.run = _RunContext(
            policy=self.retry,
            faults=faults,
            fingerprint=fingerprint,
            on_event=on_event,
            raise_on_failure=raise_on_failure,
            should_abort=should_abort,
            unit_keys=dict(unit_keys or {}),
        )

    def _finish_run(self) -> FailureReport:
        ctx = self._run
        report = FailureReport(
            fingerprint=ctx.fingerprint or None,
            executor=self.name,
            quarantined=list(ctx.quarantined),
            retries={
                unit_id: count - 1
                for unit_id, count in sorted(ctx.attempts.items())
                if count > 1
            },
            pool_rebuilds=ctx.pool_rebuilds,
        )
        self._local.report = report
        self._local.run = None
        if report.quarantined and self.checkpoint_dir is not None:
            from repro.io import save_result

            try:
                self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
                save_result(
                    report,
                    self.checkpoint_dir / "failure-report.json",
                    atomic=True,
                )
            except OSError as error:
                warnings.warn(
                    f"could not persist failure report: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return report

    # -- reliability helpers ----------------------------------------------

    def _emit(self, kind: str, payload: dict) -> None:
        ctx = self._run
        if ctx.on_event is not None:
            ctx.on_event(kind, payload)

    def _abort_check(self) -> None:
        ctx = self._run
        if ctx.should_abort is not None and ctx.should_abort():
            raise ExecutionAborted("run aborted by caller")

    def _unit_key(self, unit_id: str) -> str:
        """Stable backoff-jitter key: content fingerprint when known."""
        return self._run.unit_keys.get(unit_id, unit_id)

    def _fault_payload(self, unit_id: str) -> Optional[List[dict]]:
        actions = self._run.faults.get(unit_id)
        if not actions:
            return None
        return [action.to_dict() for action in actions]

    def _after_failure(self, unit: WorkUnit, error: BaseException, attempt: int) -> str:
        """Route a failed attempt: ``"retry"``, ``"quarantine"``, or raise."""
        ctx = self._run
        now = time.monotonic()
        unit_elapsed = now - ctx.unit_started.get(unit.unit_id, now)
        run_elapsed = now - ctx.started
        described = f"{type(error).__name__}: {error}"
        if ctx.policy.should_retry(error, attempt, unit_elapsed, run_elapsed):
            self._emit(
                "retry",
                {"unit_id": unit.unit_id, "attempt": attempt, "error": described},
            )
            return "retry"
        if ctx.raise_on_failure:
            raise error
        ctx.quarantined.append(
            UnitFailure.from_exception(
                unit.unit_id,
                error,
                attempts=attempt,
                fingerprint=ctx.unit_keys.get(unit.unit_id),
            )
        )
        self._emit(
            "quarantine",
            {"unit_id": unit.unit_id, "attempts": attempt, "error": described},
        )
        return "quarantine"

    def _attempt_unit(self, unit: WorkUnit) -> Tuple[bool, Any]:
        """Run one unit in-process under the retry policy.

        Returns ``(True, output)``, or ``(False, None)`` when the unit
        exhausted its budget and was quarantined (raise mode re-raises
        instead).  Injected ``kill`` faults degrade to
        :class:`WorkerCrash` here — in-process execution cannot survive
        a literal ``os._exit``.
        """
        ctx = self._run
        ctx.unit_started.setdefault(unit.unit_id, time.monotonic())
        while True:
            self._abort_check()
            attempt = ctx.attempts.get(unit.unit_id, 0) + 1
            try:
                payload = self._fault_payload(unit.unit_id)
                if payload is None:
                    output = unit.fn(*unit.args)
                else:
                    output = call_with_faults(
                        payload, attempt, False, unit.fn, unit.args
                    )
            except Exception as error:
                ctx.attempts[unit.unit_id] = attempt
                if self._after_failure(unit, error, attempt) != "retry":
                    return False, None
                delay = ctx.policy.delay(attempt, self._unit_key(unit.unit_id))
                if delay > 0:
                    time.sleep(delay)
                continue
            ctx.attempts[unit.unit_id] = attempt
            return True, output

    def _note_pool_breakage(
        self, pending: Dict[str, WorkUnit], broken: _PoolBroken
    ) -> None:
        """Charge a pool crash deterministically and decide who retries.

        The pool gives no way to tell which in-flight unit killed the
        worker, so the crash is charged to the units whose fault plan
        *scheduled* a kill at their current attempt; only for unplanned
        breakage (no suspects) is every in-flight unit charged.  Charged
        units either stay pending for the rebuilt pool or are
        quarantined/raised when their budget is gone; uncharged in-flight
        units re-run at the *same* attempt number, so deterministic
        faults re-fire identically and outputs stay byte-identical.
        """
        ctx = self._run
        if not broken.inflight:
            # Pool died before accepting any work: rebuilding would spin.
            raise broken.cause
        ctx.pool_rebuilds += 1
        suspects = {
            unit_id: attempt
            for unit_id, attempt in broken.inflight.items()
            if any(
                action.kind == "kill" and action.applies(attempt)
                for action in ctx.faults.get(unit_id, ())
            )
        }
        if not suspects:
            suspects = dict(broken.inflight)
        self._emit(
            "pool_rebuild",
            {"rebuilds": ctx.pool_rebuilds, "suspects": sorted(suspects)},
        )
        for unit_id, attempt in sorted(suspects.items()):
            unit = pending.get(unit_id)
            if unit is None:
                continue
            ctx.attempts[unit_id] = attempt
            crash = WorkerCrash(
                f"worker process died while {unit_id} was in flight "
                f"(attempt {attempt}); pool rebuilt"
            )
            crash.__cause__ = broken.cause
            if self._after_failure(unit, crash, attempt) != "retry":
                del pending[unit_id]

    @staticmethod
    def _inflight(running: Mapping[Any, Tuple[WorkUnit, int]]) -> Dict[str, int]:
        return {unit.unit_id: attempt for unit, attempt in running.values()}

    # -- execution --------------------------------------------------------

    def map_units(
        self,
        units: Sequence[WorkUnit],
        fingerprint: str = "",
        verbose: bool = False,
        on_result: Optional[Callable[[WorkUnit, Any], None]] = None,
        *,
        on_event: Optional[Callable[[str, dict], None]] = None,
        raise_on_failure: bool = True,
        should_abort: Optional[Callable[[], bool]] = None,
        unit_keys: Optional[Mapping[str, str]] = None,
    ) -> List[Any]:
        """Execute ``units`` and return their outputs in unit order.

        With a ``checkpoint_dir``, outputs of units already checkpointed
        under the same ``fingerprint`` are loaded instead of recomputed,
        and every fresh completion is checkpointed before the next unit's
        result is awaited — an interrupted run loses at most the units in
        flight.

        ``on_result`` is invoked once per unit output — checkpoint-loaded
        ones first (in unit order), then fresh completions as they land —
        so callers can stream progress during long grids.

        Reliability keywords: ``on_event(kind, payload)`` observes
        ``"retry"`` / ``"quarantine"`` / ``"pool_rebuild"`` events;
        ``raise_on_failure=False`` switches budget-exhausted units from
        re-raising to quarantine (``None`` placeholder in the returned
        list, details in :attr:`last_report`); ``should_abort`` is polled
        between attempts and while draining pools — returning True stops
        the run with :class:`repro.reliability.ExecutionAborted`;
        ``unit_keys`` maps unit ids to content fingerprints used for
        backoff-jitter keys and quarantine records.
        """
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise ValueError("work unit ids must be unique")
        self._begin_run(
            units, fingerprint, on_event, raise_on_failure, should_abort, unit_keys
        )
        try:
            completed = self._load_checkpoints(set(ids), fingerprint)
            if verbose and completed:
                print(
                    f"[executor:{self.name}] resuming: "
                    f"{len(completed)}/{len(units)} units checkpointed"
                )
            if on_result is not None:
                for unit in units:
                    if unit.unit_id in completed:
                        on_result(unit, completed[unit.unit_id])
            pending = [unit for unit in units if unit.unit_id not in completed]
            for unit, output in self._execute(pending):
                completed[unit.unit_id] = output
                self._write_checkpoint(unit, output, fingerprint)
                if on_result is not None:
                    on_result(unit, output)
            return [completed.get(unit.unit_id) for unit in units]
        finally:
            self._finish_run()

    def _execute(
        self, units: Sequence[WorkUnit]
    ) -> Iterator[Tuple[WorkUnit, Any]]:
        """Yield ``(unit, output)`` pairs as units complete (any order).

        The base runs units in-process, one after another; subclasses
        that schedule elsewhere override this.  Quarantined units
        (non-raise mode) are simply not yielded.
        """
        for unit in units:
            ok, output = self._attempt_unit(unit)
            if ok:
                yield unit, output

    # -- checkpoint layer -------------------------------------------------

    def _checkpoint_path(self, unit_id: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in unit_id)
        return self.checkpoint_dir / f"shard-{safe}.json"

    def _load_checkpoints(
        self, unit_ids: set, fingerprint: str
    ) -> Dict[str, Any]:
        if self.checkpoint_dir is None or not self.checkpoint_dir.is_dir():
            return {}
        from repro.io import load_result

        completed: Dict[str, Any] = {}
        for path in sorted(self.checkpoint_dir.glob("shard-*.json")):
            try:
                checkpoint = load_result(path)
            except (ValueError, OSError, KeyError, TypeError) as error:
                # Truncated/corrupt/malformed file from an interrupted or
                # interleaved write (KeyError/TypeError cover envelopes
                # whose data payload lost fields): warn and recompute that
                # unit instead of crashing the whole run.
                warnings.warn(
                    f"skipping unreadable checkpoint {path.name} "
                    f"({type(error).__name__}: {error}); its unit will be "
                    f"recomputed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if not isinstance(checkpoint, ShardCheckpoint):
                continue
            if checkpoint.fingerprint != fingerprint:
                continue
            if checkpoint.unit_id in unit_ids:
                completed[checkpoint.unit_id] = checkpoint.data
        return completed

    def _write_checkpoint(
        self, unit: WorkUnit, output: Any, fingerprint: str
    ) -> None:
        if self.checkpoint_dir is None:
            return
        from repro.io import save_result

        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        # Atomic write (unique temp + rename): a kill mid-write leaves a
        # .tmp file, never a corrupt checkpoint.
        path = self._checkpoint_path(unit.unit_id)
        save_result(
            ShardCheckpoint(
                unit_id=unit.unit_id, fingerprint=fingerprint, data=output
            ),
            path,
            atomic=True,
        )
        self._maybe_corrupt(unit.unit_id, path, "corrupt_checkpoint")

    def _maybe_corrupt(self, unit_id: str, path: Path, kind: str) -> None:
        """Apply a scheduled parent-side file corruption (chaos testing).

        The first ``times`` writes per run are scribbled over; the run
        itself is unaffected (outputs are already in memory) — the
        corruption is seen by the *next* resume/read, which must warn
        and recompute rather than crash.
        """
        ctx = getattr(self._local, "run", None)
        if ctx is None or not ctx.faults:
            return
        for action in ctx.faults.get(unit_id, ()):
            if action.kind != kind:
                continue
            count = ctx.corruptions.get(f"{kind}:{unit_id}", 0) + 1
            ctx.corruptions[f"{kind}:{unit_id}"] = count
            if action.applies(count):
                corrupt_file(str(path))


@register_executor
class SerialExecutor(Executor):
    """In-process loop over the work units (the variance default)."""

    name = "serial"


@register_executor
class LockstepExecutor(SerialExecutor):
    """In-process executor that also trains all trajectories in lock step.

    The default for analytic, noiseless ``training`` specs that name no
    executor (shots, noise and shift-rule engines default to ``serial``).
    The spec layer hands it a single work unit advancing every (method,
    restart) trajectory simultaneously through the batched adjoint
    engine — ``B x iterations`` one-row sweeps become ``iterations``
    batched ones, with histories bit-identical to ``serial``.  A
    checkpointed run therefore resumes per panel, not per trajectory.
    Variance specs behave exactly like ``serial``.

    Also registered as ``device``, the default routing for non-numpy
    array backends: the namespace is configuration (the config's
    ``backend`` field), not scheduling, and lock-step keeps the resident
    batches as wide as an accelerator wants them.
    """

    name = "lockstep"
    training_lockstep: ClassVar[bool] = True


@register_executor
class ProcessPoolExecutor(Executor):
    """Shards work units across OS processes.

    The variance grid is embarrassingly parallel over (qubit count,
    structure); units arrive with their RNG children pre-reserved, so any
    placement/completion order reproduces the serial streams exactly.
    ``workers=0`` means one worker per CPU core; one worker runs units
    in-process, with no fork or pickle overhead.

    Survives worker crashes: ``BrokenProcessPool`` triggers a pool
    rebuild that re-dispatches only the unfinished units (completed
    outputs were already yielded and checkpointed), with the crash
    charged against the retry budget of the responsible units (see
    :meth:`Executor._note_pool_breakage`).  An abort cancels the units
    still queued on the pool; only those already handed to a worker
    process run to completion.  Also registered as ``async`` and
    ``remote``.
    """

    name = "process_pool"

    def __init__(
        self,
        workers: int = 0,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        retry: Any = None,
        fault_plan: Any = None,
    ):
        super().__init__(
            workers=int(workers) or os.cpu_count() or 1,
            checkpoint_dir=checkpoint_dir,
            retry=retry,
            fault_plan=fault_plan,
        )

    def circuits_per_shard(self, num_circuits: int) -> Optional[int]:
        # ~2 shards per worker within each qubit count: fine enough that
        # the exponentially-expensive widest row spreads across workers,
        # coarse enough to amortize task dispatch.
        return max(1, -(-num_circuits // (2 * self.workers)))

    def _execute(
        self, units: Sequence[WorkUnit]
    ) -> Iterator[Tuple[WorkUnit, Any]]:
        if self.workers == 1:
            yield from super()._execute(units)
            return
        pending: Dict[str, WorkUnit] = {unit.unit_id: unit for unit in units}
        while pending:
            try:
                yield from self._drain_pool(pending)
                return
            except _PoolBroken as broken:
                self._note_pool_breakage(pending, broken)

    def _drain_pool(
        self, pending: Dict[str, WorkUnit]
    ) -> Iterator[Tuple[WorkUnit, Any]]:
        """Run ``pending`` on one pool, retrying in place, until done.

        Removes each finished (or quarantined) unit from ``pending`` and
        yields successes; raises :class:`_PoolBroken` when the pool dies
        so the caller can charge the crash and rebuild.
        """
        ctx = self._run
        pool = futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending))
        )
        running: Dict[futures.Future, Tuple[WorkUnit, int]] = {}

        def submit(unit: WorkUnit) -> None:
            attempt = ctx.attempts.get(unit.unit_id, 0) + 1
            ctx.unit_started.setdefault(unit.unit_id, time.monotonic())
            payload = self._fault_payload(unit.unit_id)
            try:
                if payload is None:
                    future = pool.submit(unit.fn, *unit.args)
                else:
                    future = pool.submit(
                        call_with_faults,
                        payload,
                        attempt,
                        True,
                        unit.fn,
                        unit.args,
                    )
            except BrokenProcessPool as error:
                raise _PoolBroken(error, self._inflight(running)) from None
            running[future] = (unit, attempt)

        try:
            for unit in list(pending.values()):
                submit(unit)
            while running:
                done, _ = futures.wait(
                    set(running),
                    timeout=_ABORT_POLL_SECONDS,
                    return_when=futures.FIRST_COMPLETED,
                )
                broken: Optional[BaseException] = None
                broken_units: Dict[str, int] = {}
                resubmit: List[Tuple[WorkUnit, int]] = []
                for future in done:
                    unit, attempt = running.pop(future)
                    error = future.exception()
                    if error is None:
                        ctx.attempts[unit.unit_id] = attempt
                        del pending[unit.unit_id]
                        yield unit, future.result()
                        continue
                    if isinstance(error, BrokenProcessPool):
                        # The victim stays in pending, uncharged: the
                        # breakage handler decides who pays.
                        broken = error
                        broken_units[unit.unit_id] = attempt
                        continue
                    ctx.attempts[unit.unit_id] = attempt
                    if self._after_failure(unit, error, attempt) == "retry":
                        resubmit.append((unit, attempt))
                    else:
                        del pending[unit.unit_id]
                if broken is not None:
                    # A break resolves every in-flight future at once:
                    # the broken-errored ones were in flight too.
                    raise _PoolBroken(
                        broken, {**self._inflight(running), **broken_units}
                    )
                # Polled on every wake-up, so units that keep landing
                # cannot hold off an abort.
                self._abort_check()
                for unit, attempt in resubmit:
                    delay = ctx.policy.delay(attempt, self._unit_key(unit.unit_id))
                    if delay > 0:
                        time.sleep(delay)
                    submit(unit)
        finally:
            # Abort, crash or an abandoned generator: drop the queued
            # units and wait only for those a worker already holds.
            pool.shutdown(wait=True, cancel_futures=True)


# Names kept so stored specs, scripts and ``--executor`` values resolve.
EXECUTORS["batched"] = SerialExecutor
EXECUTORS["async"] = ProcessPoolExecutor
EXECUTORS["remote"] = ProcessPoolExecutor
EXECUTORS["device"] = LockstepExecutor
