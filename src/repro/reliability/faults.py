"""Deterministic fault injection for executors and the service stack.

A :class:`FaultPlan` maps work units — selected by unit id or by
position (``"#3"`` = fourth unit of the run) — to ordered
:class:`FaultAction` lists.  Each action fires on a fixed range of
*attempts* for its unit, so the whole failure schedule is a pure
function of ``(unit, attempt)``: the same plan produces the same
crashes, the same retries, and therefore the same final bytes under the
in-process and process-pool executors, in one process or many.

Supported action kinds:

``transient``
    Raise :class:`InjectedFault` (a :class:`~repro.reliability.policy.
    TransientError`) for the first ``times`` attempts, then succeed.
``kill``
    Hard-kill the worker with ``os._exit`` for the first ``times``
    attempts — in a pool child this breaks the whole pool and exercises
    the rebuild path.  In-process executors cannot survive a literal
    exit, so there the action degrades to raising :class:`WorkerCrash`
    (same classification, same attempt trajectory, same results).
``slow``
    Sleep ``seconds`` before running the unit (stall/timeout testing).
``corrupt_checkpoint``
    After the unit's checkpoint is written, scribble garbage over the
    file (applied parent-side by the executor) — exercises the
    corrupt-checkpoint warn-and-recompute path on resume.
``corrupt_shard``
    Same, for the unit's entry in the service's shard store (applied by
    the job queue after ``put_shard``) — exercises store quarantine.

Plans are enabled programmatically (``fault_plan=`` on an executor or
spec), or globally via the ``REPRO_FAULT_PLAN`` environment variable
holding either inline JSON or a path to a JSON file:

.. code-block:: json

    {"units": {"#0": [{"kind": "transient", "times": 2}],
               "variance-q4-c00010": [{"kind": "kill"}]}}

Injection happens inside the (picklable, module-level)
:func:`call_with_faults` wrapper so the schedule travels to pool
children as plain arguments — no shared state, no monkeypatching.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.reliability.policy import TransientError

__all__ = [
    "FaultAction",
    "FaultPlan",
    "InjectedFault",
    "WorkerCrash",
    "call_with_faults",
    "corrupt_file",
]

_KINDS = (
    "transient",
    "kill",
    "slow",
    "corrupt_checkpoint",
    "corrupt_shard",
)

#: Exit status used by injected worker kills, distinctive in pool logs.
KILL_EXIT_CODE = 13


class InjectedFault(TransientError):
    """The transient failure raised by a ``transient`` fault action."""


class WorkerCrash(TransientError):
    """Stand-in for a worker kill where a real ``os._exit`` is impossible.

    In-process executors (serial and the one-worker pool) cannot
    survive the process exiting, so a ``kill`` action raises this
    instead.  It classifies as transient, so the
    retry trajectory matches the multi-process run.
    """


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault on one unit.

    ``times`` bounds which attempts the fault fires on: attempts
    ``1..times`` fail, attempt ``times + 1`` runs clean.  ``slow`` and
    the corruption kinds ignore ``times``' upper bound semantics only in
    that they also apply on every attempt up to it.
    """

    kind: str
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if int(self.times) < 1:
            raise ValueError("fault 'times' must be >= 1")
        if float(self.seconds) < 0:
            raise ValueError("fault 'seconds' must be >= 0")

    def applies(self, attempt: int) -> bool:
        return attempt <= int(self.times)

    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {"kind": self.kind, "times": int(self.times)}
        if self.seconds:
            payload["seconds"] = float(self.seconds)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultAction":
        unknown = sorted(set(payload) - {"kind", "times", "seconds"})
        if unknown:
            raise ValueError(f"unknown fault action field(s) {unknown}")
        return cls(
            kind=str(payload.get("kind", "")),
            times=_number(payload, "times", 1, int),
            seconds=_number(payload, "seconds", 0.0, float),
        )


def _number(payload: Mapping[str, Any], key: str, default: Any, cast: Any) -> Any:
    """``cast(payload[key])``, with a non-number reported as ValueError."""
    value = payload.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"fault {key!r} must be a number, got {value!r}"
        ) from None


class FaultPlan:
    """A deterministic schedule of faults keyed by unit selector.

    Selectors are either literal unit ids (``"variance-q4-c00010"``) or
    positional (``"#2"``, resolved against the *full* unit list of the
    run before checkpoint filtering, so resumes target the same units).
    """

    def __init__(
        self, units: Optional[Mapping[str, Sequence[FaultAction]]] = None
    ) -> None:
        self._units: Dict[str, Tuple[FaultAction, ...]] = {}
        for selector, actions in (units or {}).items():
            self._units[str(selector)] = tuple(actions)

    def __bool__(self) -> bool:
        return bool(self._units)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and other._units == self._units

    @property
    def selectors(self) -> Tuple[str, ...]:
        return tuple(self._units)

    # -- resolution --------------------------------------------------------

    def resolve(self, unit_ids: Sequence[str]) -> Dict[str, Tuple[FaultAction, ...]]:
        """Map positional selectors onto the run's actual unit ids.

        ``unit_ids`` must be the run's full, ordered unit list.
        Selectors that match nothing are ignored (a plan written for a
        larger grid still applies cleanly to a subset).
        """
        known = set(unit_ids)
        resolved: Dict[str, List[FaultAction]] = {}
        for selector, actions in self._units.items():
            if selector.startswith("#"):
                try:
                    index = int(selector[1:])
                except ValueError:
                    raise ValueError(
                        f"bad positional fault selector {selector!r}"
                    ) from None
                if 0 <= index < len(unit_ids):
                    resolved.setdefault(unit_ids[index], []).extend(actions)
            elif selector in known:
                resolved.setdefault(selector, []).extend(actions)
        return {uid: tuple(actions) for uid, actions in resolved.items()}

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "units": {
                selector: [action.to_dict() for action in actions]
                for selector, actions in self._units.items()
            }
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        unknown = sorted(set(payload) - {"units"})
        if unknown:
            raise ValueError(f"unknown fault plan field(s) {unknown}")
        units_raw = payload.get("units", {})
        if not isinstance(units_raw, Mapping):
            raise ValueError("fault plan 'units' must be an object")
        units: Dict[str, List[FaultAction]] = {}
        for selector, actions_raw in units_raw.items():
            if not isinstance(actions_raw, (list, tuple)):
                raise ValueError(
                    f"fault plan entry {selector!r} must hold a list of actions"
                )
            units[str(selector)] = [
                action
                if isinstance(action, FaultAction)
                else FaultAction.from_dict(action)
                for action in actions_raw
            ]
        return cls(units)

    @classmethod
    def coerce(cls, value: Any) -> Optional["FaultPlan"]:
        """Normalize ``None`` / dict / JSON string / instance to a plan."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value if value else None
        if isinstance(value, str):
            return cls.from_text(value)
        if isinstance(value, Mapping):
            plan = cls.from_dict(value)
            return plan if plan else None
        raise TypeError(f"cannot build a FaultPlan from {type(value).__name__}")

    @classmethod
    def from_text(cls, text: str) -> Optional["FaultPlan"]:
        """Parse inline JSON, or read a path to a JSON plan file."""
        text = text.strip()
        if not text:
            return None
        if not text.startswith("{"):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from None
        plan = cls.from_dict(payload)
        return plan if plan else None

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """Plan from ``REPRO_FAULT_PLAN`` (inline JSON or a file path)."""
        env = os.environ if environ is None else environ
        raw = env.get("REPRO_FAULT_PLAN")
        if not raw:
            return None
        return cls.from_text(raw)


def _payload_actions(actions: Sequence[Any]) -> List[FaultAction]:
    return [
        action if isinstance(action, FaultAction) else FaultAction.from_dict(action)
        for action in actions
    ]


def call_with_faults(
    actions_payload: Sequence[Any],
    attempt: int,
    allow_exit: bool,
    fn: Any,
    args: Tuple[Any, ...],
):
    """Run ``fn(*args)`` under the unit's fault schedule.

    Module-level and driven entirely by its arguments so it pickles into
    pool children: ``actions_payload`` is a list of action dicts (or
    :class:`FaultAction`), ``attempt`` is 1-based.  ``allow_exit``
    distinguishes a real pool child (where ``kill`` may genuinely
    ``os._exit``) from in-process execution (where it raises
    :class:`WorkerCrash` instead).
    """
    for action in _payload_actions(actions_payload):
        if action.kind == "slow" and action.applies(attempt):
            time.sleep(float(action.seconds))
        elif action.kind == "transient" and action.applies(attempt):
            raise InjectedFault(
                f"injected transient fault (attempt {attempt}/{action.times})"
            )
        elif action.kind == "kill" and action.applies(attempt):
            if allow_exit:
                os._exit(KILL_EXIT_CODE)
            raise WorkerCrash(
                f"injected worker crash (attempt {attempt}/{action.times})"
            )
    return fn(*args)


def corrupt_file(path: str) -> bool:
    """Overwrite ``path`` with garbage that no JSON loader accepts.

    Used by the ``corrupt_checkpoint`` / ``corrupt_shard`` actions
    (applied parent-side, after the legitimate write).  Returns whether
    the file existed.
    """
    if not os.path.exists(path):
        return False
    with open(path, "wb") as handle:
        handle.write(b"\x00corrupted-by-fault-plan\x00")
    return True
