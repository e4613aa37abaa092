"""Fault-injection recovery matrix: recovered runs are byte-identical.

The acceptance contract of the reliability subsystem: under an injected
fault plan (transient failures on several units plus a worker kill), a
run must complete with *exactly* the same results as a fault-free run —
on every executor — with the retry counts observable.  Exhausted units
quarantine into a FailureReport instead of crashing the run, and a
corrupt checkpoint is recomputed on resume without changing any bytes.
"""

import numpy as np
import pytest

from repro.core.executor import get_executor
from repro.core.spec import ExperimentSpec, plan_experiment
from repro.core.variance import VarianceConfig
from repro.reliability import RetryPolicy

_CONFIG = VarianceConfig(
    qubit_counts=(2, 3, 4), num_circuits=3, num_layers=2, methods=("random",)
)

#: Transient faults on two units plus a hard worker kill on a third —
#: the recovery acceptance plan.  Positional selectors resolve against
#: the run's ordered unit list, so the same plan applies verbatim to
#: the serial and process-pool executors.
_CHAOS_PLAN = {
    "units": {
        "#0": [{"kind": "transient", "times": 2}],
        "#1": [{"kind": "transient", "times": 1}],
        "#2": [{"kind": "kill", "times": 1}],
    }
}

#: Fast deterministic policy: enough budget for the plan, ~zero backoff.
_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _run(executor_name, workers=1, fault_plan=None, retry=_RETRY, **kwargs):
    """Run the variance grid; returns (outputs, retries, report)."""
    executor = get_executor(
        executor_name,
        workers=workers,
        retry=retry,
        fault_plan=fault_plan,
        **kwargs,
    )
    # Pin the shard granularity: executors subdivide differently by
    # default, and the positional fault selectors (and the cross-executor
    # comparisons) need one shard per qubit count everywhere.
    spec = ExperimentSpec(
        kind="variance",
        config=_CONFIG,
        seed=0,
        circuits_per_shard=_CONFIG.num_circuits,
    )
    plan = plan_experiment(spec, executor)
    events = []
    outputs = executor.map_units(
        plan.units,
        fingerprint=plan.fingerprint,
        on_event=lambda kind, payload: events.append((kind, payload)),
        raise_on_failure=False,
        unit_keys=plan.unit_fingerprints,
    )
    retries = {}
    for kind, payload in events:
        if kind == "retry":
            uid = payload["unit_id"]
            retries[uid] = retries.get(uid, 0) + 1
    return outputs, retries, executor.last_report


class TestRecoveryMatrix:
    def test_serial_recovers_byte_identically(self):
        clean, no_retries, _ = _run("serial")
        assert no_retries == {}
        recovered, retries, report = _run("serial", fault_plan=_CHAOS_PLAN)
        np.testing.assert_equal(recovered, clean)
        # Three faulted units, visible retry counts: 2 + 1 + 1.
        assert sorted(retries.values()) == [1, 1, 2]
        assert dict(report.retries) == retries
        assert report.failed_unit_ids == ()

    @pytest.mark.slow
    def test_process_pool_recovers_byte_identically(self):
        clean, _, _ = _run("process_pool", workers=2)
        recovered, retries, report = _run(
            "process_pool", workers=2, fault_plan=_CHAOS_PLAN
        )
        np.testing.assert_equal(recovered, clean)
        assert sorted(retries.values()) == [1, 1, 2]
        # The kill broke the pool at least once and it was rebuilt.
        assert report.pool_rebuilds >= 1

    @pytest.mark.slow
    def test_same_plan_reproduces_across_executors(self):
        """One plan, two executors: identical retry trajectories."""
        serial_out, serial_retries, _ = _run("serial", fault_plan=_CHAOS_PLAN)
        pool_out, pool_retries, _ = _run(
            "process_pool", workers=2, fault_plan=_CHAOS_PLAN
        )
        assert pool_retries == serial_retries
        np.testing.assert_equal(pool_out, serial_out)


class TestQuarantine:
    _EXHAUSTING_PLAN = {
        "units": {"#1": [{"kind": "transient", "times": 10}]}
    }

    def test_exhausted_unit_quarantines_with_partial_results(self):
        clean, _, _ = _run("serial")
        outputs, retries, report = _run(
            "serial", fault_plan=self._EXHAUSTING_PLAN
        )
        failed_id = report.failed_unit_ids[0] if report.failed_unit_ids else None
        assert failed_id is not None
        # The quarantined slot is a None placeholder; every other unit
        # completed with byte-identical output (partial results).
        assert outputs[1] is None
        np.testing.assert_equal(outputs[0], clean[0])
        np.testing.assert_equal(outputs[2], clean[2])
        failure = report.quarantined[0]
        assert failure.unit_id == failed_id
        assert failure.attempts == _RETRY.max_attempts
        assert failure.error_type == "InjectedFault"
        assert failure.traceback
        assert retries == {failed_id: _RETRY.max_attempts - 1}

    def test_raise_mode_propagates_after_budget(self):
        executor = get_executor(
            "serial", retry=_RETRY, fault_plan=self._EXHAUSTING_PLAN
        )
        spec = ExperimentSpec(kind="variance", config=_CONFIG, seed=0)
        plan = plan_experiment(spec, executor)
        from repro.reliability import InjectedFault

        with pytest.raises(InjectedFault):
            executor.map_units(plan.units, fingerprint=plan.fingerprint)

    def test_failure_report_persisted_next_to_checkpoints(self, tmp_path):
        _run(
            "serial",
            fault_plan=self._EXHAUSTING_PLAN,
            checkpoint_dir=tmp_path,
        )
        from repro.io import load_result
        from repro.reliability import FailureReport

        report = load_result(tmp_path / "failure-report.json")
        assert isinstance(report, FailureReport)
        assert len(report.quarantined) == 1


class TestCheckpointCorruptionRecovery:
    _CORRUPTING_PLAN = {"units": {"#1": [{"kind": "corrupt_checkpoint"}]}}

    def test_resume_over_corrupt_checkpoint_is_byte_identical(self, tmp_path):
        clean, _, _ = _run("serial")
        # First run: completes, but unit #1's checkpoint is scribbled
        # over after writing (the fault applies parent-side).
        first, _, _ = _run(
            "serial",
            fault_plan=self._CORRUPTING_PLAN,
            checkpoint_dir=tmp_path,
        )
        np.testing.assert_equal(first, clean)
        # Resume: intact checkpoints load, the corrupt one warns and
        # recomputes, and the merged outputs match exactly.
        with pytest.warns(RuntimeWarning, match="checkpoint"):
            resumed, retries, report = _run(
                "serial", checkpoint_dir=tmp_path
            )
        np.testing.assert_equal(resumed, clean)
        assert retries == {}
        assert report.failed_unit_ids == ()
