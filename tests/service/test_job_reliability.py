"""JobQueue reliability: quarantine, timeouts, drain/persist/restore."""

import json
import time

import pytest

from repro.core.spec import ExperimentSpec
from repro.core.variance import VarianceConfig
from repro.service import JobQueue, ResultStore, ServiceUnavailable

_CONFIG = VarianceConfig(
    qubit_counts=(2, 3), num_circuits=3, num_layers=2, methods=("random",)
)

_FAST_RETRY = {"max_attempts": 2, "base_delay": 0.0, "jitter": 0.0}


def _spec(**extra):
    return ExperimentSpec(
        kind="variance",
        config=_CONFIG,
        seed=11,
        circuits_per_shard=_CONFIG.num_circuits,
        **extra,
    )


def _wait(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed"):
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.02)
    return job


@pytest.fixture
def queue(tmp_path):
    queue = JobQueue(tmp_path / "store", retry=_FAST_RETRY).start()
    yield queue
    queue.stop()


class TestRetrySurfacing:
    def test_transient_fault_retries_show_in_status(self, queue):
        plan = {"units": {"#0": [{"kind": "transient", "times": 1}]}}
        job = _wait(queue.submit(_spec(fault_plan=plan)))
        assert job.state == "done", job.error
        reliability = job.status_dict()["reliability"]
        assert reliability["total_retries"] == 1
        assert list(reliability["retried_units"].values()) == [1]
        assert reliability["failed_units"] == []


class TestQuarantine:
    def test_exhausted_unit_fails_job_with_partial_results(self, queue):
        plan = {"units": {"#1": [{"kind": "transient", "times": 10}]}}
        job = _wait(queue.submit(_spec(fault_plan=plan)))
        assert job.state == "failed"
        assert "quarantined" in job.error
        assert len(job.failed_units) == 1
        failure = job.failed_units[0]
        assert failure["error_type"] == "InjectedFault"
        assert failure["attempts"] == 2
        # The healthy unit's shard is cached: a resubmission after the
        # chaos clears recomputes only the quarantined one.
        assert queue.store.stats()["shards"] == 1
        # The full report (with tracebacks) is persisted for operators.
        report_path = queue.store.root / "failures" / f"{job.job_id}.json"
        assert report_path.is_file()
        from repro.io import load_result

        report = load_result(report_path)
        assert report.quarantined[0].traceback

    def test_resubmission_after_quarantine_reuses_cached_shards(self, queue):
        plan = {"units": {"#1": [{"kind": "transient", "times": 10}]}}
        failed = _wait(queue.submit(_spec(fault_plan=plan)))
        assert failed.state == "failed"
        healed = _wait(queue.submit(_spec()))
        assert healed.state == "done", healed.error
        assert healed.cached_units == 1  # the shard that survived chaos


class TestTimeouts:
    # The serial executor checks the abort signal between unit attempts,
    # so the injected sleep only needs to outlast the timeout, not the
    # test: ~2s bounds each of these tests.
    def test_job_timeout_aborts(self, tmp_path):
        plan = {
            "units": {
                "#0": [{"kind": "slow", "times": 1, "seconds": 2.0}]
            }
        }
        queue = JobQueue(
            tmp_path / "store", retry=_FAST_RETRY, job_timeout=0.3
        ).start()
        try:
            job = _wait(queue.submit(_spec(fault_plan=plan)), timeout=30.0)
            assert job.state == "failed"
            assert "wall-clock timeout" in job.error
        finally:
            queue.stop(timeout=0.1)

    @pytest.mark.slow
    def test_stall_timeout_aborts(self, tmp_path):
        # A stall is only observable while a pool drains with nothing
        # completing (the in-process executors heartbeat on every
        # retry/result), so this one needs a real multi-worker pool —
        # workers=1 short-circuits to the in-process path.
        plan = {
            "units": {
                "#0": [{"kind": "slow", "times": 1, "seconds": 5.0}]
            }
        }
        queue = JobQueue(
            tmp_path / "store", retry=_FAST_RETRY, stall_timeout=0.3
        ).start()
        try:
            job = _wait(
                queue.submit(
                    _spec(fault_plan=plan, executor="process_pool", workers=2)
                ),
                timeout=60.0,
            )
            assert job.state == "failed"
            assert "stalled" in job.error
        finally:
            queue.stop(timeout=0.1)


class TestDrainPersistRestore:
    def test_draining_queue_rejects_submissions(self, queue):
        queue.begin_draining()
        with pytest.raises(ServiceUnavailable, match="draining"):
            queue.submit(_spec())

    def test_drain_waits_for_inflight(self, queue):
        job = queue.submit(_spec())
        queue.begin_draining()
        assert queue.drain(timeout=60.0)
        assert job.state == "done", job.error

    def test_persist_and_restore_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        # A stopped queue: the job sits queued, is persisted, and a new
        # queue on the same store picks it up and runs it.
        first = JobQueue(store)
        job = first.submit(_spec())
        assert job.state == "queued"
        first.persist_state()
        assert first.state_path().is_file()

        second = JobQueue(store).start()
        try:
            assert second.restore_state() == 1
            assert not second.state_path().exists()  # consumed
            restored = _wait(second.jobs()[0])
            assert restored.state == "done", restored.error
        finally:
            second.stop()

    def test_restores_state_carrying_retired_variance_knobs(self, tmp_path):
        # The job list an earlier release persisted: its variance config
        # still carries ``batched`` and ``fold``.
        spec = _spec().to_dict()
        spec["config"].update(batched=True, fold="shape")
        store = ResultStore(tmp_path / "store")
        JobQueue(store).state_path().write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "job_id": "job-000001",
                            "state": "queued",
                            "submissions": 1,
                            "spec": spec,
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        queue = JobQueue(store).start()
        try:
            assert queue.restore_state() == 1
            restored = _wait(queue.jobs()[0])
            assert restored.state == "done", restored.error
            assert restored.fingerprint == _spec().fingerprint()
        finally:
            queue.stop()

    def test_restore_with_no_state_file_is_zero(self, tmp_path):
        queue = JobQueue(tmp_path / "store")
        assert queue.restore_state() == 0

    def test_stop_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path / "store").start()
        queue.stop()
        queue.stop()  # second call must be a no-op, not a hang/raise

    def test_submission_racing_drain_cannot_double_execute(
        self, queue, monkeypatch
    ):
        # Regression: a SIGTERM drain flipping the flag between submit()'s
        # unlocked fast-path check and its locked critical section used
        # to let the submission slip through — persisted for the next
        # server AND runnable by a not-yet-stopped worker thread (the
        # same spec executed twice).  Simulate the race by flipping the
        # flag inside spec.fingerprint(), which submit() calls exactly
        # in that window; the locked re-check must 503.
        original = ExperimentSpec.fingerprint

        def flip_then_fingerprint(self, plan=None):
            if not queue.draining:
                queue.begin_draining()
            return original(self, plan)

        monkeypatch.setattr(
            ExperimentSpec, "fingerprint", flip_then_fingerprint
        )
        with pytest.raises(ServiceUnavailable, match="draining"):
            queue.submit(_spec())
        # The rejected submission left no trace: nothing in flight to
        # run now, nothing persisted for a restarted server to rerun.
        assert queue.jobs() == []
        assert queue.drain(timeout=10.0)
        queue.persist_state()
        import json

        payload = json.loads(queue.state_path().read_text(encoding="utf-8"))
        assert payload["jobs"] == []
