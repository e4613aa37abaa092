"""JobQueue: caching tiers, in-flight dedup, shard reuse, failures."""

import threading
import time

import numpy as np
import pytest

import repro
import repro.core.variance as vmod
from repro.core.spec import ExperimentSpec
from repro.core.variance import VarianceConfig
from repro.service import JobQueue, ServiceError

_CONFIG = VarianceConfig(
    qubit_counts=(2, 3), num_circuits=4, num_layers=3, methods=("random",)
)


def _spec(**overrides):
    base = dict(kind="variance", config=_CONFIG, seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def _wait(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed"):
        assert time.monotonic() < deadline, f"timed out in state {job.state}"
        time.sleep(0.01)
    return job


@pytest.fixture
def queue(tmp_path):
    queue = JobQueue(tmp_path / "store").start()
    yield queue
    queue.stop()


class TestSubmission:
    def test_runs_and_matches_direct_run(self, queue):
        job = _wait(queue.submit(_spec()))
        assert job.state == "done"
        assert not job.cache_hit
        assert job.completed_units == job.total_units > 0
        served = queue.store.load_outcome(job.fingerprint)
        direct = repro.run(_spec(executor="serial"))
        for key in direct.result.samples:
            assert np.array_equal(
                direct.result.samples[key].gradients,
                served.result.samples[key].gradients,
            ), key

    def test_accepts_dict_specs(self, queue):
        job = _wait(queue.submit(_spec().to_dict()))
        assert job.state == "done"

    def test_rejects_sweep(self, queue):
        spec = ExperimentSpec(
            kind="sweep",
            sweep_field="num_layers",
            sweep_values=[1, 2],
            seed=0,
        )
        with pytest.raises(ServiceError, match="sweep"):
            queue.submit(spec)

    def test_rejects_garbage(self, queue):
        with pytest.raises(ServiceError, match="invalid experiment spec"):
            queue.submit({"kind": "nonsense"})

    def test_strips_checkpoint_dir(self, queue, tmp_path):
        job = _wait(queue.submit(_spec(checkpoint_dir=tmp_path / "ckpt")))
        assert job.state == "done"
        assert job.spec.checkpoint_dir is None
        assert not (tmp_path / "ckpt").exists()

    def test_failed_job_reports_error(self, queue, monkeypatch):
        def boom(config, shard, **kwargs):
            raise RuntimeError("shard exploded")

        monkeypatch.setattr(vmod, "run_variance_shard", boom)
        job = _wait(queue.submit(_spec()))
        assert job.state == "failed"
        assert "shard exploded" in job.error
        # The fingerprint is released: a later submission retries.
        monkeypatch.undo()
        retry = _wait(queue.submit(_spec()))
        assert retry.job_id != job.job_id
        assert retry.state == "done"


class TestCaching:
    def test_exact_resubmission_is_instant_cache_hit(self, queue, monkeypatch):
        first = _wait(queue.submit(_spec()))
        calls = []
        monkeypatch.setattr(
            vmod,
            "run_variance_shard",
            lambda *a, **k: calls.append(1),
        )
        second = queue.submit(_spec())
        assert second.state == "done"  # no waiting: done at submit time
        assert second.cache_hit
        assert second.job_id != first.job_id
        assert calls == []
        assert queue.result_text(second) == queue.result_text(first)

    def test_subset_spec_reuses_shards(self, queue, monkeypatch):
        """Grid cells shared with a superset run never recompute."""
        superset = VarianceConfig(
            qubit_counts=(2, 3, 4),
            num_circuits=4,
            num_layers=3,
            methods=("random",),
        )
        subset = VarianceConfig(
            qubit_counts=(2, 3),
            num_circuits=4,
            num_layers=3,
            methods=("random",),
        )
        calls = []
        original = vmod.run_variance_shard

        def counting(config, shard, **kwargs):
            calls.append(shard.unit_id)
            return original(config, shard, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", counting)
        _wait(queue.submit(_spec(config=superset)))
        executed_by_superset = len(calls)
        assert executed_by_superset > 0

        job = _wait(queue.submit(_spec(config=subset)))
        assert job.state == "done"
        assert not job.cache_hit  # different spec fingerprint...
        assert len(calls) == executed_by_superset  # ...but zero new shards
        assert job.cached_units == job.total_units == 2

        direct = repro.run(_spec(config=subset, executor="serial"))
        served = queue.store.load_outcome(job.fingerprint)
        for key in direct.result.samples:
            assert np.array_equal(
                direct.result.samples[key].gradients,
                served.result.samples[key].gradients,
            ), key

    def test_inflight_dedup_shares_one_job(self, tmp_path, monkeypatch):
        """Concurrent identical submissions collapse into one execution."""
        release = threading.Event()
        original = vmod.run_variance_shard

        def gated(config, shard, **kwargs):
            release.wait(timeout=30)
            return original(config, shard, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", gated)
        queue = JobQueue(tmp_path / "store").start()
        try:
            jobs = [queue.submit(_spec()) for _ in range(5)]
            assert len({job.job_id for job in jobs}) == 1
            assert jobs[0].submissions == 5
            release.set()
            _wait(jobs[0])
            assert jobs[0].state == "done"
        finally:
            release.set()
            queue.stop()

    def test_executor_override_applies(self, tmp_path):
        queue = JobQueue(tmp_path / "store", executor="serial").start()
        try:
            job = _wait(queue.submit(_spec()))
            assert job.spec.executor == "serial"
            assert job.state == "done"
        finally:
            queue.stop()

    def test_unknown_executor_override_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown executor 'nosuch'"):
            JobQueue(tmp_path / "store", executor="nosuch")
