"""Unit tests for the executor registry, sharding, and checkpoint/resume."""

import os
import time

import numpy as np
import pytest

import repro
from repro.core.executor import (
    EXECUTORS,
    Executor,
    LockstepExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    ShardCheckpoint,
    WorkUnit,
    available_executors,
    executor_class,
    get_executor,
    register_executor,
)
from repro.core.spec import ExperimentSpec
from repro.core.variance import (
    VarianceConfig,
    merge_variance_outputs,
    plan_variance_shards,
    run_variance_shard,
)
from repro.reliability import ExecutionAborted

_CONFIG = VarianceConfig(
    qubit_counts=(2, 3),
    num_circuits=6,
    num_layers=4,
    methods=("random", "xavier_normal"),
)


def _double(x):
    return {"value": 2 * x}


class TestRegistry:
    def test_builtins_registered(self):
        assert available_executors() == [
            "async",
            "batched",
            "device",
            "lockstep",
            "process_pool",
            "remote",
            "serial",
        ]

    def test_get_executor_by_name(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert type(get_executor("batched")) is SerialExecutor
        assert isinstance(
            get_executor("process_pool", workers=2), ProcessPoolExecutor
        )

    def test_get_executor_passes_instances_through(self):
        executor = SerialExecutor()
        assert get_executor(executor) is executor

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("quantum_annealer")

    def test_custom_registration(self):
        @register_executor
        class EchoExecutor(SerialExecutor):
            name = "echo-test"

        try:
            assert isinstance(get_executor("echo-test"), EchoExecutor)
        finally:
            del EXECUTORS["echo-test"]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            SerialExecutor(workers=0)

    def test_batched_is_a_serial_alias(self):
        # Variance runs have one execution path, so the old batched
        # executor name resolves to the in-process serial loop.
        assert executor_class("batched") is SerialExecutor


class TestMapUnits:
    def test_outputs_in_unit_order(self):
        units = [WorkUnit(f"u{i}", _double, (i,)) for i in range(5)]
        outputs = SerialExecutor().map_units(units)
        assert [o["value"] for o in outputs] == [0, 2, 4, 6, 8]

    def test_on_result_fires_per_completion(self):
        events = []
        units = [WorkUnit(f"u{i}", _double, (i,)) for i in range(4)]
        outputs = SerialExecutor().map_units(
            units, on_result=lambda unit, output: events.append(unit.unit_id)
        )
        assert events == [f"u{i}" for i in range(4)]
        assert [o["value"] for o in outputs] == [0, 2, 4, 6]

    def test_duplicate_ids_rejected(self):
        units = [WorkUnit("same", _double, (1,)), WorkUnit("same", _double, (2,))]
        with pytest.raises(ValueError, match="unique"):
            SerialExecutor().map_units(units)

    def test_checkpoints_written_and_reused(self, tmp_path):
        calls = []

        def tracked(x):
            calls.append(x)
            return {"value": x}

        units = [WorkUnit(f"u{i}", tracked, (i,)) for i in range(3)]
        first = SerialExecutor(checkpoint_dir=tmp_path).map_units(
            units, fingerprint="fp"
        )
        assert calls == [0, 1, 2]
        assert len(list(tmp_path.glob("shard-*.json"))) == 3
        second = SerialExecutor(checkpoint_dir=tmp_path).map_units(
            units, fingerprint="fp"
        )
        assert calls == [0, 1, 2]  # nothing re-executed
        assert second == first

    def test_mismatched_fingerprint_ignores_checkpoints(self, tmp_path):
        calls = []

        def tracked(x):
            calls.append(x)
            return {"value": x}

        units = [WorkUnit("u0", tracked, (7,))]
        SerialExecutor(checkpoint_dir=tmp_path).map_units(units, fingerprint="a")
        SerialExecutor(checkpoint_dir=tmp_path).map_units(units, fingerprint="b")
        assert calls == [7, 7]

    def test_corrupt_checkpoint_is_recomputed(self, tmp_path):
        units = [WorkUnit("u0", _double, (3,))]
        executor = SerialExecutor(checkpoint_dir=tmp_path)
        executor.map_units(units, fingerprint="fp")
        (path,) = tmp_path.glob("shard-*.json")
        path.write_text("{ truncated")
        outputs = SerialExecutor(checkpoint_dir=tmp_path).map_units(
            units, fingerprint="fp"
        )
        assert outputs == [{"value": 6}]

    def test_resume_after_failure(self, tmp_path):
        """A run killed mid-grid restarts from completed shards only."""
        calls = []

        def flaky(x):
            calls.append(x)
            if x == 1:
                raise RuntimeError("killed")
            return {"value": x}

        units = [WorkUnit(f"u{i}", flaky, (i,)) for i in range(3)]
        with pytest.raises(RuntimeError):
            SerialExecutor(checkpoint_dir=tmp_path).map_units(
                units, fingerprint="fp"
            )
        assert calls == [0, 1]

        resumed_calls = []

        def steady(x):
            resumed_calls.append(x)
            return {"value": x}

        units = [WorkUnit(f"u{i}", steady, (i,)) for i in range(3)]
        outputs = SerialExecutor(checkpoint_dir=tmp_path).map_units(
            units, fingerprint="fp"
        )
        assert resumed_calls == [1, 2]  # unit 0 came from its checkpoint
        assert [o["value"] for o in outputs] == [0, 1, 2]


class TestShardCheckpoint:
    def test_round_trip(self, tmp_path):
        from repro.io import load_result, save_result

        checkpoint = ShardCheckpoint(
            unit_id="variance-q4-c00010",
            fingerprint="abc",
            data={"gradients": {"random": [0.1, 0.2]}},
        )
        restored = load_result(save_result(checkpoint, tmp_path / "c.json"))
        assert restored == checkpoint


class TestVarianceSharding:
    def test_plan_one_shard_per_qubit_count_by_default(self):
        shards = plan_variance_shards(_CONFIG, seed=0)
        assert [(s.num_qubits, s.start) for s in shards] == [(2, 0), (3, 0)]
        assert all(s.num_circuits == 6 for s in shards)

    def test_plan_subdivides_rows(self):
        shards = plan_variance_shards(_CONFIG, seed=0, circuits_per_shard=4)
        assert [(s.num_qubits, s.start, s.num_circuits) for s in shards] == [
            (2, 0, 4),
            (2, 4, 2),
            (3, 0, 4),
            (3, 4, 2),
        ]

    def test_shard_granularity_does_not_change_results(self):
        coarse = plan_variance_shards(_CONFIG, seed=9)
        fine = plan_variance_shards(_CONFIG, seed=9, circuits_per_shard=2)
        merged_coarse = merge_variance_outputs(
            _CONFIG, [run_variance_shard(_CONFIG, s) for s in coarse]
        )
        # Execute fine shards deliberately out of order.
        merged_fine = merge_variance_outputs(
            _CONFIG, [run_variance_shard(_CONFIG, s) for s in reversed(fine)]
        )
        for key in merged_coarse.samples:
            assert np.array_equal(
                merged_coarse.samples[key].gradients,
                merged_fine.samples[key].gradients,
            ), key

    def test_merge_rejects_incomplete_rows(self):
        shards = plan_variance_shards(_CONFIG, seed=0, circuits_per_shard=4)
        outputs = [run_variance_shard(_CONFIG, shards[0])]
        with pytest.raises(ValueError, match="incomplete"):
            merge_variance_outputs(_CONFIG, outputs)


class TestExecutorAgreement:
    def test_serial_and_batched_bit_identical(self):
        serial = repro.run(
            ExperimentSpec(kind="variance", config=_CONFIG, seed=11, executor="serial")
        )
        batched = repro.run(
            ExperimentSpec(kind="variance", config=_CONFIG, seed=11, executor="batched")
        )
        for key in serial.result.samples:
            assert np.array_equal(
                serial.result.samples[key].gradients,
                batched.result.samples[key].gradients,
            ), key

    @pytest.mark.slow
    def test_process_pool_bit_identical_to_serial(self):
        serial = repro.run(
            ExperimentSpec(kind="variance", config=_CONFIG, seed=11, executor="serial")
        )
        pooled = repro.run(
            ExperimentSpec(
                kind="variance",
                config=_CONFIG,
                seed=11,
                executor="process_pool",
                workers=2,
            )
        )
        for key in serial.result.samples:
            assert np.array_equal(
                serial.result.samples[key].gradients,
                pooled.result.samples[key].gradients,
            ), key

    @pytest.mark.slow
    def test_process_pool_training_bit_identical(self):
        from repro.core.training import TrainingConfig

        config = TrainingConfig(num_qubits=2, num_layers=1, iterations=2)
        spec = dict(kind="training", config=config, seed=0, methods=("random", "zeros"))
        serial = repro.run(ExperimentSpec(executor="serial", **spec))
        pooled = repro.run(
            ExperimentSpec(executor="process_pool", workers=2, **spec)
        )
        for method in ("random", "zeros"):
            assert (
                serial.histories[method].losses == pooled.histories[method].losses
            )


class TestVarianceResume:
    def test_resume_after_one_shard(self, tmp_path, monkeypatch):
        """Kill the grid after one shard; the restart recomputes the rest."""
        import repro.core.variance as vmod

        direct = repro.run(ExperimentSpec(kind="variance", config=_CONFIG, seed=5))

        original = vmod.run_variance_shard
        calls = []

        def flaky(config, shard, **kwargs):
            calls.append(shard.unit_id)
            if len(calls) == 2:
                raise RuntimeError("killed")
            return original(config, shard, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", flaky)
        with pytest.raises(RuntimeError):
            repro.run(
                ExperimentSpec(
                    kind="variance",
                    config=_CONFIG,
                    seed=5,
                    checkpoint_dir=tmp_path,
                )
            )
        assert len(list(tmp_path.glob("shard-*.json"))) == 1

        resumed_calls = []

        def counting(config, shard, **kwargs):
            resumed_calls.append(shard.unit_id)
            return original(config, shard, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", counting)
        resumed = repro.run(
            ExperimentSpec(
                kind="variance", config=_CONFIG, seed=5, checkpoint_dir=tmp_path
            )
        )
        assert len(resumed_calls) == 1  # only the missing shard re-ran
        for key in direct.result.samples:
            assert np.array_equal(
                direct.result.samples[key].gradients,
                resumed.result.samples[key].gradients,
            ), key

    def test_plan_change_invalidates_checkpoints(self, tmp_path):
        """Resuming under a different shard granularity recomputes cleanly.

        Old checkpoints cover different circuit ranges; they must be
        ignored (fingerprint mismatch), not mis-merged into an
        'incomplete grid row' failure.
        """
        base = dict(kind="variance", config=_CONFIG, seed=5, checkpoint_dir=tmp_path)
        coarse = repro.run(ExperimentSpec(circuits_per_shard=2, **base))
        fine = repro.run(ExperimentSpec(circuits_per_shard=3, **base))
        for key in coarse.result.samples:
            assert np.array_equal(
                coarse.result.samples[key].gradients,
                fine.result.samples[key].gradients,
            ), key

    def test_fingerprint_ties_checkpoints_to_seed_and_config(self):
        from dataclasses import replace

        from repro.core.spec import _fingerprint

        spec_a = ExperimentSpec(kind="variance", config=_CONFIG, seed=3)
        spec_b = ExperimentSpec(kind="variance", config=_CONFIG, seed=3)
        spec_c = ExperimentSpec(kind="variance", config=_CONFIG, seed=4)
        assert _fingerprint("variance", _CONFIG, spec_a) == _fingerprint(
            "variance", _CONFIG, spec_b
        )
        assert _fingerprint("variance", _CONFIG, spec_a) != _fingerprint(
            "variance", _CONFIG, spec_c
        )
        other_config = replace(_CONFIG, num_layers=_CONFIG.num_layers + 1)
        assert _fingerprint("variance", _CONFIG, spec_a) != _fingerprint(
            "variance", other_config, spec_a
        )


class TestCheckpointWarnings:
    """Corrupt checkpoints must warn and recompute, never crash a resume."""

    def _run_once(self, tmp_path):
        units = [WorkUnit("u0", _double, (3,))]
        SerialExecutor(checkpoint_dir=tmp_path).map_units(units, fingerprint="fp")
        return units

    def test_truncated_json_warns(self, tmp_path):
        units = self._run_once(tmp_path)
        (path,) = tmp_path.glob("shard-*.json")
        path.write_text("{ truncated")
        with pytest.warns(RuntimeWarning, match="unreadable checkpoint"):
            outputs = SerialExecutor(checkpoint_dir=tmp_path).map_units(
                units, fingerprint="fp"
            )
        assert outputs == [{"value": 6}]

    def test_valid_envelope_missing_fields_warns(self, tmp_path):
        """A well-formed file whose data lost its keys is also skipped."""
        import json

        units = self._run_once(tmp_path)
        (path,) = tmp_path.glob("shard-*.json")
        path.write_text(
            json.dumps({"type": "ShardCheckpoint", "schema_version": 2, "data": {}})
        )
        with pytest.warns(RuntimeWarning, match="unreadable checkpoint"):
            outputs = SerialExecutor(checkpoint_dir=tmp_path).map_units(
                units, fingerprint="fp"
            )
        assert outputs == [{"value": 6}]

    def test_intact_checkpoints_do_not_warn(self, tmp_path, recwarn):
        units = self._run_once(tmp_path)
        SerialExecutor(checkpoint_dir=tmp_path).map_units(units, fingerprint="fp")
        assert not [w for w in recwarn if w.category is RuntimeWarning]


def _mark_and_sleep(marker_dir, index, seconds):
    (marker_dir / f"ran-{index}").touch()
    time.sleep(seconds)
    return {"value": index}


def _wait_for_file(path, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return {"saw_marker": True}
        time.sleep(0.01)
    return {"saw_marker": False}


class TestProcessPool:
    def test_zero_workers_means_cpu_count(self):
        assert ProcessPoolExecutor(workers=0).workers == (os.cpu_count() or 1)

    def test_on_result_fires_while_other_units_run(self, tmp_path):
        """Unit B finishes only after ``on_result`` has seen unit A land."""
        marker = tmp_path / "a-landed"
        units = [
            WorkUnit("a", _double, (1,)),
            WorkUnit("b", _wait_for_file, (str(marker), 30.0)),
        ]

        def on_result(unit, output):
            if unit.unit_id == "a":
                marker.touch()

        outputs = get_executor("process_pool", workers=2).map_units(
            units, on_result=on_result
        )
        assert outputs == [{"value": 2}, {"saw_marker": True}]

    @pytest.mark.parametrize(
        "seconds", [0.3, 0.1], ids=["abort-on-idle-poll", "abort-while-units-land"]
    )
    def test_abort_cancels_queued_units(self, tmp_path, seconds):
        """Only units a worker already holds run after an abort.

        Units shorter than the 0.25 s poll keep the pool from ever idling,
        so the abort must also be polled when a unit lands.
        """
        units = [
            WorkUnit(f"u{i}", _mark_and_sleep, (tmp_path, i, seconds))
            for i in range(12)
        ]
        with pytest.raises(ExecutionAborted):
            get_executor("process_pool", workers=2).map_units(
                units, should_abort=lambda: True
            )
        assert len(list(tmp_path.glob("ran-*"))) < 12


class TestAliases:
    """``async``, ``remote`` and ``device`` are registry aliases, not classes.

    ``TestRegistry.test_builtins_registered`` pins that
    :func:`available_executors` still lists all three names.
    """

    def test_aliases_resolve_to_their_targets(self):
        assert type(get_executor("async", workers=2)) is ProcessPoolExecutor
        assert executor_class("remote") is ProcessPoolExecutor
        assert type(get_executor("device")) is LockstepExecutor

    @pytest.mark.parametrize(
        "alias, target, kind",
        [
            ("async", "process_pool", "variance"),
            ("remote", "process_pool", "variance"),
            ("remote", "serial", "variance"),
            ("device", "lockstep", "training"),
        ],
    )
    def test_alias_spec_matches_target_bytes(self, tmp_path, alias, target, kind):
        from repro.core.training import TrainingConfig
        from repro.io import save_result

        config = (
            _CONFIG
            if kind == "variance"
            else TrainingConfig(num_qubits=2, num_layers=1, iterations=2)
        )
        payloads = {}
        for name in (alias, target):
            spec = ExperimentSpec(kind=kind, config=config, seed=3, executor=name)
            path = save_result(repro.run(spec.to_dict()), tmp_path / f"{name}.json")
            payloads[name] = path.read_bytes()
        assert payloads[alias] == payloads[target]
