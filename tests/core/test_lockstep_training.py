"""Lock-step multi-trajectory training: bit-identity with sequential runs.

The contract under test: lock-step execution — one batched adjoint sweep
and one batch-aware optimizer step per iteration for all trajectories —
is a pure throughput change.  Histories (losses, gradient norms, initial
and final parameters) must equal the sequential per-trajectory runs
*exactly*, across optimizers, costs, restarts and the spec/executor
layer.
"""

import numpy as np
import pytest

import repro
from repro.core import ExperimentSpec
from repro.core.cost import make_cost
from repro.core.training import (
    Trainer,
    TrainingConfig,
    expand_trajectories,
    run_lockstep_training_unit,
    train_all_methods,
)
from repro.optim import Adam, GradientDescent, Momentum
from repro.utils.rng import spawn_seeds


def _tiny_config(**overrides):
    defaults = dict(num_qubits=3, num_layers=2, iterations=5)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def _assert_history_equal(a, b):
    assert a.method == b.method
    assert a.losses == b.losses
    assert a.gradient_norms == b.gradient_norms
    assert np.array_equal(a.initial_params, b.initial_params)
    assert np.array_equal(a.final_params, b.final_params)


class TestValueAndGradientFusion:
    def test_adjoint_engine_runs_circuit_once(self, monkeypatch):
        from repro.backend.simulator import StatevectorSimulator

        circuit = repro.QuantumCircuit(2).rx(0).ry(1).cz(0, 1).ry(0)
        cost = make_cost("global", circuit)
        params = np.array([0.3, -0.8, 1.4])
        calls = {"run": 0}
        original = StatevectorSimulator.run

        def counting_run(self, *args, **kwargs):
            calls["run"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StatevectorSimulator, "run", counting_run)
        value, grad = cost.value_and_gradient(params)
        assert calls["run"] == 1
        monkeypatch.undo()
        assert value == cost.value(params)
        assert np.array_equal(grad, cost.gradient(params))

    @pytest.mark.parametrize(
        "engine",
        ["adjoint", "batch_adjoint", "parameter_shift", "finite_difference"],
    )
    def test_pair_matches_separate_calls(self, engine):
        circuit = repro.QuantumCircuit(2).rx(0).ry(1).cz(0, 1).ry(0)
        cost = make_cost("local", circuit, gradient_engine=engine)
        params = np.array([0.7, 0.1, -1.1])
        value, grad = cost.value_and_gradient(params)
        assert value == cost.value(params)
        if engine == "finite_difference":
            assert np.allclose(grad, cost.gradient(params))
        else:
            assert np.array_equal(grad, cost.gradient(params))


class TestValueAndGradientBatch:
    @pytest.mark.parametrize(
        "engine", ["adjoint", "batch_adjoint", "parameter_shift", "finite_difference"]
    )
    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_rows_match_sequential_pair(self, engine, kind):
        circuit = repro.QuantumCircuit(3)
        for q in range(3):
            circuit.rx(q).ry(q)
        circuit.cz(0, 1).cz(1, 2)
        cost = make_cost(kind, circuit, gradient_engine=engine)
        rng = np.random.default_rng(71)
        batch = rng.uniform(0, 2 * np.pi, (4, circuit.num_parameters))
        values, grads = cost.value_and_gradient_batch(batch)
        assert values.shape == (4,) and grads.shape == (4, circuit.num_parameters)
        for b in range(4):
            value, grad = cost.value_and_gradient(batch[b])
            assert values[b] == value
            assert np.array_equal(grads[b], grad)

    def test_rejects_1d_params(self):
        circuit = repro.QuantumCircuit(1).rx(0)
        cost = make_cost("global", circuit)
        with pytest.raises(ValueError, match="2-D"):
            cost.value_and_gradient_batch(np.zeros(1))


class TestBatchedOptimizers:
    @pytest.mark.parametrize("cls", [GradientDescent, Momentum, Adam])
    def test_rows_match_independent_instances(self, cls):
        rng = np.random.default_rng(72)
        params = rng.normal(size=(3, 5))
        singles = [cls() for _ in range(3)]
        batched = cls()
        current = params.copy()
        per_row = [params[b].copy() for b in range(3)]
        for _ in range(4):
            grads = rng.normal(size=(3, 5))
            current = batched.step(current, grads)
            for b in range(3):
                per_row[b] = singles[b].step(per_row[b], grads[b])
                assert np.array_equal(current[b], per_row[b])

    def test_state_shape_switch_rejected(self):
        optimizer = Adam()
        optimizer.step(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="reset"):
            optimizer.step(np.zeros(3), np.ones(3))
        optimizer.reset()
        optimizer.step(np.zeros(3), np.ones(3))

    def test_qng_rejects_batches(self):
        from repro.optim import QuantumNaturalGradient

        circuit = repro.QuantumCircuit(1).rx(0)
        optimizer = QuantumNaturalGradient(circuit)
        with pytest.raises(ValueError, match="one trajectory"):
            optimizer.step(np.zeros((2, 1)), np.ones((2, 1)))


class TestRunLockstep:
    @pytest.mark.parametrize("optimizer", ["gradient_descent", "adam"])
    @pytest.mark.parametrize("cost_kind", ["global", "local"])
    def test_bit_identical_to_sequential_runs(self, optimizer, cost_kind):
        config = _tiny_config(optimizer=optimizer, cost_kind=cost_kind)
        trainer = Trainer(config)
        methods = ["random", "xavier_normal", "zeros"]
        seeds = spawn_seeds(123, len(methods))
        lock = trainer.run_lockstep(methods, seeds=seeds)
        for history, method, seed in zip(lock, methods, seeds):
            _assert_history_equal(history, trainer.run(method, seed=seed))

    def test_duplicate_methods_with_labels(self):
        trainer = Trainer(_tiny_config())
        seeds = spawn_seeds(5, 2)
        histories = trainer.run_lockstep(
            ["random", "random"], seeds=seeds, labels=["random#r0", "random#r1"]
        )
        assert [h.method for h in histories] == ["random#r0", "random#r1"]
        # Different child seeds -> different draws.
        assert not np.array_equal(
            histories[0].initial_params, histories[1].initial_params
        )

    def test_initial_params_override(self):
        trainer = Trainer(_tiny_config())
        stack = np.zeros((2, trainer.num_parameters))
        histories = trainer.run_lockstep(["random", "zeros"], initial_params=stack)
        for history in histories:
            assert history.initial_loss == pytest.approx(0.0, abs=1e-12)

    def test_callback_sees_batch(self):
        trainer = Trainer(_tiny_config(iterations=2))
        seen = []
        trainer.run_lockstep(
            ["random", "zeros"],
            seeds=spawn_seeds(1, 2),
            callback=lambda it, losses, params: seen.append(
                (it, losses.shape, params.shape)
            ),
        )
        assert seen == [(i, (2,), (2, trainer.num_parameters)) for i in range(3)]

    def test_rejects_empty_and_mismatched(self):
        trainer = Trainer(_tiny_config())
        with pytest.raises(ValueError, match="at least one"):
            trainer.run_lockstep([])
        with pytest.raises(ValueError, match="seeds"):
            trainer.run_lockstep(["random"], seeds=[1, 2])
        with pytest.raises(ValueError, match="labels"):
            trainer.run_lockstep(["random"], labels=["a", "b"])
        with pytest.raises(ValueError, match="shape"):
            trainer.run_lockstep(["random"], initial_params=np.zeros(3))


class TestTrainAllMethodsLockstep:
    def test_bit_identical_to_sequential_mode(self):
        config = _tiny_config()
        methods = ("random", "he_normal", "zeros")
        sequential = train_all_methods(config, methods=methods, seed=42)
        lockstep = train_all_methods(config, methods=methods, seed=42, lockstep=True)
        assert list(sequential) == list(lockstep)
        for method in sequential:
            _assert_history_equal(sequential[method], lockstep[method])

    def test_restarts_bit_identical_and_labelled(self):
        config = _tiny_config(iterations=3)
        sequential = train_all_methods(
            config, methods=("random", "he_normal"), seed=6, restarts=2
        )
        lockstep = train_all_methods(
            config, methods=("random", "he_normal"), seed=6, restarts=2, lockstep=True
        )
        assert set(sequential) == {
            "random#r0",
            "random#r1",
            "he_normal#r0",
            "he_normal#r1",
        }
        for label in sequential:
            _assert_history_equal(sequential[label], lockstep[label])

    def test_expand_trajectories_layout(self):
        labels, methods = expand_trajectories(("a", "b"), restarts=3)
        assert labels == ["a#r0", "a#r1", "a#r2", "b#r0", "b#r1", "b#r2"]
        assert methods == ["a", "a", "a", "b", "b", "b"]
        labels, methods = expand_trajectories(("a", "b"))
        assert labels == ["a", "b"] and methods == ["a", "b"]

    def test_verbose_prints_labels(self, capsys):
        train_all_methods(
            _tiny_config(iterations=1),
            methods=("zeros",),
            seed=0,
            restarts=2,
            lockstep=True,
            verbose=True,
        )
        out = capsys.readouterr().out
        assert "zeros#r0" in out and "zeros#r1" in out


class TestLockstepSpecExecution:
    @pytest.mark.parametrize("executor", ["lockstep", None])
    def test_lockstep_executor_matches_serial(self, executor):
        config = _tiny_config(iterations=3)
        base = dict(
            kind="training", config=config, seed=9, methods=("random", "zeros")
        )
        serial = repro.run(ExperimentSpec(executor="serial", **base))
        lockstep = repro.run(ExperimentSpec(executor=executor, **base))
        assert list(serial.histories) == list(lockstep.histories)
        for method in serial.histories:
            _assert_history_equal(
                serial.histories[method], lockstep.histories[method]
            )

    def test_restarts_through_spec(self):
        config = _tiny_config(iterations=2)
        outcome = repro.run(
            ExperimentSpec(
                kind="training",
                config=config,
                seed=3,
                methods=("random",),
                restarts=3,
                executor="lockstep",
            )
        )
        assert set(outcome.histories) == {"random#r0", "random#r1", "random#r2"}

    def test_lockstep_unit_outputs_round_trip(self):
        config = _tiny_config(iterations=2)
        seeds = spawn_seeds(4, 2)
        payloads = run_lockstep_training_unit(
            config, ("random", "zeros"), ("random", "zeros"), seeds
        )
        from repro.core.results import TrainingHistory

        histories = [TrainingHistory.from_dict(p) for p in payloads]
        assert [h.method for h in histories] == ["random", "zeros"]
        assert all(len(h.losses) == 3 for h in histories)

    def test_checkpoint_resume(self, tmp_path):
        config = _tiny_config(iterations=2)
        spec = ExperimentSpec(
            kind="training",
            config=config,
            seed=8,
            methods=("random", "zeros"),
            executor="lockstep",
            checkpoint_dir=tmp_path,
        )
        first = repro.run(spec)
        assert list(tmp_path.glob("shard-*.json"))
        resumed = repro.run(spec)
        for method in first.histories:
            _assert_history_equal(
                first.histories[method], resumed.histories[method]
            )

    def test_restarts_rejected_outside_training(self):
        with pytest.raises(ValueError, match="restarts"):
            ExperimentSpec(kind="variance", restarts=2)

    def test_restarts_round_trip(self):
        spec = ExperimentSpec(kind="training", restarts=4, executor="lockstep")
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.restarts == 4
        legacy = ExperimentSpec.from_dict({"kind": "training"})
        assert legacy.restarts == 1


class TestCliBatchTrajectories:
    def test_train_flag_runs_lockstep(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--qubits",
                "2",
                "--layers",
                "1",
                "--iterations",
                "1",
                "--methods",
                "zeros",
                "--restarts",
                "2",
                "--batch-trajectories",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "zeros#r0" in out and "zeros#r1" in out
