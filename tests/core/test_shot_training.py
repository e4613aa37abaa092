"""Shot-based training: cost plumbing, the training loop, executor identity.

The contract: with ``TrainingConfig.shots`` set, losses and gradients are
finite-sample estimates through the parameter-shift rule, each trajectory
owns a persistent measurement stream, and lock-step execution consumes
every stream exactly as the per-trajectory loop of
``oracles.train_trajectory`` does — so ``Trainer.run``,
``Trainer.run_lockstep`` and every executor give bit-identical histories
given the same seeds.
"""

import numpy as np
import pytest

import oracles
import repro
from repro.core import ExperimentSpec
from repro.core.cost import make_cost
from repro.core.training import (
    Trainer,
    TrainingConfig,
    run_labelled_training_unit,
    run_lockstep_training_unit,
    train_all_methods,
)
from repro.utils.rng import ensure_rng, spawn_seeds


def _tiny_config(**overrides):
    defaults = dict(num_qubits=3, num_layers=2, iterations=4, shots=48)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def _assert_history_equal(a, b):
    assert a.method == b.method
    assert a.losses == b.losses
    assert a.gradient_norms == b.gradient_norms
    assert np.array_equal(a.initial_params, b.initial_params)
    assert np.array_equal(a.final_params, b.final_params)


class TestSampledCost:
    @pytest.fixture
    def circuit(self):
        circuit = repro.QuantumCircuit(3)
        for q in range(3):
            circuit.rx(q).ry(q)
        circuit.cz(0, 1).cz(1, 2)
        return circuit

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_value_reproducible_and_noisy(self, circuit, kind):
        cost = make_cost(kind, circuit)
        params = np.full(circuit.num_parameters, 0.4)
        a = cost.value(params, shots=64, seed=5)
        b = cost.value(params, shots=64, seed=5)
        c = cost.value(params, shots=64, seed=6)
        assert a == b
        assert a != c or kind == "global"  # global cost can coincide

    def test_sampled_gradient_uses_shift_rule_for_adjoint_engine(self, circuit):
        cost = make_cost("local", circuit, gradient_engine="adjoint")
        params = np.full(circuit.num_parameters, 0.7)
        grad = cost.gradient(params, shots=20000, seed=0)
        assert np.allclose(grad, cost.gradient(params), atol=0.05)

    def test_value_and_gradient_stream_order(self, circuit):
        """The fused pair consumes one rng value-first then shifts."""
        cost = make_cost("global", circuit)
        params = np.full(circuit.num_parameters, 0.3)
        rng = ensure_rng(9)
        value, grad = cost.value_and_gradient(params, shots=50, seed=rng)
        rng = ensure_rng(9)
        expected_value = cost.value(params, shots=50, seed=rng)
        expected_grad = cost.gradient(params, shots=50, seed=rng)
        assert value == expected_value
        assert np.array_equal(grad, expected_grad)

    def test_batch_rows_match_sequential_pair(self, circuit):
        cost = make_cost("local", circuit)
        rng = np.random.default_rng(3)
        batch = rng.uniform(0, 2 * np.pi, (3, circuit.num_parameters))
        children = spawn_seeds(8, 3)
        values, grads = cost.value_and_gradient_batch(batch, shots=40, seed=8)
        for b in range(3):
            rng = ensure_rng(children[b])
            assert values[b] == cost.value(batch[b], shots=40, seed=rng)
            assert np.array_equal(
                grads[b], cost.gradient(batch[b], shots=40, seed=rng)
            )

    def test_sampled_value_is_unbiased(
        self, circuit, assert_unbiased_estimator
    ):
        cost = make_cost("local", circuit)
        params = np.full(circuit.num_parameters, 0.9)
        exact = cost.value(params)
        estimates = [
            cost.value(params, shots=48, seed=seed) for seed in range(200)
        ]
        assert_unbiased_estimator(estimates, exact)


class TestTrainerShotBased:
    def test_sample_seed_requires_shots(self):
        trainer = Trainer(_tiny_config(shots=None))
        with pytest.raises(ValueError, match="sample_seed requires"):
            trainer.run("zeros", seed=0, sample_seed=1)
        with pytest.raises(ValueError, match="sample_seeds requires"):
            trainer.run_lockstep(["zeros"], seeds=[0], sample_seeds=[1])

    def test_reproducible_given_seeds(self):
        trainer = Trainer(_tiny_config())
        a = trainer.run("random", seed=1, sample_seed=2)
        b = trainer.run("random", seed=1, sample_seed=2)
        _assert_history_equal(a, b)

    def test_measurement_noise_changes_history(self):
        trainer = Trainer(_tiny_config())
        a = trainer.run("random", seed=1, sample_seed=2)
        b = trainer.run("random", seed=1, sample_seed=3)
        assert np.array_equal(a.initial_params, b.initial_params)
        assert a.losses != b.losses

    @pytest.mark.parametrize("optimizer", ["gradient_descent", "adam"])
    def test_bit_identical_to_per_trajectory_oracle(self, optimizer):
        config = _tiny_config(optimizer=optimizer)
        trainer = Trainer(config)
        methods = ["random", "xavier_normal", "zeros"]
        init_seeds = spawn_seeds(100, 3)
        sample_seeds = spawn_seeds(200, 3)
        lock = trainer.run_lockstep(
            methods, seeds=init_seeds, sample_seeds=sample_seeds
        )
        for history, method, init, sample in zip(
            lock, methods, init_seeds, sample_seeds
        ):
            reference = oracles.train_trajectory(trainer, method, init, sample)
            _assert_history_equal(history, reference)
            single = trainer.run(method, seed=init, sample_seed=sample)
            _assert_history_equal(single, reference)

    def test_train_all_methods_matches_oracle(self):
        config = _tiny_config()
        methods = ("random", "he_normal")
        histories = train_all_methods(config, methods=methods, seed=11)
        reference = oracles.train_panel(config, methods, seed=11)
        assert list(histories) == list(reference)
        for label in reference:
            _assert_history_equal(histories[label], reference[label])

    def test_restarts_with_shots(self):
        config = _tiny_config(iterations=2)
        histories = train_all_methods(
            config, methods=("random",), seed=4, restarts=2
        )
        reference = oracles.train_panel(config, ("random",), seed=4, restarts=2)
        assert set(histories) == {"random#r0", "random#r1"}
        for label in reference:
            _assert_history_equal(histories[label], reference[label])

    @pytest.mark.parametrize(
        "executor", ["serial", "lockstep", "batched", "process_pool", None]
    )
    @pytest.mark.parametrize(
        "noise",
        [None, {"default": {"name": "depolarizing", "probability": 0.02},
                "readout_error": 0.05}],
        ids=["noiseless", "noise"],
    )
    def test_executors_match_oracle(self, executor, noise):
        config = _tiny_config(iterations=3, noise=noise)
        methods = ("random", "zeros")
        outcome = repro.run(
            ExperimentSpec(
                kind="training",
                config=config,
                seed=17,
                methods=methods,
                restarts=2,
                executor=executor,
            )
        )
        reference = oracles.train_panel(config, methods, seed=17, restarts=2)
        assert list(outcome.histories) == list(reference)
        for label in reference:
            _assert_history_equal(outcome.histories[label], reference[label])

    def test_unit_functions_agree(self):
        config = _tiny_config(iterations=2)
        lockstep_payloads = run_lockstep_training_unit(
            config, ("random", "zeros"), ("a", "b"), spawn_seeds(21, 2)
        )
        # Fresh (identical) children: resolving a trajectory's seed spawns
        # from it, so each unit must receive its own copy — exactly what
        # the spec layer hands the executors.
        labelled = [
            run_labelled_training_unit(config, method, label, seed)
            for method, label, seed in zip(
                ("random", "zeros"), ("a", "b"), spawn_seeds(21, 2)
            )
        ]
        for lock, ref in zip(lockstep_payloads, labelled):
            assert lock == ref
