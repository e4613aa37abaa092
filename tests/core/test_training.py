"""Unit tests for the training engine."""

import numpy as np
import pytest

from repro.core.training import Trainer, TrainingConfig, train, train_all_methods
from repro.initializers import Zeros


def _tiny_config(**overrides):
    defaults = dict(num_qubits=3, num_layers=2, iterations=5)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


class TestConfig:
    def test_paper_defaults(self):
        config = TrainingConfig()
        assert config.num_qubits == 10
        assert config.num_layers == 5
        assert config.iterations == 50
        assert config.learning_rate == pytest.approx(0.1)
        assert config.optimizer == "gradient_descent"
        assert config.cost_kind == "global"

    def test_paper_parameter_count(self):
        trainer = Trainer(TrainingConfig())
        assert trainer.num_parameters == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_qubits": 0},
            {"num_layers": 0},
            {"iterations": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -0.5},
            {"optimizer": "nosuch"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            _tiny_config(**kwargs)

    def test_build_optimizer_kwargs(self):
        config = _tiny_config(optimizer="adam", optimizer_kwargs={"beta1": 0.8})
        optimizer = config.build_optimizer()
        assert optimizer.beta1 == pytest.approx(0.8)
        assert optimizer.learning_rate == pytest.approx(0.1)


class TestTrainer:
    def test_history_lengths(self):
        history = Trainer(_tiny_config()).run("xavier_normal", seed=0)
        assert len(history.losses) == 6  # initial + 5 iterations
        assert len(history.gradient_norms) == 6
        assert history.num_iterations == 5

    def test_zeros_init_starts_and_stays_at_zero_loss(self):
        history = Trainer(_tiny_config()).run(Zeros(), seed=0)
        assert history.initial_loss == pytest.approx(0.0, abs=1e-12)
        assert history.final_loss == pytest.approx(0.0, abs=1e-12)

    def test_training_reduces_loss(self):
        config = _tiny_config(iterations=30)
        history = Trainer(config).run("xavier_normal", seed=1)
        assert history.final_loss < history.initial_loss

    def test_reproducible(self):
        config = _tiny_config()
        a = Trainer(config).run("he_normal", seed=5)
        b = Trainer(config).run("he_normal", seed=5)
        assert np.allclose(a.losses, b.losses)
        assert np.allclose(a.final_params, b.final_params)

    def test_method_name_recorded(self):
        history = Trainer(_tiny_config()).run("lecun_normal", seed=0)
        assert history.method == "lecun_normal"
        assert history.optimizer == "gradient_descent"

    def test_initializer_instance_accepted(self):
        history = Trainer(_tiny_config()).run(Zeros(), seed=0)
        assert history.method == "zeros"

    def test_callback_invoked(self):
        calls = []
        Trainer(_tiny_config(iterations=3)).run(
            "xavier_normal",
            seed=0,
            callback=lambda it, loss, params: calls.append(it),
        )
        assert calls == [0, 1, 2, 3]

    def test_initial_params_override(self):
        trainer = Trainer(_tiny_config())
        explicit = np.zeros(trainer.num_parameters)
        history = trainer.run("random", seed=0, initial_params=explicit)
        assert history.initial_loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(history.initial_params, explicit)

    def test_initial_params_wrong_shape(self):
        trainer = Trainer(_tiny_config())
        with pytest.raises(ValueError):
            trainer.run("random", initial_params=np.zeros(3))

    def test_adam_optimizer(self):
        config = _tiny_config(optimizer="adam", iterations=20)
        history = Trainer(config).run("xavier_normal", seed=2)
        assert history.optimizer == "adam"
        assert history.final_loss < history.initial_loss

    def test_gradient_engine_parameter_shift(self):
        config = _tiny_config(gradient_engine="parameter_shift", iterations=3)
        ps = Trainer(config).run("xavier_normal", seed=7)
        adj = Trainer(_tiny_config(iterations=3)).run("xavier_normal", seed=7)
        assert np.allclose(ps.losses, adj.losses, atol=1e-9)

    def test_local_cost_training(self):
        config = _tiny_config(cost_kind="local", iterations=10)
        history = Trainer(config).run("xavier_normal", seed=3)
        assert history.cost_kind == "local"
        assert history.final_loss < history.initial_loss


class TestConvenienceWrappers:
    def test_train(self):
        history = train(_tiny_config(), method="he_normal", seed=0)
        assert history.method == "he_normal"

    def test_train_all_methods(self):
        histories = train_all_methods(
            _tiny_config(), methods=("random", "zeros"), seed=0
        )
        assert set(histories) == {"random", "zeros"}

    def test_train_all_methods_reproducible(self):
        a = train_all_methods(_tiny_config(), methods=("random",), seed=9)
        b = train_all_methods(_tiny_config(), methods=("random",), seed=9)
        assert np.allclose(a["random"].losses, b["random"].losses)

    def test_verbose(self, capsys):
        train_all_methods(
            _tiny_config(iterations=1), methods=("zeros",), seed=0, verbose=True
        )
        assert "zeros" in capsys.readouterr().out
