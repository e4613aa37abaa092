"""Unit tests for the paper-level experiment runners."""

import numpy as np
import pytest

from repro.core.experiments import (
    FullReproductionOutcome,
    TrainingExperimentOutcome,
    VarianceExperimentOutcome,
    run_full_reproduction,
    run_training_experiment,
    run_variance_experiment,
)
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig

_VAR_CONFIG = VarianceConfig(
    qubit_counts=(2, 3),
    num_circuits=6,
    num_layers=4,
    methods=("random", "xavier_normal"),
)
_TRAIN_CONFIG = TrainingConfig(num_qubits=3, num_layers=1, iterations=3)


class TestVarianceExperiment:
    def test_outcome_structure(self):
        outcome = run_variance_experiment(_VAR_CONFIG, seed=0)
        assert set(outcome.fits) == {"random", "xavier_normal"}
        assert set(outcome.improvements) == {"xavier_normal"}
        assert sorted(outcome.ranking) == ["random", "xavier_normal"]

    def test_no_random_baseline_no_improvements(self):
        config = VarianceConfig(
            qubit_counts=(2, 3),
            num_circuits=4,
            num_layers=3,
            methods=("xavier_normal",),
        )
        outcome = run_variance_experiment(config, seed=0)
        assert outcome.improvements == {}

    def test_one_width_has_variances_but_no_fits(self):
        config = VarianceConfig(
            qubit_counts=(3,), num_circuits=4, num_layers=3, methods=("random",)
        )
        outcome = run_variance_experiment(config, seed=0)
        assert outcome.result.qubit_counts == [3]
        assert len(outcome.result.variance_series("random")) == 1
        assert outcome.fits == {}
        assert outcome.improvements == {}
        assert outcome.ranking == []
        restored = VarianceExperimentOutcome.from_dict(outcome.to_dict())
        assert restored.fits == {} and restored.ranking == []

    def test_round_trip(self):
        outcome = run_variance_experiment(_VAR_CONFIG, seed=1)
        restored = VarianceExperimentOutcome.from_dict(outcome.to_dict())
        assert restored.ranking == outcome.ranking
        assert restored.fits["random"].rate == pytest.approx(
            outcome.fits["random"].rate
        )


class TestTrainingExperiment:
    def test_outcome_structure(self):
        outcome = run_training_experiment(
            _TRAIN_CONFIG, methods=("random", "zeros"), seed=0
        )
        assert outcome.optimizer == "gradient_descent"
        assert set(outcome.histories) == {"random", "zeros"}

    def test_final_losses_and_ranking(self):
        outcome = run_training_experiment(
            _TRAIN_CONFIG, methods=("random", "zeros"), seed=0
        )
        finals = outcome.final_losses()
        assert finals["zeros"] == pytest.approx(0.0, abs=1e-12)
        assert outcome.ranking()[0] == "zeros"

    def test_round_trip(self):
        outcome = run_training_experiment(
            _TRAIN_CONFIG, methods=("zeros",), seed=0
        )
        restored = TrainingExperimentOutcome.from_dict(outcome.to_dict())
        assert restored.optimizer == outcome.optimizer
        assert restored.histories["zeros"].losses == outcome.histories[
            "zeros"
        ].losses


class TestFullReproduction:
    def test_structure(self):
        outcome = run_full_reproduction(
            variance_config=_VAR_CONFIG,
            training_config=_TRAIN_CONFIG,
            optimizers=("gradient_descent", "adam"),
            seed=0,
        )
        assert set(outcome.training) == {"gradient_descent", "adam"}
        assert outcome.variance.fits

    def test_reproducible(self):
        kwargs = dict(
            variance_config=_VAR_CONFIG,
            training_config=_TRAIN_CONFIG,
            optimizers=("gradient_descent",),
        )
        a = run_full_reproduction(seed=3, **kwargs)
        b = run_full_reproduction(seed=3, **kwargs)
        assert a.variance.fits["random"].rate == pytest.approx(
            b.variance.fits["random"].rate
        )
        assert np.allclose(
            a.training["gradient_descent"].histories["random"].losses,
            b.training["gradient_descent"].histories["random"].losses,
        )

    def test_round_trip(self):
        outcome = run_full_reproduction(
            variance_config=_VAR_CONFIG,
            training_config=_TRAIN_CONFIG,
            optimizers=("adam",),
            seed=1,
        )
        restored = FullReproductionOutcome.from_dict(outcome.to_dict())
        assert set(restored.training) == {"adam"}
        assert restored.variance.ranking == outcome.variance.ranking
