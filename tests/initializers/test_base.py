"""Unit tests for ParameterShape, FanMode, and the Initializer contract."""

import numpy as np
import pytest

from repro.initializers import (
    FanMode,
    Normal,
    ParameterShape,
    RandomUniform,
    XavierNormal,
)


class TestParameterShape:
    def test_counts(self):
        shape = ParameterShape(num_layers=5, num_qubits=10, params_per_qubit=2)
        assert shape.params_per_layer == 20
        assert shape.num_parameters == 100
        assert shape.as_tensor_shape() == (5, 10, 2)

    def test_defaults_to_one_param_per_qubit(self):
        shape = ParameterShape(num_layers=3, num_qubits=4)
        assert shape.num_parameters == 12

    def test_fan_modes(self):
        shape = ParameterShape(num_layers=5, num_qubits=10, params_per_qubit=2)
        assert shape.fans(FanMode.QUBITS) == (10, 10)
        assert shape.fans(FanMode.PARAMS_PER_LAYER) == (20, 20)
        assert shape.fans(FanMode.QUBITS_IN_PARAMS_OUT) == (10, 20)

    def test_default_fan_mode_is_qubits(self):
        shape = ParameterShape(num_layers=1, num_qubits=6)
        assert shape.fans() == (6, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 0, "num_qubits": 2},
            {"num_layers": 2, "num_qubits": 0},
            {"num_layers": 2, "num_qubits": 2, "params_per_qubit": 0},
            {"num_layers": -1, "num_qubits": 2},
        ],
    )
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ParameterShape(**kwargs)

    def test_frozen(self):
        shape = ParameterShape(num_layers=1, num_qubits=2)
        with pytest.raises(AttributeError):
            shape.num_layers = 5


class TestInitializerContract:
    def test_sample_size(self):
        shape = ParameterShape(num_layers=4, num_qubits=3, params_per_qubit=2)
        params = RandomUniform().sample(shape, seed=0)
        assert params.shape == (24,)

    def test_sample_deterministic_with_seed(self):
        shape = ParameterShape(num_layers=3, num_qubits=5)
        a = XavierNormal().sample(shape, seed=42)
        b = XavierNormal().sample(shape, seed=42)
        assert np.array_equal(a, b)

    def test_sample_differs_across_seeds(self):
        shape = ParameterShape(num_layers=3, num_qubits=5)
        a = XavierNormal().sample(shape, seed=1)
        b = XavierNormal().sample(shape, seed=2)
        assert not np.array_equal(a, b)

    def test_sample_accepts_generator(self):
        shape = ParameterShape(num_layers=2, num_qubits=2)
        gen = np.random.default_rng(9)
        params = Normal(0.5).sample(shape, gen)
        assert params.shape == (4,)

    def test_layer_major_ordering(self):
        """Each consecutive block of params_per_layer belongs to one layer."""

        class MarkerInit(Normal):
            """Emits the layer index so the flat ordering is observable."""

            def sample_layers(self, shape, rng, count):
                layer = np.arange(count, dtype=float)[:, None]
                return np.repeat(layer, shape.params_per_layer, axis=1)

        shape = ParameterShape(num_layers=3, num_qubits=2, params_per_qubit=2)
        params = MarkerInit().sample(shape, seed=0)
        assert np.array_equal(
            params, np.repeat([0.0, 1.0, 2.0], shape.params_per_layer)
        )

    def test_describe_mentions_fans(self):
        shape = ParameterShape(num_layers=1, num_qubits=8)
        text = XavierNormal().describe(shape)
        assert "fan_in=8" in text and "fan_out=8" in text

    def test_wrong_layer_size_detected(self):
        class BrokenInit(Normal):
            def sample_layers(self, shape, rng, count):
                return np.zeros((count, shape.params_per_layer + 1))

        shape = ParameterShape(num_layers=2, num_qubits=2)
        with pytest.raises(RuntimeError):
            BrokenInit().sample(shape, seed=0)
