"""Initializer interface and the PQC parameter-shape/fan conventions.

Classical initialization schemes are defined for dense layers with a
``fan_in``/``fan_out``; a PQC instead has a parameter tensor of shape
``(num_layers, num_qubits, params_per_qubit)``.  The paper does not state
how it mapped one onto the other, so the mapping is made explicit here
through :class:`FanMode` (DESIGN.md, substitutions table):

``FanMode.QUBITS`` (default)
    A circuit layer on ``q`` qubits is treated as a ``q -> q`` dense layer:
    ``fan_in = fan_out = q``.  This is the natural reading — each layer
    consumes and produces a ``q``-qubit state — and keeps every scheme's
    angle scale at ``Theta(1/sqrt(q))``.
``FanMode.PARAMS_PER_LAYER``
    ``fan_in = fan_out = q * params_per_qubit`` — counts parameters rather
    than wires.
``FanMode.QUBITS_IN_PARAMS_OUT``
    ``fan_in = q``, ``fan_out = q * params_per_qubit`` — an asymmetric
    reading that separates Xavier (which averages the two) from He/LeCun
    (which only use ``fan_in``).

The ablation bench ``bench_ablation_fan_mode`` quantifies how the choice
moves the headline numbers.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["FanMode", "ParameterShape", "Initializer"]


class FanMode(enum.Enum):
    """How a PQC layer maps onto a dense layer's fan-in/fan-out."""

    QUBITS = "qubits"
    PARAMS_PER_LAYER = "params_per_layer"
    QUBITS_IN_PARAMS_OUT = "qubits_in_params_out"


@dataclass(frozen=True)
class ParameterShape:
    """Shape of a PQC's trainable parameter tensor.

    Attributes
    ----------
    num_layers:
        Circuit depth in ansatz layers (``L`` in the paper's Eq. 3).
    num_qubits:
        Circuit width (``n``).
    params_per_qubit:
        Parameterized gates per qubit per layer (1 for the variance-analysis
        ansatz, 2 — RX and RY — for the training ansatz).
    """

    num_layers: int
    num_qubits: int
    params_per_qubit: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.num_layers, "num_layers")
        check_positive_int(self.num_qubits, "num_qubits")
        check_positive_int(self.params_per_qubit, "params_per_qubit")

    @property
    def params_per_layer(self) -> int:
        """Trainable angles in one ansatz layer."""
        return self.num_qubits * self.params_per_qubit

    @property
    def num_parameters(self) -> int:
        """Total trainable angles in the circuit."""
        return self.num_layers * self.params_per_layer

    def fans(self, mode: FanMode = FanMode.QUBITS) -> Tuple[int, int]:
        """``(fan_in, fan_out)`` for one layer under the given convention."""
        if mode is FanMode.QUBITS:
            return self.num_qubits, self.num_qubits
        if mode is FanMode.PARAMS_PER_LAYER:
            return self.params_per_layer, self.params_per_layer
        if mode is FanMode.QUBITS_IN_PARAMS_OUT:
            return self.num_qubits, self.params_per_layer
        raise ValueError(f"unknown fan mode {mode!r}")

    def as_tensor_shape(self) -> Tuple[int, int, int]:
        """``(num_layers, num_qubits, params_per_qubit)``."""
        return (self.num_layers, self.num_qubits, self.params_per_qubit)


class Initializer(abc.ABC):
    """Strategy that samples a PQC's initial trainable parameters.

    Subclasses implement :meth:`sample_layers`, which draws every layer's
    angles at once; :meth:`sample` calls it once for the circuit's depth
    and flattens the result in the canonical ordering (layer-major, then
    qubit, then gate within qubit), producing a flat vector compatible
    with the ansatz builders in :mod:`repro.ansatz`.  A layer stack must
    consume the generator exactly as one draw per layer in turn would;
    numpy's generators fill a ``size=(count, n)`` draw element by element,
    so one such call meets that for every built-in scheme except the
    resampled truncated normals, which loop per layer.
    """

    #: Registry name; subclasses override.
    name: str = "base"

    def __init__(self, fan_mode: FanMode = FanMode.QUBITS):
        self.fan_mode = fan_mode

    @abc.abstractmethod
    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Draw the angles of ``count`` ansatz layers as a
        ``(count, shape.params_per_layer)`` array."""

    def sample(self, shape: ParameterShape, seed: SeedLike = None) -> np.ndarray:
        """Draw the full flat parameter vector for a circuit.

        Parameters
        ----------
        shape:
            The circuit's parameter-tensor shape.
        seed:
            Seed or generator for reproducible draws.
        """
        rng = ensure_rng(seed)
        layers = np.asarray(self.sample_layers(shape, rng, shape.num_layers))
        expected = (shape.num_layers, shape.params_per_layer)
        if layers.shape != expected:
            raise RuntimeError(
                f"{type(self).__name__}.sample_layers returned shape "
                f"{layers.shape}, expected {expected}"
            )
        return layers.reshape(-1)

    def describe(self, shape: ParameterShape) -> str:
        """One-line human-readable description for reports."""
        fan_in, fan_out = shape.fans(self.fan_mode)
        return f"{self.name}(fan_in={fan_in}, fan_out={fan_out})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(fan_mode={self.fan_mode.value})"
