"""Ansatz template interface.

A template is a deterministic circuit *family*: given its configuration it
builds the same trainable :class:`~repro.backend.circuit.QuantumCircuit`
every time, and exposes the :class:`~repro.initializers.ParameterShape`
that initializers need.  The parameter ordering contract shared by all
templates is layer-major, then qubit, then gate-within-qubit — exactly the
order :meth:`repro.initializers.Initializer.sample` produces.
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import Gate, ParametricGate, get_gate
from repro.initializers.base import ParameterShape
from repro.utils.validation import check_positive_int

__all__ = ["AnsatzTemplate", "check_entangler", "check_rotation_gates"]


def _named_gate(name: str, field: str) -> Gate:
    if not isinstance(name, str):
        raise ValueError(f"{field} must name gates, got {name!r}")
    try:
        return get_gate(name)
    except KeyError:
        raise ValueError(f"{field}: unknown gate {name!r}") from None


def check_rotation_gates(names: Sequence[str], field: str) -> Tuple[str, ...]:
    """Upper-cased ``names``, each a 1-qubit parametric gate (a repeat is
    kept); a ``ValueError`` naming ``field`` otherwise."""
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"{field} must be a non-empty list of gate names")
    for name in names:
        gate = _named_gate(name, field)
        if not isinstance(gate, ParametricGate) or gate.num_qubits != 1:
            raise ValueError(
                f"{field} entries must be 1-qubit parametric gates, got {name!r}"
            )
    return tuple(name.upper() for name in names)


def check_entangler(name: str) -> str:
    """Upper-cased ``name`` of a fixed 2-qubit gate; a ``ValueError``
    naming the ``entangler`` field otherwise."""
    gate = _named_gate(name, "entangler")
    if gate.num_qubits != 2 or gate.num_params:
        raise ValueError(f"entangler must be a fixed 2-qubit gate, got {name!r}")
    return name.upper()


class AnsatzTemplate(abc.ABC):
    """Base class for parameterized circuit families."""

    def __init__(self, num_qubits: int, num_layers: int):
        check_positive_int(num_qubits, "num_qubits")
        check_positive_int(num_layers, "num_layers")
        self.num_qubits = num_qubits
        self.num_layers = num_layers

    @property
    @abc.abstractmethod
    def params_per_qubit(self) -> int:
        """Trainable rotations per qubit per layer."""

    @property
    def parameter_shape(self) -> ParameterShape:
        """Shape descriptor consumed by initializers."""
        return ParameterShape(
            num_layers=self.num_layers,
            num_qubits=self.num_qubits,
            params_per_qubit=self.params_per_qubit,
        )

    @property
    def num_parameters(self) -> int:
        """Total trainable angle count."""
        return self.parameter_shape.num_parameters

    @abc.abstractmethod
    def build(self) -> QuantumCircuit:
        """Construct the trainable circuit."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(num_qubits={self.num_qubits}, "
            f"num_layers={self.num_layers})"
        )
