"""Hardware-efficient ansatz — the paper's training circuit (Eq. 3).

Each layer applies, per qubit, the rotations named in ``rotation_gates``
(paper default: RX then RY), followed by a CZ entangling sub-layer on the
nearest-neighbour chain.  With the paper's configuration — 10 qubits,
5 layers — the circuit has ``5 * (2*10 + 9) = 145`` gates and 100 trainable
parameters, matching Section IV-D exactly.
"""

from __future__ import annotations

from typing import Sequence

from repro.ansatz.base import AnsatzTemplate, check_entangler, check_rotation_gates
from repro.ansatz.entanglement import apply_entanglement, entanglement_pairs
from repro.backend.circuit import QuantumCircuit

__all__ = ["HardwareEfficientAnsatz"]


class HardwareEfficientAnsatz(AnsatzTemplate):
    """The paper's Eq. 3 ansatz family.

    Parameters
    ----------
    num_qubits:
        Circuit width ``n``.
    num_layers:
        Repetitions ``L``.
    rotation_gates:
        Trainable single-qubit rotations applied (in order) to every qubit
        in every layer.  Default ``("RX", "RY")`` as in the paper.
    entanglement:
        Pattern name for the entangling sub-layer (default ``"chain"``,
        the paper's nearest-neighbour CZ product).
    entangler:
        Two-qubit gate used for entanglement (default ``"CZ"``).
    final_rotation_layer:
        When True, append one extra rotation sub-layer after the last
        entangling sub-layer (a common HEA variant; off by default to
        match the paper's gate count).
    """

    def __init__(
        self,
        num_qubits: int,
        num_layers: int,
        rotation_gates: Sequence[str] = ("RX", "RY"),
        entanglement: str = "chain",
        entangler: str = "CZ",
        final_rotation_layer: bool = False,
    ):
        super().__init__(num_qubits, num_layers)
        self.rotation_gates = check_rotation_gates(rotation_gates, "rotation_gates")
        self.entangler = check_entangler(entangler)
        # Validates the pattern name eagerly.
        entanglement_pairs(entanglement, num_qubits)
        self.entanglement = entanglement
        self.final_rotation_layer = final_rotation_layer

    @property
    def params_per_qubit(self) -> int:
        return len(self.rotation_gates)

    @property
    def parameter_shape(self):
        """Shape descriptor; the optional final rotation counts as a layer."""
        from repro.initializers.base import ParameterShape

        layers = self.num_layers + (1 if self.final_rotation_layer else 0)
        return ParameterShape(
            num_layers=layers,
            num_qubits=self.num_qubits,
            params_per_qubit=self.params_per_qubit,
        )

    def build(self) -> QuantumCircuit:
        """Construct the trainable circuit (layer-major parameter order)."""
        circuit = QuantumCircuit(self.num_qubits)
        for _ in range(self.num_layers):
            self._rotation_sublayer(circuit)
            apply_entanglement(circuit, self.entanglement, self.entangler)
        if self.final_rotation_layer:
            self._rotation_sublayer(circuit)
        return circuit

    def _rotation_sublayer(self, circuit: QuantumCircuit) -> None:
        for qubit in range(self.num_qubits):
            for gate_name in self.rotation_gates:
                circuit.append(gate_name, [qubit])
