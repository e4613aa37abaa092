"""Unit tests for the circuit IR."""

import numpy as np
import pytest

from repro.backend import QuantumCircuit, StatevectorSimulator
from repro.backend.circuit import Operation
from repro.backend.gates import get_gate


class TestAppend:
    def test_builder_chaining(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(1, value=0.3)
        assert circuit.num_operations == 3
        assert circuit.num_parameters == 0

    def test_trainable_parameter_allocation(self):
        circuit = QuantumCircuit(2)
        circuit.rx(0)
        circuit.ry(1)
        circuit.rx(0, value=1.0)  # bound, no new slot
        assert circuit.num_parameters == 2
        indices = [
            op.param_index for op in circuit.operations if op.is_trainable
        ]
        assert indices == [0, 1]

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).append("CX", [0])

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).append("H", [2])

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).append("CX", [1, 1])

    def test_rejects_parameter_on_fixed_gate(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).append("H", [0], value=0.5)

    def test_rejects_bound_and_trainable(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).append("RX", [0], value=0.5, trainable=True)

    def test_rejects_nontrainable_without_value(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).append("RX", [0], trainable=False)

    def test_rejects_zero_qubit_circuit(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)


class TestOperation:
    def test_parameter_resolution_trainable(self):
        circuit = QuantumCircuit(1).rx(0)
        op = circuit.operations[0]
        assert op.parameter(np.array([0.7])) == pytest.approx(0.7)

    def test_parameter_resolution_bound(self):
        circuit = QuantumCircuit(1).rx(0, value=0.4)
        op = circuit.operations[0]
        assert op.parameter(None) == pytest.approx(0.4)

    def test_trainable_without_params_raises(self):
        circuit = QuantumCircuit(1).rx(0)
        with pytest.raises(ValueError):
            circuit.operations[0].parameter(None)

    def test_fixed_gate_parameter_is_none(self):
        circuit = QuantumCircuit(1).h(0)
        assert circuit.operations[0].parameter(None) is None

    def test_matrix_resolution(self):
        circuit = QuantumCircuit(1).ry(0)
        op = circuit.operations[0]
        expected = get_gate("RY").matrix(1.2)
        assert np.allclose(op.matrix(np.array([1.2])), expected)


class TestTransformations:
    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2).h(0)
        clone = circuit.copy()
        clone.x(1)
        assert circuit.num_operations == 1
        assert clone.num_operations == 2

    def test_bind_freezes_parameters(self):
        circuit = QuantumCircuit(2).rx(0).ry(1)
        bound = circuit.bind([0.1, 0.2])
        assert bound.num_parameters == 0
        assert bound.operations[0].value == pytest.approx(0.1)
        assert bound.operations[1].value == pytest.approx(0.2)

    def test_bind_wrong_length(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).rx(0).bind([0.1, 0.2])

    def test_inverse_undoes_circuit(self, simulator):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).t(2).rx(1, value=0.7).cz(1, 2).s(0)
        inverse = circuit.inverse()
        roundtrip = circuit.compose(inverse)
        state = simulator.run(roundtrip)
        assert state.probability_of("000") == pytest.approx(1.0)

    def test_inverse_with_params(self, simulator):
        circuit = QuantumCircuit(2).rx(0).ry(1).cz(0, 1)
        params = np.array([0.5, -1.1])
        inverse = circuit.inverse(params)
        state = simulator.run(circuit.bind(params).compose(inverse))
        assert state.probability_of("00") == pytest.approx(1.0)

    def test_inverse_of_trainable_requires_params(self):
        with pytest.raises(ValueError):
            QuantumCircuit(1).rx(0).inverse()

    def test_compose_renumbers_parameters(self):
        a = QuantumCircuit(2).rx(0).ry(1)
        b = QuantumCircuit(2).rz(0)
        combined = a.compose(b)
        assert combined.num_parameters == 3
        assert combined.operations[-1].param_index == 2

    def test_compose_qubit_mismatch(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).compose(QuantumCircuit(3))


class TestInspection:
    def test_gate_counts(self):
        circuit = QuantumCircuit(3).h(0).h(1).cx(0, 1).cz(1, 2)
        assert circuit.gate_counts() == {"H": 2, "CX": 1, "CZ": 1}

    def test_depth_parallel_gates(self):
        circuit = QuantumCircuit(3).h(0).h(1).h(2)
        assert circuit.depth() == 1

    def test_depth_serial_dependency(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).h(1)
        assert circuit.depth() == 3

    def test_depth_empty(self):
        assert QuantumCircuit(2).depth() == 0

    def test_trainable_operations(self):
        circuit = QuantumCircuit(2).h(0).rx(0).cz(0, 1).ry(1)
        trainables = circuit.trainable_operations()
        assert [pos for pos, _ in trainables] == [1, 3]

    def test_parameter_map(self):
        circuit = QuantumCircuit(2).rx(0).h(1).ry(0)
        assert circuit.parameter_map() == {0: 0, 1: 2}

    def test_draw_trainable_and_bound(self):
        circuit = QuantumCircuit(2).h(0).rx(1).ry(0, value=0.5)
        text = circuit.draw()
        assert "q0:" in text and "q1:" in text
        assert "RX(t0)" in text
        assert "RY(+0.50)" in text

    def test_draw_with_params(self):
        circuit = QuantumCircuit(1).rx(0)
        text = circuit.draw(params=np.array([1.0]))
        assert "RX(+1.00)" in text


class TestExecutionPlan:
    def test_plan_cached_until_append(self):
        circuit = QuantumCircuit(2).rx(0).cz(0, 1)
        plan = circuit.execution_plan()
        assert circuit.execution_plan() is plan
        assert plan.num_circuits == 1
        assert plan.circuit(0).operations == circuit.operations
        circuit.ry(1)
        rebuilt = circuit.execution_plan()
        assert rebuilt is not plan
        assert rebuilt.num_parameters == 2
        assert len(rebuilt.template.operations) == 3

    def test_in_place_edit_drops_the_plan(self):
        circuit = QuantumCircuit(2).rx(0).cz(0, 1)
        plan = circuit.execution_plan()
        static = circuit.static_matrices()
        circuit.operations[1] = Operation(get_gate("CX"), (0, 1))
        assert circuit.execution_plan() is not plan
        assert circuit.static_matrices() is not static
        params = np.array([0.4])
        assert np.array_equal(
            StatevectorSimulator().run(circuit, params).data,
            StatevectorSimulator().run(circuit.copy(), params).data,
        )


class TestPaperConfiguration:
    def test_paper_gate_and_parameter_counts(self):
        """10 qubits x 5 layers of (RX, RY) + CZ chain = 145 gates, 100 params."""
        circuit = QuantumCircuit(10)
        for _ in range(5):
            for q in range(10):
                circuit.rx(q)
                circuit.ry(q)
            for q in range(9):
                circuit.cz(q, q + 1)
        assert circuit.num_operations == 145
        assert circuit.num_parameters == 100
