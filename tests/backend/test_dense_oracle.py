"""Every execution path and gradient engine against an independent dense
reference that never calls a repro kernel.

Each gate becomes its full ``2**n x 2**n`` matrix — ``np.kron`` with the
identity on the other qubits, conjugated by the basis permutation that
moves the gate's targets to the front — and the circuit unitary is their
product.  Gradients are ``2 Re <psi| O dU |0>``, where ``dU`` is the
circuit unitary with the differentiated gate replaced by its derivative.
Circuits are hypothesis-generated: up to 5 qubits, fixed, trainable and
bound gates of one to three qubits, on non-adjacent and reversed targets.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import FIXED_GATES, PARAMETRIC_GATES, ParametricGate
from repro.backend.gradients import (
    adjoint_gradient,
    batch_adjoint_gradient,
    batch_parameter_shift,
    megabatch_adjoint_gradient,
    megabatch_parameter_shift,
    parameter_shift,
)
from repro.backend.observables import PauliString, Projector
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator

ATOL = 1e-12
MAX_QUBITS = 5

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_GATES = {**FIXED_GATES, **PARAMETRIC_GATES}


def _embed(matrix, qubits, num_qubits):
    """Full-register matrix of a gate on ``qubits`` (qubit 0 = MSB)."""
    k = len(qubits)
    order = list(qubits) + [q for q in range(num_qubits) if q not in qubits]
    dim = 2**num_qubits
    # perm[i] is the index of basis state i once its bits are reordered
    # so the gate's targets come first.
    perm = np.empty(dim, dtype=int)
    for index in range(dim):
        bits = [(index >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        moved = 0
        for q in order:
            moved = (moved << 1) | bits[q]
        perm[index] = moved
    to_front = np.zeros((dim, dim))
    to_front[perm, np.arange(dim)] = 1.0
    return to_front.T @ np.kron(matrix, np.eye(2 ** (num_qubits - k))) @ to_front


def _gate_matrices(circuit, params):
    return [
        _embed(op.matrix(params), op.qubits, circuit.num_qubits)
        for op in circuit.operations
    ]


def _product(matrices, dim):
    out = np.eye(dim, dtype=complex)
    for matrix in matrices:
        out = matrix @ out
    return out


def _dense_observable(observable, num_qubits):
    if isinstance(observable, Projector):
        out = np.zeros((2**num_qubits,) * 2, dtype=complex)
        out[observable.index, observable.index] = 1.0
        return out
    out = np.eye(1, dtype=complex)
    for q in range(num_qubits):
        out = np.kron(out, _PAULI[observable.paulis.get(q, "I")])
    return observable.coefficient * out


def _dense_state(circuit, params):
    dim = 2**circuit.num_qubits
    return _product(_gate_matrices(circuit, params), dim)[:, 0]


def _dense_gradient(circuit, observable_matrix, params):
    dim = 2**circuit.num_qubits
    matrices = _gate_matrices(circuit, params)
    psi = _product(matrices, dim)[:, 0]
    grads = np.empty(circuit.num_parameters)
    for pos, op in enumerate(circuit.operations):
        if not op.is_trainable:
            continue
        derivative = op.gate.derivative(float(params[op.param_index]))
        swapped = list(matrices)
        swapped[pos] = _embed(derivative, op.qubits, circuit.num_qubits)
        d_psi = _product(swapped, dim)[:, 0]
        grads[op.param_index] = 2.0 * np.real(
            np.vdot(psi, observable_matrix @ d_psi)
        )
    return grads


@st.composite
def _circuit_pairs(draw):
    """A circuit, a same-shape sibling with other trainable gates, and
    parameter rows for both."""
    num_qubits = draw(st.integers(1, MAX_QUBITS))
    names = sorted(
        name for name, gate in _GATES.items() if gate.num_qubits <= num_qubits
    )
    ops = []
    for _ in range(draw(st.integers(1, 9))):
        name = draw(st.sampled_from(names))
        gate = _GATES[name]
        qubits = tuple(draw(st.permutations(range(num_qubits)))[: gate.num_qubits])
        value = None
        if isinstance(gate, ParametricGate) and draw(st.booleans()):
            value = draw(st.floats(-np.pi, np.pi))
        sibling = name
        if isinstance(gate, ParametricGate) and value is None:
            sibling = draw(
                st.sampled_from(
                    sorted(
                        other
                        for other, candidate in PARAMETRIC_GATES.items()
                        if candidate.num_qubits == gate.num_qubits
                    )
                )
            )
        ops.append((name, sibling, qubits, value))
    circuit, twin = QuantumCircuit(num_qubits), QuantumCircuit(num_qubits)
    for name, sibling, qubits, value in ops:
        circuit.append(name, qubits, value=value)
        twin.append(sibling, qubits, value=value)
    angles = st.floats(-np.pi, np.pi)
    rows = [
        np.array(
            draw(st.lists(angles, min_size=circuit.num_parameters,
                          max_size=circuit.num_parameters)),
            dtype=float,
        )
        for _ in range(3)
    ]
    observable = draw(
        st.sampled_from(
            [
                Projector("0" * num_qubits),
                PauliString(num_qubits, {num_qubits - 1: "Y", 0: "X"}, -0.7),
                PauliString(num_qubits, {q: "Z" for q in range(num_qubits)}),
            ]
        )
    )
    return circuit, twin, np.stack(rows), observable


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(_circuit_pairs())
def test_executions_match_the_dense_unitary(case):
    circuit, twin, rows, _ = case
    simulator = StatevectorSimulator()
    expected = [_dense_state(circuit, row) for row in rows]
    assert np.allclose(simulator.run(circuit, rows[0]).data, expected[0], atol=ATOL)
    batch = simulator.run_batch(circuit, rows)
    for b, state in enumerate(expected):
        assert np.allclose(batch[b], state, atol=ATOL)
    assert np.allclose(
        simulator.unitary(circuit, rows[0]),
        _product(_gate_matrices(circuit, rows[0]), 2**circuit.num_qubits),
        atol=ATOL,
    )
    # Rows 0 and 2 run the circuit, row 1 its same-shape twin.
    plan = MegaBatchPlan([circuit, twin])
    mega = simulator.run_megabatch(plan, rows, [0, 1, 0])
    assert np.allclose(mega[0], expected[0], atol=ATOL)
    assert np.allclose(mega[1], _dense_state(twin, rows[1]), atol=ATOL)
    assert np.allclose(mega[2], expected[2], atol=ATOL)


@_SETTINGS
@given(_circuit_pairs())
def test_every_gradient_engine_matches_the_dense_derivative(case):
    circuit, twin, rows, observable = case
    simulator = StatevectorSimulator()
    matrix = _dense_observable(observable, circuit.num_qubits)
    expected = np.stack([_dense_gradient(circuit, matrix, row) for row in rows])
    twin_expected = np.stack([_dense_gradient(twin, matrix, row) for row in rows])

    for engine in (adjoint_gradient, parameter_shift):
        got = engine(circuit, observable, rows[0], simulator=simulator)
        assert np.allclose(got, expected[0], atol=ATOL), engine.__name__
    for engine in (batch_adjoint_gradient, batch_parameter_shift):
        got = engine(circuit, observable, rows, simulator=simulator)
        assert np.allclose(got, expected, atol=ATOL), engine.__name__
    plan = MegaBatchPlan([circuit, twin])
    for engine in (megabatch_adjoint_gradient, megabatch_parameter_shift):
        got = engine(
            plan, observable, [rows[:2], rows[2:]], simulator=simulator
        )
        assert np.allclose(got[0], expected[:2], atol=ATOL), engine.__name__
        assert np.allclose(got[1], twin_expected[2:], atol=ATOL), engine.__name__
