"""Fused rotation groups: up to three trailing single-qubit slots per GEMM.

The statevector chunk loop compiles each run of consecutive single-qubit
trainable slots into one step: one operand table per chunk (one
``matrix_batch`` call per gate kind), then one ``apply_matrix`` call per
group of up to ``_FUSE_MAX`` slots whose qubits hold the chunk's trailing
axes.  A group's operand is a ``(B, k, 2, 2)`` factor stack, which the
kernel expands to each row's Kronecker product.  These tests pin which
groups form, that a factor stack is its ``np.kron`` operand bit for bit,
and the call counts per chunk.
"""

import importlib.util
from functools import reduce

import numpy as np
import pytest

import oracles
from repro.ansatz.hea import HardwareEfficientAnsatz
from repro.ansatz.random_pqc import RandomPQC
from repro.backend import simulator as simulator_module
from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import ParametricGate
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.backend.statevector import apply_matrix
from repro.utils.array_api import (
    DEVICE_ATOL,
    DEVICE_RTOL,
    ArrayBackend,
    get_array_backend,
)


def _group_sizes(plan):
    """Sizes of the fused groups of each slot step of ``plan``'s whole
    program."""
    steps = StatevectorSimulator._program(plan, 0, len(plan.template.operations))[0]
    return [
        [hi - lo for lo, hi, _, _ in payload[2]]
        for kind, _, _, payload in steps
        if kind == "slot"
    ]


def _random_unitaries(rng, shape):
    raw = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    q, r = np.linalg.qr(raw)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def test_random_pqc_layer_groups_three_three_three_one():
    plan = RandomPQC(10, 3, seed=4).build().execution_plan()
    assert _group_sizes(plan) == [[3, 3, 3, 1]] * 3


def test_a_cut_inside_a_group_splits_it():
    plan = RandomPQC(4, 1, seed=4).build().execution_plan()
    steps = StatevectorSimulator._program(plan, 0, 1)[0]
    assert [[hi - lo for lo, hi, _, _ in steps[0][3][2]]] == [[1]]
    steps = StatevectorSimulator._program(plan, 1, len(plan.template.operations))[0]
    assert [hi - lo for lo, hi, _, _ in steps[0][3][2]] == [3]


def test_hea_layer_compiles_to_singletons_and_keeps_its_bits():
    circuit = HardwareEfficientAnsatz(10, 2).build()
    plan = circuit.execution_plan()
    sizes = _group_sizes(plan)
    assert sizes and all(size == 1 for run in sizes for size in run)
    assert not oracles.fuses(plan)
    params = np.random.default_rng(3).uniform(-np.pi, np.pi, circuit.num_parameters)
    assert np.array_equal(
        StatevectorSimulator().run(circuit, params).data,
        oracles.run(circuit, params).data,
    )


def _backends():
    params = [pytest.param(name, id=name) for name in ("numpy", "loopback")]
    for name in ("torch", "cupy"):
        marks = []
        if importlib.util.find_spec(name) is None:
            marks.append(
                pytest.mark.skip(reason=f"optional namespace {name!r} not installed")
            )
        params.append(pytest.param(name, id=name, marks=marks))
    return params


@pytest.mark.parametrize("backend_name", _backends())
@pytest.mark.parametrize(
    "qubits, axes",
    [
        ((2, 1, 0), (5, 4, 3, 2, 1, 0)),  # trailing: the fused layout
        ((4, 1), None),
        ((0, 3, 5), None),
        ((0,), (1, 0, 2, 3, 4, 5)),
    ],
)
def test_factor_stack_equals_its_kron_operand(backend_name, qubits, axes):
    backend = get_array_backend(backend_name)
    rng = np.random.default_rng(len(qubits))
    rows, num_qubits = 5, 6
    factors = _random_unitaries(rng, (rows, len(qubits)))
    kron = np.stack([reduce(np.kron, row) for row in factors])
    raw = rng.normal(size=(rows, 2**num_qubits)) + 1j * rng.normal(
        size=(rows, 2**num_qubits)
    )
    states = backend.asarray(raw, dtype=backend.complex_dtype)
    fused = apply_matrix(states, factors, qubits, num_qubits, backend=backend, axes=axes)
    out = backend.zeros((rows, 2**num_qubits), backend.complex_dtype)
    apply_matrix(states, kron, qubits, num_qubits, backend=backend, out=out, axes=axes)
    fused, out = backend.to_numpy(fused), backend.to_numpy(out)
    if backend_name in ("numpy", "loopback"):
        assert np.array_equal(fused, out)
    else:
        np.testing.assert_allclose(fused, out, rtol=DEVICE_RTOL, atol=DEVICE_ATOL)


def test_factor_stack_shape_is_checked():
    states = np.zeros((2, 8), dtype=complex)
    with pytest.raises(ValueError, match="factor stack"):
        apply_matrix(states, np.zeros((2, 2, 2, 2), dtype=complex), (0, 1, 2), 3)


def test_run_operands_are_the_slot_operands():
    """One table for a run of slots holds each row's own gate at its
    angle, as that gate's batched call gives it."""
    circuits = [RandomPQC(4, 2, seed=s).build() for s in range(5)]
    plan = MegaBatchPlan(circuits)
    rows = np.array([0, 3, 1, 4, 2, 2, 0])
    positions = tuple(
        pos for pos, op in enumerate(plan.template.operations) if op.is_trainable
    )[:4][::-1]
    thetas = np.random.default_rng(8).normal(size=(rows.size, len(positions)))
    for derivative in (False, True):
        table = plan.slot_operands(positions, rows, thetas, derivative=derivative)
        assert table.shape == (rows.size, len(positions), 2, 2)
        for column, pos in enumerate(positions):
            for i, row in enumerate(rows):
                gate = circuits[row].operations[pos].gate
                own = gate.derivative_batch if derivative else gate.matrix_batch
                assert np.array_equal(table[i, column], own(thetas[i, column])[0])


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_diagonal_slots_stay_dense(monkeypatch):
    """Slots mixing dense and diagonal gates, on one and two qubits, take
    only ``apply_matrix`` calls: no diagonal kernel and no row gather."""
    pool, pairs = ("RX", "RZ", "PHASE"), ("RZZ", "CRX", "CRZ")
    circuits = []
    for c in range(3):
        circuit = QuantumCircuit(3)
        for layer in range(2):
            for q in range(3):
                circuit.append(pool[(c + layer + q) % 3], [q])
            circuit.append(pairs[(c + layer) % 3], [0, 2])
        circuits.append(circuit)
    plan = MegaBatchPlan(circuits)
    # The second layer starts off the trailing axis: a singleton, then a
    # fused pair.
    assert _group_sizes(plan) == [[3], [1], [1, 2], [1]]
    rows = [0, 1, 2, 2, 1, 0, 1]
    params = np.random.default_rng(5).normal(size=(len(rows), plan.num_parameters))
    simulator = StatevectorSimulator()
    monkeypatch.setattr(simulator.backend, "chunk_bytes", 16 * 2**3 * 3)
    calls = {}
    for name in ("apply_matrix", "apply_diagonal"):
        _counting(monkeypatch, simulator_module, name, calls)
    for name in ("take_rows", "put_rows"):
        _counting(monkeypatch, ArrayBackend, name, calls)
    simulator.run_megabatch(plan, params, rows)
    assert calls == {"apply_matrix": 3 * 5}  # three chunks of five groups


def test_calls_per_chunk(monkeypatch):
    """Per chunk and layer: one ``apply_matrix`` per group, one
    ``matrix_batch`` per gate kind, one fused CZ diagonal; no gathers."""
    num_qubits, layers, chunks = 4, 3, 3
    pool = ("RX", "RY", "RZ")
    # Every layer of every circuit draws all three gates.
    circuits = [
        RandomPQC(
            num_qubits,
            layers,
            structure=[
                [pool[(c + layer + q) % 3] for q in range(num_qubits)]
                for layer in range(layers)
            ],
        ).build()
        for c in range(3)
    ]
    plan = MegaBatchPlan(circuits)
    assert _group_sizes(plan) == [[3, 1]] * layers
    rows = [0, 1, 2, 2, 1, 0, 1]
    params = np.random.default_rng(5).normal(size=(len(rows), plan.num_parameters))
    simulator = StatevectorSimulator()
    monkeypatch.setattr(simulator.backend, "chunk_bytes", 16 * 2**num_qubits * 3)
    calls = {}
    for name in ("apply_matrix", "apply_diagonal"):
        _counting(monkeypatch, simulator_module, name, calls)
    for name in ("take_rows", "put_rows"):
        _counting(monkeypatch, ArrayBackend, name, calls)
    _counting(monkeypatch, ParametricGate, "matrix_batch", calls)
    states = simulator.run_megabatch(plan, params, rows)
    assert calls == {
        "apply_matrix": chunks * layers * 2,
        "matrix_batch": chunks * layers * 3,
        "apply_diagonal": chunks * layers,
    }
    monkeypatch.undo()
    reference = StatevectorSimulator()
    for b, c in enumerate(rows):
        own = reference.run_batch(plan.circuit(c), params[b : b + 1])[0]
        assert np.array_equal(states[b], own), b
        np.testing.assert_allclose(
            own, oracles.run(plan.circuit(c), params[b]).data,
            rtol=0, atol=oracles.FUSED_ATOL,
        )
