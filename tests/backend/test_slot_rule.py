"""One kernel per trainable slot.

Every row of a trainable slot is multiplied by its own gate's matrix from
one per-row operand table, in one ``apply_matrix`` call, whatever gates
the slot's rows drew — diagonal ones (RZ, RZZ, CRZ, PHASE) included.  So
a row's bits never depend on its neighbours' gates: these tests hold
``run_megabatch`` rows over mixed and all-diagonal slots to each
circuit's own ``run_batch`` row and to the gate-by-gate oracle, bit for
bit, across chunk boundaries; and they count the calls, so no slot goes
back to a diagonal kernel or a row gather.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.backend import simulator as simulator_module
from repro.backend.circuit import QuantumCircuit
from repro.backend.gradients import megabatch_adjoint_gradient
from repro.backend.observables import total_z
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.utils.array_api import ArrayBackend

#: Slot pools by arity: mixed, and diagonal only.
_POOLS = {
    1: [("RX", "RY", "RZ"), ("RZ",), ("PHASE",), ("RZ", "PHASE"), ("RY", "PHASE")],
    2: [("RZZ",), ("CRZ",), ("RZZ", "CRZ"), ("RXX", "RZZ", "CRX", "CRZ")],
}


@st.composite
def _buckets(draw):
    """Same-shape circuits whose slots draw from mixed or diagonal pools,
    with fixed CZ, H and bound-RZ operations between them."""
    width = draw(st.integers(2, 5))
    skeleton = []
    for _ in range(draw(st.integers(1, 8))):
        arity = draw(st.sampled_from([1, 2]))
        qubits = tuple(draw(st.permutations(range(width)))[:arity])
        skeleton.append(("slot", qubits, draw(st.sampled_from(_POOLS[arity]))))
        fixed = draw(st.sampled_from(["none", "CZ", "H", "bound"]))
        if fixed != "none":
            skeleton.append((fixed, tuple(draw(st.permutations(range(width)))[:2]), None))
    circuits = []
    for _ in range(draw(st.integers(1, 4))):
        circuit = QuantumCircuit(width)
        for kind, qubits, pool in skeleton:
            if kind == "slot":
                circuit.append(draw(st.sampled_from(pool)), qubits)
            elif kind == "CZ":
                circuit.cz(*qubits)
            elif kind == "H":
                circuit.h(qubits[0])
            else:
                circuit.rz(qubits[0], 0.3)
        circuits.append(circuit)
    rows = draw(st.lists(st.integers(0, len(circuits) - 1), min_size=1, max_size=9))
    chunk_rows = draw(st.integers(1, 4))
    return circuits, rows, chunk_rows, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_buckets())
def test_rows_equal_run_batch_and_oracle(bucket):
    circuits, rows, chunk_rows, seed = bucket
    plan = MegaBatchPlan(circuits)
    params = np.random.default_rng(seed).uniform(
        -np.pi, np.pi, size=(len(rows), plan.num_parameters)
    )
    simulator = StatevectorSimulator()
    with pytest.MonkeyPatch.context() as patch:
        width = 16 * 2**plan.num_qubits
        patch.setattr(simulator.backend, "chunk_bytes", width * chunk_rows)
        states = simulator.run_megabatch(plan, params, rows)
    reference = StatevectorSimulator()
    for b, c in enumerate(rows):
        own = reference.run_batch(circuits[c], params[b : b + 1])[0]
        assert np.array_equal(states[b], own), b
        assert np.array_equal(own, oracles.run(circuits[c], params[b]).data), b


def _diagonal_plan():
    """Three 3-qubit circuits; every slot mixes dense and diagonal gates."""
    pool = ("RX", "RZ", "PHASE")
    circuits = []
    for c in range(3):
        circuit = QuantumCircuit(3)
        for layer in range(2):
            for q in range(3):
                circuit.append(pool[(c + layer + q) % 3], [q])
            circuit.append(("RZZ", "CRX", "CRZ")[(c + layer) % 3], [0, 2])
        circuits.append(circuit)
    return MegaBatchPlan(circuits)


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_each_slot_chunk_is_one_dense_call(monkeypatch):
    plan = _diagonal_plan()
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
    slots = sum(step[0] == "slot" for step in plan.steps)
    assert calls == {"apply_matrix": slots * 3}  # three chunks


def test_adjoint_sweep_gathers_no_rows(monkeypatch):
    plan = _diagonal_plan()
    params = np.random.default_rng(6).normal(size=(3, 2, plan.num_parameters))
    want = [
        oracles.adjoint_gradient(plan.circuit(c), total_z(3), row)
        for c in range(3)
        for row in params[c]
    ]
    calls = {}
    for name in ("take_rows", "put_rows"):
        _counting(monkeypatch, ArrayBackend, name, calls)
    grads = megabatch_adjoint_gradient(plan, total_z(3), list(params))
    assert calls == {}
    assert np.array_equal(np.concatenate(grads), np.array(want))
