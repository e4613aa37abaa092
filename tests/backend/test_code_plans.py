"""Shape buckets compiled from gate codes.

``MegaBatchPlan(template=..., gates=..., codes=...)`` builds a bucket's
slot tables from a skeleton and a table of drawn gate codes, with no
circuit per structure; ``MegaBatchPlan(circuits)`` reads the same table
off built circuits.  These tests hold the two ways in to the same tables
and steps, a code-built plan's rows to their own circuits' ``run_batch``
rows, and ``megabatch_parameter_shift`` on a plan to the checks and
messages of its circuit path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ansatz.random_pqc import RandomPQC
from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import ParametricGate, get_gate
from repro.backend.gradients import megabatch_parameter_shift
from repro.backend.observables import zero_projector
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator

_ROTATIONS = ("RX", "RY", "RZ")


def _code_plan(pqcs):
    return MegaBatchPlan(
        template=pqcs[0].skeleton(),
        gates=[get_gate(name) for name in pqcs[0].gate_pool],
        codes=[pqc.codes for pqc in pqcs],
    )


@st.composite
def _draws(draw):
    """Same-configuration ``RandomPQC``s, seeded or given a structure."""
    width = draw(st.integers(1, 6))
    layers = draw(st.integers(1, 4))
    pool = tuple(draw(st.lists(st.sampled_from(_ROTATIONS), min_size=1, max_size=3)))
    config = dict(
        num_qubits=width,
        num_layers=layers,
        gate_pool=pool,
        entanglement=draw(st.sampled_from(["chain", "ring", "full", "none"])),
        entangler=draw(st.sampled_from(["CZ", "CNOT"])),
    )
    pqcs = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            row = st.lists(st.sampled_from(pool), min_size=width, max_size=width)
            structure = draw(st.lists(row, min_size=layers, max_size=layers))
            pqcs.append(RandomPQC(structure=structure, **config))
        else:
            pqcs.append(RandomPQC(seed=draw(st.integers(0, 2**31 - 1)), **config))
    return pqcs


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(_draws())
def test_code_plan_equals_circuit_plan(pqcs):
    circuits = [pqc.build() for pqc in pqcs]
    want = MegaBatchPlan(circuits)
    got = _code_plan(pqcs)
    assert got.num_circuits == want.num_circuits == len(pqcs)
    assert got.num_parameters == want.num_parameters
    assert list(got.slot_gates) == list(want.slot_gates)
    for pos, (gates, codes) in want.slot_gates.items():
        got_gates, got_codes = got.slot_gates[pos]
        assert got_gates == gates
        assert np.array_equal(got_codes, codes)
    assert [step[:3] for step in got.steps] == [step[:3] for step in want.steps]
    for (kind, _, _, payload), (_, _, _, expected) in zip(got.steps, want.steps):
        if kind == "fused_diag":
            assert np.array_equal(payload, expected)
        elif kind == "slot":
            assert (payload.qubits, payload.param_index) == (
                expected.qubits,
                expected.param_index,
            )
        else:
            assert payload == expected
    for index, circuit in enumerate(circuits):
        assert got.circuit(index).operations == circuit.operations


@_SETTINGS
@given(_draws(), st.integers(0, 2**31 - 1))
def test_code_plan_rows_equal_their_circuits(pqcs, seed):
    plan = _code_plan(pqcs)
    rng = np.random.default_rng(seed)
    rows = rng.integers(len(pqcs), size=2 * len(pqcs) + 1)
    params = rng.uniform(-np.pi, np.pi, (rows.size, plan.num_parameters))
    simulator = StatevectorSimulator()
    states = simulator.run_megabatch(plan, params, rows)
    for b, index in enumerate(rows):
        row = simulator.run_batch(pqcs[index].build(), params[b : b + 1])[0]
        assert np.array_equal(states[b], row), b


class TestCodeTable:
    def test_repeated_pool_name_is_one_gate(self):
        pqcs = [
            RandomPQC(2, 2, gate_pool=("RX", "RX", "RZ"), structure=s)
            for s in ([["RX", "RX"], ["RZ", "RX"]], [["RZ", "RX"], ["RX", "RX"]])
        ]
        plan = MegaBatchPlan(
            template=pqcs[0].skeleton(),
            gates=[get_gate(name) for name in ("RX", "RX", "RZ")],
            codes=[[[1, 0], [2, 1]], [[2, 0], [1, 1]]],
        )
        gates, codes = plan.slot_gates[0]
        assert [gate.name for gate in gates] == ["RX", "RZ"]
        assert codes.tolist() == [0, 1]
        for index, pqc in enumerate(pqcs):
            assert plan.circuit(index).operations == pqc.build().operations

    def test_rejects_bad_tables(self):
        template = RandomPQC(2, 1, seed=0).skeleton()
        gates = [get_gate("RX"), get_gate("RY")]
        with pytest.raises(ValueError, match="at least one circuit"):
            MegaBatchPlan(template=template, gates=gates, codes=[])
        with pytest.raises(ValueError, match="trainable operations"):
            MegaBatchPlan(template=template, gates=gates, codes=[[0, 1, 1]])
        with pytest.raises(ValueError, match="index the 2 given gates"):
            MegaBatchPlan(template=template, gates=gates, codes=[[0, 2]])
        with pytest.raises(ValueError, match="index the 2 given gates"):
            MegaBatchPlan(template=template, gates=gates, codes=[[-1, 0]])
        with pytest.raises(ValueError, match="parametric on its slot"):
            MegaBatchPlan(template=template, gates=[get_gate("RXX")], codes=[[0, 0]])
        with pytest.raises(ValueError, match="parametric on its slot"):
            MegaBatchPlan(template=template, gates=[get_gate("H")], codes=[[0, 0]])
        with pytest.raises(ValueError, match="not both"):
            MegaBatchPlan([template], template=template, gates=gates, codes=[[0, 1]])


class TestShiftOnPlans:
    """A plan in place of a circuit list: same checks, same messages."""

    def _bucket(self):
        pqcs = [RandomPQC(3, 2, seed=s) for s in range(3)]
        return pqcs, [pqc.build() for pqc in pqcs], _code_plan(pqcs)

    @staticmethod
    def _message(engine_input, observable, batches):
        with pytest.raises(ValueError) as info:
            megabatch_parameter_shift(
                engine_input, observable, batches, param_indices=[0]
            )
        return str(info.value)

    def test_rejects_wrong_parameter_width(self):
        _, circuits, plan = self._bucket()
        observable = zero_projector(3)
        wide = [np.zeros((2, plan.num_parameters + 1))] * 3
        message = self._message(plan, observable, wide)
        assert "parameter stack must be" in message
        assert message == self._message(circuits, observable, wide)
        short = [np.zeros((2, plan.num_parameters))] * 2
        message = self._message(plan, observable, short)
        assert "parameter stacks for 3 circuits" in message
        assert message == self._message(circuits, observable, short)

    def test_rejects_gate_without_shift_rule(self):
        rx = get_gate("RX")
        norule = ParametricGate(
            "NORULE", 1, rx.matrix, lambda theta: rx.matrix(theta + np.pi / 2) / 2
        )
        circuits = [
            QuantumCircuit(1).rx(0).ry(0).with_slot_gates(gates)
            for gates in ([rx, rx], [rx, norule])
        ]
        plan = MegaBatchPlan(
            template=circuits[0], gates=[rx, norule], codes=[[0, 0], [0, 1]]
        )
        batches = [np.zeros((1, 2))] * 2
        observable = zero_projector(1)
        for engine_input in (plan, circuits):
            megabatch_parameter_shift(engine_input, observable, batches, param_indices=[0])
            with pytest.raises(ValueError) as info:
                megabatch_parameter_shift(
                    engine_input, observable, batches, param_indices=[1]
                )
            assert str(info.value) == (
                "gate NORULE has no exact parameter-shift rule; "
                "use the adjoint or finite-difference engine"
            )

    def test_plan_blocks_equal_circuit_blocks(self):
        _, circuits, plan = self._bucket()
        batches = [
            np.random.default_rng(s).uniform(-1, 1, (4, plan.num_parameters))
            for s in range(3)
        ]
        observable = zero_projector(3)
        for got, want in zip(
            megabatch_parameter_shift(plan, observable, batches, shots=16, seed=7),
            megabatch_parameter_shift(circuits, observable, batches, shots=16, seed=7),
        ):
            assert np.array_equal(got, want)
