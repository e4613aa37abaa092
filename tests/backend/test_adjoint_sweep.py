"""The adjoint sweep against the gate-by-gate oracle, over random circuits.

The backward sweep undoes the state and adjoint halves of one stacked
``(2B, 2**n)`` pair in one kernel call per step and reads each slot's
derivative off a transition matrix.  Over random circuits of 1-6 qubits
that mix every parametric gate with fixed gates (T, H, CX, CCX, SWAP,
and the exact-unit CZ and S the sweep undoes elementwise) and bound
angles, these tests hold it to ``oracles.adjoint_gradient`` within
``oracles.FUSED_ATOL`` and to the parameter-shift rule within 1e-10,
with ``param_indices`` subsets and repeats, non-default initial states
and two-circuit plans.  Every row equals its one-row call bit for bit
across chunk boundaries, and the loopback backend stays within device
tolerance (torch and cupy too, where installed).  A simulator that does
not evolve unitary statevectors is refused up front.
"""

import importlib.util

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.backend import gradients
from repro.backend.circuit import QuantumCircuit
from repro.backend.density import DensityMatrixSimulator
from repro.backend.gradients import (
    adjoint_gradient,
    adjoint_value_and_gradient,
    batch_adjoint_gradient,
    batch_adjoint_value_and_gradient,
    megabatch_adjoint_gradient,
    parameter_shift,
)
from repro.backend.observables import PauliString, PauliSum, total_z, zero_projector
from repro.backend.ptm import PauliTransferSimulator
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.backend.statevector import Statevector
from repro.utils.array_api import DEVICE_ATOL, DEVICE_RTOL

#: Trainable gates by arity; a two-circuit plan may draw another gate of
#: the same arity at a slot.
_PARAMETRIC = {
    1: ("RX", "RY", "RZ", "PHASE"),
    2: ("RXX", "RYY", "RZZ", "CRX", "CRY", "CRZ"),
}
#: Fixed gates by arity.
_FIXED = {1: ("T", "H", "S"), 2: ("CX", "SWAP", "CZ"), 3: ("CCX",)}


@st.composite
def _cases(draw):
    """One or two same-shape circuits, their parameter rows, the indices
    to differentiate, an initial state, an observable and a chunk size."""
    width = draw(st.integers(1, 6))
    skeleton = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["slot", "slot", "fixed", "bound"]))
        table = _FIXED if kind == "fixed" else _PARAMETRIC
        arity = draw(st.sampled_from([a for a in table if a <= width]))
        qubits = tuple(draw(st.permutations(range(width)))[:arity])
        angle = draw(st.floats(-np.pi, np.pi)) if kind == "bound" else None
        name = draw(st.sampled_from(table[arity]))
        skeleton.append((kind, arity, qubits, name, angle))
    if not any(kind == "slot" for kind, *_ in skeleton):
        skeleton.append(("slot", 1, (0,), "RY", None))
    circuits = []
    for _ in range(draw(st.integers(1, 2))):
        circuit = QuantumCircuit(width)
        for kind, arity, qubits, name, angle in skeleton:
            if kind == "slot":
                name = draw(st.sampled_from(_PARAMETRIC[arity]))
            circuit.append(name, qubits, value=angle)
        circuits.append(circuit)
    counts = [draw(st.integers(1, 4)) for _ in circuits]
    num_parameters = circuits[0].num_parameters
    indices = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, num_parameters - 1), min_size=1, max_size=6),
        )
    )
    observable = draw(st.sampled_from(["total_z", "zero_projector", "pauli_sum"]))
    return {
        "circuits": circuits,
        "counts": counts,
        "indices": indices,
        "initial": draw(st.booleans()),
        "observable": observable,
        "chunk_rows": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


def _observable(name, width):
    if name == "total_z":
        return total_z(width)
    if name == "zero_projector":
        return zero_projector(width)
    return PauliSum(
        [
            PauliString(width, {0: "X", width - 1: "Y"}, 0.75),
            PauliString(width, {}, -0.25),
            PauliString(width, {width - 1: "Z"}, -1.5),
        ]
    )


def _inputs(case):
    width = case["circuits"][0].num_qubits
    rng = np.random.default_rng(case["seed"])
    batches = [
        rng.uniform(-np.pi, np.pi, (count, case["circuits"][0].num_parameters))
        for count in case["counts"]
    ]
    initial = None
    if case["initial"]:
        initial = Statevector.random_state(width, seed=case["seed"])
    return batches, initial, _observable(case["observable"], width)


def _chunked(patch, simulator, width, rows):
    """Sweep ``rows`` parameter rows per numpy chunk."""
    patch.setattr(
        gradients,
        "_ADJOINT_CHUNK_DIVISOR",
        simulator.backend.chunk_bytes // (16 * 2**width * rows),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_gradients_match_the_oracle_and_the_shift_rule(case):
    circuits, indices = case["circuits"], case["indices"]
    plan = MegaBatchPlan(circuits)
    batches, initial, observable = _inputs(case)
    simulator = StatevectorSimulator()
    with pytest.MonkeyPatch.context() as patch:
        _chunked(patch, simulator, plan.num_qubits, case["chunk_rows"])
        blocks = megabatch_adjoint_gradient(
            plan, observable, batches, simulator=simulator,
            param_indices=indices, initial_state=initial,
        )
    for circuit, batch, block in zip(circuits, batches, blocks):
        # The one-circuit call and each one-row call carry the stacked
        # rows' bits, unchunked.
        assert np.array_equal(
            batch_adjoint_gradient(
                circuit, observable, batch, simulator=simulator,
                param_indices=indices, initial_state=initial,
            ),
            block,
        )
        for params, grad in zip(batch, block):
            assert np.array_equal(
                adjoint_gradient(
                    circuit, observable, params, simulator=simulator,
                    param_indices=indices, initial_state=initial,
                ),
                grad,
            )
            oracles.assert_oracle_match(
                grad,
                oracles.adjoint_gradient(
                    circuit, observable, params,
                    param_indices=indices, initial_state=initial,
                ),
                fused=True,
            )
            np.testing.assert_allclose(
                grad,
                parameter_shift(
                    circuit, observable, params, simulator=simulator,
                    param_indices=indices, initial_state=initial,
                ),
                rtol=0,
                atol=1e-10,
            )


def _device_backends():
    params = [pytest.param("loopback", id="loopback")]
    for name in ("torch", "cupy"):
        marks = []
        if importlib.util.find_spec(name) is None:
            marks.append(
                pytest.mark.skip(reason=f"optional namespace {name!r} not installed")
            )
        params.append(pytest.param(name, id=name, marks=marks))
    return params


@pytest.mark.parametrize("backend_name", _device_backends())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_device_backends_are_within_device_tolerance(backend_name, case):
    circuits, indices = case["circuits"], case["indices"]
    plan = MegaBatchPlan(circuits)
    batches, initial, observable = _inputs(case)
    blocks = [
        megabatch_adjoint_gradient(
            plan, observable, batches, simulator=StatevectorSimulator(backend),
            param_indices=indices, initial_state=initial,
        )
        for backend in ("numpy", backend_name)
    ]
    for host, device in zip(*blocks):
        np.testing.assert_allclose(device, host, rtol=DEVICE_RTOL, atol=DEVICE_ATOL)


def test_values_and_rows_across_chunk_boundaries():
    circuit = QuantumCircuit(4).h(0).rx(0).cx(0, 2).append("CRY", (2, 3))
    circuit.append("RZZ", (3, 1)).t(1).append("PHASE", (1,)).cz(0, 3).ry(2)
    observable = total_z(4)
    params = np.random.default_rng(3).uniform(
        -np.pi, np.pi, (7, circuit.num_parameters)
    )
    simulator = StatevectorSimulator()
    values, grads = batch_adjoint_value_and_gradient(
        circuit, observable, params, simulator=simulator
    )
    with pytest.MonkeyPatch.context() as patch:
        _chunked(patch, simulator, 4, 3)
        chunked = batch_adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
    assert np.array_equal(chunked[0], values)
    assert np.array_equal(chunked[1], grads)
    for b, row in enumerate(params):
        value, grad = adjoint_value_and_gradient(
            circuit, observable, row, simulator=simulator
        )
        assert value == values[b]
        assert np.array_equal(grad, grads[b])


def test_program_is_compiled_once_per_plan():
    circuit = QuantumCircuit(3).rx(0).ry(1).cz(0, 1).s(2).t(0).h(1).crx(2, 0)
    plan = circuit.execution_plan()
    params = np.linspace(-1.0, 1.0, circuit.num_parameters)
    first = adjoint_gradient(circuit, total_z(3), params)
    program = plan.programs["adjoint"]
    assert np.array_equal(adjoint_gradient(circuit, total_z(3), params), first)
    assert plan.programs["adjoint"] is program
    # One step per slot run (RX and RY on different qubits are one run),
    # fused unit diagonal (CZ then S), T, H and CRX, last first; no step
    # holds a kernel, which is looked up by name when the step runs.
    assert [kind for kind, _ in program] == [
        "slot", "matrix", "diagonal", "diagonal", "slot"
    ]
    assert not any(
        callable(part) for _, payload in program for part in payload
    )


@pytest.mark.parametrize(
    "simulator",
    [
        pytest.param(PauliTransferSimulator(), id="pauli_transfer"),
        pytest.param(DensityMatrixSimulator(), id="density_matrix"),
    ],
)
def test_non_statevector_simulators_are_refused(simulator):
    circuit = QuantumCircuit(2).rx(0).cz(0, 1).ry(1)
    params = np.array([0.3, -0.7])
    message = "adjoint differentiation needs a unitary statevector simulator"
    calls = [
        lambda: adjoint_gradient(circuit, total_z(2), params, simulator=simulator),
        lambda: adjoint_value_and_gradient(
            circuit, total_z(2), params, simulator=simulator
        ),
        lambda: batch_adjoint_gradient(
            circuit, total_z(2), params[None], simulator=simulator
        ),
        lambda: megabatch_adjoint_gradient(
            [circuit], total_z(2), [params[None]], simulator=simulator
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
