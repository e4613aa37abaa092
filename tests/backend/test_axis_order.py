"""The numerics the chunk loop's qubit axis orders rest on.

The mega-batch chunk loop keeps each chunk in a permuted qubit axis order
(``axes=`` on :func:`~repro.backend.statevector.apply_matrix` and
:func:`~repro.backend.statevector.apply_diagonal`), so a gate on the
trailing axes multiplies an F-ordered view and a diagonal reads its stack
through a moved-order view.  Byte identity with the canonical kernels then
rests on two properties of the numpy/BLAS build, pinned here on
``.view(np.uint64)``:

* a ZGEMM on the F-ordered (transposed) view of a block equals the ZGEMM
  on its C-ordered copy, bit for bit;
* an elementwise complex multiply read through a transposed view equals
  the one over the canonical layout.

On a BLAS build where either property does not hold these tests fail
loudly, and so would the byte identity of every unfused mega-batched
result with its gate-by-gate oracle (``tests/oracles.py``).  The last
tests run random circuits through ``run_megabatch``, start/stop
resumptions from per-row stacks included, and hold every row to the
oracle: bit for bit where no rotation slots fuse, within
``oracles.FUSED_ATOL`` where they do.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import get_gate
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.backend.statevector import (
    Statevector,
    apply_diagonal,
    apply_matrix,
    moved_axes,
    permute_axes,
)

ROWS = (1, 6, 37, 512)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _stack(rng, rows, num_qubits):
    shape = (rows, 2**num_qubits)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _operands(rng, rows):
    """RX, RY, random per-row and shared random single-qubit operands."""
    angles = rng.normal(size=rows)
    return {
        "RX": get_gate("RX").matrix_batch(angles),
        "RY": get_gate("RY").matrix_batch(angles),
        "random": rng.normal(size=(rows, 2, 2)) + 1j * rng.normal(size=(rows, 2, 2)),
        "shared": rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
    }


@pytest.mark.parametrize("num_qubits", range(2, 13))
def test_trailing_axis_gemm_equals_c_ordered_gemm(num_qubits):
    rng = np.random.default_rng(num_qubits)
    for rows in ROWS:
        states = _stack(rng, rows, num_qubits)
        # (B, 2, rest) with strides (., 16, 32): the trailing qubit's
        # block, F-ordered, as the chunk loop hands it to matmul.
        view = states.reshape(rows, -1, 2).transpose(0, 2, 1)
        copy = np.ascontiguousarray(view)
        for name, operand in _operands(rng, rows).items():
            assert np.array_equal(
                _bits(np.matmul(operand, view)), _bits(np.matmul(operand, copy))
            ), (num_qubits, rows, name)


@pytest.mark.parametrize("num_qubits", range(2, 11))
def test_moved_order_diagonal_equals_apply_diagonal(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    canonical = tuple(range(num_qubits))
    for rows in (1, 37):
        states = _stack(rng, rows, num_qubits)
        diagonals = np.diagonal(
            get_gate("RZ").matrix_batch(rng.normal(size=rows)), axis1=1, axis2=2
        )
        for target in range(num_qubits):
            # An order that holds the target on its trailing axis.
            axes = tuple(q for q in canonical if q != target) + (target,)
            held = permute_axes(states, canonical, axes, num_qubits, np.empty_like(states))
            moved = apply_diagonal(held, diagonals, [target], num_qubits, axes=axes)
            back = permute_axes(
                moved, moved_axes(axes, [target]), canonical, num_qubits,
                np.empty_like(states),
            )
            expected = apply_diagonal(states, diagonals, [target], num_qubits)
            assert np.array_equal(_bits(back), _bits(expected)), (rows, target)


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_every_target_in_every_position(num_qubits):
    """``apply_matrix`` with ``axes``: trailing, leading and transposed
    targets all carry the canonical kernel's bits."""
    rng = np.random.default_rng(200 + num_qubits)
    canonical = tuple(range(num_qubits))
    states = _stack(rng, 6, num_qubits)
    for axes in (canonical, canonical[::-1], tuple(rng.permutation(num_qubits))):
        axes = tuple(int(q) for q in axes)
        held = permute_axes(states, canonical, axes, num_qubits, np.empty_like(states))
        for target in range(num_qubits):
            for operand in _operands(rng, 6).values():
                out = np.empty_like(states)
                apply_matrix(held, operand, [target], num_qubits, out=out, axes=axes)
                back = permute_axes(
                    out, moved_axes(axes, [target]), canonical, num_qubits,
                    np.empty_like(states),
                )
                expected = apply_matrix(states, operand, [target], num_qubits)
                assert np.array_equal(_bits(back), _bits(expected)), (axes, target)


_ONE_QUBIT = ("RX", "RY", "RZ")
_TWO_QUBIT = ("RXX", "RYY", "RZZ")
_FIXED_ONE = ("H", "SX", "Z", "S", "T")
_FIXED_TWO = ("CZ", "CX", "SWAP")


@st.composite
def _buckets(draw):
    """Same-shape circuits (trainable slots drawn per circuit), rows, and
    a split point that no fused diagonal run straddles."""
    num_qubits = draw(st.integers(2, 5))
    qubit = st.integers(0, num_qubits - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    skeleton = []
    # One trainable rotation per qubit first: every target is visited.
    for q in draw(st.permutations(range(num_qubits))):
        skeleton.append(("slot1", (q,)))
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["slot1", "slot2", "fixed1", "fixed2", "bound"]))
        qubits = draw(pair) if kind in ("slot2", "fixed2") else [draw(qubit)]
        skeleton.append((kind, tuple(qubits)))
    fixed = {
        index: draw(st.sampled_from(_FIXED_TWO if kind == "fixed2" else _FIXED_ONE))
        for index, (kind, _) in enumerate(skeleton)
        if kind.startswith("fixed")
    }
    bound = {
        index: draw(st.floats(-3.0, 3.0))
        for index, (kind, _) in enumerate(skeleton)
        if kind == "bound"
    }
    circuits = []
    for _ in range(draw(st.integers(1, 4))):
        circuit = QuantumCircuit(num_qubits)
        for index, (kind, qubits) in enumerate(skeleton):
            if kind == "slot1":
                circuit.append(draw(st.sampled_from(_ONE_QUBIT)), qubits)
            elif kind == "slot2":
                circuit.append(draw(st.sampled_from(_TWO_QUBIT)), qubits)
            elif kind == "bound":
                circuit.append("RZ", qubits, value=bound[index])
            else:
                circuit.append(fixed[index], qubits)
        circuits.append(circuit)
    rows = draw(st.lists(st.integers(0, len(circuits) - 1), min_size=1, max_size=8))
    plan = MegaBatchPlan(circuits)
    inside = {p for _, lo, hi, _ in plan.steps for p in range(lo + 1, hi)}
    splits = [p for p in range(len(skeleton) + 1) if p not in inside]
    split = draw(st.sampled_from(splits))
    seed = draw(st.integers(0, 2**31 - 1))
    return plan, np.asarray(rows), split, seed


def _oracle_rows(plan, params, rows, initial=None, stop=None):
    out = []
    for row, circuit_index in enumerate(rows):
        circuit = plan.circuit(circuit_index)
        if initial is None:
            data = np.zeros(2**circuit.num_qubits, dtype=complex)
            data[0] = 1.0
        else:
            data = initial.data.copy()
        for op in circuit.operations[:stop]:
            data = oracles.apply_operation(data, op, params[row], circuit.num_qubits)
        out.append(data)
    return np.array(out)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_buckets())
def test_run_megabatch_rows_equal_the_oracle(bucket):
    plan, rows, split, seed = bucket
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, size=(rows.size, plan.num_parameters))
    simulator = StatevectorSimulator()
    whole, head = oracles.fuses(plan), oracles.fuses(plan, 0, split)
    tail = oracles.fuses(plan, split)
    expected = _oracle_rows(plan, params, rows)
    oracles.assert_oracle_match(
        simulator.run_megabatch(plan, params, rows), expected, whole
    )
    prefix = simulator.run_megabatch(plan, params, rows, stop=split)
    oracles.assert_oracle_match(
        prefix, _oracle_rows(plan, params, rows, stop=split), head
    )
    resumed = simulator.run_megabatch(plan, params, rows, prefix, start=split)
    oracles.assert_oracle_match(resumed, expected, head or tail)
    shared = Statevector.random_state(plan.num_qubits, seed=seed)
    oracles.assert_oracle_match(
        simulator.run_megabatch(plan, params, rows, shared),
        _oracle_rows(plan, params, rows, initial=shared),
        whole,
    )
