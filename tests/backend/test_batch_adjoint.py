"""Batched adjoint differentiation: batch_adjoint / value-and-gradient.

Same guarantee families as the batched-execution suite:

* **bit-identity** — every batched row equals its sequential adjoint
  counterpart exactly (``np.array_equal``, no tolerance), covering
  ``param_indices`` subsets, non-default initial states, the ``B=1``
  edge case and the 1-D convenience form;
* **engine agreement** — the batched adjoint matches the parameter-shift
  and finite-difference engines within their analytic tolerances on
  random PQCs (slow-marked property sweep).

Also covered here: the vectorized ``ParametricGate.derivative_batch``
stacks, the circuit-level static (matrix, adjoint) cache the adjoint
engines lean on, and which kernel undoes each fixed gate.
"""

import importlib.util

import numpy as np
import pytest

import oracles
from repro.ansatz.random_pqc import RandomPQC
from repro.backend import (
    PARAMETRIC_GATES,
    QuantumCircuit,
    Statevector,
    StatevectorSimulator,
    adjoint_gradient,
    adjoint_value_and_gradient,
    batch_adjoint_gradient,
    batch_adjoint_value_and_gradient,
    finite_difference,
    get_gradient_fn,
    parameter_shift,
    total_z,
    zero_projector,
)
from repro.backend import gradients
from repro.backend.gradients import megabatch_adjoint_gradient
from repro.backend.simulator import MegaBatchPlan
from repro.utils.array_api import DEVICE_ATOL, DEVICE_RTOL


def _random_pqc(num_qubits, num_layers, seed):
    return RandomPQC(num_qubits=num_qubits, num_layers=num_layers, seed=seed).build()


class TestDerivativeBatch:
    @pytest.mark.parametrize("name", sorted(PARAMETRIC_GATES))
    def test_matches_scalar_derivative(self, name):
        gate = PARAMETRIC_GATES[name]
        thetas = np.array([0.0, 0.3, -1.9, np.pi, 2.4])
        stack = gate.derivative_batch(thetas)
        assert stack.shape == (thetas.size, gate.dim, gate.dim)
        for b, theta in enumerate(thetas):
            assert np.array_equal(stack[b], gate.derivative(float(theta))), name

    def test_fallback_without_vectorized_fn(self):
        gate = PARAMETRIC_GATES["RX"]
        from repro.backend.gates import ParametricGate

        plain = ParametricGate(
            "RX_PLAIN",
            num_qubits=1,
            matrix_fn=gate.matrix,
            derivative_fn=gate.derivative,
        )
        thetas = np.array([0.1, 1.2])
        assert np.array_equal(
            plain.derivative_batch(thetas), gate.derivative_batch(thetas)
        )


class TestStaticMatrixCache:
    def test_contains_exactly_the_non_trainable_ops(self):
        circuit = QuantumCircuit(2).h(0).rx(0).cz(0, 1).ry(1, value=0.4)
        cache = circuit.static_matrices()
        assert set(cache) == {0, 2, 3}
        for pos, (matrix, adjoint) in cache.items():
            op = circuit.operations[pos]
            assert np.array_equal(matrix, op.matrix(None))
            assert np.array_equal(adjoint, op.matrix(None).conj().T)

    def test_cache_reused_until_append(self):
        circuit = QuantumCircuit(1).h(0)
        first = circuit.static_matrices()
        assert circuit.static_matrices() is first
        circuit.x(0)
        second = circuit.static_matrices()
        assert second is not first
        assert set(second) == {0, 1}

    def test_in_place_operation_edit_invalidates_cache(self):
        from repro.backend.circuit import Operation
        from repro.backend.gates import get_gate

        circuit = QuantumCircuit(1).h(0)
        stale = circuit.static_matrices()
        circuit.operations[0] = Operation(get_gate("X"), (0,))
        fresh = circuit.static_matrices()
        assert fresh is not stale
        assert np.array_equal(fresh[0][0], get_gate("X").matrix())

    def test_copy_gets_its_own_cache(self):
        circuit = QuantumCircuit(1).h(0)
        cache = circuit.static_matrices()
        clone = circuit.copy()
        assert clone.static_matrices() is not cache
        assert set(clone.static_matrices()) == {0}

    def test_unit_diagonal_adjoints_cover_the_exact_unit_diagonals(self):
        circuit = QuantumCircuit(3).cz(0, 1).s(2).t(0).z(1).rz(2).h(0)
        circuit.append("PHASE", (1,), value=np.pi / 2)
        units = circuit.unit_diagonal_adjoints()
        assert set(units) == {0, 1, 3}  # CZ, S and Z; not T, RZ, H, PHASE
        for pos, diagonal in units.items():
            adjoint = circuit.static_matrices()[pos][1]
            assert np.array_equal(diagonal, np.diagonal(adjoint))
        assert circuit.unit_diagonal_adjoints() is units
        circuit.s(0)
        assert set(circuit.unit_diagonal_adjoints()) == {0, 1, 3, 7}


class TestBatchAdjointBitIdentity:
    def test_rows_match_sequential_engine_exactly(self, simulator):
        rng = np.random.default_rng(31)
        for num_qubits in (2, 3, 4):
            circuit = _random_pqc(num_qubits, 4, seed=40 + num_qubits)
            for observable in (zero_projector(num_qubits), total_z(num_qubits)):
                params = rng.uniform(0, 2 * np.pi, (6, circuit.num_parameters))
                batched = batch_adjoint_gradient(
                    circuit, observable, params, simulator=simulator
                )
                assert batched.shape == (6, circuit.num_parameters)
                for b in range(6):
                    assert np.array_equal(
                        batched[b],
                        adjoint_gradient(
                            circuit, observable, params[b], simulator=simulator
                        ),
                    )

    def test_param_indices_subset(self, simulator):
        circuit = _random_pqc(3, 5, seed=51)
        observable = zero_projector(3)
        rng = np.random.default_rng(32)
        params = rng.uniform(0, 2 * np.pi, (4, circuit.num_parameters))
        indices = [circuit.num_parameters - 1, 0, 7]
        batched = batch_adjoint_gradient(
            circuit, observable, params, simulator=simulator, param_indices=indices
        )
        assert batched.shape == (4, 3)
        for b in range(4):
            assert np.array_equal(
                batched[b],
                adjoint_gradient(
                    circuit,
                    observable,
                    params[b],
                    simulator=simulator,
                    param_indices=indices,
                ),
            )

    def test_non_default_initial_state(self, simulator):
        circuit = _random_pqc(3, 3, seed=52)
        observable = total_z(3)
        initial = Statevector.random_state(3, seed=8)
        rng = np.random.default_rng(33)
        params = rng.uniform(0, 2 * np.pi, (3, circuit.num_parameters))
        batched = batch_adjoint_gradient(
            circuit, observable, params, simulator=simulator, initial_state=initial
        )
        for b in range(3):
            assert np.array_equal(
                batched[b],
                adjoint_gradient(
                    circuit,
                    observable,
                    params[b],
                    simulator=simulator,
                    initial_state=initial,
                ),
            )

    def test_single_row_batch(self, simulator):
        circuit = _random_pqc(2, 3, seed=53)
        observable = zero_projector(2)
        params = np.linspace(0.1, 2.0, circuit.num_parameters)
        one = batch_adjoint_gradient(
            circuit, observable, params.reshape(1, -1), simulator=simulator
        )
        assert one.shape == (1, circuit.num_parameters)
        assert np.array_equal(
            one[0], adjoint_gradient(circuit, observable, params, simulator=simulator)
        )

    def test_1d_params_return_flat_gradient(self, simulator):
        circuit = _random_pqc(2, 3, seed=54)
        observable = zero_projector(2)
        params = np.linspace(-1.0, 1.0, circuit.num_parameters)
        flat = batch_adjoint_gradient(
            circuit, observable, params, simulator=simulator
        )
        assert flat.shape == (circuit.num_parameters,)
        assert np.array_equal(
            flat, adjoint_gradient(circuit, observable, params, simulator=simulator)
        )

    def test_controlled_rotations_and_bound_gates(self, simulator):
        circuit = QuantumCircuit(2).h(0).rx(1, value=0.7).crx(0, 1).cry(1, 0)
        observable = total_z(2)
        params = np.array([[0.4, 1.3], [2.0, -0.7], [0.0, 3.1]])
        batched = batch_adjoint_gradient(
            circuit, observable, params, simulator=simulator
        )
        for b in range(3):
            assert np.array_equal(
                batched[b],
                adjoint_gradient(
                    circuit, observable, params[b], simulator=simulator
                ),
            )

    def test_empty_param_indices(self, simulator):
        circuit = _random_pqc(2, 2, seed=55)
        batched = batch_adjoint_gradient(
            circuit,
            zero_projector(2),
            np.zeros((3, circuit.num_parameters)),
            simulator=simulator,
            param_indices=[],
        )
        assert batched.shape == (3, 0)

    def test_rejects_3d_params(self, simulator):
        circuit = _random_pqc(2, 2, seed=56)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            batch_adjoint_gradient(
                circuit,
                zero_projector(2),
                np.zeros((2, 2, circuit.num_parameters)),
                simulator=simulator,
            )

    def test_registered_as_gradient_engine(self, simulator):
        engine = get_gradient_fn("batch_adjoint")
        assert engine is batch_adjoint_gradient
        circuit = _random_pqc(2, 2, seed=57)
        params = np.linspace(0.0, 1.0, circuit.num_parameters)
        assert np.array_equal(
            engine(circuit, zero_projector(2), params, simulator=simulator),
            adjoint_gradient(
                circuit, zero_projector(2), params, simulator=simulator
            ),
        )


class TestValueAndGradient:
    def test_sequential_value_matches_expectation(self, simulator):
        circuit = _random_pqc(3, 3, seed=61)
        observable = zero_projector(3)
        params = np.linspace(0.2, 1.8, circuit.num_parameters)
        value, grads = adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
        assert value == simulator.expectation(circuit, observable, params)
        assert np.array_equal(
            grads, adjoint_gradient(circuit, observable, params, simulator=simulator)
        )

    def test_batched_rows_match_sequential_pair(self, simulator):
        circuit = _random_pqc(3, 3, seed=62)
        observable = total_z(3)
        rng = np.random.default_rng(34)
        params = rng.uniform(0, 2 * np.pi, (5, circuit.num_parameters))
        values, grads = batch_adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
        assert values.shape == (5,) and grads.shape == (5, circuit.num_parameters)
        for b in range(5):
            value, grad = adjoint_value_and_gradient(
                circuit, observable, params[b], simulator=simulator
            )
            assert values[b] == value
            assert np.array_equal(grads[b], grad)

    def test_1d_params_return_scalar_value(self, simulator):
        circuit = _random_pqc(2, 2, seed=63)
        observable = zero_projector(2)
        params = np.linspace(0.1, 0.9, circuit.num_parameters)
        value, grad = batch_adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
        assert isinstance(value, float)
        sequential = adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
        assert value == sequential[0]
        assert np.array_equal(grad, sequential[1])


def _backends():
    params = [pytest.param(name, id=name) for name in ("numpy", "loopback")]
    marks = []
    if importlib.util.find_spec("torch") is None:
        marks.append(
            pytest.mark.skip(reason="optional namespace 'torch' not installed")
        )
    params.append(pytest.param("torch", id="torch", marks=marks))
    return params


class TestFixedAdjointRouting:
    """Fixed diagonals with exact-unit entries (CZ, Z, S) are undone with
    the elementwise kernel; T, H and CX keep the dense adjoint.  Rows
    equal the sequential oracle on numpy to ``oracles.FUSED_ATOL`` (the
    forward pass fuses each rotation layer; to device tolerance
    elsewhere); 20 rows at 10 qubits cross the 16-row adjoint chunk."""

    NUM_QUBITS = 10

    def _circuit(self, rotation):
        circuit = QuantumCircuit(self.NUM_QUBITS)
        for q in range(self.NUM_QUBITS):
            circuit.append(rotation, (q,))
        for q in range(self.NUM_QUBITS - 1):
            circuit.cz(q, q + 1)
        circuit.s(2).t(5).h(7).cx(3, 8).z(9)
        for q in range(self.NUM_QUBITS):
            circuit.append("RY", (q,))
        return circuit

    @pytest.fixture()
    def undo_calls(self, monkeypatch):
        calls = []

        def spy(kind, kernel):
            def wrapper(state, operand, qubits, *args, **kwargs):
                calls.append((kind, tuple(qubits), np.asarray(operand)))
                return kernel(state, operand, qubits, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            gradients, "apply_matrix", spy("dense", gradients.apply_matrix)
        )
        monkeypatch.setattr(
            gradients, "apply_diagonal", spy("diagonal", gradients.apply_diagonal)
        )
        return calls

    def _assert_routing(self, circuit, calls):
        def undone(kind, op, operand):
            return sum(
                1 for k, qubits, a in calls
                if k == kind and qubits == op.qubits and np.array_equal(a, operand)
            )

        for op in circuit.operations:
            if op.is_trainable:
                continue
            adjoint = op.matrix(None).conj().T
            dense, diagonal = (
                undone("dense", op, adjoint),
                undone("diagonal", op, np.diagonal(adjoint)),
            )
            if op.gate.name in ("CZ", "Z", "S"):
                assert diagonal > 0 and dense == 0, op
            else:
                assert dense > 0 and diagonal == 0, op

    def _check(self, backend_name, result, expected):
        if backend_name == "numpy":
            oracles.assert_oracle_match(result, expected, fused=True)
        else:
            np.testing.assert_allclose(
                result, expected, rtol=DEVICE_RTOL, atol=DEVICE_ATOL
            )

    @pytest.mark.parametrize("backend_name", _backends())
    @pytest.mark.parametrize("rows", [1, 6, 20])
    def test_lockstep_sweep(self, undo_calls, backend_name, rows):
        circuit = self._circuit("RX")
        observable = zero_projector(self.NUM_QUBITS)
        params = np.random.default_rng(rows).uniform(
            -np.pi, np.pi, (rows, circuit.num_parameters)
        )
        values, grads = batch_adjoint_value_and_gradient(
            circuit, observable, params,
            simulator=StatevectorSimulator(backend=backend_name),
        )
        self._assert_routing(circuit, undo_calls)
        for b in range(rows):
            value, grad = oracles.adjoint_value_and_gradient(
                circuit, observable, params[b]
            )
            self._check(backend_name, values[b], value)
            self._check(backend_name, grads[b], grad)

    @pytest.mark.parametrize("backend_name", _backends())
    @pytest.mark.parametrize("rows", [1, 6, 20])
    def test_megabatch_sweep(self, undo_calls, backend_name, rows):
        sizes = [rows] if rows == 1 else [rows // 2, rows - rows // 2]
        circuits = [self._circuit(r) for r in ("RX", "RY")[: len(sizes)]]
        observable = total_z(self.NUM_QUBITS)
        rng = np.random.default_rng(100 + rows)
        batches = [
            rng.uniform(-np.pi, np.pi, (size, circuits[0].num_parameters))
            for size in sizes
        ]
        blocks = megabatch_adjoint_gradient(
            MegaBatchPlan(circuits), observable, batches,
            simulator=StatevectorSimulator(backend=backend_name),
        )
        self._assert_routing(circuits[0], undo_calls)
        for circuit, batch, block in zip(circuits, batches, blocks):
            for params, grad in zip(batch, block):
                self._check(
                    backend_name, grad,
                    oracles.adjoint_gradient(circuit, observable, params),
                )


class TestObservableApplyBatch:
    @pytest.mark.parametrize(
        "observable_fn",
        [zero_projector, total_z, lambda n: total_z(n).terms[0]],
    )
    def test_rows_match_scalar_apply(self, observable_fn):
        rng = np.random.default_rng(35)
        observable = observable_fn(3)
        raw = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        batched = observable.apply_batch(states)
        for b in range(4):
            assert np.array_equal(batched[b], observable.apply(states[b]))

    def test_state_projector_rows(self):
        from repro.backend import StateProjector

        target = Statevector.random_state(2, seed=9)
        observable = StateProjector(target)
        rng = np.random.default_rng(36)
        raw = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        batched = observable.apply_batch(states)
        for b in range(3):
            assert np.array_equal(batched[b], observable.apply(states[b]))

    def test_rejects_flat_buffer(self):
        with pytest.raises(ValueError, match=r"\(batch"):
            zero_projector(2).apply_batch(np.zeros(4, dtype=complex))


@pytest.mark.slow
class TestBatchAdjointAgreementProperty:
    """batch_adjoint == adjoint exactly, and both match the shift rule."""

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("cost", ["global", "local"])
    def test_engines_agree(self, simulator, num_qubits, cost):
        rng = np.random.default_rng(2000 + num_qubits)
        observable = (
            zero_projector(num_qubits) if cost == "global" else total_z(num_qubits)
        )
        for trial in range(3):
            circuit = _random_pqc(num_qubits, 4, seed=int(rng.integers(2**31)))
            params = rng.uniform(0, 2 * np.pi, (3, circuit.num_parameters))
            indices = [0, circuit.num_parameters - 1]
            batched = batch_adjoint_gradient(
                circuit,
                observable,
                params,
                simulator=simulator,
                param_indices=indices,
            )
            for b in range(3):
                adjoint = adjoint_gradient(
                    circuit,
                    observable,
                    params[b],
                    simulator=simulator,
                    param_indices=indices,
                )
                shift = parameter_shift(
                    circuit,
                    observable,
                    params[b],
                    simulator=simulator,
                    param_indices=indices,
                )
                fd = finite_difference(
                    circuit,
                    observable,
                    params[b],
                    simulator=simulator,
                    param_indices=indices,
                )
                assert np.array_equal(batched[b], adjoint)
                assert np.allclose(batched[b], shift, atol=1e-8)
                assert np.allclose(batched[b], fd, atol=1e-4)
