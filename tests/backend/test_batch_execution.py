"""Batched statevector execution: run_batch / expectation_batch /
batch_parameter_shift.

Two families of guarantees:

* **bit-identity** — every batched entry equals its sequential
  counterpart exactly (``np.array_equal``, no tolerance), which is what
  lets the variance experiment flip ``batched`` on without perturbing
  seeded results;
* **engine agreement** — the batched shift rule matches the adjoint and
  finite-difference engines within their analytic tolerances on random
  PQCs of 2-5 qubits (the property test the ISSUE asks for).
"""

import numpy as np
import pytest

from repro.ansatz.random_pqc import RandomPQC
from repro.backend import (
    QuantumCircuit,
    StatevectorSimulator,
    Statevector,
    adjoint_gradient,
    adjoint_value_and_gradient,
    batch_adjoint_value_and_gradient,
    batch_parameter_shift,
    finite_difference,
    get_gradient_fn,
    parameter_shift,
    total_z,
    zero_projector,
)


def _random_pqc(num_qubits, num_layers, seed):
    return RandomPQC(num_qubits=num_qubits, num_layers=num_layers, seed=seed).build()


class TestRunBatch:
    def test_rows_bit_identical_to_sequential(self, simulator):
        rng = np.random.default_rng(21)
        for num_qubits in (2, 3, 4):
            circuit = _random_pqc(num_qubits, 4, seed=num_qubits)
            params = rng.uniform(0, 2 * np.pi, (6, circuit.num_parameters))
            states = simulator.run_batch(circuit, params)
            assert states.shape == (6, 2**num_qubits)
            for b in range(6):
                assert np.array_equal(
                    states[b], simulator.run(circuit, params[b]).data
                )

    def test_rows_normalized(self, simulator):
        circuit = _random_pqc(3, 5, seed=9)
        rng = np.random.default_rng(22)
        params = rng.uniform(0, 2 * np.pi, (4, circuit.num_parameters))
        norms = np.linalg.norm(simulator.run_batch(circuit, params), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_custom_initial_state(self, simulator):
        circuit = QuantumCircuit(2).rx(0).ry(1)
        initial = Statevector.uniform_superposition(2)
        params = np.array([[0.3, 1.1], [2.2, -0.4]])
        states = simulator.run_batch(circuit, params, initial_state=initial)
        for b in range(2):
            assert np.array_equal(
                states[b],
                simulator.run(circuit, params[b], initial_state=initial).data,
            )

    def test_bound_and_fixed_gates_shared_across_rows(self, simulator):
        circuit = QuantumCircuit(2).h(0).rx(0, value=0.7).cx(0, 1).ry(1)
        params = np.array([[0.1], [1.9], [-2.5]])
        states = simulator.run_batch(circuit, params)
        for b in range(3):
            assert np.array_equal(states[b], simulator.run(circuit, params[b]).data)

    def test_rejects_wrong_width(self, simulator):
        circuit = QuantumCircuit(2).rx(0)
        with pytest.raises(ValueError, match="parameters per row"):
            simulator.run_batch(circuit, np.zeros((3, 2)))

    def test_rejects_1d_params(self, simulator):
        circuit = QuantumCircuit(2).rx(0)
        with pytest.raises(ValueError, match="2-D"):
            simulator.run_batch(circuit, np.zeros(1))

    def test_rejects_empty_batch(self, simulator):
        circuit = QuantumCircuit(2).rx(0)
        with pytest.raises(ValueError, match="at least one row"):
            simulator.run_batch(circuit, np.zeros((0, 1)))

    def test_rejects_nonfinite(self, simulator):
        circuit = QuantumCircuit(2).rx(0)
        with pytest.raises(ValueError, match="NaN"):
            simulator.run_batch(circuit, np.array([[np.nan]]))

    def test_rejects_mismatched_initial_state(self, simulator):
        circuit = QuantumCircuit(2).rx(0)
        with pytest.raises(ValueError, match="initial state"):
            simulator.run_batch(
                circuit, np.zeros((1, 1)), initial_state=Statevector.zero_state(3)
            )


class TestExpectationBatch:
    @pytest.mark.parametrize("observable_fn", [zero_projector, total_z])
    def test_bit_identical_to_sequential(self, simulator, observable_fn):
        rng = np.random.default_rng(23)
        for num_qubits in (2, 3):
            circuit = _random_pqc(num_qubits, 4, seed=17 + num_qubits)
            observable = observable_fn(num_qubits)
            params = rng.uniform(0, 2 * np.pi, (5, circuit.num_parameters))
            batched = simulator.expectation_batch(circuit, observable, params)
            sequential = np.array(
                [
                    simulator.expectation(circuit, observable, row)
                    for row in params
                ]
            )
            assert np.array_equal(batched, sequential)

    def test_observable_rejects_flat_buffer(self):
        with pytest.raises(ValueError, match=r"\(batch"):
            zero_projector(2).expectation_batch(np.zeros(4, dtype=complex))


class TestBatchParameterShift:
    def test_matches_sequential_engine_exactly(self, simulator):
        rng = np.random.default_rng(24)
        circuit = _random_pqc(3, 5, seed=31)
        observable = zero_projector(3)
        params = rng.uniform(0, 2 * np.pi, (4, circuit.num_parameters))
        indices = [0, circuit.num_parameters // 2, circuit.num_parameters - 1]
        batched = batch_parameter_shift(
            circuit, observable, params, simulator=simulator, param_indices=indices
        )
        assert batched.shape == (4, 3)
        for b in range(4):
            sequential = parameter_shift(
                circuit,
                observable,
                params[b],
                simulator=simulator,
                param_indices=indices,
            )
            assert np.array_equal(batched[b], sequential)

    def test_single_vector_returns_flat_gradient(self, simulator):
        circuit = _random_pqc(2, 3, seed=5)
        observable = zero_projector(2)
        params = np.linspace(0.1, 1.0, circuit.num_parameters)
        flat = batch_parameter_shift(circuit, observable, params, simulator=simulator)
        assert flat.shape == (circuit.num_parameters,)
        assert np.array_equal(
            flat, parameter_shift(circuit, observable, params, simulator=simulator)
        )

    def test_four_term_rule_controlled_rotation(self, simulator):
        circuit = QuantumCircuit(2).h(0).crx(0, 1).ry(0)
        observable = total_z(2)
        params = np.array([[0.4, 1.3], [2.0, -0.7]])
        batched = batch_parameter_shift(circuit, observable, params, simulator=simulator)
        for b in range(2):
            assert np.array_equal(
                batched[b],
                parameter_shift(circuit, observable, params[b], simulator=simulator),
            )

    def test_registered_as_gradient_engine(self, simulator):
        engine = get_gradient_fn("batch_parameter_shift")
        assert engine is batch_parameter_shift
        circuit = _random_pqc(2, 2, seed=3)
        observable = zero_projector(2)
        params = np.linspace(0.0, 1.0, circuit.num_parameters)
        assert np.array_equal(
            engine(circuit, observable, params, simulator=simulator),
            parameter_shift(circuit, observable, params, simulator=simulator),
        )

    def test_empty_param_indices_matches_sequential(self, simulator):
        """Zero differentiated parameters returns an empty gradient, like
        parameter_shift, instead of crashing."""
        circuit = _random_pqc(2, 2, seed=8)
        observable = zero_projector(2)
        params = np.zeros((3, circuit.num_parameters))
        batched = batch_parameter_shift(
            circuit, observable, params, simulator=simulator, param_indices=[]
        )
        assert batched.shape == (3, 0)
        flat = batch_parameter_shift(
            circuit, observable, params[0], simulator=simulator, param_indices=[]
        )
        sequential = parameter_shift(
            circuit, observable, params[0], simulator=simulator, param_indices=[]
        )
        assert flat.shape == sequential.shape == (0,)

    def test_rejects_3d_params(self, simulator):
        circuit = _random_pqc(2, 2, seed=3)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            batch_parameter_shift(
                circuit,
                zero_projector(2),
                np.zeros((2, 2, circuit.num_parameters)),
                simulator=simulator,
            )

    def test_rejects_gate_without_shift_rule(self, simulator):
        circuit = QuantumCircuit(1).rx(0)
        gate = circuit.operations[0].gate
        original = gate.shift_terms
        try:
            gate.shift_terms = None
            with pytest.raises(ValueError, match="no exact parameter-shift"):
                batch_parameter_shift(
                    circuit, zero_projector(1), np.array([[0.5]]), simulator=simulator
                )
        finally:
            gate.shift_terms = original


@pytest.mark.slow
class TestEngineAgreementProperty:
    """All four gradient engines agree on random PQCs of 2-5 qubits."""

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("cost", ["global", "local"])
    def test_engines_agree(self, simulator, num_qubits, cost):
        rng = np.random.default_rng(1000 + num_qubits)
        observable = (
            zero_projector(num_qubits) if cost == "global" else total_z(num_qubits)
        )
        for trial in range(3):
            circuit = _random_pqc(
                num_qubits, 4, seed=int(rng.integers(2**31))
            )
            params = rng.uniform(0, 2 * np.pi, (3, circuit.num_parameters))
            indices = [0, circuit.num_parameters - 1]
            batched = batch_parameter_shift(
                circuit,
                observable,
                params,
                simulator=simulator,
                param_indices=indices,
            )
            for b in range(3):
                shift = parameter_shift(
                    circuit,
                    observable,
                    params[b],
                    simulator=simulator,
                    param_indices=indices,
                )
                adjoint = adjoint_gradient(
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
                assert np.array_equal(batched[b], shift)
                assert np.allclose(batched[b], adjoint, atol=1e-8)
                assert np.allclose(batched[b], fd, atol=1e-4)


class TestChunkBoundaries:
    """run_batch / sampled_expectation_rows around the row-chunk boundary.

    The chunk size is memory-derived (huge for small registers), so the
    tests shrink it via the module constant and exercise B exactly at,
    one below, and one above the boundary, plus the B=1 degenerate batch.
    Chunking must be invisible: per-row results equal the unchunked (and
    sequential) paths bit for bit, and sampled draws consume per-row
    generators in the same order.
    """

    CHUNK_ROWS = 4
    NUM_QUBITS = 3

    def _shrink(self, monkeypatch, simulator):
        import repro.backend.simulator as simulator_module

        budget = 16 * 2**self.NUM_QUBITS * self.CHUNK_ROWS
        monkeypatch.setattr(simulator_module, "_RUN_BATCH_CHUNK_BYTES", budget)
        # run_batch chunks against its backend's own budget.
        monkeypatch.setattr(simulator.backend, "chunk_bytes", budget)

    def _shrink_adjoint(self, monkeypatch, simulator):
        import repro.backend.gradients as gradients_module

        monkeypatch.setattr(
            gradients_module,
            "_ADJOINT_CHUNK_DIVISOR",
            simulator.backend.chunk_bytes
            // (16 * 2**self.NUM_QUBITS * self.CHUNK_ROWS),
        )

    @pytest.mark.parametrize("batch", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_run_batch_rows_unaffected_by_chunking(
        self, simulator, monkeypatch, batch
    ):
        circuit = _random_pqc(self.NUM_QUBITS, 3, seed=5)
        rng = np.random.default_rng(11)
        params = rng.normal(size=(batch, circuit.num_parameters))
        unchunked = simulator.run_batch(circuit, params)
        self._shrink(monkeypatch, simulator)
        chunked = simulator.run_batch(circuit, params)
        assert np.array_equal(chunked, unchunked)
        for b in range(batch):
            assert np.array_equal(
                chunked[b], simulator.run(circuit, params[b]).data
            )

    @pytest.mark.parametrize("batch", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_adjoint_sweep_rows_unaffected_by_chunking(
        self, simulator, monkeypatch, batch
    ):
        circuit = _random_pqc(self.NUM_QUBITS, 3, seed=9)
        observable = total_z(self.NUM_QUBITS)
        rng = np.random.default_rng(19)
        params = rng.normal(size=(batch, circuit.num_parameters))
        values, grads = batch_adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
        self._shrink_adjoint(monkeypatch, simulator)
        forward_rows = []
        run_batch_data = simulator._run_batch_data

        def spy(circuit, batch_array, initial_state=None):
            forward_rows.append(len(batch_array))
            return run_batch_data(circuit, batch_array, initial_state)

        monkeypatch.setattr(simulator, "_run_batch_data", spy)
        chunked_values, chunked_grads = batch_adjoint_value_and_gradient(
            circuit, observable, params, simulator=simulator
        )
        full, rest = divmod(batch, self.CHUNK_ROWS)
        assert forward_rows == [self.CHUNK_ROWS] * full + ([rest] if rest else [])
        assert np.array_equal(chunked_values, values)
        assert np.array_equal(chunked_grads, grads)
        for b in range(batch):
            value, grad = adjoint_value_and_gradient(
                circuit, observable, params[b], simulator=simulator
            )
            assert chunked_values[b] == value
            assert np.array_equal(chunked_grads[b], grad)

    def test_adjoint_sweep_keeps_device_stacks_whole(self, monkeypatch):
        # Device backends want the widest resident batch, so the divisor
        # that chunks numpy sweeps must not split theirs.
        simulator = StatevectorSimulator(backend="loopback")
        circuit = _random_pqc(self.NUM_QUBITS, 3, seed=9)
        params = np.random.default_rng(19).normal(
            size=(self.CHUNK_ROWS + 1, circuit.num_parameters)
        )
        self._shrink_adjoint(monkeypatch, simulator)
        forward_rows = []
        run_batch_data = simulator._run_batch_data

        def spy(circuit, batch_array, initial_state=None):
            forward_rows.append(len(batch_array))
            return run_batch_data(circuit, batch_array, initial_state)

        monkeypatch.setattr(simulator, "_run_batch_data", spy)
        batch_adjoint_value_and_gradient(
            circuit, total_z(self.NUM_QUBITS), params, simulator=simulator
        )
        assert forward_rows == [self.CHUNK_ROWS + 1]

    @pytest.mark.parametrize("batch", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_sampled_rows_unaffected_by_blocking(
        self, simulator, monkeypatch, batch
    ):
        from repro.utils.rng import spawn_seeds

        circuit = _random_pqc(self.NUM_QUBITS, 3, seed=6)
        rng = np.random.default_rng(13)
        params = rng.normal(size=(batch, circuit.num_parameters))
        observable = total_z(self.NUM_QUBITS)
        states = simulator.run_batch(circuit, params)
        seeds = spawn_seeds(77, batch)
        unblocked = simulator.sampled_expectation_rows(
            states, observable, 32, [np.random.default_rng(s) for s in seeds]
        )
        self._shrink(monkeypatch, simulator)
        blocked = simulator.sampled_expectation_rows(
            states, observable, 32, [np.random.default_rng(s) for s in seeds]
        )
        assert np.array_equal(blocked, unblocked)
        for b in range(batch):
            expected = simulator._sampled_expectation(
                Statevector(states[b], validate=False),
                observable,
                32,
                np.random.default_rng(seeds[b]),
            )
            assert blocked[b] == expected

    def test_shared_generator_straddles_block_boundary(
        self, simulator, monkeypatch
    ):
        """One generator shared by consecutive rows across the boundary is
        consumed exactly as in a single unblocked pass."""
        circuit = _random_pqc(self.NUM_QUBITS, 2, seed=8)
        rng = np.random.default_rng(17)
        batch = self.CHUNK_ROWS + 2
        params = rng.normal(size=(batch, circuit.num_parameters))
        observable = zero_projector(self.NUM_QUBITS)
        states = simulator.run_batch(circuit, params)
        unblocked = simulator.sampled_expectation_rows(
            states, observable, 16, [np.random.default_rng(3)] * batch
        )
        self._shrink(monkeypatch, simulator)
        blocked = simulator.sampled_expectation_rows(
            states, observable, 16, [np.random.default_rng(3)] * batch
        )
        assert np.array_equal(blocked, unblocked)
