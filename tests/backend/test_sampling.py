"""Batched measurement sampling: bit-identity, edge cases, statistics.

Covers the tentpole contract of the sampled path — ``Statevector.sample_batch``
/ ``sample_counts_batch`` and ``StatevectorSimulator.expectation_batch(shots=)``
are bit-identical, row by row, to the sequential sampling calls given the
same spawned child seeds — plus the edge cases of the scalar samplers
(marginal subsets, single-shot draws, zero-probability marginals,
Generator-vs-int seeds) and multi-term sampled expectations.
"""

import numpy as np
import pytest

from repro.backend import QuantumCircuit, Statevector, StatevectorSimulator
from repro.backend.observables import (
    PauliString,
    PauliSum,
    StateProjector,
    total_z,
    zero_projector,
)
from repro.backend.statevector import marginal_probabilities_batch
from repro.utils.rng import ensure_rng, resolve_rngs, spawn_seeds


def _random_states(batch, num_qubits, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class TestSampleBatchBitIdentity:
    @pytest.mark.parametrize("qubits", [None, [2, 0], [3], [1, 3, 0]])
    def test_rows_match_sequential_sample(self, qubits):
        states = _random_states(6, 4, seed=11)
        seeds = spawn_seeds(77, 6)
        batch_bits = Statevector.sample_batch(
            states, 40, seeds=seeds, qubits=qubits
        )
        for b in range(6):
            reference = Statevector(states[b], validate=False).sample(
                40, seed=ensure_rng(seeds[b]), qubits=qubits
            )
            assert np.array_equal(batch_bits[b], reference)

    def test_single_seed_spawns_children(self):
        states = _random_states(4, 3, seed=2)
        children = spawn_seeds(5, 4)
        from_int = Statevector.sample_batch(states, 25, seeds=5)
        from_children = Statevector.sample_batch(states, 25, seeds=children)
        assert np.array_equal(from_int, from_children)

    def test_counts_match_sequential(self):
        states = _random_states(3, 3, seed=4)
        seeds = spawn_seeds(9, 3)
        batch_counts = Statevector.sample_counts_batch(states, 30, seeds=seeds)
        for b in range(3):
            reference = Statevector(states[b], validate=False).sample_counts(
                30, seed=ensure_rng(seeds[b])
            )
            assert batch_counts[b] == reference

    def test_counts_marginal_subset_keys(self):
        states = _random_states(2, 3, seed=6)
        counts = Statevector.sample_counts_batch(
            states, 20, seeds=spawn_seeds(1, 2), qubits=[2, 0]
        )
        assert all(len(key) == 2 for row in counts for key in row)
        assert all(sum(row.values()) == 20 for row in counts)

    def test_marginal_probability_matrix_matches_scalar(self):
        states = _random_states(5, 4, seed=8)
        for qubits in ([0, 1, 2, 3], [3, 1], [2]):
            matrix = marginal_probabilities_batch(states, qubits, 4)
            for b in range(5):
                reference = Statevector(
                    states[b], validate=False
                ).marginal_probabilities(qubits)
                assert np.array_equal(matrix[b], reference)


class TestSampleEdgeCases:
    def test_single_shot_draw_shapes(self):
        state = Statevector.uniform_superposition(3)
        bits = state.sample(1, seed=0)
        assert bits.shape == (1, 3)
        batch_bits = Statevector.sample_batch(
            np.stack([state.data, state.data]), 1, seeds=3
        )
        assert batch_bits.shape == (2, 1, 3)
        assert set(batch_bits.reshape(-1)) <= {0, 1}

    def test_generator_vs_int_seed_equivalence(self):
        state = Statevector.random_state(3, seed=1)
        from_int = state.sample(50, seed=123)
        from_generator = state.sample(50, seed=np.random.default_rng(123))
        assert np.array_equal(from_int, from_generator)

    def test_zero_probability_marginal_error_message(self):
        state = Statevector.zero_state(2)
        state.data[0] = 0.0  # projector-style manipulation
        with pytest.raises(ValueError, match="zero total probability"):
            state.sample(10, seed=0)

    def test_batched_zero_probability_names_the_row(self):
        good = Statevector.uniform_superposition(2).data
        bad = np.zeros(4, dtype=complex)
        with pytest.raises(ValueError, match="batch row 1.*zero total"):
            Statevector.sample_batch(np.stack([good, bad]), 5, seeds=0)

    def test_rejects_bad_shapes_and_seed_counts(self):
        states = _random_states(3, 2)
        with pytest.raises(ValueError, match="2-D"):
            Statevector.sample_batch(states[0], 5, seeds=0)
        with pytest.raises(ValueError, match="power of 2"):
            Statevector.sample_batch(np.ones((2, 3), dtype=complex), 5)
        with pytest.raises(ValueError, match="per-row seeds"):
            Statevector.sample_batch(states, 5, seeds=spawn_seeds(0, 2))
        with pytest.raises(ValueError, match="shots"):
            Statevector.sample_batch(states, 0, seeds=0)

    def test_duplicate_marginal_qubits_rejected(self):
        states = _random_states(2, 3)
        with pytest.raises(ValueError, match="distinct"):
            Statevector.sample_batch(states, 5, seeds=0, qubits=[1, 1])


class TestResolveRngs:
    def test_generators_pass_through_unchanged(self):
        rng = np.random.default_rng(0)
        resolved = resolve_rngs([rng, rng], 2)
        assert resolved[0] is rng and resolved[1] is rng

    def test_single_seed_matches_spawn_seeds(self):
        children = spawn_seeds(42, 3)
        resolved = resolve_rngs(42, 3)
        for child, rng in zip(children, resolved):
            assert np.array_equal(
                np.random.default_rng(child).integers(0, 100, 5),
                rng.integers(0, 100, 5),
            )

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="per-row seeds"):
            resolve_rngs([1, 2, 3], 2)


class TestSampledExpectationBatch:
    @pytest.fixture
    def circuit(self):
        circuit = QuantumCircuit(3)
        for q in range(3):
            circuit.rx(q).ry(q)
        circuit.cz(0, 1).cz(1, 2)
        return circuit

    @pytest.fixture
    def params_batch(self, circuit):
        rng = np.random.default_rng(21)
        return rng.uniform(0, 2 * np.pi, (5, circuit.num_parameters))

    @pytest.mark.parametrize(
        "observable",
        [
            zero_projector(3),
            total_z(3),
            PauliString(3, "XYZ", coefficient=0.5),
            PauliSum(
                [
                    PauliString(3, "III", coefficient=2.0),
                    PauliString(3, "ZXI", coefficient=-1.5),
                    PauliString(3, "IYZ", coefficient=0.25),
                ]
            ),
        ],
        ids=["projector", "total_z", "pauli_string", "multi_term_sum"],
    )
    def test_rows_match_sequential_expectation(
        self, simulator, circuit, params_batch, observable
    ):
        children = spawn_seeds(31, params_batch.shape[0])
        estimates = simulator.expectation_batch(
            circuit, observable, params_batch, shots=120, seed=31
        )
        for b in range(params_batch.shape[0]):
            reference = simulator.expectation(
                circuit,
                observable,
                params_batch[b],
                shots=120,
                seed=ensure_rng(children[b]),
            )
            assert estimates[b] == reference

    def test_identity_term_consumes_no_randomness(self, simulator):
        circuit = QuantumCircuit(2).rx(0).ry(1)
        identity = PauliString(2, "II", coefficient=3.5)
        params = np.array([[0.3, 0.7]])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        estimates = simulator.expectation_batch(
            circuit, identity, params, shots=10, seed=[rng]
        )
        assert estimates[0] == 3.5
        assert rng.bit_generator.state["state"]["state"] == before

    def test_state_projector_rejected_like_sequential(self, simulator):
        circuit = QuantumCircuit(2).rx(0).ry(1)
        target = Statevector.random_state(2, seed=0)
        with pytest.raises(TypeError, match="StateProjector"):
            simulator.expectation_batch(
                circuit,
                StateProjector(target),
                np.zeros((2, 2)),
                shots=10,
                seed=0,
            )

    def test_multi_term_estimate_is_unbiased(
        self, simulator, circuit, params_batch, assert_unbiased_estimator
    ):
        observable = total_z(3)
        exact = simulator.expectation(circuit, observable, params_batch[0])
        estimates = [
            simulator.expectation(
                circuit, observable, params_batch[0], shots=64, seed=seed
            )
            for seed in range(200)
        ]
        assert_unbiased_estimator(estimates, exact)

    def test_variance_scales_inverse_shots(
        self, simulator, circuit, params_batch,
        assert_variance_scales_inverse_shots,
    ):
        observable = PauliString(3, "ZXI")
        assert_variance_scales_inverse_shots(
            lambda shots, seed: simulator.expectation(
                circuit, observable, params_batch[1], shots=shots, seed=seed
            )
        )


class TestSampledObservableWidth:
    """Every sampled path rejects an observable wider or narrower than
    the circuit with the analytic path's one-line error."""

    @pytest.fixture(params=["statevector", "pauli_transfer"])
    def simulator(self, request):
        if request.param == "statevector":
            return StatevectorSimulator()
        from repro.backend import NoiseModel, PauliTransferSimulator, depolarizing

        return PauliTransferSimulator(NoiseModel(default=depolarizing(0.02)))

    @pytest.mark.parametrize(
        "observable",
        [
            PauliString(3, "ZIZ"),
            PauliString(3, "XZZ"),
            zero_projector(3),
            PauliString(1, "Z"),
        ],
        ids=["ZIZ", "XZZ", "projector", "narrow"],
    )
    @pytest.mark.parametrize(
        "call", ["expectation", "expectation_batch", "parameter_shift"]
    )
    def test_width_mismatch_raises(self, simulator, observable, call):
        from repro.backend import parameter_shift

        circuit = QuantumCircuit(2).rx(0).ry(1).cz(0, 1)
        params = [0.3, 0.4]
        width = observable.num_qubits
        with pytest.raises(
            ValueError, match=f"^state has 2 qubits, observable needs {width}$"
        ):
            if call == "expectation":
                simulator.expectation(circuit, observable, params, shots=64, seed=2)
            elif call == "expectation_batch":
                simulator.expectation_batch(
                    circuit, observable, [params], shots=64, seed=2
                )
            else:
                parameter_shift(
                    circuit, observable, params, simulator=simulator,
                    shots=64, seed=2,
                )
