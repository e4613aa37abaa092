"""Unit tests for statevector representation and gate-application kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.gates import FIXED_GATES, PARAMETRIC_GATES, pauli_word_matrix
from repro.backend.statevector import Statevector, apply_diagonal, apply_matrix


class TestConstructors:
    def test_zero_state(self):
        state = Statevector.zero_state(3)
        assert state.num_qubits == 3
        assert state.data[0] == 1.0
        assert np.allclose(state.data[1:], 0.0)

    def test_basis_state_bitstring(self):
        state = Statevector.basis_state("10")
        assert state.num_qubits == 2
        assert state.data[2] == 1.0  # qubit 0 is the MSB

    def test_basis_state_list(self):
        state = Statevector.basis_state([0, 1, 1])
        assert state.data[3] == 1.0

    def test_basis_state_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            Statevector.basis_state("102")
        with pytest.raises(ValueError):
            Statevector.basis_state("")

    def test_uniform_superposition(self):
        state = Statevector.uniform_superposition(2)
        assert np.allclose(state.data, 0.5)

    def test_random_state_normalized_and_reproducible(self):
        a = Statevector.random_state(4, seed=7)
        b = Statevector.random_state(4, seed=7)
        assert a.norm() == pytest.approx(1.0)
        assert a.allclose(b)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Statevector([1.0, 0.0, 0.0])

    def test_validate_false_skips_norm_check(self):
        state = Statevector([2.0, 0.0], validate=False)
        assert state.norm() == pytest.approx(2.0)


class TestQueries:
    def test_dim(self):
        assert Statevector.zero_state(5).dim == 32

    def test_amplitude_by_bits_and_index(self):
        state = Statevector.basis_state("01")
        assert state.amplitude("01") == pytest.approx(1.0)
        assert state.amplitude(1) == pytest.approx(1.0)
        assert state.amplitude("11") == pytest.approx(0.0)

    def test_probabilities_sum_to_one(self):
        state = Statevector.random_state(3, seed=1)
        assert state.probabilities().sum() == pytest.approx(1.0)

    def test_probability_of(self):
        state = Statevector.uniform_superposition(2)
        assert state.probability_of("00") == pytest.approx(0.25)

    def test_marginal_probabilities_bell(self):
        # (|00> + |11>)/sqrt(2): each qubit is uniformly random.
        data = np.zeros(4, dtype=complex)
        data[0] = data[3] = 1 / np.sqrt(2)
        state = Statevector(data)
        assert np.allclose(state.marginal_probabilities([0]), [0.5, 0.5])
        assert np.allclose(state.marginal_probabilities([1]), [0.5, 0.5])
        assert np.allclose(
            state.marginal_probabilities([0, 1]), [0.5, 0.0, 0.0, 0.5]
        )

    def test_marginal_order_matters(self):
        state = Statevector.basis_state("01")
        # qubit order [0, 1] -> |01>; order [1, 0] -> |10>.
        assert np.allclose(state.marginal_probabilities([0, 1]), [0, 1, 0, 0])
        assert np.allclose(state.marginal_probabilities([1, 0]), [0, 0, 1, 0])

    def test_marginal_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Statevector.zero_state(2).marginal_probabilities([0, 0])


class TestLinearAlgebra:
    def test_inner_and_fidelity(self):
        zero = Statevector.basis_state("0")
        one = Statevector.basis_state("1")
        assert zero.inner(one) == pytest.approx(0.0)
        assert zero.fidelity(zero) == pytest.approx(1.0)

    def test_inner_conjugates_left(self):
        plus_i = Statevector(np.array([1.0, 1j]) / np.sqrt(2))
        zero = Statevector.basis_state("0")
        assert zero.inner(plus_i) == pytest.approx(1 / np.sqrt(2))

    def test_tensor(self):
        zero = Statevector.basis_state("0")
        one = Statevector.basis_state("1")
        combined = zero.tensor(one)
        assert combined.num_qubits == 2
        assert combined.amplitude("01") == pytest.approx(1.0)

    def test_incompatible_sizes_raise(self):
        with pytest.raises(ValueError):
            Statevector.zero_state(2).inner(Statevector.zero_state(3))

    def test_equiv_global_phase(self):
        state = Statevector.random_state(2, seed=3)
        phased = Statevector(np.exp(1j * 0.7) * state.data, validate=False)
        assert state.equiv(phased)
        assert not state.allclose(phased)

    def test_apply_gate_method(self):
        state = Statevector.zero_state(2)
        flipped = state.apply_gate(pauli_word_matrix("X"), [1])
        assert flipped.amplitude("01") == pytest.approx(1.0)


class TestApplyMatrixKernel:
    def _dense_apply(self, state, matrix, qubits, num_qubits):
        """Reference implementation: embed the gate with explicit krons."""
        ops = [np.eye(2, dtype=complex)] * num_qubits
        full = None
        if len(qubits) == 1:
            ops[qubits[0]] = matrix
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
        else:
            # Build via permutation: move target qubits to the front.
            perm = list(qubits) + [q for q in range(num_qubits) if q not in qubits]
            tensor = state.reshape((2,) * num_qubits)
            permuted = np.transpose(tensor, perm).reshape(-1)
            k = len(qubits)
            dim_rest = 2 ** (num_qubits - k)
            big = np.kron(matrix, np.eye(dim_rest))
            out = big @ permuted
            tensor_out = out.reshape((2,) * num_qubits)
            inverse = np.argsort(perm)
            return np.transpose(tensor_out, inverse).reshape(-1)
        return full @ state

    def test_single_qubit_on_each_wire(self):
        rng = np.random.default_rng(0)
        for num_qubits in (1, 2, 3, 4):
            raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
            state = raw / np.linalg.norm(raw)
            gate = PARAMETRIC_GATES["RY"].matrix(0.8)
            for q in range(num_qubits):
                fast = apply_matrix(state, gate, [q], num_qubits)
                slow = self._dense_apply(state, gate, [q], num_qubits)
                assert np.allclose(fast, slow)

    def test_two_qubit_all_pairs(self):
        rng = np.random.default_rng(1)
        num_qubits = 4
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = raw / np.linalg.norm(raw)
        gate = FIXED_GATES["CX"].matrix()
        for a in range(num_qubits):
            for b in range(num_qubits):
                if a == b:
                    continue
                fast = apply_matrix(state, gate, [a, b], num_qubits)
                slow = self._dense_apply(state, gate, [a, b], num_qubits)
                assert np.allclose(fast, slow), (a, b)

    def test_three_qubit_gate(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = raw / np.linalg.norm(raw)
        gate = FIXED_GATES["CCX"].matrix()
        fast = apply_matrix(state, gate, [2, 0, 3], 4)
        slow = self._dense_apply(state, gate, [2, 0, 3], 4)
        assert np.allclose(fast, slow)

    def test_rejects_duplicate_targets(self):
        state = Statevector.zero_state(2).data
        with pytest.raises(ValueError):
            apply_matrix(state, FIXED_GATES["CX"].matrix(), [1, 1], 2)

    def test_apply_diagonal_matches_apply_matrix(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = raw / np.linalg.norm(raw)
        cz = FIXED_GATES["CZ"].matrix()
        diag = np.diagonal(cz)
        for pair in ([0, 1], [1, 2], [2, 0]):
            fast = apply_diagonal(state, diag, pair, 3)
            slow = apply_matrix(state, cz, pair, 3)
            assert np.allclose(fast, slow)


class TestBatchedKernels:
    """The leading batch axis of apply_matrix / apply_diagonal."""

    @staticmethod
    def _random_batch(rng, batch, dim):
        raw = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    def test_batched_matrix_matches_per_row(self):
        """Shared matrix over (B, 2**n) rows == row-by-row sequential."""
        rng = np.random.default_rng(10)
        states = self._random_batch(rng, 5, 8)
        gate = FIXED_GATES["CX"].matrix()
        for pair in ([0, 1], [1, 2], [2, 0]):
            out = apply_matrix(states, gate, pair, 3)
            assert out.shape == (5, 8)
            for b in range(5):
                row = apply_matrix(states[b], gate, pair, 3)
                assert np.array_equal(out[b], row)

    def test_per_element_matrices(self):
        """A (B, d, d) stack applies matrix b to row b, bit-identically."""
        rng = np.random.default_rng(11)
        states = self._random_batch(rng, 4, 16)
        rx = PARAMETRIC_GATES["RX"]
        thetas = rng.uniform(0, 2 * np.pi, 4)
        stack = rx.matrix_batch(thetas)
        out = apply_matrix(states, stack, [2], 4)
        for b in range(4):
            row = apply_matrix(states[b], rx.matrix(thetas[b]), [2], 4)
            assert np.array_equal(out[b], row)

    @pytest.mark.parametrize(
        "cap, fast_targets",
        [(None, set(range(7))), (2**14, set(range(8)))],
        ids=["capped", "uncapped"],
    )
    def test_single_qubit_rows_at_every_target_of_a_wide_register(
        self, monkeypatch, cap, fast_targets
    ):
        """At 14 qubits the fast path needs ``rest >= 64`` (targets 0-7),
        and the slice cap (``2**q <= 64``) leaves it targets 0-6; the rest
        take the transpose layout.  Both selections must match the
        sequential 1-D kernel bit for bit at every target."""
        import oracles

        import repro.backend.statevector as statevector

        if cap is not None:
            monkeypatch.setattr(statevector, "_FAST_PATH_MAX_SLICES", cap)
        # The fast path is the only stacked matmul over a 4-D
        # (batch, 2**q, 2, rest) view of the states.
        fast = set()
        matmul = np.matmul
        qubit = None

        def spy(a, b, *args, **kwargs):
            if np.ndim(b) == 4:
                fast.add(qubit)
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rng = np.random.default_rng(12)
        num_qubits = 14
        states = self._random_batch(rng, 3, 2**num_qubits)
        ry = PARAMETRIC_GATES["RY"]
        thetas = rng.uniform(0, 2 * np.pi, 3)
        stack = ry.matrix_batch(thetas)
        for qubit in range(num_qubits):
            shared = apply_matrix(states, stack[0], [qubit], num_qubits)
            per_row = apply_matrix(states, stack, [qubit], num_qubits)
            for b in range(3):
                assert np.array_equal(
                    shared[b],
                    oracles.apply_matrix_1d(
                        states[b], stack[0], [qubit], num_qubits
                    ),
                )
                assert np.array_equal(
                    per_row[b],
                    oracles.apply_matrix_1d(
                        states[b], stack[b], [qubit], num_qubits
                    ),
                )
        assert fast == fast_targets

    def test_matrix_batch_matches_scalar_matrices(self):
        for name in ("RX", "RY", "RZ", "PHASE", "CRX", "CRY", "CRZ", "RZZ"):
            gate = PARAMETRIC_GATES[name]
            thetas = np.linspace(-np.pi, np.pi, 7)
            stack = gate.matrix_batch(thetas)
            for theta, matrix in zip(thetas, stack):
                assert np.array_equal(matrix, gate.matrix(theta)), name

    def test_shared_state_batched_matrices(self):
        """1-D state + (B, d, d) matrices broadcasts the state."""
        rng = np.random.default_rng(12)
        state = self._random_batch(rng, 1, 8)[0]
        ry = PARAMETRIC_GATES["RY"]
        thetas = rng.uniform(0, 2 * np.pi, 3)
        out = apply_matrix(state, ry.matrix_batch(thetas), [1], 3)
        for b in range(3):
            assert np.array_equal(
                out[b], apply_matrix(state, ry.matrix(thetas[b]), [1], 3)
            )

    def test_batched_diagonal_matches_per_row(self):
        rng = np.random.default_rng(13)
        states = self._random_batch(rng, 6, 8)
        rz = PARAMETRIC_GATES["RZ"]
        thetas = rng.uniform(0, 2 * np.pi, 6)
        diagonals = np.diagonal(rz.matrix_batch(thetas), axis1=-2, axis2=-1)
        for qubit in (0, 1, 2):
            out = apply_diagonal(states, diagonals, [qubit], 3)
            for b in range(6):
                row = apply_diagonal(
                    states[b], np.diagonal(rz.matrix(thetas[b])), [qubit], 3
                )
                assert np.array_equal(out[b], row)

    def test_batched_diagonal_unsorted_two_qubit_targets(self):
        rng = np.random.default_rng(14)
        states = self._random_batch(rng, 3, 16)
        cz_diag = np.diagonal(FIXED_GATES["CZ"].matrix())
        for pair in ([0, 1], [3, 1], [2, 0]):
            out = apply_diagonal(states, cz_diag, pair, 4)
            for b in range(3):
                assert np.array_equal(
                    out[b], apply_diagonal(states[b], cz_diag, pair, 4)
                )

    def test_batch_size_mismatch_raises(self):
        rng = np.random.default_rng(15)
        states = self._random_batch(rng, 3, 4)
        rx = PARAMETRIC_GATES["RX"]
        stack = rx.matrix_batch(np.zeros(4))  # 4 matrices vs 3 states
        with pytest.raises(ValueError, match="batch-size mismatch"):
            apply_matrix(states, stack, [0], 2)
        diagonals = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="batch-size mismatch"):
            apply_diagonal(states, diagonals, [0], 2)


class TestSampling:
    def test_sample_shape_and_values(self):
        state = Statevector.uniform_superposition(3)
        bits = state.sample(100, seed=0)
        assert bits.shape == (100, 3)
        assert set(np.unique(bits)) <= {0, 1}

    def test_sample_deterministic_state(self):
        state = Statevector.basis_state("101")
        bits = state.sample(50, seed=1)
        assert np.all(bits == [1, 0, 1])

    def test_sample_statistics(self):
        state = Statevector(np.array([np.sqrt(0.9), np.sqrt(0.1)]))
        bits = state.sample(20000, seed=2)
        assert np.mean(bits) == pytest.approx(0.1, abs=0.01)

    def test_sample_subset_of_qubits(self):
        state = Statevector.basis_state("10")
        bits = state.sample(10, seed=3, qubits=[0])
        assert np.all(bits == 1)

    def test_sample_counts(self):
        counts = Statevector.basis_state("11").sample_counts(25, seed=4)
        assert counts == {"11": 25}

    def test_sample_counts_qubit_subset(self):
        """Regression: sample_counts forwards ``qubits`` to sample."""
        state = Statevector.basis_state("101")
        counts = state.sample_counts(30, seed=5, qubits=[0, 2])
        assert counts == {"11": 30}

    def test_sample_counts_marginal_statistics(self):
        """Counts over a 2-qubit marginal follow the marginal distribution."""
        state = Statevector.uniform_superposition(1).tensor(
            Statevector.basis_state("01")
        )
        counts = state.sample_counts(4000, seed=6, qubits=[1, 2])
        assert set(counts) == {"01"}  # qubits 1,2 are deterministic
        counts = state.sample_counts(4000, seed=7, qubits=[0, 2])
        assert set(counts) == {"01", "11"}
        assert counts["01"] + counts["11"] == 4000
        assert counts["01"] == pytest.approx(2000, abs=150)

    def test_sample_rejects_bad_shots(self):
        with pytest.raises(ValueError):
            Statevector.zero_state(1).sample(0)

    def test_sample_zero_probability_raises_clear_error(self):
        """Regression: a zero-norm buffer raises ValueError, not NaN chaos."""
        state = Statevector.zero_state(2)
        state.data[:] = 0.0  # projector-style manipulation
        with pytest.raises(ValueError, match="zero total"):
            state.sample(10, seed=0)

    def test_sample_zero_probability_marginal_raises(self):
        state = Statevector.basis_state("00")
        state.data[:] = 0.0  # kill all amplitude, then ask for a marginal
        with pytest.raises(ValueError, match="zero total"):
            state.sample(5, qubits=[1])
        with pytest.raises(ValueError, match="zero total"):
            state.sample_counts(5, qubits=[1])


@settings(max_examples=30, deadline=None)
@given(
    num_qubits=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    gate_name=st.sampled_from(["H", "X", "S", "T"]),
    qubit_seed=st.integers(0, 100),
)
def test_unitary_application_preserves_norm(num_qubits, seed, gate_name, qubit_seed):
    """Applying any unitary keeps the state normalized."""
    state = Statevector.random_state(num_qubits, seed=seed)
    qubit = qubit_seed % num_qubits
    gate = FIXED_GATES[gate_name].matrix()
    out = state.apply_gate(gate, [qubit])
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(num_qubits=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_marginal_distributions_are_normalized(num_qubits, seed):
    state = Statevector.random_state(num_qubits, seed=seed)
    for q in range(num_qubits):
        marginal = state.marginal_probabilities([q])
        assert marginal.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(marginal >= -1e-12)
