"""Batched Pauli-transfer simulator: unit + cross-simulator agreement.

The PTM engine is the batched noisy path, so its oracle coverage is the
point of this module:

* exact agreement (per-row tolerance) with the per-circuit
  :class:`DensityMatrixSimulator` on the same noise model;
* statistical agreement (z-test) with the Monte-Carlo
  :class:`TrajectorySimulator`;
* noiseless agreement with the statevector kernels, and trivial-noise
  *routing* identity (``resolve_noise_model`` sends trivial models to
  the noiseless path, so results are bit-identical by construction);
* the shift-rule gradient engines running unchanged on the PTM
  duck-type surface.
"""

import numpy as np
import pytest

from repro.backend import (
    NoiseModel,
    PauliString,
    PauliSum,
    PauliTransferSimulator,
    QuantumCircuit,
    StatevectorSimulator,
    TrajectorySimulator,
    amplitude_damping,
    bit_flip,
    depolarizing,
    density_from_pauli_vector,
    parameter_shift,
    batch_parameter_shift,
    pauli_basis,
    pauli_vector_from_density,
    phase_damping,
    ptm_of_channel,
    ptm_of_unitary,
    ptm_of_unitary_batch,
    zero_projector,
)
from repro.backend.density import DensityMatrix, DensityMatrixSimulator
from repro.backend.statevector import Statevector
from repro.backend.gates import get_gate

from tests.conftest import random_angles


def _noisy_model() -> NoiseModel:
    return NoiseModel(
        default=depolarizing(0.03),
        per_gate={"CX": amplitude_damping(0.08), "CZ": phase_damping(0.05)},
    )


class TestPtmPrimitives:
    def test_pauli_basis_orthogonality(self):
        for n in (1, 2):
            basis = pauli_basis(n)
            dim = 2**n
            gram = np.einsum("iab,jba->ij", basis, basis)
            assert np.allclose(gram, dim * np.eye(4**n))

    def test_ptm_of_hadamard(self):
        # H swaps X<->Z and negates Y in the Heisenberg picture.
        ptm = ptm_of_unitary(get_gate("H").matrix())
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0  # I -> I
        expected[1, 3] = 1.0  # Z -> X
        expected[3, 1] = 1.0  # X -> Z
        expected[2, 2] = -1.0  # Y -> -Y
        assert np.allclose(ptm, expected)

    def test_ptm_is_real(self):
        for name in ("H", "S", "T", "CX", "CZ"):
            ptm = ptm_of_unitary(get_gate(name).matrix())
            assert np.allclose(ptm.imag, 0.0)

    def test_batch_ptm_matches_single(self):
        gate = get_gate("RY")
        thetas = np.array([0.1, 0.7, 2.9])
        stacked = ptm_of_unitary_batch(gate.matrix_batch(thetas))
        for b, theta in enumerate(thetas):
            assert np.allclose(stacked[b], ptm_of_unitary(gate.matrix(theta)))

    def test_channel_ptm_trace_preservation(self):
        # Row 0 of a TP channel's PTM is [1, 0, 0, ...]: identity maps to
        # identity and nothing leaks into it.
        for channel in (bit_flip(0.2), depolarizing(0.3), amplitude_damping(0.4)):
            ptm = ptm_of_channel(channel)
            assert np.allclose(ptm[0], np.eye(4**channel.num_qubits)[0])

    def test_pauli_vector_density_round_trip(self):
        rho = DensityMatrixSimulator(_noisy_model()).run(
            QuantumCircuit(2).h(0).cx(0, 1)
        )
        vector = pauli_vector_from_density(rho)
        assert np.allclose(vector.imag, 0.0)
        back = density_from_pauli_vector(vector, 2)
        assert np.allclose(back.data, rho.data)


class TestAgreementWithDensityMatrix:
    """The batched engine must match exact per-circuit evolution row-wise."""

    def test_single_row_density_match(self, small_trainable_circuit):
        model = _noisy_model()
        params = random_angles(small_trainable_circuit, seed=3)
        exact = DensityMatrixSimulator(model).run(
            small_trainable_circuit, params
        )
        ptm = PauliTransferSimulator(model).density_matrix(
            small_trainable_circuit, params
        )
        assert np.allclose(ptm.data, exact.data, atol=1e-10)

    def test_batch_rows_match_per_circuit_runs(self, small_trainable_circuit):
        model = _noisy_model()
        rows = np.stack(
            [random_angles(small_trainable_circuit, seed=s) for s in range(5)]
        )
        states = PauliTransferSimulator(model).run_batch(
            small_trainable_circuit, rows
        )
        dm = DensityMatrixSimulator(model)
        for b in range(rows.shape[0]):
            exact = pauli_vector_from_density(
                dm.run(small_trainable_circuit, rows[b])
            )
            assert np.allclose(states[b], exact, atol=1e-10)

    def test_expectation_agreement(self, small_trainable_circuit):
        model = _noisy_model()
        params = random_angles(small_trainable_circuit, seed=5)
        obs = PauliSum(
            [
                PauliString(3, "ZZI", coefficient=0.7),
                PauliString(3, "XIY", coefficient=-0.4),
            ]
        )
        assert PauliTransferSimulator(model).expectation(
            small_trainable_circuit, obs, params
        ) == pytest.approx(
            DensityMatrixSimulator(model).expectation(
                small_trainable_circuit, obs, params
            ),
            abs=1e-10,
        )

    def test_probabilities_agreement(self, small_trainable_circuit):
        model = _noisy_model()
        params = random_angles(small_trainable_circuit, seed=7)
        assert np.allclose(
            PauliTransferSimulator(model).probabilities(
                small_trainable_circuit, params
            ),
            DensityMatrixSimulator(model)
            .run(small_trainable_circuit, params)
            .probabilities(),
            atol=1e-10,
        )

    def test_projector_expectation_agreement(self, small_trainable_circuit):
        model = _noisy_model()
        params = random_angles(small_trainable_circuit, seed=9)
        assert PauliTransferSimulator(model).expectation(
            small_trainable_circuit, zero_projector(3), params
        ) == pytest.approx(
            DensityMatrixSimulator(model).expectation(
                small_trainable_circuit, zero_projector(3), params
            ),
            abs=1e-10,
        )

    def test_density_matrix_initial_state(self, bell_circuit):
        model = NoiseModel(default=bit_flip(0.05))
        rho0 = DensityMatrix.maximally_mixed(2)
        exact = DensityMatrixSimulator(model).run(
            bell_circuit, initial_state=rho0
        )
        out = PauliTransferSimulator(model).run(
            bell_circuit, initial_state=rho0
        )
        assert np.allclose(
            density_from_pauli_vector(out, 2).data, exact.data, atol=1e-10
        )


class TestAgreementWithTrajectories:
    def test_trajectory_mean_converges_to_ptm(
        self, assert_unbiased_estimator
    ):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rx(0, value=0.4)
        model = NoiseModel(default=depolarizing(0.05))
        obs = PauliString(2, "ZZ")
        exact = PauliTransferSimulator(model).expectation(circuit, obs)
        sampler = TrajectorySimulator(model)
        estimates = [
            sampler.expectation(circuit, obs, trajectories=200, seed=s)
            for s in range(30)
        ]
        assert_unbiased_estimator(estimates, exact)


class TestNoiselessIdentity:
    def test_noiseless_matches_statevector(
        self, simulator, small_trainable_circuit
    ):
        params = random_angles(small_trainable_circuit, seed=11)
        state = simulator.run(small_trainable_circuit, params)
        ptm = PauliTransferSimulator()
        assert np.allclose(
            ptm.probabilities(small_trainable_circuit, params),
            state.probabilities(),
            atol=1e-10,
        )
        obs = PauliString(3, "ZXZ", coefficient=0.9)
        assert ptm.expectation(
            small_trainable_circuit, obs, params
        ) == pytest.approx(obs.expectation(state), abs=1e-10)

    def test_trivial_noise_routes_to_noiseless_kernels(self):
        # The seam contract: trivial payloads resolve to None, so config
        # consumers build the statevector path — bit-identity with the
        # noiseless engine holds by routing, not by tolerance.
        from repro.core.variance import VarianceConfig, run_variance_shard
        from repro.core.variance import plan_variance_shards

        base = dict(qubit_counts=(2,), num_circuits=3, num_layers=2)
        noiseless = VarianceConfig(**base)
        trivial = VarianceConfig(
            **base,
            noise={"default": {"name": "depolarizing", "probability": 0.0}},
        )
        assert trivial.noise is None  # canonicalized at construction
        shard_a = plan_variance_shards(noiseless, seed=0)[0]
        shard_b = plan_variance_shards(trivial, seed=0)[0]
        out_a = run_variance_shard(noiseless, shard_a)
        out_b = run_variance_shard(trivial, shard_b)
        for method in noiseless.methods:
            assert np.array_equal(
                out_a["gradients"][method], out_b["gradients"][method]
            )


class TestSampledPath:
    def test_sampled_matches_analytic_in_expectation(
        self, assert_unbiased_estimator, small_trainable_circuit
    ):
        model = _noisy_model()
        sim = PauliTransferSimulator(model)
        params = random_angles(small_trainable_circuit, seed=13)
        obs = PauliString(3, "ZZZ")
        exact = sim.expectation(small_trainable_circuit, obs, params)
        estimates = [
            sim.expectation(
                small_trainable_circuit, obs, params, shots=256, seed=s
            )
            for s in range(40)
        ]
        assert_unbiased_estimator(estimates, exact)

    def test_certain_readout_flip(self):
        # readout_error=1.0 flips every recorded bit: the |00...0> state
        # samples as |11...1> deterministically.
        model = NoiseModel(readout_error=1.0)
        sim = PauliTransferSimulator(model)
        circuit = QuantumCircuit(2)
        value = sim.expectation(
            circuit, zero_projector(2), shots=64, seed=0
        )
        assert value == 0.0
        ideal = PauliTransferSimulator().expectation(
            circuit, zero_projector(2), shots=64, seed=0
        )
        assert ideal == 1.0

    def test_readout_error_biases_pauli_estimate(
        self, assert_unbiased_estimator
    ):
        # Bit-flip readout with rate e shrinks <Z> by (1 - 2e).
        e = 0.1
        sim = PauliTransferSimulator(NoiseModel(readout_error=e))
        circuit = QuantumCircuit(1)  # |0>, <Z> = +1 ideally
        obs = PauliString(1, "Z")
        estimates = [
            sim.expectation(circuit, obs, shots=512, seed=s)
            for s in range(40)
        ]
        assert_unbiased_estimator(estimates, 1.0 - 2.0 * e)

    def test_readout_none_and_zero_consume_same_stream(self):
        # readout_error=0.0 must not touch the generator: the noiseless
        # sampled path stays bit-identical whether the model is absent
        # or explicitly trivial.
        sim_none = PauliTransferSimulator()
        sim_zero = PauliTransferSimulator(NoiseModel(readout_error=0.0))
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        obs = PauliString(2, "ZZ")
        a = sim_none.expectation(circuit, obs, shots=128, seed=42)
        b = sim_zero.expectation(circuit, obs, shots=128, seed=42)
        assert a == b

    def test_expectation_batch_sampled_rows(self, small_trainable_circuit):
        sim = PauliTransferSimulator(_noisy_model())
        rows = np.stack(
            [random_angles(small_trainable_circuit, seed=s) for s in range(3)]
        )
        obs = PauliString(3, "ZIZ")
        values = sim.expectation_batch(
            small_trainable_circuit, obs, rows, shots=128, seed=7
        )
        assert values.shape == (3,)
        again = sim.expectation_batch(
            small_trainable_circuit, obs, rows, shots=128, seed=7
        )
        assert np.array_equal(values, again)


class TestGradientEngines:
    """Shift-rule engines run unchanged on the PTM duck-type surface."""

    def test_parameter_shift_matches_finite_difference(
        self, small_trainable_circuit
    ):
        model = _noisy_model()
        sim = PauliTransferSimulator(model)
        params = random_angles(small_trainable_circuit, seed=17)
        obs = PauliString(3, "ZZZ")
        grad = parameter_shift(
            small_trainable_circuit, obs, params, simulator=sim
        )
        eps = 1e-6
        for k in (0, 5, 11):
            up = params.copy()
            up[k] += eps
            down = params.copy()
            down[k] -= eps
            fd = (
                sim.expectation(small_trainable_circuit, obs, up)
                - sim.expectation(small_trainable_circuit, obs, down)
            ) / (2 * eps)
            assert grad[k] == pytest.approx(fd, abs=1e-5)

    def test_batch_parameter_shift_matches_sequential(
        self, small_trainable_circuit
    ):
        sim = PauliTransferSimulator(_noisy_model())
        params = random_angles(small_trainable_circuit, seed=19)
        obs = PauliString(3, "ZZZ")
        sequential = parameter_shift(
            small_trainable_circuit, obs, params, simulator=sim
        )
        batched = batch_parameter_shift(
            small_trainable_circuit, obs, params, simulator=sim
        )
        assert np.allclose(sequential, batched, atol=1e-12)


class TestPlanRuns:
    """The shift-rule fold runs mega-batch plans on the PTM simulator."""

    def test_shared_prefix_fold_matches_shifted_runs(self):
        from repro.ansatz.random_pqc import RandomPQC
        from repro.backend.gradients import megabatch_parameter_shift

        circuit = RandomPQC(3, 3, seed=23).build()
        sim = PauliTransferSimulator(_noisy_model())
        params = np.random.default_rng(24).normal(size=(2, circuit.num_parameters))
        obs = PauliString(3, "ZZZ")
        index = circuit.num_parameters - 1
        grads = batch_parameter_shift(
            circuit, obs, params, simulator=sim, param_indices=[index]
        )
        (mega,) = megabatch_parameter_shift(
            [circuit], obs, [params], simulator=sim, param_indices=[index]
        )
        assert np.array_equal(mega, grads)
        terms = circuit.operations[circuit.parameter_map()[index]].gate.shift_terms
        for row, grad in zip(params, grads):
            shifted = np.repeat(row[None], len(terms), axis=0)
            shifted[:, index] += [shift for _, shift in terms]
            values = sim.expectation_batch(circuit, obs, shifted)
            total = 0.0
            for (coefficient, _), value in zip(terms, values):
                total += coefficient * value
            assert grad[0] == total

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel(default=depolarizing(0.02)),
            NoiseModel(
                default=depolarizing(0.02),
                per_gate={"RZ": None, "CZ": amplitude_damping(0.05)},
            ),
        ],
        ids=["default", "per_gate"],
    )
    def test_multi_circuit_plan_matches_per_circuit_runs(self, model):
        # A shape bucket of three structures: each slot mixes RX, RY and
        # RZ rows, so under the per_gate model its rows carry different
        # channels (RZ rows none).
        from repro.ansatz.random_pqc import RandomPQC
        from repro.backend.gradients import megabatch_parameter_shift

        circuits = [RandomPQC(3, 3, seed=seed).build() for seed in (1, 2, 3)]
        slots = [op.is_trainable for op in circuits[0].operations]
        gates = {
            frozenset(c.operations[pos].gate.name for c in circuits)
            for pos, trainable in enumerate(slots)
            if trainable
        }
        assert any("RZ" in names and len(names) > 1 for names in gates)
        sim = PauliTransferSimulator(model)
        rng = np.random.default_rng(25)
        params = [rng.normal(size=(2, circuits[0].num_parameters)) for _ in circuits]
        obs = PauliString(3, "ZZZ")
        count = circuits[0].num_parameters
        for indices in ([count - 1], [0, count // 2, count - 1]):
            mega = megabatch_parameter_shift(
                circuits, obs, params, simulator=sim, param_indices=indices
            )
            for circuit, rows, got in zip(circuits, params, mega):
                want = batch_parameter_shift(
                    circuit, obs, rows, simulator=sim, param_indices=indices
                )
                assert np.array_equal(got, want)


class TestInheritedEntryPoints:
    """``sample`` and ``unitary`` come from the statevector simulator and
    act on Pauli vectors here."""

    def test_unitary_is_the_transfer_matrix(self, small_trainable_circuit):
        sim = PauliTransferSimulator(_noisy_model())
        params = random_angles(small_trainable_circuit, seed=5)
        transfer = sim.unitary(small_trainable_circuit, params)
        assert transfer.shape == (64, 64)
        zero = pauli_vector_from_density(
            DensityMatrix.from_statevector(Statevector.zero_state(3))
        )
        assert np.allclose(
            transfer @ zero, sim.run(small_trainable_circuit, params), atol=1e-12
        )

    def test_sample_draws_noisy_outcomes_with_readout_error(self):
        circuit = QuantumCircuit(2).x(0)
        ideal = PauliTransferSimulator().sample(circuit, shots=8, seed=1)
        assert np.array_equal(ideal, np.tile([1, 0], (8, 1)))
        flipped = PauliTransferSimulator(NoiseModel(readout_error=1.0)).sample(
            circuit, shots=8, seed=1
        )
        assert np.array_equal(flipped, np.tile([0, 1], (8, 1)))


class TestValidation:
    def test_wrong_param_count_rejected(self, small_trainable_circuit):
        sim = PauliTransferSimulator()
        with pytest.raises(ValueError, match="expected 12 parameters"):
            sim.run(small_trainable_circuit, [0.1, 0.2])

    def test_missing_params_rejected(self, small_trainable_circuit):
        sim = PauliTransferSimulator()
        with pytest.raises(
            ValueError, match="trainable parameters but none were supplied"
        ):
            sim.run(small_trainable_circuit)

    def test_unsupported_observable_type(self, bell_circuit):
        from repro.backend import StateProjector, Statevector

        sim = PauliTransferSimulator()
        target = StateProjector(Statevector.zero_state(2))
        with pytest.raises(TypeError, match="PTM expectation"):
            sim.expectation(bell_circuit, target)

    def test_noise_payload_constructor(self):
        sim = PauliTransferSimulator(
            {"default": {"name": "bit_flip", "probability": 0.1}}
        )
        assert sim.noise_model.channel_for("H").name == "bit_flip"
