"""One state is a one-row stack: every single-state entry point against
the sequential code it replaced.

The library once ran single states through a separate sequential tier
(1-D ``tensordot`` kernels, a gate-by-gate ``run``, a sequential adjoint
sweep, a shift-rule loop, a per-state sampler) and kept that tier
bit-identical to the batched one with a runtime BLAS probe.  Those bodies
now live in ``tests/oracles.py``; this module asserts with
``np.array_equal`` that each one-row entry point carries exactly their
bits, and each kernel call too.  It takes over the probe's job: on a
BLAS build where the single-qubit fast path's narrow GEMM slices and a
full-width GEMM disagree, these tests fail instead of the library
silently switching layouts.  A circuit whose rotation slots fuse into
one Kronecker GEMM is held to ``oracles.FUSED_ATOL`` instead
(``oracles.assert_oracle_match``); the hardware-efficient ansatz forms
no group and stays bit for bit.  Adjoint gradients take the tolerance
on every circuit: the sweep reads each derivative off a transition
matrix, not the oracle's derivative stack and inner product.
"""

import importlib.util

import numpy as np
import pytest

import oracles
from repro.ansatz.hea import HardwareEfficientAnsatz
from repro.ansatz.random_pqc import RandomPQC
from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import FIXED_GATES, PARAMETRIC_GATES
from repro.backend.gradients import (
    adjoint_gradient,
    adjoint_value_and_gradient,
    parameter_shift,
)
from repro.backend.noise import NoiseModel, depolarizing
from repro.backend.observables import (
    PauliString,
    PauliSum,
    StateProjector,
    total_z,
    zero_projector,
)
from repro.backend.ptm import PauliTransferSimulator
from repro.backend.simulator import StatevectorSimulator
from repro.backend.statevector import Statevector, apply_diagonal, apply_matrix
from repro.utils.array_api import DEVICE_ATOL, DEVICE_RTOL, get_array_backend

WIDE = 12


def _device_backend_params():
    params = [pytest.param("loopback", id="loopback")]
    for name in ("torch", "cupy"):
        marks = []
        if importlib.util.find_spec(name) is None:
            marks.append(
                pytest.mark.skip(reason=f"optional namespace {name!r} not installed")
            )
        params.append(pytest.param(name, id=name, marks=marks))
    return params


def _random_state(rng, num_qubits):
    dim = 2**num_qubits
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return raw / np.linalg.norm(raw)


def _random_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _single_qubit_matrices(rng):
    return {
        "H": FIXED_GATES["H"].matrix(),
        "SX": FIXED_GATES["SX"].matrix(),
        "RX": PARAMETRIC_GATES["RX"].matrix(0.83),
        "RY": PARAMETRIC_GATES["RY"].matrix(-2.1),
        "RY_adjoint": PARAMETRIC_GATES["RY"].matrix(-2.1).conj().T,
        "random": _random_unitary(rng, 2),
    }


def _mixed_circuit():
    """Five qubits: fixed, trainable and bound gates, non-adjacent and
    reversed targets, diagonal and dense, one to three qubits wide."""
    circuit = QuantumCircuit(5)
    circuit.h(0).h(3).rx(1).ry(4).cx(3, 1).rz(2).crx(4, 0)
    circuit.append("RZZ", (0, 3)).append("PHASE", (2,), value=0.7)
    circuit.cz(4, 1).swap(0, 2).append("CCX", (2, 0, 4)).append("RXX", (3, 1))
    circuit.cry(1, 2).append("RYY", (4, 0)).crz(2, 3).ry(0, value=-0.4)
    circuit.append("CSWAP", (1, 4, 0)).rx(2).append("PHASE", (4,))
    return circuit


def _circuits():
    return [
        pytest.param(_mixed_circuit(), id="mixed5"),
        pytest.param(RandomPQC(4, 6, seed=3).build(), id="random4"),
        pytest.param(RandomPQC(9, 3, seed=5).build(), id="random9"),
        pytest.param(HardwareEfficientAnsatz(4, 3).build(), id="hea4"),
    ]


def _match(circuit, actual, desired):
    """``actual`` against the oracle's ``desired``: bit for bit unless
    the circuit's slots fuse."""
    oracles.assert_oracle_match(
        actual, desired, oracles.fuses(circuit.execution_plan())
    )


def _params(circuit, seed=0):
    return np.random.default_rng(seed).uniform(
        -np.pi, np.pi, circuit.num_parameters
    )


def _observables(num_qubits):
    mixed = PauliSum(
        [
            PauliString(num_qubits, {0: "X", num_qubits - 1: "Y"}, 0.75),
            PauliString(num_qubits, {}, -0.25),
            PauliString(num_qubits, {1: "Z", 2: "X"}, -1.5),
        ]
    )
    return {
        "total_z": total_z(num_qubits),
        "zero_projector": zero_projector(num_qubits),
        "pauli_string": PauliString(num_qubits, {0: "Y", 1: "X"}, -0.5),
        "pauli_sum": mixed,
    }


class TestKernels:
    @pytest.mark.parametrize("cap", [None, 2**14], ids=["capped", "uncapped"])
    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
    def test_apply_matrix_at_every_target_of_every_width(
        self, monkeypatch, cap, rows, per_row
    ):
        """Every single-qubit target of 2 to 14 qubits, so each layout and
        every switch between them (``rest`` against 64, ``2**q`` against
        the slice cap) meets the full-width sequential GEMM.  One row is
        a flat state; per-row operands give every row its own matrix."""
        import repro.backend.statevector as statevector

        if cap is not None:
            monkeypatch.setattr(statevector, "_FAST_PATH_MAX_SLICES", cap)
        rng = np.random.default_rng(12)
        ry = PARAMETRIC_GATES["RY"]
        for width in range(2, 15):
            states = np.stack([_random_state(rng, width) for _ in range(rows)])
            if per_row:
                operands = [
                    ry.matrix_batch(rng.uniform(-np.pi, np.pi, rows)),
                    np.stack([_random_unitary(rng, 2) for _ in range(rows)]),
                ]
            else:
                operands = list(_single_qubit_matrices(rng).values())
            for operand in operands:
                for qubit in range(width):
                    out = apply_matrix(
                        states[0] if rows == 1 else states, operand, [qubit], width
                    ).reshape(rows, -1)
                    for b in range(rows):
                        matrix = operand[b] if per_row else operand
                        assert np.array_equal(
                            out[b],
                            oracles.apply_matrix_1d(
                                states[b], matrix, [qubit], width
                            ),
                        ), (width, qubit, b)

    def test_apply_matrix_multi_qubit_targets(self):
        rng = np.random.default_rng(13)
        state = _random_state(rng, WIDE)
        two = _random_unitary(rng, 4)
        three = _random_unitary(rng, 8)
        for pair in [(0, 1), (1, 0), (0, 11), (11, 0), (5, 9), (10, 3)]:
            assert np.array_equal(
                apply_matrix(state, two, pair, WIDE),
                oracles.apply_matrix_1d(state, two, pair, WIDE),
            ), pair
        for triple in [(0, 1, 2), (11, 4, 7), (2, 10, 0)]:
            assert np.array_equal(
                apply_matrix(state, three, triple, WIDE),
                oracles.apply_matrix_1d(state, three, triple, WIDE),
            ), triple

    def test_apply_diagonal_at_every_target_of_a_wide_register(self):
        rng = np.random.default_rng(14)
        state = _random_state(rng, WIDE)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        rzz = np.diagonal(PARAMETRIC_GATES["RZZ"].matrix(0.37))
        for qubit in range(WIDE):
            assert np.array_equal(
                apply_diagonal(state, phase, [qubit], WIDE),
                oracles.apply_diagonal_1d(state, phase, [qubit], WIDE),
            ), qubit
        for pair in [(0, 1), (3, 0), (0, 11), (11, 6)]:
            assert np.array_equal(
                apply_diagonal(state, rzz, pair, WIDE),
                oracles.apply_diagonal_1d(state, rzz, pair, WIDE),
            ), pair

    @pytest.mark.parametrize("backend_name", _device_backend_params())
    def test_device_kernels_run_a_flat_state_as_one_row(self, backend_name):
        backend = get_array_backend(backend_name)
        rng = np.random.default_rng(15)
        num_qubits = 8
        host = _random_state(rng, num_qubits)
        state = backend.asarray(host, dtype=backend.complex_dtype)
        matrix = _random_unitary(rng, 2)
        diagonal = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        for qubit in range(num_qubits):
            out = apply_matrix(state, matrix, [qubit], num_qubits)
            assert backend.owns(out) and tuple(out.shape) == (2**num_qubits,)
            np.testing.assert_allclose(
                backend.to_numpy(out),
                oracles.apply_matrix_1d(host, matrix, [qubit], num_qubits),
                rtol=DEVICE_RTOL,
                atol=DEVICE_ATOL,
            )
        for pair in [(0, 7), (5, 2)]:
            out = apply_diagonal(state, diagonal, pair, num_qubits)
            assert backend.owns(out) and tuple(out.shape) == (2**num_qubits,)
            np.testing.assert_allclose(
                backend.to_numpy(out),
                oracles.apply_diagonal_1d(host, diagonal, pair, num_qubits),
                rtol=DEVICE_RTOL,
                atol=DEVICE_ATOL,
            )


@pytest.mark.parametrize("circuit", _circuits())
class TestSimulator:
    def test_run(self, circuit):
        params = _params(circuit)
        _match(
            circuit,
            StatevectorSimulator().run(circuit, params).data,
            oracles.run(circuit, params).data,
        )

    def test_run_from_an_initial_state(self, circuit):
        params = _params(circuit, seed=1)
        start = Statevector.random_state(circuit.num_qubits, seed=2)
        _match(
            circuit,
            StatevectorSimulator().run(circuit, params, start).data,
            oracles.run(circuit, params, start).data,
        )

    def test_unitary(self, circuit):
        if circuit.num_qubits > 6:
            pytest.skip("dense unitaries are for small registers")
        params = _params(circuit, seed=3)
        _match(
            circuit,
            StatevectorSimulator().unitary(circuit, params),
            oracles.unitary(circuit, params),
        )

    def test_analytic_expectation(self, circuit):
        params = _params(circuit, seed=4)
        simulator = StatevectorSimulator()
        observables = dict(_observables(circuit.num_qubits))
        observables["state_projector"] = StateProjector(
            Statevector.random_state(circuit.num_qubits, seed=9)
        )
        for observable in observables.values():
            _match(
                circuit,
                simulator.expectation(circuit, observable, params),
                oracles.expectation(circuit, observable, params),
            )

    def test_sampled_expectation(self, circuit):
        params = _params(circuit, seed=5)
        simulator = StatevectorSimulator()
        for name, observable in _observables(circuit.num_qubits).items():
            ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
            assert simulator.expectation(
                circuit, observable, params, shots=64, seed=ours
            ) == oracles.expectation(
                circuit, observable, params, shots=64, seed=theirs
            ), name
            # The caller's generator is consumed exactly as far.
            assert ours.random() == theirs.random(), name


@pytest.mark.parametrize("circuit", _circuits())
class TestGradients:
    @pytest.mark.parametrize("param_indices", [None, "reversed", "repeated"])
    def test_adjoint_gradient(self, circuit, param_indices):
        params = _params(circuit, seed=7)
        last = circuit.num_parameters - 1
        indices = {
            None: None,
            "reversed": [last, 0, 1],
            "repeated": [1, last, 1],
        }[param_indices]
        for observable in _observables(circuit.num_qubits).values():
            oracles.assert_oracle_match(
                adjoint_gradient(
                    circuit, observable, params, param_indices=indices
                ),
                oracles.adjoint_gradient(
                    circuit, observable, params, param_indices=indices
                ),
                fused=True,
            )

    def test_adjoint_value_and_gradient(self, circuit):
        params = _params(circuit, seed=8)
        for observable in _observables(circuit.num_qubits).values():
            value, grads = adjoint_value_and_gradient(circuit, observable, params)
            expected_value, expected_grads = oracles.adjoint_value_and_gradient(
                circuit, observable, params
            )
            # The value is the forward pass's; the sweep reads gradients
            # off transition matrices, which round unlike the oracle's
            # derivative stack and inner product.
            _match(circuit, value, expected_value)
            oracles.assert_oracle_match(grads, expected_grads, fused=True)

    def test_analytic_parameter_shift(self, circuit):
        params = _params(circuit, seed=9)
        for observable in _observables(circuit.num_qubits).values():
            _match(
                circuit,
                parameter_shift(circuit, observable, params),
                oracles.parameter_shift(circuit, observable, params),
            )

    def test_sampled_parameter_shift(self, circuit):
        params = _params(circuit, seed=10)
        indices = [0, circuit.num_parameters - 1]
        for observable in _observables(circuit.num_qubits).values():
            ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
            assert np.array_equal(
                parameter_shift(
                    circuit, observable, params, param_indices=indices,
                    shots=32, seed=ours,
                ),
                oracles.parameter_shift(
                    circuit, observable, params, param_indices=indices,
                    shots=32, seed=theirs,
                ),
            )
            assert ours.random() == theirs.random()


class TestNoisyParameterShift:
    """Under noise the shift loop ran one ``PauliTransferSimulator``
    execution per shifted vector; the fold must carry the same bits."""

    @pytest.mark.parametrize("shots", [None, 48])
    def test_matches_the_shift_loop(self, shots):
        circuit = RandomPQC(3, 3, seed=21).build()
        params = _params(circuit, seed=12)
        simulator = PauliTransferSimulator(
            NoiseModel(
                default=depolarizing(0.02),
                per_gate={"CZ": depolarizing(0.05)},
                readout_error=0.01,
            )
        )
        observable = zero_projector(3)
        ours, theirs = np.random.default_rng(13), np.random.default_rng(13)
        expected = oracles.parameter_shift(
            circuit, observable, params, shots=shots, seed=theirs,
            simulator=simulator,
        )
        assert np.array_equal(
            parameter_shift(
                circuit, observable, params, simulator=simulator,
                shots=shots, seed=ours,
            ),
            expected,
        )
        assert ours.random() == theirs.random()
