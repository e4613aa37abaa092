"""Backend conformance suite for the array-API kernel refactor.

Two contracts under test (see :mod:`repro.utils.array_api`):

* the **numpy** backend is bit-identical (``np.array_equal``) to the
  default (no-backend) reference path for every kernel — states,
  expectations, and both gradient engines;
* every **non-numpy** backend matches the reference to device tolerance
  (``DEVICE_RTOL`` / ``DEVICE_ATOL``) and returns host ``np.ndarray``
  results at the public boundaries.

The ``loopback`` backend always runs (it is numpy wearing a device
costume); ``torch``/``cupy`` join the same parametrization when their
library is importable and skip cleanly otherwise.
"""

import importlib.util

import numpy as np
import pytest

from repro.ansatz.random_pqc import RandomPQC
from repro.backend.gradients import (
    batch_adjoint_gradient,
    batch_parameter_shift,
    megabatch_adjoint_gradient,
    megabatch_parameter_shift,
)
from repro.backend.observables import total_z, zero_projector
from repro.backend.simulator import (
    MegaBatchPlan,
    StatevectorSimulator,
    batch_chunk_rows,
)
from repro.backend.statevector import (
    Statevector,
    apply_diagonal,
    apply_matrix,
    marginal_probabilities_batch,
)
from repro.utils.array_api import (
    DEVICE_ATOL,
    DEVICE_RTOL,
    get_array_backend,
)


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


DEVICE_BACKENDS = _device_backend_params()
ALL_BACKENDS = [pytest.param("numpy", id="numpy")] + DEVICE_BACKENDS


def _bucket(num_circuits=4, num_qubits=3, num_layers=4, rows=3, seed=0):
    rng = np.random.default_rng(seed)
    circuits = [
        RandomPQC(num_qubits, num_layers, seed=int(rng.integers(2**31))).build()
        for _ in range(num_circuits)
    ]
    batches = [
        rng.normal(size=(rows, circuits[0].num_parameters)) for _ in circuits
    ]
    return circuits, batches


def _device_close(result, reference):
    np.testing.assert_allclose(
        result, reference, rtol=DEVICE_RTOL, atol=DEVICE_ATOL
    )


class TestPrimitiveConformance:
    """apply_matrix / apply_diagonal / marginals across namespaces."""

    @pytest.fixture()
    def stack(self):
        rng = np.random.default_rng(5)
        num_qubits = 4
        states = rng.normal(size=(6, 2**num_qubits)) + 1j * rng.normal(
            size=(6, 2**num_qubits)
        )
        return states, num_qubits

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    @pytest.mark.parametrize("qubits", [[0], [2], [3], [1, 3], [2, 0]])
    def test_apply_matrix_matches_reference(self, stack, name, qubits):
        states, num_qubits = stack
        backend = get_array_backend(name)
        rng = np.random.default_rng(7)
        dim = 2 ** len(qubits)
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        reference = apply_matrix(states, matrix, qubits, num_qubits)
        device = apply_matrix(
            backend.asarray(states, dtype=backend.complex_dtype),
            matrix,
            qubits,
            num_qubits,
            backend=backend,
        )
        _device_close(backend.to_numpy(device), reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_apply_matrix_batched_operands(self, stack, name):
        states, num_qubits = stack
        backend = get_array_backend(name)
        rng = np.random.default_rng(9)
        matrices = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        reference = apply_matrix(states, matrices, [1], num_qubits)
        device = apply_matrix(
            backend.asarray(states, dtype=backend.complex_dtype),
            matrices,
            [1],
            num_qubits,
            backend=backend,
        )
        _device_close(backend.to_numpy(device), reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_apply_matrix_single_state(self, name):
        backend = get_array_backend(name)
        rng = np.random.default_rng(3)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        reference = apply_matrix(state, matrix, [1], 3)
        device = apply_matrix(
            backend.asarray(state, dtype=backend.complex_dtype),
            matrix,
            [1],
            3,
            backend=backend,
        )
        _device_close(backend.to_numpy(device), reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    @pytest.mark.parametrize("qubits", [[0], [3], [1, 2]])
    def test_apply_diagonal_matches_reference(self, stack, name, qubits):
        states, num_qubits = stack
        backend = get_array_backend(name)
        rng = np.random.default_rng(13)
        diag = np.exp(1j * rng.normal(size=2 ** len(qubits)))
        reference = apply_diagonal(states, diag, qubits, num_qubits)
        device = apply_diagonal(
            backend.asarray(states, dtype=backend.complex_dtype),
            diag,
            qubits,
            num_qubits,
            backend=backend,
        )
        _device_close(backend.to_numpy(device), reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    @pytest.mark.parametrize("qubits", [[0], [2, 0], [1, 3]])
    def test_marginals_match_reference(self, stack, name, qubits):
        states, num_qubits = stack
        backend = get_array_backend(name)
        reference = marginal_probabilities_batch(states, qubits, num_qubits)
        device = marginal_probabilities_batch(
            backend.asarray(states, dtype=backend.complex_dtype),
            qubits,
            num_qubits,
            backend=backend,
        )
        _device_close(backend.to_numpy(device), reference)


class TestOutBuffers:
    """``out=``: a kernel writes the allocating call's bytes into a
    caller-owned buffer and returns it."""

    WIDE = 12
    #: Every single-qubit target (both single-qubit layouts) plus
    #: two-qubit targets in and out of order.
    TARGETS = [[q] for q in range(WIDE)] + [[0, 11], [5, 2], [10, 11]]

    @pytest.fixture(scope="class")
    def states(self):
        rng = np.random.default_rng(17)
        shape = (3, 2**self.WIDE)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
    @pytest.mark.parametrize(
        "kernel", [apply_matrix, apply_diagonal], ids=["dense", "diagonal"]
    )
    def test_out_holds_the_allocating_bytes(self, states, name, per_row, kernel):
        backend = get_array_backend(name)
        data = backend.asarray(states, dtype=backend.complex_dtype)
        out = backend.zeros(states.shape, backend.complex_dtype)
        rng = np.random.default_rng(19)
        for qubits in self.TARGETS:
            dim = 2 ** len(qubits)
            shape = (dim,) if kernel is apply_diagonal else (dim, dim)
            if per_row:
                shape = (states.shape[0],) + shape
            operand = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            expected = kernel(data, operand, qubits, self.WIDE, backend=backend)
            written = kernel(
                data, operand, qubits, self.WIDE, backend=backend, out=out
            )
            assert written is out
            assert (
                backend.to_numpy(out).tobytes()
                == backend.to_numpy(expected).tobytes()
            ), qubits

    @pytest.mark.parametrize("name", ["numpy", "loopback"])
    @pytest.mark.parametrize(
        "kernel", [apply_matrix, apply_diagonal], ids=["dense", "diagonal"]
    )
    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((16, 3), dtype=np.complex128).T,
            np.zeros((4, 16), dtype=np.complex128),
            np.zeros((3, 16), dtype=np.complex64),
        ],
        ids=["not-contiguous", "wrong-shape", "wrong-dtype"],
    )
    def test_unusable_out_raises(self, name, kernel, bad):
        backend = get_array_backend(name)
        states = backend.asarray(np.ones((3, 16), dtype=np.complex128))
        operand = np.ones(2) if kernel is apply_diagonal else np.eye(2)
        if name == "loopback":
            bad = bad.view(type(states))
        with pytest.raises(ValueError, match="out must be"):
            kernel(states, operand, [1], 4, backend=backend, out=bad)


class TestTargetChecks:
    """Repeated or out-of-range targets raise one ``ValueError`` before
    any reshape, on the reference path and on every device route."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "kernel", [apply_matrix, apply_diagonal], ids=["dense", "diagonal"]
    )
    @pytest.mark.parametrize(
        "qubits", [[1, 1], [3], [5], [-1], [0, 3]],
        ids=["repeated", "past-end", "far-past-end", "negative", "one-bad"],
    )
    def test_bad_targets_raise(self, name, kernel, qubits):
        backend = get_array_backend(name)
        states = backend.asarray(
            np.ones((2, 8), dtype=np.complex128), dtype=backend.complex_dtype
        )
        dim = 2 ** len(qubits)
        operand = np.ones(dim) if kernel is apply_diagonal else np.eye(dim)
        with pytest.raises(ValueError, match="must be distinct indices"):
            kernel(states, operand, qubits, 3, backend=backend)
        with pytest.raises(ValueError, match="must be distinct indices"):
            kernel(states[0], operand, qubits, 3, backend=backend)


class TestNumpyBitIdentity:
    """StatevectorSimulator(backend="numpy") must equal the default exactly."""

    def test_run_batch(self):
        circuits, batches = _bucket()
        reference = StatevectorSimulator().run_batch(circuits[0], batches[0])
        explicit = StatevectorSimulator(backend="numpy").run_batch(
            circuits[0], batches[0]
        )
        assert np.array_equal(reference, explicit)

    def test_run_megabatch(self):
        circuits, batches = _bucket()
        plan = MegaBatchPlan(circuits)
        params = np.concatenate(batches)
        rows = np.concatenate(
            [np.full(len(b), i) for i, b in enumerate(batches)]
        )
        reference = StatevectorSimulator().run_megabatch(plan, params, rows)
        explicit = StatevectorSimulator(backend="numpy").run_megabatch(
            plan, params, rows
        )
        assert np.array_equal(reference, explicit)

    def test_batch_adjoint_gradient(self):
        circuits, batches = _bucket()
        observable = zero_projector(3)
        reference = batch_adjoint_gradient(
            circuits[0], observable, batches[0], simulator=StatevectorSimulator()
        )
        explicit = batch_adjoint_gradient(
            circuits[0],
            observable,
            batches[0],
            simulator=StatevectorSimulator(backend="numpy"),
        )
        assert np.array_equal(reference, explicit)

    def test_batch_parameter_shift(self):
        circuits, batches = _bucket()
        observable = total_z(3)
        reference = batch_parameter_shift(
            circuits[0], observable, batches[0], simulator=StatevectorSimulator()
        )
        explicit = batch_parameter_shift(
            circuits[0],
            observable,
            batches[0],
            simulator=StatevectorSimulator(backend="numpy"),
        )
        assert np.array_equal(reference, explicit)

    def test_megabatch_gradients(self):
        circuits, batches = _bucket()
        observable = zero_projector(3)
        for engine in (megabatch_adjoint_gradient, megabatch_parameter_shift):
            reference = engine(
                circuits, observable, batches, simulator=StatevectorSimulator()
            )
            explicit = engine(
                circuits,
                observable,
                batches,
                simulator=StatevectorSimulator(backend="numpy"),
            )
            for ref, got in zip(reference, explicit):
                assert np.array_equal(ref, got)

    def test_sampled_expectations(self):
        circuits, batches = _bucket()
        observable = total_z(3)
        reference = StatevectorSimulator().expectation_batch(
            circuits[0], observable, batches[0], shots=64, seed=19
        )
        explicit = StatevectorSimulator(backend="numpy").expectation_batch(
            circuits[0], observable, batches[0], shots=64, seed=19
        )
        assert np.array_equal(reference, explicit)


class TestDeviceConformance:
    """Non-numpy backends: device tolerance, host results, residency."""

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_run_returns_statevector(self, name):
        circuits, batches = _bucket()
        simulator = StatevectorSimulator(backend=name)
        state = simulator.run(circuits[0], batches[0][0])
        reference = StatevectorSimulator().run(circuits[0], batches[0][0])
        assert isinstance(state, Statevector)
        assert type(state.data) is np.ndarray
        _device_close(state.data, reference.data)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_run_batch(self, name):
        circuits, batches = _bucket()
        simulator = StatevectorSimulator(backend=name)
        states = simulator.run_batch(circuits[0], batches[0])
        reference = StatevectorSimulator().run_batch(circuits[0], batches[0])
        assert type(states) is np.ndarray
        _device_close(states, reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_run_batch_with_initial_state(self, name):
        circuits, batches = _bucket()
        initial = Statevector.random_state(3, seed=21)
        states = StatevectorSimulator(backend=name).run_batch(
            circuits[0], batches[0], initial_state=initial
        )
        reference = StatevectorSimulator().run_batch(
            circuits[0], batches[0], initial_state=initial
        )
        _device_close(states, reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_run_batch_chunked(self, name):
        # More rows than one device chunk exercises the concatenate path.
        circuits, _ = _bucket(num_qubits=3)
        simulator = StatevectorSimulator(backend=name)
        rows = batch_chunk_rows(3, simulator.backend) + 5
        rng = np.random.default_rng(23)
        params = rng.normal(size=(rows, circuits[0].num_parameters))
        states = simulator.run_batch(circuits[0], params)
        reference = StatevectorSimulator().run_batch(circuits[0], params)
        assert states.shape == reference.shape
        _device_close(states, reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_run_megabatch(self, name):
        circuits, batches = _bucket()
        plan = MegaBatchPlan(circuits)
        params = np.concatenate(batches)
        rows = np.concatenate(
            [np.full(len(b), i) for i, b in enumerate(batches)]
        )
        states = StatevectorSimulator(backend=name).run_megabatch(
            plan, params, rows
        )
        reference = StatevectorSimulator().run_megabatch(plan, params, rows)
        assert type(states) is np.ndarray
        _device_close(states, reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_expectation_batch_analytic_and_sampled(self, name):
        circuits, batches = _bucket()
        observable = total_z(3)
        device = StatevectorSimulator(backend=name)
        reference = StatevectorSimulator()
        _device_close(
            device.expectation_batch(circuits[0], observable, batches[0]),
            reference.expectation_batch(circuits[0], observable, batches[0]),
        )
        # Sampling stays host-side: same seed => identical draws, because
        # the amplitudes the generator consumes agree to device tolerance
        # and the multinomial path runs on staged host arrays.
        sampled_device = device.expectation_batch(
            circuits[0], observable, batches[0], shots=32, seed=5
        )
        sampled_reference = reference.expectation_batch(
            circuits[0], observable, batches[0], shots=32, seed=5
        )
        _device_close(sampled_device, sampled_reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_batch_adjoint_gradient(self, name):
        circuits, batches = _bucket()
        observable = zero_projector(3)
        device = batch_adjoint_gradient(
            circuits[0],
            observable,
            batches[0],
            simulator=StatevectorSimulator(backend=name),
        )
        reference = batch_adjoint_gradient(
            circuits[0], observable, batches[0], simulator=StatevectorSimulator()
        )
        assert type(device) is np.ndarray
        _device_close(device, reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_batch_parameter_shift(self, name):
        circuits, batches = _bucket()
        observable = total_z(3)
        device = batch_parameter_shift(
            circuits[0],
            observable,
            batches[0],
            simulator=StatevectorSimulator(backend=name),
        )
        reference = batch_parameter_shift(
            circuits[0], observable, batches[0], simulator=StatevectorSimulator()
        )
        _device_close(device, reference)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    @pytest.mark.parametrize(
        "engine", [megabatch_adjoint_gradient, megabatch_parameter_shift]
    )
    def test_megabatch_gradients(self, name, engine):
        circuits, batches = _bucket()
        observable = zero_projector(3)
        device = engine(
            circuits,
            observable,
            batches,
            simulator=StatevectorSimulator(backend=name),
        )
        reference = engine(
            circuits, observable, batches, simulator=StatevectorSimulator()
        )
        assert len(device) == len(reference)
        for ref, got in zip(reference, device):
            assert type(got) is np.ndarray
            _device_close(got, ref)

    @pytest.mark.parametrize("name", DEVICE_BACKENDS)
    def test_chunk_rows_scale_with_backend_budget(self, name):
        backend = get_array_backend(name)
        host_rows = batch_chunk_rows(8)
        device_rows = batch_chunk_rows(8, backend)
        assert device_rows == max(1, backend.chunk_bytes // (16 * 2**8))
        if backend.chunk_bytes > 8 * 2**20:
            assert device_rows > host_rows
