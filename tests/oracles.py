"""Sequential one-state reference code, kept as an oracle for the old bits.

The library runs one state as a one-row ``(1, 2**n)`` stack through the
batched kernels and engines.  Before that, it carried a second, sequential
tier for single states: 1-D ``tensordot`` gate kernels, a gate-by-gate
``run`` and ``unitary``, a sequential adjoint sweep, a parameter-shift
loop and a per-state shot sampler.  Their arithmetic lives on here
verbatim — renamed, re-pointed at each other instead of at the library's
kernels, and stripped of input validation — so
``tests/backend/test_one_row_oracle.py`` can assert that every one-row
entry point still carries exactly the bits they produced.

Nothing here calls a library gate kernel: observables whose ``apply``
would (Pauli strings and sums) are applied through the 1-D kernels below.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import PAULI_MATRICES, ParametricGate
from repro.backend.observables import Observable, PauliString, PauliSum, Projector
from repro.backend.statevector import Statevector
from repro.utils.array_api import COMPLEX_DTYPE, FLOAT_DTYPE
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

# -- 1-D kernels -------------------------------------------------------------


def apply_matrix_1d(state, matrix, qubits, num_qubits):
    """The sequential ``apply_matrix`` branch: a flat state, one matrix."""
    k = len(qubits)
    tensor = state.reshape((2,) * num_qubits)
    gate = matrix.reshape((2,) * (2 * k))
    # Contract gate input axes (the trailing k axes of the reshaped gate)
    # with the targeted state axes, then move the gate output axes back.
    tensor = np.tensordot(gate, tensor, axes=(range(k, 2 * k), qubits))
    tensor = np.moveaxis(tensor, range(k), qubits)
    return np.ascontiguousarray(tensor).reshape(-1)


def apply_diagonal_1d(state, diagonal, qubits, num_qubits):
    """The sequential ``apply_diagonal`` branch: a flat state, one diagonal."""
    k = len(qubits)
    tensor = state.reshape((2,) * num_qubits)
    diag = diagonal.reshape((2,) * k)
    # Pad with size-1 axes, then move the diagonal's axes onto the target
    # qubit positions so plain broadcasting applies it elementwise.
    expanded = np.moveaxis(
        diag.reshape(diag.shape + (1,) * (num_qubits - k)), range(k), qubits
    )
    return (tensor * expanded).reshape(-1)


def apply_operation(data, op, params, num_qubits):
    """Apply one circuit operation to a flat amplitude buffer."""
    matrix = op.matrix(params)
    if getattr(op.gate, "is_diagonal", False):
        return apply_diagonal_1d(data, np.diagonal(matrix), op.qubits, num_qubits)
    return apply_matrix_1d(data, matrix, op.qubits, num_qubits)


# -- observables through the 1-D kernels -------------------------------------


def observable_apply(observable: Observable, data: np.ndarray) -> np.ndarray:
    """``O @ data`` for a flat buffer, Pauli letters via the 1-D kernel."""
    if isinstance(observable, PauliString):
        out = data
        for qubit, letter in observable.paulis.items():
            out = apply_matrix_1d(
                out, PAULI_MATRICES[letter], [qubit], observable.num_qubits
            )
        if observable.coefficient != 1.0:
            out = observable.coefficient * out
        elif out is data:
            out = data.copy()
        return out
    if isinstance(observable, PauliSum):
        out = np.zeros_like(data)
        for term in observable.terms:
            out += observable_apply(term, data)
        return out
    # Projectors index or scale amplitudes; no gate kernel involved.
    return observable.apply(data)


def observable_expectation(observable: Observable, state: Statevector) -> float:
    """``Observable.expectation`` with :func:`observable_apply`."""
    if isinstance(observable, (PauliString, PauliSum)):
        return float(
            np.real(np.vdot(state.data, observable_apply(observable, state.data)))
        )
    return observable.expectation(state)


# -- simulator ---------------------------------------------------------------


def _coerce_params(params: Optional[Sequence[float]]) -> Optional[np.ndarray]:
    if params is None:
        return None
    return np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)


def run(
    circuit: QuantumCircuit,
    params: Optional[Sequence[float]] = None,
    initial_state: Optional[Statevector] = None,
) -> Statevector:
    """Gate-by-gate ``StatevectorSimulator.run`` on a flat buffer."""
    param_array = _coerce_params(params)
    if initial_state is None:
        data = np.zeros(2**circuit.num_qubits, dtype=COMPLEX_DTYPE)
        data[0] = 1.0
    else:
        data = initial_state.data.copy()
    for op in circuit.operations:
        data = apply_operation(data, op, param_array, circuit.num_qubits)
    return Statevector(data, validate=False)


def unitary(
    circuit: QuantumCircuit, params: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Column-by-column ``StatevectorSimulator.unitary``."""
    dim = 2**circuit.num_qubits
    param_array = _coerce_params(params)
    columns = np.eye(dim, dtype=COMPLEX_DTYPE)
    out = np.empty((dim, dim), dtype=COMPLEX_DTYPE)
    for col in range(dim):
        data = columns[:, col].copy()
        for op in circuit.operations:
            data = apply_operation(data, op, param_array, circuit.num_qubits)
        out[:, col] = data
    return out


def sampled_expectation(
    state: Statevector,
    observable: Observable,
    shots: int,
    seed,
) -> float:
    """The per-state shot estimator (``_sampled_expectation``)."""
    check_positive_int(shots, "shots")
    rng = ensure_rng(seed)
    if isinstance(observable, Projector):
        bits = state.sample(shots, seed=rng)
        hits = np.all(bits == np.asarray(observable.bits), axis=1)
        return float(np.mean(hits))
    if isinstance(observable, PauliString):
        return sampled_pauli(state, observable, shots, rng)
    if isinstance(observable, PauliSum):
        return float(
            sum(
                sampled_pauli(state, term, shots, rng)
                for term in observable.terms
            )
        )
    raise TypeError(
        f"shot-based estimation is not implemented for {type(observable).__name__}"
    )


def sampled_pauli(
    state: Statevector, term: PauliString, shots: int, rng: np.random.Generator
) -> float:
    """One Pauli term's shot estimate (``_sampled_pauli``)."""
    if term.is_identity:
        return term.coefficient
    rotated = state.data
    for matrix, qubit in term.rotation_matrices():
        rotated = apply_matrix_1d(rotated, matrix, [qubit], state.num_qubits)
    bits = Statevector(rotated, validate=False).sample(shots, seed=rng)
    return float(np.mean(term.eigenvalues_of_bits(bits)))


def expectation(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Optional[Sequence[float]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
) -> float:
    """``StatevectorSimulator.expectation`` on the sequential tier."""
    state = run(circuit, params, initial_state)
    if shots is None:
        return observable_expectation(observable, state)
    return sampled_expectation(state, observable, shots, seed)


# -- gradient engines --------------------------------------------------------


def _resolve_indices(circuit, param_indices):
    if param_indices is None:
        return range(circuit.num_parameters)
    return [int(i) for i in param_indices]


def _adjoint_sweep(
    circuit: QuantumCircuit,
    observable: Observable,
    params: np.ndarray,
    indices: Sequence[int],
    initial_state: Optional[Statevector],
    want_value: bool,
) -> Tuple[Optional[float], np.ndarray]:
    """Sequential adjoint forward pass + backward sweep."""
    wanted = set(indices)
    num_qubits = circuit.num_qubits
    static = circuit.static_matrices()

    # Forward pass.
    final_state = run(circuit, params, initial_state)
    value = observable_expectation(observable, final_state) if want_value else None
    psi = final_state.data.copy()
    lam = observable_apply(observable, psi)

    grads_by_index = {}
    for pos in range(len(circuit.operations) - 1, -1, -1):
        op = circuit.operations[pos]
        if op.is_trainable:
            adjoint = op.matrix(params).conj().T
        else:
            adjoint = static[pos][1]
        # Undo this gate: |psi_k> (state before the gate).
        psi = apply_matrix_1d(psi, adjoint, op.qubits, num_qubits)
        if op.is_trainable and op.param_index in wanted:
            gate = op.gate
            assert isinstance(gate, ParametricGate)
            d_matrix = gate.derivative(float(params[op.param_index]))
            d_psi = apply_matrix_1d(psi, d_matrix, op.qubits, num_qubits)
            grads_by_index[op.param_index] = 2.0 * float(
                np.real(np.vdot(lam, d_psi))
            )
        lam = apply_matrix_1d(lam, adjoint, op.qubits, num_qubits)

    grads = np.array([grads_by_index.get(i, 0.0) for i in indices], dtype=FLOAT_DTYPE)
    return value, grads


def adjoint_gradient(
    circuit, observable, params, param_indices=None, initial_state=None
) -> np.ndarray:
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)
    _, grads = _adjoint_sweep(
        circuit, observable, params, indices, initial_state, want_value=False
    )
    return grads


def adjoint_value_and_gradient(
    circuit, observable, params, param_indices=None, initial_state=None
) -> Tuple[float, np.ndarray]:
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)
    return _adjoint_sweep(
        circuit, observable, params, indices, initial_state, want_value=True
    )


def parameter_shift(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
    simulator=None,
) -> np.ndarray:
    """The sequential shift-rule loop: one execution per shifted vector.

    ``simulator`` (for example a ``PauliTransferSimulator``) supplies the
    per-vector ``expectation``; by default it is :func:`expectation`.
    """
    evaluate = expectation if simulator is None else simulator.expectation
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)
    position_of = circuit.parameter_map()
    rules = [
        circuit.operations[position_of[index]].gate.shift_terms
        for index in indices
    ]
    if shots is not None:
        # One generator consumed across all shifted evaluations keeps the
        # per-evaluation samples independent.
        seed = ensure_rng(seed)

    grads = np.empty(len(indices), dtype=FLOAT_DTYPE)
    for out_slot, (index, terms) in enumerate(zip(indices, rules)):
        total = 0.0
        shifted = params.copy()
        for coefficient, shift in terms:
            shifted[index] = params[index] + shift
            total += coefficient * evaluate(
                circuit,
                observable,
                shifted,
                initial_state=initial_state,
                shots=shots,
                seed=seed,
            )
        grads[out_slot] = total
    return grads
