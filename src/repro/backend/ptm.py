"""Batched noisy execution via ``(B, 4**n)`` Pauli-transfer propagation.

The exact :class:`~repro.backend.density.DensityMatrixSimulator` evolves a
dense ``(2**n, 2**n)`` matrix through every gate and channel one circuit
at a time; the trajectory sampler pays a Monte-Carlo variance instead.
This module gives noisy simulation the same batching story the noiseless
engine has: a mixed state is stored as its *Pauli vector*

``s_j = Tr(P_j rho)``

over the unnormalized Pauli basis (per-qubit digits ``I=0, X=1, Y=2,
Z=3``, qubit 0 the most significant base-4 digit — matching the
statevector module's bit convention), and every unitary or channel acts
on it as a small real matrix, the Pauli-transfer matrix (PTM)

``R_ij = (1/2**k) Tr(P_i E(P_j))``.

The key implementation trick is that a length-``4**n`` Pauli vector *is*
a ``2*n``-qubit amplitude buffer: base-4 digit ``q`` occupies the bit
pair ``(2q, 2q+1)``.  Propagation therefore reuses
:func:`repro.backend.statevector.apply_matrix` verbatim — including the
leading batch axis, per-row ``(B, 4**k, 4**k)`` operand stacks for
trainable gates, and the :class:`~repro.utils.array_api.ArrayBackend`
threading — so a whole batch of parameter rows evolves through a noisy
circuit in one vectorized pass.  Gate and channel PTMs are computed once
and cached (channels on the channel object itself, fixed gates in a
module table keyed by matrix bytes), so a shape bucket pays the
conversion once, not per row.

Readout is exact (``p(b) = Tr(|b><b| rho)`` folds the I/Z components of
the Pauli vector through a per-qubit ``[[1, 1], [1, -1]]`` transform) and
the sampled estimators thread the noise model's classical
``readout_error`` into :func:`sample_basis_bits`.

:class:`PauliTransferSimulator` is a subclass of
:class:`~repro.backend.simulator.StatevectorSimulator` and runs its row
loop (``_run_megabatch_data``) on the doubled register: rows start from
the ``|0...0><0...0|`` Pauli vector, and the program maps every
operation to its PTM followed by the noise model's channel PTMs, with no
fused diagonals.  A trainable slot builds its per-row PTMs by gate code,
so a :class:`~repro.backend.simulator.MegaBatchPlan` of many circuits
runs here too, each row getting its own gate's channel.  The estimation
entry points (``expectation_batch``, ``sampled_expectation_rows``) and
the sampled stages are the statevector's, with this class's rotation
and probability hooks, so the shift-rule fold — ``parameter_shift``, the
``batch_*`` shift engines and ``megabatch_parameter_shift`` on a shape
bucket — runs unmodified under noise, prefix sharing included, and noisy
variance folds shape buckets as noiseless variance does.  Adjoint-family
engines have no non-unitary analogue; the config layer routes noisy runs
to the shift family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.density import DensityMatrix
from repro.backend.noise import KrausChannel, NoiseModel
from repro.backend.observables import (
    Observable,
    PauliString,
    PauliSum,
    Projector,
)
from repro.backend.simulator import (
    MegaBatchPlan,
    StatevectorSimulator,
    _check_observable_width,
)
from repro.backend.statevector import Statevector, apply_matrix
from repro.utils.array_api import (
    COMPLEX_DTYPE,
    FLOAT_DTYPE,
    ArrayBackend,
    array_backend_of,
    is_device_array,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "PauliTransferSimulator",
    "pauli_basis",
    "ptm_of_unitary",
    "ptm_of_unitary_batch",
    "ptm_of_channel",
    "pauli_vector_from_density",
    "density_from_pauli_vector",
]

_PAULI_1Q = np.stack(
    [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
)
_LETTER_DIGIT = {"I": 0, "X": 1, "Y": 2, "Z": 3}

#: Per-qubit fold from (I, Z) Pauli components to (bit=0, bit=1)
#: populations: p(b) = (1/2)(s_I + (-1)^b s_Z) per qubit.
_BIT_FROM_IZ = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=COMPLEX_DTYPE)

_BASIS_CACHE: Dict[int, np.ndarray] = {}
_UNITARY_PTM_CACHE: Dict[Tuple[int, bytes], np.ndarray] = {}
_INITIAL_CACHE: Dict[int, np.ndarray] = {}
_IZ_INDEX_CACHE: Dict[int, np.ndarray] = {}


def pauli_basis(num_qubits: int) -> np.ndarray:
    """``(4**k, 2**k, 2**k)`` stack of unnormalized Pauli words.

    Index ``i`` expands in base 4 (qubit 0 most significant) with digits
    ``I=0, X=1, Y=2, Z=3``.
    """
    check_positive_int(num_qubits, "num_qubits")
    cached = _BASIS_CACHE.get(num_qubits)
    if cached is not None:
        return cached
    if num_qubits == 1:
        basis = _PAULI_1Q
    else:
        left = pauli_basis(num_qubits - 1)
        dim = left.shape[1]
        # kron(A, B)[a*2+c, b*2+d] = A[a, b] * B[c, d]
        basis = np.einsum("iab,jcd->ijacbd", left, _PAULI_1Q).reshape(
            4**num_qubits, 2 * dim, 2 * dim
        )
    _BASIS_CACHE[num_qubits] = basis
    return basis


def ptm_of_unitary(matrix: np.ndarray) -> np.ndarray:
    """PTM of a ``k``-qubit unitary: ``R_ij = Tr(P_i U P_j U^dag)/2**k``."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    k = int(dim).bit_length() - 1
    if dim < 2 or dim & (dim - 1) or matrix.shape != (dim, dim):
        raise ValueError(f"unitary must be square power-of-2, got {matrix.shape}")
    basis = pauli_basis(k)
    conjugated = np.einsum("ab,jbc,dc->jad", matrix, basis, matrix.conj())
    ptm = np.einsum("iab,jba->ij", basis, conjugated) / dim
    # CPTP transfer matrices are real; keep the complex dtype for kernel
    # and device-backend uniformity.
    return np.ascontiguousarray(ptm.real.astype(COMPLEX_DTYPE))


def ptm_of_unitary_batch(matrices: np.ndarray) -> np.ndarray:
    """Per-row PTMs of a ``(B, 2**k, 2**k)`` unitary stack."""
    matrices = np.asarray(matrices, dtype=complex)
    dim = matrices.shape[-1]
    k = int(dim).bit_length() - 1
    basis = pauli_basis(k)
    conjugated = np.einsum(
        "bxy,jyz,bwz->bjxw", matrices, basis, matrices.conj()
    )
    ptms = np.einsum("ixy,bjyx->bij", basis, conjugated) / dim
    return np.ascontiguousarray(ptms.real.astype(COMPLEX_DTYPE))


def ptm_of_channel(channel: KrausChannel) -> np.ndarray:
    """PTM of a Kraus channel, computed once and cached on the channel."""
    cached = getattr(channel, "_ptm_matrix", None)
    if cached is not None:
        return cached
    dim = 2**channel.num_qubits
    basis = pauli_basis(channel.num_qubits)
    accumulated = np.zeros((dim**2, dim**2), dtype=complex)
    for kraus in channel.kraus_operators:
        conjugated = np.einsum("ab,jbc,dc->jad", kraus, basis, kraus.conj())
        accumulated += np.einsum("iab,jba->ij", basis, conjugated)
    ptm = np.ascontiguousarray((accumulated / dim).real.astype(COMPLEX_DTYPE))
    channel._ptm_matrix = ptm
    return ptm


def _cached_unitary_ptm(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    key = (matrix.shape[0], matrix.tobytes())
    cached = _UNITARY_PTM_CACHE.get(key)
    if cached is None:
        if len(_UNITARY_PTM_CACHE) > 4096:
            _UNITARY_PTM_CACHE.clear()
        cached = _UNITARY_PTM_CACHE[key] = ptm_of_unitary(matrix)
    return cached


def _ptm_axes(qubits: Sequence[int]) -> List[int]:
    """Doubled-register axes of the given qudit positions.

    Base-4 digit ``q`` of the Pauli index occupies bits ``(2q, 2q+1)`` of
    the ``2n``-bit flat index, so a ``k``-qubit PTM applies as a
    ``2k``-"qubit" matrix on those bit pairs through ``apply_matrix``.
    """
    axes: List[int] = []
    for qubit in qubits:
        axes.extend((2 * qubit, 2 * qubit + 1))
    return axes


def _initial_pauli_vector(num_qubits: int) -> np.ndarray:
    """Pauli vector of ``|0...0><0...0|``: per-qubit ``[1, 0, 0, 1]``."""
    cached = _INITIAL_CACHE.get(num_qubits)
    if cached is None:
        single = np.array([1.0, 0.0, 0.0, 1.0])
        vector = single
        for _ in range(num_qubits - 1):
            vector = np.kron(vector, single)
        cached = _INITIAL_CACHE[num_qubits] = vector.astype(COMPLEX_DTYPE)
    return cached


def _iz_indices(num_qubits: int) -> np.ndarray:
    """Flat Pauli indices whose digits are all I (0) or Z (3), MSB-first."""
    cached = _IZ_INDEX_CACHE.get(num_qubits)
    if cached is None:
        bits = (
            np.arange(2**num_qubits)[:, None]
            >> np.arange(num_qubits - 1, -1, -1)
        ) & 1
        weights = 4 ** np.arange(num_qubits - 1, -1, -1)
        cached = _IZ_INDEX_CACHE[num_qubits] = (3 * bits * weights).sum(axis=1)
    return cached


def pauli_vector_from_density(rho: DensityMatrix) -> np.ndarray:
    """``s_j = Tr(P_j rho)`` — the PTM representation of a mixed state."""
    basis = pauli_basis(rho.num_qubits)
    return np.einsum("iab,ba->i", basis, rho.data).astype(COMPLEX_DTYPE)


def density_from_pauli_vector(
    vector: np.ndarray, num_qubits: int
) -> DensityMatrix:
    """Inverse of :func:`pauli_vector_from_density` (tests and oracles)."""
    basis = pauli_basis(num_qubits)
    data = np.einsum("i,iab->ab", np.asarray(vector), basis) / 2**num_qubits
    return DensityMatrix(data, validate=False)


def _pauli_word_index(term: PauliString) -> int:
    index = 0
    for qubit in range(term.num_qubits):
        index = index * 4 + _LETTER_DIGIT[term.paulis.get(qubit, "I")]
    return index


class PauliTransferSimulator(StatevectorSimulator):
    """Batched noisy circuit execution on ``(B, 4**n)`` Pauli vectors.

    Parameters
    ----------
    noise_model:
        A :class:`~repro.backend.noise.NoiseModel`, a serialized noise
        payload (``NoiseModel.from_dict`` vocabulary), or ``None`` for an
        ideal device.  Gate channels are applied after every operation to
        each touched qubit, exactly as the trajectory and density-matrix
        simulators do; ``readout_error`` feeds the sampled estimators.
    backend:
        Array backend the kernels run on, as in
        :class:`~repro.backend.simulator.StatevectorSimulator`.

    A subclass of the statevector simulator: ``run_batch``,
    ``run_megabatch``, ``expectation_batch``, ``sampled_expectation_rows``
    and the chunked ``_run_megabatch_data`` are the statevector's own,
    run on a doubled register with this class's default row, program and
    slot step.  So the shift-rule gradient engines run unchanged under
    noise, shape buckets of many circuits included.  States returned by
    :meth:`run` / :meth:`run_batch` are Pauli vectors (complex dtype,
    imaginary part zero), not amplitudes.
    """

    #: A Pauli-vector row is ``4**n = 2**(2n)`` components wide.
    _REGISTER_FACTOR = 2

    def __init__(
        self,
        noise_model: "Optional[NoiseModel | Dict[str, Any]]" = None,
        backend: "Optional[str | ArrayBackend]" = None,
    ) -> None:
        if noise_model is None:
            self.noise_model = NoiseModel()
        elif isinstance(noise_model, NoiseModel):
            self.noise_model = noise_model
        else:
            self.noise_model = NoiseModel.from_dict(noise_model)
        super().__init__(backend)

    @property
    def _readout(self) -> Optional[float]:
        return self.noise_model.readout_error or None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state=None,
    ) -> np.ndarray:
        """Pauli vector ``(4**n,)`` of the noisy output state.

        Row 0 of a one-row :meth:`run_batch`; a shared ``initial_state``
        may be a :class:`DensityMatrix`, a :class:`Statevector` or a
        ``(4**n,)`` Pauli vector.
        """
        row = self._params_row(circuit, params)
        return self.run_batch(circuit, row, initial_state)[0]

    @staticmethod
    def _initial_row(initial_state, num_qubits: int):
        """``|0...0><0...0|``'s Pauli vector by default, a shared state's
        Pauli vector, or ``None`` for a per-row ``(B, 4**n)`` stack."""
        if initial_state is None:
            return _initial_pauli_vector(num_qubits)
        if isinstance(initial_state, DensityMatrix):
            source_qubits = initial_state.num_qubits
            vector = pauli_vector_from_density(initial_state)
        elif isinstance(initial_state, Statevector):
            source_qubits = initial_state.num_qubits
            vector = pauli_vector_from_density(
                DensityMatrix.from_statevector(initial_state)
            )
        elif np.ndim(initial_state) == 2:
            return None
        else:
            vector = np.asarray(initial_state, dtype=COMPLEX_DTYPE)
            if vector.ndim != 1 or vector.shape[0] != 4**num_qubits:
                raise ValueError(
                    f"initial Pauli vector must be ({4**num_qubits},), "
                    f"got shape {vector.shape}"
                )
            source_qubits = num_qubits
        if source_qubits != num_qubits:
            raise ValueError(
                f"initial state has {source_qubits} qubits, "
                f"circuit needs {num_qubits}"
            )
        return vector

    def _program(self, plan: MegaBatchPlan, start: int, stop: int) -> "List[tuple]":
        """One slot step per operation in ``[start, stop)``, none fused.

        A step's payload is ``(op, ptm, channels)``: the operation's PTM
        (``None`` on a trainable slot, whose PTMs are row data), and per
        gate code the PTM of the noise model's channel after that gate
        (``None`` for no or a trivial channel).
        """
        steps = []
        for pos in range(start, stop):
            op = plan.template.operations[pos]
            if op.is_trainable:
                gates, ptm = plan.slot_gates[pos][0], None
            else:
                gates, ptm = [op.gate], _cached_unitary_ptm(op.matrix(None))
            channels = []
            for gate in gates:
                channel = self.noise_model.channel_for(gate.name)
                trivial = channel is None or channel.is_trivial
                channels.append(None if trivial else ptm_of_channel(channel))
            steps.append(("slot", pos, pos + 1, (op, ptm, channels)))
        return steps

    @staticmethod
    def _apply_megabatch_slot(
        plan, pos, payload, data, spare, batch_array, rows, order, backend
    ):
        """Apply one operation's PTM, then its channel on each gate qubit.

        A trainable slot builds its per-row PTMs by gate code
        (:func:`ptm_of_unitary_batch` of each code's rows), and each row
        gets its own gate's channel: when a slot's rows carry different
        channels, each channel's rows are gathered, transformed and
        scattered back, which is exact.  Every kernel returns a fresh
        stack and ``spare`` stays unused: transposed-layout temporaries
        written through ``out=`` are faulted in again on every gate (see
        the statevector's one-gate slots).
        """
        op, ptm, channels = payload
        register = 2 * plan.num_qubits
        if ptm is None:
            gates, codes = plan.slot_gates[pos]
            thetas = batch_array[order, op.param_index]
            if len(gates) == 1:
                ptm = ptm_of_unitary_batch(gates[0].matrix_batch(thetas))
            else:
                row_codes = codes[rows[order]]
                dim = 4 ** len(op.qubits)
                ptm = np.empty((order.size, dim, dim), dtype=COMPLEX_DTYPE)
                for code, gate in enumerate(gates):
                    sel = np.flatnonzero(row_codes == code)
                    if sel.size:
                        ptm[sel] = ptm_of_unitary_batch(
                            gate.matrix_batch(thetas[sel])
                        )
        data = apply_matrix(
            data, ptm, _ptm_axes(op.qubits), register, backend=backend
        )
        uniform = all(channel is channels[0] for channel in channels)
        if uniform and channels[0] is None:
            return data, spare, order
        for qubit in op.qubits:
            axes = _ptm_axes([qubit])
            if uniform:
                data = apply_matrix(data, channels[0], axes, register, backend=backend)
                continue
            for channel in {id(c): c for c in channels if c is not None}.values():
                carries = np.array([c is channel for c in channels])[row_codes]
                sel = np.flatnonzero(carries)
                if sel.size:
                    part = apply_matrix(
                        backend.take_rows(data, sel), channel, axes, register,
                        backend=backend,
                    )
                    backend.put_rows(data, sel, part)
        return data, spare, order

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    @staticmethod
    def _num_qubits_of(states: np.ndarray) -> int:
        width = int(states.shape[-1])
        doubled = width.bit_length() - 1
        if doubled % 2 or 2**doubled != width:
            raise ValueError(
                f"Pauli-vector rows must be 4**n wide, got width {width}"
            )
        return doubled // 2

    def probabilities_rows(self, states: np.ndarray) -> np.ndarray:
        """Basis-outcome distributions ``(B, 2**n)`` of Pauli-vector rows.

        Gathers the I/Z sub-tensor of each row and folds it through the
        per-qubit ``[[1, 1], [1, -1]]`` transform; tiny negative entries
        from floating-point noise are clipped to zero (the sampling
        layer renormalizes).
        """
        if is_device_array(states):
            states = array_backend_of(states).to_numpy(states)
        states = np.asarray(states)
        squeeze = states.ndim == 1
        if squeeze:
            states = states[None, :]
        num_qubits = self._num_qubits_of(states)
        folded = states[:, _iz_indices(num_qubits)]
        for qubit in range(num_qubits):
            folded = apply_matrix(folded, _BIT_FROM_IZ, [qubit], num_qubits)
        probs = np.clip(folded.real / 2**num_qubits, 0.0, None)
        return probs[0] if squeeze else probs

    def probabilities(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state=None,
    ) -> np.ndarray:
        """Computational-basis outcome distribution after the circuit."""
        return self.probabilities_rows(self.run(circuit, params, initial_state))

    def density_matrix(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state=None,
    ) -> DensityMatrix:
        """Dense ``rho`` of the output state (tests / small systems)."""
        return density_from_pauli_vector(
            self.run(circuit, params, initial_state), circuit.num_qubits
        )

    def _analytic_rows(
        self, states: np.ndarray, observable: Observable
    ) -> np.ndarray:
        if is_device_array(states):
            states = array_backend_of(states).to_numpy(states)
        num_qubits = self._num_qubits_of(states)
        _check_observable_width(observable, num_qubits)
        if isinstance(observable, Projector):
            return np.asarray(
                self.probabilities_rows(states)[:, observable.index],
                dtype=FLOAT_DTYPE,
            )
        if isinstance(observable, PauliString):
            terms: Sequence[PauliString] = [observable]
        elif isinstance(observable, PauliSum):
            terms = observable.terms
        else:
            raise TypeError(
                "PTM expectation supports Pauli observables and basis "
                f"projectors, not {type(observable).__name__}"
            )
        total = np.zeros(states.shape[0], dtype=FLOAT_DTYPE)
        for term in terms:
            total += term.coefficient * states[:, _pauli_word_index(term)].real
        return total

    @staticmethod
    def _rotate_rows(states, matrix, qubit: int, num_qubits: int):
        """A basis rotation as its PTM on the qubit's register pair."""
        return apply_matrix(
            states, _cached_unitary_ptm(matrix), _ptm_axes([qubit]), 2 * num_qubits
        )

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params: Optional[Sequence[float]] = None,
        initial_state=None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
    ) -> float:
        """Noisy ``Tr(rho(params) O)``, exact or shot-estimated: row 0 of
        a one-row :meth:`expectation_batch`."""
        row = self._params_row(circuit, params)
        return float(
            self.expectation_batch(
                circuit,
                observable,
                row,
                initial_state,
                shots=shots,
                seed=None if shots is None else [ensure_rng(seed)],
            )[0]
        )
