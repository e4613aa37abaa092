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

:class:`PauliTransferSimulator` duck-types the slice of
:class:`~repro.backend.simulator.StatevectorSimulator` the gradient
engines consume (``expectation``, ``expectation_batch``, ``run_batch``,
``sampled_expectation_rows``, and the chunked ``_run_megabatch_data``
over a one-circuit :class:`~repro.backend.simulator.MegaBatchPlan`, with
its operation range, per-row initial stacks and per-chunk reductions), so
the shift-rule fold — ``parameter_shift``, the ``batch_*`` shift engines,
and ``megabatch_parameter_shift`` on a one-circuit bucket — runs
unmodified under noise, prefix sharing included.  A plan of several
circuits raises ``ValueError``: per-row gate tables have no
Pauli-transfer program yet, so noisy variance keeps its per-structure
fold.  Adjoint-family engines have no non-unitary analogue; the config
layer routes noisy runs to the shift family.
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
from repro.backend.simulator import MegaBatchPlan, _RowSimulator, batch_chunk_rows
from repro.backend.statevector import (
    Statevector,
    apply_matrix,
    sample_basis_bits,
)
from repro.utils.array_api import (
    COMPLEX_DTYPE,
    FLOAT_DTYPE,
    ArrayBackend,
    array_backend_of,
    is_device_array,
    resolve_array_backend,
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


class PauliTransferSimulator(_RowSimulator):
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

    The public surface mirrors the statevector simulator's estimation
    slice (``expectation``, ``expectation_batch``, ``run_batch``,
    ``sampled_expectation_rows``, plus the one-circuit
    ``_run_megabatch_data``), which is the exact duck-type contract of the
    shift-rule gradient engines — they run unchanged on top of this
    class.  States returned by :meth:`run` / :meth:`run_batch` are
    Pauli vectors (complex dtype, imaginary part zero), not amplitudes.
    """

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
        self.backend = resolve_array_backend(backend)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state=None,
    ) -> np.ndarray:
        """Pauli vector ``(4**n,)`` of the noisy output state."""
        row = self._params_row(circuit, params)
        return self.run_batch(circuit, row, initial_state)[0]

    def run_batch(
        self,
        circuit: QuantumCircuit,
        params_batch: Sequence[Sequence[float]],
        initial_state=None,
    ) -> np.ndarray:
        """Evolve ``B`` parameter rows through the noisy circuit at once.

        Returns the ``(B, 4**n)`` Pauli-vector stack; row ``b`` matches
        the exact density-matrix evolution of ``params_batch[b]`` within
        numerical tolerance (and is bit-identical across batch sizes and
        chunk boundaries — rows are independent).
        """
        batch = self._coerce_params_batch(circuit, params_batch)
        data = self._run_megabatch_data(
            circuit.execution_plan(),
            batch,
            np.zeros(batch.shape[0], dtype=np.intp),
            initial_state,
        )
        backend = self.backend
        return data if backend.is_numpy else backend.to_numpy(data)

    def _run_megabatch_data(
        self,
        plan: MegaBatchPlan,
        params_batch: Sequence[Sequence[float]],
        row_circuits: Sequence[int],
        initial_state=None,
        start: int = 0,
        stop: Optional[int] = None,
        initial_rows: Optional[np.ndarray] = None,
        estimate: Optional[tuple] = None,
    ):
        """Run a one-circuit plan's operations ``[start, stop)`` under noise.

        Takes ``StatevectorSimulator._run_megabatch_data``'s arguments, so
        the shift-rule fold's prefix and suffix runs work here too; rows
        run in chunks at the doubled register width.  A shared
        ``initial_state`` may also be a :class:`DensityMatrix` or a
        ``(4**n,)`` Pauli vector.  A plan of several circuits raises
        ``ValueError``: per-row gate tables have no PTM program.
        """
        if plan.num_circuits != 1:
            raise ValueError(
                "PauliTransferSimulator runs one-circuit plans only; got a "
                f"plan of {plan.num_circuits} circuits"
            )
        batch_array, _, start, stop = self._check_plan_run(
            plan, params_batch, row_circuits, start, stop
        )
        operations = plan.template.operations[start:stop]
        num_qubits = plan.num_qubits
        batch = batch_array.shape[0]
        backend = self.backend
        per_row = not isinstance(
            initial_state, (type(None), DensityMatrix, Statevector)
        ) and np.ndim(initial_state) == 2
        if per_row:
            initial = self._per_row_stack(
                initial_state, initial_rows, batch, 4**num_qubits
            )
        elif initial_rows is not None:
            raise ValueError("initial_rows needs a per-row initial stack")
        else:
            vector = (
                _initial_pauli_vector(num_qubits)
                if initial_state is None
                else self._coerce_initial_vector(initial_state, num_qubits)
            )
            initial = backend.asarray(vector, dtype=backend.complex_dtype)
        # A Pauli-vector row is 4**n = 2**(2n) wide; reuse the shared
        # chunking policy at the doubled register width.
        chunk = batch_chunk_rows(2 * num_qubits, backend)
        parts = []
        for first in range(0, batch, chunk):
            last = min(first + chunk, batch)
            if not per_row:
                data = backend.tile_rows(initial, last - first)
            elif initial_rows is not None:
                data = backend.take_rows(initial, initial_rows[first:last])
            else:
                data = backend.copy(initial[first:last])
            for op in operations:
                data = self._apply_operation(
                    data, op, batch_array[first:last], num_qubits
                )
            if estimate:
                self._estimate_rows(data, np.arange(first, last), *estimate)
                # Hold the reduced chunk while the next one runs: freed
                # first, it leaves the top of the heap free, and glibc
                # returns that memory and faults it back in on every
                # chunk (glibc, 2-core x86-64: a 7-qubit fold of 128
                # rows took 107k minor faults instead of 28k, and 1.4x
                # the time).
                parts = [data]
            else:
                parts.append(data)
        if estimate:
            return None
        return parts[0] if len(parts) == 1 else backend.concatenate(parts)

    @staticmethod
    def _coerce_initial_vector(initial_state, num_qubits: int) -> np.ndarray:
        if isinstance(initial_state, DensityMatrix):
            source_qubits = initial_state.num_qubits
            vector = pauli_vector_from_density(initial_state)
        elif isinstance(initial_state, Statevector):
            source_qubits = initial_state.num_qubits
            vector = pauli_vector_from_density(
                DensityMatrix.from_statevector(initial_state)
            )
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

    def _apply_operation(self, data, op, batch_array, num_qubits):
        backend = self.backend
        doubled = 2 * num_qubits
        axes = _ptm_axes(op.qubits)
        if op.is_trainable:
            matrices = op.gate.matrix_batch(batch_array[:, op.param_index])
            ptms = ptm_of_unitary_batch(matrices)
            data = apply_matrix(data, ptms, axes, doubled, backend=backend)
        else:
            ptm = _cached_unitary_ptm(op.matrix(None))
            data = apply_matrix(data, ptm, axes, doubled, backend=backend)
        channel = self.noise_model.channel_for(op.gate.name)
        if channel is None or channel.is_trivial:
            return data
        channel_ptm = ptm_of_channel(channel)
        for qubit in op.qubits:
            data = apply_matrix(
                data,
                channel_ptm,
                _ptm_axes([qubit]),
                doubled,
                backend=backend,
            )
        return data

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
        if observable.num_qubits != num_qubits:
            raise ValueError(
                f"observable acts on {observable.num_qubits} qubits, "
                f"states have {num_qubits}"
            )
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

    # ------------------------------------------------------------------
    # estimation (the gradient engines' duck-type surface)
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
        """Noisy ``Tr(rho(params) O)``, exact or shot-estimated."""
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

    def expectation_batch(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params_batch: Sequence[Sequence[float]],
        initial_state=None,
        shots: Optional[int] = None,
        seed: "SeedLike | Sequence[SeedLike]" = None,
    ) -> np.ndarray:
        """Noisy ``<O>`` for every row of ``params_batch`` in one call.

        Rows are executed and reduced in chunks of the shared
        :func:`~repro.backend.simulator.batch_chunk_rows` policy at the
        doubled register width (``_run_megabatch_data(..., estimate=)``),
        so a stack of any height never holds more than one chunk of
        ``4**n``-wide Pauli vectors.
        """
        return self._expectations(
            circuit, observable, params_batch, initial_state, shots, seed
        )

    def _sampling_stages(self, states: np.ndarray, observable: Observable):
        """Per-term draw closures, as the statevector simulator's.

        Per-term basis rotations apply as PTMs, probabilities come from
        :meth:`probabilities_rows`, and the noise model's
        ``readout_error`` flips each recorded bit with that probability,
        drawn from the same per-row generator after the outcome draw.
        """
        num_qubits = self._num_qubits_of(states)
        if observable.num_qubits != num_qubits:
            raise ValueError(
                f"observable acts on {observable.num_qubits} qubits, "
                f"states have {num_qubits}"
            )
        readout = self.noise_model.readout_error or None
        if isinstance(observable, Projector):
            probs = self.probabilities_rows(states)
            target_bits = np.asarray(observable.bits)

            def projector_stage(row, rng, shots):
                bits = sample_basis_bits(
                    probs[row], shots, rng, num_qubits, readout_error=readout
                )
                return float(np.mean(np.all(bits == target_bits, axis=1)))

            return [projector_stage]
        if isinstance(observable, PauliString):
            terms = [observable]
        elif isinstance(observable, PauliSum):
            terms = observable.terms
        else:
            raise TypeError(
                "shot-based estimation is not implemented for "
                f"{type(observable).__name__}"
            )
        doubled = 2 * num_qubits
        stages = []
        for term in terms:
            if term.is_identity:
                stages.append(lambda row, rng, shots, c=term.coefficient: c)
                continue
            rotated = states
            for matrix, qubit in term.rotation_matrices():
                rotated = apply_matrix(
                    rotated,
                    _cached_unitary_ptm(matrix),
                    _ptm_axes([qubit]),
                    doubled,
                )
            term_probs = self.probabilities_rows(rotated)

            def pauli_stage(row, rng, shots, probs=term_probs, term=term):
                bits = sample_basis_bits(
                    probs[row], shots, rng, num_qubits, readout_error=readout
                )
                return float(np.mean(term.eigenvalues_of_bits(bits)))

            stages.append(pauli_stage)
        return stages
