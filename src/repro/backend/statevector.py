"""Statevector representation and gate-application kernels.

The state of an ``n``-qubit register is a complex vector of length ``2**n``.
Qubit 0 is the most significant bit of the basis-state index (the same
convention as PennyLane's ``default.qubit``), so ``|10>`` on two qubits is
index 2.

The hot path — applying a ``k``-qubit gate — reshapes the state into an
``n``-dimensional tensor of shape ``(2,) * n`` and contracts the gate over
the targeted axes with :func:`numpy.tensordot`; diagonal gates use a cheaper
elementwise multiply.

Array backends
--------------
Every kernel also runs on a pluggable array namespace
(:mod:`repro.utils.array_api`): passing ``backend=`` — or simply passing
arrays owned by a non-numpy backend — routes the computation through a
generic on-namespace implementation mirroring the reference transpose
layout.  Plain ``np.ndarray`` inputs take the exact pre-refactor numpy
code path (including the probed single-qubit fast path), so the default
backend stays bit-identical to the seed kernels; non-numpy backends are
held to the device-tolerance contract documented in
:mod:`repro.utils.array_api`.  Sampling is host-side always: device
amplitude stacks are staged through one ``to_numpy`` conversion before
any generator is consumed.

Batched execution
-----------------
:func:`apply_matrix` and :func:`apply_diagonal` also broadcast over a
leading batch axis: passing a ``(B, 2**n)`` amplitude buffer (optionally
with per-element gate matrices ``(B, 2**k, 2**k)`` / diagonals
``(B, 2**k)``) evolves ``B`` states through the gate in one vectorized
call.  Per batch element the arithmetic is the same GEMM the sequential
path performs, so batched and sequential evolution of identical inputs
produce bit-identical amplitudes — the property the variance experiment's
``batched`` mode relies on.  :meth:`StatevectorSimulator.run_batch` builds
on these kernels.

Measurement sampling has a batched form too: :meth:`Statevector.sample_batch`
/ :meth:`Statevector.sample_counts_batch` draw per-row multinomial samples
from one ``(B, 2**k)`` marginal probability matrix
(:func:`marginal_probabilities_batch`), one independent generator per row,
bit-identical row by row to the scalar :meth:`Statevector.sample` — the
substrate of the simulator's sampled ``expectation_batch`` path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.array_api import (
    COMPLEX_DTYPE,
    ArrayBackend,
    array_backend_of,
    is_device_array,
)
from repro.utils.rng import SeedLike, ensure_rng, resolve_rngs
from repro.utils.validation import check_positive_int, check_qubit_index

__all__ = [
    "Statevector",
    "apply_matrix",
    "apply_diagonal",
    "sample_basis_bits",
    "marginal_probabilities_batch",
]


def _batch_size(state: np.ndarray, operand: np.ndarray, batched_operand: bool) -> int:
    """Resolve the common batch size of a state/operand pair (see callers)."""
    sizes = set()
    if state.ndim == 2:
        sizes.add(state.shape[0])
    elif state.ndim != 1:
        raise ValueError(
            f"state must be 1-D or (batch, dim) 2-D, got shape {state.shape}"
        )
    if batched_operand:
        sizes.add(operand.shape[0])
    if not sizes:
        raise ValueError(
            f"gate operand has unsupported shape {operand.shape} for a 1-D state"
        )
    if len(sizes) > 1:
        raise ValueError(
            f"batch-size mismatch: state has {state.shape[0]}, "
            f"operand has {operand.shape[0]}"
        )
    return sizes.pop()


def _device_backend(
    array, backend: "Optional[ArrayBackend]"
) -> "Optional[ArrayBackend]":
    """Resolve the non-numpy backend a kernel call should run on.

    ``None`` means "take the numpy reference path" — chosen when the
    caller passed a numpy (or no) backend and the array is a plain
    ``np.ndarray``.  The ``type`` check (not ``isinstance``) keeps the
    hot numpy path at one pointer comparison and routes ndarray
    *subclasses* (the loopback backend's arrays) through the generic
    device implementation.
    """
    if backend is not None:
        return None if backend.is_numpy else backend
    if type(array) is np.ndarray:
        return None
    owner = array_backend_of(array)
    return None if owner.is_numpy else owner


#: Per-``(num_qubits, qubit)`` verdicts of the runtime probe below.
_FAST_SINGLE_QUBIT_OK: "dict[Tuple[int, int], bool]" = {}

#: Most ``(2, 2) @ (2, rest)`` slices per row the single-qubit fast path
#: takes on; each slice is one small matmul dispatch, so many slices of
#: few amplitudes lose to the transpose layout.  Registers of 10 qubits or
#: fewer never exceed 64 slices on the fast path, so the cap leaves them
#: as they were.  Lifting it made a 14-qubit lock-step panel 1.21x and a
#: 12/14-qubit batched variance grid 1.07x slower
#: (``BENCH_batched_adjoint.json``, 2-core x86-64, numpy 2.4 OpenBLAS).
_FAST_PATH_MAX_SLICES = 64


def _fast_single_qubit_ok(num_qubits: int, qubit: int) -> bool:
    """Whether the single-qubit stacked-matmul layout is bit-safe here.

    For a gate on ``qubit`` the fast path in :func:`apply_matrix`
    contracts ``(2, 2) @ (2, 2**(n-q-1))`` GEMM slices, while the
    sequential 1-D path contracts one full-width ``(2, 2) @ (2, 2**(n-1))``
    GEMM.  Whether those two widths produce identical bits depends on the
    numpy/BLAS build's per-shape kernel selection, so the first use of
    each exact ``(num_qubits, qubit)`` geometry probes both layouts —
    fast slices against the real sequential kernel — on a fixed input
    and caches the verdict.  A mismatching platform silently falls back
    to the reference transpose layout instead of breaking the library's
    batched-equals-sequential contract.
    """
    key = (num_qubits, qubit)
    verdict = _FAST_SINGLE_QUBIT_OK.get(key)
    if verdict is None:
        rest = 2 ** (num_qubits - qubit - 1)
        rng = np.random.default_rng(0x5EED)
        states = rng.normal(size=(2, 2**num_qubits)) + 1j * rng.normal(
            size=(2, 2**num_qubits)
        )
        matrices = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        blocks = states.reshape(2, 2**qubit, 2, rest)
        fast_shared = np.matmul(matrices[0], blocks).reshape(2, -1)
        fast_stacked = np.matmul(matrices[:, None, :, :], blocks).reshape(2, -1)
        sequential_shared = np.stack(
            [
                apply_matrix(states[b], matrices[0], [qubit], num_qubits)
                for b in range(2)
            ]
        )
        sequential_stacked = np.stack(
            [
                apply_matrix(states[b], matrices[b], [qubit], num_qubits)
                for b in range(2)
            ]
        )
        verdict = np.array_equal(fast_shared, sequential_shared) and np.array_equal(
            fast_stacked, sequential_stacked
        )
        _FAST_SINGLE_QUBIT_OK[key] = verdict
    return verdict


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Apply a ``k``-qubit unitary to ``state`` and return the new vector.

    Parameters
    ----------
    state:
        Flat complex array of length ``2**num_qubits``, or a batch of
        ``B`` such vectors with shape ``(B, 2**num_qubits)``.
    matrix:
        ``(2**k, 2**k)`` matrix acting on ``qubits`` (most significant
        gate qubit first), or a per-batch-element stack of shape
        ``(B, 2**k, 2**k)``.  A 2-D matrix combined with a batched state
        is shared across the batch; a 3-D matrix with a 1-D state
        broadcasts the state.
    qubits:
        Distinct target qubit indices.
    num_qubits:
        Total number of qubits in ``state``.
    backend:
        Optional :class:`~repro.utils.array_api.ArrayBackend`.  Omitted,
        it is inferred from ``state``'s type; numpy takes the reference
        path, anything else the generic on-namespace path (``matrix``
        is staged with ``backend.asarray`` when host-built).

    Returns
    -------
    numpy.ndarray
        The evolved amplitudes, with the same leading batch axis (if any)
        as the inputs.
    """
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"target qubits must be distinct, got {tuple(qubits)}")
    device = _device_backend(state, backend)
    if device is not None:
        return _apply_matrix_device(state, matrix, qubits, num_qubits, device)
    if state.ndim == 1 and matrix.ndim == 2:
        tensor = state.reshape((2,) * num_qubits)
        gate = matrix.reshape((2,) * (2 * k))
        # Contract gate input axes (the trailing k axes of the reshaped gate)
        # with the targeted state axes, then move the gate output axes back.
        tensor = np.tensordot(gate, tensor, axes=(range(k, 2 * k), qubits))
        tensor = np.moveaxis(tensor, range(k), qubits)
        return np.ascontiguousarray(tensor).reshape(-1)

    batch = _batch_size(state, matrix, matrix.ndim == 3)
    states = state if state.ndim == 2 else np.broadcast_to(state, (batch, state.size))
    if k == 1:
        # Single-qubit fast path: viewing the stack as
        # (batch, 2**q, 2, rest) puts the target axis where a stacked
        # matmul contracts it directly — no transpose copies, one output
        # allocation.  The inner (2, 2) @ (2, rest) GEMM slices must
        # carry the same bits as the sequential kernel for the library's
        # bit-identity contract to hold; that is a property of the BLAS
        # build, so it is verified once per ``rest`` size at runtime
        # (:func:`_fast_single_qubit_ok`) rather than assumed.  Each
        # slice costs a fixed dispatch, so narrow blocks (< 8) and rows
        # of more than ``_FAST_PATH_MAX_SLICES`` slices (targets past
        # qubit 6, only above 10 qubits) lose to the transpose layout.
        q = qubits[0]
        rest = 2 ** (num_qubits - q - 1)
        if (
            rest >= 8
            and 2**q <= _FAST_PATH_MAX_SLICES
            and _fast_single_qubit_ok(num_qubits, q)
        ):
            blocks = states.reshape(batch, 2**q, 2, rest)
            stacked = (
                matrix if matrix.ndim == 2 else matrix[:, None, :, :]
            )
            return np.matmul(stacked, blocks).reshape(batch, -1)
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    # Bring the targeted axes up front (after the batch axis) so every
    # batch element is the same (2**k, rest) matrix the sequential kernel
    # contracts — one GEMM per element via the stacked matmul below.
    # Explicit transpose permutations (rather than np.moveaxis) keep the
    # per-gate Python overhead low on this hot path.
    target_set = set(q + 1 for q in qubits)
    forward = (
        [0]
        + [q + 1 for q in qubits]
        + [ax for ax in range(1, num_qubits + 1) if ax not in target_set]
    )
    inverse = [0] * (num_qubits + 1)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    tensor = tensor.transpose(forward).reshape(batch, 2**k, -1)
    tensor = np.matmul(matrix, tensor)
    tensor = tensor.reshape((batch,) + (2,) * num_qubits).transpose(inverse)
    return np.ascontiguousarray(tensor).reshape(batch, -1)


def _apply_matrix_device(
    state, matrix, qubits: Sequence[int], num_qubits: int, b: ArrayBackend
):
    """Generic on-namespace :func:`apply_matrix`.

    Mirrors the reference transpose layout exactly (never the probed
    single-qubit fast path — that shortcut's bit-safety is a numpy/BLAS
    property); host-built operands are staged once per call.
    """
    k = len(qubits)
    matrix = b.asarray(matrix, dtype=b.complex_dtype)
    if state.ndim == 1 and matrix.ndim == 2:
        tensor = b.reshape(state, (2,) * num_qubits)
        gate = b.reshape(matrix, (2,) * (2 * k))
        tensor = b.tensordot(
            gate, tensor, axes=(tuple(range(k, 2 * k)), tuple(qubits))
        )
        return b.reshape(
            b.moveaxis(tensor, tuple(range(k)), tuple(qubits)), (-1,)
        )
    batch = _batch_size(state, matrix, matrix.ndim == 3)
    states = (
        state
        if state.ndim == 2
        else b.broadcast_to(state, (batch, int(state.shape[0])))
    )
    tensor = b.reshape(states, (batch,) + (2,) * num_qubits)
    target_set = set(q + 1 for q in qubits)
    forward = (
        [0]
        + [q + 1 for q in qubits]
        + [ax for ax in range(1, num_qubits + 1) if ax not in target_set]
    )
    inverse = [0] * (num_qubits + 1)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    tensor = b.reshape(b.permute(tensor, forward), (batch, 2**k, -1))
    tensor = b.matmul(matrix, tensor)
    tensor = b.permute(
        b.reshape(tensor, (batch,) + (2,) * num_qubits), inverse
    )
    return b.reshape(tensor, (batch, -1))


def apply_diagonal(
    state: np.ndarray,
    diagonal: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Apply a diagonal gate given its diagonal entries (length ``2**k``).

    Accepts the same batched layouts as :func:`apply_matrix`: ``state``
    may be ``(B, 2**n)`` and ``diagonal`` may be ``(B, 2**k)``.  The
    ``backend`` parameter follows :func:`apply_matrix`.
    """
    k = len(qubits)
    device = _device_backend(state, backend)
    if device is not None:
        return _apply_diagonal_device(
            state, diagonal, qubits, num_qubits, device
        )
    if state.ndim == 1 and diagonal.ndim == 1:
        tensor = state.reshape((2,) * num_qubits)
        diag = diagonal.reshape((2,) * k)
        # Pad with size-1 axes, then move the diagonal's axes onto the target
        # qubit positions so plain broadcasting applies it elementwise.
        expanded = np.moveaxis(
            diag.reshape(diag.shape + (1,) * (num_qubits - k)), range(k), qubits
        )
        return (tensor * expanded).reshape(-1)

    batch = _batch_size(state, diagonal, diagonal.ndim == 2)
    states = state if state.ndim == 2 else np.broadcast_to(state, (batch, state.size))
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    lead = diagonal.shape[0] if diagonal.ndim == 2 else 1
    diag = diagonal.reshape((lead,) + (2,) * k + (1,) * (num_qubits - k))
    # Transpose the (batch, diag axes, padding) layout so diag axis ``i``
    # lands on state axis ``qubits[i] + 1`` and broadcasting applies the
    # entries elementwise (explicit permutation — see apply_matrix).
    order = [0] + list(range(k + 1, num_qubits + 1))
    for destination, source in sorted(zip((q + 1 for q in qubits), range(1, k + 1))):
        order.insert(destination, source)
    expanded = diag.transpose(order)
    return (tensor * expanded).reshape(batch, -1)


def _apply_diagonal_device(
    state, diagonal, qubits: Sequence[int], num_qubits: int, b: ArrayBackend
):
    """Generic on-namespace :func:`apply_diagonal` (reference layout)."""
    k = len(qubits)
    diagonal = b.asarray(diagonal, dtype=b.complex_dtype)
    if state.ndim == 1 and diagonal.ndim == 1:
        tensor = b.reshape(state, (2,) * num_qubits)
        diag = b.reshape(diagonal, (2,) * k + (1,) * (num_qubits - k))
        expanded = b.moveaxis(diag, tuple(range(k)), tuple(qubits))
        return b.reshape(tensor * expanded, (-1,))
    batch = _batch_size(state, diagonal, diagonal.ndim == 2)
    states = (
        state
        if state.ndim == 2
        else b.broadcast_to(state, (batch, int(state.shape[0])))
    )
    tensor = b.reshape(states, (batch,) + (2,) * num_qubits)
    lead = int(diagonal.shape[0]) if diagonal.ndim == 2 else 1
    diag = b.reshape(
        diagonal, (lead,) + (2,) * k + (1,) * (num_qubits - k)
    )
    order = [0] + list(range(k + 1, num_qubits + 1))
    for destination, source in sorted(
        zip((q + 1 for q in qubits), range(1, k + 1))
    ):
        order.insert(destination, source)
    expanded = b.permute(diag, order)
    return b.reshape(tensor * expanded, (batch, -1))


def sample_basis_bits(
    probs: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    num_bits: int,
    readout_error: Optional[float] = None,
) -> np.ndarray:
    """Draw ``shots`` basis outcomes from an (unnormalized) distribution.

    The core of every sampling path — scalar and batched — so that a
    batched draw from row ``b`` of a probability matrix consumes ``rng``
    exactly as the scalar :meth:`Statevector.sample` would: normalize,
    one ``rng.choice`` call, then unpack the flat outcomes into a
    ``(shots, num_bits)`` array of 0/1 ints (most significant bit first).

    ``readout_error`` models a symmetric classical bit-flip on each
    measured bit: with probability ``p`` per bit, the recorded outcome is
    inverted.  The flips are drawn from ``rng`` *after* the outcome draw
    and only when ``readout_error`` is truthy, so passing ``None``/``0``
    consumes the generator exactly as before — the bit-identity contract
    every noiseless path relies on.

    Raises
    ------
    ValueError
        If the distribution's total probability is zero or non-finite.
    """
    total = probs.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError(
            "cannot sample: the marginal distribution has zero total "
            f"probability (sum={total!r}); the state is not normalizable "
            "over the requested qubits (e.g. after projector-style "
            "manipulation of .data)"
        )
    probs = probs / total
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    bits = (
        (outcomes[:, None] >> np.arange(num_bits - 1, -1, -1)) & 1
    ).astype(np.int8)
    if readout_error:
        flips = rng.random(size=bits.shape) < readout_error
        bits = bits ^ flips.astype(np.int8)
    return bits


def marginal_probabilities_batch(
    states: np.ndarray, qubits: Sequence[int], num_qubits: int,
    backend: Optional[ArrayBackend] = None,
) -> np.ndarray:
    """Marginal distributions of every row of a ``(B, 2**n)`` stack.

    The batched counterpart of :meth:`Statevector.marginal_probabilities`:
    one vectorized pass builds the full ``(B, 2**k)`` probability matrix,
    row ``b`` bit-identical to the scalar method on ``states[b]``.  On a
    non-numpy backend the probabilities stay on-namespace (callers
    convert at their own staging point).
    """
    for qubit in qubits:
        check_qubit_index(qubit, num_qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    keep = list(qubits)
    drop = [q for q in range(num_qubits) if q not in set(keep)]
    current = sorted(keep)
    perm = [0] + [current.index(q) + 1 for q in keep]
    device = _device_backend(states, backend)
    if device is not None:
        b = device
        batch = int(states.shape[0])
        tensor = b.reshape(b.abs_sq(states), (batch,) + (2,) * num_qubits)
        marginal = (
            b.sum(tensor, axis=tuple(axis + 1 for axis in drop))
            if drop
            else tensor
        )
        return b.reshape(b.permute(marginal, perm), (batch, -1))
    probs = np.abs(states) ** 2
    tensor = probs.reshape((states.shape[0],) + (2,) * num_qubits)
    marginal = (
        tensor.sum(axis=tuple(axis + 1 for axis in drop)) if drop else tensor
    )
    return np.transpose(marginal, perm).reshape(states.shape[0], -1)


def _bits_to_counts(bits: np.ndarray) -> "dict[str, int]":
    """Aggregate a ``(shots, k)`` bit array into ``{bitstring: count}``."""
    counts: "dict[str, int]" = {}
    for row in bits:
        key = "".join(str(b) for b in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _coerce_states_matrix(states: np.ndarray) -> Tuple[np.ndarray, int]:
    """Validate a ``(B, 2**n)`` amplitude stack; return it with ``n``.

    Device-backend stacks are staged to the host here — the single
    ``to_numpy`` point in front of every (host-side) sampling path.
    """
    if is_device_array(states):
        states = array_backend_of(states).to_numpy(states)
    states = np.asarray(states, dtype=COMPLEX_DTYPE)
    if states.ndim != 2:
        raise ValueError(
            f"states must be 2-D (batch, 2**num_qubits), got shape "
            f"{states.shape}"
        )
    dim = states.shape[1]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(
            f"statevector length must be a power of 2, got {dim}"
        )
    return states, int(dim).bit_length() - 1


class Statevector:
    """An immutable-by-convention pure quantum state.

    Most methods return new :class:`Statevector` objects; the raw buffer is
    reachable via :attr:`data` for performance-sensitive code (simulator
    internals) but should not be mutated by callers.
    """

    __slots__ = ("data", "num_qubits")

    def __init__(self, data: Union[np.ndarray, Sequence[complex]], validate: bool = True):
        array = np.asarray(data, dtype=COMPLEX_DTYPE).reshape(-1)
        size = array.size
        if size == 0 or size & (size - 1):
            raise ValueError(f"statevector length must be a power of 2, got {size}")
        self.data = array
        self.num_qubits = int(size).bit_length() - 1
        if validate and not np.isclose(self.norm(), 1.0, atol=1e-8):
            raise ValueError(f"statevector is not normalized (norm={self.norm():.6g})")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """The all-zeros computational basis state ``|0...0>``."""
        check_positive_int(num_qubits, "num_qubits")
        data = np.zeros(2**num_qubits, dtype=COMPLEX_DTYPE)
        data[0] = 1.0
        return cls(data, validate=False)

    @classmethod
    def basis_state(cls, bits: Union[str, Iterable[int]]) -> "Statevector":
        """Computational basis state from a bitstring, e.g. ``"010"``."""
        bit_list = [int(b) for b in bits]
        if not bit_list or any(b not in (0, 1) for b in bit_list):
            raise ValueError(f"bits must be a non-empty 0/1 sequence, got {bits!r}")
        index = 0
        for bit in bit_list:
            index = (index << 1) | bit
        data = np.zeros(2 ** len(bit_list), dtype=COMPLEX_DTYPE)
        data[index] = 1.0
        return cls(data, validate=False)

    @classmethod
    def uniform_superposition(cls, num_qubits: int) -> "Statevector":
        """The state ``H^(x)n |0...0>``."""
        check_positive_int(num_qubits, "num_qubits")
        dim = 2**num_qubits
        return cls(np.full(dim, 1.0 / np.sqrt(dim), dtype=COMPLEX_DTYPE), validate=False)

    @classmethod
    def random_state(cls, num_qubits: int, seed: SeedLike = None) -> "Statevector":
        """Haar-random pure state (Gaussian amplitudes, normalized)."""
        check_positive_int(num_qubits, "num_qubits")
        rng = ensure_rng(seed)
        dim = 2**num_qubits
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return cls(raw / np.linalg.norm(raw), validate=False)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self.data.size

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self.data))

    def copy(self) -> "Statevector":
        """Deep copy."""
        return Statevector(self.data.copy(), validate=False)

    def amplitude(self, bits: Union[str, int, Iterable[int]]) -> complex:
        """Amplitude of a basis state given as bitstring or flat index."""
        if isinstance(bits, (int, np.integer)):
            return complex(self.data[int(bits)])
        index = 0
        for bit in (int(b) for b in bits):
            index = (index << 1) | bit
        return complex(self.data[index])

    def probabilities(self) -> np.ndarray:
        """Probability of each computational basis state (length ``2**n``)."""
        return np.abs(self.data) ** 2

    def probability_of(self, bits: Union[str, int, Iterable[int]]) -> float:
        """Probability of one basis outcome."""
        return float(abs(self.amplitude(bits)) ** 2)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Marginal distribution over a subset of qubits (given order)."""
        for qubit in qubits:
            check_qubit_index(qubit, self.num_qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError("qubits must be distinct")
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        keep = list(qubits)
        drop = [q for q in range(self.num_qubits) if q not in set(keep)]
        marginal = probs.sum(axis=tuple(drop)) if drop else probs
        # ``sum`` preserves the relative order of the kept axes; permute to
        # the caller's requested order.
        current = sorted(keep)
        perm = [current.index(q) for q in keep]
        return np.transpose(marginal, perm).reshape(-1)

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def inner(self, other: "Statevector") -> complex:
        """Inner product ``<self|other>``."""
        self._check_compatible(other)
        return complex(np.vdot(self.data, other.data))

    def fidelity(self, other: "Statevector") -> float:
        """``|<self|other>|**2``."""
        return float(abs(self.inner(other)) ** 2)

    def tensor(self, other: "Statevector") -> "Statevector":
        """Tensor product ``self (x) other`` (self's qubits first)."""
        return Statevector(np.kron(self.data, other.data), validate=False)

    def apply_gate(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "Statevector":
        """Return the state after applying ``matrix`` to ``qubits``."""
        for qubit in qubits:
            check_qubit_index(qubit, self.num_qubits)
        data = apply_matrix(self.data, matrix, qubits, self.num_qubits)
        return Statevector(data, validate=False)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def sample(
        self,
        shots: int,
        seed: SeedLike = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Sample computational-basis outcomes.

        Returns an ``(shots, k)`` array of 0/1 ints where ``k`` is
        ``len(qubits)`` (all qubits by default).
        """
        check_positive_int(shots, "shots")
        rng = ensure_rng(seed)
        target = list(qubits) if qubits is not None else list(range(self.num_qubits))
        probs = self.marginal_probabilities(target)
        return sample_basis_bits(probs, shots, rng, len(target))

    @classmethod
    def sample_batch(
        cls,
        states: np.ndarray,
        shots: int,
        seeds: "SeedLike | Sequence[SeedLike]" = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Sample every row of a ``(B, 2**n)`` amplitude stack at once.

        The marginal probability matrix over ``qubits`` (all qubits by
        default) is computed in one vectorized pass
        (:func:`marginal_probabilities_batch`); each row then draws from
        its own generator.

        Parameters
        ----------
        states:
            ``(B, 2**n)`` complex amplitudes, e.g. the output of
            :meth:`StatevectorSimulator.run_batch`.
        shots:
            Number of outcomes to draw per row.
        seeds:
            A sequence of ``B`` per-row seeds/generators (honoured
            element-wise), or any single :data:`~repro.utils.rng.SeedLike`
            from which ``B`` children are spawned.  Either way row ``b``
            is bit-identical to
            ``Statevector(states[b]).sample(shots, seed=<row b's seed>,
            qubits=qubits)``.
        qubits:
            Optional qubit subset (same semantics as :meth:`sample`).

        Returns
        -------
        numpy.ndarray
            ``(B, shots, k)`` array of 0/1 ints, ``k = len(qubits)``.
        """
        check_positive_int(shots, "shots")
        states, num_qubits = _coerce_states_matrix(states)
        target = list(qubits) if qubits is not None else list(range(num_qubits))
        probs = marginal_probabilities_batch(states, target, num_qubits)
        rngs = resolve_rngs(seeds, states.shape[0])
        k = len(target)
        bits = np.empty((states.shape[0], shots, k), dtype=np.int8)
        for row, rng in enumerate(rngs):
            try:
                bits[row] = sample_basis_bits(probs[row], shots, rng, k)
            except ValueError as exc:
                raise ValueError(f"batch row {row}: {exc}") from None
        return bits

    @classmethod
    def sample_counts_batch(
        cls,
        states: np.ndarray,
        shots: int,
        seeds: "SeedLike | Sequence[SeedLike]" = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> "list[dict[str, int]]":
        """Batched :meth:`sample_counts`: one ``{bitstring: count}`` per row.

        Same seeding/bit-identity contract as :meth:`sample_batch`; entry
        ``b`` equals ``Statevector(states[b]).sample_counts(...)`` with
        row ``b``'s seed.
        """
        batch_bits = cls.sample_batch(states, shots, seeds=seeds, qubits=qubits)
        return [_bits_to_counts(bits) for bits in batch_bits]

    def sample_counts(
        self,
        shots: int,
        seed: SeedLike = None,
        qubits: Optional[Sequence[int]] = None,
    ) -> "dict[str, int]":
        """Sample and aggregate outcomes into a ``{bitstring: count}`` dict.

        ``qubits`` restricts the measurement to a subset (same semantics as
        :meth:`sample`): keys are then ``len(qubits)``-bit strings over the
        marginal distribution of those qubits, in the given order.
        """
        bits = self.sample(shots, seed=seed, qubits=qubits)
        return _bits_to_counts(bits)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Statevector") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statevector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and bool(
            np.allclose(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Statevector(num_qubits={self.num_qubits})"

    def allclose(self, other: "Statevector", atol: float = 1e-9) -> bool:
        """Element-wise comparison with tolerance (no global-phase slack)."""
        self._check_compatible(other)
        return bool(np.allclose(self.data, other.data, atol=atol))

    def equiv(self, other: "Statevector", atol: float = 1e-9) -> bool:
        """True if the states are equal up to a global phase."""
        self._check_compatible(other)
        return bool(np.isclose(self.fidelity(other), 1.0, atol=atol))
