"""Statevector representation and gate-application kernels.

The state of an ``n``-qubit register is a complex vector of length ``2**n``.
Qubit 0 is the most significant bit of the basis-state index (the same
convention as PennyLane's ``default.qubit``), so ``|10>`` on two qubits is
index 2.

The hot path — applying a ``k``-qubit gate — runs on a ``(B, 2**n)``
stack of amplitude rows: the stack is viewed as a ``(B,) + (2,) * n``
tensor, the targeted axes are transposed up front, and one stacked
:func:`numpy.matmul` applies the gate to every row (a single-qubit gate
skips the transpose when the contiguous block after its target holds at
least 64 amplitudes).  Every layout left-multiplies the amplitudes by the
gate, one GEMM per slice, so the layout never changes a bit.  Diagonal
gates use a cheaper elementwise multiply.  A flat ``(2**n,)`` state is a
one-row stack: the kernels run it as ``state[None]`` and return row 0, so
one state and a row of any stack carry the same bits by construction.

Array backends
--------------
Every kernel also runs on a pluggable array namespace
(:mod:`repro.utils.array_api`): passing ``backend=`` — or simply passing
arrays owned by a non-numpy backend — routes the computation through a
generic on-namespace implementation mirroring the reference transpose
layout.  Plain ``np.ndarray`` inputs take the numpy kernels, which are
the reference; non-numpy backends are held to the device-tolerance
contract documented in :mod:`repro.utils.array_api`.  Sampling is
host-side always: device amplitude stacks are staged through one
``to_numpy`` conversion before any generator is consumed.

Batched execution
-----------------
Passing per-row gate matrices ``(B, 2**k, 2**k)`` / diagonals
``(B, 2**k)`` applies a different operand to every row in the same call.
Rows never mix, and the layout a gate takes depends on its geometry, not
on ``B``, so a row evolves to the same bits alone or in any stack — the
property the batched and mega-batched engines rely on.
:meth:`StatevectorSimulator.run_batch` builds on these kernels.

A ``k``-qubit :func:`apply_matrix` operand may also be a ``(B, k, 2, 2)``
*factor stack*: row ``b`` holds ``k`` single-qubit matrices, factor ``i``
acting on ``qubits[i]`` (factor 0 the most significant).  The kernel
expands it, on numpy and on device namespaces alike, to each row's
Kronecker product (bit for bit ``functools.reduce(np.kron,
factors[b])``) and applies that in its one GEMM.  The mega-batch loop
fuses up to three rotation slots per call this way.

Output buffers
--------------
:func:`apply_matrix` and :func:`apply_diagonal` take ``out=``: a
caller-owned C-contiguous ``(B, 2**n)`` complex128 array the result is
written into (and which is returned).  Anything else raises
:class:`ValueError`, because reshaping it would write into a silent copy.
The numpy kernels hand ``out`` straight to :func:`numpy.matmul` /
:func:`numpy.multiply` (the transposing layout copies its result in with
:func:`numpy.copyto`), so the bytes equal the allocating call's; with
``out=None`` numpy allocates exactly as before.  Device kernels compute
as usual and assign into ``out``.  The mega-batch loop runs every chunk
between two such buffers, which ends per-gate allocation churn.

Axis orders
-----------
A ``(B, 2**n)`` stack is a ``(B,) + (2,) * n`` tensor, and ``axes=`` on
:func:`apply_matrix` and :func:`apply_diagonal` names the qubit each of
its ``n`` tensor axes holds.  Omitted, the order is canonical (axis ``i``
holds qubit ``i``) in and out, with the layouts above.  Given, the
result holds the gate's targets on its leading axes, then the other axes
in their order (:func:`moved_axes`), so no kernel transposes back:

* targets on the trailing axes: the stack's ``(B, rest, 2**k)`` view,
  transposed, is one F-ordered ``(2**k, rest)`` block per row, which
  :func:`numpy.matmul` hands to ZGEMM as it is and which writes ``out``
  directly (the canonical kernel's last-qubit gate makes the same call);
* targets on the leading axes: a C-ordered ``(2**k, rest)`` view, the
  single-qubit fast path's GEMM;
* any other targets: one transpose copy brings them to the front.

A diagonal reads the stack through a view in the result's order and
writes ``out`` contiguously.  Every layout is still a left-multiplying
GEMM, and the diagonal the same elementwise multiply, so a row carries
the canonical kernels' bits in any order on a BLAS build where the GEMM
of an F-ordered block equals the GEMM of its C-ordered copy
(``tests/backend/test_axis_order.py`` pins both properties).  The
mega-batch chunk loop tracks each chunk's order, and the adjoint sweep
its backward pair's, whose derivative reads sum over the axes behind a
slot's leading targets in the order they hold; every other caller
(observables, Pauli-transfer steps, oracles) runs canonical order, and
their reductions need it, since they sum in index order.
:func:`permute_axes` writes a stack into another order in one copy.

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


def _check_out(out, batch: int, dim: int, dtype) -> None:
    """Reject an ``out`` buffer a kernel cannot write in place."""
    flags = getattr(out, "flags", None)
    contiguous = flags.c_contiguous if flags is not None else out.is_contiguous()
    if tuple(out.shape) != (batch, dim) or out.dtype != dtype or not contiguous:
        raise ValueError(
            f"out must be a C-contiguous ({batch}, {dim}) {dtype} array, got "
            f"shape {tuple(out.shape)}, dtype {out.dtype}"
            + ("" if contiguous else ", not contiguous")
        )


def _device_result(result, out, num_qubits: int, b: ArrayBackend):
    """A device kernel's ``result``, or ``out`` after assigning it there."""
    if out is None:
        return result
    _check_out(out, int(result.shape[0]), 2**num_qubits, b.complex_dtype)
    out[...] = result
    return out


#: Most ``(2, 2) @ (2, rest)`` slices per row the single-qubit fast path
#: takes on; each slice is one small matmul dispatch, so many slices of
#: few amplitudes lose to the transpose layout.  Up to 13 qubits
#: ``_FAST_PATH_MIN_REST`` already stops the fast path by qubit 6, so the
#: cap binds from 14 qubits up.  Lifting it made a 14-qubit lock-step
#: panel 1.21x and a 12/14-qubit batched variance grid 1.07x slower
#: (``BENCH_batched_adjoint.json``, 2-core x86-64, numpy 2.4 OpenBLAS).
_FAST_PATH_MAX_SLICES = 64

#: Fewest amplitudes in the contiguous block after the target (``rest``)
#: for which the single-qubit fast path wins.  Each of its ``B * 2**q``
#: slices is one ZGEMM with 0.3-0.5 us of fixed cost, which a block of
#: 8-32 amplitudes cannot amortize.  Fast-path time over transpose time,
#: range over B = 1, 6, 64 and a full 8 MiB chunk (above 1 the transpose
#: wins; 2-core x86-64, numpy 2.4.6, scipy-openblas 0.3.31):
#:
#:     qubits  q2         q3         q4         q5         q6
#:     8       0.51-1.09  0.65-2.28  0.93-3.37
#:     10      0.54-0.80  0.65-0.99  0.78-1.49  1.12-2.46  1.90-4.34
#:     12      0.53-0.75  0.63-0.82  0.67-0.94  0.82-1.44  1.30-2.16
#:
#: At 14 qubits targets 3-8 read 0.16-0.89, and at 16 qubits every
#: target reads at most 0.86: transposing rows of 256 KiB or more is what
#: costs there.
_FAST_PATH_MIN_REST = 64


def _check_targets(qubits: Sequence[int], num_qubits: int) -> None:
    """Reject targets that are repeated or outside ``[0, num_qubits)``."""
    for q in qubits:
        if not 0 <= q < num_qubits:
            break
    else:
        if len(set(qubits)) == len(qubits):
            return
    raise ValueError(
        f"target qubits {tuple(qubits)} must be distinct indices in "
        f"[0, {num_qubits})"
    )


def moved_axes(axes: Sequence[int], qubits: Sequence[int]) -> Tuple[int, ...]:
    """The axis order a gate on ``qubits`` leaves a stack in ``axes`` in:
    its targets leading, in gate order, then the other axes in their
    order."""
    return tuple(qubits) + tuple(q for q in axes if q not in qubits)


def _kron_rows(factors, k: int, backend: Optional[ArrayBackend] = None):
    """``(B, 2**k, 2**k)`` per-row Kronecker products of a ``(B, k, 2, 2)``
    factor stack, factor 0 most significant: row ``b`` equals
    ``functools.reduce(np.kron, factors[b])`` bit for bit (each entry is
    the same left-to-right product of factor entries).  With a non-numpy
    ``backend`` the factors are already on its namespace."""
    if tuple(factors.shape[1:]) != (k, 2, 2):
        raise ValueError(
            f"a factor stack for {k} target qubits is (batch, {k}, 2, 2), "
            f"got shape {tuple(factors.shape)}"
        )
    batch = int(factors.shape[0])
    if backend is None:
        # Rows innermost and contiguous: each product is a few long
        # elementwise loops rather than many loops over two entries.
        columns = np.ascontiguousarray(factors.transpose(1, 2, 3, 0))
        reshape, permute = np.reshape, np.transpose
    else:
        columns = backend.permute(factors, (1, 2, 3, 0))
        reshape, permute = backend.reshape, backend.permute
    product = columns[0]
    for i in range(1, k):
        dim = 2 ** (i + 1)
        product = reshape(
            product[:, None, :, None] * columns[i, None, :, None, :],
            (dim, dim, batch),
        )
    product = permute(product, (2, 0, 1))
    # A GEMM operand must be C-ordered per row (see apply_matrix).
    return np.ascontiguousarray(product) if backend is None else product


def _target_block(states: np.ndarray, qubits, num_qubits: int, axes):
    """``(B, 2**k, rest)`` view of a stack in ``axes`` order whose middle
    axis runs over the targets (most significant gate qubit first).

    Targets on the trailing axes give an F-ordered view and targets on
    the leading axes a C-ordered one; neither copies.  Any other targets
    are transposed to the front in one copy.
    """
    batch, k = states.shape[0], len(qubits)
    rest = 2 ** (num_qubits - k)
    positions = [axes.index(q) for q in qubits]
    first = positions[0]
    if positions == list(range(first, first + k)):
        if first == 0:
            return states.reshape(batch, 2**k, rest)
        if first + k == num_qubits:
            return states.reshape(batch, rest, 2**k).transpose(0, 2, 1)
    forward = [0] + [p + 1 for p in positions]
    forward += [p + 1 for p in range(num_qubits) if p not in positions]
    tensor = states.reshape((batch,) + (2,) * num_qubits).transpose(forward)
    return tensor.reshape(batch, 2**k, rest)


def permute_axes(
    state, axes: Sequence[int], new_axes: Sequence[int], num_qubits: int,
    out, backend: Optional[ArrayBackend] = None,
):
    """Write a ``(B, 2**n)`` stack held in ``axes`` order into ``out`` in
    ``new_axes`` order (one copy); returns ``out``."""
    batch = int(state.shape[0])
    shape = (batch,) + (2,) * num_qubits
    forward = [0] + [axes.index(q) + 1 for q in new_axes]
    device = _device_backend(state, backend)
    if device is None:
        np.copyto(out.reshape(shape), state.reshape(shape).transpose(forward))
    else:
        out[...] = device.reshape(
            device.permute(device.reshape(state, shape), forward), (batch, -1)
        )
    return out


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    backend: Optional[ArrayBackend] = None,
    out=None,
    axes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Apply a ``k``-qubit unitary to ``state`` and return the new vector.

    Parameters
    ----------
    state:
        Flat complex array of length ``2**num_qubits`` (run as a one-row
        stack), or a batch of ``B`` such vectors with shape
        ``(B, 2**num_qubits)``.
    matrix:
        ``(2**k, 2**k)`` matrix acting on ``qubits`` (most significant
        gate qubit first), or a per-batch-element stack of shape
        ``(B, 2**k, 2**k)``.  A 2-D matrix combined with a batched state
        is shared across the batch; a 3-D matrix with a 1-D state
        broadcasts the state.  A 4-D ``(B, k, 2, 2)`` factor stack is
        each row's Kronecker product (factor ``i`` on
        ``qubits[i]``), expanded here before the GEMM.
    qubits:
        Distinct target qubit indices in ``[0, num_qubits)``; anything
        else raises :class:`ValueError`.
    num_qubits:
        Total number of qubits in ``state``.
    backend:
        Optional :class:`~repro.utils.array_api.ArrayBackend`.  Omitted,
        it is inferred from ``state``'s type; numpy takes the reference
        path, anything else the generic on-namespace path (``matrix``
        is staged with ``backend.asarray`` when host-built).
    out:
        Optional C-contiguous ``(B, 2**num_qubits)`` complex128 buffer
        that receives the result (see the module docstring); a flat
        state is ``B = 1`` and gets row 0 of ``out`` back.
    axes:
        The qubit held by each tensor axis of the stack (see "Axis
        orders" in the module docstring).  Omitted, the stack is in
        canonical order and so is the result.  Given, the result holds
        ``qubits`` on its leading axes, then the other axes in their
        order (:func:`moved_axes`).

    Returns
    -------
    numpy.ndarray
        The evolved amplitudes, with the same leading batch axis (if any)
        as the inputs — ``out`` itself when given.
    """
    _check_targets(qubits, num_qubits)
    k = len(qubits)
    if state.ndim == 1 and matrix.ndim == 2:
        # One state is a one-row stack: the same kernels, the same bits.
        return apply_matrix(
            state[None], matrix, qubits, num_qubits, backend, out, axes
        )[0]
    device = _device_backend(state, backend)
    if device is not None:
        result = _apply_matrix_device(
            state, matrix, qubits, num_qubits, device, axes
        )
        return _device_result(result, out, num_qubits, device)

    if matrix.ndim == 4:
        matrix = _kron_rows(matrix, k)
    batch = _batch_size(state, matrix, matrix.ndim == 3)
    if out is not None:
        _check_out(out, batch, 2**num_qubits, COMPLEX_DTYPE)
    states = state if state.ndim == 2 else np.broadcast_to(state, (batch, state.size))
    if axes is not None:
        block = _target_block(states, qubits, num_qubits, axes)
        if out is None:
            return np.matmul(matrix, block).reshape(batch, -1)
        np.matmul(matrix, block, out=out.reshape(block.shape))
        return out
    if k == 1:
        # Single-qubit fast path: viewing the stack as
        # (batch, 2**q, 2, rest) puts the target axis where a stacked
        # matmul contracts it directly — no transpose copies, one output
        # allocation.  Each slice costs a fixed dispatch, so blocks under
        # ``_FAST_PATH_MIN_REST`` amplitudes and rows of more than
        # ``_FAST_PATH_MAX_SLICES`` slices lose to the transpose layout.
        # Which layout a gate takes depends on the geometry only, never
        # on the batch size, and both compute one left-multiplying GEMM
        # per slice, so a row carries the same bits in any stack.
        q = qubits[0]
        rest = 2 ** (num_qubits - q - 1)
        if rest >= _FAST_PATH_MIN_REST and 2**q <= _FAST_PATH_MAX_SLICES:
            blocks = states.reshape(batch, 2**q, 2, rest)
            stacked = (
                matrix if matrix.ndim == 2 else matrix[:, None, :, :]
            )
            if out is None:
                return np.matmul(stacked, blocks).reshape(batch, -1)
            np.matmul(stacked, blocks, out=out.reshape(blocks.shape))
            return out
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    # Bring the targeted axes up front (after the batch axis) so every
    # batch element is one (2**k, rest) matrix — one GEMM per element via
    # the stacked matmul below.
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
    if out is None:
        return np.ascontiguousarray(tensor).reshape(batch, -1)
    np.copyto(out.reshape(tensor.shape), tensor)
    return out


def _apply_matrix_device(
    state, matrix, qubits: Sequence[int], num_qubits: int, b: ArrayBackend,
    axes=None,
):
    """Generic on-namespace :func:`apply_matrix`.

    Mirrors the reference transpose layout exactly (never the numpy
    single-qubit fast path); with ``axes`` it skips the inverse
    transpose, leaving the targets leading.  Host-built operands are
    staged once per call.
    """
    k = len(qubits)
    matrix = b.asarray(matrix, dtype=b.complex_dtype)
    if matrix.ndim == 4:
        matrix = _kron_rows(matrix, k, b)
    batch = _batch_size(state, matrix, matrix.ndim == 3)
    states = (
        state
        if state.ndim == 2
        else b.broadcast_to(state, (batch, int(state.shape[0])))
    )
    tensor = b.reshape(states, (batch,) + (2,) * num_qubits)
    positions = list(qubits) if axes is None else [axes.index(q) for q in qubits]
    forward = [0] + [p + 1 for p in positions]
    forward += [p + 1 for p in range(num_qubits) if p not in positions]
    tensor = b.reshape(b.permute(tensor, forward), (batch, 2**k, -1))
    tensor = b.matmul(matrix, tensor)
    if axes is not None:
        return b.reshape(tensor, (batch, -1))
    inverse = [0] * (num_qubits + 1)
    for position, axis in enumerate(forward):
        inverse[axis] = position
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
    out=None,
    axes: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Apply a diagonal gate given its diagonal entries (length ``2**k``).

    Accepts the same batched layouts as :func:`apply_matrix`: ``state``
    may be ``(B, 2**n)`` and ``diagonal`` may be ``(B, 2**k)``.  The
    ``qubits``, ``backend``, ``out`` and ``axes`` parameters follow
    :func:`apply_matrix`; with ``axes`` the stack is read through a view
    in :func:`moved_axes` order, so no copy is made.
    """
    _check_targets(qubits, num_qubits)
    k = len(qubits)
    if state.ndim == 1 and diagonal.ndim == 1:
        return apply_diagonal(
            state[None], diagonal, qubits, num_qubits, backend, out, axes
        )[0]
    device = _device_backend(state, backend)
    if device is not None:
        result = _apply_diagonal_device(
            state, diagonal, qubits, num_qubits, device, axes
        )
        return _device_result(result, out, num_qubits, device)

    batch = _batch_size(state, diagonal, diagonal.ndim == 2)
    if out is not None:
        _check_out(out, batch, 2**num_qubits, COMPLEX_DTYPE)
    states = state if state.ndim == 2 else np.broadcast_to(state, (batch, state.size))
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    lead = diagonal.shape[0] if diagonal.ndim == 2 else 1
    diag = diagonal.reshape((lead,) + (2,) * k + (1,) * (num_qubits - k))
    if axes is not None:
        # Read the stack through a view in the result's order, in which
        # the targets lead and the diagonal broadcasts as it is.
        new_axes = moved_axes(axes, qubits)
        if new_axes != tuple(axes):
            tensor = tensor.transpose([0] + [axes.index(q) + 1 for q in new_axes])
        if out is None:
            out = np.empty((batch, 2**num_qubits), dtype=COMPLEX_DTYPE)
        np.multiply(tensor, diag, out=out.reshape(tensor.shape))
        return out
    # Transpose the (batch, diag axes, padding) layout so diag axis ``i``
    # lands on state axis ``qubits[i] + 1`` and broadcasting applies the
    # entries elementwise (explicit permutation — see apply_matrix).
    order = [0] + list(range(k + 1, num_qubits + 1))
    for destination, source in sorted(zip((q + 1 for q in qubits), range(1, k + 1))):
        order.insert(destination, source)
    expanded = diag.transpose(order)
    if out is None:
        return (tensor * expanded).reshape(batch, -1)
    np.multiply(tensor, expanded, out=out.reshape(tensor.shape))
    return out


def _apply_diagonal_device(
    state, diagonal, qubits: Sequence[int], num_qubits: int, b: ArrayBackend,
    axes=None,
):
    """Generic on-namespace :func:`apply_diagonal` (reference layout);
    with ``axes`` the stack is first permuted to :func:`moved_axes`
    order."""
    k = len(qubits)
    diagonal = b.asarray(diagonal, dtype=b.complex_dtype)
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
    if axes is not None:
        forward = [0] + [axes.index(q) + 1 for q in moved_axes(axes, qubits)]
        return b.reshape(b.permute(tensor, forward) * diag, (batch, -1))
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
