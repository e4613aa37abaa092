"""Hermitian observables and exact expectation values.

Observables support three operations used across the library:

* ``expectation(state)`` — exact ``<psi|O|psi>``;
* ``apply(data)`` — the matrix-vector product ``O|psi>`` on a flat amplitude
  buffer (the seed of the adjoint differentiation backward pass), with
  ``apply_batch(states)`` as the per-row-bit-identical ``(B, 2**n)`` form
  seeding the batched adjoint engine;
* ``matrix()`` — a dense matrix, used by tests and by shot-based sampling of
  non-diagonal observables.

:class:`PauliString` and :class:`PauliSum` cover Hamiltonian-style
observables; :class:`Projector` covers basis-state probabilities such as the
paper's global cost ``C = 1 - p(|0...0>)``.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.backend.gates import PAULI_MATRICES, get_gate, pauli_word_matrix
from repro.backend.statevector import Statevector, apply_matrix
from repro.utils.array_api import (
    COMPLEX_DTYPE,
    FLOAT_DTYPE,
    array_backend_of,
    is_device_array,
)
from repro.utils.validation import check_positive_int, check_qubit_index

__all__ = [
    "Observable",
    "PauliString",
    "PauliSum",
    "Projector",
    "StateProjector",
    "zero_projector",
    "single_z",
    "total_z",
]


class Observable(abc.ABC):
    """A Hermitian operator on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int):
        check_positive_int(num_qubits, "num_qubits")
        self.num_qubits = num_qubits

    @abc.abstractmethod
    def apply(self, data: np.ndarray) -> np.ndarray:
        """Return ``O @ data`` for a flat complex amplitude buffer."""

    @abc.abstractmethod
    def matrix(self) -> np.ndarray:
        """Dense ``(2**n, 2**n)`` matrix representation."""

    def expectation(self, state: Statevector) -> float:
        """Exact expectation value ``<psi|O|psi>`` (real by Hermiticity)."""
        if state.num_qubits != self.num_qubits:
            raise ValueError(
                f"state has {state.num_qubits} qubits, observable needs "
                f"{self.num_qubits}"
            )
        return float(np.real(np.vdot(state.data, self.apply(state.data))))

    def variance(self, state: Statevector) -> float:
        """``<O^2> - <O>^2`` for the given state."""
        applied = self.apply(state.data)
        mean = float(np.real(np.vdot(state.data, applied)))
        second = float(np.real(np.vdot(applied, applied)))
        return second - mean**2

    def expectation_batch(self, states: np.ndarray) -> np.ndarray:
        """Expectation of each row of a ``(B, 2**n)`` amplitude buffer.

        The default routes every row through the scalar :meth:`expectation`
        (bit-identical to sequential evaluation by construction); subclasses
        on the batched hot path override it with a vectorized form that
        preserves the same per-row bits.
        """
        states = self._check_states_batch(states)
        if is_device_array(states):
            # Host fallback: any observable stays correct on a device
            # stack (one staging copy; subclasses on the hot path
            # override with true on-namespace forms).
            states = np.asarray(
                array_backend_of(states).to_numpy(states),
                dtype=COMPLEX_DTYPE,
            )
        return np.array(
            [
                self.expectation(Statevector(row, validate=False))
                for row in states
            ],
            dtype=FLOAT_DTYPE,
        )

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        """``O @ row`` for each row of a ``(B, 2**n)`` amplitude buffer.

        The default loops :meth:`apply` over rows (bit-identical to
        sequential evaluation by construction); subclasses whose
        :meth:`apply` broadcasts through the batched kernels override it
        with the vectorized form, which preserves the same per-row bits.
        Device stacks fall back to the host (callers re-stage the result
        when they need it on-namespace).
        """
        states = self._check_states_batch(states)
        if is_device_array(states):
            states = np.asarray(
                array_backend_of(states).to_numpy(states),
                dtype=COMPLEX_DTYPE,
            )
        return np.stack([self.apply(row) for row in states])

    def _check_states_batch(self, states: np.ndarray) -> np.ndarray:
        """Validate and coerce a ``(B, 2**n)`` batch of amplitude rows.

        Device-backend stacks are validated in place, never silently
        copied to the host — keeping them resident is the point of the
        device paths.
        """
        if is_device_array(states):
            if (
                len(states.shape) != 2
                or int(states.shape[1]) != 2**self.num_qubits
            ):
                raise ValueError(
                    f"states must be (batch, {2**self.num_qubits}), "
                    f"got shape {tuple(states.shape)}"
                )
            return states
        states = np.asarray(states, dtype=COMPLEX_DTYPE)
        if states.ndim != 2 or states.shape[1] != 2**self.num_qubits:
            raise ValueError(
                f"states must be (batch, {2**self.num_qubits}), "
                f"got shape {states.shape}"
            )
        return states

    def _expectation_batch_via_apply(self, states: np.ndarray) -> np.ndarray:
        """Vectorized batch expectation for observables whose :meth:`apply`
        broadcasts over a leading batch axis (the Pauli types: their gate
        applications route through the batched kernels).  The final
        reduction stays a per-row ``vdot`` so every entry carries the same
        bits as the scalar path; on a device backend it is the vectorized
        ``real(sum(conj(states) * applied))`` instead (device-tolerance
        contract), converted to host float64 at the result boundary.
        """
        states = self._check_states_batch(states)
        applied = self.apply(states)
        if is_device_array(states):
            b = array_backend_of(states)
            reduced = b.real(b.sum(b.conj(states) * applied, axis=1))
            return np.asarray(b.to_numpy(reduced), dtype=FLOAT_DTYPE)
        return np.array(
            [
                float(np.real(np.vdot(row, out)))
                for row, out in zip(states, applied)
            ],
            dtype=FLOAT_DTYPE,
        )


def _normalize_pauli_spec(
    paulis: Union[str, Mapping[int, str]], num_qubits: int
) -> Dict[int, str]:
    """Accept either a full word ("IZX") or a {qubit: letter} mapping."""
    if isinstance(paulis, str):
        if len(paulis) != num_qubits:
            raise ValueError(
                f"pauli word length {len(paulis)} != num_qubits {num_qubits}"
            )
        spec = {q: letter.upper() for q, letter in enumerate(paulis)}
    else:
        spec = {int(q): letter.upper() for q, letter in paulis.items()}
    cleaned: Dict[int, str] = {}
    for qubit, letter in spec.items():
        check_qubit_index(qubit, num_qubits)
        if letter not in "IXYZ":
            raise ValueError(f"invalid pauli letter {letter!r}")
        if letter != "I":
            cleaned[qubit] = letter
    return cleaned


class PauliString(Observable):
    """``coefficient * P_{q1} P_{q2} ...`` for single-qubit Paulis ``P``.

    Parameters
    ----------
    num_qubits:
        System size.
    paulis:
        Either a word like ``"ZIZ"`` (length ``num_qubits``) or a mapping
        ``{qubit: "X"|"Y"|"Z"}``; identities may be omitted.
    coefficient:
        Real prefactor (Hermiticity requires a real coefficient).
    """

    def __init__(
        self,
        num_qubits: int,
        paulis: Union[str, Mapping[int, str]],
        coefficient: float = 1.0,
    ):
        super().__init__(num_qubits)
        if abs(complex(coefficient).imag) > 1e-12:
            raise ValueError("coefficient must be real for a Hermitian observable")
        self.coefficient = float(np.real(coefficient))
        self.paulis: Dict[int, str] = _normalize_pauli_spec(paulis, num_qubits)
        # Lazily-built sampling caches (see rotation_matrices /
        # eigenvalues_of_bits): the diagonalizing-rotation matrices and the
        # parity sign-table columns are properties of the string, so the
        # sampled-estimation paths look them up here instead of rebuilding
        # them on every sampled_expectation_rows call.
        self._rotation_matrices: "Tuple[Tuple[np.ndarray, int], ...] | None" = None
        self._parity_columns: "np.ndarray | None" = None

    @property
    def word(self) -> str:
        """Full-length word representation, e.g. ``"IZX"``."""
        return "".join(self.paulis.get(q, "I") for q in range(self.num_qubits))

    @property
    def is_identity(self) -> bool:
        """True when no non-identity letter is present."""
        return not self.paulis

    @property
    def is_diagonal(self) -> bool:
        """True when the operator is diagonal in the computational basis."""
        return all(letter == "Z" for letter in self.paulis.values())

    @property
    def weight(self) -> int:
        """Number of non-identity letters (operator locality)."""
        return len(self.paulis)

    def apply(self, data: np.ndarray) -> np.ndarray:
        # ``data`` may be a flat buffer or a (batch, 2**n) stack; the
        # kernels broadcast either way.
        out = data
        for qubit, letter in self.paulis.items():
            out = apply_matrix(out, PAULI_MATRICES[letter], [qubit], self.num_qubits)
        if self.coefficient != 1.0:
            out = self.coefficient * out
        elif out is data:
            out = (
                array_backend_of(data).copy(data)
                if is_device_array(data)
                else data.copy()
            )
        return out

    def expectation_batch(self, states: np.ndarray) -> np.ndarray:
        return self._expectation_batch_via_apply(states)

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        # apply() already broadcasts over the batch axis via the kernels.
        return self.apply(self._check_states_batch(states))

    def matrix(self) -> np.ndarray:
        return self.coefficient * pauli_word_matrix(self.word)

    def diagonalizing_rotations(self) -> List[Tuple[str, int]]:
        """Single-qubit gates mapping this Pauli's eigenbasis to the Z basis.

        Appending these gates to a circuit lets the string be estimated from
        computational-basis samples: X needs ``H``; Y needs ``SDG`` then
        ``H``; Z needs nothing.
        """
        rotations: List[Tuple[str, int]] = []
        for qubit, letter in sorted(self.paulis.items()):
            if letter == "X":
                rotations.append(("H", qubit))
            elif letter == "Y":
                rotations.append(("SDG", qubit))
                rotations.append(("H", qubit))
        return rotations

    def rotation_matrices(self) -> "Tuple[Tuple[np.ndarray, int], ...]":
        """Cached ``(matrix, qubit)`` pairs of the diagonalizing rotations.

        The matrix form of :meth:`diagonalizing_rotations`, resolved
        through the gate registry exactly once per observable instead of
        once per sampled-estimation call — the rotations are a property of
        the string, not of the state being measured.  The returned
        matrices are the registry gates' read-only singletons; do not
        mutate them.
        """
        if self._rotation_matrices is None:
            self._rotation_matrices = tuple(
                (get_gate(name).matrix(), qubit)
                for name, qubit in self.diagonalizing_rotations()
            )
        return self._rotation_matrices

    def eigenvalue_of_bits(self, bits: Sequence[int]) -> float:
        """Post-rotation eigenvalue ``coefficient * prod (-1)**bit``."""
        sign = 1.0
        for qubit in self.paulis:
            if bits[qubit]:
                sign = -sign
        return self.coefficient * sign

    def eigenvalues_of_bits(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`eigenvalue_of_bits` over a ``(shots, n)`` array.

        Every entry is exactly ``+-coefficient``, so the result carries
        the same bits as the scalar loop — the property the sampled
        estimators (scalar and batched) rely on to stay identical.  The
        parity sign-table columns are cached on the observable, so
        repeated calls (one per draw, per term, per row) skip rebuilding
        the index list.
        """
        bits = np.asarray(bits)
        if not self.paulis:
            return np.full(bits.shape[0], self.coefficient, dtype=FLOAT_DTYPE)
        if self._parity_columns is None:
            self._parity_columns = np.fromiter(
                self.paulis, dtype=np.intp, count=len(self.paulis)
            )
        parity = bits[:, self._parity_columns].sum(axis=1) & 1
        return self.coefficient * (1.0 - 2.0 * parity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PauliString({self.coefficient:+g} * {self.word})"


class PauliSum(Observable):
    """A real-linear combination of :class:`PauliString` terms."""

    def __init__(self, terms: Iterable[PauliString]):
        terms = list(terms)
        if not terms:
            raise ValueError("PauliSum needs at least one term")
        num_qubits = terms[0].num_qubits
        for term in terms:
            if term.num_qubits != num_qubits:
                raise ValueError("all terms must act on the same register size")
        super().__init__(num_qubits)
        self.terms = terms

    def apply(self, data: np.ndarray) -> np.ndarray:
        if is_device_array(data):
            out = array_backend_of(data).zeros_like(data)
        else:
            out = np.zeros_like(data)
        for term in self.terms:
            out += term.apply(data)
        return out

    def expectation_batch(self, states: np.ndarray) -> np.ndarray:
        return self._expectation_batch_via_apply(states)

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        # Each term broadcasts; the accumulation order matches apply().
        return self.apply(self._check_states_batch(states))

    def matrix(self) -> np.ndarray:
        return sum(term.matrix() for term in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PauliSum({len(self.terms)} terms, num_qubits={self.num_qubits})"


class Projector(Observable):
    """Rank-one projector ``|b><b|`` onto a computational basis state."""

    def __init__(self, bits: Union[str, Sequence[int]]):
        bit_list = [int(b) for b in bits]
        if not bit_list or any(b not in (0, 1) for b in bit_list):
            raise ValueError(f"bits must be a non-empty 0/1 sequence, got {bits!r}")
        super().__init__(len(bit_list))
        self.bits = tuple(bit_list)
        index = 0
        for bit in bit_list:
            index = (index << 1) | bit
        self.index = index

    def apply(self, data: np.ndarray) -> np.ndarray:
        if is_device_array(data):
            out = array_backend_of(data).zeros_like(data)
        else:
            out = np.zeros_like(data)
        out[self.index] = data[self.index]
        return out

    def matrix(self) -> np.ndarray:
        out = np.zeros((2**self.num_qubits,) * 2, dtype=COMPLEX_DTYPE)
        out[self.index, self.index] = 1.0
        return out

    def expectation(self, state: Statevector) -> float:
        if state.num_qubits != self.num_qubits:
            raise ValueError(
                f"state has {state.num_qubits} qubits, projector needs "
                f"{self.num_qubits}"
            )
        return float(abs(state.data[self.index]) ** 2)

    def expectation_batch(self, states: np.ndarray) -> np.ndarray:
        states = self._check_states_batch(states)
        if is_device_array(states):
            b = array_backend_of(states)
            return np.asarray(
                b.to_numpy(b.abs_sq(states[:, self.index])),
                dtype=FLOAT_DTYPE,
            )
        # One amplitude per row; scalar abs on each keeps the result
        # bit-identical to sequential evaluation (numpy's vectorized
        # np.abs rounds complex magnitudes differently by 1 ulp).
        return np.array(
            [float(abs(a) ** 2) for a in states[:, self.index]], dtype=FLOAT_DTYPE
        )

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        # apply() indexes the flat buffer, so the batched form keeps one
        # amplitude per row instead; copying amplitudes is exact.
        states = self._check_states_batch(states)
        if is_device_array(states):
            out = array_backend_of(states).zeros_like(states)
        else:
            out = np.zeros_like(states)
        out[:, self.index] = states[:, self.index]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Projector({''.join(map(str, self.bits))})"


class StateProjector(Observable):
    """Rank-one projector ``|phi><phi|`` onto an arbitrary pure state.

    Generalizes :class:`Projector` beyond basis states; its expectation is
    the fidelity ``|<phi|psi>|^2``, which turns "learn the state phi" into
    an :class:`~repro.core.cost.ObservableCost` exactly like the paper's
    identity task (the special case ``phi = |0...0>``).
    """

    def __init__(self, target: Statevector):
        super().__init__(target.num_qubits)
        self.target = target.copy()

    def apply(self, data: np.ndarray) -> np.ndarray:
        amplitude = np.vdot(self.target.data, data)  # <phi|psi>
        return amplitude * self.target.data

    def matrix(self) -> np.ndarray:
        return np.outer(self.target.data, self.target.data.conj())

    def expectation(self, state: Statevector) -> float:
        if state.num_qubits != self.num_qubits:
            raise ValueError(
                f"state has {state.num_qubits} qubits, projector needs "
                f"{self.num_qubits}"
            )
        return float(abs(np.vdot(self.target.data, state.data)) ** 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateProjector(num_qubits={self.num_qubits})"


def zero_projector(num_qubits: int) -> Projector:
    """``|0...0><0...0|`` — the paper's global-cost observable."""
    check_positive_int(num_qubits, "num_qubits")
    return Projector([0] * num_qubits)


def single_z(qubit: int, num_qubits: int) -> PauliString:
    """Pauli Z on one qubit — building block of local costs."""
    return PauliString(num_qubits, {qubit: "Z"})


def total_z(num_qubits: int) -> PauliSum:
    """``sum_q Z_q``, a common local Hamiltonian."""
    return PauliSum([single_z(q, num_qubits) for q in range(num_qubits)])
