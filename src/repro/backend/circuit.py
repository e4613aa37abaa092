"""Quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Operation` objects
over a fixed number of qubits.  Parametric operations either reference a
slot in an external *trainable parameter vector* (``param_index``) or carry
a bound constant (``value``).  Keeping parameters external to the circuit
lets the differentiation engines and optimizers treat the circuit as a pure
function ``params -> state``.

Every trainable operation owns a distinct parameter slot (no parameter
sharing), matching the paper's ansatz where a 10-qubit, 5-layer circuit has
exactly 100 independent parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.gates import FixedGate, Gate, ParametricGate, get_gate
from repro.utils.validation import check_positive_int, check_qubit_index

if TYPE_CHECKING:
    from repro.backend.simulator import MegaBatchPlan

__all__ = ["Operation", "QuantumCircuit", "is_exact_unit_diagonal"]

#: Diagonal entries that multiply amplitudes exactly (components 0/±1).
_EXACT_UNITS = (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)


@dataclass(frozen=True)
class Operation:
    """One gate application inside a circuit.

    Attributes
    ----------
    gate:
        The gate definition (fixed or parametric).
    qubits:
        Target qubits, most significant gate qubit first.
    param_index:
        Slot in the circuit's trainable parameter vector, or ``None``.
    value:
        Bound constant parameter, or ``None``.  Exactly one of
        ``param_index``/``value`` is set for parametric gates; both are
        ``None`` for fixed gates.
    """

    gate: Gate
    qubits: Tuple[int, ...]
    param_index: Optional[int] = None
    value: Optional[float] = None

    @property
    def is_parametric(self) -> bool:
        """True for gates that take a rotation angle."""
        return isinstance(self.gate, ParametricGate)

    @property
    def is_trainable(self) -> bool:
        """True if this operation reads from the trainable parameter vector."""
        return self.param_index is not None

    def parameter(self, params: Optional[np.ndarray]) -> Optional[float]:
        """Resolve this operation's angle against ``params`` (may be None)."""
        if not self.is_parametric:
            return None
        if self.param_index is not None:
            if params is None:
                raise ValueError(
                    f"operation {self.gate.name} on {self.qubits} is trainable "
                    "but no parameter vector was supplied"
                )
            return float(params[self.param_index])
        return self.value

    def matrix(self, params: Optional[np.ndarray] = None) -> np.ndarray:
        """Resolve the concrete unitary matrix for this operation."""
        if isinstance(self.gate, ParametricGate):
            return self.gate.matrix(self.parameter(params))
        return self.gate.matrix()


@lru_cache(maxsize=4096)
def is_exact_unit_diagonal(op: Operation) -> bool:
    """True for a non-trainable diagonal operation whose entries are exact units.

    CZ, Z and S qualify; T or a bound PHASE do not.  Multiplying by 0, ±1
    or ±i is exact, so applying such a diagonal elementwise — alone,
    conjugated, or fused with others like it — gives the same values as
    its dense matrix.  Only the sign of an exactly-zero amplitude may
    differ, which ``np.array_equal`` (the library's equality) ignores.
    Memoized per operation (operations compare by gate, wires and angle),
    so circuits that share fixed layers test each one once.
    """
    if op.is_trainable or not getattr(op.gate, "is_diagonal", False):
        return False
    diagonal = np.diagonal(op.matrix(None))
    return bool(np.all(np.isin(diagonal, _EXACT_UNITS)))


class QuantumCircuit:
    """An ordered sequence of gate applications on ``num_qubits`` wires.

    Examples
    --------
    >>> circuit = QuantumCircuit(2)
    >>> _ = circuit.h(0).cx(0, 1).ry(1)
    >>> circuit.num_parameters
    1
    """

    def __init__(self, num_qubits: int):
        check_positive_int(num_qubits, "num_qubits")
        self.num_qubits = num_qubits
        self.operations: List[Operation] = []
        self._num_parameters = 0
        # Static matrices, unit-diagonal adjoints, plan; see _caches().
        self._cache: Dict[str, object] = {}
        self._cache_key: Optional[Tuple[Operation, ...]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Number of trainable parameter slots."""
        return self._num_parameters

    def append(
        self,
        gate_name: str,
        qubits: Sequence[int],
        value: Optional[float] = None,
        trainable: Optional[bool] = None,
    ) -> "QuantumCircuit":
        """Append a gate by name.

        For parametric gates, ``value=None`` (the default) allocates a new
        trainable parameter slot; passing a float binds the angle as a
        constant.  ``trainable=True`` with a ``value`` is rejected, as is
        any parameter on a fixed gate.
        """
        gate = get_gate(gate_name)
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != gate.num_qubits:
            raise ValueError(
                f"{gate.name} acts on {gate.num_qubits} qubits, got {len(qubits)}"
            )
        for qubit in qubits:
            check_qubit_index(qubit, self.num_qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"target qubits must be distinct, got {qubits}")

        if isinstance(gate, ParametricGate):
            if value is None:
                if trainable is False:
                    raise ValueError("non-trainable parametric gate requires a value")
                op = Operation(gate, qubits, param_index=self._num_parameters)
                self._num_parameters += 1
            else:
                if trainable:
                    raise ValueError("a bound parameter cannot also be trainable")
                op = Operation(gate, qubits, value=float(value))
        else:
            if value is not None or trainable:
                raise ValueError(f"{gate.name} takes no parameter")
            op = Operation(gate, qubits)
        self.operations.append(op)
        return self

    # convenience builders -------------------------------------------------
    def h(self, q: int) -> "QuantumCircuit":
        """Hadamard."""
        return self.append("H", [q])

    def x(self, q: int) -> "QuantumCircuit":
        """Pauli-X."""
        return self.append("X", [q])

    def y(self, q: int) -> "QuantumCircuit":
        """Pauli-Y."""
        return self.append("Y", [q])

    def z(self, q: int) -> "QuantumCircuit":
        """Pauli-Z."""
        return self.append("Z", [q])

    def s(self, q: int) -> "QuantumCircuit":
        """Phase gate S."""
        return self.append("S", [q])

    def t(self, q: int) -> "QuantumCircuit":
        """T gate."""
        return self.append("T", [q])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-X (CNOT)."""
        return self.append("CX", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z."""
        return self.append("CZ", [control, target])

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        """SWAP."""
        return self.append("SWAP", [a, b])

    def rx(self, q: int, value: Optional[float] = None) -> "QuantumCircuit":
        """X rotation; trainable when ``value`` is omitted."""
        return self.append("RX", [q], value=value)

    def ry(self, q: int, value: Optional[float] = None) -> "QuantumCircuit":
        """Y rotation; trainable when ``value`` is omitted."""
        return self.append("RY", [q], value=value)

    def rz(self, q: int, value: Optional[float] = None) -> "QuantumCircuit":
        """Z rotation; trainable when ``value`` is omitted."""
        return self.append("RZ", [q], value=value)

    def crx(self, control: int, target: int, value: Optional[float] = None) -> "QuantumCircuit":
        """Controlled X rotation."""
        return self.append("CRX", [control, target], value=value)

    def cry(self, control: int, target: int, value: Optional[float] = None) -> "QuantumCircuit":
        """Controlled Y rotation."""
        return self.append("CRY", [control, target], value=value)

    def crz(self, control: int, target: int, value: Optional[float] = None) -> "QuantumCircuit":
        """Controlled Z rotation."""
        return self.append("CRZ", [control, target], value=value)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "QuantumCircuit":
        """Shallow copy (operations are immutable, so this is safe)."""
        out = QuantumCircuit(self.num_qubits)
        out.operations = list(self.operations)
        out._num_parameters = self._num_parameters
        return out

    def with_slot_gates(self, gates: Sequence[ParametricGate]) -> "QuantumCircuit":
        """A copy whose ``k``-th trainable operation applies ``gates[k]``
        (wires and parameter slots kept, unchanged operations shared)."""
        out = self.copy()
        ops = out.operations
        slots = [pos for pos, op in enumerate(ops) if op.is_trainable]
        if len(gates) != len(slots):
            raise ValueError(f"got {len(gates)} gates for {len(slots)} slots")
        for pos, gate in zip(slots, gates):
            old = ops[pos]
            if gate is not old.gate:
                ops[pos] = Operation(gate, old.qubits, param_index=old.param_index)
        return out

    def bind(self, params: Sequence[float]) -> "QuantumCircuit":
        """Return a copy with every trainable angle bound as a constant."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self._num_parameters,):
            raise ValueError(
                f"expected {self._num_parameters} parameters, got shape {params.shape}"
            )
        out = QuantumCircuit(self.num_qubits)
        for op in self.operations:
            if op.is_trainable:
                out.operations.append(
                    Operation(op.gate, op.qubits, value=float(params[op.param_index]))
                )
            else:
                out.operations.append(op)
        return out

    def inverse(self, params: Optional[Sequence[float]] = None) -> "QuantumCircuit":
        """Return the adjoint circuit with all parameters bound.

        Trainable circuits must supply ``params``; the result is fully
        bound (it no longer references a parameter vector) because the
        inverse of an angle is its negation, not an independent parameter.
        """
        source = self.bind(params) if params is not None else self
        if source._num_parameters:
            raise ValueError("inverse of a trainable circuit requires params")
        out = QuantumCircuit(self.num_qubits)
        for op in reversed(source.operations):
            if isinstance(op.gate, ParametricGate):
                out.operations.append(
                    Operation(op.gate, op.qubits, value=-float(op.value))
                )
            else:
                gate = op.gate
                adjoint = FixedGate(f"{gate.name}_DG", gate.adjoint_matrix())
                out.operations.append(Operation(adjoint, op.qubits))
        return out

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Concatenate ``other`` after ``self``; parameter slots are renumbered."""
        if other.num_qubits != self.num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )
        out = self.copy()
        offset = out._num_parameters
        for op in other.operations:
            if op.is_trainable:
                out.operations.append(
                    Operation(op.gate, op.qubits, param_index=op.param_index + offset)
                )
            else:
                out.operations.append(op)
        out._num_parameters += other._num_parameters
        return out

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def gate_counts(self) -> Dict[str, int]:
        """Histogram of gate names."""
        return dict(Counter(op.gate.name for op in self.operations))

    @property
    def num_operations(self) -> int:
        """Total number of gate applications."""
        return len(self.operations)

    def depth(self) -> int:
        """Circuit depth under greedy as-soon-as-possible scheduling."""
        frontier = [0] * self.num_qubits
        for op in self.operations:
            layer = 1 + max(frontier[q] for q in op.qubits)
            for q in op.qubits:
                frontier[q] = layer
        return max(frontier, default=0)

    def trainable_operations(self) -> List[Tuple[int, Operation]]:
        """All (position, operation) pairs that read the parameter vector."""
        return [
            (pos, op) for pos, op in enumerate(self.operations) if op.is_trainable
        ]

    def parameter_map(self) -> Dict[int, int]:
        """Map ``param_index -> operation position`` (unique by construction)."""
        return {
            op.param_index: pos
            for pos, op in enumerate(self.operations)
            if op.is_trainable
        }

    def _caches(self) -> Dict[str, object]:
        """Lazily built derived data, emptied when the operation sequence
        no longer compares equal to the one it was built from."""
        key = tuple(self.operations)
        if self._cache_key != key:
            self._cache, self._cache_key = {}, key
        return self._cache

    def static_matrices(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Cached ``{position: (matrix, adjoint)}`` for non-trainable operations.

        Fixed and bound-parameter gates have parameter-independent unitaries,
        so the adjoint differentiation engines would otherwise rebuild the
        same matrix and conjugate transpose on every backward sweep of every
        call — per training iteration, per trajectory.  The cache is built
        on first use and invalidated whenever the operation sequence no
        longer compares equal to the one it was built from (appends, and
        in-place edits of the public ``operations`` list); entries must
        not be mutated.
        """
        cache = self._caches()
        if "static" not in cache:
            static: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            units: Dict[int, np.ndarray] = {}
            for pos, op in enumerate(self.operations):
                if not op.is_trainable:
                    matrix = op.matrix(None)
                    static[pos] = (matrix, matrix.conj().T)
                    if is_exact_unit_diagonal(op):
                        units[pos] = np.diagonal(matrix).conj()
            cache["static"], cache["units"] = static, units
        return cache["static"]

    def unit_diagonal_adjoints(self) -> Dict[int, np.ndarray]:
        """Cached ``{position: conjugated diagonal}`` for exact-unit diagonals.

        Covers the non-trainable operations :func:`is_exact_unit_diagonal`
        accepts (a CZ chain, Z, S).  The adjoint engines undo these with
        the elementwise kernel, as the forward pass applies them, so the
        predicate runs once per circuit rather than once per sweep.  Built
        and invalidated together with :meth:`static_matrices`.
        """
        self.static_matrices()
        return self._cache["units"]

    def execution_plan(self) -> MegaBatchPlan:
        """Cached one-circuit :class:`~repro.backend.simulator.MegaBatchPlan`.

        The program ``run_batch`` and the one-circuit gradient engines
        execute; compiling it costs about a third of a small batched
        forward pass.  Invalidated with :meth:`static_matrices`.
        """
        cache = self._caches()
        if "plan" not in cache:
            # The simulator module imports this one.
            from repro.backend.simulator import MegaBatchPlan

            cache["plan"] = MegaBatchPlan([self])
        return cache["plan"]

    def draw(self, params: Optional[np.ndarray] = None, max_width: int = 120) -> str:
        """Render a plain-text sketch of the circuit, one line per qubit."""
        lanes = [[f"q{q}:"] for q in range(self.num_qubits)]
        for op in self.operations:
            angle = op.parameter(params) if (op.is_parametric and (params is not None or not op.is_trainable)) else None
            if op.is_parametric and angle is None:
                label = f"{op.gate.name}(t{op.param_index})"
            elif op.is_parametric:
                label = f"{op.gate.name}({angle:+.2f})"
            else:
                label = op.gate.name
            width = max(len(label), 3)
            for q in range(self.num_qubits):
                if q in op.qubits:
                    cell = label if q == op.qubits[0] else "*" + " " * (width - 1)
                else:
                    cell = "-" * width
                lanes[q].append(cell.ljust(width, "-"))
        lines = ["--".join(lane) for lane in lanes]
        return "\n".join(line[:max_width] for line in lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(num_qubits={self.num_qubits}, "
            f"ops={self.num_operations}, params={self.num_parameters})"
        )
