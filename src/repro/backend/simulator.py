"""Exact statevector simulator.

The simulator is stateless: each call takes a circuit plus parameter vector
and returns fresh results, so one instance can be shared freely across
experiments and threads.  The only construction-time choice is the array
backend (:mod:`repro.utils.array_api`) the kernels run on — host numpy by
default (bit-identical to the pre-backend code), or an accelerator
namespace (``"torch"``, ``"cupy"``) under the device-tolerance contract.
On a non-numpy backend the batched paths stay device-resident across
whole executions — states are staged in once, evolved on-namespace
through every operation (including a full mega-batch slot sweep), and
converted back to numpy only at result boundaries; sampling paths stage
to the host at a single ``to_numpy`` point before any generator draws.

Expectation values are analytic by default, matching the paper's PennyLane
setup.  Shot-based estimation is available as an opt-in via ``shots=`` for
studying sampling noise (an extension experiment).

Batched execution
-----------------
:meth:`StatevectorSimulator.run_batch` and
:meth:`StatevectorSimulator.expectation_batch` evolve a ``(B, 2**n)``
amplitude buffer through one circuit for ``B`` parameter vectors at once:
fixed gates are applied to all rows with a single shared matrix, trainable
gates gather their per-row angles and apply a ``(B, 2**k, 2**k)`` matrix
stack (see :meth:`ParametricGate.matrix_batch`).  They run the circuit's
cached one-circuit :class:`MegaBatchPlan`
(:meth:`QuantumCircuit.execution_plan`) through the mega-batch chunk loop
below, which is the only loop that evolves rows:
:meth:`~StatevectorSimulator.run` is row 0 of a one-row ``run_batch``,
and :meth:`~StatevectorSimulator.unitary` evolves the ``2**n`` basis
states as one stack.  Rows never mix, so a row carries the same bits
alone or in any stack — the parameter-shift variance sweep relies on it
to fold every method's draws and both shift terms into one call.

The sampled path is batched too: ``expectation_batch(..., shots=, seed=)``
applies each Pauli term's diagonalizing rotations once to the whole
``(B, 2**n)`` stack and then draws row-wise counts from one independent
generator per row (:meth:`StatevectorSimulator.sampled_expectation_rows`);
the scalar ``expectation(shots=...)`` is row 0 of the same method.

Mega-batched execution
----------------------
:meth:`StatevectorSimulator.run_megabatch` generalizes ``run_batch`` from
one circuit to a whole *shape bucket* of circuits: many circuits sharing a
gate-sequence shape (same wires, same parameter slots, same fixed layers —
see :func:`repro.ansatz.random_pqc.circuit_shape_key`) evolve together in
one ``(B, 2**n)`` stack.  A :class:`MegaBatchPlan` stores, per trainable
slot, the per-circuit gate table (read off its circuits, or off a code
table of draws with no circuit per structure).

One rule applies every run of consecutive trainable slots, one-circuit
plans included: per chunk, the run's rows get one per-row table of their
gates' matrices at their angles (:meth:`MegaBatchPlan.slot_operands`,
one batched call per gate), and dense :func:`apply_matrix` calls apply
it — diagonal gates (RZ, RZZ, CRZ, PHASE) too, so a row's kernel never
depends on its neighbours' gates.  Up to ``_FUSE_MAX`` consecutive
single-qubit slots whose qubits sit on the chunk's trailing axes are one
fused call: its operand is each row's ``(k, 2, 2)`` factor stack, which
the kernel expands to their Kronecker product, so a ten-qubit rotation
layer streams the chunk four times instead of ten.  The fused product
rounds differently from gate-by-gate application (ulp-level), and a
``start``/``stop`` cut inside a group splits it; a circuit whose slots
form no group (the hardware-efficient ansatz, whose RX and RY share a
qubit) keeps the gate-by-gate bits.  Fused CZ runs and fixed or bound
diagonals stay on :func:`apply_diagonal`.  Every kernel is per-row
independent, so row ``b`` is bit-identical to its own circuit's
``run_batch`` (and ``run``) row: mega-batching is a pure throughput
change, which lets the variance experiment fold a grid cell's
(structure, method, shift-term) evaluations into a few hundred-row
executions.  The rule's bits are part of the numerics stamp
(:func:`repro.utils.machine.numerics_stamp`).

One loop, two programs
----------------------
:meth:`StatevectorSimulator._run_megabatch_data` is the one loop that
evolves plan rows, for this simulator and for its subclass
:class:`~repro.backend.ptm.PauliTransferSimulator`.  The statevector
program is the plan's compiled steps (slot runs, fixed operations, fused
diagonal runs) on ``2**n`` amplitudes; the Pauli-transfer program maps
every operation to its transfer matrix and the noise model's channel
transfer matrices on a doubled register of ``4**n`` components.  The
subclass supplies only the register width, the default row, the program
and the slot step (the statevector's is the slot rule's one operand
table and one :func:`apply_matrix` call per group; the Pauli-transfer
step builds each gate code's transfer matrices, one slot at a time);
estimation and the sampled stages are shared.

The stack evolves one cache-sized chunk at a time between two buffers
allocated once per call: every step writes into the spare buffer
(``out=``) and the two swap.  Each chunk also carries a qubit axis
order (see :mod:`repro.backend.statevector`), compiled once per plan and
operation range (:meth:`StatevectorSimulator._program`).  A chunk starts
in the order that puts each single-qubit target of the program's opening
gates on the trailing axis when its gate comes; for a layer over qubits
``0..n-1`` (the random PQCs and the hardware-efficient ansatz) that is
the reversed order, which the layer leaves as it found it, so every
rotation is one GEMM per row on an F-ordered view and no kernel copies
the stack.  Fused CZ-chain diagonals are applied permuted to the current
order.  Canonical order comes back once per chunk, before its rows are
written or reduced: a closing fused diagonal writes it directly, and
otherwise one copy restores it.  The Pauli-transfer program, whose steps
act on bit pairs, stays canonical.  A chunk's rows stay in the caller's
order throughout, so a finished chunk is one slice write into the
result.  A fold — the rows of
:meth:`~StatevectorSimulator.expectation_batch`, or the shifted rows of a
shift-rule gradient, gathered from shared prefix states — instead reduces
each chunk to expectations as soon as it is finished, so it never holds
more than one chunk of states.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import Operation, QuantumCircuit, is_exact_unit_diagonal
from repro.backend.gates import ParametricGate
from repro.backend.observables import Observable, PauliString, PauliSum, Projector
from repro.backend.statevector import (
    Statevector,
    apply_diagonal,
    apply_matrix,
    moved_axes,
    permute_axes,
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
from repro.utils.rng import SeedLike, ensure_rng, resolve_rngs
from repro.utils.validation import check_positive_int

__all__ = [
    "StatevectorSimulator",
    "MegaBatchPlan",
    "batch_chunk_rows",
]

#: Most consecutive single-qubit slots one fused rotation call applies.
#: A group of ``k`` slots is one ``2**k``-square Kronecker operand per
#: row, so it streams the chunk once instead of ``k`` times, at
#: ``2**(k-1) / k`` times the flops (1.33x for 3, 2x for 4).  Median of
#: four warm paper-scale Fig. 5a passes per setting, interleaved in one
#: process (2-core x86-64, numpy 2.4.6, scipy-openblas), by most slots
#: per GEMM and numpy chunk budget: 1 at 8 MiB 2.58 s, 2 at 8 MiB
#: 1.79 s, 3 at 8 MiB 1.81 s, 4 at 8 MiB 2.04 s; 2 at 2 MiB 1.72 s,
#: 3 at 2 MiB 1.75 s, 3 at 4 MiB 1.72 s, 4 at 2 MiB 1.83 s.  Past 3 the
#: flops cost more than the saved stream; 2 and 3 tie within the host's
#: noise, and 3 makes a third fewer calls.  The budget stays 8 MiB, as
#: smaller chunks gain nothing once slots fuse.
_FUSE_MAX = 3


def batch_chunk_rows(
    num_qubits: int, backend: Optional[ArrayBackend] = None
) -> int:
    """Rows per memory-aware batch chunk at this register width.

    The single source of the chunking policy shared by
    :meth:`StatevectorSimulator.run_batch`,
    :meth:`StatevectorSimulator.run_megabatch`,
    :meth:`StatevectorSimulator.sampled_expectation_rows`, and the
    benchmarks that report effective fold sizes.  The budget is
    per-backend (``backend.chunk_bytes``, the numpy backend's when
    ``backend`` is omitted): the numpy default keeps a chunk
    cache-resident, accelerator backends use a much larger budget so
    kernel-launch overhead amortizes over the biggest resident batch.
    """
    chunk_bytes = resolve_array_backend(backend).chunk_bytes
    return max(1, chunk_bytes // (16 * 2**num_qubits))


@lru_cache(maxsize=64)
def _fused_unit_diagonal(
    run: "Tuple[Operation, ...]", num_qubits: int, axes: "Optional[tuple]" = None
) -> np.ndarray:
    """Full-space ``(2**n,)`` product of a run of exact-unit diagonals,
    memoized: circuits built from one skeleton share their entangler runs,
    so a plan per structure circuit fuses each run once.  With ``axes``,
    its entries in that axis order (see :mod:`repro.backend.statevector`).
    Read-only."""
    if axes is not None:
        fused = _fused_unit_diagonal(run, num_qubits)
        return fused.reshape((2,) * num_qubits).transpose(axes).reshape(-1)
    fused = np.ones(2**num_qubits, dtype=COMPLEX_DTYPE)
    for op in run:
        fused = apply_diagonal(fused, np.diagonal(op.matrix(None)), op.qubits, num_qubits)
    return fused


def _start_axes(steps, num_qubits: int) -> "Tuple[int, ...]":
    """The axis order a chunk starts in: each single-qubit target of the
    program's opening gates, in first-use order, is on the trailing axis
    when its gate comes (a layer over qubits ``0..n-1`` starts reversed
    and ends reversed again)."""
    seen: "List[int]" = []
    for kind, _, _, payload in steps:
        if kind == "fused_diag":
            continue
        if len(payload.qubits) > 1:
            break
        if payload.qubits[0] not in seen:
            seen.append(payload.qubits[0])
    rest = tuple(q for q in range(num_qubits) if q not in seen)
    return rest + tuple(reversed(seen))


def _slot_runs(steps) -> list:
    """``steps`` with each run of consecutive single-qubit trainable slots
    merged into one ``("slot", lo, hi, ops)`` step (a slot on more
    qubits is a run of its own)."""
    merged = []
    for kind, lo, hi, payload in steps:
        if kind != "slot":
            merged.append((kind, lo, hi, payload))
        elif (
            merged
            and merged[-1][0] == "slot"
            and len(payload.qubits) == 1
            and len(merged[-1][3][-1].qubits) == 1
        ):
            merged[-1] = ("slot", merged[-1][1], hi, merged[-1][3] + (payload,))
        else:
            merged.append(("slot", lo, hi, (payload,)))
    return merged


def _fused_run(ops, lo: int, axes) -> tuple:
    """The statevector slot step of a run of trainable slots (operations
    ``lo, lo + 1, ...``) that starts in ``axes``, and the order it leaves.

    The payload is ``(positions, param_indices, groups)``.  The run's
    operand table is built last slot first (``positions``, and
    ``param_indices`` their angles), so a group of slots is one slice
    ``table[:, a:b]`` whose factor 0 is its last gate.  A group is up to
    ``_FUSE_MAX`` consecutive single-qubit slots whose qubits hold the
    chunk's trailing axes in reverse gate order, each slot's qubit
    trailing when its gate comes; it is one :func:`apply_matrix` call
    on those axes, ``(a, b, qubits, axes)``, and leaves the order its
    gates would have left one by one.  A one-slot group's operand is
    ``table[:, a]``.
    """
    count, limit = len(ops), min(_FUSE_MAX, len(axes))
    groups = []
    start = 0
    while start < count:
        stop = start + 1
        if ops[start].qubits[0] == axes[-1]:
            while (
                stop < count
                and stop - start < limit
                and ops[stop].qubits[0] == axes[start - stop - 1]
            ):
                stop += 1
        qubits = axes[start - stop :] if stop - start > 1 else ops[start].qubits
        groups.append((count - stop, count - start, qubits, axes))
        axes = moved_axes(axes, qubits)
        start = stop
    positions = tuple(range(lo + count - 1, lo - 1, -1))
    param_indices = np.array([op.param_index for op in reversed(ops)], dtype=np.intp)
    return (positions, param_indices, groups), axes


def _ordered_program(plan: "MegaBatchPlan", steps) -> tuple:
    """Compile plan steps for the chunk loop; see
    :meth:`StatevectorSimulator._program`."""
    num_qubits = plan.num_qubits
    canonical = tuple(range(num_qubits))
    axes = first = _start_axes(steps, num_qubits)
    steps = _slot_runs(steps)
    program = []
    for index, (kind, lo, hi, payload) in enumerate(steps):
        if kind == "slot":
            payload, axes = _fused_run(payload, lo, axes)
            program.append(("slot", lo, hi, payload))
            continue
        if kind == "fused_diag":
            if index == len(steps) - 1:
                # Written in canonical order, so the chunk needs no
                # closing copy.
                program.append(("diagonal", lo, hi, (payload, canonical, axes)))
                axes = canonical
            else:
                run = tuple(plan.template.operations[lo:hi])
                fused = _fused_unit_diagonal(run, num_qubits, axes)
                program.append(("diagonal", lo, hi, (fused, axes, axes)))
            continue
        qubits = payload.qubits
        if getattr(payload.gate, "is_diagonal", False):
            diagonal = np.diagonal(payload.matrix(None))
            program.append(("diagonal", lo, hi, (diagonal, qubits, axes)))
        else:
            program.append(("matrix", lo, hi, (payload.matrix(None), qubits, axes)))
        axes = moved_axes(axes, qubits)
    return (
        program,
        None if first == canonical else first,
        None if axes == canonical else axes,
    )


def _code_table(ops, slots, gates, codes) -> tuple:
    """The distinct ``gates`` and ``codes`` as a validated ``(circuits,
    slots)`` table of indices into them.  Gates are distinct by name:
    registry gates are singletons, and a pool naming a gate twice codes
    it once."""
    table = np.asarray([] if codes is None else codes)
    if not len(table):
        raise ValueError("MegaBatchPlan needs at least one circuit")
    table = table.reshape(len(table), -1) if table.ndim != 2 else table
    if table.shape[1] != len(slots):
        raise ValueError(
            f"code rows have {table.shape[1]} entries, the template has "
            f"{len(slots)} trainable operations"
        )
    if table.size and (table.min() < 0 or table.max() >= len(gates)):
        raise ValueError(f"gate codes must index the {len(gates)} given gates")
    distinct: Dict[str, ParametricGate] = {}
    for gate in gates:
        distinct.setdefault(gate.name, gate)
    code_of = {name: code for code, name in enumerate(distinct)}
    table = np.array([code_of[gate.name] for gate in gates], dtype=np.intp)[table]
    gates = list(distinct.values())
    arity = [g.num_qubits if isinstance(g, ParametricGate) else 0 for g in gates]
    wires = [len(ops[pos].qubits) for pos in slots]
    if np.any(np.array(arity, dtype=np.intp)[table] != wires):
        raise ValueError("every coded gate must be parametric on its slot's qubits")
    return gates, table


class MegaBatchPlan:
    """Validated execution plan for a *shape bucket* of circuits.

    Circuits share a shape when their operation sequences agree on
    everything except which parametric gate occupies each trainable slot
    (:func:`repro.ansatz.random_pqc.circuit_shape_key`).  A bucket is a
    template circuit plus a code table, one row per circuit and one column
    per trainable slot, naming the gate each circuit applies there.  The
    plan compiles the shared template into an execution program:

    * each trainable slot carries the per-circuit gate table — the
      "per-row gate-parameter table" that lets
      :meth:`StatevectorSimulator.run_megabatch` apply different gates
      and angles to different rows of a single amplitude stack, every
      row by its gate's matrix (:meth:`slot_operands`) in one dense
      kernel call: a kernel chosen per slot or per chunk would make a
      row's bits depend on its neighbours;
    * maximal runs of fixed diagonal operations whose entries are exact
      units (components 0/±1 — e.g. a CZ entangling chain; see
      :func:`~repro.backend.circuit.is_exact_unit_diagonal`) are fused
      into one precomputed full-space diagonal, applied in a single
      elementwise pass.  Multiplying by such units is exact, so the
      fused pass is value-identical to applying the run gate by gate
      (sign-of-zero on exactly-zero amplitudes is the only bit that may
      differ — invisible to ``np.array_equal``, the library's equality).

    There are two ways in.  ``MegaBatchPlan(circuits)`` checks that the
    circuits share the first one's shape and reads the code table off
    their slots; a plan of one circuit is the program
    :meth:`StatevectorSimulator.run_batch` runs
    (:meth:`QuantumCircuit.execution_plan` builds it once per circuit).
    ``MegaBatchPlan(template=..., gates=..., codes=...)`` takes the table
    directly, with no circuit per row: ``codes`` has one row per circuit
    (e.g. each :class:`~repro.ansatz.random_pqc.RandomPQC`'s ``codes``
    over its skeleton) of indices into ``gates``, a pool where a name
    given twice is one gate; column ``k`` is the template's ``k``-th
    trainable operation, whose own gate is not read.  Either way the
    slot tables are the same, and row ``b`` of a run equals
    ``run_batch(plan.circuit(row_circuits[b]), ...)``'s row, where
    :meth:`circuit` rebuilds circuit ``i`` from the template and row
    ``i`` of the table.

    Raises
    ------
    ValueError
        If the circuits do not share a shape (mismatched wires, parameter
        slots, or fixed operations), no circuit or code row is given, or
        a code table does not fit its template and gates.
    """

    def __init__(
        self,
        circuits: Sequence[QuantumCircuit] = (),
        *,
        template: Optional[QuantumCircuit] = None,
        gates: Sequence[ParametricGate] = (),
        codes=None,
    ):
        if template is None:
            circuits = list(circuits)
            if not circuits:
                raise ValueError("MegaBatchPlan needs at least one circuit")
            template = circuits[0]
            for index, other in enumerate(circuits[1:], start=1):
                self._check_same_shape(template, other, index)
        elif circuits:
            raise ValueError("give MegaBatchPlan circuits or a template, not both")
        ops = template.operations
        slots = [pos for pos, op in enumerate(ops) if op.is_trainable]
        if circuits:
            # Every circuit's slot gates, each its own code.
            gates = [c.operations[pos].gate for c in circuits for pos in slots]
            codes = np.arange(len(gates)).reshape(len(circuits), len(slots))
        gates, table = _code_table(ops, slots, list(gates), codes)
        self.template = template
        self.num_qubits = template.num_qubits
        self.num_parameters = template.num_parameters
        self.num_circuits = table.shape[0]
        #: The distinct gates, and the ``(circuits, slots)`` table of
        #: indices into them: entry ``[c, k]`` is circuit ``c``'s gate in
        #: the template's ``k``-th trainable operation.
        self.gates, self.codes = gates, table
        #: ``operation position -> column`` of :attr:`codes`.
        self.slot_columns = {pos: column for column, pos in enumerate(slots)}
        #: ``param_index -> operation position`` of the template.
        self.param_positions = {ops[pos].param_index: pos for pos in slots}
        # Per trainable position: the distinct gates (first-appearance
        # order) plus a per-circuit code array selecting among them.
        self.slot_gates: Dict[int, Tuple[List[ParametricGate], np.ndarray]] = {}
        self._slot_tables(slots, gates, table)
        self.steps = self._compile_steps()
        #: Compiled chunk-loop programs by operation range (see
        #: :meth:`StatevectorSimulator._program`).
        self.programs: "Dict[tuple, tuple]" = {}
        #: :attr:`codes` columns of each slot run :meth:`slot_operands`
        #: has built, by their positions.
        self._run_codes: "Dict[tuple, np.ndarray]" = {}

    def _slot_tables(self, slots, gates, table) -> None:
        """Fill :attr:`slot_gates` from a ``(circuits, slots)`` table of
        distinct-gate indices, with column operations: every column's
        gates in first-appearance order."""
        height = table.shape[0]
        rows = np.arange(height)[:, None]
        # first[g, k]: the first circuit with gate g in slot k (height: none).
        first = np.full((len(gates), table.shape[1]), height)
        for g in range(len(gates)):
            first[g] = np.where(table == g, rows, height).min(axis=0)
        # codes[k, c]: circuit c's gate's rank among slot k's gates.
        rank = (first[None, :, :] < first[:, None, :]).sum(axis=1)
        codes = np.ascontiguousarray(np.take_along_axis(rank, table, axis=0).T)
        for pos, column, slot_codes in zip(slots, first.T.tolist(), codes):
            present = [g for g in range(len(gates)) if column[g] < height]
            present.sort(key=column.__getitem__)
            self.slot_gates[pos] = ([gates[g] for g in present], slot_codes)

    def slot_operands(
        self, pos, rows: np.ndarray, thetas: np.ndarray, derivative: bool = False
    ) -> np.ndarray:
        """Per-row operand table of trainable slot ``pos``: ``(B, 2**k,
        2**k)``, row ``i`` the matrix (or, with ``derivative``, the
        derivative) of circuit ``rows[i]``'s gate at angle ``thetas[i]``.

        ``pos`` may also be a tuple of slot positions, all on ``k``
        qubits, with ``(B, R)`` ``thetas``: the ``(B, R, 2**k, 2**k)``
        table whose column ``r`` is slot ``pos[r]``'s.  Either way the
        table takes one batched call per gate of the :attr:`codes` it
        reads.  Diagonal gates are their matrices too: the slot rule that
        keeps a row's bits its own.
        """
        batch = "derivative_batch" if derivative else "matrix_batch"
        several = isinstance(pos, tuple)
        if not several:
            gates = self.slot_gates[pos][0]
            if len(gates) == 1:
                return getattr(gates[0], batch)(thetas)
        positions = pos if several else (pos,)
        codes = self._run_codes.get(positions)
        if codes is None:
            columns = [self.slot_columns[p] for p in positions]
            codes = self._run_codes[positions] = self.codes[:, columns]
        keys = np.take(codes, rows, axis=0).reshape(-1)
        thetas = np.asarray(thetas, dtype=FLOAT_DTYPE).reshape(-1)
        present = np.flatnonzero(np.bincount(keys, minlength=len(self.gates)))
        if len(present) == 1:
            table = getattr(self.gates[present[0]], batch)(thetas)
        else:
            dim = self.gates[present[0]].dim
            table = np.empty((keys.size, dim, dim), dtype=COMPLEX_DTYPE)
            for code in present.tolist():
                sel = np.flatnonzero(keys == code)
                table[sel] = getattr(self.gates[code], batch)(thetas[sel])
        head = codes.shape[1:] if several else ()
        return table.reshape((len(rows),) + head + table.shape[1:])

    def circuit(self, index: int) -> QuantumCircuit:
        """Circuit ``index`` of the bucket: the template with that
        circuit's gate in every trainable slot."""
        return self.template.with_slot_gates(
            [self.gates[code] for code in self.codes[index].tolist()]
        )

    def _compile_steps(self) -> "List[tuple]":
        """Compile the template into ``(kind, lo, hi, payload)`` steps.

        ``[lo, hi)`` is the operation-position span each step covers, so
        :meth:`StatevectorSimulator.run_megabatch` can execute any
        ``[start, stop)`` slice of the circuit.  Kinds:

        * ``"slot"`` — one trainable operation (payload: the operation);
        * ``"op"`` — one fixed/bound operation (payload: the operation);
        * ``"fused_diag"`` — a maximal run of consecutive fixed diagonal
          operations with exact-unit entries, collapsed into one
          precomputed ``(2**n,)`` diagonal (payload).
        """
        ops = self.template.operations
        steps: "List[tuple]" = []
        pos = 0
        while pos < len(ops):
            op = ops[pos]
            if op.is_trainable:
                steps.append(("slot", pos, pos + 1, op))
                pos += 1
                continue
            if is_exact_unit_diagonal(op):
                stop = pos + 1
                while stop < len(ops) and is_exact_unit_diagonal(ops[stop]):
                    stop += 1
                fused = _fused_unit_diagonal(tuple(ops[pos:stop]), self.num_qubits)
                steps.append(("fused_diag", pos, stop, fused))
                pos = stop
                continue
            steps.append(("op", pos, pos + 1, op))
            pos += 1
        return steps

    @staticmethod
    def _check_same_shape(
        template: QuantumCircuit, other: QuantumCircuit, index: int
    ) -> None:
        if other.num_qubits != template.num_qubits:
            raise ValueError(
                f"circuit {index} has {other.num_qubits} qubits, "
                f"plan template has {template.num_qubits}"
            )
        if len(other.operations) != len(template.operations):
            raise ValueError(
                f"circuit {index} has {len(other.operations)} operations, "
                f"plan template has {len(template.operations)}"
            )
        for pos, (op_a, op_b) in enumerate(
            zip(template.operations, other.operations)
        ):
            if op_a is op_b:
                # Skeleton-built circuits share fixed-operation objects.
                continue
            if op_a.is_trainable != op_b.is_trainable:
                raise ValueError(
                    f"circuit {index}, operation {pos}: trainable/"
                    "non-trainable mismatch with the plan template"
                )
            if op_a.is_trainable:
                # The code table checks the slot's gate.
                if (op_a.qubits, op_a.param_index) != (op_b.qubits, op_b.param_index):
                    raise ValueError(
                        f"circuit {index}, operation {pos}: trainable slot "
                        f"differs from the plan template (wires "
                        f"{op_b.qubits} vs {op_a.qubits}, parameter "
                        f"{op_b.param_index} vs {op_a.param_index})"
                    )
            elif op_a != op_b:
                # Fixed and bound-parameter operations are baked into the
                # executed matrices, so they must match exactly.
                raise ValueError(
                    f"circuit {index}, operation {pos}: fixed operation "
                    f"{op_b.gate.name} on {op_b.qubits} differs from the "
                    f"plan template's {op_a.gate.name} on {op_a.qubits}"
                )


def _check_observable_width(observable: Observable, num_qubits: int) -> None:
    """Reject an observable whose width is not the states' own."""
    if observable.num_qubits != num_qubits:
        raise ValueError(
            f"state has {num_qubits} qubits, observable needs "
            f"{observable.num_qubits}"
        )


class StatevectorSimulator:
    """Runs :class:`QuantumCircuit` objects on exact statevectors.

    Parameters
    ----------
    backend:
        Array backend the kernels run on — a name (``"numpy"``,
        ``"torch"``, ``"torch:cuda:0"``, ``"cupy"``, ...), an
        :class:`~repro.utils.array_api.ArrayBackend` instance, or
        ``None`` for numpy.  The numpy default executes the exact
        pre-backend kernels bit for bit; other namespaces are held to
        the device-tolerance contract (see :mod:`repro.utils.array_api`).
        The handle is immutable, so a simulator is still freely
        shareable across experiments and threads.

    :class:`~repro.backend.ptm.PauliTransferSimulator` subclasses it: the
    row loop (:meth:`_run_megabatch_data`), the estimation entry points
    and the sampled stages are shared, and the subclass supplies its
    register width, default row, program and slot step.
    """

    #: Register qubits per circuit qubit: a statevector row holds
    #: ``2**n`` amplitudes.
    _REGISTER_FACTOR = 1
    #: Classical bit-flip probability applied to sampled outcomes.
    _readout = None

    def __init__(
        self, backend: "Optional[str | ArrayBackend]" = None
    ) -> None:
        self.backend = resolve_array_backend(backend)

    def run(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state: Optional[Statevector] = None,
    ) -> Statevector:
        """Evolve the initial state (default ``|0...0>``) through ``circuit``.

        Parameters
        ----------
        circuit:
            The circuit to execute.
        params:
            Trainable parameter vector; required iff the circuit has
            trainable operations.
        initial_state:
            Starting state; defaults to ``|0...0>``.

        One state is a one-row stack: the result is row 0 of
        :meth:`run_batch`.
        """
        row = self._params_row(circuit, params)
        return Statevector(
            self.run_batch(circuit, row, initial_state)[0], validate=False
        )

    def run_batch(
        self,
        circuit: QuantumCircuit,
        params_batch: Sequence[Sequence[float]],
        initial_state: Optional[Statevector] = None,
    ) -> np.ndarray:
        """Evolve ``B`` parameter vectors through ``circuit`` at once.

        Parameters
        ----------
        circuit:
            The circuit to execute.
        params_batch:
            ``(B, num_parameters)`` array — one trainable parameter vector
            per row.
        initial_state:
            Starting state shared by every row; defaults to ``|0...0>``.

        Returns
        -------
        numpy.ndarray
            ``(B, 2**num_qubits)`` complex amplitudes, row ``b`` bit-identical
            to ``self.run(circuit, params_batch[b]).data``.

        The rows run the circuit's cached one-circuit
        :class:`MegaBatchPlan`, whose fused exact-unit diagonal runs (a
        CZ chain) may flip only the sign of an exactly-zero amplitude.
        """
        data = self._run_batch_data(circuit, params_batch, initial_state)
        backend = self.backend
        return data if backend.is_numpy else backend.to_numpy(data)

    def _run_batch_data(
        self,
        circuit: QuantumCircuit,
        params_batch: Sequence[Sequence[float]],
        initial_state: Optional[Statevector] = None,
    ):
        """:meth:`run_batch` without the result-boundary conversion.

        Returns the ``(B, 2**n)`` amplitude stack on the simulator's
        array backend (a plain numpy array for the numpy backend, a
        device-resident array otherwise): :meth:`_run_megabatch_data` on
        :meth:`QuantumCircuit.execution_plan`, every row on circuit 0.
        """
        batch_array = self._coerce_params_batch(circuit, params_batch)
        return self._run_megabatch_data(
            circuit.execution_plan(),
            batch_array,
            np.zeros(batch_array.shape[0], dtype=np.intp),
            initial_state,
        )

    def run_megabatch(
        self,
        plan: MegaBatchPlan,
        params_batch: Sequence[Sequence[float]],
        row_circuits: Sequence[int],
        initial_state: "Optional[Statevector | np.ndarray]" = None,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Evolve rows of many same-shape circuits in one amplitude stack.

        The mega-batched generalization of :meth:`run_batch`: rather than
        ``B`` parameter vectors of *one* circuit, the stack holds rows of
        every circuit in a :class:`MegaBatchPlan`'s shape bucket.  Fixed
        operations apply one shared matrix to all rows (fused entangler
        runs apply their precomputed diagonal in one elementwise pass);
        each trainable slot is one dense kernel call with a per-row
        table of every row's own gate matrix, diagonal gates included,
        so the drawn gate, like the angle, is row data.  Rows evolve
        independently through exactly the kernels :meth:`run_batch`
        dispatches per gate, so row ``b`` equals ``self.run_batch(plan.circuit(
        row_circuits[b]), params_batch[b:b+1])[0]`` bit for bit (up to
        the sign of exactly-zero amplitudes under fused diagonals — see
        :class:`MegaBatchPlan`): mega-batching is a pure throughput
        change, the contract the variance engine's shape-bucket fold
        relies on.

        Parameters
        ----------
        plan:
            The validated shape bucket.
        params_batch:
            ``(B, num_parameters)`` array — one parameter vector per row.
        row_circuits:
            Length-``B`` index array mapping each row to its circuit in
            the plan (a row of its code table).
        initial_state:
            Starting state: ``None`` for ``|0...0>``, a shared
            :class:`Statevector`, or a per-row ``(B, 2**n)`` amplitude
            stack (e.g. a previous ``run_megabatch(stop=...)`` result —
            the substrate of shared-prefix shift-rule evaluation).
        start, stop:
            Execute only operations ``[start, stop)`` (default: all).
            Boundaries must not split a fused diagonal run; the
            shift-rule engines always split at trainable operations, who
            are never inside one.

        Returns
        -------
        numpy.ndarray
            ``(B, 2**num_qubits)`` complex amplitudes.
        """
        data = self._run_megabatch_data(
            plan, params_batch, row_circuits, initial_state, start, stop
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
        """:meth:`run_megabatch` without the result-boundary conversion.

        The one loop that evolves plan rows, for this simulator and its
        Pauli-transfer subclass: :meth:`_program` supplies the steps
        covering operations ``[start, stop)``, :meth:`_initial_row` the
        row each chunk starts from, and ``_REGISTER_FACTOR`` the row
        width.  Returns the ``(B, width)`` stack on the simulator's array
        backend and accepts a per-row ``initial_state`` already resident
        there — the substrate that keeps a whole mega-batch slot sweep
        (and the shift-rule engines' prefix/suffix resumptions)
        device-resident end to end.

        The rows run in :func:`batch_chunk_rows` chunks, one after the
        other, between two chunk-sized buffers allocated once per call:
        each chunk copies its initial rows into one buffer in the
        program's first axis order, every statevector step writes the
        other (``out=``) and the two swap, and the chunk is written into
        its rows of the freshly allocated result, in canonical order (a
        chunk that ends permuted is permuted straight into them).
        ``initial_state`` is only read, so the result never aliases it.

        With ``initial_rows``, row ``i`` is gathered straight into the
        chunk buffer from row ``initial_rows[i]`` of the per-row stack.
        With ``estimate=(observable, out, shots, rngs)`` each finished
        chunk is reduced into ``out`` instead (returns ``None``).
        """
        batch_array, rows, start, stop = self._check_plan_run(
            plan, params_batch, row_circuits, start, stop
        )
        steps, first_axes, last_axes = self._program(plan, start, stop)
        num_qubits = plan.num_qubits
        register = self._REGISTER_FACTOR * num_qubits
        batch = batch_array.shape[0]
        dim = 2**register
        backend = self.backend
        complex_dtype = backend.complex_dtype
        canonical = tuple(range(register))
        shared = self._initial_row(initial_state, num_qubits)
        if shared is not None:
            if initial_rows is not None:
                raise ValueError("initial_rows needs a per-row initial stack")
            if first_axes is not None:
                shared = np.asarray(shared).reshape((2,) * register)
                shared = shared.transpose(first_axes).reshape(-1)
            initial = backend.asarray(shared, dtype=complex_dtype)
        else:
            initial = self._per_row_stack(initial_state, initial_rows, batch, dim)
        # The stack evolves in row chunks sized to keep the buffer
        # cache-resident (numpy) or launch-efficient (device backends):
        # every gate streams the whole buffer through memory, so an
        # oversized batch trades the batching win back for DRAM
        # bandwidth.  Rows are independent, so chunk boundaries are
        # invisible to the results.
        chunk = batch_chunk_rows(register, backend)
        result = None if estimate else backend.zeros((batch, dim), complex_dtype)
        buffer = backend.zeros((min(chunk, batch), dim), complex_dtype)
        spare_buffer = backend.empty_like(buffer)
        for first in range(0, batch, chunk):
            last = min(first + chunk, batch)
            data = buffer[: last - first]
            spare = spare_buffer[: last - first]
            if shared is not None:
                data[...] = initial
            else:
                rows_in = data if first_axes is None else spare
                if initial_rows is not None:
                    backend.take_rows(initial, initial_rows[first:last], out=rows_in)
                else:
                    rows_in[...] = initial[first:last]
                if first_axes is not None:
                    permute_axes(rows_in, canonical, first_axes, register, data, backend)
            chunk_params, chunk_rows = batch_array[first:last], rows[first:last]
            for kind, lo, _, payload in steps:
                if kind == "slot":
                    data, spare = self._apply_megabatch_slot(
                        plan, lo, payload, data, spare, chunk_params, chunk_rows,
                        backend,
                    )
                    continue
                operand, qubits, axes = payload
                kernel = apply_matrix if kind == "matrix" else apply_diagonal
                kernel(
                    data, operand, qubits, num_qubits,
                    backend=backend, out=spare, axes=axes,
                )
                data, spare = spare, data
            if estimate is None:
                if last_axes is None:
                    result[first:last] = data
                else:
                    permute_axes(
                        data, last_axes, canonical, register, result[first:last],
                        backend,
                    )
                continue
            if last_axes is not None:
                permute_axes(data, last_axes, canonical, register, spare, backend)
                data, spare = spare, data
            observable, out, shots, rngs = estimate
            if shots is None:
                out[first:last] = self._analytic_rows(data, observable)
            else:
                out[first:last] = self.sampled_expectation_rows(
                    data, observable, shots, rngs[first:last]
                )
        return result

    def _check_plan_run(self, plan, params_batch, row_circuits, start, stop):
        """Validated ``(B, P)`` params, row circuit indices and int range."""
        batch_array = self._coerce_params_batch(plan.template, params_batch)
        rows = np.asarray(row_circuits, dtype=np.intp).reshape(-1)
        if rows.shape[0] != batch_array.shape[0]:
            raise ValueError(
                f"got {rows.shape[0]} row-circuit indices for "
                f"{batch_array.shape[0]} parameter rows"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= plan.num_circuits):
            raise ValueError(
                f"row_circuits must index into the plan's "
                f"{plan.num_circuits} circuits"
            )
        num_ops = len(plan.template.operations)
        stop = num_ops if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= num_ops:
            raise ValueError(
                f"invalid operation range [{start}, {stop}) for a circuit "
                f"with {num_ops} operations"
            )
        return batch_array, rows, start, stop

    @staticmethod
    def _program(plan: MegaBatchPlan, start: int, stop: int) -> tuple:
        """``(steps, first_axes, last_axes)`` covering operations
        ``[start, stop)``, compiled once per plan and range.

        ``steps`` are ``(kind, lo, hi, payload)``: a ``"slot"`` carries
        ``(op, axes)``, a ``"matrix"`` or ``"diagonal"`` step ``(operand,
        qubits, axes)``, where ``axes`` is the order the chunk is in when
        the step runs (see :mod:`repro.backend.statevector`).  A chunk
        starts in ``first_axes`` and ends in ``last_axes``; ``None`` is
        canonical order.  A fused diagonal run is applied in the current
        order, except as the last step, where it writes canonical order.
        """
        program = plan.programs.get((start, stop))
        if program is None:
            steps = []
            for step in plan.steps:
                lo, hi = step[1], step[2]
                if hi <= start or lo >= stop:
                    continue
                if lo < start or hi > stop:
                    raise ValueError(
                        f"operation range [{start}, {stop}) splits the fused "
                        f"diagonal run covering operations [{lo}, {hi})"
                    )
                steps.append(step)
            program = plan.programs[(start, stop)] = _ordered_program(plan, steps)
        return program

    @staticmethod
    def _initial_row(initial_state, num_qubits: int):
        """The row every chunk starts from (``|0...0>`` by default, or a
        shared :class:`Statevector`), or ``None`` for a per-row stack."""
        if initial_state is None:
            initial_state = Statevector.zero_state(num_qubits)
        elif not isinstance(initial_state, Statevector):
            return None
        if initial_state.num_qubits != num_qubits:
            raise ValueError(
                f"initial state has {initial_state.num_qubits} qubits, "
                f"circuit needs {num_qubits}"
            )
        return initial_state.data

    def _per_row_stack(self, initial_state, initial_rows, batch, width):
        """Stage a ``(B, width)`` initial stack, of any height when
        ``initial_rows`` holds the stack row each of the ``B`` rows reads."""
        height = batch if initial_rows is None else len(initial_state)
        shape = tuple(np.shape(initial_state))
        if shape != (height, width):
            raise ValueError(
                f"per-row initial states must be (batch, {width}), "
                f"got shape {shape}"
            )
        if initial_rows is not None and len(initial_rows) != batch:
            raise ValueError("initial_rows needs one index per parameter row")
        backend = self.backend
        return backend.asarray(initial_state, dtype=backend.complex_dtype)

    @staticmethod
    def _apply_megabatch_slot(
        plan: MegaBatchPlan,
        pos: int,
        payload: tuple,
        data,
        spare,
        params: np.ndarray,
        rows: np.ndarray,
        backend: ArrayBackend,
    ):
        """Apply one run of trainable slots with per-row gates to a chunk.

        ``payload`` is ``(positions, param_indices, groups)`` (see
        :func:`_fused_run`), ``params`` the chunk's ``(rows, P)``
        parameters and ``rows`` the plan circuit of each chunk row.  The
        run's rows get one operand table
        (:meth:`MegaBatchPlan.slot_operands`), and each group one
        :func:`apply_matrix` call, a fused group's operand its factor
        stack; every call writes the spare buffer and the two swap.
        Returns ``(data, spare)`` for the next step.  Operand assembly is
        host-side (it indexes tiny per-row metadata); the kernel stages
        the operand to the backend in one copy.
        """
        positions, param_indices, groups = payload
        table = plan.slot_operands(positions, rows, params[:, param_indices])
        for lo, hi, qubits, axes in groups:
            apply_matrix(
                data, table[:, lo] if hi - lo == 1 else table[:, lo:hi],
                qubits, plan.num_qubits, backend=backend, out=spare, axes=axes,
            )
            data, spare = spare, data
        return data, spare

    @staticmethod
    def _analytic_rows(states, observable) -> np.ndarray:
        # The observable layer is backend-aware: device stacks reduce
        # on-namespace and only the float result crosses.
        return observable.expectation_batch(states)

    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params: Optional[Sequence[float]] = None,
        initial_state: Optional[Statevector] = None,
        shots: Optional[int] = None,
        seed: SeedLike = None,
    ) -> float:
        """``<psi(params)|O|psi(params)>``, exact or shot-estimated.

        Sampled, the estimate is row 0 of :meth:`sampled_expectation_rows`
        on the one-row stack, drawing from ``seed``'s generator.
        """
        state = self.run(circuit, params, initial_state)
        if shots is None:
            return observable.expectation(state)
        return float(
            self.sampled_expectation_rows(
                state.data[None], observable, shots, [ensure_rng(seed)]
            )[0]
        )

    def expectation_batch(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params_batch: Sequence[Sequence[float]],
        initial_state: Optional[Statevector] = None,
        shots: Optional[int] = None,
        seed: "SeedLike | Sequence[SeedLike]" = None,
    ) -> np.ndarray:
        """``<O>`` for every row of ``params_batch`` in one call.

        Analytic by default; with ``shots=`` every row is estimated from
        that many measurement samples instead: each Pauli term's
        diagonalizing rotations are applied to the whole stack, then
        row-wise counts are drawn — one independent generator per row.
        It is a fold with no shifts: rows run through the circuit's
        one-circuit plan and are reduced one :func:`batch_chunk_rows`
        chunk at a time (``_run_megabatch_data(..., estimate=)``), so a
        stack of any height never holds more than one chunk of states.

        Parameters
        ----------
        circuit, observable, params_batch, initial_state:
            As in :meth:`expectation`.
        shots:
            When given, sample-estimate each row's expectation.
        seed:
            Sampled path only: a sequence of ``B`` per-row
            seeds/generators (honoured element-wise), or any single
            :data:`~repro.utils.rng.SeedLike` from which ``B`` children
            are spawned via :func:`repro.utils.rng.spawn_seeds`.

        Entry ``b`` is bit-identical to ``self.expectation(circuit,
        observable, params_batch[b])`` analytically, and to
        ``self.expectation(..., shots=shots, seed=<row b's seed>)`` in
        sampled mode — the contract the batched shot-based experiment
        paths rely on.
        """
        batch = self._coerce_params_batch(circuit, params_batch)
        rows = batch.shape[0]
        rngs = None if shots is None else resolve_rngs(seed, rows)
        estimates = np.empty(rows, dtype=FLOAT_DTYPE)
        self._run_megabatch_data(
            circuit.execution_plan(),
            batch,
            np.zeros(rows, dtype=np.intp),
            initial_state,
            estimate=(observable, estimates, shots, rngs),
        )
        return estimates

    def sampled_expectation_rows(
        self,
        states: np.ndarray,
        observable: Observable,
        shots: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Shot-estimated ``<O>`` for each row of a stack of states.

        The vectorized work — Pauli-term basis rotations and probability
        matrices — is done once per batch; the multinomial draws then walk
        the rows in order, consuming ``rngs[b]`` for row ``b`` term by
        term, so row ``b`` carries the same bits alone or in any stack.
        ``rngs`` may repeat one generator across
        consecutive rows (the batched parameter-shift path shares a
        per-trajectory stream over that trajectory's shifted rows); the
        row-major draw order keeps such shared streams sequentially
        consistent.
        """
        check_positive_int(shots, "shots")
        # Sampling is host-side by contract: device stacks cross to numpy
        # at this single staging point, before any generator draw.
        if is_device_array(states):
            states = array_backend_of(states).to_numpy(states)
        states = np.asarray(states)
        if len(rngs) != states.shape[0]:
            raise ValueError(
                f"got {len(rngs)} generators for {states.shape[0]} rows"
            )
        # Rows are processed in blocks so the per-term probability
        # matrices stay bounded (one rotated stack + one float matrix per
        # term *per block*, not per batch).  Blocking is invisible to the
        # draws: rows still walk in global order, so a generator shared
        # across consecutive rows — even straddling a block boundary —
        # is consumed exactly as in one unblocked pass.
        block = batch_chunk_rows(int(states.shape[1]).bit_length() - 1)
        estimates = np.empty(states.shape[0], dtype=FLOAT_DTYPE)
        for start in range(0, states.shape[0], block):
            stop = min(start + block, states.shape[0])
            stages = self._sampling_stages(states[start:stop], observable)
            for row in range(start, stop):
                rng = rngs[row]
                estimates[row] = float(
                    sum(stage(row - start, rng, shots) for stage in stages)
                )
        return estimates

    def _sampling_stages(self, states: np.ndarray, observable: Observable):
        """Per-term draw closures over precomputed probability matrices.

        Each stage maps ``(row, rng, shots) -> float`` and makes one
        draw per Pauli term, in term order (identity terms consume no
        randomness; a projector is one draw over every qubit).  The
        subclass hooks are :meth:`_rotate_rows` (a term's diagonalizing
        rotation), :meth:`probabilities_rows` and ``_readout``, the
        bit-flip probability drawn after each outcome.
        """
        num_qubits = (
            int(states.shape[1]).bit_length() - 1
        ) // self._REGISTER_FACTOR
        _check_observable_width(observable, num_qubits)
        readout = self._readout
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
        stages = []
        for term in terms:
            if term.is_identity:
                stages.append(lambda row, rng, shots, c=term.coefficient: c)
                continue
            rotated = states
            for matrix, qubit in term.rotation_matrices():
                rotated = self._rotate_rows(rotated, matrix, qubit, num_qubits)
            term_probs = self.probabilities_rows(rotated)

            def pauli_stage(row, rng, shots, probs=term_probs, term=term):
                bits = sample_basis_bits(
                    probs[row], shots, rng, num_qubits, readout_error=readout
                )
                return float(np.mean(term.eigenvalues_of_bits(bits)))

            stages.append(pauli_stage)
        return stages

    @staticmethod
    def _rotate_rows(states, matrix, qubit: int, num_qubits: int):
        """Apply a one-qubit basis rotation to every row."""
        return apply_matrix(states, matrix, [qubit], num_qubits)

    @staticmethod
    def probabilities_rows(states: np.ndarray) -> np.ndarray:
        """Basis-outcome distributions ``(B, 2**n)`` of amplitude rows."""
        return np.abs(states) ** 2

    @staticmethod
    def _params_row(
        circuit: QuantumCircuit, params: Optional[Sequence[float]]
    ) -> np.ndarray:
        """Validate one parameter vector; return it as a ``(1, P)`` stack."""
        if params is None:
            if circuit.num_parameters:
                raise ValueError(
                    f"circuit has {circuit.num_parameters} trainable parameters "
                    "but none were supplied"
                )
            return np.zeros((1, 0), dtype=FLOAT_DTYPE)
        array = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
        if array.size != circuit.num_parameters:
            raise ValueError(
                f"expected {circuit.num_parameters} parameters, got {array.size}"
            )
        if not np.all(np.isfinite(array)):
            raise ValueError(
                "parameters contain NaN or infinity; an optimizer has "
                "probably diverged"
            )
        return array.reshape(1, -1)

    @staticmethod
    def _coerce_params_batch(
        circuit: QuantumCircuit, params_batch: Sequence[Sequence[float]]
    ) -> np.ndarray:
        array = np.asarray(params_batch, dtype=FLOAT_DTYPE)
        if array.ndim != 2:
            raise ValueError(
                f"params_batch must be 2-D (batch, num_parameters), "
                f"got shape {array.shape}"
            )
        if array.shape[1] != circuit.num_parameters:
            raise ValueError(
                f"expected {circuit.num_parameters} parameters per row, "
                f"got {array.shape[1]}"
            )
        if array.shape[0] == 0:
            raise ValueError("params_batch must have at least one row")
        if not np.all(np.isfinite(array)):
            raise ValueError(
                "parameters contain NaN or infinity; an optimizer has "
                "probably diverged"
            )
        return array

    def probabilities(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        initial_state: Optional[Statevector] = None,
    ) -> np.ndarray:
        """Computational-basis outcome distribution after the circuit."""
        return self.run(circuit, params, initial_state).probabilities()

    def sample(
        self,
        circuit: QuantumCircuit,
        shots: int,
        params: Optional[Sequence[float]] = None,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Sample ``(shots, num_qubits)`` measurement outcomes from
        :meth:`probabilities` (readout errors included)."""
        check_positive_int(shots, "shots")
        return sample_basis_bits(
            self.probabilities(circuit, params), shots, ensure_rng(seed),
            circuit.num_qubits, readout_error=self._readout,
        )

    def unitary(
        self, circuit: QuantumCircuit, params: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Dense unitary of the whole circuit (tests / small systems only).

        Column ``j`` is the circuit applied to basis row ``j``; the basis
        rows evolve as one stack, the per-row initial stack of the
        circuit's one-circuit plan.  On the Pauli-transfer subclass the
        rows are Pauli vectors, so the result is the noisy circuit's
        ``(4**n, 4**n)`` transfer matrix.
        """
        dim = 2 ** (self._REGISTER_FACTOR * circuit.num_qubits)
        batch = np.repeat(self._params_row(circuit, params), dim, axis=0)
        data = self._run_megabatch_data(
            circuit.execution_plan(),
            batch,
            np.zeros(dim, dtype=np.intp),
            np.eye(dim, dtype=COMPLEX_DTYPE),
        )
        return np.ascontiguousarray(self.backend.to_numpy(data).T)
