"""Gradient engines for parameterized circuits.

Two exact algorithms compute ``d <O> / d params``, each with one
implementation that runs a stack of parameter rows over a
:class:`~repro.backend.simulator.MegaBatchPlan`: a shape bucket of
circuits for ``megabatch_*``, the circuit's cached one-circuit plan for
``batch_*``, and a one-row stack for a single parameter vector.

Parameter shift (``megabatch_parameter_shift``, ``batch_parameter_shift``, ``parameter_shift``)
    The exact hardware-compatible rule.  For gates ``exp(-i theta P / 2)``
    with ``P^2 = I`` it is the classic two-term form
    ``dE/dtheta = (E(theta + pi/2) - E(theta - pi/2)) / 2``; controlled
    rotations use the exact four-term rule.  Each gate carries its own
    rule (``ParametricGate.shift_terms``), so the cost is two (or four)
    circuit executions per differentiated parameter — the natural choice
    for the paper's variance analysis, which differentiates only the last
    parameter.  Every shifted vector of every row — all terms of all
    requested parameters — is folded into one execution that runs the
    circuit prefix before the first differentiated parameter once per
    base row and reduces in memory-bounded chunks.  With ``shots=`` every shifted
    expectation is sample-estimated instead, each base row drawing from
    its own generator in fold order.  ``parameter_shift`` is the one-row
    call, with the caller's generator as that row's stream;
    :func:`batch_parameter_shift_value_and_gradient` also reads per-row
    losses off the same fold, the workhorse of lock-step shot-based
    training.  The fold runs unchanged on a
    :class:`~repro.backend.ptm.PauliTransferSimulator`, shape buckets
    included.

Adjoint (``megabatch_adjoint_gradient``, ``batch_adjoint_gradient``, ``adjoint_gradient``)
    Reverse-mode differentiation through the statevector (Jones & Gacon,
    2020).  One forward pass plus one backward sweep gives the *full*
    gradient of every row in ``O(#gates)`` — the engine used for
    training.  The final states ``psi`` and the adjoint trail ``lambda =
    O psi`` are the two halves of one ``(2B, 2**n)`` pair of buffers,
    undone together in the qubit axis order each kernel leaves (see
    :mod:`repro.backend.statevector`) by a backward program compiled
    once per plan, as the forward chunk loop's is.  Each trainable slot,
    fixed gate and fused exact-unit diagonal run (a CZ chain, Z, S:
    undone by its conjugated diagonal, which is exact) is one ``out=``
    kernel call on both halves, with the kernel the forward pass uses.
    Each run of trainable slots builds one per-row operand table and one
    derivative table
    (:meth:`~repro.backend.simulator.MegaBatchPlan.slot_operands`), so
    no row is gathered by gate, and each slot's derivative is read off
    the undone pair as ``2 Re sum_ij G_ij T_ij``: ``G = U^dagger dU``
    per row, and ``T`` the transition matrix of the two halves on the
    slot's targets, which lead after the undo: one kernel call per slot.
    It rounds differently from ``2 Re <lambda| dU |psi>`` in the last
    bits (kernel version 4).  ``adjoint_gradient`` is the one-row call.
    The ``*_value_and_gradient`` variants additionally return the
    expectation read off the same forward pass, so training loops get
    loss and full gradient from one execution.  The engines need a
    unitary statevector simulator; a Pauli-transfer one is refused.

``finite_difference``
    Numerical fallback that works for any gate; used mainly to cross-check
    the exact engines in tests.

Each circuit's rows in a mega-batched call (the variance experiment's
shape-keyed fold) remain bit-identical to its own ``batch_*`` call, and
every row to its one-row call.  Forward passes fuse exact-unit diagonal
runs (see :class:`~repro.backend.simulator.MegaBatchPlan`), so only the
sign of an exactly-zero amplitude may differ from a gate-by-gate product.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.observables import Observable
from repro.backend.simulator import (
    MegaBatchPlan,
    StatevectorSimulator,
    _fused_unit_diagonal,
    _slot_runs,
)
from repro.backend.statevector import (
    Statevector,
    apply_diagonal,
    apply_matrix,
    moved_axes,
)
from repro.utils.array_api import FLOAT_DTYPE
from repro.utils.rng import ensure_rng, resolve_rngs

__all__ = [
    "parameter_shift",
    "batch_parameter_shift",
    "batch_parameter_shift_value_and_gradient",
    "megabatch_parameter_shift",
    "finite_difference",
    "adjoint_gradient",
    "adjoint_value_and_gradient",
    "batch_adjoint_gradient",
    "batch_adjoint_value_and_gradient",
    "megabatch_adjoint_gradient",
    "get_gradient_fn",
    "GRADIENT_ENGINES",
]

GradientFn = Callable[..., np.ndarray]

#: The adjoint sweep keeps two ``(2B, 2**n)`` buffers live, its state and
#: adjoint pair and the spare every step writes (``out=``), so on numpy it
#: chunks parameter rows against this fraction of the backend's
#: ``chunk_bytes``: 256 KiB of amplitudes per half (16 rows at 10 qubits,
#: 4 at 12, 1 from 14 up).  The budget sweep in
#: ``benchmarks/bench_batched_adjoint.py`` (``BENCH_batched_adjoint.json``,
#: 10 fresh-process runs per point) kept it against 16 and 64: at 10, 12
#: and 14 qubits every gap fell inside a side's quartile spread (median
#: seconds per panel at 32, 16 and 64: 0.134, 0.130 and 0.146 at 10
#: qubits; 0.227, 0.218 and 0.260 at 12; 0.455, 0.460 and 0.462 at 14).
_ADJOINT_CHUNK_DIVISOR = 32


def _resolve_indices(
    circuit: QuantumCircuit, param_indices: Optional[Sequence[int]]
) -> Sequence[int]:
    if param_indices is None:
        return range(circuit.num_parameters)
    indices = [int(i) for i in param_indices]
    for index in indices:
        if not 0 <= index < circuit.num_parameters:
            raise IndexError(
                f"parameter index {index} out of range "
                f"(circuit has {circuit.num_parameters})"
            )
    return indices


def _shift_rules(
    plan: MegaBatchPlan, indices: Sequence[int]
) -> "list[list[Tuple[Tuple[float, float], ...]]]":
    """Per circuit of ``plan``, the shift terms of each differentiated
    parameter in index order, read off the plan's slot gates.

    Raises
    ------
    ValueError
        If a differentiated gate carries no exact shift rule at all; use
        ``adjoint_gradient`` or ``finite_difference`` for such gates.
    """
    columns = []
    for index in indices:
        gates, codes = plan.slot_gates[plan.param_positions[index]]
        for gate in gates:
            if gate.shift_terms is None:
                raise ValueError(
                    f"gate {gate.name} has no exact parameter-shift rule; "
                    "use the adjoint or finite-difference engine"
                )
        columns.append([gates[code].shift_terms for code in codes.tolist()])
    return [list(rules) for rules in zip(*columns)]


def _coerce_batch(params: Sequence[float]) -> Tuple[np.ndarray, bool]:
    """Normalize 1-D/2-D ``params`` to ``(B, P)`` plus a was-single flag."""
    array = np.asarray(params, dtype=FLOAT_DTYPE)
    if array.ndim not in (1, 2):
        raise ValueError(
            f"params must be 1-D or 2-D (batch, num_parameters), "
            f"got shape {array.shape}"
        )
    single = array.ndim == 1
    return array.reshape(1, -1) if single else array, single


def parameter_shift(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
) -> np.ndarray:
    """Gradient via each gate's exact parameter-shift rule.

    Parameters
    ----------
    circuit, observable, params:
        The expectation function being differentiated.
    simulator:
        Reused if given, else a fresh one is created.
    param_indices:
        Subset of parameters to differentiate (default: all).  The result
        always has one entry per requested index, in order.
    initial_state:
        Optional non-default input state.
    shots, seed:
        When ``shots`` is given, every shifted expectation is estimated
        from that many measurement samples — the hardware-realistic
        stochastic gradient (the rule itself stays unbiased).

    Raises
    ------
    ValueError
        If a differentiated gate carries no exact shift rule at all; use
        ``adjoint_gradient`` or ``finite_difference`` for such gates.
    """
    if shots is not None:
        # One generator, consumed across all shifted evaluations in rule
        # order, keeps the per-evaluation samples independent: it is the
        # one row's stream.
        seed = [ensure_rng(seed)]
    return batch_parameter_shift(
        circuit,
        observable,
        np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1),
        simulator=simulator,
        param_indices=param_indices,
        initial_state=initial_state,
        shots=shots,
        seed=seed,
    )


def _shift_fold(
    plan: MegaBatchPlan,
    observable: Observable,
    batches: "Sequence[np.ndarray]",
    simulator: StatevectorSimulator,
    indices: Sequence[int],
    initial_state: Optional[Statevector],
    shots: Optional[int],
    seed,
    include_values: bool,
) -> "Tuple[list[np.ndarray], list[np.ndarray]]":
    """The folded shift-rule execution every shift engine runs.

    Per base row of every circuit of ``plan`` (circuits in order, rows
    within each) the fold holds an optional unshifted row
    (``include_values``), then every shifted vector the circuit's own
    rules require, in (parameter, term) order.  All agree with their base
    row before the first differentiated parameter, so that prefix runs
    once per base row and
    the folded rows branch off its states (copying amplitudes is exact),
    executed and reduced one memory-bounded chunk at a time.  Sampled,
    base row ``b``'s evaluations draw from its generator in fold order.

    Returns per-circuit ``(M_s,)`` values (set with ``include_values``)
    and ``(M_s, len(indices))`` gradients, terms summed in rule order.
    """
    rules_per_circuit = _shift_rules(plan, indices)
    lead = 1 if include_values else 0
    blocks, widths = [], []
    for batch, rules in zip(batches, rules_per_circuit):
        width = lead + sum(len(terms) for terms in rules)
        block = np.repeat(batch, width, axis=0)
        column = lead
        for index, terms in zip(indices, rules):
            for _, shift in terms:
                block[column::width, index] = batch[:, index] + shift
                column += 1
        blocks.append(block)
        widths.append(width)
    counts = [batch.shape[0] for batch in batches]
    circuit_ids = np.arange(len(batches))
    # folded row -> global base row, and -> its circuit
    base_of = np.repeat(np.arange(sum(counts)), np.repeat(widths, counts))
    folded_circuits = np.repeat(circuit_ids, np.multiply(counts, widths))
    folded = np.concatenate(blocks)
    rngs = None
    if shots is not None:
        base_rngs = resolve_rngs(seed, sum(counts))
        rngs = [base_rngs[base] for base in base_of]
    estimates = np.empty(folded.shape[0], dtype=FLOAT_DTYPE)
    estimate = (observable, estimates, shots, rngs)
    position_of = plan.param_positions
    first_pos = min((position_of[index] for index in indices), default=0)
    if first_pos > 0:
        # Prefix states stay resident on the simulator's backend; each
        # chunk of folded rows gathers its starting states from them.
        prefix = simulator._run_megabatch_data(
            plan, np.concatenate(batches), np.repeat(circuit_ids, counts),
            initial_state, stop=first_pos,
        )
        simulator._run_megabatch_data(
            plan, folded, folded_circuits, prefix, first_pos,
            initial_rows=base_of, estimate=estimate,
        )
    else:
        simulator._run_megabatch_data(
            plan, folded, folded_circuits, initial_state, estimate=estimate
        )

    values, grads = [], []
    cursor = 0
    for batch, rules in zip(batches, rules_per_circuit):
        block_values = np.empty(batch.shape[0], dtype=FLOAT_DTYPE)
        block_grads = np.empty((batch.shape[0], len(indices)), dtype=FLOAT_DTYPE)
        for m in range(batch.shape[0]):
            if include_values:
                block_values[m] = estimates[cursor]
                cursor += 1
            for slot, terms in enumerate(rules):
                total = 0.0
                for coefficient, _ in terms:
                    total += coefficient * estimates[cursor]
                    cursor += 1
                block_grads[m, slot] = total
        values.append(block_values)
        grads.append(block_grads)
    return values, grads


def batch_parameter_shift(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
) -> np.ndarray:
    """Parameter-shift gradients from one folded execution.

    Builds every shifted parameter vector the shift rules require — all
    terms of all requested parameters, for every row of ``params`` — and
    evaluates them in one fold over the circuit's one-circuit plan (the
    one-circuit call of :func:`megabatch_parameter_shift`: the prefix
    before the first differentiated parameter runs once per row), then
    recombines the expectations with the rules' coefficients in rule
    order.  Row ``b`` carries the same bits as a one-row call on
    ``params[b]``.

    Parameters
    ----------
    circuit, observable:
        The expectation function being differentiated.
    params:
        Either one parameter vector (shape ``(P,)``) or a stack of ``B``
        vectors (shape ``(B, P)``) sharing the circuit — e.g. one draw per
        initialization method in the variance experiment.
    simulator:
        Reused if given, else a fresh one is created.
    param_indices:
        Subset of parameters to differentiate (default: all).
    initial_state:
        Optional non-default input state shared by every row.
    shots:
        When given, every shifted expectation is estimated from that many
        measurement samples (hardware-realistic stochastic gradients).
    seed:
        Sampled mode only: a sequence of ``B`` per-row seeds/generators
        or a single :data:`~repro.utils.rng.SeedLike` spawning ``B``
        children — row ``b``'s evaluations share generator ``b``, making
        the row bit-identical to
        ``parameter_shift(..., shots=shots, seed=<row b's seed>)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(param_indices),)`` for 1-D ``params``, else
        ``(B, len(param_indices))``.

    Raises
    ------
    ValueError
        If a differentiated gate carries no exact shift rule.
    """
    simulator = simulator or StatevectorSimulator()
    batch, single = _coerce_batch(params)
    indices = _resolve_indices(circuit, param_indices)
    if not indices:
        empty = np.empty((batch.shape[0], 0), dtype=FLOAT_DTYPE)
        return empty[0] if single else empty
    _, (grads,) = _shift_fold(
        circuit.execution_plan(), observable, [batch], simulator,
        indices, initial_state, shots, seed, include_values=False,
    )
    return grads[0] if single else grads


def batch_parameter_shift_value_and_gradient(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(<O> per row, shift-rule gradients)`` from one folded execution.

    The shift-engine counterpart of
    :func:`batch_adjoint_value_and_gradient`: each base row's unshifted
    evaluation is folded into the same execution batch as its shifted
    vectors.  Analytic, the values carry the bits of
    ``simulator.expectation_batch``; in sampled mode (``shots=``) row
    ``b`` consumes its child generator value-first then shift terms, the
    order of a ``simulator.expectation`` call followed by
    :func:`parameter_shift` on the same generator.  Either way row ``b``
    is the same alone or in any stack: the loss-and-gradient pass of
    every training iteration.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``((B,), (B, len(indices)))`` for 2-D ``params``; 1-D input
        returns ``(float, (len(indices),))``.
    """
    simulator = simulator or StatevectorSimulator()
    batch, single = _coerce_batch(params)
    indices = _resolve_indices(circuit, param_indices)
    (values,), (grads,) = _shift_fold(
        circuit.execution_plan(), observable, [batch], simulator,
        indices, initial_state, shots, seed, include_values=True,
    )
    if single:
        return float(values[0]), grads[0]
    return values, grads


def _coerce_mega_batches(
    plan: MegaBatchPlan,
    params_batches: Sequence[Sequence[float]],
) -> "list[np.ndarray]":
    """Normalize per-circuit parameter stacks to ``(M_s, P)`` arrays."""
    if len(params_batches) != plan.num_circuits:
        raise ValueError(
            f"got {len(params_batches)} parameter stacks for "
            f"{plan.num_circuits} circuits"
        )
    batches = [np.asarray(params, dtype=FLOAT_DTYPE) for params in params_batches]
    batches = [array.reshape(1, -1) if array.ndim == 1 else array for array in batches]
    for array in batches:
        if array.ndim != 2 or array.shape[1] != plan.num_parameters:
            raise ValueError(
                f"each parameter stack must be (rows, "
                f"{plan.num_parameters}), got shape {array.shape}"
            )
    return batches


def megabatch_parameter_shift(
    circuits: "Sequence[QuantumCircuit] | MegaBatchPlan",
    observable: Observable,
    params_batches: Sequence[Sequence[float]],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
) -> "list[np.ndarray]":
    """Shift-rule gradients for a whole shape bucket in one execution.

    The mega-batched form of :func:`batch_parameter_shift`: every shifted
    parameter vector of every circuit in the bucket — all shift terms of
    all requested parameters, for every base row of every circuit — is
    folded into one mega-batched execution with the effective batch size
    ``sum_s M_s * terms``, whose circuit prefix before the first
    differentiated parameter runs once per base row and whose folded rows
    are executed and reduced one chunk at a time.  Circuit ``s``'s block
    is recombined with *its own* shift rules (the probed gate, and
    therefore the rule, may differ per circuit; it is read off the plan's
    slot gates) in the same accumulation order as the per-circuit engine,
    so entry ``s`` is bit-identical to
    ``batch_parameter_shift(plan.circuit(s), observable,
    params_batches[s], ...)``.

    Parameters
    ----------
    circuits:
        Circuits sharing a gate-sequence shape, or their
        :class:`~repro.backend.simulator.MegaBatchPlan` (built here from
        a sequence) — e.g. one built from gate codes, with no circuit per
        structure.
    observable:
        The measured operator, shared by every circuit.
    params_batches:
        One ``(M_s, P)`` parameter stack per circuit (1-D vectors are
        treated as single rows).
    simulator, param_indices, initial_state, shots:
        As in :func:`batch_parameter_shift`; ``param_indices`` applies to
        every circuit (they share the parameter layout).
    seed:
        Sampled mode only: a sequence of per-base-row seeds/generators —
        circuits in order, then rows within each circuit, ``sum_s M_s``
        in total — or a single :data:`~repro.utils.rng.SeedLike` from
        which that many children are spawned.  Base row ``m`` of circuit
        ``s`` consumes its generator exactly as
        ``batch_parameter_shift(circuits[s], ..., seed=<that row's
        seed>)`` would.

    Returns
    -------
    list of numpy.ndarray
        One ``(M_s, len(param_indices))`` gradient block per circuit.

    Raises
    ------
    ValueError
        If a differentiated gate carries no exact shift rule.
    """
    simulator = simulator or StatevectorSimulator()
    plan = circuits if isinstance(circuits, MegaBatchPlan) else MegaBatchPlan(circuits)
    batches = _coerce_mega_batches(plan, params_batches)
    indices = _resolve_indices(plan.template, param_indices)
    if not indices:
        return [np.empty((batch.shape[0], 0), dtype=FLOAT_DTYPE) for batch in batches]
    _, grads = _shift_fold(
        plan, observable, batches, simulator, indices,
        initial_state, shots, seed, include_values=False,
    )
    return grads


def finite_difference(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    step: float = 1e-6,
    scheme: str = "central",
) -> np.ndarray:
    """Numerical gradient (``central`` or ``forward`` differences)."""
    if scheme not in ("central", "forward"):
        raise ValueError(f"scheme must be 'central' or 'forward', got {scheme!r}")
    simulator = simulator or StatevectorSimulator()
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)

    base = None
    if scheme == "forward":
        base = simulator.expectation(
            circuit, observable, params, initial_state=initial_state
        )
    grads = np.empty(len(indices), dtype=FLOAT_DTYPE)
    for out_slot, index in enumerate(indices):
        shifted = params.copy()
        shifted[index] = params[index] + step
        plus = simulator.expectation(
            circuit, observable, shifted, initial_state=initial_state
        )
        if scheme == "central":
            shifted[index] = params[index] - step
            minus = simulator.expectation(
                circuit, observable, shifted, initial_state=initial_state
            )
            grads[out_slot] = (plus - minus) / (2.0 * step)
        else:
            grads[out_slot] = (plus - base) / step
    return grads


def adjoint_gradient(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
) -> np.ndarray:
    """Full gradient via reverse-mode (adjoint) statevector differentiation.

    Runs the circuit forward once, then sweeps backwards undoing each gate:
    for every trainable operation ``U_k(theta_k)`` the partial derivative is
    ``2 * Re( <lambda| dU_k/dtheta |psi_k> )`` where ``|psi_k>`` is the state
    *before* the gate and ``<lambda|`` carries the observable back through
    the tail of the circuit.  Exact for any gate exposing ``derivative``.
    One parameter vector is a one-row :func:`batch_adjoint_gradient`.
    """
    return batch_adjoint_gradient(
        circuit,
        observable,
        np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1),
        simulator=simulator,
        param_indices=param_indices,
        initial_state=initial_state,
    )


def adjoint_value_and_gradient(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
) -> Tuple[float, np.ndarray]:
    """``(<O>, gradient)`` from one adjoint pass — no second execution.

    The expectation is evaluated on the forward-pass state, so it carries
    exactly the same bits as ``simulator.expectation(circuit, observable,
    params)``, and the gradient matches :func:`adjoint_gradient`.
    """
    return batch_adjoint_value_and_gradient(
        circuit,
        observable,
        np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1),
        simulator=simulator,
        param_indices=param_indices,
        initial_state=initial_state,
    )


def _adjoint_program(plan: MegaBatchPlan) -> list:
    """The backward sweep's steps, compiled once per plan (kept in
    ``plan.programs["adjoint"]``).

    ``plan``'s steps in reverse, each ``(kind, payload)`` undoing its
    operations on both halves of the sweep's ``(2B, 2**n)`` pair, which
    starts in canonical order and then holds the order each kernel leaves
    (see :mod:`repro.backend.statevector`).  A fused exact-unit diagonal
    run is a ``"diagonal"`` step ``(conjugated diagonal, axes, axes)`` in
    the current order; another fixed or bound operation is a ``"matrix"``
    step ``(adjoint, qubits, axes)``, or ``"diagonal"`` with its
    conjugated diagonal if the gate is diagonal.  A run of trainable slots
    (:func:`~repro.backend.simulator._slot_runs`) is a ``"slot"`` step
    ``(positions, param_indices, undo)``: its slots last first, their
    angles' parameter indices, and one ``(qubits, axes)`` per slot.
    """
    program = plan.programs.get("adjoint")
    if program is not None:
        return program
    num_qubits = plan.num_qubits
    axes = tuple(range(num_qubits))
    program = []
    for kind, lo, hi, payload in reversed(_slot_runs(plan.steps)):
        if kind == "slot":
            ops = payload[::-1]
            undo = []
            for op in ops:
                undo.append((op.qubits, axes))
                axes = moved_axes(axes, op.qubits)
            positions = tuple(range(hi - 1, lo - 1, -1))
            indices = np.array([op.param_index for op in ops], dtype=np.intp)
            program.append(("slot", (positions, indices, undo)))
        elif kind == "fused_diag":
            run = tuple(plan.template.operations[lo:hi])
            diagonal = _fused_unit_diagonal(run, num_qubits, axes).conj()
            program.append(("diagonal", (diagonal, axes, axes)))
        else:
            qubits, adjoint = payload.qubits, payload.matrix(None).conj().T
            if getattr(payload.gate, "is_diagonal", False):
                program.append(("diagonal", (np.diagonal(adjoint), qubits, axes)))
            else:
                program.append(("matrix", (adjoint, qubits, axes)))
            axes = moved_axes(axes, qubits)
    plan.programs["adjoint"] = program
    return program


def _slot_derivatives(pair, generator: np.ndarray, backend) -> np.ndarray:
    """``2 Re sum_ij G_ij T_ij`` per row, from a pair whose slot targets
    lead: ``G`` is the ``(B, d, d)`` table of ``U^dagger dU/dtheta`` and
    ``T`` the transition matrix ``T_ij = sum_rest conj(lambda_i) psi_j``
    of each row's halves (rows ``b`` and ``B + b``), so the sum is
    ``<lambda| U^dagger dU |psi>`` without applying anything.  On numpy
    the reductions are two ``np.vecdot`` calls (the first gives
    ``conj(T)``), per row."""
    count, dim = generator.shape[:2]
    if backend.is_numpy:
        view = pair.reshape(2 * count, dim, -1)
        conj_transition = np.vecdot(view[:count, None], view[count:, :, None])
        return 2.0 * np.real(
            np.vecdot(conj_transition.reshape(count, -1), generator.reshape(count, -1))
        )
    view = backend.reshape(pair, (2 * count, dim, -1))
    transition = backend.matmul(
        backend.conj(view[count:]), backend.permute(view[:count], (0, 2, 1))
    )
    products = backend.asarray(generator, dtype=backend.complex_dtype) * transition
    totals = backend.sum(backend.reshape(products, (count, -1)), axis=1)
    return 2.0 * np.real(backend.to_numpy(totals))


def _undo_slot_run(
    plan: MegaBatchPlan, payload: tuple, pair, spare, batch: np.ndarray,
    rows: np.ndarray, slot_of: dict, grads: np.ndarray, backend,
):
    """Undo one run of trainable slots, last first, on both halves of
    ``pair`` and fill each wanted slot's column of ``grads``.

    The run gets one operand table and, if a slot is wanted, one
    derivative table (:meth:`MegaBatchPlan.slot_operands`); each slot is
    one :func:`apply_matrix` call on the stacked rows, whose operand is
    every row's adjoint twice over, followed by
    :func:`_slot_derivatives`.  Returns ``(pair, spare)`` for the next
    step.
    """
    positions, param_indices, undo = payload
    thetas = batch[:, param_indices]
    adjoint = plan.slot_operands(positions, rows, thetas).conj().swapaxes(-1, -2)
    wanted = [slot_of.get(index) for index in param_indices.tolist()]
    if any(slot is not None for slot in wanted):
        generators = np.matmul(
            adjoint, plan.slot_operands(positions, rows, thetas, derivative=True)
        )
    operands = np.concatenate((adjoint, adjoint))
    for column, (qubits, axes) in enumerate(undo):
        apply_matrix(
            pair, operands[:, column], qubits, plan.num_qubits,
            backend=backend, out=spare, axes=axes,
        )
        pair, spare = spare, pair
        if wanted[column] is not None:
            grads[:, wanted[column]] = _slot_derivatives(
                pair, generators[:, column], backend
            )
    return pair, spare


def _adjoint_sweep(
    plan: MegaBatchPlan,
    observable: Observable,
    batch: np.ndarray,
    rows: np.ndarray,
    simulator: StatevectorSimulator,
    indices: Sequence[int],
    initial_state: Optional[Statevector],
    want_values: bool,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Adjoint forward pass + backward sweep over a ``(B, 2**n)`` stack.

    The one sweep every adjoint engine runs; row ``b`` belongs to
    ``plan.circuit(rows[b])``, and ``want_values`` also reads each row's
    expectation off the forward pass.  The final states ``psi`` and the
    adjoint trail ``lambda = O psi`` are the two halves of one ``(2B,
    2**n)`` pair of buffers, and the backward pass is
    :func:`_adjoint_program`: every step is one ``out=`` kernel call that
    undoes both halves, and each wanted slot's derivative is read off the
    undone pair (:func:`_slot_derivatives`).  Rows never mix, so row
    ``b`` carries the same bits as a one-row sweep.  A non-numpy backend
    keeps the stack whole, to spread launch cost; numpy sweeps wide
    stacks in row chunks of ``chunk_bytes // _ADJOINT_CHUNK_DIVISOR``
    amplitude bytes per half.

    Raises
    ------
    ValueError
        If ``simulator`` is not a unitary statevector simulator.
    """
    if not isinstance(simulator, StatevectorSimulator) or (
        simulator._REGISTER_FACTOR != 1
    ):
        raise ValueError(
            "adjoint differentiation needs a unitary statevector simulator, "
            f"got {type(simulator).__name__}; use the parameter-shift or "
            "finite-difference engine"
        )
    num_qubits = plan.num_qubits
    b = simulator.backend
    count = batch.shape[0]
    chunk = max(1, b.chunk_bytes // _ADJOINT_CHUNK_DIVISOR // (16 * 2**num_qubits))
    if b.is_numpy and count > chunk:
        parts = [
            _adjoint_sweep(
                plan, observable, batch[start : start + chunk],
                rows[start : start + chunk], simulator, indices,
                initial_state, want_values,
            )
            for start in range(0, count, chunk)
        ]
        values = np.concatenate([v for v, _ in parts]) if want_values else None
        return values, np.concatenate([g for _, g in parts])
    program = _adjoint_program(plan)

    psi = simulator._run_megabatch_data(plan, batch, rows, initial_state)
    values = observable.expectation_batch(psi) if want_values else None
    lam = observable.apply_batch(psi)
    if not b.is_numpy and type(lam) is np.ndarray:
        # The observable fell back to its host implementation; stage the
        # adjoint trail back onto the backend for the backward sweep.
        lam = b.asarray(lam, dtype=b.complex_dtype)
    pair = b.zeros((2 * count, 2**num_qubits), b.complex_dtype)
    pair[:count] = psi
    pair[count:] = lam
    spare = b.empty_like(pair)

    grads = np.zeros((count, len(indices)), dtype=FLOAT_DTYPE)
    slot_of = {index: slot for slot, index in enumerate(indices)}
    for kind, payload in program:
        if kind == "slot":
            pair, spare = _undo_slot_run(
                plan, payload, pair, spare, batch, rows, slot_of, grads, b
            )
            continue
        operand, qubits, axes = payload
        kernel = apply_matrix if kind == "matrix" else apply_diagonal
        kernel(pair, operand, qubits, num_qubits, backend=b, out=spare, axes=axes)
        pair, spare = spare, pair
    if len(slot_of) < len(indices):
        # A repeated index was filled in its last slot only; copy it out.
        grads = grads[:, [slot_of[index] for index in indices]]
    return values, grads


def batch_adjoint_gradient(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
) -> np.ndarray:
    """Adjoint gradients for one or many parameter vectors in one sweep.

    Parameters
    ----------
    circuit, observable:
        The expectation function being differentiated.
    params:
        One parameter vector (shape ``(P,)``) or a stack of ``B`` vectors
        (shape ``(B, P)``) sharing the circuit — e.g. one trajectory per
        initialization method in lock-step training.
    simulator:
        Reused if given, else a fresh one is created.
    param_indices:
        Subset of parameters to differentiate (default: all).
    initial_state:
        Optional non-default input state shared by every row.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(param_indices),)`` for 1-D ``params``, else
        ``(B, len(param_indices))``; row ``b`` bit-identical to
        ``adjoint_gradient(circuit, observable, params[b], ...)``.
    """
    simulator = simulator or StatevectorSimulator()
    batch, single = _coerce_batch(params)
    indices = _resolve_indices(circuit, param_indices)
    _, grads = _adjoint_sweep(
        circuit.execution_plan(), observable, batch,
        np.zeros(batch.shape[0], dtype=np.intp), simulator, indices,
        initial_state, want_values=False,
    )
    return grads[0] if single else grads


def batch_adjoint_value_and_gradient(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(<O> per row, gradients)`` from one batched adjoint pass.

    Expectations are read off the shared forward pass — the batched
    counterpart of :func:`adjoint_value_and_gradient`.  For 1-D ``params``
    returns ``(float, (len(indices),))``, else ``((B,), (B, len(indices)))``.
    """
    simulator = simulator or StatevectorSimulator()
    batch, single = _coerce_batch(params)
    indices = _resolve_indices(circuit, param_indices)
    values, grads = _adjoint_sweep(
        circuit.execution_plan(), observable, batch,
        np.zeros(batch.shape[0], dtype=np.intp), simulator, indices,
        initial_state, want_values=True,
    )
    if single:
        return float(values[0]), grads[0]
    return values, grads


def megabatch_adjoint_gradient(
    circuits: "Sequence[QuantumCircuit] | MegaBatchPlan",
    observable: Observable,
    params_batches: Sequence[Sequence[float]],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
) -> "list[np.ndarray]":
    """Adjoint gradients for a whole shape bucket in one stacked sweep.

    The mega-batched form of :func:`batch_adjoint_gradient` (which is its
    one-circuit call): one forward pass over every circuit's rows, then a
    single backward sweep.  Each trainable slot undoes every row's own
    gate from one per-row operand table and reads its derivative with
    the row's own derivative table; fixed operations are undone by the
    plan's compiled adjoints on the whole stack (exact-unit diagonals
    elementwise).  Rows evolve independently, so entry ``s`` is
    bit-identical to
    ``batch_adjoint_gradient(plan.circuit(s), observable,
    params_batches[s], ...)``.

    Parameters
    ----------
    circuits, observable, params_batches, simulator, param_indices,
    initial_state:
        As in :func:`megabatch_parameter_shift` (the adjoint engine has
        no sampled mode).

    Returns
    -------
    list of numpy.ndarray
        One ``(M_s, len(param_indices))`` gradient block per circuit.
    """
    simulator = simulator or StatevectorSimulator()
    plan = circuits if isinstance(circuits, MegaBatchPlan) else MegaBatchPlan(circuits)
    batches = _coerce_mega_batches(plan, params_batches)
    indices = _resolve_indices(plan.template, param_indices)
    counts = [batch.shape[0] for batch in batches]
    _, grads = _adjoint_sweep(
        plan, observable, np.concatenate(batches),
        np.repeat(np.arange(len(batches)), counts), simulator, indices,
        initial_state, want_values=False,
    )
    return np.split(grads, np.cumsum(counts)[:-1])


#: Named registry of gradient engines.  The ``batch_*`` engines share the
#: standard engine signature and additionally accept ``(B, P)`` parameter
#: stacks; the unprefixed names are their one-row calls.
GRADIENT_ENGINES = {
    "parameter_shift": parameter_shift,
    "batch_parameter_shift": batch_parameter_shift,
    "adjoint": adjoint_gradient,
    "batch_adjoint": batch_adjoint_gradient,
    "finite_difference": finite_difference,
}


def get_gradient_fn(name: str) -> GradientFn:
    """Look up a gradient engine by name.

    Valid names: ``parameter_shift``, ``batch_parameter_shift``,
    ``adjoint``, ``batch_adjoint``, ``finite_difference``.
    """
    try:
        return GRADIENT_ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown gradient engine {name!r}; "
            f"choose from {sorted(GRADIENT_ENGINES)}"
        ) from None
