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
    2020).  One forward pass plus one backward sweep applying per-row
    adjoint/derivative stacks (:meth:`ParametricGate.matrix_batch` /
    ``derivative_batch``) gives the *full* gradient of every row in
    ``O(#gates)`` — the engine used for training.  Fixed and
    bound-parameter gate adjoints are cached on the circuit
    (:meth:`QuantumCircuit.static_matrices`), so repeated sweeps — one per
    training iteration — rebuild only the trainable matrices.  Fixed
    diagonals whose entries are exact units (a CZ chain, Z, S; see
    :meth:`QuantumCircuit.unit_diagonal_adjoints`) are undone with the
    elementwise kernel and their conjugated diagonal: multiplying by 0,
    ±1 or ±i is exact, so the values equal the dense adjoint's.  Other
    fixed gates, T and bound PHASE included, keep the dense adjoint.
    ``adjoint_gradient`` is the one-row call.  The ``*_value_and_gradient``
    variants additionally return the expectation read off the same forward
    pass, so training loops get loss and full gradient from one execution.

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
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.backend.statevector import Statevector, apply_diagonal, apply_matrix
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

#: The adjoint sweep keeps three ``(B, 2**n)`` stacks live (the
#: state, the adjoint trail and the derivative stack) and allocates fresh
#: ones at every gate, so on numpy it chunks rows against this fraction of
#: the backend's ``chunk_bytes``: 256 KiB (16 rows at 10 qubits, 4 at 12,
#: 1 from 14 up).  Picked over 16 by the budget sweep in
#: ``benchmarks/bench_batched_adjoint.py`` (``BENCH_batched_adjoint.json``,
#: 10 fresh-process runs per point): 2%, 19% and 17% faster panels at 10,
#: 12 and 14 qubits, each gap wider than either side's quartile spread.
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
    expectation off the forward pass.  Rows never mix (on numpy the inner
    products stay per-row ``vdot`` calls), so row ``b`` carries the same
    bits as a one-row sweep.  A non-numpy backend runs the whole sweep
    on-namespace and keeps the stack whole, to spread launch cost; numpy
    sweeps wide stacks in row chunks of ``chunk_bytes //
    _ADJOINT_CHUNK_DIVISOR`` amplitude bytes.
    """
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
    template = plan.template
    static = template.static_matrices()
    unit_adjoints = template.unit_diagonal_adjoints()
    device = not b.is_numpy

    psi = simulator._run_megabatch_data(plan, batch, rows, initial_state)
    values = observable.expectation_batch(psi) if want_values else None
    lam = observable.apply_batch(psi)
    if device and type(lam) is np.ndarray:
        # The observable fell back to its host implementation; stage the
        # adjoint trail back onto the backend for the backward sweep.
        lam = b.asarray(lam, dtype=b.complex_dtype)

    grads = np.zeros((count, len(indices)), dtype=FLOAT_DTYPE)
    slot_of = {index: slot for slot, index in enumerate(indices)}
    for pos in range(len(template.operations) - 1, -1, -1):
        op = template.operations[pos]
        if not op.is_trainable:
            if pos in unit_adjoints:
                undo, adjoint = apply_diagonal, unit_adjoints[pos]
            else:
                undo, adjoint = apply_matrix, static[pos][1]
            psi = undo(psi, adjoint, op.qubits, num_qubits, backend=b)
            lam = undo(lam, adjoint, op.qubits, num_qubits, backend=b)
            continue
        # Rows partition by their circuit's drawn gate; a slot of one gate
        # sweeps the whole stack in place of a gather/scatter per segment.
        gates, codes = plan.slot_gates[pos]
        thetas = batch[:, op.param_index]
        wanted_slot = slot_of.get(op.param_index)
        if len(gates) > 1:
            row_codes = codes[rows]
            psi_new, lam_new = b.empty_like(psi), b.empty_like(lam)
        for code, gate in enumerate(gates):
            if len(gates) == 1:
                idx, seg_thetas, seg_psi, seg_lam = slice(None), thetas, psi, lam
            else:
                idx = np.flatnonzero(row_codes == code)
                if idx.size == 0:
                    continue
                seg_thetas = thetas[idx]
                seg_psi, seg_lam = b.take_rows(psi, idx), b.take_rows(lam, idx)
            adjoint = gate.matrix_batch(seg_thetas).conj().transpose(0, 2, 1)
            # Undo this gate on the segment: |psi_k> (states before it).
            seg_psi = apply_matrix(seg_psi, adjoint, op.qubits, num_qubits, backend=b)
            if wanted_slot is not None:
                d_matrices = gate.derivative_batch(seg_thetas)
                d_psi = apply_matrix(
                    seg_psi, d_matrices, op.qubits, num_qubits, backend=b
                )
                if device:
                    grads[idx, wanted_slot] = 2.0 * np.real(
                        b.to_numpy(b.sum(b.conj(seg_lam) * d_psi, axis=1))
                    )
                else:
                    grads[idx, wanted_slot] = [
                        2.0 * float(np.real(np.vdot(l, d)))
                        for l, d in zip(seg_lam, d_psi)
                    ]
            seg_lam = apply_matrix(seg_lam, adjoint, op.qubits, num_qubits, backend=b)
            if len(gates) == 1:
                psi, lam = seg_psi, seg_lam
            else:
                b.put_rows(psi_new, idx, seg_psi)
                b.put_rows(lam_new, idx, seg_lam)
        if len(gates) > 1:
            psi, lam = psi_new, lam_new
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
    single backward sweep.  At each trainable slot the rows partition by
    their circuit's drawn gate, and each partition applies that gate's
    per-row adjoint / derivative stacks through the broadcasting kernels;
    fixed operations use the plan template's cached static adjoints on the
    whole stack (exact-unit diagonals elementwise).  Rows evolve
    independently, so entry ``s`` is bit-identical to
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
