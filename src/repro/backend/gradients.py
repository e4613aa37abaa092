"""Gradient engines for parameterized circuits.

Two exact algorithms compute ``d <O> / d params``, each with one
implementation that runs a stack of parameter rows; a single parameter
vector is a one-row stack.

Parameter shift (``batch_parameter_shift``, ``parameter_shift``)
    The exact hardware-compatible rule.  For gates ``exp(-i theta P / 2)``
    with ``P^2 = I`` it is the classic two-term form
    ``dE/dtheta = (E(theta + pi/2) - E(theta - pi/2)) / 2``; controlled
    rotations use the exact four-term rule.  Each gate carries its own
    rule (``ParametricGate.shift_terms``), so the cost is two (or four)
    circuit executions per differentiated parameter — the natural choice
    for the paper's variance analysis, which differentiates only the last
    parameter.  Every shifted vector of every row — all terms of all
    requested parameters — is folded into one
    :meth:`StatevectorSimulator.expectation_batch` call, which executes
    and reduces the fold in memory-bounded chunks.  With ``shots=`` every
    shifted expectation is sample-estimated instead, each base row
    drawing from its own generator in fold order.
    ``parameter_shift`` is the one-row call, with the caller's generator
    as that row's stream; :func:`batch_parameter_shift_value_and_gradient`
    also reads per-row losses off the same folded execution, the
    workhorse of lock-step shot-based training.

Adjoint (``batch_adjoint_gradient``, ``adjoint_gradient``)
    Reverse-mode differentiation through the statevector (Jones & Gacon,
    2020).  One :meth:`StatevectorSimulator.run_batch` forward pass plus
    one backward sweep applying per-row adjoint/derivative stacks
    (:meth:`ParametricGate.matrix_batch` / ``derivative_batch``) gives the
    *full* gradient of every row in ``O(#gates)`` — the engine used for
    training.  Fixed and bound-parameter gate adjoints are cached on the
    circuit (:meth:`QuantumCircuit.static_matrices`), so repeated sweeps —
    one per training iteration — rebuild only the trainable matrices.
    Fixed diagonals whose entries are exact units (a CZ chain, Z, S; see
    :meth:`QuantumCircuit.unit_diagonal_adjoints`) are undone with the
    elementwise kernel and their conjugated diagonal, as the forward pass
    applies them: multiplying by 0, ±1 or ±i is exact, so the values equal
    the dense adjoint's.  Other fixed gates, T and bound PHASE included,
    keep the dense adjoint.
    ``adjoint_gradient`` is the one-row call.  The ``*_value_and_gradient``
    variants additionally return the expectation read off the same forward
    pass, so training loops get loss and full gradient from one execution.

``finite_difference``
    Numerical fallback that works for any gate; used mainly to cross-check
    the exact engines in tests.

``megabatch_parameter_shift`` / ``megabatch_adjoint_gradient``
    The mega-batched forms: rather than many rows of *one* circuit, they
    fold rows of a whole shape bucket of circuits (same wires and
    parameter slots, different drawn gates — see
    :class:`repro.backend.simulator.MegaBatchPlan`) into single stacked
    sweeps, pushing the effective batch size into the hundreds.  Each
    circuit's rows remain bit-identical to its own
    ``batch_parameter_shift`` / ``batch_adjoint`` call; these power the
    variance experiment's shape-keyed fold.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import ParametricGate
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

#: The batched adjoint sweep keeps three ``(B, 2**n)`` stacks live (the
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


def _resolve_shift_rules(
    circuit: QuantumCircuit, indices: Sequence[int]
) -> "list[Tuple[Tuple[float, float], ...]]":
    """Shift terms for each differentiated parameter, in index order.

    Raises
    ------
    ValueError
        If a differentiated gate carries no exact shift rule at all; use
        ``adjoint_gradient`` or ``finite_difference`` for such gates.
    """
    position_of = circuit.parameter_map()
    rules = []
    for index in indices:
        gate = circuit.operations[position_of[index]].gate
        assert isinstance(gate, ParametricGate)
        if gate.shift_terms is None:
            raise ValueError(
                f"gate {gate.name} has no exact parameter-shift rule; "
                "use the adjoint or finite-difference engine"
            )
        rules.append(gate.shift_terms)
    return rules


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


def _fold_shifted_rows(
    row: np.ndarray,
    indices: Sequence[int],
    rules: Sequence[Tuple[Tuple[float, float], ...]],
    folded: "list[np.ndarray]",
) -> None:
    """Append one base row's shifted vectors to ``folded``, rule order.

    The single definition of the (parameter, term) fold order shared by
    the batched and mega-batched shift engines: parameters in index
    order, each parameter's shift terms in rule order.
    """
    for slot, index in enumerate(indices):
        for _, shift in rules[slot]:
            shifted = row.copy()
            shifted[index] = row[index] + shift
            folded.append(shifted)


def _recombine_shift_row(
    estimates: np.ndarray,
    cursor: int,
    rules: Sequence[Tuple[Tuple[float, float], ...]],
    out: np.ndarray,
) -> int:
    """Fill one base row's gradients from ``estimates[cursor:]``.

    Accumulates each parameter's terms in rule order into ``out`` and
    returns the advanced cursor; shared by the batched and mega-batched
    shift engines.
    """
    for slot in range(len(rules)):
        total = 0.0
        for coefficient, _ in rules[slot]:
            total += coefficient * estimates[cursor]
            cursor += 1
        out[slot] = total
    return cursor


def _batch_shift_execute(
    circuit: QuantumCircuit,
    observable: Observable,
    batch: np.ndarray,
    simulator: StatevectorSimulator,
    indices: Sequence[int],
    rules: Sequence[Tuple[Tuple[float, float], ...]],
    initial_state: Optional[Statevector],
    shots: Optional[int],
    seed,
    include_values: bool,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Folded shift-rule execution shared by the batched engines.

    Builds one execution batch holding, per base row, an optional
    unshifted evaluation (``include_values``) followed by every shifted
    vector the rules require, in (parameter, term) order, and evaluates
    it through ``expectation_batch``, which executes and reduces it one
    memory-bounded chunk at a time.  Sampled, every evaluation of base
    row ``b`` draws from that row's generator in fold order, so a base
    row carries the same bits alone or in any batch.
    """
    evals_per_row = (1 if include_values else 0) + sum(
        len(terms) for terms in rules
    )
    folded = []
    for row in batch:
        if include_values:
            folded.append(row.copy())
        _fold_shifted_rows(row, indices, rules, folded)
    folded_rngs = None
    if shots is not None:
        folded_rngs = [
            rng
            for rng in resolve_rngs(seed, batch.shape[0])
            for _ in range(evals_per_row)
        ]
    estimates = simulator.expectation_batch(
        circuit,
        observable,
        np.stack(folded),
        initial_state=initial_state,
        shots=shots,
        seed=folded_rngs,
    )

    values = np.empty(batch.shape[0], dtype=FLOAT_DTYPE) if include_values else None
    grads = np.empty((batch.shape[0], len(indices)), dtype=FLOAT_DTYPE)
    cursor = 0
    for b in range(batch.shape[0]):
        if include_values:
            values[b] = estimates[cursor]
            cursor += 1
        cursor = _recombine_shift_row(estimates, cursor, rules, grads[b])
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
    """Parameter-shift gradients from one batched execution.

    Builds every shifted parameter vector the shift rules require — all
    terms of all requested parameters, for every row of ``params`` — and
    evaluates them in a single batched execution, then recombines the
    expectations with the rules' coefficients in rule order.  Row ``b``
    carries the same bits as a one-row call on ``params[b]``.

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
    rules = _resolve_shift_rules(circuit, indices)
    if not indices:
        empty = np.empty((batch.shape[0], 0), dtype=FLOAT_DTYPE)
        return empty[0] if single else empty
    _, grads = _batch_shift_execute(
        circuit, observable, batch, simulator, indices, rules,
        initial_state, shots, seed, include_values=False,
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
    vectors.  In sampled mode (``shots=``) row ``b`` consumes its child
    generator value-first then shift terms — exactly the order
    ``ObservableCost.value_and_gradient(..., shots=, seed=<child>)``
    consumes it sequentially — so lock-step shot-based training is
    bit-identical to per-trajectory training given the same spawned
    child seeds.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``((B,), (B, len(indices)))`` for 2-D ``params``; 1-D input
        returns ``(float, (len(indices),))``.
    """
    simulator = simulator or StatevectorSimulator()
    batch, single = _coerce_batch(params)
    indices = _resolve_indices(circuit, param_indices)
    rules = _resolve_shift_rules(circuit, indices)
    values, grads = _batch_shift_execute(
        circuit, observable, batch, simulator, indices, rules,
        initial_state, shots, seed, include_values=True,
    )
    if single:
        return float(values[0]), grads[0]
    return values, grads


def _coerce_mega_batches(
    circuits: Sequence[QuantumCircuit],
    params_batches: Sequence[Sequence[float]],
) -> "list[np.ndarray]":
    """Normalize per-circuit parameter stacks to ``(M_s, P)`` arrays."""
    if len(circuits) != len(params_batches):
        raise ValueError(
            f"got {len(params_batches)} parameter stacks for "
            f"{len(circuits)} circuits"
        )
    batches = []
    for circuit, params in zip(circuits, params_batches):
        array = np.asarray(params, dtype=FLOAT_DTYPE)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2 or array.shape[1] != circuit.num_parameters:
            raise ValueError(
                f"each parameter stack must be (rows, "
                f"{circuit.num_parameters}), got shape {array.shape}"
            )
        batches.append(array)
    return batches


def megabatch_parameter_shift(
    circuits: Sequence[QuantumCircuit],
    observable: Observable,
    params_batches: Sequence[Sequence[float]],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
    plan: Optional[MegaBatchPlan] = None,
) -> "list[np.ndarray]":
    """Shift-rule gradients for a whole shape bucket in one execution.

    The mega-batched form of :func:`batch_parameter_shift`: every shifted
    parameter vector of every circuit in the bucket — all shift terms of
    all requested parameters, for every base row of every circuit — is
    folded into a single :meth:`StatevectorSimulator.run_megabatch`
    execution with the effective batch size ``sum_s M_s * terms``.
    Circuit ``s``'s block is recombined with *its own* shift rules (the
    probed gate, and therefore the rule, may differ per circuit) in the
    same accumulation order as the per-circuit engine, so entry ``s`` is
    bit-identical to ``batch_parameter_shift(circuits[s], observable,
    params_batches[s], ...)``.

    Parameters
    ----------
    circuits:
        Circuits sharing a gate-sequence shape (one
        :class:`~repro.backend.simulator.MegaBatchPlan` bucket).
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
    plan:
        Pre-built :class:`~repro.backend.simulator.MegaBatchPlan` for
        ``circuits`` (built here when omitted).

    Returns
    -------
    list of numpy.ndarray
        One ``(M_s, len(param_indices))`` gradient block per circuit.
    """
    simulator = simulator or StatevectorSimulator()
    batches = _coerce_mega_batches(circuits, params_batches)
    plan = plan or MegaBatchPlan(circuits)
    indices = _resolve_indices(plan.template, param_indices)
    if not indices:
        return [np.empty((batch.shape[0], 0), dtype=FLOAT_DTYPE) for batch in batches]
    rules_per_circuit = [
        _resolve_shift_rules(circuit, indices) for circuit in circuits
    ]

    folded: "list[np.ndarray]" = []
    row_circuits: "list[int]" = []
    base_of: "list[int]" = []  # folded row -> global base-row index
    base = 0
    for s, (batch, rules) in enumerate(zip(batches, rules_per_circuit)):
        for row in batch:
            before = len(folded)
            _fold_shifted_rows(row, indices, rules, folded)
            row_circuits.extend([s] * (len(folded) - before))
            base_of.extend([base] * (len(folded) - before))
            base += 1
    folded_params = np.stack(folded)
    folded_circuits = np.asarray(row_circuits)

    # Shared-prefix evaluation: every shifted vector of a base row agrees
    # with it on all parameters before the first differentiated one, so
    # the circuit prefix up to that operation runs once per *base* row
    # and the folded rows branch off its states — bit-identical to
    # running each folded row from scratch (copying amplitudes is exact),
    # at roughly half the work when the probed parameter sits late in the
    # circuit (the variance experiment probes the last one).
    position_of = plan.template.parameter_map()
    first_pos = min(position_of[index] for index in indices)
    if first_pos > 0:
        base_batch = np.concatenate(batches, axis=0)
        base_circuits = np.concatenate(
            [
                np.full(batch.shape[0], s, dtype=np.intp)
                for s, batch in enumerate(batches)
            ]
        )
        # Prefix states stay resident on the simulator's backend: the
        # folded rows branch off them via an on-namespace row gather, so
        # the whole shared-prefix evaluation crosses the host boundary
        # only at the final expectation / sampling stage.
        prefix_states = simulator._run_megabatch_data(
            plan, base_batch, base_circuits, initial_state, stop=first_pos
        )
        states = simulator._run_megabatch_data(
            plan,
            folded_params,
            folded_circuits,
            simulator.backend.take_rows(prefix_states, np.asarray(base_of)),
            start=first_pos,
        )
    else:
        states = simulator._run_megabatch_data(
            plan, folded_params, folded_circuits, initial_state
        )
    if shots is None:
        estimates = observable.expectation_batch(states)
    else:
        base_rows = sum(batch.shape[0] for batch in batches)
        row_rngs = resolve_rngs(seed, base_rows)
        # Every folded evaluation of a base row consumes that row's
        # generator; the row-major draw order inside
        # sampled_expectation_rows then matches the per-circuit engine's
        # stream consumption exactly.
        folded_rngs = []
        cursor = 0
        for batch, rules in zip(batches, rules_per_circuit):
            evals_per_row = sum(len(terms) for terms in rules)
            for _ in range(batch.shape[0]):
                folded_rngs.extend([row_rngs[cursor]] * evals_per_row)
                cursor += 1
        estimates = simulator.sampled_expectation_rows(
            states, observable, shots, folded_rngs
        )

    outputs: "list[np.ndarray]" = []
    cursor = 0
    for batch, rules in zip(batches, rules_per_circuit):
        grads = np.empty((batch.shape[0], len(indices)), dtype=FLOAT_DTYPE)
        for m in range(batch.shape[0]):
            cursor = _recombine_shift_row(estimates, cursor, rules, grads[m])
        outputs.append(grads)
    return outputs


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


def _batch_adjoint_sweep(
    circuit: QuantumCircuit,
    observable: Observable,
    batch: np.ndarray,
    simulator: StatevectorSimulator,
    indices: Sequence[int],
    initial_state: Optional[Statevector],
    want_values: bool,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Adjoint forward pass + backward sweep over a ``(B, 2**n)`` stack.

    Rows never mix in the broadcasting kernels, so row ``b`` carries the
    same bits as a one-row sweep of ``batch[b]``; on the numpy backend the
    final inner products stay per-row ``vdot`` calls for the same reason.  On a non-numpy backend the whole
    sweep — forward pass, both adjoint trails, and the gradient
    reductions — runs on-namespace; only the ``(B,)`` gradient entries
    cross back per differentiated parameter.

    On numpy, wide stacks are swept in row chunks of
    ``chunk_bytes // _ADJOINT_CHUNK_DIVISOR`` amplitude bytes, with the
    same recursion as :meth:`StatevectorSimulator.run_batch`.  Rows are
    independent, so chunk boundaries are invisible to the results.
    Device backends keep the whole stack resident, to spread kernel
    launch cost.
    """
    num_qubits = circuit.num_qubits
    b = simulator.backend
    rows = batch.shape[0]
    chunk = max(1, b.chunk_bytes // _ADJOINT_CHUNK_DIVISOR // (16 * 2**num_qubits))
    if b.is_numpy and rows > chunk:
        parts = [
            _batch_adjoint_sweep(
                circuit, observable, batch[start : start + chunk], simulator,
                indices, initial_state, want_values,
            )
            for start in range(0, rows, chunk)
        ]
        values = np.concatenate([v for v, _ in parts]) if want_values else None
        return values, np.concatenate([g for _, g in parts])
    static = circuit.static_matrices()
    unit_adjoints = circuit.unit_diagonal_adjoints()
    device = not b.is_numpy

    # Forward pass: one batched execution for all rows, left resident on
    # the simulator's array backend.
    psi = simulator._run_batch_data(circuit, batch, initial_state)
    values = observable.expectation_batch(psi) if want_values else None
    lam = observable.apply_batch(psi)
    if device and type(lam) is np.ndarray:
        # The observable fell back to its host implementation; stage the
        # adjoint trail back onto the backend for the backward sweep.
        lam = b.asarray(lam, dtype=b.complex_dtype)

    grads = np.zeros((batch.shape[0], len(indices)), dtype=FLOAT_DTYPE)
    slot_of = {index: slot for slot, index in enumerate(indices)}
    for pos in range(len(circuit.operations) - 1, -1, -1):
        op = circuit.operations[pos]
        if op.is_trainable:
            thetas = batch[:, op.param_index]
            gate = op.gate
            assert isinstance(gate, ParametricGate)
            undo = apply_matrix
            adjoint = gate.matrix_batch(thetas).conj().transpose(0, 2, 1)
        elif pos in unit_adjoints:
            undo, adjoint = apply_diagonal, unit_adjoints[pos]
        else:
            undo, adjoint = apply_matrix, static[pos][1]
        # Undo this gate on every row: |psi_k> (states before the gate).
        psi = undo(psi, adjoint, op.qubits, num_qubits, backend=b)
        if op.is_trainable and op.param_index in slot_of:
            d_matrices = gate.derivative_batch(thetas)
            d_psi = apply_matrix(psi, d_matrices, op.qubits, num_qubits, backend=b)
            if device:
                grads[:, slot_of[op.param_index]] = 2.0 * np.real(
                    b.to_numpy(b.sum(b.conj(lam) * d_psi, axis=1))
                )
            else:
                grads[:, slot_of[op.param_index]] = [
                    2.0 * float(np.real(np.vdot(l, d)))
                    for l, d in zip(lam, d_psi)
                ]
        lam = undo(lam, adjoint, op.qubits, num_qubits, backend=b)
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
    _, grads = _batch_adjoint_sweep(
        circuit, observable, batch, simulator, indices, initial_state,
        want_values=False,
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
    values, grads = _batch_adjoint_sweep(
        circuit, observable, batch, simulator, indices, initial_state,
        want_values=True,
    )
    if single:
        return float(values[0]), grads[0]
    return values, grads


def megabatch_adjoint_gradient(
    circuits: Sequence[QuantumCircuit],
    observable: Observable,
    params_batches: Sequence[Sequence[float]],
    simulator: Optional[StatevectorSimulator] = None,
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    plan: Optional[MegaBatchPlan] = None,
) -> "list[np.ndarray]":
    """Adjoint gradients for a whole shape bucket in one stacked sweep.

    The mega-batched form of :func:`batch_adjoint_gradient`: one
    :meth:`StatevectorSimulator.run_megabatch` forward pass over every
    circuit's rows, then a single backward sweep.  At each trainable slot
    the rows partition by their circuit's drawn gate, and each partition
    applies that gate's per-row adjoint / derivative stacks through the
    broadcasting kernels; fixed operations use the plan template's cached
    static adjoints on the whole stack (exact-unit diagonals elementwise,
    as in :func:`batch_adjoint_gradient`).  Rows evolve independently, so
    entry ``s`` is bit-identical to ``batch_adjoint_gradient(circuits[s],
    observable, params_batches[s], ...)``.

    Parameters
    ----------
    circuits, observable, params_batches, simulator, param_indices,
    initial_state, plan:
        As in :func:`megabatch_parameter_shift` (the adjoint engine has
        no sampled mode).

    Returns
    -------
    list of numpy.ndarray
        One ``(M_s, len(param_indices))`` gradient block per circuit.
    """
    simulator = simulator or StatevectorSimulator()
    batches = _coerce_mega_batches(circuits, params_batches)
    plan = plan or MegaBatchPlan(circuits)
    indices = _resolve_indices(plan.template, param_indices)
    num_qubits = plan.num_qubits
    static = plan.template.static_matrices()
    unit_adjoints = plan.template.unit_diagonal_adjoints()
    b = simulator.backend
    device = not b.is_numpy

    batch = np.concatenate(batches, axis=0)
    rows = np.concatenate(
        [np.full(bt.shape[0], s, dtype=np.intp) for s, bt in enumerate(batches)]
    )
    # Forward pass: one mega-batched execution for all circuits' rows,
    # left resident on the simulator's array backend; the backward sweep
    # (segment gathers/scatters included) runs on-namespace end to end.
    psi = simulator._run_megabatch_data(plan, batch, rows, initial_state)
    lam = observable.apply_batch(psi)
    if device and type(lam) is np.ndarray:
        # The observable fell back to its host implementation; stage the
        # adjoint trail back onto the backend for the backward sweep.
        lam = b.asarray(lam, dtype=b.complex_dtype)

    grads = np.zeros((batch.shape[0], len(indices)), dtype=FLOAT_DTYPE)
    slot_of = {index: slot for slot, index in enumerate(indices)}
    for pos in range(len(plan.template.operations) - 1, -1, -1):
        op = plan.template.operations[pos]
        if not op.is_trainable:
            if pos in unit_adjoints:
                undo, adjoint = apply_diagonal, unit_adjoints[pos]
            else:
                undo, adjoint = apply_matrix, static[pos][1]
            psi = undo(psi, adjoint, op.qubits, num_qubits, backend=b)
            lam = undo(lam, adjoint, op.qubits, num_qubits, backend=b)
            continue
        gates, codes = plan.slot_gates[pos]
        thetas = batch[:, op.param_index]
        wanted_slot = slot_of.get(op.param_index)
        row_codes = codes[rows] if len(gates) > 1 else None
        psi_new = psi if len(gates) == 1 else b.empty_like(psi)
        lam_new = lam if len(gates) == 1 else b.empty_like(lam)
        for code, gate in enumerate(gates):
            if len(gates) == 1:
                idx = None
                seg_thetas, seg_psi, seg_lam = thetas, psi, lam
            else:
                idx = np.flatnonzero(row_codes == code)
                if idx.size == 0:
                    continue
                seg_thetas = thetas[idx]
                seg_psi = b.take_rows(psi, idx)
                seg_lam = b.take_rows(lam, idx)
            adjoint = gate.matrix_batch(seg_thetas).conj().transpose(0, 2, 1)
            # Undo this gate on the segment: |psi_k> (states before it).
            seg_psi = apply_matrix(seg_psi, adjoint, op.qubits, num_qubits, backend=b)
            if wanted_slot is not None:
                d_matrices = gate.derivative_batch(seg_thetas)
                d_psi = apply_matrix(
                    seg_psi, d_matrices, op.qubits, num_qubits, backend=b
                )
                if device:
                    seg_grads = 2.0 * np.real(
                        b.to_numpy(b.sum(b.conj(seg_lam) * d_psi, axis=1))
                    )
                else:
                    seg_grads = [
                        2.0 * float(np.real(np.vdot(l, d)))
                        for l, d in zip(seg_lam, d_psi)
                    ]
            seg_lam = apply_matrix(seg_lam, adjoint, op.qubits, num_qubits, backend=b)
            if idx is None:
                psi_new, lam_new = seg_psi, seg_lam
                if wanted_slot is not None:
                    grads[:, wanted_slot] = seg_grads
            else:
                b.put_rows(psi_new, idx, seg_psi)
                b.put_rows(lam_new, idx, seg_lam)
                if wanted_slot is not None:
                    grads[idx, wanted_slot] = seg_grads
        psi, lam = psi_new, lam_new

    outputs: "list[np.ndarray]" = []
    start = 0
    for b in batches:
        outputs.append(grads[start : start + b.shape[0]])
        start += b.shape[0]
    return outputs


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
