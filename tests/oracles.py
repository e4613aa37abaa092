"""Sequential reference code, kept as an oracle for the old bits.

The library runs one state as a one-row ``(1, 2**n)`` stack through the
batched kernels and engines.  Before that, it carried a second, sequential
tier for single states: 1-D ``tensordot`` gate kernels, a gate-by-gate
``run`` and ``unitary``, a sequential adjoint sweep, a parameter-shift
loop and a per-state shot sampler.  Their arithmetic lives on here
verbatim — renamed, re-pointed at each other instead of at the library's
kernels, and stripped of input validation — so
``tests/backend/test_one_row_oracle.py`` can assert that every one-row
entry point still carries exactly the bits they produced.

Nothing here calls a library gate kernel: observables whose ``apply``
would (Pauli strings and sums) are applied through the 1-D kernels below.

The initializers likewise once drew their angles one layer at a time
(``Initializer.sample_layer``); that loop and every per-layer body live
on in :func:`initializer_sample`, which
``tests/initializers/test_layer_stack_oracle.py`` holds the one-call
layer-stack draws to.

The variance study once probed each structure's gradient method by
method, one shift-rule execution per shifted vector; that loop lives on
in :func:`variance_shard`, which ``tests/core/test_variance.py`` holds
the shape-bucket fold of ``run_variance_shard`` to.

The simulator applies up to three consecutive rotation slots as one
GEMM by their Kronecker product, which rounds differently from this
module's gate-by-gate kernels.  Where a circuit's slots form such a group
(:func:`fuses`), an engine-vs-oracle comparison takes
:data:`FUSED_ATOL` (:func:`assert_oracle_match`); where none forms, it
stays bit for bit.  Adjoint gradients take it on every circuit: the
library's sweep undoes the state and adjoint halves as one stacked pair
and reads each derivative off a transition matrix, where
:func:`adjoint_gradient` here applies the derivative and takes an inner
product.  Comparisons of the engine with itself (a plan row with its
``run_batch`` row, chunkings, executors) never need it.

Training once advanced one trajectory at a time next to the lock-step
loop, with a three-way fork in ``ObservableCost.value_and_gradient``;
that loop lives on in :func:`train_trajectory` (and a panel of it in
:func:`train_panel`), which ``tests/core/test_lockstep_training.py`` and
``tests/core/test_shot_training.py`` hold ``Trainer.run``,
``Trainer.run_lockstep`` and every executor to.  It drives the library's
cost, engines and optimizers: the oracle is the loop, not the kernels.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.gates import PAULI_MATRICES, ParametricGate
from repro.backend.observables import Observable, PauliString, PauliSum, Projector
from repro.backend.statevector import Statevector
from repro.utils.array_api import COMPLEX_DTYPE, FLOAT_DTYPE
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: Absolute tolerance of an engine-vs-oracle comparison where rotation
#: slots fuse, and of every adjoint gradient.  Complex128 eps is 2.2e-16;
#: the fused amplitudes of 45 random PQCs of 4-12 qubits and 10-30 layers
#: were measured within 5.9e-16 of :func:`run`.
FUSED_ATOL = 1e-12


def fuses(plan, start: int = 0, stop: Optional[int] = None) -> bool:
    """Whether the simulator's program for operations ``[start, stop)`` of
    ``plan`` applies two or more slots in one call."""
    from repro.backend.simulator import StatevectorSimulator

    if stop is None:
        stop = len(plan.template.operations)
    steps = StatevectorSimulator._program(plan, start, stop)[0]
    return any(
        hi - lo > 1
        for kind, _, _, payload in steps
        if kind == "slot"
        for lo, hi, _, _ in payload[2]
    )


def assert_oracle_match(actual, desired, fused: bool) -> None:
    """Engine output against an oracle: within :data:`FUSED_ATOL` where
    slots fuse, bit for bit where none does."""
    if fused:
        np.testing.assert_allclose(actual, desired, rtol=0, atol=FUSED_ATOL)
    else:
        assert np.array_equal(actual, desired)


# -- 1-D kernels -------------------------------------------------------------


def apply_matrix_1d(state, matrix, qubits, num_qubits):
    """The sequential ``apply_matrix`` branch: a flat state, one matrix."""
    k = len(qubits)
    tensor = state.reshape((2,) * num_qubits)
    gate = matrix.reshape((2,) * (2 * k))
    # Contract gate input axes (the trailing k axes of the reshaped gate)
    # with the targeted state axes, then move the gate output axes back.
    tensor = np.tensordot(gate, tensor, axes=(range(k, 2 * k), qubits))
    tensor = np.moveaxis(tensor, range(k), qubits)
    return np.ascontiguousarray(tensor).reshape(-1)


def apply_diagonal_1d(state, diagonal, qubits, num_qubits):
    """The sequential ``apply_diagonal`` branch: a flat state, one diagonal."""
    k = len(qubits)
    tensor = state.reshape((2,) * num_qubits)
    diag = diagonal.reshape((2,) * k)
    # Pad with size-1 axes, then move the diagonal's axes onto the target
    # qubit positions so plain broadcasting applies it elementwise.
    expanded = np.moveaxis(
        diag.reshape(diag.shape + (1,) * (num_qubits - k)), range(k), qubits
    )
    return (tensor * expanded).reshape(-1)


def apply_operation(data, op, params, num_qubits):
    """Apply one circuit operation to a flat amplitude buffer.

    A trainable operation goes through its matrix even when its gate is
    diagonal (the library's slot rule); fixed and bound diagonal
    operations go through their diagonal."""
    matrix = op.matrix(params)
    if getattr(op.gate, "is_diagonal", False) and not op.is_trainable:
        return apply_diagonal_1d(data, np.diagonal(matrix), op.qubits, num_qubits)
    return apply_matrix_1d(data, matrix, op.qubits, num_qubits)


# -- observables through the 1-D kernels -------------------------------------


def observable_apply(observable: Observable, data: np.ndarray) -> np.ndarray:
    """``O @ data`` for a flat buffer, Pauli letters via the 1-D kernel."""
    if isinstance(observable, PauliString):
        out = data
        for qubit, letter in observable.paulis.items():
            out = apply_matrix_1d(
                out, PAULI_MATRICES[letter], [qubit], observable.num_qubits
            )
        if observable.coefficient != 1.0:
            out = observable.coefficient * out
        elif out is data:
            out = data.copy()
        return out
    if isinstance(observable, PauliSum):
        out = np.zeros_like(data)
        for term in observable.terms:
            out += observable_apply(term, data)
        return out
    # Projectors index or scale amplitudes; no gate kernel involved.
    return observable.apply(data)


def observable_expectation(observable: Observable, state: Statevector) -> float:
    """``Observable.expectation`` with :func:`observable_apply`."""
    if isinstance(observable, (PauliString, PauliSum)):
        return float(
            np.real(np.vdot(state.data, observable_apply(observable, state.data)))
        )
    return observable.expectation(state)


# -- simulator ---------------------------------------------------------------


def _coerce_params(params: Optional[Sequence[float]]) -> Optional[np.ndarray]:
    if params is None:
        return None
    return np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)


def run(
    circuit: QuantumCircuit,
    params: Optional[Sequence[float]] = None,
    initial_state: Optional[Statevector] = None,
) -> Statevector:
    """Gate-by-gate ``StatevectorSimulator.run`` on a flat buffer."""
    param_array = _coerce_params(params)
    if initial_state is None:
        data = np.zeros(2**circuit.num_qubits, dtype=COMPLEX_DTYPE)
        data[0] = 1.0
    else:
        data = initial_state.data.copy()
    for op in circuit.operations:
        data = apply_operation(data, op, param_array, circuit.num_qubits)
    return Statevector(data, validate=False)


def unitary(
    circuit: QuantumCircuit, params: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Column-by-column ``StatevectorSimulator.unitary``."""
    dim = 2**circuit.num_qubits
    param_array = _coerce_params(params)
    columns = np.eye(dim, dtype=COMPLEX_DTYPE)
    out = np.empty((dim, dim), dtype=COMPLEX_DTYPE)
    for col in range(dim):
        data = columns[:, col].copy()
        for op in circuit.operations:
            data = apply_operation(data, op, param_array, circuit.num_qubits)
        out[:, col] = data
    return out


def sampled_expectation(
    state: Statevector,
    observable: Observable,
    shots: int,
    seed,
) -> float:
    """The per-state shot estimator (``_sampled_expectation``)."""
    check_positive_int(shots, "shots")
    rng = ensure_rng(seed)
    if isinstance(observable, Projector):
        bits = state.sample(shots, seed=rng)
        hits = np.all(bits == np.asarray(observable.bits), axis=1)
        return float(np.mean(hits))
    if isinstance(observable, PauliString):
        return sampled_pauli(state, observable, shots, rng)
    if isinstance(observable, PauliSum):
        return float(
            sum(
                sampled_pauli(state, term, shots, rng)
                for term in observable.terms
            )
        )
    raise TypeError(
        f"shot-based estimation is not implemented for {type(observable).__name__}"
    )


def sampled_pauli(
    state: Statevector, term: PauliString, shots: int, rng: np.random.Generator
) -> float:
    """One Pauli term's shot estimate (``_sampled_pauli``)."""
    if term.is_identity:
        return term.coefficient
    rotated = state.data
    for matrix, qubit in term.rotation_matrices():
        rotated = apply_matrix_1d(rotated, matrix, [qubit], state.num_qubits)
    bits = Statevector(rotated, validate=False).sample(shots, seed=rng)
    return float(np.mean(term.eigenvalues_of_bits(bits)))


def expectation(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Optional[Sequence[float]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
) -> float:
    """``StatevectorSimulator.expectation`` on the sequential tier."""
    state = run(circuit, params, initial_state)
    if shots is None:
        return observable_expectation(observable, state)
    return sampled_expectation(state, observable, shots, seed)


# -- gradient engines --------------------------------------------------------


def _resolve_indices(circuit, param_indices):
    if param_indices is None:
        return range(circuit.num_parameters)
    return [int(i) for i in param_indices]


def _adjoint_sweep(
    circuit: QuantumCircuit,
    observable: Observable,
    params: np.ndarray,
    indices: Sequence[int],
    initial_state: Optional[Statevector],
    want_value: bool,
) -> Tuple[Optional[float], np.ndarray]:
    """Sequential adjoint forward pass + backward sweep."""
    wanted = set(indices)
    num_qubits = circuit.num_qubits

    # Forward pass.
    final_state = run(circuit, params, initial_state)
    value = observable_expectation(observable, final_state) if want_value else None
    psi = final_state.data.copy()
    lam = observable_apply(observable, psi)

    grads_by_index = {}
    for pos in range(len(circuit.operations) - 1, -1, -1):
        op = circuit.operations[pos]
        adjoint = op.matrix(params).conj().T
        # Undo this gate: |psi_k> (state before the gate).
        psi = apply_matrix_1d(psi, adjoint, op.qubits, num_qubits)
        if op.is_trainable and op.param_index in wanted:
            gate = op.gate
            assert isinstance(gate, ParametricGate)
            d_matrix = gate.derivative(float(params[op.param_index]))
            d_psi = apply_matrix_1d(psi, d_matrix, op.qubits, num_qubits)
            grads_by_index[op.param_index] = 2.0 * float(
                np.real(np.vdot(lam, d_psi))
            )
        lam = apply_matrix_1d(lam, adjoint, op.qubits, num_qubits)

    grads = np.array([grads_by_index.get(i, 0.0) for i in indices], dtype=FLOAT_DTYPE)
    return value, grads


def adjoint_gradient(
    circuit, observable, params, param_indices=None, initial_state=None
) -> np.ndarray:
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)
    _, grads = _adjoint_sweep(
        circuit, observable, params, indices, initial_state, want_value=False
    )
    return grads


def adjoint_value_and_gradient(
    circuit, observable, params, param_indices=None, initial_state=None
) -> Tuple[float, np.ndarray]:
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)
    return _adjoint_sweep(
        circuit, observable, params, indices, initial_state, want_value=True
    )


def parameter_shift(
    circuit: QuantumCircuit,
    observable: Observable,
    params: Sequence[float],
    param_indices: Optional[Sequence[int]] = None,
    initial_state: Optional[Statevector] = None,
    shots: Optional[int] = None,
    seed=None,
    simulator=None,
) -> np.ndarray:
    """The sequential shift-rule loop: one execution per shifted vector.

    ``simulator`` (for example a ``PauliTransferSimulator``) supplies the
    per-vector ``expectation``; by default it is :func:`expectation`.
    """
    evaluate = expectation if simulator is None else simulator.expectation
    params = np.asarray(params, dtype=FLOAT_DTYPE).reshape(-1)
    indices = _resolve_indices(circuit, param_indices)
    position_of = circuit.parameter_map()
    rules = [
        circuit.operations[position_of[index]].gate.shift_terms
        for index in indices
    ]
    if shots is not None:
        # One generator consumed across all shifted evaluations keeps the
        # per-evaluation samples independent.
        seed = ensure_rng(seed)

    grads = np.empty(len(indices), dtype=FLOAT_DTYPE)
    for out_slot, (index, terms) in enumerate(zip(indices, rules)):
        total = 0.0
        shifted = params.copy()
        for coefficient, shift in terms:
            shifted[index] = params[index] + shift
            total += coefficient * evaluate(
                circuit,
                observable,
                shifted,
                initial_state=initial_state,
                shots=shots,
                seed=seed,
            )
        grads[out_slot] = total
    return grads


# -- per-layer initializer draws ---------------------------------------------


def haar_orthogonal_matrix(rows, cols, rng):
    """The per-matrix Haar draw: one Gaussian draw and one QR per layer."""
    transpose = rows < cols
    shape = (cols, rows) if transpose else (rows, cols)
    gaussian = rng.normal(size=shape)
    q, r = np.linalg.qr(gaussian)
    q = q * np.sign(np.diagonal(r))
    return q.T if transpose else q


def _sample_truncated(rng, stddev, size):
    out = rng.normal(0.0, stddev, size=size)
    bound = 2.0 * stddev
    bad = np.abs(out) > bound
    while np.any(bad):
        out[bad] = rng.normal(0.0, stddev, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def sample_layer(init, shape, rng, layer=0):
    """One layer's angles, as each initializer's ``sample_layer`` drew them.

    ``layer`` is the layer's index in the circuit; only ``WarmStart``,
    which copied trained layers through a cursor, reads it.
    """
    from repro.initializers import (
        BetaInitializer,
        Constant,
        Normal,
        Orthogonal,
        RandomUniform,
        TruncatedNormal,
        Uniform,
        VarianceScaling,
        WarmStart,
        Zeros,
    )
    from repro.initializers.classical import _ScaledNormal, _ScaledUniform
    from repro.initializers.variance_scaling import _TRUNC_STD_FACTOR

    size = shape.params_per_layer
    if isinstance(init, WarmStart):
        start = layer * size
        if start >= init.trained_params.size:
            return sample_layer(init.fill, shape, rng, layer)
        chunk = init.trained_params[start : start + size]
        if chunk.size < size:
            raise ValueError(
                "trained_params length is not a whole number of target "
                f"layers: layer needs {size} angles, found {chunk.size} left"
            )
        return chunk.copy()
    if isinstance(init, (RandomUniform, Uniform)):
        return rng.uniform(init.low, init.high, size=size)
    if isinstance(init, _ScaledNormal):
        fan_in, fan_out = shape.fans(init.fan_mode)
        stddev = np.sqrt(init._variance(fan_in, fan_out))
        return rng.normal(0.0, stddev, size=size)
    if isinstance(init, _ScaledUniform):
        fan_in, fan_out = shape.fans(init.fan_mode)
        limit = init._limit(fan_in, fan_out)
        return rng.uniform(-limit, limit, size=size)
    if isinstance(init, Normal):
        return rng.normal(0.0, init.stddev, size=size)
    if isinstance(init, Zeros):
        return np.zeros(size)
    if isinstance(init, Constant):
        return np.full(size, init.value)
    if isinstance(init, BetaInitializer):
        return init.scale * rng.beta(init.alpha, init.beta, size=size)
    if isinstance(init, Orthogonal):
        matrix = haar_orthogonal_matrix(
            shape.num_qubits, shape.params_per_qubit, rng
        )
        return (init.gain * matrix).reshape(-1)
    if isinstance(init, TruncatedNormal):
        if init.stddev == 0.0:
            return np.zeros(size)
        return _sample_truncated(rng, init.stddev, size)
    if isinstance(init, VarianceScaling):
        variance = init.scale / init._fan(shape)
        if init.distribution == "normal":
            return rng.normal(0.0, np.sqrt(variance), size=size)
        if init.distribution == "uniform":
            limit = np.sqrt(3.0 * variance)
            return rng.uniform(-limit, limit, size=size)
        stddev = np.sqrt(variance) / _TRUNC_STD_FACTOR
        return _sample_truncated(rng, stddev, size)
    raise TypeError(f"no per-layer oracle for {type(init).__name__}")


def initializer_sample(init, shape, seed=None):
    """The per-layer ``Initializer.sample``: one draw per layer, in turn."""
    rng = ensure_rng(seed)
    layers = range(shape.num_layers)
    return np.concatenate([sample_layer(init, shape, rng, i) for i in layers])


# -- the variance shard ------------------------------------------------------


def variance_shard(config, shard, simulator=None) -> dict:
    """``run_variance_shard``'s record from the per-method shift loop.

    Structure by structure, every method's angles are drawn layer by
    layer (:func:`initializer_sample`), then each method's probed
    gradient comes from :func:`parameter_shift`.  ``simulator`` evaluates
    every shifted vector; by default a noiseless shard calls no library
    kernel and a noisy one uses ``PauliTransferSimulator.expectation``.
    A planned shard's seed sequences count the children spawned from
    them, so plan the shards again for a second run.
    """
    from repro.ansatz.random_pqc import RandomPQC
    from repro.backend.noise import resolve_noise_model
    from repro.backend.ptm import PauliTransferSimulator
    from repro.core.cost import make_cost
    from repro.utils.rng import spawn_rng

    noise_model = resolve_noise_model(config.noise)
    if simulator is None and noise_model is not None:
        simulator = PauliTransferSimulator(noise_model)
    initializers = config.build_initializers()
    grads = {method: [] for method in config.methods}
    for i in range(shard.num_circuits):
        structure_rng = ensure_rng(shard.seeds[2 * i])
        angles_rng = ensure_rng(shard.seeds[2 * i + 1])
        pqc = RandomPQC(
            num_qubits=shard.num_qubits,
            num_layers=config.num_layers,
            gate_pool=config.gate_pool,
            entanglement=config.entanglement,
            entangler=config.entangler,
            seed=structure_rng,
        )
        circuit = pqc.build()
        cost = make_cost(config.cost_kind, circuit)
        draws = {
            method: initializer_sample(
                init, pqc.parameter_shape, spawn_rng(angles_rng)
            )
            for method, init in initializers.items()
        }
        # Sampled probes: one more child per method, after every draw.
        sample_rngs = [
            spawn_rng(angles_rng) if config.shots is not None else None
            for _ in config.methods
        ]
        count = circuit.num_parameters
        index = {"first": 0, "middle": count // 2, "last": count - 1}[
            config.param_position
        ]
        for method, sample_rng in zip(config.methods, sample_rngs):
            raw = parameter_shift(
                circuit,
                cost.observable,
                draws[method],
                param_indices=[index],
                shots=config.shots,
                seed=sample_rng,
                simulator=simulator,
            )
            grads[method].append(float(cost.scale * raw[0]))
    return {
        "num_qubits": shard.num_qubits,
        "start": shard.start,
        "gradients": grads,
    }


# -- training ----------------------------------------------------------------


def _cost_value_and_gradient(cost, params, shots, rng):
    """The per-trajectory ``ObservableCost.value_and_gradient`` fork."""
    from repro.backend.gradients import adjoint_value_and_gradient as fused

    if shots is not None:
        value = cost.value(params, shots=shots, seed=rng)
        return value, cost.gradient(params, shots=shots, seed=rng)
    if cost.gradient_engine in ("adjoint", "batch_adjoint"):
        expectation, raw = fused(
            cost.circuit, cost.observable, params, simulator=cost.simulator
        )
        return cost.offset + cost.scale * expectation, cost.scale * raw
    return cost.value(params), cost.gradient(params)


def train_trajectory(trainer, method, seed=None, sample_seed=None):
    """``Trainer.run``'s per-trajectory loop: one update at a time."""
    from repro.core.results import TrainingHistory

    config = trainer.config
    params = trainer.initial_parameters(method, seed)
    optimizer = config.build_optimizer()
    initial = params.copy()
    shots = config.shots
    rng = ensure_rng(sample_seed) if shots is not None else None
    loss, grad = _cost_value_and_gradient(trainer.cost, params, shots, rng)
    losses, grad_norms = [loss], [float(np.linalg.norm(grad))]
    for _ in range(config.iterations):
        params = optimizer.step(params, grad)
        loss, grad = _cost_value_and_gradient(trainer.cost, params, shots, rng)
        losses.append(loss)
        grad_norms.append(float(np.linalg.norm(grad)))
    return TrainingHistory(
        method=method if isinstance(method, str) else method.name,
        optimizer=config.optimizer,
        losses=losses,
        gradient_norms=grad_norms,
        initial_params=initial,
        final_params=params,
        cost_kind=config.cost_kind,
    )


def train_panel(config, methods, seed, restarts=1):
    """A panel of :func:`train_trajectory` runs, keyed by trajectory label.

    Child ``b`` of ``seed`` seeds trajectory ``b``: analytic runs draw
    their initial angles from it directly, shot-based runs split it into
    an initialization seed and a measurement-stream seed.
    """
    from repro.core.training import Trainer, expand_trajectories
    from repro.utils.rng import spawn_seeds

    trainer = Trainer(config)
    labels, trajectory_methods = expand_trajectories(methods, restarts)
    children = spawn_seeds(seed, len(labels))
    histories = {}
    for method, label, child in zip(trajectory_methods, labels, children):
        if config.shots is None:
            init_seed, sample_seed = ensure_rng(child), None
        else:
            init_seed, sample_seed = spawn_seeds(child, 2)
        history = train_trajectory(trainer, method, init_seed, sample_seed)
        history.method = label
        histories[label] = history
    return histories
