"""Quantum simulation substrate: gates, circuits, statevectors, gradients.

This package is the reproduction's stand-in for PennyLane's
``default.qubit`` device (see DESIGN.md, substitutions table): an exact
NumPy statevector simulator plus parameter-shift / adjoint / finite
difference differentiation engines and optional Kraus-channel noise.

Batch API
---------
Every execution runs on a ``(B, 2**n)`` stack of amplitude rows; a single
state is a one-row stack, so no kernel or engine keeps separate
single-state code:

* ``apply_matrix`` / ``apply_diagonal`` take ``(B, 2**n)`` amplitude
  buffers and optional per-row gate stacks, and run a flat state as
  ``state[None]``;
* ``StatevectorSimulator.run_megabatch`` evolves rows of a shape bucket
  of circuits (a ``MegaBatchPlan``) in cache-sized chunks; that chunk
  loop is the only one that evolves rows, and ``run_batch`` /
  ``expectation_batch`` run the circuit's cached one-circuit plan
  through it (``run`` is a one-row ``run_batch``);
* ``megabatch_parameter_shift`` folds every shift term of every
  requested parameter of every base row into one execution that runs the
  circuit prefix before the first probed parameter once per base row and
  reduces in memory-bounded chunks; ``batch_parameter_shift`` is its
  one-circuit call and ``parameter_shift`` its one-row call;
* ``megabatch_adjoint_gradient`` runs the one adjoint sweep, whose
  final states and adjoint trail are the two halves of one stacked
  ``(2B, 2**n)`` pair: one kernel call per backward step undoes both,
  and each slot's derivative is read off a transition matrix;
  ``batch_adjoint_gradient`` is its one-circuit call and
  ``adjoint_gradient`` its one-row call, and the ``*_value_and_gradient``
  variants also return the expectation read off the shared forward pass
  — the engine behind lock-step training.

Rows never mix, so a row carries the same bits alone or in any stack —
batching is a throughput optimization, never a numerics change.
"""

from repro.backend.circuit import Operation, QuantumCircuit
from repro.backend.density import DensityMatrix, DensityMatrixSimulator
from repro.backend.gates import (
    FIXED_GATES,
    PARAMETRIC_GATES,
    PAULI_MATRICES,
    FixedGate,
    Gate,
    ParametricGate,
    controlled_matrix,
    get_gate,
    is_parametric,
    pauli_word_matrix,
)
from repro.backend.gradients import (
    GRADIENT_ENGINES,
    adjoint_gradient,
    adjoint_value_and_gradient,
    batch_adjoint_gradient,
    batch_adjoint_value_and_gradient,
    batch_parameter_shift,
    batch_parameter_shift_value_and_gradient,
    finite_difference,
    get_gradient_fn,
    parameter_shift,
)
from repro.backend.noise import (
    KrausChannel,
    NoiseModel,
    TrajectorySimulator,
    amplitude_damping,
    bit_flip,
    channel_from_dict,
    depolarizing,
    phase_damping,
    phase_flip,
    resolve_noise_model,
)
from repro.backend.ptm import (
    PauliTransferSimulator,
    density_from_pauli_vector,
    pauli_basis,
    pauli_vector_from_density,
    ptm_of_channel,
    ptm_of_unitary,
    ptm_of_unitary_batch,
)
from repro.backend.observables import (
    Observable,
    PauliString,
    PauliSum,
    Projector,
    StateProjector,
    single_z,
    total_z,
    zero_projector,
)
from repro.backend.simulator import StatevectorSimulator
from repro.backend.statevector import Statevector, apply_diagonal, apply_matrix

__all__ = [
    "DensityMatrix",
    "DensityMatrixSimulator",
    "FIXED_GATES",
    "GRADIENT_ENGINES",
    "PARAMETRIC_GATES",
    "PAULI_MATRICES",
    "FixedGate",
    "Gate",
    "KrausChannel",
    "NoiseModel",
    "Observable",
    "Operation",
    "ParametricGate",
    "PauliString",
    "PauliSum",
    "PauliTransferSimulator",
    "Projector",
    "QuantumCircuit",
    "StateProjector",
    "Statevector",
    "StatevectorSimulator",
    "TrajectorySimulator",
    "adjoint_gradient",
    "adjoint_value_and_gradient",
    "amplitude_damping",
    "apply_diagonal",
    "apply_matrix",
    "batch_adjoint_gradient",
    "batch_adjoint_value_and_gradient",
    "batch_parameter_shift",
    "batch_parameter_shift_value_and_gradient",
    "bit_flip",
    "channel_from_dict",
    "controlled_matrix",
    "density_from_pauli_vector",
    "depolarizing",
    "finite_difference",
    "get_gate",
    "get_gradient_fn",
    "is_parametric",
    "parameter_shift",
    "pauli_basis",
    "pauli_vector_from_density",
    "pauli_word_matrix",
    "phase_damping",
    "phase_flip",
    "ptm_of_channel",
    "ptm_of_unitary",
    "ptm_of_unitary_batch",
    "resolve_noise_model",
    "single_z",
    "total_z",
    "zero_projector",
]
