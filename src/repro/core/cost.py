"""Cost functions for PQC optimization.

The paper's training objective (its Eq. 4) is the *global* identity cost

    C = <psi(theta)| (I - |0...0><0...0|) |psi(theta)> = 1 - p(|0...0>)

measured on every qubit.  The *local* variant (Cerezo et al., 2021;
discussed in the paper's Sections II-d) replaces the global projector with
the average of single-qubit projectors:

    C_local = 1 - (1/n) * sum_q p(|0>_q) = 1/2 - (1/(2n)) <sum_q Z_q>

Both are thin wrappers over :class:`ObservableCost`, an affine function of
an expectation value ``C = offset + scale * <O>`` that knows how to
differentiate itself through any of the backend gradient engines.  Its
loss-and-gradient pass runs a ``(B, P)`` stack of parameter rows
(:meth:`ObservableCost.value_and_gradient_batch`, what training calls
every iteration); one parameter vector is its one-row call.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.gradients import (
    batch_adjoint_value_and_gradient,
    batch_parameter_shift_value_and_gradient,
    get_gradient_fn,
    parameter_shift,
)
from repro.backend.observables import (
    Observable,
    StateProjector,
    total_z,
    zero_projector,
)
from repro.backend.simulator import StatevectorSimulator
from repro.backend.statevector import Statevector
from repro.utils.validation import check_in_choices

__all__ = [
    "ObservableCost",
    "global_identity_cost",
    "local_identity_cost",
    "state_learning_cost",
    "make_cost",
    "check_cost_kind",
]


class ObservableCost:
    """``C(params) = offset + scale * <O>_{U(params)|0...0>}``.

    Parameters
    ----------
    circuit:
        Trainable circuit preparing ``|psi(params)>``.
    observable:
        The measured operator ``O``.
    offset, scale:
        Affine transform mapping the expectation to the cost.
    gradient_engine:
        Default differentiation method (``"adjoint"``, ``"batch_adjoint"``,
        ``"parameter_shift"``, ``"batch_parameter_shift"`` or
        ``"finite_difference"``).
    simulator:
        Shared simulator instance (a fresh one is created if omitted).
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        offset: float = 0.0,
        scale: float = 1.0,
        gradient_engine: str = "adjoint",
        simulator: Optional[StatevectorSimulator] = None,
    ):
        if observable.num_qubits != circuit.num_qubits:
            raise ValueError(
                f"observable acts on {observable.num_qubits} qubits, "
                f"circuit has {circuit.num_qubits}"
            )
        self.circuit = circuit
        self.observable = observable
        self.offset = float(offset)
        self.scale = float(scale)
        self.gradient_fn = get_gradient_fn(gradient_engine)
        self.gradient_engine = gradient_engine
        self.simulator = simulator or StatevectorSimulator()

    @property
    def num_parameters(self) -> int:
        """Trainable parameter count of the underlying circuit."""
        return self.circuit.num_parameters

    def value(
        self,
        params: Sequence[float],
        shots: Optional[int] = None,
        seed=None,
    ) -> float:
        """Evaluate the cost (exact, or shot-estimated with ``shots=``)."""
        expectation = self.simulator.expectation(
            self.circuit, self.observable, params, shots=shots, seed=seed
        )
        return self.offset + self.scale * expectation

    def gradient(
        self,
        params: Sequence[float],
        param_indices: Optional[Sequence[int]] = None,
        shots: Optional[int] = None,
        seed=None,
    ) -> np.ndarray:
        """Gradient of the cost (chain rule through the affine transform).

        With ``shots=`` the gradient is sample-estimated through the
        hardware parameter-shift rule regardless of the configured engine
        (the adjoint sweep has no measurement analogue); ``seed`` seeds
        the measurement stream.
        """
        if shots is not None:
            raw = parameter_shift(
                self.circuit,
                self.observable,
                params,
                simulator=self.simulator,
                param_indices=param_indices,
                shots=shots,
                seed=seed,
            )
            return self.scale * raw
        raw = self.gradient_fn(
            self.circuit,
            self.observable,
            params,
            simulator=self.simulator,
            param_indices=param_indices,
        )
        return self.scale * raw

    def value_and_gradient(
        self,
        params: Sequence[float],
        shots: Optional[int] = None,
        seed=None,
    ) -> Tuple[float, np.ndarray]:
        """Loss and full gradient: row 0 of :meth:`value_and_gradient_batch`.

        With ``shots=`` ``seed``'s generator is the row's measurement
        stream, consumed value-first then shift terms, so a persistent
        per-trajectory generator yields a reproducible stream across
        training iterations.
        """
        values, grads = self.value_and_gradient_batch(
            np.asarray(params, dtype=float).reshape(1, -1), shots=shots, seed=[seed]
        )
        return float(values[0]), grads[0]

    def value_and_gradient_batch(
        self,
        params_batch: Sequence[Sequence[float]],
        shots: Optional[int] = None,
        seed=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Losses and full gradients for a ``(B, P)`` stack of trajectories.

        Adjoint-family engines use one batched adjoint sweep and
        shift-rule engines one folded shift-rule execution, each reading
        the losses off the same pass, so row ``b`` carries the bits of
        the separate :meth:`value` and :meth:`gradient` calls on
        ``params_batch[b]``; any other engine makes those two calls row by
        row.

        With ``shots=`` every row is sample-estimated from one folded
        execution (:func:`batch_parameter_shift_value_and_gradient`,
        whatever the engine): ``seed`` is either a sequence of ``B``
        per-row seeds/generators (e.g. persistent per-trajectory streams
        in shot-based training) or a single seed spawning ``B`` children,
        and row ``b`` draws from its own generator alone.

        Returns
        -------
        (numpy.ndarray, numpy.ndarray)
            Losses of shape ``(B,)`` and gradients of shape ``(B, P)``.
        """
        batch = np.asarray(params_batch, dtype=float)
        if batch.ndim != 2:
            raise ValueError(
                f"params_batch must be 2-D (batch, num_parameters), "
                f"got shape {batch.shape}"
            )
        if shots is not None or self.gradient_engine in (
            "parameter_shift",
            "batch_parameter_shift",
        ):
            expectations, raw = batch_parameter_shift_value_and_gradient(
                self.circuit,
                self.observable,
                batch,
                simulator=self.simulator,
                shots=shots,
                seed=seed,
            )
        elif self.gradient_engine in ("adjoint", "batch_adjoint"):
            expectations, raw = batch_adjoint_value_and_gradient(
                self.circuit, self.observable, batch, simulator=self.simulator
            )
        else:
            values = np.array([self.value(row) for row in batch], dtype=float)
            return values, np.stack([self.gradient(row) for row in batch])
        return self.offset + self.scale * expectations, self.scale * raw

    def __call__(self, params: Sequence[float]) -> float:
        return self.value(params)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObservableCost({self.observable!r}, offset={self.offset}, "
            f"scale={self.scale}, engine={self.gradient_engine!r})"
        )


def global_identity_cost(
    circuit: QuantumCircuit,
    gradient_engine: str = "adjoint",
    simulator: Optional[StatevectorSimulator] = None,
) -> ObservableCost:
    """The paper's Eq. 4: ``C = 1 - p(|0...0>)``, measured on all qubits."""
    return ObservableCost(
        circuit,
        zero_projector(circuit.num_qubits),
        offset=1.0,
        scale=-1.0,
        gradient_engine=gradient_engine,
        simulator=simulator,
    )


def local_identity_cost(
    circuit: QuantumCircuit,
    gradient_engine: str = "adjoint",
    simulator: Optional[StatevectorSimulator] = None,
) -> ObservableCost:
    """Local cost ``1 - (1/n) sum_q p(|0>_q) = 1/2 - <sum_q Z_q>/(2n)``."""
    n = circuit.num_qubits
    return ObservableCost(
        circuit,
        total_z(n),
        offset=0.5,
        scale=-0.5 / n,
        gradient_engine=gradient_engine,
        simulator=simulator,
    )


def state_learning_cost(
    circuit: QuantumCircuit,
    target: Statevector,
    gradient_engine: str = "adjoint",
    simulator: Optional[StatevectorSimulator] = None,
) -> ObservableCost:
    """Infidelity cost ``C = 1 - |<phi|psi(theta)>|^2`` for a target state.

    The paper's identity task is the special case ``phi = |0...0>``; this
    generalization supports its "other learning problems" outlook with the
    same machinery (exact gradients through any engine).
    """
    if target.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"target has {target.num_qubits} qubits, circuit has "
            f"{circuit.num_qubits}"
        )
    return ObservableCost(
        circuit,
        StateProjector(target),
        offset=1.0,
        scale=-1.0,
        gradient_engine=gradient_engine,
        simulator=simulator,
    )


_COST_BUILDERS = {
    "global": global_identity_cost,
    "local": local_identity_cost,
}


def make_cost(
    kind: str,
    circuit: QuantumCircuit,
    gradient_engine: str = "adjoint",
    simulator: Optional[StatevectorSimulator] = None,
) -> ObservableCost:
    """Build a named identity-learning cost: ``"global"`` or ``"local"``."""
    builder = _COST_BUILDERS[check_cost_kind(kind).lower()]
    return builder(circuit, gradient_engine=gradient_engine, simulator=simulator)


def check_cost_kind(kind: str) -> str:
    """``kind`` if it names a cost (case-insensitive, as :func:`make_cost`
    reads it); a ``ValueError`` naming the ``cost_kind`` field otherwise."""
    name = kind.lower() if isinstance(kind, str) else kind
    check_in_choices(name, _COST_BUILDERS, "cost_kind")
    return kind
