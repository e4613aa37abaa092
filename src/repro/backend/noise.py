"""Quantum noise channels and a Monte-Carlo trajectory simulator.

The paper's experiments are noiseless, but it motivates its study with NISQ
hardware; this module provides the standard single-qubit Kraus channels and
a stochastic-trajectory simulator so the robustness of each initialization
scheme can be probed under hardware-like noise (ablation A5 in DESIGN.md).

A trajectory applies, after every gate, one Kraus operator per noisy qubit,
selected with probability ``||K_i |psi>||^2`` and followed by
renormalization.  Averaging expectation values over trajectories converges
to the density-matrix result.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.backend.circuit import QuantumCircuit
from repro.backend.observables import Observable
from repro.backend.statevector import Statevector, apply_matrix
from repro.utils.rng import SeedLike, child_rngs, ensure_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "KrausChannel",
    "bit_flip",
    "phase_flip",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "channel_from_dict",
    "NoiseModel",
    "resolve_noise_model",
    "TrajectorySimulator",
]

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _coerce_trajectory_params(
    circuit: QuantumCircuit, params: Optional[Sequence[float]]
) -> Optional[np.ndarray]:
    """Validate a parameter vector with the statevector path's messages."""
    if params is None:
        if circuit.num_parameters:
            raise ValueError(
                f"circuit has {circuit.num_parameters} trainable parameters "
                "but none were supplied"
            )
        return None
    array = np.asarray(params, dtype=float).reshape(-1)
    if array.size != circuit.num_parameters:
        raise ValueError(
            f"expected {circuit.num_parameters} parameters, got {array.size}"
        )
    return array


class KrausChannel:
    """A completely-positive trace-preserving map given by Kraus operators.

    ``spec`` is an optional serializable payload describing how to rebuild
    the channel (stamped by the named factories below); channels carrying
    one round-trip through :meth:`to_dict` / :func:`channel_from_dict`.
    """

    def __init__(
        self,
        name: str,
        kraus_operators: Iterable[np.ndarray],
        spec: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.kraus_operators = [np.asarray(k, dtype=complex) for k in kraus_operators]
        if not self.kraus_operators:
            raise ValueError("channel needs at least one Kraus operator")
        first = self.kraus_operators[0]
        if first.ndim != 2 or first.shape[0] != first.shape[1]:
            raise ValueError("Kraus operators must be square matrices")
        dim = first.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValueError(
                f"Kraus operator dimension must be a power of two >= 2 "
                f"(a {dim}x{dim} map has no qubit count), got dim={dim}"
            )
        total = np.zeros((dim, dim), dtype=complex)
        for kraus in self.kraus_operators:
            if kraus.shape != (dim, dim):
                raise ValueError("all Kraus operators must share one square shape")
            total += kraus.conj().T @ kraus
        if not np.allclose(total, np.eye(dim), atol=1e-9):
            raise ValueError(
                f"channel {name!r} is not trace preserving (sum K^dag K != I)"
            )
        self.num_qubits = int(dim).bit_length() - 1
        self.spec = dict(spec) if spec is not None else None

    @property
    def is_trivial(self) -> bool:
        """True when the channel is exactly the identity map.

        A channel is the identity iff every Kraus operator is a scalar
        multiple of the identity and the scalars complete to one — this
        catches zero-probability factory channels (e.g.
        ``depolarizing(0.0)``), whose extra all-zero operators change
        nothing physically.
        """
        dim = self.kraus_operators[0].shape[0]
        eye = np.eye(dim)
        total = 0.0
        for kraus in self.kraus_operators:
            scale = np.trace(kraus) / dim
            if not np.allclose(kraus, scale * eye):
                return False
            total += abs(scale) ** 2
        return bool(np.isclose(total, 1.0))

    def to_dict(self) -> Dict[str, Any]:
        """Serializable payload (requires a factory-stamped ``spec``)."""
        if self.spec is None:
            raise ValueError(
                f"channel {self.name!r} has no serializable spec; build it "
                "through a named factory (bit_flip, depolarizing, ...) or "
                "pass spec= to KrausChannel"
            )
        return dict(self.spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KrausChannel({self.name!r}, {len(self.kraus_operators)} operators)"


def bit_flip(probability: float) -> KrausChannel:
    """Apply X with probability ``p``."""
    p = check_probability(probability, "probability")
    return KrausChannel(
        "bit_flip",
        [np.sqrt(1 - p) * _I2, np.sqrt(p) * _X],
        spec={"name": "bit_flip", "probability": p},
    )


def phase_flip(probability: float) -> KrausChannel:
    """Apply Z with probability ``p``."""
    p = check_probability(probability, "probability")
    return KrausChannel(
        "phase_flip",
        [np.sqrt(1 - p) * _I2, np.sqrt(p) * _Z],
        spec={"name": "phase_flip", "probability": p},
    )


def depolarizing(probability: float) -> KrausChannel:
    """Replace the state with the maximally mixed one at rate ``p``."""
    p = check_probability(probability, "probability")
    return KrausChannel(
        "depolarizing",
        [
            np.sqrt(1 - p) * _I2,
            np.sqrt(p / 3.0) * _X,
            np.sqrt(p / 3.0) * _Y,
            np.sqrt(p / 3.0) * _Z,
        ],
        spec={"name": "depolarizing", "probability": p},
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """T1 decay: |1> relaxes to |0> with probability ``gamma``."""
    g = check_probability(gamma, "gamma")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    return KrausChannel(
        "amplitude_damping",
        [k0, k1],
        spec={"name": "amplitude_damping", "gamma": g},
    )


def phase_damping(gamma: float) -> KrausChannel:
    """Pure dephasing with rate ``gamma``."""
    g = check_probability(gamma, "gamma")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, 0], [0, np.sqrt(g)]], dtype=complex)
    return KrausChannel(
        "phase_damping",
        [k0, k1],
        spec={"name": "phase_damping", "gamma": g},
    )


#: Named channel factories and the single rate argument each accepts —
#: the vocabulary of the serializable channel payloads
#: (``{"name": "depolarizing", "probability": 0.01}``).
_CHANNEL_FACTORIES: Dict[str, Callable[[float], KrausChannel]] = {
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "phase_damping": phase_damping,
}
_CHANNEL_ARG: Dict[str, str] = {
    "bit_flip": "probability",
    "phase_flip": "probability",
    "depolarizing": "probability",
    "amplitude_damping": "gamma",
    "phase_damping": "gamma",
}


def channel_from_dict(payload: Dict[str, Any]) -> KrausChannel:
    """Rebuild a named channel from its serialized payload."""
    if not isinstance(payload, dict):
        raise ValueError(f"channel payload must be a dict, got {type(payload).__name__}")
    name = payload.get("name")
    if not isinstance(name, str) or name not in _CHANNEL_FACTORIES:
        raise ValueError(
            f"unknown noise channel {name!r}; known channels: "
            f"{sorted(_CHANNEL_FACTORIES)}"
        )
    arg = _CHANNEL_ARG[name]
    unknown = set(payload) - {"name", arg}
    if unknown:
        raise ValueError(
            f"channel {name!r} payload has unknown keys {sorted(unknown)} "
            f"(expected only {arg!r})"
        )
    if arg not in payload:
        raise ValueError(f"channel {name!r} payload is missing {arg!r}")
    value = _payload_float(payload[arg], f"channel {name!r} {arg!r}")
    return _CHANNEL_FACTORIES[name](value)


def _payload_float(value: Any, name: str) -> float:
    """``float(value)`` for a payload entry, or a ValueError naming it."""
    if isinstance(value, (bool, int, float, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


class NoiseModel:
    """Maps gate names to the single-qubit channels that follow them.

    Parameters
    ----------
    default:
        Channel applied after *every* gate, to each qubit the gate touches.
    per_gate:
        Overrides keyed by upper-case gate name; an explicit ``None`` entry
        disables noise for that gate.
    readout_error:
        Probability that each measured bit is flipped classically at
        readout.  Only the sampled estimators see it (analytic
        expectations model gate noise exactly but read out ideally);
        it is applied inside
        :func:`repro.backend.statevector.sample_basis_bits`.
    """

    def __init__(
        self,
        default: Optional[KrausChannel] = None,
        per_gate: Optional[Dict[str, Optional[KrausChannel]]] = None,
        readout_error: float = 0.0,
    ):
        self.default = default
        self.per_gate = {
            name.upper(): channel for name, channel in (per_gate or {}).items()
        }
        self.readout_error = check_probability(readout_error, "readout_error")

    def channel_for(self, gate_name: str) -> Optional[KrausChannel]:
        """Resolve the channel applied after ``gate_name`` (or None)."""
        key = gate_name.upper()
        if key in self.per_gate:
            return self.per_gate[key]
        return self.default

    @property
    def is_trivial(self) -> bool:
        """True when no gate receives any noise and readout is ideal."""
        channels = [self.default, *self.per_gate.values()]
        return self.readout_error == 0.0 and all(
            c is None or c.is_trivial for c in channels
        )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical serializable payload (identity-neutral keys dropped)."""
        payload: Dict[str, Any] = {}
        if self.default is not None:
            payload["default"] = self.default.to_dict()
        if self.per_gate:
            payload["per_gate"] = {
                name: (channel.to_dict() if channel is not None else None)
                for name, channel in sorted(self.per_gate.items())
            }
        if self.readout_error:
            payload["readout_error"] = self.readout_error
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "NoiseModel":
        """Rebuild a model from a :meth:`to_dict` payload."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"noise payload must be a dict, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"default", "per_gate", "readout_error"}
        if unknown:
            raise ValueError(
                f"noise payload has unknown keys {sorted(unknown)} (expected "
                "'default', 'per_gate', 'readout_error')"
            )
        default_payload = payload.get("default")
        default = (
            channel_from_dict(default_payload)
            if default_payload is not None
            else None
        )
        per_gate_payload = payload.get("per_gate") or {}
        if not isinstance(per_gate_payload, dict):
            raise ValueError("noise payload 'per_gate' must be a dict")
        per_gate = {
            name: (channel_from_dict(entry) if entry is not None else None)
            for name, entry in per_gate_payload.items()
        }
        readout = _payload_float(payload.get("readout_error", 0.0), "readout_error")
        return cls(default=default, per_gate=per_gate, readout_error=readout)


def resolve_noise_model(
    noise: "Optional[NoiseModel | Dict[str, Any]]",
) -> Optional[NoiseModel]:
    """Resolve a config-level noise payload to a model, or ``None``.

    ``None`` and *trivial* models (no channels, ideal readout) both
    resolve to ``None`` so callers fall through to the noiseless fast
    paths — which is what makes the trivial-noise case bit-identical to
    the noiseless batched kernels.
    """
    if noise is None:
        return None
    model = noise if isinstance(noise, NoiseModel) else NoiseModel.from_dict(noise)
    return None if model.is_trivial else model


class TrajectorySimulator:
    """Monte-Carlo wavefunction simulator with per-gate Kraus noise."""

    def __init__(self, noise_model: NoiseModel):
        self.noise_model = noise_model

    def run_trajectory(
        self,
        circuit: QuantumCircuit,
        params: Optional[Sequence[float]] = None,
        seed: SeedLike = None,
        initial_state: Optional[Statevector] = None,
    ) -> Statevector:
        """Sample one stochastic trajectory through the noisy circuit."""
        rng = ensure_rng(seed)
        param_array = _coerce_trajectory_params(circuit, params)
        if initial_state is None:
            data = np.zeros(2**circuit.num_qubits, dtype=complex)
            data[0] = 1.0
        else:
            data = initial_state.data.copy()
        n = circuit.num_qubits
        for op in circuit.operations:
            data = apply_matrix(data, op.matrix(param_array), op.qubits, n)
            channel = self.noise_model.channel_for(op.gate.name)
            if channel is None or channel.is_trivial:
                continue
            for qubit in op.qubits:
                data = self._apply_channel(data, channel, qubit, n, rng)
        return Statevector(data, validate=False)

    def expectation(
        self,
        circuit: QuantumCircuit,
        observable: Observable,
        params: Optional[Sequence[float]] = None,
        trajectories: int = 100,
        seed: SeedLike = None,
    ) -> float:
        """Average ``<O>`` over independent noisy trajectories."""
        check_positive_int(trajectories, "trajectories")
        values = [
            observable.expectation(self.run_trajectory(circuit, params, seed=rng))
            for rng in child_rngs(seed, trajectories)
        ]
        return float(np.mean(values))

    @staticmethod
    def _apply_channel(
        data: np.ndarray,
        channel: KrausChannel,
        qubit: int,
        num_qubits: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        branches: List[np.ndarray] = []
        weights: List[float] = []
        for kraus in channel.kraus_operators:
            branch = apply_matrix(data, kraus, [qubit], num_qubits)
            weight = float(np.real(np.vdot(branch, branch)))
            branches.append(branch)
            weights.append(weight)
        total = sum(weights)
        probs = np.asarray(weights) / total
        choice = rng.choice(len(branches), p=probs)
        chosen = branches[choice]
        norm = np.linalg.norm(chosen)
        return chosen / norm
