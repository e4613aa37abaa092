"""Training-analysis engine (paper Section IV-D, Fig. 5b/5c).

Trains the hardware-efficient ansatz of Eq. 3 to learn the identity
function under the global cost of Eq. 4, for a fixed iteration budget,
recording the loss after every update.  Defaults replicate the paper:
10 qubits, 5 layers (145 gates, 100 parameters), 50 iterations, step size
0.1, Gradient Descent or Adam.

Every trajectory runs through one loop, :meth:`Trainer.run_lockstep`:
all trajectories (one per method, or per ``(method, restart)`` pair)
stack into a ``(B, P)`` batch that advances through
:meth:`ObservableCost.value_and_gradient_batch` and the batch-aware
optimizers, ``iterations`` batched passes in all.  :meth:`Trainer.run`
is its one-trajectory call, and the per-trajectory work units are
one-row calls of the lock-step unit.

Shot-based training (``TrainingConfig.shots``) replaces the analytic
loss/gradient with finite-sample estimates through the hardware
parameter-shift rule.  Each trajectory owns a persistent measurement
stream (``sample_seed`` / ``sample_seeds``), so its history is the same
alone or in any stack, given the same spawned child seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ansatz.base import check_entangler, check_rotation_gates
from repro.ansatz.entanglement import ENTANGLEMENT_PATTERNS
from repro.ansatz.hea import HardwareEfficientAnsatz
from repro.backend.gradients import GRADIENT_ENGINES
from repro.backend.noise import NoiseModel, resolve_noise_model
from repro.backend.ptm import PauliTransferSimulator
from repro.backend.simulator import StatevectorSimulator
from repro.core.cost import ObservableCost, check_cost_kind, make_cost
from repro.core.results import TrainingHistory
from repro.initializers import Initializer, get_initializer
from repro.initializers.registry import PAPER_METHODS
from repro.optim import Optimizer, get_optimizer, resolve_optimizer_name
from repro.utils.array_api import check_array_backend_name
from repro.utils.rng import SeedLike, ensure_rng, spawn_seeds
from repro.utils.validation import (
    check_in_choices,
    check_positive_int,
    check_register_fits,
)

__all__ = [
    "TrainingConfig",
    "Trainer",
    "train",
    "train_all_methods",
    "expand_trajectories",
    "run_training_unit",
    "run_labelled_training_unit",
    "run_lockstep_training_unit",
]


@dataclass
class TrainingConfig:
    """Configuration of the training study (paper defaults).

    ``shots`` switches the study from analytic losses/gradients to
    finite-sample estimation (that many measurement samples per
    expectation, gradients through the hardware parameter-shift rule) —
    the hardware-realistic extension; ``None`` keeps the paper's analytic
    setup.
    """

    num_qubits: int = 10
    num_layers: int = 5
    iterations: int = 50
    optimizer: str = "gradient_descent"
    learning_rate: float = 0.1
    cost_kind: str = "global"
    gradient_engine: str = "adjoint"
    rotation_gates: Sequence[str] = ("RX", "RY")
    entanglement: str = "chain"
    entangler: str = "CZ"
    optimizer_kwargs: Dict[str, float] = field(default_factory=dict)
    shots: Optional[int] = None
    #: Array backend the statevector kernels run on: ``"numpy"`` (default,
    #: bit-identical to the pre-backend code) or an accelerator namespace
    #: spec such as ``"torch"`` / ``"torch:cuda:0"`` / ``"cupy"``.  The
    #: name is checked against the registry here; the namespace is
    #: resolved lazily at run time (see :mod:`repro.utils.array_api`).
    #: Excluded from checkpoint fingerprints only at its default.
    backend: str = "numpy"
    #: Serializable noise-model payload (``NoiseModel.from_dict``
    #: vocabulary).  When set, trajectories run on the batched
    #: Pauli-transfer engine and gradients route through the shift-rule
    #: family (adjoint sweeps have no non-unitary analogue).  Trivial
    #: payloads normalize to ``None`` — the noiseless fast path executes
    #: them exactly and the checkpoint fingerprints stay aligned.
    noise: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        check_positive_int(self.num_qubits, "num_qubits")
        check_positive_int(self.num_layers, "num_layers")
        check_positive_int(self.iterations, "iterations")
        resolve_optimizer_name(self.optimizer)
        # Gate names are stored upper-case, so spellings of one circuit
        # share a fingerprint.
        self.rotation_gates = check_rotation_gates(
            self.rotation_gates, "rotation_gates"
        )
        check_in_choices(self.entanglement, ENTANGLEMENT_PATTERNS, "entanglement")
        self.entangler = check_entangler(self.entangler)
        check_cost_kind(self.cost_kind)
        check_in_choices(self.gradient_engine, GRADIENT_ENGINES, "gradient_engine")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.shots is not None:
            check_positive_int(self.shots, "shots")
        check_array_backend_name(self.backend)
        if self.noise is not None:
            model = NoiseModel.from_dict(dict(self.noise))
            self.noise = None if model.is_trivial else model.to_dict()
        check_register_fits(self.num_qubits, noisy=self.noise is not None)

    def build_ansatz(self) -> HardwareEfficientAnsatz:
        """The Eq. 3 ansatz for this configuration."""
        return HardwareEfficientAnsatz(
            num_qubits=self.num_qubits,
            num_layers=self.num_layers,
            rotation_gates=self.rotation_gates,
            entanglement=self.entanglement,
            entangler=self.entangler,
        )

    def build_optimizer(self) -> Optimizer:
        """A fresh optimizer instance with the configured step size."""
        kwargs = dict(self.optimizer_kwargs)
        kwargs.setdefault("learning_rate", self.learning_rate)
        return get_optimizer(self.optimizer, **kwargs)


class Trainer:
    """Runs training cycles for one configuration, one method at a time."""

    def __init__(
        self,
        config: Optional[TrainingConfig] = None,
        simulator: Optional[StatevectorSimulator] = None,
    ):
        self.config = config or TrainingConfig()
        noise_model = resolve_noise_model(self.config.noise)
        gradient_engine = self.config.gradient_engine
        if simulator is not None:
            self.simulator = simulator
        elif noise_model is not None:
            self.simulator = PauliTransferSimulator(
                noise_model, backend=self.config.backend
            )
        else:
            self.simulator = StatevectorSimulator(backend=self.config.backend)
        if noise_model is not None and gradient_engine in (
            "adjoint",
            "batch_adjoint",
        ):
            # Adjoint differentiation assumes unitary evolution; noisy
            # runs fall back to the shift family, mirroring the
            # documented shots= behaviour of ObservableCost.gradient.
            gradient_engine = "parameter_shift"
        self._ansatz = self.config.build_ansatz()
        self._circuit = self._ansatz.build()
        self._cost = make_cost(
            self.config.cost_kind,
            self._circuit,
            gradient_engine=gradient_engine,
            simulator=self.simulator,
        )

    @property
    def cost(self) -> ObservableCost:
        """The cost function being minimized."""
        return self._cost

    @property
    def num_parameters(self) -> int:
        """Trainable parameter count (100 for the paper's configuration)."""
        return self._circuit.num_parameters

    def initial_parameters(
        self, method: "str | Initializer", seed: SeedLike = None, **method_kwargs
    ) -> np.ndarray:
        """Sample initial angles for the ansatz from a named method."""
        initializer = (
            method
            if isinstance(method, Initializer)
            else get_initializer(method, **method_kwargs)
        )
        return initializer.sample(self._ansatz.parameter_shape, seed)

    def run(
        self,
        method: "str | Initializer",
        seed: SeedLike = None,
        callback: Optional[Callable[[int, float, np.ndarray], None]] = None,
        initial_params: Optional[np.ndarray] = None,
        sample_seed: SeedLike = None,
    ) -> TrainingHistory:
        """Train from one initialization draw: a one-row :meth:`run_lockstep`.

        Parameters
        ----------
        method:
            Initializer name or instance (names the resulting history).
        seed:
            Seed for the initial parameter draw.
        callback:
            Optional hook ``callback(iteration, loss, params)`` invoked
            after every update (and once at iteration 0).
        initial_params:
            Explicit starting point overriding the initializer draw.
        sample_seed:
            Shot-based runs (``config.shots``) only: seeds the
            trajectory's measurement stream, consumed in iteration order
            (value estimate first, then shift terms).
        """
        if sample_seed is not None and self.config.shots is None:
            raise ValueError("sample_seed requires config.shots to be set")
        row_callback = None
        if callback is not None:

            def row_callback(iteration, losses, params):
                callback(iteration, float(losses[0]), params[0])

        (history,) = self.run_lockstep(
            [method],
            seeds=[seed],
            initial_params=(
                None
                if initial_params is None
                else np.asarray(initial_params, dtype=float)[None]
            ),
            callback=row_callback,
            sample_seeds=None if sample_seed is None else [sample_seed],
        )
        return history

    def run_lockstep(
        self,
        methods: Sequence["str | Initializer"],
        seeds: Optional[Sequence[SeedLike]] = None,
        initial_params: Optional[np.ndarray] = None,
        callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
        labels: Optional[Sequence[str]] = None,
        sample_seeds: Optional[Sequence[SeedLike]] = None,
    ) -> List[TrainingHistory]:
        """Train ``B`` trajectories simultaneously, one batched pass each step.

        Every iteration runs one :meth:`ObservableCost.value_and_gradient_batch`
        over the ``(B, P)`` parameter stack and one batch-aware optimizer
        step with per-trajectory state, instead of ``B`` independent
        sweeps.  Rows never mix, so trajectory ``b``'s history is
        bit-identical to ``self.run(methods[b], seed=seeds[b])``, its
        one-row call; shot-based configurations keep the property, each
        trajectory consuming its own measurement stream
        (``sample_seeds[b]``).

        Parameters
        ----------
        methods:
            One initializer name/instance per trajectory (duplicates are
            fine, e.g. for multi-restart studies).
        seeds:
            Per-trajectory seeds for the initial draws (default: fresh
            entropy per trajectory), aligned with ``methods``.
        initial_params:
            Explicit ``(B, P)`` starting stack overriding the draws.
        callback:
            Optional hook ``callback(iteration, losses, params)`` invoked
            with the full ``(B,)`` loss vector and ``(B, P)`` stack after
            every update (and once at iteration 0).
        labels:
            History names, defaulting to each method's name; pass explicit
            labels to distinguish restarts of the same method.
        sample_seeds:
            Shot-based runs (``config.shots``) only: one measurement-
            stream seed per trajectory (default: fresh entropy each).
        """
        method_list = list(methods)
        if not method_list:
            raise ValueError("run_lockstep needs at least one trajectory")
        batch = len(method_list)
        if labels is None:
            labels = [
                m if isinstance(m, str) else m.name for m in method_list
            ]
        elif len(labels) != batch:
            raise ValueError(
                f"got {len(labels)} labels for {batch} trajectories"
            )
        shots = self.config.shots
        if sample_seeds is not None and shots is None:
            raise ValueError("sample_seeds requires config.shots to be set")
        sample_rngs: Optional[List[np.random.Generator]] = None
        if shots is not None:
            if sample_seeds is None:
                sample_seeds = [None] * batch
            elif len(sample_seeds) != batch:
                raise ValueError(
                    f"got {len(sample_seeds)} sample_seeds for {batch} "
                    "trajectories"
                )
            sample_rngs = [ensure_rng(s) for s in sample_seeds]
        if initial_params is None:
            if seeds is None:
                seeds = [None] * batch
            if len(seeds) != batch:
                raise ValueError(
                    f"got {len(seeds)} seeds for {batch} trajectories"
                )
            params = np.stack(
                [
                    self.initial_parameters(method, seed)
                    for method, seed in zip(method_list, seeds)
                ]
            )
        else:
            params = np.asarray(initial_params, dtype=float).copy()
            if params.shape != (batch, self.num_parameters):
                raise ValueError(
                    f"initial_params must have shape "
                    f"({batch}, {self.num_parameters}), got {params.shape}"
                )
        optimizer = self.config.build_optimizer()
        initial = params.copy()

        losses: List[List[float]] = [[] for _ in range(batch)]
        grad_norms: List[List[float]] = [[] for _ in range(batch)]
        for iteration in range(self.config.iterations + 1):
            if iteration:
                params = optimizer.step(params, grads)
            values, grads = self._cost.value_and_gradient_batch(
                params, shots=shots, seed=sample_rngs
            )
            for b in range(batch):
                losses[b].append(float(values[b]))
                grad_norms[b].append(float(np.linalg.norm(grads[b])))
            if callback is not None:
                callback(iteration, values, params)
        return [
            TrainingHistory(
                method=labels[b],
                optimizer=self.config.optimizer,
                losses=losses[b],
                gradient_norms=grad_norms[b],
                initial_params=initial[b].copy(),
                final_params=params[b].copy(),
                cost_kind=self.config.cost_kind,
            )
            for b in range(batch)
        ]


def train(
    config: Optional[TrainingConfig] = None,
    method: str = "xavier_normal",
    seed: SeedLike = None,
) -> TrainingHistory:
    """One-call training run (convenience wrapper around :class:`Trainer`)."""
    return Trainer(config).run(method, seed=seed)


def expand_trajectories(
    methods: Sequence["str | Initializer"], restarts: int = 1
) -> Tuple[List[str], List["str | Initializer"]]:
    """Expand methods into per-trajectory ``(labels, methods)`` lists.

    With ``restarts == 1`` labels are the method names themselves (the
    historical single-restart layout); with more, each method contributes
    ``restarts`` trajectories labelled ``"<method>#r<k>"`` — the layout
    shared by lock-step and per-trajectory units, so their child-seed
    streams line up trajectory for trajectory.
    """
    check_positive_int(restarts, "restarts")
    names = [m if isinstance(m, str) else m.name for m in methods]
    if restarts == 1:
        return list(names), list(methods)
    labels = [
        f"{name}#r{restart}" for name in names for restart in range(restarts)
    ]
    expanded = [method for method in methods for _ in range(restarts)]
    return labels, expanded


def _split_trajectory_seeds(seeds: Sequence[SeedLike], shots: Optional[int]):
    """Per-trajectory ``(init_seeds, sample_seeds)`` lists from child seeds.

    Analytic trajectories consume each child directly for the initial
    draw (the historical single-stream layout, kept bit-stable) and
    ``sample_seeds`` is ``None``; shot-based trajectories split each
    child into an initialization seed and an independent measurement-
    stream seed.  Every training call site derives its streams here,
    which is what makes shot-based results identical across executors.
    """
    if shots is None:
        return [ensure_rng(seed) for seed in seeds], None
    pairs = [spawn_seeds(seed, 2) for seed in seeds]
    return [init for init, _ in pairs], [sample for _, sample in pairs]


def run_training_unit(
    config: TrainingConfig, method: str, seed: SeedLike
) -> dict:
    """Picklable work unit: train one method, return its history as a dict."""
    return run_labelled_training_unit(config, method, method, seed)


def run_labelled_training_unit(
    config: TrainingConfig, method: str, label: str, seed: SeedLike
) -> dict:
    """Picklable work unit: train one trajectory, its history named ``label``.

    The one-trajectory call of :func:`run_lockstep_training_unit`, which
    ``serial`` and the pool executors schedule once per ``(method,
    restart)`` pair; the dict round-trips through shard checkpoints and
    rehydrates via :meth:`TrainingHistory.from_dict`.
    """
    (payload,) = run_lockstep_training_unit(config, [method], [label], [seed])
    return payload


def run_lockstep_training_unit(
    config: TrainingConfig,
    methods: Sequence[str],
    labels: Sequence[str],
    seeds: Sequence[SeedLike],
) -> List[dict]:
    """Picklable work unit advancing every trajectory in lock step.

    One unit covers the whole panel; outputs are the per-trajectory
    history dicts in trajectory order, each equal to that trajectory's
    :func:`run_labelled_training_unit` output.
    """
    init_seeds, sample_seeds = _split_trajectory_seeds(seeds, config.shots)
    histories = Trainer(config).run_lockstep(
        list(methods),
        seeds=init_seeds,
        labels=list(labels),
        sample_seeds=sample_seeds,
    )
    return [history.to_dict() for history in histories]


def train_all_methods(
    config: Optional[TrainingConfig] = None,
    methods: Sequence[str] = tuple(PAPER_METHODS),
    seed: SeedLike = None,
    verbose: bool = False,
    restarts: int = 1,
) -> Dict[str, TrainingHistory]:
    """Train every method on the same configuration (one Fig. 5b/5c panel).

    Each trajectory receives an independent child seed derived from
    ``seed`` (shot-based panels split it into an initialization and a
    measurement stream), so the comparison is reproducible end to end;
    all trajectories advance together through :meth:`Trainer.run_lockstep`.

    Parameters
    ----------
    config, methods, seed:
        The panel to train (defaults: paper configuration and methods).
    verbose:
        Print one summary line per trajectory.
    restarts:
        Independent restarts per method (``(method, restart)`` pairs,
        labelled ``"<method>#r<k>"`` when greater than one).
    """
    trainer = Trainer(config)
    config = trainer.config
    labels, trajectory_methods = expand_trajectories(methods, restarts)
    init_seeds, sample_seeds = _split_trajectory_seeds(
        spawn_seeds(seed, len(labels)), config.shots
    )
    results = trainer.run_lockstep(
        trajectory_methods,
        seeds=init_seeds,
        labels=labels,
        sample_seeds=sample_seeds,
    )
    histories: Dict[str, TrainingHistory] = dict(zip(labels, results))
    if verbose:
        for label, history in histories.items():
            print(
                f"[train:{trainer.config.optimizer}] {label}: "
                f"{history.initial_loss:.4f} -> {history.final_loss:.4f}"
            )
    return histories
