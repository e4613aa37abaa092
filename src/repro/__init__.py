"""Reproduction of "Alleviating Barren Plateaus in Parameterized Quantum
Machine Learning Circuits: Investigating Advanced Parameter Initialization
Strategies" (Kashif et al., DATE 2024, arXiv:2311.13218).

The library is organised bottom-up:

``repro.backend``
    Exact statevector simulator with parameter-shift / adjoint gradients —
    the substrate replacing PennyLane.
``repro.initializers``
    The paper's core contribution: classical DNN initialization schemes
    (Xavier, He, LeCun, orthogonal, ...) adapted to PQC rotation angles.
``repro.ansatz``
    Hardware-efficient ansatz variants used by the paper's two experiments.
``repro.core``
    Variance-decay and training-analysis experiment engines, cost
    functions, decay-rate fits, and paper-level experiment runners —
    driven declaratively via :class:`ExperimentSpec` and :func:`run`
    over pluggable executors (serial / lockstep / process-pool).
``repro.optim``
    Gradient-based optimizers (GD, Adam, ...) plus quantum natural gradient.
``repro.mitigation``
    Related-work barren-plateau mitigation baselines.
``repro.analysis``
    Landscape scans, statistics, analytic BP theory, ASCII reporting.
``repro.io``
    JSON persistence for experiment results.
``repro.service``
    Long-running experiment service: async job queue, the ``repro
    serve`` HTTP front end, and a content-addressed result cache.
"""

__version__ = "1.1.0"

from repro.ansatz import HardwareEfficientAnsatz, RandomPQC
from repro.backend import (
    QuantumCircuit,
    Statevector,
    StatevectorSimulator,
    adjoint_gradient,
    parameter_shift,
    zero_projector,
)
from repro.core import (
    ExperimentSpec,
    Trainer,
    TrainingConfig,
    VarianceAnalysis,
    VarianceConfig,
    available_executors,
    global_identity_cost,
    local_identity_cost,
    run,
    run_full_reproduction,
    run_training_experiment,
    run_variance_experiment,
    train_all_methods,
)
from repro.initializers import PAPER_METHODS, ParameterShape, get_initializer
from repro.utils import (
    available_array_backends,
    get_array_backend,
    register_array_backend,
)

__all__ = [
    "ExperimentSpec",
    "HardwareEfficientAnsatz",
    "PAPER_METHODS",
    "ParameterShape",
    "QuantumCircuit",
    "RandomPQC",
    "Statevector",
    "StatevectorSimulator",
    "Trainer",
    "TrainingConfig",
    "VarianceAnalysis",
    "VarianceConfig",
    "adjoint_gradient",
    "available_array_backends",
    "available_executors",
    "get_array_backend",
    "get_initializer",
    "register_array_backend",
    "global_identity_cost",
    "local_identity_cost",
    "parameter_shift",
    "run",
    "run_full_reproduction",
    "run_training_experiment",
    "run_variance_experiment",
    "train_all_methods",
    "zero_projector",
]
