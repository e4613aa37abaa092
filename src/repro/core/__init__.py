"""The paper's experiment engines: cost functions, variance analysis,
decay-rate fits, training loops, and paper-level runners.

Experiments are described declaratively by :class:`ExperimentSpec` and
executed by :func:`repro.core.spec.run` (exported as ``repro.run``)
through a pluggable executor registry (serial / lockstep / process-pool);
see :mod:`repro.core.spec` for the quickstart."""

from repro.core.cost import (
    ObservableCost,
    global_identity_cost,
    local_identity_cost,
    make_cost,
    state_learning_cost,
)
from repro.core.decay import (
    fit_all_methods,
    fit_decay_rate,
    improvement_over_random,
    rank_methods,
)
from repro.core.profile import (
    GradientProfile,
    ProfileConfig,
    gradient_profile,
    profile_all_methods,
)
from repro.core.executor import (
    Executor,
    LockstepExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    ShardCheckpoint,
    WorkUnit,
    available_executors,
    get_executor,
    register_executor,
)
from repro.core.experiments import (
    FullReproductionOutcome,
    TrainingExperimentOutcome,
    VarianceExperimentOutcome,
    run_full_reproduction,
    run_training_experiment,
    run_variance_experiment,
    variance_outcome_from_result,
)
from repro.core.spec import ExperimentSpec, run
from repro.core.results import (
    DecayFit,
    GradientSamples,
    TrainingHistory,
    VarianceResult,
)
from repro.core.sweep import improvement_series, sweep_variance
from repro.core.training import (
    Trainer,
    TrainingConfig,
    expand_trajectories,
    train,
    train_all_methods,
)
from repro.core.variance import VarianceAnalysis, VarianceConfig

__all__ = [
    "DecayFit",
    "Executor",
    "LockstepExecutor",
    "ExperimentSpec",
    "FullReproductionOutcome",
    "GradientProfile",
    "GradientSamples",
    "ObservableCost",
    "ProcessPoolExecutor",
    "ProfileConfig",
    "SerialExecutor",
    "ShardCheckpoint",
    "WorkUnit",
    "available_executors",
    "get_executor",
    "gradient_profile",
    "profile_all_methods",
    "register_executor",
    "run",
    "Trainer",
    "TrainingConfig",
    "TrainingExperimentOutcome",
    "TrainingHistory",
    "VarianceAnalysis",
    "VarianceConfig",
    "VarianceExperimentOutcome",
    "VarianceResult",
    "fit_all_methods",
    "fit_decay_rate",
    "global_identity_cost",
    "improvement_over_random",
    "improvement_series",
    "local_identity_cost",
    "make_cost",
    "sweep_variance",
    "rank_methods",
    "run_full_reproduction",
    "run_training_experiment",
    "run_variance_experiment",
    "state_learning_cost",
    "train",
    "train_all_methods",
    "expand_trajectories",
    "variance_outcome_from_result",
]
