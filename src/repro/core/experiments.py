"""Paper-level experiment runners.

These compose the engines into one call per paper artifact:

* :func:`run_variance_experiment` — Fig. 5a plus the Section VI-A
  improvement percentages;
* :func:`run_training_experiment` — one panel of Fig. 5b (gradient
  descent) or Fig. 5c (Adam);
* :func:`run_full_reproduction` — everything, returning a single
  serializable summary.

``run_variance_experiment`` and ``run_training_experiment`` are kept as
deprecation shims: their signatures and seeded outputs are frozen, but
internally they route through :class:`repro.core.spec.ExperimentSpec` and
the executor registry.  New code should build a spec and call
:func:`repro.run` directly — that path adds worker sharding and
checkpoint/resume for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.decay import fit_all_methods, improvement_over_random, rank_methods
from repro.core.results import DecayFit, TrainingHistory, VarianceResult
from repro.core.spec import ExperimentSpec, run
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig
from repro.initializers.registry import PAPER_METHODS
from repro.utils.rng import SeedLike, ensure_rng, spawn_rng

__all__ = [
    "VarianceExperimentOutcome",
    "TrainingExperimentOutcome",
    "FullReproductionOutcome",
    "variance_outcome_from_result",
    "run_variance_experiment",
    "run_training_experiment",
    "run_full_reproduction",
]


@dataclass
class VarianceExperimentOutcome:
    """Variance result + decay fits + improvement table (Fig. 5a, E2/E3)."""

    result: VarianceResult
    fits: Dict[str, DecayFit]
    improvements: Dict[str, float]
    ranking: List[str]

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "fits": {m: f.to_dict() for m, f in self.fits.items()},
            "improvements": dict(self.improvements),
            "ranking": list(self.ranking),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VarianceExperimentOutcome":
        return cls(
            result=VarianceResult.from_dict(payload["result"]),
            fits={
                m: DecayFit.from_dict(f) for m, f in payload["fits"].items()
            },
            improvements={
                m: float(v) for m, v in payload["improvements"].items()
            },
            ranking=[str(m) for m in payload["ranking"]],
        )


@dataclass
class TrainingExperimentOutcome:
    """Per-method training histories (one Fig. 5b/5c panel, E4/E5)."""

    optimizer: str
    histories: Dict[str, TrainingHistory]

    def final_losses(self) -> Dict[str, float]:
        """Final loss per method."""
        return {m: h.final_loss for m, h in self.histories.items()}

    def ranking(self) -> List[str]:
        """Methods ordered by final loss, best first."""
        return sorted(self.histories, key=lambda m: self.histories[m].final_loss)

    def to_dict(self) -> dict:
        return {
            "optimizer": self.optimizer,
            "histories": {m: h.to_dict() for m, h in self.histories.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingExperimentOutcome":
        return cls(
            optimizer=str(payload["optimizer"]),
            histories={
                m: TrainingHistory.from_dict(h)
                for m, h in payload["histories"].items()
            },
        )


@dataclass
class FullReproductionOutcome:
    """All paper artifacts from one seeded run."""

    variance: VarianceExperimentOutcome
    training: Dict[str, TrainingExperimentOutcome] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "variance": self.variance.to_dict(),
            "training": {k: t.to_dict() for k, t in self.training.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FullReproductionOutcome":
        return cls(
            variance=VarianceExperimentOutcome.from_dict(payload["variance"]),
            training={
                k: TrainingExperimentOutcome.from_dict(t)
                for k, t in payload["training"].items()
            },
        )


def variance_outcome_from_result(
    result: VarianceResult,
) -> VarianceExperimentOutcome:
    """Derive the paper's headline metrics from a raw variance result.

    A decay fit needs at least two distinct widths.  A one-width run is
    still data: its outcome has the variances and empty ``fits``,
    ``improvements`` and ``ranking``.
    """
    fits = fit_all_methods(result) if len(set(result.qubit_counts)) > 1 else {}
    # The improvement table needs a positive random-baseline decay rate;
    # degenerate (tiny/noisy) runs fall back to an empty table rather than
    # failing the whole experiment.
    if "random" in fits and fits["random"].rate > 0:
        improvements = improvement_over_random(fits)
    else:
        improvements = {}
    return VarianceExperimentOutcome(
        result=result,
        fits=fits,
        improvements=improvements,
        ranking=rank_methods(fits),
    )


def run_variance_experiment(
    config: Optional[VarianceConfig] = None,
    seed: SeedLike = None,
    verbose: bool = False,
) -> VarianceExperimentOutcome:
    """Run the variance study and derive the paper's headline metrics.

    .. deprecated:: 1.1
        Thin shim over ``repro.run(ExperimentSpec(kind="variance", ...))``;
        the spec path additionally offers multi-process sharding and
        checkpoint/resume.  Seeded outputs are frozen.
    """
    return run(
        ExperimentSpec(kind="variance", config=config, seed=seed),
        verbose=verbose,
    )


def run_training_experiment(
    config: Optional[TrainingConfig] = None,
    methods: Sequence[str] = tuple(PAPER_METHODS),
    seed: SeedLike = None,
    verbose: bool = False,
) -> TrainingExperimentOutcome:
    """Train every method under one optimizer configuration.

    .. deprecated:: 1.1
        Thin shim over ``repro.run(ExperimentSpec(kind="training", ...))``;
        signature and seeded outputs are frozen.
    """
    return run(
        ExperimentSpec(
            kind="training", config=config, seed=seed, methods=tuple(methods)
        ),
        verbose=verbose,
    )


def run_full_reproduction(
    variance_config: Optional[VarianceConfig] = None,
    training_config: Optional[TrainingConfig] = None,
    optimizers: Sequence[str] = ("gradient_descent", "adam"),
    seed: SeedLike = None,
    verbose: bool = False,
) -> FullReproductionOutcome:
    """Run Fig. 5a + Fig. 5b + Fig. 5c end to end from one master seed."""
    rng = ensure_rng(seed)
    variance = run_variance_experiment(
        variance_config, seed=spawn_rng(rng), verbose=verbose
    )
    base = training_config or TrainingConfig()
    training: Dict[str, TrainingExperimentOutcome] = {}
    for optimizer in optimizers:
        config = TrainingConfig(
            num_qubits=base.num_qubits,
            num_layers=base.num_layers,
            iterations=base.iterations,
            optimizer=optimizer,
            learning_rate=base.learning_rate,
            cost_kind=base.cost_kind,
            gradient_engine=base.gradient_engine,
            rotation_gates=base.rotation_gates,
            entanglement=base.entanglement,
            entangler=base.entangler,
        )
        training[optimizer] = run_training_experiment(
            config, seed=spawn_rng(rng), verbose=verbose
        )
    return FullReproductionOutcome(variance=variance, training=training)
