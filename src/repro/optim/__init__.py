"""Gradient-based optimizers.

The paper trains with :class:`GradientDescent` and :class:`Adam`
(step size 0.1, Section V); :class:`QuantumNaturalGradient` implements the
related-work baseline of Section II-b, and the rest support ablations.
"""

from typing import Callable, Dict, List

from repro.optim.base import Optimizer
from repro.optim.first_order import AdaGrad, Adam, GradientDescent, Momentum, RMSprop
from repro.optim.qng import (
    QuantumNaturalGradient,
    fubini_study_metric,
    state_jacobian,
)

__all__ = [
    "AdaGrad",
    "Adam",
    "GradientDescent",
    "Momentum",
    "OPTIMIZER_FACTORIES",
    "Optimizer",
    "QuantumNaturalGradient",
    "RMSprop",
    "available_optimizers",
    "fubini_study_metric",
    "get_optimizer",
    "resolve_optimizer_name",
    "state_jacobian",
]

#: Factories keyed by registry name (QNG is excluded: it needs a circuit).
OPTIMIZER_FACTORIES: Dict[str, Callable[..., Optimizer]] = {
    "gradient_descent": GradientDescent,
    "momentum": Momentum,
    "adam": Adam,
    "rmsprop": RMSprop,
    "adagrad": AdaGrad,
}

_ALIASES = {"gd": "gradient_descent", "sgd": "gradient_descent"}


def get_optimizer(name: str, **kwargs) -> Optimizer:
    """Instantiate an optimizer by registry name (e.g. ``"adam"``)."""
    return OPTIMIZER_FACTORIES[resolve_optimizer_name(name)](**kwargs)


def resolve_optimizer_name(name: str) -> str:
    """Canonical registry name of ``name`` (case-insensitive, aliases
    resolved); :class:`ValueError` when no optimizer answers to it."""
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    if key not in OPTIMIZER_FACTORIES:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {sorted(OPTIMIZER_FACTORIES)}"
        )
    return key


def available_optimizers() -> List[str]:
    """Sorted list of canonical optimizer names."""
    return sorted(OPTIMIZER_FACTORIES)
