"""Name-based lookup of initializers.

``PAPER_METHODS`` is the exact set the paper evaluates (Section IV-A,
"Parameter Initializations": random, Xavier normal, Xavier uniform, He,
LeCun, orthogonal); the registry also exposes the extensions used by the
ablation and mitigation benches.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.initializers.base import Initializer
from repro.initializers.beta import BetaInitializer
from repro.initializers.classical import (
    Constant,
    HeNormal,
    HeUniform,
    LeCunNormal,
    LeCunUniform,
    Normal,
    RandomUniform,
    Uniform,
    XavierNormal,
    XavierUniform,
    Zeros,
)
from repro.initializers.orthogonal import Orthogonal
from repro.initializers.variance_scaling import TruncatedNormal, VarianceScaling

__all__ = [
    "INITIALIZER_FACTORIES",
    "PAPER_METHODS",
    "get_initializer",
    "resolve_initializer_name",
    "available_initializers",
]

#: Factories keyed by registry name.  Call with keyword overrides.
INITIALIZER_FACTORIES: Dict[str, Callable[..., Initializer]] = {
    "random": RandomUniform,
    "xavier_normal": XavierNormal,
    "xavier_uniform": XavierUniform,
    "he_normal": HeNormal,
    "he_uniform": HeUniform,
    "lecun_normal": LeCunNormal,
    "lecun_uniform": LeCunUniform,
    "orthogonal": Orthogonal,
    "beta": BetaInitializer,
    "normal": Normal,
    "uniform": Uniform,
    "zeros": Zeros,
    "constant": Constant,
    "variance_scaling": VarianceScaling,
    "truncated_normal": TruncatedNormal,
}

_ALIASES = {
    "he": "he_normal",
    "lecun": "lecun_normal",
    "xavier": "xavier_normal",
    "glorot_normal": "xavier_normal",
    "glorot_uniform": "xavier_uniform",
}

#: The six methods of the paper's set T, in the paper's presentation order.
PAPER_METHODS: List[str] = [
    "random",
    "xavier_normal",
    "xavier_uniform",
    "he_normal",
    "lecun_normal",
    "orthogonal",
]


def get_initializer(name: str, **kwargs) -> Initializer:
    """Instantiate an initializer by registry name.

    Parameters
    ----------
    name:
        Registry name or alias (case-insensitive), e.g. ``"xavier_normal"``
        or ``"he"``.
    **kwargs:
        Forwarded to the initializer constructor (e.g. ``gain=`` for
        ``orthogonal``, ``fan_mode=`` for the fan-scaled schemes).
    """
    return INITIALIZER_FACTORIES[resolve_initializer_name(name)](**kwargs)


def resolve_initializer_name(name: str) -> str:
    """Canonical registry name of ``name`` (case-insensitive, aliases
    resolved); :class:`ValueError` when no initializer answers to it."""
    key = str(name).lower()
    key = _ALIASES.get(key, key)
    if key not in INITIALIZER_FACTORIES:
        raise ValueError(
            f"unknown initializer {name!r}; available: "
            f"{sorted(set(INITIALIZER_FACTORIES) | set(_ALIASES))}"
        )
    return key


def available_initializers() -> List[str]:
    """Sorted list of canonical registry names."""
    return sorted(INITIALIZER_FACTORIES)
