"""Generic variance-scaling initializers (the Keras/TF formulation).

``VarianceScaling(scale, mode, distribution)`` draws angles with variance
``scale / fan`` where ``fan`` is chosen by ``mode``:

=============  =====================================
mode           fan
=============  =====================================
``fan_in``     layer fan-in
``fan_out``    layer fan-out
``fan_avg``    ``(fan_in + fan_out) / 2``
=============  =====================================

The paper's schemes are special cases — recoverable via
:func:`variance_scaling_equivalent`:

* Xavier normal  = ``VarianceScaling(1.0, "fan_avg", "normal")``
* He normal      = ``VarianceScaling(2.0, "fan_in", "normal")``
* LeCun normal   = ``VarianceScaling(1.0, "fan_in", "normal")``

Having the general family makes the sweep over ``scale`` possible: the
barren-plateau onset is controlled by the *product* of scale and depth
(see ``bench_ablation_depth``), and intermediate scales interpolate
between LeCun and He behaviour.

``TruncatedNormal`` additionally resamples draws beyond two standard
deviations — the default weight init of several DL frameworks — so its
tails never produce outlier angles.
"""

from __future__ import annotations

import numpy as np

from repro.initializers.base import FanMode, Initializer, ParameterShape
from repro.utils.validation import check_in_choices

__all__ = ["VarianceScaling", "TruncatedNormal", "variance_scaling_equivalent"]

_MODES = ("fan_in", "fan_out", "fan_avg")
_DISTRIBUTIONS = ("normal", "uniform", "truncated_normal")

#: Variance correction for a standard normal truncated at +-2 sigma.
_TRUNC_STD_FACTOR = 0.879596566170685


class VarianceScaling(Initializer):
    """Angles with variance ``scale / fan`` under a chosen distribution.

    Parameters
    ----------
    scale:
        Positive variance numerator.
    mode:
        ``"fan_in"``, ``"fan_out"`` or ``"fan_avg"``.
    distribution:
        ``"normal"``, ``"uniform"`` (symmetric, matched variance) or
        ``"truncated_normal"`` (resampled at two sigma, variance matched).
    fan_mode:
        How circuit shape maps to fans (see :class:`FanMode`).
    """

    name = "variance_scaling"

    def __init__(
        self,
        scale: float = 1.0,
        mode: str = "fan_in",
        distribution: str = "normal",
        fan_mode: FanMode = FanMode.QUBITS,
    ):
        super().__init__(fan_mode)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = float(scale)
        self.mode = check_in_choices(mode, _MODES, "mode")
        self.distribution = check_in_choices(
            distribution, _DISTRIBUTIONS, "distribution"
        )

    def _fan(self, shape: ParameterShape) -> float:
        fan_in, fan_out = shape.fans(self.fan_mode)
        if self.mode == "fan_in":
            return float(fan_in)
        if self.mode == "fan_out":
            return float(fan_out)
        return (fan_in + fan_out) / 2.0

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        variance = self.scale / self._fan(shape)
        size = shape.params_per_layer
        if self.distribution == "normal":
            return rng.normal(0.0, np.sqrt(variance), size=(count, size))
        if self.distribution == "uniform":
            limit = np.sqrt(3.0 * variance)
            return rng.uniform(-limit, limit, size=(count, size))
        # Truncated normal at +-2 sigma of the *pre-truncation* scale,
        # rescaled so the post-truncation variance equals ``variance``.
        stddev = np.sqrt(variance) / _TRUNC_STD_FACTOR
        return _sample_truncated_layers(rng, stddev, count, size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VarianceScaling(scale={self.scale}, mode={self.mode!r}, "
            f"distribution={self.distribution!r})"
        )


class TruncatedNormal(Initializer):
    """Zero-mean normal truncated at ``+-2 * stddev`` (resampling)."""

    name = "truncated_normal"

    def __init__(self, stddev: float = 0.1):
        super().__init__()
        if stddev < 0:
            raise ValueError(f"stddev must be non-negative, got {stddev}")
        self.stddev = float(stddev)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        if self.stddev == 0.0:
            return np.zeros((count, shape.params_per_layer))
        return _sample_truncated_layers(
            rng, self.stddev, count, shape.params_per_layer
        )


def _sample_truncated_layers(
    rng: np.random.Generator, stddev: float, count: int, size: int
) -> np.ndarray:
    """``count`` layers of :func:`_sample_truncated`, one at a time: a
    layer's resampling draws come before the next layer's draws, so one
    stacked draw would change the stream."""
    return np.stack([_sample_truncated(rng, stddev, size) for _ in range(count)])


def _sample_truncated(
    rng: np.random.Generator, stddev: float, size: int
) -> np.ndarray:
    """Draw ``N(0, stddev^2)`` resampling anything beyond two sigma."""
    out = rng.normal(0.0, stddev, size=size)
    bound = 2.0 * stddev
    bad = np.abs(out) > bound
    while np.any(bad):
        out[bad] = rng.normal(0.0, stddev, size=int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def variance_scaling_equivalent(name: str) -> VarianceScaling:
    """The ``VarianceScaling`` settings matching a classical scheme.

    Supported names: ``xavier_normal``, ``xavier_uniform``, ``he_normal``,
    ``he_uniform``, ``lecun_normal``.
    """
    table = {
        "xavier_normal": (1.0, "fan_avg", "normal"),
        "xavier_uniform": (1.0, "fan_avg", "uniform"),
        "he_normal": (2.0, "fan_in", "normal"),
        "he_uniform": (2.0, "fan_in", "uniform"),
        "lecun_normal": (1.0, "fan_in", "normal"),
    }
    try:
        scale, mode, distribution = table[name.lower()]
    except KeyError:
        raise ValueError(
            f"no variance-scaling equivalent for {name!r}; "
            f"choose from {sorted(table)}"
        ) from None
    return VarianceScaling(scale=scale, mode=mode, distribution=distribution)
