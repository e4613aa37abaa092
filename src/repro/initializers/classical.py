"""The classical initialization schemes studied by the paper (Section III).

Each scheme is transcribed from its original definition with the fan
convention made explicit (see :mod:`repro.initializers.base`):

=================  =======================================================
Scheme             Distribution of each angle
=================  =======================================================
Random             ``U(0, 2*pi)`` — the barren-plateau-inducing baseline
Xavier normal      ``N(0, 2 / (fan_in + fan_out))``
Xavier uniform     ``U(-a, a)`` with ``a = sqrt(6 / (fan_in + fan_out))``
He normal          ``N(0, 2 / fan_in)``
He uniform         ``U(-a, a)`` with ``a = sqrt(6 / fan_in)``
LeCun normal       ``N(0, 1 / fan_in)``
LeCun uniform      ``U(-a, a)`` with ``a = 1 / sqrt(fan_in)`` (paper's form)
=================  =======================================================

Generic ``Normal``/``Uniform``/``Zeros``/``Constant`` initializers round
out the set for controls and ablations.
"""

from __future__ import annotations

import numpy as np

from repro.initializers.base import FanMode, Initializer, ParameterShape

__all__ = [
    "RandomUniform",
    "XavierNormal",
    "XavierUniform",
    "HeNormal",
    "HeUniform",
    "LeCunNormal",
    "LeCunUniform",
    "Normal",
    "Uniform",
    "Zeros",
    "Constant",
]


class RandomUniform(Initializer):
    """Angles uniform on ``[low, high)`` — the paper's "random" baseline.

    The default range ``[0, 2*pi)`` scrambles the circuit into an
    approximate unitary 2-design, the regime where McClean et al. proved
    gradients concentrate exponentially (the barren plateau).
    """

    name = "random"

    def __init__(self, low: float = 0.0, high: float = 2.0 * np.pi):
        super().__init__()
        if not high > low:
            raise ValueError(f"require high > low, got [{low}, {high})")
        self.low = float(low)
        self.high = float(high)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return rng.uniform(
            self.low, self.high, size=(count, shape.params_per_layer)
        )


class _ScaledNormal(Initializer):
    """Base for zero-mean Gaussian schemes with a fan-derived variance."""

    def _variance(self, fan_in: int, fan_out: int) -> float:
        raise NotImplementedError

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        fan_in, fan_out = shape.fans(self.fan_mode)
        stddev = np.sqrt(self._variance(fan_in, fan_out))
        return rng.normal(0.0, stddev, size=(count, shape.params_per_layer))


class _ScaledUniform(Initializer):
    """Base for symmetric uniform schemes with a fan-derived limit."""

    def _limit(self, fan_in: int, fan_out: int) -> float:
        raise NotImplementedError

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        fan_in, fan_out = shape.fans(self.fan_mode)
        limit = self._limit(fan_in, fan_out)
        return rng.uniform(-limit, limit, size=(count, shape.params_per_layer))


class XavierNormal(_ScaledNormal):
    """Glorot & Bengio (2010), normal variant: ``Var = 2/(fan_in+fan_out)``."""

    name = "xavier_normal"

    def _variance(self, fan_in: int, fan_out: int) -> float:
        return 2.0 / (fan_in + fan_out)


class XavierUniform(_ScaledUniform):
    """Glorot & Bengio (2010), uniform variant: ``a = sqrt(6/(fan_in+fan_out))``."""

    name = "xavier_uniform"

    def _limit(self, fan_in: int, fan_out: int) -> float:
        return np.sqrt(6.0 / (fan_in + fan_out))


class HeNormal(_ScaledNormal):
    """He et al. (2015): ``Var = 2/fan_in`` (the paper's "He")."""

    name = "he_normal"

    def _variance(self, fan_in: int, fan_out: int) -> float:
        return 2.0 / fan_in


class HeUniform(_ScaledUniform):
    """He et al. (2015), uniform variant: ``a = sqrt(6/fan_in)``."""

    name = "he_uniform"

    def _limit(self, fan_in: int, fan_out: int) -> float:
        return np.sqrt(6.0 / fan_in)


class LeCunNormal(_ScaledNormal):
    """LeCun et al. (1998/2012): ``Var = 1/fan_in`` (the paper's "LeCun")."""

    name = "lecun_normal"

    def _variance(self, fan_in: int, fan_out: int) -> float:
        return 1.0 / fan_in


class LeCunUniform(_ScaledUniform):
    """LeCun uniform as stated in the paper: ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``."""

    name = "lecun_uniform"

    def _limit(self, fan_in: int, fan_out: int) -> float:
        return 1.0 / np.sqrt(fan_in)


class Normal(Initializer):
    """Generic zero-mean Gaussian with a fixed standard deviation."""

    name = "normal"

    def __init__(self, stddev: float = 0.1):
        super().__init__()
        if stddev < 0:
            raise ValueError(f"stddev must be non-negative, got {stddev}")
        self.stddev = float(stddev)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return rng.normal(
            0.0, self.stddev, size=(count, shape.params_per_layer)
        )


class Uniform(Initializer):
    """Generic uniform initializer on an arbitrary interval."""

    name = "uniform"

    def __init__(self, low: float = -0.1, high: float = 0.1):
        super().__init__()
        if not high > low:
            raise ValueError(f"require high > low, got [{low}, {high})")
        self.low = float(low)
        self.high = float(high)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return rng.uniform(
            self.low, self.high, size=(count, shape.params_per_layer)
        )


class Zeros(Initializer):
    """All angles zero — the circuit is exactly the identity map."""

    name = "zeros"

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return np.zeros((count, shape.params_per_layer))


class Constant(Initializer):
    """Every angle set to the same constant."""

    name = "constant"

    def __init__(self, value: float):
        super().__init__()
        self.value = float(value)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return np.full((count, shape.params_per_layer), self.value)
