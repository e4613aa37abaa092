"""Beta-distribution initialization (BeInit, Kulshrestha & Safro 2022).

The paper's related-work section (II-e) discusses BeInit as a prior
mitigation strategy; we implement it as an additional initializer so the
mitigation benches can compare it against the classical schemes.

Angles are drawn as ``theta = scale * B`` with ``B ~ Beta(alpha, beta)``.
:meth:`BetaInitializer.from_moments` performs the "data-driven
hyperparameter estimation" step: given a target mean and variance of the
(scaled) angles it inverts the Beta moment equations

    mean = alpha / (alpha + beta)
    var  = alpha * beta / ((alpha + beta)^2 (alpha + beta + 1))

to recover ``alpha``/``beta`` via the method of moments.
"""

from __future__ import annotations

import numpy as np

from repro.initializers.base import Initializer, ParameterShape

__all__ = ["BetaInitializer"]


class BetaInitializer(Initializer):
    """Angles ``scale * Beta(alpha, beta)``."""

    name = "beta"

    def __init__(
        self, alpha: float = 2.0, beta: float = 2.0, scale: float = 2.0 * np.pi
    ):
        super().__init__()
        if alpha <= 0 or beta <= 0:
            raise ValueError(
                f"alpha and beta must be positive, got alpha={alpha}, beta={beta}"
            )
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.scale = float(scale)

    @classmethod
    def from_moments(
        cls, mean: float, variance: float, scale: float = 2.0 * np.pi
    ) -> "BetaInitializer":
        """Method-of-moments fit of ``alpha``/``beta``.

        Parameters
        ----------
        mean, variance:
            Target mean and variance of the *unscaled* Beta variable; the
            mean must lie in (0, 1) and the variance below
            ``mean * (1 - mean)`` for a valid Beta distribution.
        scale:
            Multiplier applied to the Beta draws.
        """
        if not 0.0 < mean < 1.0:
            raise ValueError(f"mean must be in (0, 1), got {mean}")
        bound = mean * (1.0 - mean)
        if not 0.0 < variance < bound:
            raise ValueError(
                f"variance must be in (0, {bound:.6g}) for mean={mean}, "
                f"got {variance}"
            )
        common = mean * (1.0 - mean) / variance - 1.0
        return cls(alpha=mean * common, beta=(1.0 - mean) * common, scale=scale)

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, scale: float = 2.0 * np.pi
    ) -> "BetaInitializer":
        """Fit ``alpha``/``beta`` to observed angles (divided by ``scale``)."""
        normalized = np.asarray(samples, dtype=float) / scale
        return cls.from_moments(
            float(np.mean(normalized)), float(np.var(normalized)), scale=scale
        )

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        return self.scale * rng.beta(
            self.alpha, self.beta, size=(count, shape.params_per_layer)
        )
