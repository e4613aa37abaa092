"""Warm-start initialization: reuse trained parameters in a deeper circuit.

The natural bridge between the paper's random-initializer study and
layer-wise training: when a circuit grows (more layers), copy the trained
angles into the matching leading layers and draw only the *new* layers
from a base initializer.  Because all ansatz templates share the
layer-major parameter ordering, a shallower circuit's parameter vector is
exactly a prefix of the deeper one's.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.initializers.base import Initializer, ParameterShape
from repro.initializers.classical import Zeros

__all__ = ["WarmStart"]


class WarmStart(Initializer):
    """Copy trained angles into the leading slots; sample the rest.

    Parameters
    ----------
    trained_params:
        Flat parameter vector from the smaller/shallower circuit.  Its
        length must divide evenly into whole layers of the target shape
        when sampled.
    fill:
        Initializer for the remaining (new) layers; defaults to
        :class:`Zeros`, which makes every new layer start as the identity
        — the gentlest continuation.
    """

    name = "warm_start"

    def __init__(
        self,
        trained_params: Sequence[float],
        fill: Optional[Initializer] = None,
    ):
        super().__init__()
        self.trained_params = np.asarray(trained_params, dtype=float).reshape(-1)
        if self.trained_params.size == 0:
            raise ValueError("trained_params must be non-empty")
        if not np.all(np.isfinite(self.trained_params)):
            raise ValueError("trained_params contain NaN or infinity")
        self.fill = fill or Zeros()

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """The first ``count`` layers: whole trained layers, then one
        :meth:`Initializer.sample_layers` draw of the fill for the rest."""
        size = shape.params_per_layer
        trained, left = divmod(self.trained_params.size, size)
        if left:
            raise ValueError(
                "trained_params length is not a whole number of target "
                f"layers: layer needs {size} angles, found {left} left"
            )
        trained = min(trained, count)
        layers = [self.trained_params[: trained * size].reshape(trained, size)]
        if trained < count:
            layers.append(self.fill.sample_layers(shape, rng, count - trained))
        return np.concatenate(layers)

    def sample(self, shape: ParameterShape, seed=None) -> np.ndarray:
        """Draw the full vector; ``trained_params`` must fit the circuit."""
        if self.trained_params.size > shape.num_parameters:
            raise ValueError(
                f"trained_params has {self.trained_params.size} angles but "
                f"the target circuit only has {shape.num_parameters}"
            )
        return super().sample(shape, seed)
