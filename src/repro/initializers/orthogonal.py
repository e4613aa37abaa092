"""Orthogonal initialization (Section III-E of the paper).

For dense networks the scheme fills each layer's weight matrix with a
(semi-)orthogonal matrix obtained from the QR decomposition of a Gaussian
draw (Saxe et al., 2014; Hu, Xiao & Pennington, 2020).  For a PQC layer we
treat the per-layer angle tensor of shape ``(num_qubits, params_per_qubit)``
as that weight matrix, mirroring ``torch.nn.init.orthogonal_`` applied to
the parameter tensor:

1. draw ``A ~ N(0, 1)`` of shape ``(rows, cols)`` (transposed first when
   ``rows < cols`` so the QR factor is well defined);
2. compute the reduced QR decomposition ``A = QR``;
3. fix signs by multiplying ``Q`` columns with ``sign(diag(R))`` so the
   result is Haar-distributed;
4. scale by ``gain`` and flatten in row-major (qubit-major) order.

Entries of a Haar semi-orthogonal matrix have magnitude ``~1/sqrt(rows)``,
so like Xavier/He/LeCun the angles shrink with circuit width — the property
that keeps the circuit away from the 2-design regime.

:meth:`Orthogonal.sample_layers` draws every layer's matrix at once: one
``rng.normal`` call fills the ``(count, rows, cols)`` Gaussian stack in
the order per-layer draws would, and one stacked :func:`numpy.linalg.qr`
factors each matrix exactly as a per-matrix call does (a property of the
numpy/LAPACK build that ``tests/initializers/test_layer_stack_oracle.py``
asserts).
"""

from __future__ import annotations

import numpy as np

from repro.initializers.base import Initializer, ParameterShape

__all__ = ["Orthogonal", "haar_orthogonal_matrix"]


def _haar_orthogonal_stack(
    count: int, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` independent Haar ``rows x cols`` semi-orthogonal matrices."""
    transpose = rows < cols
    shape = (count, cols, rows) if transpose else (count, rows, cols)
    gaussian = rng.normal(size=shape)
    q, r = np.linalg.qr(gaussian)
    # Sign correction makes the distribution Haar (uniform) rather than
    # biased by the QR convention.
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return np.swapaxes(q, -2, -1) if transpose else q


def haar_orthogonal_matrix(
    rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a ``rows x cols`` semi-orthogonal matrix, Haar-distributed.

    If ``rows >= cols`` the columns are orthonormal; otherwise the rows are.
    """
    return _haar_orthogonal_stack(1, rows, cols, rng)[0]


class Orthogonal(Initializer):
    """Per-layer semi-orthogonal angle matrix scaled by ``gain``."""

    name = "orthogonal"

    def __init__(self, gain: float = 1.0):
        super().__init__()
        self.gain = float(gain)

    def sample_layers(
        self, shape: ParameterShape, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        rows = shape.num_qubits
        cols = shape.params_per_qubit
        matrices = _haar_orthogonal_stack(count, rows, cols, rng)
        return (self.gain * matrices).reshape(count, -1)
