"""Layer-stack initializer draws against the per-layer loop they replaced.

Every initializer once drew its angles one layer at a time.  Now each
draws all layers with one generator call (``sample_layers``), except the
resampled truncated normals, which still loop per layer.  The per-layer
loop and bodies live on in ``tests/oracles.py``; these tests assert with
``np.array_equal`` that ``sample`` still returns exactly their bits.  Two
properties of the numpy build carry this, so they are asserted here too:
one ``size=(count, n)`` draw fills elements in the order ``count`` draws
of ``n`` would, and a stacked ``np.linalg.qr`` factors each matrix
exactly as a per-matrix call does.
"""

import numpy as np
import pytest

import oracles
from repro.initializers import (
    FanMode,
    Normal,
    Orthogonal,
    ParameterShape,
    WarmStart,
    available_initializers,
    get_initializer,
    haar_orthogonal_matrix,
)

#: Registry names plus the constructor arguments each needs; every
#: ``variance_scaling`` distribution is covered.
CASES = [
    pytest.param(name, {}, id=name)
    for name in available_initializers()
    if name not in ("constant", "variance_scaling")
] + [
    pytest.param("constant", {"value": 0.7}, id="constant"),
    pytest.param("beta", {"alpha": 0.5, "beta": 3.0}, id="beta-skewed"),
    pytest.param("truncated_normal", {"stddev": 0.0}, id="truncated_normal-zero"),
    pytest.param(
        "xavier_normal",
        {"fan_mode": FanMode.QUBITS_IN_PARAMS_OUT},
        id="xavier_normal-asymmetric-fans",
    ),
] + [
    pytest.param(
        "variance_scaling",
        {"scale": 2.0, "mode": mode, "distribution": distribution},
        id=f"variance_scaling-{distribution}-{mode}",
    )
    for distribution in ("normal", "uniform", "truncated_normal")
    for mode in ("fan_in", "fan_avg")
]

#: Depths 1, 7 and 30; one and two gates per qubit; ``(1, 2)`` is an
#: orthogonal layer with fewer rows than columns.
SHAPES = [
    pytest.param(
        ParameterShape(layers, qubits, per_qubit),
        id=f"L{layers}-q{qubits}x{per_qubit}",
    )
    for layers in (1, 7, 30)
    for qubits, per_qubit in ((3, 1), (4, 2), (1, 2))
]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name, kwargs", CASES)
@pytest.mark.parametrize("seed", [0, 20240311])
def test_sample_matches_per_layer_oracle(name, kwargs, shape, seed):
    init = get_initializer(name, **kwargs)
    expected = oracles.initializer_sample(init, shape, seed)
    params = init.sample(shape, seed)
    assert params.shape == (shape.num_parameters,)
    assert np.array_equal(params, expected)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "fill",
    [Normal(stddev=0.3), Orthogonal(gain=0.5), None],
    ids=["normal", "orthogonal", "zeros"],
)
def test_warm_start_matches_per_layer_oracle(shape, fill):
    trained_layers = min(2, shape.num_layers)
    trained = np.arange(1.0, 1.0 + trained_layers * shape.params_per_layer)
    init = WarmStart(trained, fill=fill)
    expected = oracles.initializer_sample(init, shape, 5)
    params = init.sample(shape, 5)
    assert np.array_equal(params, expected)
    assert np.array_equal(params[: trained.size], trained)


def test_sample_continues_a_shared_generator_like_the_loop():
    """Draws from one generator in turn consume it as the loop did."""
    shape = ParameterShape(7, 4, 2)
    names = ["random", "he_normal", "orthogonal", "truncated_normal", "beta"]
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for name in names:
        init = get_initializer(name)
        expected = oracles.initializer_sample(init, shape, theirs)
        assert np.array_equal(init.sample(shape, ours), expected)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("rows, cols", [(6, 6), (8, 3), (2, 7), (1, 2), (10, 1)])
def test_haar_matrix_is_the_count_one_stack(rows, cols):
    rng, reference = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        assert np.array_equal(
            haar_orthogonal_matrix(rows, cols, rng),
            oracles.haar_orthogonal_matrix(rows, cols, reference),
        )


@pytest.mark.parametrize("rows, cols", [(10, 1), (4, 2), (3, 5)])
def test_stacked_qr_equals_per_matrix_qr(rows, cols):
    """The numpy/LAPACK property the stacked orthogonal draw relies on."""
    stack = np.random.default_rng(7).normal(size=(30, rows, cols))
    q, r = np.linalg.qr(stack)
    for matrix, q_one, r_one in zip(stack, q, r):
        q_ref, r_ref = np.linalg.qr(matrix)
        assert np.array_equal(q_one, q_ref)
        assert np.array_equal(r_one, r_ref)


@pytest.mark.parametrize("draw", ["normal", "uniform", "beta"])
def test_one_stacked_draw_equals_per_layer_draws(draw):
    """The numpy generator property every one-call draw relies on."""
    args = {"normal": (0.0, 0.4), "uniform": (-1.0, 2.0), "beta": (2.0, 5.0)}[draw]
    stacked = getattr(np.random.default_rng(9), draw)(*args, size=(30, 8))
    rng = np.random.default_rng(9)
    per_layer = [getattr(rng, draw)(*args, size=8) for _ in range(30)]
    assert np.array_equal(stacked, np.stack(per_layer))
