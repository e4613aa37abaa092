"""The noisy path against an independent Kraus-sum reference.

The reference evolves a dense density matrix: each gate's full unitary
(``_embed`` of the dense-unitary oracle) as ``U rho U^dagger``, then
``rho -> sum_K K rho K^dagger`` for ``noise_model.channel_for(gate)`` on
each of the gate's qubits in turn, the placement
``DensityMatrixSimulator.run`` uses.  Nothing here calls a repro kernel
or a Pauli-transfer matrix.  ``PauliTransferSimulator`` rows and noisy
variance gradients are checked against it, at up to 4 qubits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from repro.backend.noise import (
    NoiseModel,
    amplitude_damping,
    depolarizing,
    phase_damping,
)
from repro.backend.observables import PauliSum
from repro.backend.ptm import PauliTransferSimulator
from repro.core.variance import (
    VarianceConfig,
    plan_variance_shards,
    run_variance_shard,
)
from test_dense_oracle import _circuit_pairs, _dense_observable, _embed

ATOL = 1e-10

_MODELS = {
    "depolarizing": NoiseModel(default=depolarizing(0.05)),
    "amplitude_damping": NoiseModel(default=amplitude_damping(0.1)),
    "per_gate": NoiseModel(
        default=depolarizing(0.03),
        per_gate={
            "CZ": amplitude_damping(0.2),
            "CX": phase_damping(0.15),
            "RX": None,
        },
    ),
}


def _observable_matrix(observable, num_qubits):
    if isinstance(observable, PauliSum):
        return sum(_dense_observable(term, num_qubits) for term in observable.terms)
    return _dense_observable(observable, num_qubits)


class KrausReference:
    """Dense density-matrix evolution with the noise model's Kraus sums."""

    def __init__(self, noise_model):
        self.noise_model = noise_model

    def state(self, circuit, params):
        num_qubits = circuit.num_qubits
        dim = 2**num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        for op in circuit.operations:
            unitary = _embed(op.matrix(params), op.qubits, num_qubits)
            rho = unitary @ rho @ unitary.conj().T
            channel = self.noise_model.channel_for(op.gate.name)
            if channel is None:
                continue
            for qubit in op.qubits:
                kraus = [
                    _embed(k, [qubit], num_qubits) for k in channel.kraus_operators
                ]
                rho = sum(k @ rho @ k.conj().T for k in kraus)
        return rho

    def expectation(self, circuit, observable, params, **unused):
        """``Tr(O rho)``; the shift loop's keywords are analytic no-ops."""
        assert unused.get("shots") is None and unused.get("initial_state") is None
        matrix = _observable_matrix(observable, circuit.num_qubits)
        return float(np.real(np.trace(matrix @ self.state(circuit, params))))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    _circuit_pairs().filter(lambda case: case[0].num_qubits <= 4),
    st.sampled_from(sorted(_MODELS)),
)
def test_expectation_rows_match_the_kraus_sum(case, model_name):
    circuit, _, rows, observable = case
    model = _MODELS[model_name]
    reference = KrausReference(model)
    got = PauliTransferSimulator(model).expectation_batch(circuit, observable, rows)
    want = [reference.expectation(circuit, observable, row) for row in rows]
    assert np.allclose(got, want, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("cost_kind", ["global", "local"])
@pytest.mark.parametrize("model_name", sorted(_MODELS))
def test_noisy_variance_gradients_match_the_kraus_shift_rule(cost_kind, model_name):
    model = _MODELS[model_name]
    config = VarianceConfig(
        qubit_counts=(2, 3, 4),
        num_circuits=3,
        num_layers=3,
        methods=("random", "xavier_normal"),
        cost_kind=cost_kind,
        noise=model.to_dict(),
    )
    reference = KrausReference(model)
    # A shard's seed sequences count their spawned children, so each run
    # plans its own shards.
    expected = [
        oracles.variance_shard(config, shard, simulator=reference)
        for shard in plan_variance_shards(config, 31)
    ]
    actual = [
        run_variance_shard(config, shard)
        for shard in plan_variance_shards(config, 31)
    ]
    for got, want in zip(actual, expected):
        for method in config.methods:
            assert np.allclose(
                got["gradients"][method],
                want["gradients"][method],
                atol=ATOL,
                rtol=0.0,
            ), (got["num_qubits"], method)
