"""Science guard: the reduced Fig. 5a grid's decay rates, pinned.

Runs the grid and seed of ``benchmarks/bench_improvement_table.py`` (2, 4
and 6 qubits, 60 circuits, 25 layers, seed 88) and pins every method's
decay rate and every improvement over random at ``rtol=1e-9``.  Analytic
runs draw no measurement noise, so an ulp-level kernel change passes and
a wrong gate, angle or fold fails.  The default executor and ``serial``
run the same shape-bucket fold; both are pinned, so a spec that names
``serial`` keeps its bits too.

A reduced noisy grid (2-4 qubits, 12 circuits, 6 layers, depolarizing
0.01, seed 88) is pinned the same way: it runs the Pauli-transfer
simulator through the same shape-bucket fold.

A change that moves these bits on purpose re-pins the values below and
states the drift in CHANGES.md.
"""

import pytest

import repro
from repro.core import VarianceConfig
from repro.core.spec import ExperimentSpec

RTOL = 1e-9

DECAY_RATES = {
    "random": 1.2150994768134271,
    "xavier_normal": 0.7239501574027124,
    "xavier_uniform": 0.7201379921875305,
    "he_normal": 0.8178084439284902,
    "lecun_normal": 0.748263058894444,
    "orthogonal": 0.8543037131752976,
}

IMPROVEMENTS = {
    "xavier_normal": 40.42050291213551,
    "xavier_uniform": 40.73423567952829,
    "he_normal": 32.696173479296064,
    "lecun_normal": 38.41960488233044,
    "orthogonal": 29.69269352204058,
}


@pytest.fixture(scope="module", params=[None, "serial"], ids=["default", "serial"])
def outcome(request):
    extra = {} if request.param is None else {"executor": request.param}
    config = VarianceConfig(qubit_counts=(2, 4, 6), num_circuits=60, num_layers=25)
    return repro.run(ExperimentSpec(kind="variance", config=config, seed=88, **extra))


def test_decay_rates_pinned(outcome):
    rates = {method: fit.rate for method, fit in outcome.fits.items()}
    assert rates.keys() == DECAY_RATES.keys()
    for method, rate in DECAY_RATES.items():
        assert rates[method] == pytest.approx(rate, rel=RTOL, abs=0.0), method


def test_improvements_pinned(outcome):
    assert outcome.improvements.keys() == IMPROVEMENTS.keys()
    for method, gain in IMPROVEMENTS.items():
        assert outcome.improvements[method] == pytest.approx(
            gain, rel=RTOL, abs=0.0
        ), method


def test_random_decays_fastest(outcome):
    rates = {method: fit.rate for method, fit in outcome.fits.items()}
    assert max(rates, key=rates.get) == "random"
    assert outcome.ranking[-1] == "random"


NOISY_DECAY_RATES = {
    "random": 1.1627986420820864,
    "xavier_normal": 0.041140485060976034,
    "xavier_uniform": 0.40365242227122483,
    "he_normal": 0.7039375773519961,
    "lecun_normal": 0.847804260666732,
    "orthogonal": -0.10189143939624126,
}

NOISY_IMPROVEMENTS = {
    "xavier_normal": 96.46194245743952,
    "xavier_uniform": 65.28612885645859,
    "he_normal": 39.46178195637224,
    "lecun_normal": 27.08933172224308,
    "orthogonal": 108.76260392029667,
}


@pytest.fixture(scope="module", params=[None, "serial"], ids=["default", "serial"])
def noisy_outcome(request):
    extra = {} if request.param is None else {"executor": request.param}
    config = VarianceConfig(
        qubit_counts=(2, 3, 4),
        num_circuits=12,
        num_layers=6,
        noise={"default": {"name": "depolarizing", "probability": 0.01}},
    )
    return repro.run(ExperimentSpec(kind="variance", config=config, seed=88, **extra))


def test_noisy_decay_rates_pinned(noisy_outcome):
    rates = {method: fit.rate for method, fit in noisy_outcome.fits.items()}
    assert rates.keys() == NOISY_DECAY_RATES.keys()
    for method, rate in NOISY_DECAY_RATES.items():
        assert rates[method] == pytest.approx(rate, rel=RTOL, abs=0.0), method


def test_noisy_improvements_pinned(noisy_outcome):
    assert noisy_outcome.improvements.keys() == NOISY_IMPROVEMENTS.keys()
    for method, gain in NOISY_IMPROVEMENTS.items():
        assert noisy_outcome.improvements[method] == pytest.approx(
            gain, rel=RTOL, abs=0.0
        ), method
