"""A retried work unit draws the same numbers as its first attempt.

A unit derives its child streams from its pre-reserved seeds without
advancing them (``repro.utils.rng.derive_seeds``), so an in-process retry
after a failure that struck once the unit had drawn — an ``OSError``
from its first engine call — runs on the same streams as a clean run,
and so does a ``process_pool`` retry, which re-pickles the seeds.  For
the same reason a plan's unit fingerprints, which encode the seeds' spawn
state, are the same before and after its units run.
"""

import os
from dataclasses import replace

import pytest

import repro
from repro.core import spec as spec_module
from repro.core import training as training_module
from repro.core import variance as variance_module
from repro.core.spec import ExperimentSpec, plan_experiment
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig
from repro.io import save_result

_VARIANCE = VarianceConfig(
    qubit_counts=(2, 3), num_circuits=4, num_layers=3, methods=("random", "he_normal")
)
_TRAINING = TrainingConfig(
    num_qubits=3,
    num_layers=2,
    iterations=3,
    shots=50,
    gradient_engine="parameter_shift",
)


def _failing_once(marker, original):
    """``original``, except that the first call in any process raises
    ``OSError`` (the marker file is created exactly once)."""

    def fails_first(*args, **kwargs):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return original(*args, **kwargs)
        raise OSError("transient failure after the unit's draws")

    return fails_first


def _inject(monkeypatch, tmp_path, kind):
    marker = tmp_path / f"failed-{len(list(tmp_path.glob('failed-*')))}"
    if kind == "training":
        original = training_module.Trainer.run_lockstep
        monkeypatch.setattr(
            training_module.Trainer, "run_lockstep", _failing_once(marker, original)
        )
    else:
        original = variance_module.megabatch_parameter_shift
        monkeypatch.setattr(
            variance_module, "megabatch_parameter_shift", _failing_once(marker, original)
        )
    return marker


def _spec(kind, **overrides):
    if kind == "training":
        base = dict(
            kind="training", config=_TRAINING, seed=3, methods=("random", "he_normal")
        )
    else:
        config = _VARIANCE if kind == "variance" else replace(_VARIANCE, shots=32)
        base = dict(kind="variance", config=config, seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


def _bytes(outcome, path):
    save_result(outcome, path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["variance", "sampled_variance", "training"])
def test_retry_equals_clean_run(kind, tmp_path, monkeypatch):
    clean = _bytes(repro.run(_spec(kind, executor="serial")), tmp_path / "clean.json")
    retried = {}
    for executor in ("serial", "process_pool"):
        with monkeypatch.context() as patch:
            marker = _inject(patch, tmp_path, kind)
            outcome = repro.run(_spec(kind, executor=executor, workers=2, retry=2))
        assert marker.exists()  # the failure was injected and retried
        retried[executor] = _bytes(outcome, tmp_path / f"{executor}.json")
    assert retried["serial"] == clean
    assert retried["process_pool"] == clean


@pytest.mark.parametrize("kind", ["variance", "sampled_variance", "training"])
def test_unit_fingerprints_survive_running(kind):
    plan = plan_experiment(_spec(kind, executor="serial"))
    before = dict(plan.unit_fingerprints)
    for unit in plan.units:
        unit.fn(*unit.args)
    if kind == "training":
        after = {
            unit.unit_id: spec_module._training_unit_fingerprint(*unit.args)
            for unit in plan.units
        }
    else:
        after = {
            unit.unit_id: spec_module._variance_unit_fingerprint(*unit.args)
            for unit in plan.units
        }
    assert len(before) == len(plan.units) > 0
    assert after == before
