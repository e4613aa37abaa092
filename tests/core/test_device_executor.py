"""Tests for the ``device`` executor and backend-as-configuration.

The array namespace is *configuration*, not scheduling: the ``device``
executor reuses the lock-step scheduling (batched variance, lock-step
training) while the namespace rides in on ``config.backend`` /
``ExperimentSpec.backend``.  Contracts under test:

* registration and routing (``resolved_executor`` sends non-numpy
  backends to ``device``);
* spec serialization round-trips the backend, and fingerprints drop the
  default ``backend="numpy"`` so pre-backend checkpoints stay resumable;
* a missing optional namespace fails eagerly with an actionable error;
* ``backend="numpy"`` runs are bit-identical to default runs, and
  loopback runs match across executors to device tolerance.
"""

import importlib.util

import numpy as np
import pytest

from repro.core.executor import (
    LockstepExecutor,
    available_executors,
    get_executor,
)
from repro.core.spec import ExperimentSpec, _fingerprint, run
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig

_VAR_CONFIG = VarianceConfig(
    qubit_counts=(2, 3),
    num_circuits=4,
    num_layers=3,
    methods=("random", "xavier_normal"),
)
_TRAIN_CONFIG = TrainingConfig(num_qubits=2, num_layers=1, iterations=3)


class TestRegistration:
    def test_registered(self):
        assert "device" in available_executors()
        executor = get_executor("device")
        assert isinstance(executor, LockstepExecutor)

    def test_inherits_lockstep_scheduling(self):
        executor = get_executor("device")
        assert executor.training_lockstep is True


class TestSpecBackendField:
    def test_default_is_numpy(self):
        spec = ExperimentSpec(kind="variance")
        assert spec.backend == "numpy"
        assert spec._resolved_backend() == "numpy"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentSpec(kind="variance", backend="")

    def test_round_trip(self):
        spec = ExperimentSpec(kind="variance", backend="loopback")
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.backend == "loopback"

    def test_from_dict_tolerates_missing_backend(self):
        # Pre-backend spec JSON has no "backend" key.
        spec = ExperimentSpec.from_dict({"kind": "variance"})
        assert spec.backend == "numpy"

    def test_config_backend_round_trips(self):
        config = VarianceConfig(
            qubit_counts=(2,),
            num_circuits=2,
            num_layers=2,
            backend="loopback",
        )
        spec = ExperimentSpec(kind="variance", config=config)
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.config.backend == "loopback"

    @pytest.mark.parametrize("config_cls", [VarianceConfig, TrainingConfig])
    def test_configs_reject_empty_backend(self, config_cls):
        kwargs = (
            dict(qubit_counts=(2,), num_circuits=2, num_layers=2)
            if config_cls is VarianceConfig
            else dict(num_qubits=2, num_layers=1, iterations=1)
        )
        with pytest.raises(ValueError, match="backend"):
            config_cls(backend="", **kwargs)


class TestResolvedExecutor:
    def test_numpy_keeps_default_routing(self):
        spec = ExperimentSpec(kind="variance", config=_VAR_CONFIG)
        assert spec.resolved_executor() == "serial"

    def test_spec_backend_routes_to_device(self):
        spec = ExperimentSpec(
            kind="variance", config=_VAR_CONFIG, backend="loopback"
        )
        assert spec.resolved_executor() == "device"

    def test_config_backend_routes_to_device(self):
        config = VarianceConfig(
            qubit_counts=(2,),
            num_circuits=2,
            num_layers=2,
            backend="loopback",
        )
        spec = ExperimentSpec(kind="variance", config=config)
        assert spec.resolved_executor() == "device"

    def test_explicit_executor_wins(self):
        spec = ExperimentSpec(
            kind="variance",
            config=_VAR_CONFIG,
            backend="loopback",
            executor="serial",
        )
        assert spec.resolved_executor() == "serial"

    def test_training_backend_routes_to_device(self):
        spec = ExperimentSpec(
            kind="training", config=_TRAIN_CONFIG, backend="loopback"
        )
        assert spec.resolved_executor() == "device"


class TestFingerprintCompatibility:
    def test_numpy_backend_keeps_historical_fingerprint(self):
        # A config stamped backend="numpy" must fingerprint exactly like
        # one from before the field existed, so existing checkpoint trees
        # resume unchanged.  The "legacy" config is a synthetic dataclass
        # carrying the same fields and values minus ``backend``.
        import dataclasses

        fields = [
            (field.name, field.type)
            for field in dataclasses.fields(_VAR_CONFIG)
            if field.name != "backend"
        ]
        Legacy = dataclasses.make_dataclass("Legacy", fields)
        legacy_config = Legacy(
            **{
                field.name: getattr(_VAR_CONFIG, field.name)
                for field in dataclasses.fields(_VAR_CONFIG)
                if field.name != "backend"
            }
        )
        spec = ExperimentSpec(kind="variance", seed=3)
        assert _fingerprint("variance", legacy_config, spec) == _fingerprint(
            "variance", _VAR_CONFIG, spec
        )

    def test_non_numpy_backend_changes_fingerprint(self):
        import dataclasses

        spec = ExperimentSpec(kind="variance", seed=3)
        loopback_config = dataclasses.replace(_VAR_CONFIG, backend="loopback")
        assert _fingerprint("variance", _VAR_CONFIG, spec) != _fingerprint(
            "variance", loopback_config, spec
        )


class TestMissingNamespaceFailsEagerly:
    @pytest.mark.parametrize("name", ["torch", "cupy"])
    def test_actionable_error_before_any_work(self, name):
        if importlib.util.find_spec(name) is not None:
            pytest.skip(f"{name} installed; eager-resolution error not reachable")
        spec = ExperimentSpec(
            kind="variance", config=_VAR_CONFIG, seed=0, backend=name
        )
        with pytest.raises(ImportError, match=f"pip install {name}"):
            run(spec)

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            ExperimentSpec(
                kind="variance", config=_VAR_CONFIG, seed=0, backend="jax"
            )


class TestEndToEndIdentity:
    def test_numpy_backend_bit_identical_to_default(self):
        default = run(ExperimentSpec(kind="variance", config=_VAR_CONFIG, seed=0))
        explicit = run(
            ExperimentSpec(
                kind="variance", config=_VAR_CONFIG, seed=0, backend="numpy"
            )
        )
        for key in default.result.samples:
            assert np.array_equal(
                default.result.samples[key].gradients,
                explicit.result.samples[key].gradients,
            ), key

    def test_loopback_variance_matches_reference(self):
        reference = run(
            ExperimentSpec(kind="variance", config=_VAR_CONFIG, seed=0)
        )
        loopback = run(
            ExperimentSpec(
                kind="variance", config=_VAR_CONFIG, seed=0, backend="loopback"
            )
        )
        for key in reference.result.samples:
            np.testing.assert_allclose(
                loopback.result.samples[key].gradients,
                reference.result.samples[key].gradients,
                rtol=1e-10,
                atol=1e-12,
            )

    def test_loopback_identical_across_executors(self):
        runs = {
            executor: run(
                ExperimentSpec(
                    kind="variance",
                    config=_VAR_CONFIG,
                    seed=1,
                    backend="loopback",
                    executor=executor,
                )
            )
            for executor in ("device", "serial", "batched")
        }
        baseline = runs["device"]
        for executor, outcome in runs.items():
            for key in baseline.result.samples:
                np.testing.assert_allclose(
                    outcome.result.samples[key].gradients,
                    baseline.result.samples[key].gradients,
                    rtol=1e-10,
                    atol=1e-12,
                    err_msg=f"{executor}:{key}",
                )

    def test_loopback_training_matches_reference(self):
        methods = ("random", "zeros")
        reference = run(
            ExperimentSpec(
                kind="training", config=_TRAIN_CONFIG, seed=0, methods=methods
            )
        )
        loopback = run(
            ExperimentSpec(
                kind="training",
                config=_TRAIN_CONFIG,
                seed=0,
                methods=methods,
                backend="loopback",
            )
        )
        for method in methods:
            np.testing.assert_allclose(
                loopback.histories[method].losses,
                reference.histories[method].losses,
                rtol=1e-9,
                atol=1e-11,
            )

    def test_checkpoint_resume_with_numpy_backend(self, tmp_path):
        # A default-backend checkpoint tree resumes under an explicit
        # backend="numpy" spec (fingerprints agree) with identical results.
        plain = ExperimentSpec(
            kind="variance",
            config=_VAR_CONFIG,
            seed=2,
            checkpoint_dir=tmp_path,
        )
        first = run(plain)
        stamped = ExperimentSpec(
            kind="variance",
            config=_VAR_CONFIG,
            seed=2,
            checkpoint_dir=tmp_path,
            backend="numpy",
        )
        resumed = run(stamped)
        for key in first.result.samples:
            assert np.array_equal(
                first.result.samples[key].gradients,
                resumed.result.samples[key].gradients,
            ), key
