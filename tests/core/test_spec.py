"""Unit tests for the declarative ExperimentSpec API and repro.run."""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.core.experiments import (
    TrainingExperimentOutcome,
    VarianceExperimentOutcome,
    run_training_experiment,
    run_variance_experiment,
)
from repro.core.spec import EXPERIMENT_KINDS, ExperimentSpec, plan_experiment, run
from repro.core.sweep import sweep_variance
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig
from repro.initializers import Zeros

_VAR_CONFIG = VarianceConfig(
    qubit_counts=(2, 3),
    num_circuits=5,
    num_layers=4,
    methods=("random", "xavier_normal"),
)
_TRAIN_CONFIG = TrainingConfig(num_qubits=2, num_layers=1, iterations=3)
_NOISE = {"default": {"name": "depolarizing", "probability": 0.02}}


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentSpec(kind="teleportation")

    def test_kinds_registry(self):
        assert set(EXPERIMENT_KINDS) == {"variance", "training", "sweep"}

    def test_config_dict_coercion(self):
        spec = ExperimentSpec(
            kind="variance", config={"qubit_counts": [2], "num_circuits": 3}
        )
        assert isinstance(spec.config, VarianceConfig)
        assert spec.config.num_circuits == 3

    def test_wrong_config_type(self):
        with pytest.raises(TypeError, match="TrainingConfig"):
            ExperimentSpec(kind="training", config=_VAR_CONFIG)

    def test_methods_only_for_training(self):
        with pytest.raises(ValueError, match="training specs only"):
            ExperimentSpec(kind="variance", methods=("random",))

    def test_unknown_training_method(self):
        with pytest.raises(ValueError, match="unknown initializer 'nosuch'"):
            ExperimentSpec(kind="training", methods=("random", "nosuch"))

    @pytest.mark.parametrize(
        "methods",
        [[1], "random", ("random", None), {"random": 1}, [Zeros()]],
        ids=["int", "str", "none", "dict", "instance"],
    )
    def test_methods_must_be_a_list_of_names(self, methods):
        with pytest.raises(ValueError, match="methods"):
            ExperimentSpec(kind="training", methods=methods)
        with pytest.raises(ValueError, match="methods"):
            ExperimentSpec.from_dict({"kind": "training", "methods": methods})

    @pytest.mark.parametrize(
        "methods",
        [["random", "random"], ["xavier", "Xavier_Normal"]],
        ids=["repeat", "alias"],
    )
    def test_methods_named_twice_rejected(self, methods):
        with pytest.raises(ValueError, match="methods names initializer"):
            ExperimentSpec(kind="training", methods=methods)
        with pytest.raises(ValueError, match="methods names initializer"):
            ExperimentSpec.from_dict({"kind": "training", "methods": methods})
        config = {"methods": methods}
        with pytest.raises(ValueError, match="methods names initializer"):
            ExperimentSpec.from_dict({"kind": "variance", "config": config})

    def test_unknown_config_field(self):
        with pytest.raises(ValueError, match=r"unknown TrainingConfig field\(s\)"):
            ExperimentSpec(kind="training", config={"num_qubit": 2})

    def test_sweep_requires_field_and_values(self):
        with pytest.raises(ValueError, match="sweep_field"):
            ExperimentSpec(kind="sweep")

    def test_sweep_unknown_field(self):
        with pytest.raises(ValueError, match="unknown VarianceConfig field"):
            ExperimentSpec(kind="sweep", sweep_field="depth", sweep_values=[1])

    def test_sweep_fields_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="sweep specs only"):
            ExperimentSpec(
                kind="variance", sweep_field="num_layers", sweep_values=[1]
            )

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="variance", workers=0)


class TestCanonicalMethodNames:
    """Methods are stored canonical: spellings and aliases of one method
    share labels, outcome tables and fingerprints."""

    SPELLINGS = [
        ("random", "xavier_normal"),
        ("Random", "Xavier_Normal"),
        ("RANDOM", "xavier"),
        ("random", "glorot_normal"),
    ]

    def test_variance_improvements_filled_for_case_variants(self):
        config = VarianceConfig(
            qubit_counts=(2, 3),
            num_circuits=4,
            num_layers=3,
            methods=("Random", "Xavier_Normal"),
        )
        outcome = run(ExperimentSpec(kind="variance", config=config, seed=4))
        assert list(outcome.fits) == ["random", "xavier_normal"]
        assert list(outcome.improvements) == ["xavier_normal"]

    @pytest.mark.parametrize("kind", ["variance", "training"])
    def test_fingerprints_equal_across_spellings(self, kind):
        plans = []
        for methods in self.SPELLINGS:
            if kind == "variance":
                config = replace(
                    _VAR_CONFIG,
                    methods=methods,
                    method_kwargs={methods[1].upper(): {"fan_mode": "qubits"}},
                )
                spec = ExperimentSpec(kind=kind, config=config, seed=9)
            else:
                spec = ExperimentSpec(
                    kind=kind, config=_TRAIN_CONFIG, methods=methods, seed=9
                )
            plans.append(plan_experiment(spec))
        for plan in plans[1:]:
            assert plan.fingerprint == plans[0].fingerprint
            assert plan.unit_fingerprints == plans[0].unit_fingerprints

    def test_training_labels_are_canonical(self):
        spec = ExperimentSpec(
            kind="training", config=_TRAIN_CONFIG, methods=["Xavier"], seed=2
        )
        assert spec.methods == ("xavier_normal",)
        assert list(run(spec).histories) == ["xavier_normal"]


class TestResolvedExecutor:
    def test_explicit_name_wins(self):
        spec = ExperimentSpec(kind="variance", executor="process_pool")
        assert spec.resolved_executor() == "process_pool"

    def test_variance_default_is_serial(self):
        # One variance path: a spec naming no executor runs in-process,
        # whatever retired batching knob its stored payload carries.
        default = ExperimentSpec(kind="variance", config=_VAR_CONFIG)
        legacy = ExperimentSpec.from_dict(
            {
                "kind": "variance",
                "config": {
                    "qubit_counts": [2],
                    "num_circuits": 2,
                    "num_layers": 2,
                    "batched": False,
                    "fold": "structure",
                },
            }
        )
        assert default.resolved_executor() == "serial"
        assert legacy.resolved_executor() == "serial"

    def test_training_default(self):
        # Lock-step is bit-identical to serial and one batched sweep per
        # iteration, so unnamed analytic training specs take it.
        assert ExperimentSpec(kind="training").resolved_executor() == "lockstep"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"shots": 64},
            {"config": TrainingConfig(shots=64)},
            {"noise": _NOISE},
            {"config": TrainingConfig(noise=_NOISE)},
            {"config": TrainingConfig(gradient_engine="parameter_shift")},
        ],
        ids=["spec-shots", "config-shots", "spec-noise", "config-noise", "shift"],
    )
    def test_training_default_stays_serial_off_the_adjoint_path(self, overrides):
        # Lock-step under shots, noise or a shift-rule engine stacks every
        # shifted copy of every trajectory at once (4**n-wide rows under
        # noise); only the chunked analytic adjoint sweep is the default.
        spec = ExperimentSpec(kind="training", **overrides)
        assert spec.resolved_executor() == "serial"
        assert ExperimentSpec(
            kind="training", executor="lockstep", **overrides
        ).resolved_executor() == "lockstep"


class TestSerialization:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            kind="variance",
            config=_VAR_CONFIG,
            seed=7,
            executor="process_pool",
            workers=3,
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.kind == "variance"
        assert restored.config == _VAR_CONFIG
        assert restored.seed == 7
        assert restored.workers == 3

    def test_json_round_trip_is_pure_json(self):
        spec = ExperimentSpec(kind="training", config=_TRAIN_CONFIG, seed=1)
        text = json.dumps(spec.to_dict())
        restored = ExperimentSpec.from_json(text)
        assert restored.config == _TRAIN_CONFIG

    def test_seed_sequence_round_trip(self):
        seed_seq = np.random.SeedSequence(42, spawn_key=(3,))
        seed_seq.spawn(2)  # advance the child counter
        spec = ExperimentSpec(kind="variance", seed=seed_seq)
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.seed.entropy == 42
        assert restored.seed.spawn_key == (3,)
        assert restored.seed.n_children_spawned == 2

    def test_generator_seed_round_trips_via_seed_sequence(self):
        rng = np.random.default_rng(5)
        spec = ExperimentSpec(kind="variance", seed=rng)
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert isinstance(restored.seed, np.random.SeedSequence)

    def test_from_file_bare_and_wrapped(self, tmp_path):
        from repro.io import save_result

        spec = ExperimentSpec(kind="variance", config=_VAR_CONFIG, seed=2)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(spec.to_dict()))
        wrapped = save_result(spec, tmp_path / "wrapped.json")
        for path in (bare, wrapped):
            restored = ExperimentSpec.from_file(path)
            assert restored.config == _VAR_CONFIG
            assert restored.seed == 2

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="spec object"):
            ExperimentSpec.from_file(path)

    def test_from_dict_rejects_unknown_keys(self):
        """A typo'd field must not silently change the experiment."""
        with pytest.raises(ValueError, match="sede"):
            ExperimentSpec.from_dict({"kind": "variance", "sede": 5})

    def test_from_dict_missing_kind_is_a_clear_error(self):
        with pytest.raises(ValueError, match="missing its 'kind'"):
            ExperimentSpec.from_dict({"seed": 1})

    def test_from_dict_tolerates_explicit_nulls(self):
        """Handwritten spec JSON with nulls for optional scalars loads."""
        spec = ExperimentSpec.from_dict(
            {
                "kind": "variance",
                "config": None,
                "seed": None,
                "executor": None,
                "workers": None,
                "paired": None,
            }
        )
        assert spec.workers == 1
        assert spec.paired is True


class TestRun:
    def test_variance_matches_legacy_entry_point(self):
        via_spec = run(
            ExperimentSpec(kind="variance", config=_VAR_CONFIG, seed=0)
        )
        via_legacy = run_variance_experiment(_VAR_CONFIG, seed=0)
        assert isinstance(via_spec, VarianceExperimentOutcome)
        for key in via_legacy.result.samples:
            assert np.array_equal(
                via_spec.result.samples[key].gradients,
                via_legacy.result.samples[key].gradients,
            ), key

    def test_training_matches_legacy_entry_point(self):
        methods = ("random", "zeros")
        via_spec = run(
            ExperimentSpec(
                kind="training", config=_TRAIN_CONFIG, seed=0, methods=methods
            )
        )
        via_legacy = run_training_experiment(
            _TRAIN_CONFIG, methods=methods, seed=0
        )
        assert isinstance(via_spec, TrainingExperimentOutcome)
        for method in methods:
            assert (
                via_spec.histories[method].losses
                == via_legacy.histories[method].losses
            )

    def test_sweep_matches_legacy_entry_point(self):
        spec = ExperimentSpec(
            kind="sweep",
            config=_VAR_CONFIG,
            seed=4,
            sweep_field="num_layers",
            sweep_values=[2, 5],
        )
        via_spec = run(spec)
        via_legacy = sweep_variance(
            "num_layers", [2, 5], base_config=_VAR_CONFIG, seed=4
        )
        assert set(via_spec) == {2, 5}
        for value in (2, 5):
            assert np.array_equal(
                via_spec[value].result.samples[(2, "random")].gradients,
                via_legacy[value].result.samples[(2, "random")].gradients,
            )

    def test_accepts_dict_and_file(self, tmp_path):
        spec = ExperimentSpec(kind="variance", config=_VAR_CONFIG, seed=1)
        from_obj = run(spec)
        from_dict = run(spec.to_dict())
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        from_file = run(str(path))
        for other in (from_dict, from_file):
            assert np.array_equal(
                from_obj.result.samples[(2, "random")].gradients,
                other.result.samples[(2, "random")].gradients,
            )

    def test_repro_run_is_the_spec_runner(self):
        assert repro.run is run

    def test_unknown_executor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown executor 'gpu'"):
            ExperimentSpec(kind="variance", config=_VAR_CONFIG, executor="gpu")
        with pytest.raises(ValueError, match="unknown executor"):
            ExperimentSpec.from_dict({"kind": "training", "executor": "gpu"})
        for alias in ("async", "device"):
            assert ExperimentSpec(kind="training", executor=alias).executor == alias

    def test_verbose_streams_per_qubit_count(self, capsys):
        run(
            ExperimentSpec(kind="variance", config=_VAR_CONFIG, seed=0),
            verbose=True,
        )
        out = capsys.readouterr().out
        assert "[variance] q=2:" in out
        assert "[variance] q=3:" in out

    def test_sweep_validates_values_before_running(self, monkeypatch):
        """A bad swept value fails eagerly, before any run burns time."""
        import repro.core.variance as vmod

        calls = []
        original = vmod.run_variance_shard

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", counting)
        spec = ExperimentSpec(
            kind="sweep",
            config=_VAR_CONFIG,
            seed=0,
            sweep_field="num_circuits",
            sweep_values=[3, -1],
        )
        with pytest.raises(ValueError):
            run(spec)
        assert calls == []


class TestFoldCheckpointCompatibility:
    """Payloads and checkpoints from before ``VarianceConfig.batched`` and
    ``fold`` were retired keep their fingerprints, bytes and shards."""

    #: The CI service lane's spec.
    _PAYLOAD = {
        "kind": "variance",
        "seed": 7,
        "config": {
            "qubit_counts": [2, 3],
            "num_circuits": 4,
            "num_layers": 3,
            "methods": ["random"],
        },
    }

    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"batched": True, "fold": "shape"},
            {"batched": False, "fold": "structure"},
        ],
        ids=["none", "defaults", "sequential"],
    )
    @pytest.mark.parametrize(
        "executor", [None, "serial", "batched", "process_pool"]
    )
    def test_payload_keeps_pinned_fingerprints(self, knobs, executor):
        payload = dict(self._PAYLOAD, executor=executor)
        payload["config"] = dict(payload["config"], **knobs)
        spec = ExperimentSpec.from_dict(payload)
        assert spec.fingerprint() == "64d95a18b9608d1ccf0d41d8f2a1a213614c87ec"
        if executor != "process_pool":
            assert sorted(plan_experiment(spec).unit_fingerprints.items()) == [
                ("variance-q2-c00000", "903ce4874cb6cc028fdda222050effa04998a7f5"),
                ("variance-q3-c00000", "21d0f995c447d96e3c8cd5c6a039e8cd4eaf321b"),
            ]

    def test_default_spec_keeps_pinned_fingerprint(self):
        spec = ExperimentSpec(kind="variance", seed=7)
        assert spec.fingerprint() == "448824b0b81cd687f202401c9186670aee4cf3ab"

    def test_legacy_payload_writes_the_same_bytes(self, tmp_path):
        from repro.io import save_result

        legacy = dict(self._PAYLOAD)
        legacy["config"] = dict(legacy["config"], batched=False, fold="structure")
        paths = []
        for name, payload in (("plain", self._PAYLOAD), ("legacy", legacy)):
            path = tmp_path / f"{name}.json"
            save_result(repro.run(ExperimentSpec.from_dict(payload)), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_batched_checkpoints_resume_under_default(self, tmp_path, monkeypatch):
        """A grid checkpointed under ``executor="batched"`` resumes, with
        no shard re-run, under the default executor."""
        import numpy as np

        from repro.core import variance as vmod

        config = VarianceConfig(
            qubit_counts=(2, 3),
            num_circuits=4,
            num_layers=2,
            methods=("random", "zeros"),
        )

        def outcome_for(executor):
            return repro.run(
                ExperimentSpec(
                    kind="variance",
                    config=config,
                    seed=11,
                    executor=executor,
                    checkpoint_dir=tmp_path,
                )
            )

        first = outcome_for("batched")
        calls = []
        original = vmod.run_variance_shard

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", counting)
        resumed = outcome_for(None)
        assert calls == []
        for key in first.result.samples:
            assert np.array_equal(
                first.result.samples[key].gradients,
                resumed.result.samples[key].gradients,
            )

    def test_rejects_nonpositive_circuits_per_shard(self):
        with pytest.raises(ValueError, match="circuits_per_shard"):
            ExperimentSpec(kind="variance", circuits_per_shard=0)
        with pytest.raises(ValueError, match="circuits_per_shard"):
            ExperimentSpec(kind="variance", circuits_per_shard=-2)

    def test_rejects_nonpositive_shots_eagerly(self):
        with pytest.raises(ValueError, match="shots"):
            ExperimentSpec(kind="variance", shots=0)
        from repro.core.variance import VarianceConfig

        with pytest.raises(ValueError, match="shots"):
            VarianceConfig(shots=-5)


class TestPublicFingerprint:
    _config = VarianceConfig(
        qubit_counts=(2, 3), num_circuits=4, num_layers=3, methods=("random",)
    )

    def test_stable_across_instances(self):
        a = ExperimentSpec(kind="variance", config=self._config, seed=3)
        b = ExperimentSpec(kind="variance", config=self._config, seed=3)
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 40  # sha1 hex digest

    def test_sensitive_to_seed_and_config(self):
        from dataclasses import replace

        base = ExperimentSpec(kind="variance", config=self._config, seed=3)
        reseeded = ExperimentSpec(kind="variance", config=self._config, seed=4)
        deeper = ExperimentSpec(
            kind="variance",
            config=replace(self._config, num_layers=4),
            seed=3,
        )
        assert base.fingerprint() != reseeded.fingerprint()
        assert base.fingerprint() != deeper.fingerprint()

    def test_scheduling_fields_are_identity_neutral(self):
        base = ExperimentSpec(kind="variance", config=self._config, seed=3)
        scheduled = ExperimentSpec(
            kind="variance",
            config=self._config,
            seed=3,
            executor="process_pool",
            workers=4,
            checkpoint_dir="/tmp/somewhere",
        )
        assert base.fingerprint() == scheduled.fingerprint()

    def test_plan_folds_in(self):
        spec = ExperimentSpec(kind="variance", config=self._config, seed=3)
        assert spec.fingerprint() != spec.fingerprint(
            plan={"circuits_per_shard": 2}
        )

    def test_matches_internal_fingerprint_used_by_run(self):
        from repro.core.spec import _fingerprint, _resolve_config

        spec = ExperimentSpec(kind="variance", config=self._config, seed=3)
        assert spec.fingerprint() == _fingerprint(
            spec.kind, _resolve_config(spec), spec
        )

    def test_sweep_values_stamped(self):
        a = ExperimentSpec(
            kind="sweep", sweep_field="num_layers", sweep_values=[1, 2], seed=0
        )
        b = ExperimentSpec(
            kind="sweep", sweep_field="num_layers", sweep_values=[1, 3], seed=0
        )
        assert a.fingerprint() != b.fingerprint()

    def test_generator_seeds_fingerprint_via_seed_sequence(self):
        a = ExperimentSpec(
            kind="variance", config=self._config, seed=np.random.default_rng(3)
        )
        b = ExperimentSpec(
            kind="variance", config=self._config, seed=np.random.default_rng(3)
        )
        c = ExperimentSpec(
            kind="variance", config=self._config, seed=np.random.default_rng(4)
        )
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestUnitFingerprintSharing:
    """Shard content keys are grid-independent: subsets share them."""

    def _unit_fingerprints(self, qubit_counts):
        from repro.core.spec import plan_experiment

        spec = ExperimentSpec(
            kind="variance",
            config=VarianceConfig(
                qubit_counts=qubit_counts,
                num_circuits=4,
                num_layers=3,
                methods=("random",),
            ),
            seed=3,
        )
        return plan_experiment(spec).unit_fingerprints

    def test_subset_grid_reuses_superset_unit_keys(self):
        superset = self._unit_fingerprints((2, 3, 4))
        subset = self._unit_fingerprints((2, 3))
        assert set(subset.values()) < set(superset.values())

    def test_disjoint_rows_do_not_collide(self):
        first = self._unit_fingerprints((2, 3))
        second = self._unit_fingerprints((4, 5))
        assert not set(first.values()) & set(second.values())


class TestNoiseFingerprints:
    """The noise:null -> dropped rule keeps historical keys valid."""

    _config = VarianceConfig(
        qubit_counts=(2, 3), num_circuits=4, num_layers=3, methods=("random",)
    )

    def test_noiseless_fingerprint_unchanged_by_field_addition(self):
        # The canonical payload drops noise=None, so specs written before
        # the field existed digest identically to specs written after.
        spec = ExperimentSpec(kind="variance", config=self._config, seed=3)
        payload = spec.to_dict()
        assert payload["noise"] is None
        del payload["noise"]
        assert ExperimentSpec.from_dict(payload).fingerprint() == spec.fingerprint()

    def test_noisy_fingerprint_never_collides_with_noiseless(self):
        base = ExperimentSpec(kind="variance", config=self._config, seed=3)
        noisy = ExperimentSpec(
            kind="variance", config=self._config, seed=3, noise=_NOISE
        )
        assert base.fingerprint() != noisy.fingerprint()

    def test_trivial_noise_is_identity_neutral(self):
        base = ExperimentSpec(kind="variance", config=self._config, seed=3)
        trivial = ExperimentSpec(
            kind="variance",
            config=self._config,
            seed=3,
            noise={"default": {"name": "bit_flip", "probability": 0.0}},
        )
        assert trivial.noise is None
        assert base.fingerprint() == trivial.fingerprint()

    def test_spec_override_matches_config_field(self):
        from dataclasses import replace

        via_spec = ExperimentSpec(
            kind="variance", config=self._config, seed=3, noise=_NOISE
        )
        via_config = ExperimentSpec(
            kind="variance",
            config=replace(self._config, noise=dict(_NOISE)),
            seed=3,
        )
        assert via_spec.fingerprint() == via_config.fingerprint()

    def test_noise_round_trips_through_json(self):
        spec = ExperimentSpec(
            kind="training", config=_TRAIN_CONFIG, seed=1, noise=_NOISE
        )
        rebuilt = ExperimentSpec.from_json(json.dumps(spec.to_dict()))
        assert rebuilt.noise == spec.noise
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_rejects_malformed_noise_payload(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                kind="variance",
                config=self._config,
                noise={"default": {"name": "cosmic_ray"}},
            )

    def test_unit_fingerprints_distinguish_noise(self):
        from repro.core.spec import plan_experiment

        def unit_keys(noise):
            spec = ExperimentSpec(
                kind="variance", config=self._config, seed=3, noise=noise
            )
            return set(plan_experiment(spec).unit_fingerprints.values())

        assert not unit_keys(None) & unit_keys(_NOISE)


class TestNoisyExecution:
    """A noisy spec runs end-to-end through every executor, bit-identically."""

    _config = VarianceConfig(
        qubit_counts=(2, 3),
        num_circuits=3,
        num_layers=2,
        methods=("random", "xavier_normal"),
        noise={
            "default": {"name": "depolarizing", "probability": 0.02},
            "readout_error": 0.0,
        },
    )

    def _outcome(self, **kwargs):
        spec = ExperimentSpec(
            kind="variance", config=self._config, seed=7, **kwargs
        )
        return repro.run(spec)

    def test_executors_agree_bit_identically(self):
        serial = self._outcome(executor="serial")
        batched = self._outcome(executor="batched")
        pooled = self._outcome(executor="process_pool", workers=2)
        asynced = self._outcome(executor="async")
        for other in (batched, pooled, asynced):
            for method in serial.result.methods:
                assert np.array_equal(
                    serial.result.variance_series(method),
                    other.result.variance_series(method),
                )

    def test_noise_changes_the_physics(self):
        from dataclasses import replace

        noiseless = ExperimentSpec(
            kind="variance",
            config=replace(self._config, noise=None),
            seed=7,
        )
        ideal = repro.run(noiseless)
        noisy = self._outcome()
        assert not np.array_equal(
            ideal.result.variance_series("random"),
            noisy.result.variance_series("random"),
        )

    def test_noisy_training_spec_runs(self):
        config = TrainingConfig(
            num_qubits=2,
            num_layers=1,
            iterations=2,
            noise={"default": {"name": "phase_damping", "gamma": 0.05}},
        )
        spec = ExperimentSpec(
            kind="training", config=config, seed=1, methods=("random",)
        )
        outcome = repro.run(spec)
        assert "random" in outcome.histories

    def test_noisy_training_lockstep_runs(self):
        config = TrainingConfig(
            num_qubits=2,
            num_layers=1,
            iterations=2,
            noise={"default": {"name": "depolarizing", "probability": 0.02}},
        )
        spec = ExperimentSpec(
            kind="training",
            config=config,
            seed=1,
            methods=("random",),
            executor="lockstep",
        )
        serial = repro.run(
            ExperimentSpec(
                kind="training", config=config, seed=1, methods=("random",)
            )
        )
        lockstep = repro.run(spec)
        assert "random" in lockstep.histories
        assert serial.histories["random"].losses == pytest.approx(
            lockstep.histories["random"].losses
        )
