"""Unit tests for configuration sweeps."""

import numpy as np
import pytest

from repro.core.sweep import improvement_series, sweep_variance
from repro.core.variance import VarianceConfig

_BASE = VarianceConfig(
    qubit_counts=(2, 3),
    num_circuits=6,
    num_layers=4,
    methods=("random", "xavier_normal"),
)


class TestSweepVariance:
    def test_keys_match_values(self):
        outcomes = sweep_variance("num_layers", [2, 5], base_config=_BASE, seed=0)
        assert set(outcomes) == {2, 5}

    def test_swept_field_applied(self):
        outcomes = sweep_variance("num_circuits", [3, 7], base_config=_BASE, seed=1)
        assert outcomes[3].result.samples[(2, "random")].gradients.shape == (3,)
        assert outcomes[7].result.samples[(2, "random")].gradients.shape == (7,)

    def test_paired_sweep_shares_draws(self):
        """With the same swept value, paired runs are identical."""
        a = sweep_variance("num_layers", [3], base_config=_BASE, seed=5)
        b = sweep_variance("num_layers", [3], base_config=_BASE, seed=5)
        assert np.allclose(
            a[3].result.samples[(2, "random")].gradients,
            b[3].result.samples[(2, "random")].gradients,
        )

    def test_paired_values_share_structures(self):
        """cost_kind sweep with pairing: same circuits, different costs."""
        outcomes = sweep_variance(
            "cost_kind", ["global", "local"], base_config=_BASE, seed=2
        )
        g = outcomes["global"].result.samples[(2, "random")].gradients
        l = outcomes["local"].result.samples[(2, "random")].gradients
        # Same circuit structures but different observables: correlated
        # yet not equal.
        assert not np.allclose(g, l)

    def test_unpaired_runs_differ(self):
        paired = sweep_variance(
            "num_layers", [3, 3], base_config=_BASE, seed=3, paired=True
        )
        # dict collapses duplicate keys; use two distinct values instead.
        outcomes = sweep_variance(
            "num_circuits", [6, 6], base_config=_BASE, seed=3, paired=False
        )
        del paired
        assert set(outcomes) == {6}

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            sweep_variance("depth", [1], base_config=_BASE)

    def test_bad_value_fails_before_any_run(self, monkeypatch):
        """Invalid swept values are rejected eagerly, not mid-sweep."""
        import repro.core.variance as vmod

        calls = []
        original = vmod.run_variance_shard

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(vmod, "run_variance_shard", counting)
        with pytest.raises(ValueError):
            sweep_variance("num_circuits", [4, 0], base_config=_BASE, seed=0)
        assert calls == []  # the valid value 4 never burned a run


class TestSweepSpecNoise:
    """A sweep spec's ``noise`` overrides its base config's, as it does
    for variance and training specs."""

    _NOISE = {"default": {"name": "depolarizing", "probability": 0.2}}

    def _series(self, config, noise=None):
        from repro.core.spec import ExperimentSpec, run

        outcomes = run(
            ExperimentSpec(
                kind="sweep",
                config=config,
                seed=4,
                noise=noise,
                sweep_field="num_layers",
                sweep_values=[2, 3],
            )
        )
        return {
            (value, method): outcome.result.variance_series(method)
            for value, outcome in outcomes.items()
            for method in config.methods
        }

    def test_spec_noise_reaches_every_run(self):
        from dataclasses import replace

        spec_level = self._series(_BASE, noise=self._NOISE)
        in_config = self._series(replace(_BASE, noise=self._NOISE))
        clean = self._series(_BASE)
        assert spec_level.keys() == in_config.keys() == clean.keys()
        for key in spec_level:
            assert np.array_equal(spec_level[key], in_config[key]), key
        assert any(
            not np.array_equal(spec_level[key], clean[key]) for key in clean
        )


class TestSweepSpecReliability:
    """A sweep spec's ``retry`` and ``fault_plan`` reach every swept
    variance run, as they reach a variance spec's executor."""

    _BASE = dict(
        kind="sweep",
        config=_BASE,
        seed=4,
        sweep_field="num_layers",
        sweep_values=[2, 3],
    )

    @staticmethod
    def _faults(times):
        return {"units": {"#0": [{"kind": "transient", "times": times}]}}

    # One attempt cannot outlast even one fault; the default policy's
    # three attempts would absorb it.
    @pytest.mark.parametrize("times", [5, 1])
    def test_one_attempt_raises(self, times):
        from repro.core.spec import ExperimentSpec, run
        from repro.reliability import InjectedFault

        spec = ExperimentSpec(retry=1, fault_plan=self._faults(times), **self._BASE)
        with pytest.raises(InjectedFault):
            run(spec)

    def test_retries_outlast_the_faults_with_identical_results(self):
        from repro.core.spec import ExperimentSpec, run

        clean = run(ExperimentSpec(**self._BASE))
        faulty = run(
            ExperimentSpec(
                retry={"max_attempts": 4, "base_delay": 0.0},
                fault_plan=self._faults(3),
                **self._BASE,
            )
        )
        for value in clean:
            for method in _BASE.methods:
                assert np.array_equal(
                    clean[value].result.variance_series(method),
                    faulty[value].result.variance_series(method),
                )


class TestImprovementSeries:
    def test_extracts_improvements(self):
        outcomes = sweep_variance(
            "num_layers", [3, 6], base_config=_BASE, seed=4
        )
        series = improvement_series(outcomes, method="xavier_normal")
        assert set(series) == {3, 6}
        for value in series.values():
            assert value is None or isinstance(value, float)

    def test_type_check(self):
        with pytest.raises(TypeError):
            improvement_series({1: "oops"})
