"""Unit tests for the variance-analysis engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.variance import VarianceAnalysis, VarianceConfig


def _tiny_config(**overrides):
    defaults = dict(
        qubit_counts=(2, 3),
        num_circuits=8,
        num_layers=4,
        methods=("random", "xavier_normal"),
    )
    defaults.update(overrides)
    return VarianceConfig(**defaults)


class TestConfig:
    def test_paper_defaults(self):
        config = VarianceConfig()
        assert tuple(config.qubit_counts) == (2, 4, 6, 8, 10)
        assert config.num_circuits == 200
        # The paper leaves depth unstated; 30 is the documented default
        # (see the VarianceConfig docstring and EXPERIMENTS.md).
        assert config.num_layers == 30
        assert "random" in config.methods
        assert "orthogonal" in config.methods

    def test_rejects_empty_qubits(self):
        with pytest.raises(ValueError):
            VarianceConfig(qubit_counts=())

    def test_rejects_zero_circuits(self):
        with pytest.raises(ValueError):
            VarianceConfig(num_circuits=0)

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError):
            VarianceConfig(methods=())

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown initializer 'nosuch'"):
            VarianceConfig(methods=("random", "nosuch"))

    def test_build_initializers(self):
        config = _tiny_config(
            methods=("orthogonal",), method_kwargs={"orthogonal": {"gain": 2.0}}
        )
        inits = config.build_initializers()
        assert inits["orthogonal"].gain == pytest.approx(2.0)


class TestRun:
    def test_result_grid_complete(self):
        result = VarianceAnalysis(_tiny_config()).run(seed=0)
        assert result.qubit_counts == [2, 3]
        assert result.methods == ["random", "xavier_normal"]
        for q in (2, 3):
            for method in ("random", "xavier_normal"):
                samples = result.samples[(q, method)]
                assert samples.gradients.shape == (8,)

    def test_reproducible(self):
        config = _tiny_config()
        a = VarianceAnalysis(config).run(seed=42)
        b = VarianceAnalysis(config).run(seed=42)
        for key in a.samples:
            assert np.allclose(a.samples[key].gradients, b.samples[key].gradients)

    def test_different_seeds_differ(self):
        config = _tiny_config()
        a = VarianceAnalysis(config).run(seed=1)
        b = VarianceAnalysis(config).run(seed=2)
        assert not np.allclose(
            a.samples[(2, "random")].gradients,
            b.samples[(2, "random")].gradients,
        )

    def test_gradients_bounded(self):
        """Projector-cost gradients via parameter shift are bounded by 1."""
        result = VarianceAnalysis(_tiny_config()).run(seed=3)
        for samples in result.samples.values():
            assert np.all(np.abs(samples.gradients) <= 1.0 + 1e-12)

    def test_local_cost_variant(self):
        result = VarianceAnalysis(_tiny_config(cost_kind="local")).run(seed=4)
        assert result.variance_series("random").shape == (2,)

    def test_verbose_prints(self, capsys):
        VarianceAnalysis(_tiny_config(qubit_counts=(2,))).run(seed=0, verbose=True)
        assert "[variance] q=2" in capsys.readouterr().out

    def test_zeros_initializer_gives_degenerate_gradients(self):
        """With all-zero angles every instance gives the same gradient."""
        config = _tiny_config(methods=("zeros",), num_circuits=5)
        result = VarianceAnalysis(config).run(seed=5)
        grads = result.samples[(2, "zeros")].gradients
        # Structures differ (RX vs RY vs RZ last), but zero-angle circuits
        # are identity maps: p0 stays 1, so the parameter-shift gradient of
        # each instance is one of a few deterministic values; variance over
        # instances is small and finite.
        assert np.all(np.isfinite(grads))

    def test_variance_series_order(self):
        result = VarianceAnalysis(_tiny_config()).run(seed=6)
        series = result.variance_series("random")
        assert series[0] == result.samples[(2, "random")].variance
        assert series[1] == result.samples[(3, "random")].variance

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_param_position_variants_run(self, position):
        config = _tiny_config(param_position=position, num_circuits=4)
        result = VarianceAnalysis(config).run(seed=7)
        assert result.variance_series("random").shape == (2,)

    def test_param_positions_probe_different_gradients(self):
        first = VarianceAnalysis(
            _tiny_config(param_position="first")
        ).run(seed=8)
        last = VarianceAnalysis(
            _tiny_config(param_position="last")
        ).run(seed=8)
        assert not np.allclose(
            first.samples[(3, "random")].gradients,
            last.samples[(3, "random")].gradients,
        )

    def test_rejects_unknown_position(self):
        with pytest.raises(ValueError):
            _tiny_config(param_position="penultimate")


class TestBatchedExecution:
    """The batched hot path is a pure throughput change: same results."""

    def test_batched_is_default(self):
        assert VarianceConfig().batched is True

    def test_batched_bit_identical_to_sequential(self):
        config = _tiny_config(
            methods=("random", "xavier_normal", "he_normal"), num_circuits=6
        )
        batched = VarianceAnalysis(replace(config, batched=True)).run(seed=42)
        sequential = VarianceAnalysis(replace(config, batched=False)).run(seed=42)
        assert set(batched.samples) == set(sequential.samples)
        for key in batched.samples:
            assert np.array_equal(
                batched.samples[key].gradients, sequential.samples[key].gradients
            ), key

    @pytest.mark.parametrize("cost_kind", ["global", "local"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_bit_identity_across_configurations(self, cost_kind, position):
        config = _tiny_config(
            num_circuits=4, cost_kind=cost_kind, param_position=position
        )
        batched = VarianceAnalysis(replace(config, batched=True)).run(seed=7)
        sequential = VarianceAnalysis(replace(config, batched=False)).run(seed=7)
        for key in batched.samples:
            assert np.array_equal(
                batched.samples[key].gradients, sequential.samples[key].gradients
            )


class TestShapeFold:
    """The shape-keyed mega-batch fold: same results, bigger batches."""

    def test_shape_fold_is_default(self):
        assert VarianceConfig().fold == "shape"

    def test_rejects_unknown_fold(self):
        with pytest.raises(ValueError):
            _tiny_config(fold="circuit")

    def test_fold_scopes_bit_identical(self):
        config = _tiny_config(
            methods=("random", "xavier_normal", "he_normal"), num_circuits=6
        )
        shape = VarianceAnalysis(replace(config, fold="shape")).run(seed=42)
        structure = VarianceAnalysis(replace(config, fold="structure")).run(seed=42)
        sequential = VarianceAnalysis(replace(config, batched=False)).run(seed=42)
        assert set(shape.samples) == set(structure.samples)
        for key in shape.samples:
            assert np.array_equal(
                shape.samples[key].gradients, structure.samples[key].gradients
            ), key
            assert np.array_equal(
                shape.samples[key].gradients, sequential.samples[key].gradients
            ), key

    @pytest.mark.parametrize("cost_kind", ["global", "local"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_fold_identity_across_configurations(self, cost_kind, position):
        config = _tiny_config(
            num_circuits=4, cost_kind=cost_kind, param_position=position
        )
        shape = VarianceAnalysis(replace(config, fold="shape")).run(seed=7)
        structure = VarianceAnalysis(replace(config, fold="structure")).run(seed=7)
        for key in shape.samples:
            assert np.array_equal(
                shape.samples[key].gradients, structure.samples[key].gradients
            )

    def test_sampled_fold_bit_identical(self):
        config = _tiny_config(num_circuits=4, shots=32)
        shape = VarianceAnalysis(replace(config, fold="shape")).run(seed=9)
        sequential = VarianceAnalysis(replace(config, batched=False)).run(seed=9)
        for key in shape.samples:
            assert np.array_equal(
                shape.samples[key].gradients, sequential.samples[key].gradients
            )


class TestPlanShapeBuckets:
    def test_groups_in_first_appearance_order(self):
        from repro.core.variance import plan_shape_buckets

        buckets = plan_shape_buckets(["a", "b", "a", "c", "b", "a"])
        assert buckets == [[0, 2, 5], [1, 4], [3]]

    def test_empty(self):
        from repro.core.variance import plan_shape_buckets

        assert plan_shape_buckets([]) == []

    def test_variance_shard_buckets_cover_grid(self):
        """A shard's structures all share one shape -> one bucket."""
        from repro.ansatz.random_pqc import RandomPQC

        keys = [RandomPQC(3, 4, seed=s).shape_key for s in range(5)]
        from repro.core.variance import plan_shape_buckets

        assert plan_shape_buckets(keys) == [[0, 1, 2, 3, 4]]


class TestShardValidation:
    def test_rejects_nonpositive_circuits_per_shard(self):
        from repro.core.variance import plan_variance_shards

        config = _tiny_config()
        for bad in (0, -3):
            with pytest.raises(ValueError, match="circuits_per_shard"):
                plan_variance_shards(config, seed=0, circuits_per_shard=bad)
