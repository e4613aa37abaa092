"""Unit tests for the variance-analysis engine."""

import numpy as np
import pytest

import oracles
from repro.core.variance import (
    VarianceAnalysis,
    VarianceConfig,
    merge_variance_outputs,
    plan_variance_shards,
    run_variance_shard,
)
from repro.initializers import FanMode


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
        # (see the VarianceConfig docstring and DESIGN.md §5b).
        assert config.num_layers == 30
        assert "random" in config.methods
        assert "orthogonal" in config.methods

    def test_rejects_empty_qubits(self):
        with pytest.raises(ValueError):
            VarianceConfig(qubit_counts=())

    def test_rejects_repeated_qubit_counts(self):
        with pytest.raises(ValueError, match="must not repeat a count"):
            VarianceConfig(qubit_counts=(3, 4, 3))

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

    def test_stores_canonical_names(self):
        config = _tiny_config(
            methods=["Random", "XAVIER", "glorot_uniform"],
            method_kwargs={"Xavier_Normal": {"fan_mode": FanMode.PARAMS_PER_LAYER}},
        )
        assert config.methods == ("random", "xavier_normal", "xavier_uniform")
        assert list(config.method_kwargs) == ["xavier_normal"]
        initializer = config.build_initializers()["xavier_normal"]
        assert initializer.fan_mode is FanMode.PARAMS_PER_LAYER

    @pytest.mark.parametrize(
        "field, value",
        [
            ("methods", ("random", "Random")),
            ("methods", ("xavier", "xavier_normal")),
            ("method_kwargs", {"he": {}, "HE_NORMAL": {}}),
        ],
        ids=["case", "alias", "kwargs"],
    )
    def test_rejects_a_method_named_twice(self, field, value):
        with pytest.raises(ValueError, match=f"{field} names initializer"):
            _tiny_config(**{field: value})

    def test_rejects_a_bare_method_name(self):
        with pytest.raises(ValueError, match="methods must be a list"):
            _tiny_config(methods="random")

    def test_rejects_non_dict_method_kwargs(self):
        with pytest.raises(ValueError, match="method_kwargs must map"):
            _tiny_config(method_kwargs=[("random", {})])


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


def _oracle_result(config, seed):
    """The grid from ``oracles.variance_shard``, the per-method loop."""
    shards = plan_variance_shards(config, seed)
    return merge_variance_outputs(
        config, [oracles.variance_shard(config, shard) for shard in shards]
    )


def _sliced_result(config, seed, circuits_per_shard):
    """The grid from ``run_variance_shard`` on shards of a given size."""
    shards = plan_variance_shards(config, seed, circuits_per_shard)
    return merge_variance_outputs(
        config, [run_variance_shard(config, shard) for shard in shards]
    )


def _assert_same_grid(result, reference, fused=False):
    """Equal gradient grids: bit for bit, or within ``oracles.FUSED_ATOL``
    when ``reference`` is the gate-by-gate oracle of analytic circuits
    whose rotation slots the engine fuses (``fused``)."""
    assert set(result.samples) == set(reference.samples)
    for key in result.samples:
        oracles.assert_oracle_match(
            result.samples[key].gradients, reference.samples[key].gradients, fused
        )


class TestBatchedExecution:
    """Folding every method's draws and shift terms is a pure throughput
    change: the per-method shift loop gives the same values (within
    ``oracles.FUSED_ATOL``, since the engine fuses rotation slots and the
    loop does not), and every executor the same bits."""

    def test_batched_bit_identical_to_sequential(self):
        import repro
        from repro.core.spec import ExperimentSpec

        config = _tiny_config(
            methods=("random", "xavier_normal", "he_normal"), num_circuits=6
        )
        # ``batched`` survives as an alias of the serial executor.
        spec = ExperimentSpec(
            kind="variance", config=config, seed=42, executor="batched"
        )
        result = repro.run(spec).result
        _assert_same_grid(result, VarianceAnalysis(config).run(seed=42))
        _assert_same_grid(result, _oracle_result(config, 42), fused=True)

    @pytest.mark.parametrize("cost_kind", ["global", "local"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_bit_identity_across_configurations(self, cost_kind, position):
        config = _tiny_config(
            num_circuits=4, cost_kind=cost_kind, param_position=position
        )
        _assert_same_grid(
            VarianceAnalysis(config).run(seed=7),
            _oracle_result(config, 7),
            fused=True,
        )


class TestShapeFold:
    """The shape-keyed mega-batch fold: same results, bigger batches."""

    def test_fold_scopes_bit_identical(self):
        config = _tiny_config(
            methods=("random", "xavier_normal", "he_normal"), num_circuits=6
        )
        # Shards of two circuits fold smaller buckets; same bits again.
        whole = VarianceAnalysis(config).run(seed=42)
        _assert_same_grid(whole, _oracle_result(config, 42), fused=True)
        _assert_same_grid(_sliced_result(config, 42, 2), whole)

    @pytest.mark.parametrize("cost_kind", ["global", "local"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_fold_identity_across_configurations(self, cost_kind, position):
        config = _tiny_config(
            num_circuits=4, cost_kind=cost_kind, param_position=position
        )
        # One-circuit shards: every structure is its own bucket.
        sliced = _sliced_result(config, 7, 1)
        _assert_same_grid(sliced, VarianceAnalysis(config).run(seed=7))
        _assert_same_grid(sliced, _oracle_result(config, 7), fused=True)

    def test_sampled_fold_bit_identical(self):
        config = _tiny_config(num_circuits=4, shots=32)
        _assert_same_grid(
            VarianceAnalysis(config).run(seed=9), _oracle_result(config, 9)
        )


_NOISE = {
    "default": {"name": "depolarizing", "probability": 0.01},
    "readout_error": 0.02,
}
# Slots mix RX, RY and RZ rows, so a bucket's slot rows carry different
# channels under this model (RZ rows none).
_PER_GATE_NOISE = {
    "default": {"name": "depolarizing", "probability": 0.01},
    "per_gate": {"RZ": None, "CZ": {"name": "amplitude_damping", "gamma": 0.03}},
}


class TestOracleShard:
    """``run_variance_shard`` carries the per-method shift loop's bits."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"cost_kind": "local"},
            {"cost_kind": "local", "param_position": "first"},
            {"param_position": "middle"},
            {"shots": 64},
            {"noise": _NOISE, "qubit_counts": (2, 3)},
            {"noise": _NOISE, "shots": 32, "qubit_counts": (2, 3)},
            {"noise": _PER_GATE_NOISE, "qubit_counts": (2, 3)},
            # Circuit shapes: pools of one to three rotations (a repeated
            # name weights the draw), every pattern, CZ and CNOT.
            {"gate_pool": ("RX",)},
            {"gate_pool": ("RX", "RX", "RZ"), "param_position": "first"},
            {"gate_pool": ("ry", "RZ"), "entanglement": "ring", "entangler": "CNOT"},
            {"entanglement": "full", "entangler": "cnot", "param_position": "middle"},
            {"entanglement": "none", "shots": 64, "qubit_counts": (1, 2, 5)},
            {"gate_pool": ("RX", "RY"), "entanglement": "ring", "shots": 64},
            {"noise": _PER_GATE_NOISE, "gate_pool": ("RX", "RX", "RZ"), "qubit_counts": (1, 3)},
            {
                "noise": _PER_GATE_NOISE,
                "entangler": "CNOT",
                "param_position": "first",
                "qubit_counts": (2, 3),
            },
        ],
        ids=[
            "global", "local", "first", "middle", "shots", "noise",
            "noise-shots", "noise-per-gate", "pool-1", "pool-repeat-first",
            "ring-cnot", "full-middle", "none-shots", "ring-shots",
            "noise-repeat", "noise-cnot-first",
        ],
    )
    def test_shard_equals_oracle(self, overrides):
        settings = dict(
            qubit_counts=(2, 4, 6),
            num_circuits=4,
            num_layers=8,
            methods=("random", "xavier_normal", "he_normal", "orthogonal"),
        )
        settings.update(overrides)
        config = VarianceConfig(**settings)
        # A shard's seed sequences count their spawned children, so each
        # run plans its own shards.
        expected = [
            oracles.variance_shard(config, shard)
            for shard in plan_variance_shards(config, 88)
        ]
        actual = [
            run_variance_shard(config, shard)
            for shard in plan_variance_shards(config, 88)
        ]
        assert [(r["num_qubits"], r["start"]) for r in actual] == [
            (r["num_qubits"], r["start"]) for r in expected
        ]
        # Analytic noiseless shards fuse rotation slots; the sampled draws
        # and the Pauli-transfer program keep the loop's bits.
        fused = config.shots is None and config.noise is None
        for got, want in zip(actual, expected):
            for method in config.methods:
                oracles.assert_oracle_match(
                    got["gradients"][method], want["gradients"][method], fused
                )


class TestShardPlan:
    """A shard draws gate codes and runs one plan over its skeleton: no
    circuit per structure, one plan and one cost per shard."""

    def test_one_plan_and_one_cost_per_shard(self, monkeypatch):
        import repro.core.variance as vmod
        from repro.ansatz.random_pqc import RandomPQC
        from repro.backend.simulator import MegaBatchPlan

        calls = {"plan": 0, "cost": 0, "init": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def no_build(self):
            raise AssertionError("a shard built a circuit")

        monkeypatch.setattr(MegaBatchPlan, "__init__", counted("plan", MegaBatchPlan.__init__))
        monkeypatch.setattr(RandomPQC, "__init__", counted("init", RandomPQC.__init__))
        monkeypatch.setattr(RandomPQC, "build", no_build)
        monkeypatch.setattr(vmod, "make_cost", counted("cost", vmod.make_cost))
        config = _tiny_config()
        shards = plan_variance_shards(config, 5, circuits_per_shard=3)
        for shard in shards:
            run_variance_shard(config, shard)
        assert calls == {
            "plan": len(shards),
            "cost": len(shards),
            "init": config.num_circuits * len(config.qubit_counts),
        }


class TestShardValidation:
    def test_rejects_nonpositive_circuits_per_shard(self):
        from repro.core.variance import plan_variance_shards

        config = _tiny_config()
        for bad in (0, -3):
            with pytest.raises(ValueError, match="circuits_per_shard"):
                plan_variance_shards(config, seed=0, circuits_per_shard=bad)
