"""Unit tests for the randomly-structured variance-analysis PQC (Eq. 2)."""

import pytest

from repro.ansatz import DEFAULT_GATE_POOL, RandomPQC


class TestStructureSampling:
    def test_structure_shape(self):
        pqc = RandomPQC(num_qubits=4, num_layers=6, seed=0)
        assert len(pqc.structure) == 6
        assert all(len(row) == 4 for row in pqc.structure)

    def test_structure_from_pool(self):
        pqc = RandomPQC(num_qubits=5, num_layers=10, seed=1)
        for row in pqc.structure:
            for name in row:
                assert name in DEFAULT_GATE_POOL

    def test_seed_reproducibility(self):
        a = RandomPQC(num_qubits=3, num_layers=5, seed=7)
        b = RandomPQC(num_qubits=3, num_layers=5, seed=7)
        assert a.structure == b.structure

    def test_different_seeds_differ(self):
        a = RandomPQC(num_qubits=5, num_layers=20, seed=1)
        b = RandomPQC(num_qubits=5, num_layers=20, seed=2)
        assert a.structure != b.structure

    def test_all_pool_gates_appear_eventually(self):
        pqc = RandomPQC(num_qubits=10, num_layers=30, seed=3)
        seen = {name for row in pqc.structure for name in row}
        assert seen == set(DEFAULT_GATE_POOL)

    def test_custom_pool(self):
        pqc = RandomPQC(num_qubits=3, num_layers=5, gate_pool=("RY",), seed=0)
        assert all(name == "RY" for row in pqc.structure for name in row)


class TestExplicitStructure:
    def test_explicit_structure_used(self):
        structure = [["RX", "RY"], ["RZ", "RX"]]
        pqc = RandomPQC(num_qubits=2, num_layers=2, structure=structure)
        assert pqc.structure == structure
        names = [
            op.gate.name for op in pqc.build().operations if op.is_parametric
        ]
        assert names == ["RX", "RY", "RZ", "RX"]

    def test_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError):
            RandomPQC(num_qubits=2, num_layers=2, structure=[["RX", "RY"]])

    def test_rejects_gate_outside_pool(self):
        with pytest.raises(ValueError):
            RandomPQC(
                num_qubits=1,
                num_layers=1,
                gate_pool=("RX",),
                structure=[["RY"]],
            )


class TestBuild:
    def test_parameter_count(self):
        pqc = RandomPQC(num_qubits=4, num_layers=7, seed=0)
        assert pqc.build().num_parameters == 28
        assert pqc.num_parameters == 28

    def test_entanglement_per_layer(self):
        pqc = RandomPQC(num_qubits=4, num_layers=3, seed=0)
        counts = pqc.build().gate_counts()
        assert counts.get("CZ", 0) == 9  # 3 pairs x 3 layers

    def test_params_per_qubit_is_one(self):
        assert RandomPQC(num_qubits=2, num_layers=1, seed=0).params_per_qubit == 1

    def test_last_gate(self):
        pqc = RandomPQC(
            num_qubits=2, num_layers=2, structure=[["RX", "RY"], ["RZ", "RX"]]
        )
        assert pqc.last_gate == "RX"

    def test_build_matches_structure_order(self):
        pqc = RandomPQC(num_qubits=3, num_layers=2, seed=11)
        ops = [op for op in pqc.build().operations if op.is_parametric]
        expected = [name for row in pqc.structure for name in row]
        assert [op.gate.name for op in ops] == expected

    def test_validation_of_pool(self):
        with pytest.raises(ValueError):
            RandomPQC(num_qubits=2, num_layers=1, gate_pool=("H",))
        with pytest.raises(ValueError):
            RandomPQC(num_qubits=2, num_layers=1, gate_pool=())


class TestSkeletonBuild:
    """Skeleton-cached builds equal ordinary append-built circuits."""

    def test_build_matches_append_path(self):
        from repro.ansatz.entanglement import apply_entanglement
        from repro.backend.circuit import QuantumCircuit

        pqc = RandomPQC(num_qubits=3, num_layers=4, seed=5)
        built = pqc.build()
        reference = QuantumCircuit(3)
        for layer in pqc.structure:
            for qubit, gate_name in enumerate(layer):
                reference.append(gate_name, [qubit])
            apply_entanglement(reference, pqc.entanglement, pqc.entangler)
        assert built.num_parameters == reference.num_parameters
        assert built.operations == reference.operations

    def test_repeated_builds_independent(self):
        pqc = RandomPQC(num_qubits=2, num_layers=2, seed=1)
        a, b = pqc.build(), pqc.build()
        assert a is not b
        assert a.operations == b.operations
        a.rx(0)  # mutating one copy must not leak into the other
        assert len(a.operations) == len(b.operations) + 1

    def test_fixed_operations_shared_across_structures(self):
        a = RandomPQC(num_qubits=3, num_layers=2, seed=1).build()
        b = RandomPQC(num_qubits=3, num_layers=2, seed=2).build()
        for op_a, op_b in zip(a.operations, b.operations):
            if not op_a.is_trainable:
                assert op_a is op_b

    def test_skeleton_shared_across_draws(self):
        skeletons = [RandomPQC(3, 4, seed=s).skeleton() for s in range(6)]
        for skeleton in skeletons[1:]:
            assert skeleton.operations == skeletons[0].operations
            assert skeleton is not skeletons[0]

    def test_skeleton_distinguishes_configs(self):
        base = RandomPQC(3, 4, seed=0).skeleton().operations
        assert RandomPQC(3, 4, entanglement="ring", seed=0).skeleton().operations != base
        assert RandomPQC(3, 4, entangler="CX", seed=0).skeleton().operations != base

    def test_codes_index_the_pool(self):
        pqc = RandomPQC(3, 4, gate_pool=("RX", "RX", "RZ"), seed=5)
        assert pqc.codes.shape == (4, 3)
        assert pqc.structure == [[pqc.gate_pool[c] for c in row] for row in pqc.codes]
        explicit = RandomPQC(2, 1, gate_pool=("rx", "RX", "RZ"), structure=[["RX", "rz"]])
        assert explicit.codes.tolist() == [[0, 2]]
        assert explicit.structure == [["RX", "RZ"]]

    def test_first_build_does_not_alias_cache(self):
        """Mutating the very first build of a configuration must not
        poison the skeleton cache for later builds."""
        from repro.ansatz import random_pqc as module

        config = dict(num_qubits=2, num_layers=3, entanglement="ring")
        key = (2, 3, "ring", "CZ")
        module._SKELETON_CACHE.pop(key, None)
        first = RandomPQC(seed=1, **config).build()
        first.rx(0)  # caller mutation of the cache-miss build
        later = RandomPQC(seed=2, **config).build()
        pqc = RandomPQC(seed=2, **config)
        from repro.ansatz.entanglement import apply_entanglement
        from repro.backend.circuit import QuantumCircuit

        reference = QuantumCircuit(2)
        for layer in pqc.structure:
            for qubit, gate_name in enumerate(layer):
                reference.append(gate_name, [qubit])
            apply_entanglement(reference, pqc.entanglement, pqc.entangler)
        assert later.operations == reference.operations
        assert later.num_parameters == reference.num_parameters
