"""Tests for shape-keyed mega-batched execution and gradients.

The contract under test everywhere: folding many same-shape circuits into
one stacked execution is a pure throughput change — every row carries the
same values as running its own circuit through the per-circuit batched
(and sequential) paths.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ansatz.random_pqc import RandomPQC, circuit_shape_key
from repro.backend.circuit import QuantumCircuit
from repro.backend.gradients import (
    batch_adjoint_gradient,
    batch_parameter_shift,
    megabatch_adjoint_gradient,
    megabatch_parameter_shift,
    parameter_shift,
)
from repro.backend.observables import total_z, zero_projector
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.backend.statevector import Statevector
from repro.utils.array_api import DEVICE_ATOL, DEVICE_RTOL
from repro.utils.rng import spawn_seeds


def _random_bucket(num_circuits=5, num_qubits=3, num_layers=4, seed=0):
    """Same-shape RandomPQC circuits plus per-circuit parameter stacks."""
    rng = np.random.default_rng(seed)
    circuits = [
        RandomPQC(num_qubits, num_layers, seed=int(rng.integers(2**31))).build()
        for _ in range(num_circuits)
    ]
    batches = [
        rng.normal(size=(3, circuits[0].num_parameters)) for _ in circuits
    ]
    return circuits, batches


class TestShapeKey:
    def test_same_config_same_key(self):
        a = RandomPQC(3, 4, seed=0)
        b = RandomPQC(3, 4, seed=99)
        assert circuit_shape_key(a.build()) == circuit_shape_key(b.build())

    def test_different_width_differs(self):
        key_a = circuit_shape_key(RandomPQC(3, 4, seed=0).build())
        key_b = circuit_shape_key(RandomPQC(4, 4, seed=0).build())
        assert key_a != key_b

    def test_different_depth_differs(self):
        key_a = circuit_shape_key(RandomPQC(3, 4, seed=0).build())
        key_b = circuit_shape_key(RandomPQC(3, 5, seed=0).build())
        assert key_a != key_b

    def test_gate_choice_does_not_enter_key(self):
        rx = RandomPQC(2, 2, structure=[["RX", "RX"], ["RX", "RX"]]).build()
        rz = RandomPQC(2, 2, structure=[["RZ", "RY"], ["RY", "RZ"]]).build()
        assert circuit_shape_key(rx) == circuit_shape_key(rz)

    def test_bound_value_enters_key(self):
        a = QuantumCircuit(2).rx(0, value=0.5).cz(0, 1)
        b = QuantumCircuit(2).rx(0, value=0.7).cz(0, 1)
        assert circuit_shape_key(a) != circuit_shape_key(b)


class TestMegaBatchPlan:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MegaBatchPlan([])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            MegaBatchPlan(
                [RandomPQC(2, 2, seed=0).build(), RandomPQC(3, 2, seed=0).build()]
            )

    def test_rejects_depth_mismatch(self):
        with pytest.raises(ValueError, match="operations"):
            MegaBatchPlan(
                [RandomPQC(2, 2, seed=0).build(), RandomPQC(2, 3, seed=0).build()]
            )

    def test_rejects_fixed_op_mismatch(self):
        a = QuantumCircuit(2).rx(0).cz(0, 1)
        b = QuantumCircuit(2).rx(0).cx(0, 1)
        with pytest.raises(ValueError, match="fixed operation"):
            MegaBatchPlan([a, b])

    def test_rejects_trainable_wire_mismatch(self):
        a = QuantumCircuit(2).rx(0)
        b = QuantumCircuit(2).rx(1)
        with pytest.raises(ValueError, match="trainable slot"):
            MegaBatchPlan([a, b])

    def test_slot_gate_tables(self):
        a = RandomPQC(2, 1, structure=[["RX", "RZ"]]).build()
        b = RandomPQC(2, 1, structure=[["RY", "RZ"]]).build()
        plan = MegaBatchPlan([a, b])
        gates, codes = plan.slot_gates[0]
        assert [g.name for g in gates] == ["RX", "RY"]
        assert codes.tolist() == [0, 1]
        gates, codes = plan.slot_gates[1]
        assert [g.name for g in gates] == ["RZ"]
        assert codes.tolist() == [0, 0]

    def test_entangler_chain_fuses(self):
        circuits = [RandomPQC(4, 3, seed=s).build() for s in (0, 1)]
        plan = MegaBatchPlan(circuits)
        fused = [step for step in plan.steps if step[0] == "fused_diag"]
        # One fused run per layer covering the whole CZ chain.
        assert len(fused) == 3
        for kind, lo, hi, diagonal in fused:
            assert hi - lo == 3  # 3 CZ pairs on 4 qubits
            assert diagonal.shape == (2**4,)
            assert np.all(np.isin(diagonal, [1.0 + 0j, -1.0 + 0j]))

    def test_non_unit_diagonal_not_fused(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0)
        circuit.append("T", [0])  # diagonal but entries exp(i pi/4)
        plan = MegaBatchPlan([circuit, circuit.copy()])
        assert all(step[0] != "fused_diag" for step in plan.steps)


class TestRunMegabatch:
    def test_rows_match_run_batch(self):
        circuits, batches = _random_bucket()
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        params = np.concatenate(batches)
        rows = np.repeat(np.arange(len(circuits)), 3)
        states = simulator.run_megabatch(plan, params, rows)
        for s, batch in enumerate(batches):
            expected = simulator.run_batch(circuits[s], batch)
            assert np.array_equal(states[rows == s], expected), s

    def test_single_row_matches_run(self):
        circuits, batches = _random_bucket(num_circuits=2)
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        state = simulator.run_megabatch(plan, batches[1][:1], [1])
        expected = simulator.run(circuits[1], batches[1][0])
        assert np.array_equal(state[0], expected.data)

    def test_start_stop_composes(self):
        circuits, batches = _random_bucket(num_qubits=2, num_layers=3)
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        params = np.concatenate(batches)
        rows = np.repeat(np.arange(len(circuits)), 3)
        full = simulator.run_megabatch(plan, params, rows)
        # Split at a trainable position (never inside a fused run).
        split = max(
            pos for pos, op in enumerate(plan.template.operations)
            if op.is_trainable
        )
        prefix = simulator.run_megabatch(plan, params, rows, stop=split)
        resumed = simulator.run_megabatch(
            plan, params, rows, prefix, start=split
        )
        assert np.array_equal(full, resumed)

    def test_mid_fused_run_split_raises(self):
        circuits, _ = _random_bucket(num_qubits=4, num_layers=1)
        plan = MegaBatchPlan(circuits)
        fused = next(step for step in plan.steps if step[0] == "fused_diag")
        simulator = StatevectorSimulator()
        params = np.zeros((1, plan.num_parameters))
        with pytest.raises(ValueError, match="splits the fused"):
            simulator.run_megabatch(plan, params, [0], stop=fused[1] + 1)

    def test_rejects_bad_row_index(self):
        circuits, batches = _random_bucket(num_circuits=2)
        plan = MegaBatchPlan(circuits)
        with pytest.raises(ValueError, match="row_circuits"):
            StatevectorSimulator().run_megabatch(plan, batches[0], [0, 0, 2])

    def test_rejects_row_count_mismatch(self):
        circuits, batches = _random_bucket(num_circuits=2)
        plan = MegaBatchPlan(circuits)
        with pytest.raises(ValueError, match="row-circuit indices"):
            StatevectorSimulator().run_megabatch(plan, batches[0], [0])

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, monkeypatch, delta):
        """Rows at/straddling the chunk boundary evolve identically."""
        circuits, _ = _random_bucket(num_circuits=3, num_qubits=3)
        plan = MegaBatchPlan(circuits)
        simulator = StatevectorSimulator()
        chunk_rows = 4
        batch = chunk_rows + delta
        rng = np.random.default_rng(7)
        params = rng.normal(size=(batch, plan.num_parameters))
        rows = rng.integers(3, size=batch)
        unchunked = simulator.run_megabatch(plan, params, rows)
        # run_megabatch chunks against its backend's own budget.
        monkeypatch.setattr(
            simulator.backend, "chunk_bytes", 16 * 2**3 * chunk_rows
        )
        chunked = simulator.run_megabatch(plan, params, rows)
        assert np.array_equal(chunked, unchunked)


def _backends():
    params = [pytest.param(name, id=name) for name in ("numpy", "loopback")]
    for name in ("torch", "cupy"):
        marks = []
        if importlib.util.find_spec(name) is None:
            marks.append(
                pytest.mark.skip(reason=f"optional namespace {name!r} not installed")
            )
        params.append(pytest.param(name, id=name, marks=marks))
    return params


class TestMixedSlots:
    """Every slot mixes dense and diagonal rows in every chunk.

    Such a slot is one dense kernel call over a per-row table of every
    row's own gate, so no row's bits may depend on which gates its
    neighbours drew.  The chunk is shrunk to four rows, so eleven rows
    make three chunks with a short last one.  Numpy rows must equal their
    own circuit's ``run_batch`` row bit for bit; device backends match to
    device tolerance.
    """

    NUM_QUBITS = 3
    CHUNK_ROWS = 4
    #: Every chunk of four (and the last of three) holds all circuits.
    ROWS = [0, 1, 2, 0, 2, 1, 0, 1, 1, 2, 0]

    @pytest.fixture()
    def setup(self, monkeypatch, request):
        simulator = StatevectorSimulator(backend=request.param)
        monkeypatch.setattr(
            simulator.backend,
            "chunk_bytes",
            16 * 2**self.NUM_QUBITS * self.CHUNK_ROWS,
        )
        pool = ("RX", "RY", "RZ")
        circuits = [
            RandomPQC(
                self.NUM_QUBITS,
                4,
                structure=[
                    [pool[(c + layer + 2 * q) % 3] for q in range(self.NUM_QUBITS)]
                    for layer in range(4)
                ],
            ).build()
            for c in range(3)
        ]
        plan = MegaBatchPlan(circuits)
        for gates, _ in plan.slot_gates.values():
            assert len(gates) == 3  # RX, RY and RZ in every slot
        params = np.random.default_rng(29).normal(
            size=(len(self.ROWS), plan.num_parameters)
        )
        return simulator, plan, params

    def _check_rows(self, simulator, states, plan, params, initial=None):
        reference = StatevectorSimulator()
        assert states.shape == (len(self.ROWS), 2**self.NUM_QUBITS)
        for b, c in enumerate(self.ROWS):
            row = reference.run_batch(
                plan.circuit(c),
                params[b : b + 1],
                None if initial is None else Statevector(initial[b], validate=False),
            )[0]
            if simulator.backend.is_numpy:
                assert np.array_equal(states[b], row), b
            else:
                np.testing.assert_allclose(
                    states[b], row, rtol=DEVICE_RTOL, atol=DEVICE_ATOL
                )

    @pytest.mark.parametrize("setup", _backends(), indirect=True)
    def test_rows_match_their_circuits(self, setup):
        simulator, plan, params = setup
        states = simulator.run_megabatch(plan, params, self.ROWS)
        self._check_rows(simulator, states, plan, params)

    @pytest.mark.parametrize("setup", _backends(), indirect=True)
    def test_prefix_suffix_split(self, setup):
        simulator, plan, params = setup
        full = simulator.run_megabatch(plan, params, self.ROWS)
        slots = [
            pos
            for pos, op in enumerate(plan.template.operations)
            if op.is_trainable
        ]
        for split in (slots[1], slots[len(slots) // 2], slots[-1]):
            prefix = simulator._run_megabatch_data(
                plan, params, self.ROWS, stop=split
            )
            resumed = simulator.run_megabatch(
                plan, params, self.ROWS, prefix, start=split
            )
            if simulator.backend.is_numpy:
                assert np.array_equal(resumed, full), split
            else:
                np.testing.assert_allclose(
                    resumed, full, rtol=DEVICE_RTOL, atol=DEVICE_ATOL
                )

    @pytest.mark.parametrize("setup", _backends(), indirect=True)
    def test_per_row_initial_stack(self, setup):
        simulator, plan, params = setup
        rng = np.random.default_rng(31)
        shape = (len(self.ROWS), 2**self.NUM_QUBITS)
        initial = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        initial /= np.linalg.norm(initial, axis=1, keepdims=True)
        kept = initial.copy()
        states = simulator.run_megabatch(plan, params, self.ROWS, initial)
        self._check_rows(simulator, states, plan, params, initial)
        assert np.array_equal(initial, kept)  # read, never written


class TestFirstTouch:
    """The buffered loop takes few first-touch page faults.

    In a fresh process a 10-qubit bucket of 100 structures x 6 rows runs
    through ``megabatch_parameter_shift``.  With fresh stacks per gate
    group this took 67-82 k minor faults on a 2-core x86-64 VM (numpy
    2.4); running every chunk between two buffers takes about 10 k.
    """

    SCRIPT = textwrap.dedent(
        """
        import resource

        import numpy as np

        from repro.ansatz.random_pqc import RandomPQC
        from repro.backend.gradients import megabatch_parameter_shift
        from repro.backend.observables import zero_projector

        rng = np.random.default_rng(0)
        circuits = [
            RandomPQC(10, 6, seed=int(rng.integers(2**31))).build()
            for _ in range(100)
        ]
        batches = [rng.normal(size=(6, circuits[0].num_parameters)) for _ in circuits]
        index = [circuits[0].num_parameters - 1]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        megabatch_parameter_shift(
            circuits, zero_projector(10), batches, param_indices=index
        )
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="minor-fault counts are Linux's"
    )
    def test_fresh_process_megabatch_faults(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        faults = int(done.stdout.split()[-1])
        assert faults < 30_000, faults


class TestMegabatchParameterShift:
    def test_matches_batch_parameter_shift(self):
        circuits, batches = _random_bucket()
        observable = zero_projector(3)
        simulator = StatevectorSimulator()
        outs = megabatch_parameter_shift(
            circuits, observable, batches, simulator=simulator
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_parameter_shift(
                circuit, observable, batch, simulator=simulator
            )
            assert np.array_equal(out, expected)

    def test_matches_sequential_single_index(self):
        circuits, batches = _random_bucket(num_circuits=4)
        observable = total_z(3)
        simulator = StatevectorSimulator()
        index = circuits[0].num_parameters - 1
        outs = megabatch_parameter_shift(
            circuits, observable, batches, simulator=simulator,
            param_indices=[index],
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            for m, row in enumerate(batch):
                expected = parameter_shift(
                    circuit, observable, row, simulator=simulator,
                    param_indices=[index],
                )
                assert np.array_equal(out[m], expected)

    def test_sampled_matches_per_circuit(self):
        circuits, batches = _random_bucket(num_circuits=3)
        observable = zero_projector(3)
        simulator = StatevectorSimulator()
        index = circuits[0].num_parameters - 1
        seeds = spawn_seeds(123, sum(b.shape[0] for b in batches))
        outs = megabatch_parameter_shift(
            circuits, observable, batches, simulator=simulator,
            param_indices=[index], shots=64, seed=list(seeds),
        )
        cursor = 0
        for circuit, batch, out in zip(circuits, batches, outs):
            row_seeds = seeds[cursor : cursor + batch.shape[0]]
            cursor += batch.shape[0]
            expected = batch_parameter_shift(
                circuit, observable, batch, simulator=simulator,
                param_indices=[index], shots=64, seed=list(row_seeds),
            )
            assert np.array_equal(out, expected)

    def test_empty_indices(self):
        circuits, batches = _random_bucket(num_circuits=2)
        outs = megabatch_parameter_shift(
            circuits, zero_projector(3), batches, param_indices=[]
        )
        assert [out.shape for out in outs] == [(3, 0), (3, 0)]

    def test_rejects_mismatched_stack_count(self):
        circuits, batches = _random_bucket(num_circuits=2)
        with pytest.raises(ValueError, match="parameter stacks"):
            megabatch_parameter_shift(circuits, zero_projector(3), batches[:1])


class TestMegabatchAdjoint:
    def test_matches_batch_adjoint(self):
        circuits, batches = _random_bucket()
        observable = total_z(3)
        simulator = StatevectorSimulator()
        outs = megabatch_adjoint_gradient(
            circuits, observable, batches, simulator=simulator
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_adjoint_gradient(
                circuit, observable, batch, simulator=simulator
            )
            assert np.array_equal(out, expected), circuit

    def test_param_subset(self):
        circuits, batches = _random_bucket(num_circuits=3)
        observable = zero_projector(3)
        simulator = StatevectorSimulator()
        indices = [0, circuits[0].num_parameters - 1]
        outs = megabatch_adjoint_gradient(
            circuits, observable, batches, simulator=simulator,
            param_indices=indices,
        )
        for circuit, batch, out in zip(circuits, batches, outs):
            expected = batch_adjoint_gradient(
                circuit, observable, batch, simulator=simulator,
                param_indices=indices,
            )
            assert np.array_equal(out, expected)
