"""Batched shot sampling bench — lock-step vs one-trajectory sampled training.

Shot-based training estimates every loss and gradient from finite
measurement samples through the parameter-shift rule: at the paper's
10-qubit/5-layer configuration each trajectory costs ``1 + 2 * 100``
circuit executions per iteration.  The ``serial`` executor folds one
trajectory's evaluations per iteration (one work unit per trajectory);
the ``lockstep`` executor folds every trajectory's value and shift
evaluations into one chunked execution, applies measurement rotations
once per chunk, and draws row-wise counts from per-trajectory streams.
This bench runs the same panel spec on both executors through
``repro.run`` at a reduced iteration budget, prints the comparison,
emits ``BENCH_batched_shots.json`` at the repo root, and asserts:

* every method's sampled ``TrainingHistory`` is bit-identical between the
  executors (same spawned child seeds, same draws), and
* ``lockstep`` delivers at least a 3x end-to-end speedup over ``serial``.

A small smoke configuration of the same comparison is slow-marked for the
test-suite conventions in ``pytest.ini``::

    pytest benchmarks/bench_batched_shots.py -m slow --benchmark-only
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import format_table
from repro.core.spec import ExperimentSpec
from repro.core.training import TrainingConfig
from repro.utils import machine_context

NUM_QUBITS = 10
NUM_LAYERS = 5
ITERATIONS = 2
SHOTS = 128
SEED = 4177
#: 9 trajectories, mirroring the paper's method comparison.
METHODS = (
    "random",
    "xavier_normal",
    "xavier_uniform",
    "he_normal",
    "he_uniform",
    "lecun_normal",
    "lecun_uniform",
    "orthogonal",
    "truncated_normal",
)


def _train(config, methods, executor):
    spec = ExperimentSpec(
        kind="training",
        config=config,
        seed=SEED,
        methods=methods,
        executor=executor,
    )
    start = time.perf_counter()
    histories = repro.run(spec).histories
    return histories, time.perf_counter() - start


def _histories_identical(sequential, lockstep):
    if set(sequential) != set(lockstep):
        return False
    return all(
        sequential[m].losses == lockstep[m].losses
        and sequential[m].gradient_norms == lockstep[m].gradient_norms
        and np.array_equal(sequential[m].initial_params, lockstep[m].initial_params)
        and np.array_equal(sequential[m].final_params, lockstep[m].final_params)
        for m in sequential
    )


def _run():
    config = TrainingConfig(
        num_qubits=NUM_QUBITS,
        num_layers=NUM_LAYERS,
        iterations=ITERATIONS,
        shots=SHOTS,
    )
    sequential, sequential_time = _train(config, METHODS, "serial")
    lockstep, lockstep_time = _train(config, METHODS, "lockstep")
    return sequential, sequential_time, lockstep, lockstep_time


def test_batched_shot_training_speedup(run_once):
    sequential, sequential_time, lockstep, lockstep_time = run_once(_run)

    speedup = sequential_time / lockstep_time
    identical = _histories_identical(sequential, lockstep)
    params = 2 * NUM_QUBITS * NUM_LAYERS
    executions = len(METHODS) * (ITERATIONS + 1) * (1 + 2 * params)

    print()
    print("=" * 72)
    print("Batched vs sequential shot-based training (reduced Fig. 5b, sampled)")
    print(
        f"  qubits={NUM_QUBITS}, layers={NUM_LAYERS}, shots={SHOTS}, "
        f"iterations={ITERATIONS}, trajectories={len(METHODS)}"
    )
    print("=" * 72)
    print(
        format_table(
            ["mode", "sampled executions", "seconds", "speedup"],
            [
                [
                    "sequential",
                    str(executions),
                    f"{sequential_time:.2f}",
                    "1.0x",
                ],
                [
                    "batched",
                    f"{executions} (folded)",
                    f"{lockstep_time:.2f}",
                    f"{speedup:.2f}x",
                ],
            ],
        )
    )
    print(f"bit-identical sampled histories: {identical}")

    payload = {
        "config": {
            "num_qubits": NUM_QUBITS,
            "num_layers": NUM_LAYERS,
            "iterations": ITERATIONS,
            "shots": SHOTS,
            "methods": list(METHODS),
            "seed": SEED,
        },
        "trajectories": len(METHODS),
        "sampled_executions": executions,
        "sequential_seconds": sequential_time,
        "lockstep_seconds": lockstep_time,
        "speedup": speedup,
        "bit_identical": identical,
        "machine": machine_context(),
    }
    target = Path(__file__).resolve().parents[1] / "BENCH_batched_shots.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")

    # Batching must never change sampled results.
    assert identical, "batched sampled histories diverged from sequential"
    # The acceptance bar: >= 3x at the paper's 10-qubit/5-layer config.
    assert speedup >= 3.0, f"expected >= 3x speedup, got {speedup:.2f}x"


@pytest.mark.slow
def test_batched_shot_training_smoke(run_once):
    """Fast smoke configuration: identity only, no speedup bar."""
    config = TrainingConfig(
        num_qubits=4, num_layers=2, iterations=4, shots=32
    )
    methods = METHODS[:4]

    def _smoke():
        sequential, _ = _train(config, methods, "serial")
        lockstep, _ = _train(config, methods, "lockstep")
        return sequential, lockstep

    sequential, lockstep = run_once(_smoke)
    assert _histories_identical(sequential, lockstep)
