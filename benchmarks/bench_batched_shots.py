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

Run the full bench::

    python benchmarks/bench_batched_shots.py
    pytest benchmarks/bench_batched_shots.py -s

The CI smoke mode checks identity only (a 4-qubit, 2-layer, 32-shot
panel of four trajectories), writes the distinct
``BENCH_batched_shots_smoke.json`` and fails on any divergence::

    python benchmarks/bench_batched_shots.py --smoke
"""

import argparse
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

ROOT = Path(__file__).resolve().parents[1]

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


def _report(sequential, sequential_time, lockstep, lockstep_time):
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
    target = ROOT / "BENCH_batched_shots.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")

    # Batching must never change sampled results.
    assert identical, "batched sampled histories diverged from sequential"
    # The acceptance bar: >= 3x at the paper's 10-qubit/5-layer config.
    assert speedup >= 3.0, f"expected >= 3x speedup, got {speedup:.2f}x"


def _run_smoke():
    config = TrainingConfig(num_qubits=4, num_layers=2, iterations=4, shots=32)
    methods = METHODS[:4]
    sequential, _ = _train(config, methods, "serial")
    lockstep, _ = _train(config, methods, "lockstep")
    return {
        "smoke": True,
        "config": {
            "num_qubits": config.num_qubits,
            "num_layers": config.num_layers,
            "iterations": config.iterations,
            "shots": config.shots,
            "methods": list(methods),
            "seed": SEED,
        },
        "bit_identical": _histories_identical(sequential, lockstep),
        "machine": machine_context(),
    }


def test_batched_shot_training_speedup(run_once):
    _report(*run_once(_run))


@pytest.mark.slow
def test_batched_shot_training_smoke(run_once):
    """Fast smoke configuration: identity only, no speedup bar."""
    assert run_once(_run_smoke)["bit_identical"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="identity check only at toy scale (the CI configuration); "
        "writes BENCH_batched_shots_smoke.json",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        _report(*_run())
        return
    payload = _run_smoke()
    print(f"[smoke] serial vs lockstep sampled identity: {payload['bit_identical']}")
    # A distinct file: the smoke payload must never clobber the canonical
    # full-run numbers recorded in BENCH_batched_shots.json.
    target = ROOT / "BENCH_batched_shots_smoke.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    assert payload["bit_identical"], "lockstep sampled histories diverged from serial"


if __name__ == "__main__":
    main()
