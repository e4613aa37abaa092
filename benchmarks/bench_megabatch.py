"""Shape-keyed mega-batching bench — the paper's variance grid, folded.

The Fig. 5a workload samples many random circuit structures per (qubit
count, layer count) cell.  Every structure of a cell shares a circuit
shape, so a variance shard folds them all into mega-batched executions
whose batch size is ``structures x methods x shift terms`` (hundreds of
rows), with shared-prefix shift evaluation and fused entangler diagonals
on top.  This bench runs the paper's grid (2-10 qubits, 30 layers, 96
structures per cell), prints the seconds and rows per execution of each
width, emits ``BENCH_megabatch.json`` at the repo root, and asserts:

* the fold batches >= 100 rows per execution at small widths; and
* variance results are bit-identical across the serial / batched /
  process_pool executors and across checkpoint resume.

The seconds are a record, not a bar: ``perfbench``'s ``fig5a_paper``
workload is the timing authority for the variance grid.  A fast smoke
invocation (identity checks only, reduced grid) is exposed for CI::

    python benchmarks/bench_megabatch.py --smoke
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.analysis import format_table
from repro.backend.simulator import batch_chunk_rows
from repro.core import ExperimentSpec, VarianceConfig
from repro.core.variance import VarianceAnalysis
from repro.utils import machine_context

QUBIT_COUNTS = (2, 4, 6, 8, 10)
NUM_CIRCUITS = 96
NUM_LAYERS = 30
SEED = 4723
#: structures x methods x 2 shift terms rows folded per shape bucket.
METHODS = ("random", "xavier_normal", "he_normal", "xavier_uniform", "he_uniform")

#: Reduced grid for the executor/checkpoint identity section.
IDENTITY_QUBITS = (2, 3)
IDENTITY_CIRCUITS = 10
IDENTITY_LAYERS = 6


def _cell_config(num_qubits, num_circuits=NUM_CIRCUITS):
    return VarianceConfig(
        qubit_counts=(num_qubits,),
        num_circuits=num_circuits,
        num_layers=NUM_LAYERS,
        methods=METHODS,
    )


def _results_identical(a, b):
    if set(a.samples) != set(b.samples):
        return False
    return all(
        np.array_equal(a.samples[key].gradients, b.samples[key].gradients)
        for key in a.samples
    )


def _timed_cell(num_qubits, repeats=2):
    """Best-of-``repeats`` wall time for one grid cell.

    The first pass through a width pays one-off costs (skeleton caches,
    first-touch page faults on the large amplitude stacks); the best of
    two runs measures the steady state a long grid reaches.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        VarianceAnalysis(_cell_config(num_qubits)).run(seed=SEED)
        best = min(best, time.perf_counter() - start)
    return best


def _run_grid():
    """Time every grid cell of the shape-bucket fold."""
    return [
        {"num_qubits": num_qubits, "shape_seconds": _timed_cell(num_qubits)}
        for num_qubits in QUBIT_COUNTS
    ]


def _executor_identity(num_circuits=IDENTITY_CIRCUITS):
    """Bit-identity across executors and checkpoint resume (reduced grid)."""
    config = VarianceConfig(
        qubit_counts=IDENTITY_QUBITS,
        num_circuits=num_circuits,
        num_layers=IDENTITY_LAYERS,
        methods=METHODS[:3],
    )
    outcomes = {}
    for executor, workers in (("serial", 1), ("batched", 1), ("process_pool", 2)):
        spec = ExperimentSpec(
            kind="variance",
            config=config,
            seed=SEED,
            executor=executor,
            workers=workers,
        )
        outcomes[executor] = repro.run(spec).result
    executors_identical = all(
        _results_identical(outcomes["batched"], other)
        for other in outcomes.values()
    )
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        spec = ExperimentSpec(
            kind="variance",
            config=config,
            seed=SEED,
            executor="process_pool",
            workers=2,
            checkpoint_dir=checkpoint_dir,
            circuits_per_shard=4,
        )
        first = repro.run(spec).result
        # Every shard is checkpointed now; the second run must resume
        # from the files and still merge to the identical grid.
        resumed = repro.run(spec).result
    resume_identical = _results_identical(first, resumed) and _results_identical(
        first, outcomes["batched"]
    )
    return executors_identical, resume_identical


def _bucket_rows(num_qubits):
    """Folded rows per execution at this width (after chunking)."""
    rows = NUM_CIRCUITS * len(METHODS) * 2
    return min(rows, batch_chunk_rows(num_qubits))


def _report(per_width, executors_identical, resume_identical):
    total_shape = sum(cell["shape_seconds"] for cell in per_width)

    print()
    print("=" * 72)
    print("Shape-keyed mega-batching on the Fig. 5a grid")
    print(
        f"  circuits/cell={NUM_CIRCUITS}, layers={NUM_LAYERS}, "
        f"methods={len(METHODS)}, "
        f"bucket rows={NUM_CIRCUITS * len(METHODS) * 2}"
    )
    print("=" * 72)
    rows = [
        [
            str(cell["num_qubits"]),
            str(_bucket_rows(cell["num_qubits"])),
            f"{cell['shape_seconds']:.2f}",
        ]
        for cell in per_width
    ]
    rows.append(["all", "-", f"{total_shape:.2f}"])
    print(format_table(["qubits", "rows/exec", "mega-batch s"], rows))
    print(f"bit-identical executors (serial/batched/process_pool): {executors_identical}")
    print(f"bit-identical checkpoint resume: {resume_identical}")

    payload = {
        "grid": {
            "qubit_counts": list(QUBIT_COUNTS),
            "num_circuits": NUM_CIRCUITS,
            "num_layers": NUM_LAYERS,
            "methods": list(METHODS),
            "seed": SEED,
        },
        "bucket_rows": NUM_CIRCUITS * len(METHODS) * 2,
        "rows_per_execution": {
            str(cell["num_qubits"]): _bucket_rows(cell["num_qubits"])
            for cell in per_width
        },
        "per_width": per_width,
        "shape_seconds": total_shape,
        "bit_identical_executors": executors_identical,
        "bit_identical_resume": resume_identical,
        "smoke": False,
        "machine": machine_context(),
    }
    target = Path(__file__).resolve().parents[1] / "BENCH_megabatch.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    return payload


def test_megabatch_identity(run_once):
    per_width, executors_identical, resume_identical = run_once(
        lambda: (_run_grid(), *_executor_identity())
    )
    payload = _report(per_width, executors_identical, resume_identical)

    # Mega-batching must never change results, anywhere.
    assert payload["bit_identical_executors"], "executors diverged"
    assert payload["bit_identical_resume"], "checkpoint resume diverged"
    # The fold must actually reach into the hundreds at small widths.
    for num_qubits in QUBIT_COUNTS[:3]:
        assert _bucket_rows(num_qubits) >= 100, (
            f"expected >= 100 folded rows per execution at {num_qubits} "
            f"qubits, got {_bucket_rows(num_qubits)}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="identity checks only, tiny grid (the CI configuration); "
        "payload marked smoke",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        per_width = _run_grid()
        executors_identical, resume_identical = _executor_identity()
        payload = _report(per_width, executors_identical, resume_identical)
        assert payload["bit_identical_executors"]
        assert payload["bit_identical_resume"]
        return
    # Smoke: prove the identity contract end to end at toy scale.
    executors_identical, resume_identical = _executor_identity(num_circuits=6)
    print(
        f"[smoke] executor identity: {executors_identical}, "
        f"resume identity: {resume_identical}"
    )
    payload = {
        "smoke": True,
        "bit_identical_executors": executors_identical,
        "bit_identical_resume": resume_identical,
        "machine": machine_context(),
    }
    # A distinct file: the smoke payload must never clobber the canonical
    # full-run numbers recorded in BENCH_megabatch.json.
    target = Path(__file__).resolve().parents[1] / "BENCH_megabatch_smoke.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    assert executors_identical and resume_identical


if __name__ == "__main__":
    main()
