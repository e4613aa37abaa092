"""Array-backend abstraction bench — refactored numpy kernels vs the seed.

The backend refactor threads every statevector kernel through a pluggable
array namespace (:mod:`repro.utils.array_api`).  The numpy path must stay
**free**: its per-call cost over the pre-refactor ("seed") kernels is one
``None``/``type`` dispatch check, and this bench holds that overhead to
<= 5% on the paper's heaviest cell — a 10-qubit, 30-layer RandomPQC sweep
over one full mega-batch chunk (``batch_chunk_rows(10)`` rows).

Three sections, all recorded in ``BENCH_device_backend.json``:

* **kernel sweep** — the bench carries verbatim copies of the seed
  ``apply_matrix`` / ``apply_diagonal`` (the only kernels the refactor
  touched on the hot path) and times the same 330-operation sweep
  through the seed copies and through the refactored kernels.  Outputs
  must be bit-identical (``np.array_equal``) and the refactored/seed
  time ratio <= 1.05;
* **end-to-end** — ``StatevectorSimulator()`` vs
  ``StatevectorSimulator(backend="numpy")`` on the same circuit: the
  explicit handle must be bit-identical and ratio-bounded too;
* **accelerators** — the same end-to-end workload on every optional
  namespace that is importable (``torch``, ``cupy``), with
  ``backend.synchronize()`` inside the timed region so asynchronous
  launch queues cannot flatter the numbers; a missing library records a
  skip entry instead of failing.

Fast CI invocation (tiny workload, distinct ``*_smoke.json``)::

    python benchmarks/bench_device_backend.py --smoke
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.ansatz.random_pqc import RandomPQC
from repro.backend.simulator import StatevectorSimulator, batch_chunk_rows
from repro.backend.statevector import _batch_size
from repro.utils import machine_context
from repro.utils.array_api import (
    DEVICE_ATOL,
    DEVICE_RTOL,
    array_backend_status,
    get_array_backend,
)

NUM_QUBITS = 10
NUM_LAYERS = 30
SEED = 90210
REPEATS = 5
#: The numpy path's overhead budget over the seed kernels.
MAX_OVERHEAD = 1.05
#: Optional namespaces the accelerator section probes.
ACCELERATORS = ("torch", "cupy")


# -- verbatim seed kernels -------------------------------------------------
# Copied from the pre-refactor src/repro/backend/statevector.py: the exact
# code the numpy path is held against.  The shared _batch_size helper is
# unchanged by the refactor, so the copies reuse it from the library; the
# seed's runtime probe of the single-qubit fast path, since deleted from
# the library, is copied here too and probes against _seed_apply_matrix.

#: Per-``(num_qubits, qubit)`` verdicts of the runtime probe below.
_FAST_SINGLE_QUBIT_OK = {}


def _fast_single_qubit_ok(num_qubits, qubit):
    key = (num_qubits, qubit)
    verdict = _FAST_SINGLE_QUBIT_OK.get(key)
    if verdict is None:
        rest = 2 ** (num_qubits - qubit - 1)
        rng = np.random.default_rng(0x5EED)
        states = rng.normal(size=(2, 2**num_qubits)) + 1j * rng.normal(
            size=(2, 2**num_qubits)
        )
        matrices = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        blocks = states.reshape(2, 2**qubit, 2, rest)
        fast_shared = np.matmul(matrices[0], blocks).reshape(2, -1)
        fast_stacked = np.matmul(matrices[:, None, :, :], blocks).reshape(2, -1)
        sequential_shared = np.stack(
            [
                _seed_apply_matrix(states[b], matrices[0], [qubit], num_qubits)
                for b in range(2)
            ]
        )
        sequential_stacked = np.stack(
            [
                _seed_apply_matrix(states[b], matrices[b], [qubit], num_qubits)
                for b in range(2)
            ]
        )
        verdict = np.array_equal(fast_shared, sequential_shared) and np.array_equal(
            fast_stacked, sequential_stacked
        )
        _FAST_SINGLE_QUBIT_OK[key] = verdict
    return verdict


def _seed_apply_matrix(state, matrix, qubits, num_qubits):
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError(f"target qubits must be distinct, got {tuple(qubits)}")
    if state.ndim == 1 and matrix.ndim == 2:
        tensor = state.reshape((2,) * num_qubits)
        gate = matrix.reshape((2,) * (2 * k))
        tensor = np.tensordot(gate, tensor, axes=(range(k, 2 * k), qubits))
        tensor = np.moveaxis(tensor, range(k), qubits)
        return np.ascontiguousarray(tensor).reshape(-1)

    batch = _batch_size(state, matrix, matrix.ndim == 3)
    states = state if state.ndim == 2 else np.broadcast_to(state, (batch, state.size))
    if k == 1:
        q = qubits[0]
        rest = 2 ** (num_qubits - q - 1)
        if rest >= 8 and _fast_single_qubit_ok(num_qubits, q):
            blocks = states.reshape(batch, 2**q, 2, rest)
            stacked = (
                matrix if matrix.ndim == 2 else matrix[:, None, :, :]
            )
            return np.matmul(stacked, blocks).reshape(batch, -1)
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    target_set = set(q + 1 for q in qubits)
    forward = (
        [0]
        + [q + 1 for q in qubits]
        + [ax for ax in range(1, num_qubits + 1) if ax not in target_set]
    )
    inverse = [0] * (num_qubits + 1)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    tensor = tensor.transpose(forward).reshape(batch, 2**k, -1)
    tensor = np.matmul(matrix, tensor)
    tensor = tensor.reshape((batch,) + (2,) * num_qubits).transpose(inverse)
    return np.ascontiguousarray(tensor).reshape(batch, -1)


def _seed_apply_diagonal(state, diagonal, qubits, num_qubits):
    k = len(qubits)
    if state.ndim == 1 and diagonal.ndim == 1:
        tensor = state.reshape((2,) * num_qubits)
        diag = diagonal.reshape((2,) * k)
        expanded = np.moveaxis(
            diag.reshape(diag.shape + (1,) * (num_qubits - k)), range(k), qubits
        )
        return (tensor * expanded).reshape(-1)

    batch = _batch_size(state, diagonal, diagonal.ndim == 2)
    states = state if state.ndim == 2 else np.broadcast_to(state, (batch, state.size))
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    lead = diagonal.shape[0] if diagonal.ndim == 2 else 1
    diag = diagonal.reshape((lead,) + (2,) * k + (1,) * (num_qubits - k))
    order = [0] + list(range(k + 1, num_qubits + 1))
    for destination, source in sorted(zip((q + 1 for q in qubits), range(1, k + 1))):
        order.insert(destination, source)
    expanded = diag.transpose(order)
    return (tensor * expanded).reshape(batch, -1)


# -- workloads -------------------------------------------------------------


def _kernel_workload(num_qubits, num_layers, rows, seed=SEED):
    """A layered gate sequence shaped like the RandomPQC hot loop.

    Per layer: one per-row stacked single-qubit rotation on every qubit
    (the parametric gates), then a CZ entangler chain (the diagonals) —
    the exact op mix the mega-batched variance grid drives through the
    kernels.
    """
    rng = np.random.default_rng(seed)
    ops = []
    cz = np.array([1.0, 1.0, 1.0, -1.0], dtype=np.complex128)
    for _ in range(num_layers):
        for qubit in range(num_qubits):
            thetas = rng.uniform(-np.pi, np.pi, size=rows)
            half = thetas / 2.0
            matrices = np.zeros((rows, 2, 2), dtype=np.complex128)
            matrices[:, 0, 0] = np.cos(half)
            matrices[:, 1, 1] = np.cos(half)
            matrices[:, 0, 1] = -1j * np.sin(half)
            matrices[:, 1, 0] = -1j * np.sin(half)
            ops.append(("dense", [qubit], matrices))
        for qubit in range(num_qubits - 1):
            ops.append(("diag", [qubit, qubit + 1], cz))
    stack = np.zeros((rows, 2**num_qubits), dtype=np.complex128)
    stack[:, 0] = 1.0
    return ops, stack


def _sweep(apply_m, apply_d, ops, stack, num_qubits):
    data = stack
    for kind, qubits, operand in ops:
        if kind == "dense":
            data = apply_m(data, operand, qubits, num_qubits)
        else:
            data = apply_d(data, operand, qubits, num_qubits)
    return data


def _timed(fn, repeats=REPEATS):
    """Best-of-``repeats`` wall time (plus the last result).

    Minimum-of-N is the standard perf-comparison estimator: one-off costs
    (page faults, kernel-probe verdicts, lazy imports) land in the slower
    samples and the floor approximates the true steady-state cost.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _timed_pair(fn_a, fn_b, repeats=REPEATS):
    """Best-of-``repeats`` for two thunks with *interleaved* samples.

    A ratio between two sequential timing blocks confounds the comparison
    with clock-frequency and cache drift over the run; alternating A/B
    within every repeat exposes both sides to the same machine state, so
    the per-thunk minima are directly comparable.
    """
    best_a = best_b = float("inf")
    result_a = result_b = None
    for _ in range(repeats):
        start = time.perf_counter()
        result_a = fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        result_b = fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return (result_a, best_a), (result_b, best_b)


def _timed_pair_stable(fn_a, fn_b, repeats):
    """:func:`_timed_pair`, re-measured once if the ratio looks over budget.

    Even interleaved minima land a few percent apart run-to-run on a
    loaded machine; escalating re-measures that accumulate the global
    per-side minima keep the 5% assertion about the code, not about
    scheduler noise.  Both sides always see identical sample counts, so
    re-measuring cannot mask a real regression larger than the budget —
    a genuinely slower side stays slower at its minimum.
    """
    (out_a, time_a), (out_b, time_b) = _timed_pair(fn_a, fn_b, repeats)
    retry_repeats = repeats
    for _ in range(2):
        if time_b / time_a <= MAX_OVERHEAD:
            break
        retry_repeats *= 2
        (out_a, retry_a), (out_b, retry_b) = _timed_pair(
            fn_a, fn_b, retry_repeats
        )
        time_a = min(time_a, retry_a)
        time_b = min(time_b, retry_b)
    return (out_a, time_a), (out_b, time_b)


def _kernel_section(num_qubits, num_layers, rows, repeats=REPEATS):
    from repro.backend.statevector import apply_diagonal, apply_matrix

    ops, stack = _kernel_workload(num_qubits, num_layers, rows)
    (seed_out, seed_time), (current_out, current_time) = _timed_pair_stable(
        lambda: _sweep(_seed_apply_matrix, _seed_apply_diagonal, ops, stack, num_qubits),
        lambda: _sweep(apply_matrix, apply_diagonal, ops, stack, num_qubits),
        repeats,
    )
    return {
        "num_qubits": num_qubits,
        "num_layers": num_layers,
        "operations": len(ops),
        "rows": rows,
        "seed_seconds": seed_time,
        "refactored_seconds": current_time,
        "overhead_ratio": current_time / seed_time,
        "bit_identical": bool(np.array_equal(seed_out, current_out)),
    }


def _end_to_end_section(num_qubits, num_layers, rows, repeats=REPEATS):
    circuit = RandomPQC(num_qubits, num_layers, seed=SEED).build()
    rng = np.random.default_rng(SEED + 1)
    params = rng.uniform(-np.pi, np.pi, size=(rows, circuit.num_parameters))
    default_sim = StatevectorSimulator()
    explicit_sim = StatevectorSimulator(backend="numpy")
    (default_out, default_time), (explicit_out, explicit_time) = _timed_pair_stable(
        lambda: default_sim.run_batch(circuit, params),
        lambda: explicit_sim.run_batch(circuit, params),
        repeats,
    )
    return circuit, params, default_out, {
        "rows": rows,
        "default_seconds": default_time,
        "explicit_numpy_seconds": explicit_time,
        "overhead_ratio": explicit_time / default_time,
        "bit_identical": bool(np.array_equal(default_out, explicit_out)),
    }


def _accelerator_section(circuit, params, reference, repeats=REPEATS):
    """Time every importable optional namespace; skip entries otherwise."""
    entries = {}
    for name in ACCELERATORS:
        try:
            backend = get_array_backend(name)
        except ImportError as exc:
            entries[name] = {"skipped": True, "reason": str(exc)}
            continue
        simulator = StatevectorSimulator(backend=backend)

        def _run():
            out = simulator.run_batch(circuit, params)
            backend.synchronize()  # drain async launch queues before t1
            return out

        out, seconds = _timed(_run, repeats)
        entries[name] = {
            "skipped": False,
            "seconds": seconds,
            "version": backend.library_version(),
            "device": backend.device_name(),
            "within_device_tolerance": bool(
                np.allclose(out, reference, rtol=DEVICE_RTOL, atol=DEVICE_ATOL)
            ),
        }
    return entries


def _report(kernel, end_to_end, accelerators, smoke=False):
    print()
    print("=" * 72)
    print("Array-backend abstraction: numpy-path overhead vs seed kernels")
    print(
        f"  qubits={kernel['num_qubits']}, layers={kernel['num_layers']}, "
        f"rows={kernel['rows']}, ops/sweep={kernel['operations']}"
    )
    print("=" * 72)
    print(
        f"kernel sweep: seed {kernel['seed_seconds']:.3f}s, refactored "
        f"{kernel['refactored_seconds']:.3f}s -> overhead "
        f"{(kernel['overhead_ratio'] - 1) * 100:+.1f}% "
        f"(bit-identical: {kernel['bit_identical']})"
    )
    print(
        f"end-to-end run_batch: default {end_to_end['default_seconds']:.3f}s, "
        f"backend='numpy' {end_to_end['explicit_numpy_seconds']:.3f}s -> "
        f"overhead {(end_to_end['overhead_ratio'] - 1) * 100:+.1f}% "
        f"(bit-identical: {end_to_end['bit_identical']})"
    )
    for name, entry in accelerators.items():
        if entry["skipped"]:
            print(f"{name}: skipped (not installed)")
        else:
            print(
                f"{name} {entry['version']} [{entry['device']}]: "
                f"{entry['seconds']:.3f}s (device tolerance: "
                f"{entry['within_device_tolerance']})"
            )

    payload = {
        "workload": {
            "num_qubits": kernel["num_qubits"],
            "num_layers": kernel["num_layers"],
            "rows": kernel["rows"],
            "seed": SEED,
        },
        "max_overhead_ratio": MAX_OVERHEAD,
        "kernel_sweep": kernel,
        "end_to_end": end_to_end,
        "accelerators": accelerators,
        "array_backend_status": array_backend_status(),
        "smoke": smoke,
        "machine": machine_context(),
    }
    suffix = "_smoke" if smoke else ""
    target = (
        Path(__file__).resolve().parents[1]
        / f"BENCH_device_backend{suffix}.json"
    )
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    return payload


def _assert_contract(payload):
    kernel = payload["kernel_sweep"]
    end_to_end = payload["end_to_end"]
    assert kernel["bit_identical"], "refactored kernels diverged from seed"
    assert end_to_end["bit_identical"], "backend='numpy' diverged from default"
    assert kernel["overhead_ratio"] <= MAX_OVERHEAD, (
        f"numpy kernel path {(kernel['overhead_ratio'] - 1) * 100:.1f}% over "
        f"the seed kernels (budget {(MAX_OVERHEAD - 1) * 100:.0f}%)"
    )
    assert end_to_end["overhead_ratio"] <= MAX_OVERHEAD, (
        f"explicit numpy backend {(end_to_end['overhead_ratio'] - 1) * 100:.1f}% "
        f"over the default simulator (budget {(MAX_OVERHEAD - 1) * 100:.0f}%)"
    )
    for name, entry in payload["accelerators"].items():
        if not entry["skipped"]:
            assert entry["within_device_tolerance"], (
                f"{name} backend left device tolerance"
            )


def test_device_backend_overhead(run_once):
    rows = batch_chunk_rows(NUM_QUBITS)
    kernel, bundle = run_once(
        lambda: (
            _kernel_section(NUM_QUBITS, NUM_LAYERS, rows),
            _end_to_end_section(NUM_QUBITS, NUM_LAYERS, rows),
        )
    )
    circuit, params, reference, end_to_end = bundle
    accelerators = _accelerator_section(circuit, params, reference)
    payload = _report(kernel, end_to_end, accelerators)
    _assert_contract(payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI; same contract, distinct *_smoke.json",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        num_qubits, num_layers, rows, repeats = 6, 6, 64, 2
    else:
        num_qubits, num_layers, rows, repeats = (
            NUM_QUBITS,
            NUM_LAYERS,
            batch_chunk_rows(NUM_QUBITS),
            REPEATS,
        )
    kernel = _kernel_section(num_qubits, num_layers, rows, repeats)
    circuit, params, reference, end_to_end = _end_to_end_section(
        num_qubits, num_layers, rows, repeats
    )
    accelerators = _accelerator_section(circuit, params, reference, repeats)
    payload = _report(kernel, end_to_end, accelerators, smoke=args.smoke)
    if not args.smoke:
        _assert_contract(payload)
    else:
        # Timings at toy scale are noise; only the identity half of the
        # contract is meaningful in the smoke lane.
        assert payload["kernel_sweep"]["bit_identical"]
        assert payload["end_to_end"]["bit_identical"]


if __name__ == "__main__":
    main()
