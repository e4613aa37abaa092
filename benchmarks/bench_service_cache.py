"""Experiment-service cache bench — cold execution vs cached serving.

The ``repro serve`` front end backs every job with a content-addressed
:class:`~repro.service.ResultStore`: an exact resubmission is served from
the stored bytes in O(1), and a spec overlapping a previous run resumes
from every shard they share.  This bench submits one Fig. 5a-style
variance spec to an in-process :class:`~repro.service.ExperimentServer`
three ways — cold, exact resubmission, and a subset grid — measuring
end-to-end HTTP latency for each, prints the comparison, emits
``BENCH_service_cache.json`` at the repo root, and asserts:

* the exact resubmission is a cache hit served >= 10x faster than the
  cold run, with a byte-identical response payload.  It is timed as the
  median of ``CACHED_REPEATS`` resubmissions, each of which must be a
  cache hit with the cold bytes: one cached sample (2-8 ms) against one
  cold run (~70 ms at smoke scale) straddled the bar;
* the subset spec executes zero new shards (every unit comes from the
  shard tier) and its outcome is bit-identical to a direct ``serial``
  run of the same spec.

A fast smoke invocation (reduced grid, same assertions) is exposed for
CI::

    python benchmarks/bench_service_cache.py --smoke
"""

import argparse
import json
import statistics
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

import repro
from repro.core import ExperimentSpec, VarianceConfig
from repro.service import ExperimentServer
from repro.utils import machine_context

QUBIT_COUNTS = (2, 4, 6, 8)
SUBSET_QUBIT_COUNTS = (2, 4, 6)
NUM_CIRCUITS = 24
NUM_LAYERS = 12
METHODS = ("random", "xavier_normal", "he_normal")
SEED = 4723

#: Exact resubmissions timed per run; their median is the cached latency.
CACHED_REPEATS = 20

SMOKE_QUBIT_COUNTS = (2, 3, 4)
SMOKE_SUBSET = (2, 3)
SMOKE_CIRCUITS = 4
SMOKE_LAYERS = 3


def _spec(qubit_counts, num_circuits, num_layers):
    return ExperimentSpec(
        kind="variance",
        config=VarianceConfig(
            qubit_counts=qubit_counts,
            num_circuits=num_circuits,
            num_layers=num_layers,
            methods=METHODS,
        ),
        seed=SEED,
    )


def _submit_and_fetch(server, spec):
    """POST a spec, poll to done, GET the result; return timing + bytes."""
    body = json.dumps(spec.to_dict()).encode("utf-8")
    start = time.perf_counter()
    request = urllib.request.Request(
        server.url + "/experiments",
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        job = json.loads(response.read())
    while job["state"] not in ("done", "failed"):
        time.sleep(0.01)
        with urllib.request.urlopen(
            f"{server.url}/experiments/{job['job_id']}"
        ) as response:
            job = json.loads(response.read())
    assert job["state"] == "done", job.get("error")
    with urllib.request.urlopen(
        f"{server.url}/experiments/{job['job_id']}/result"
    ) as response:
        payload = response.read()
    return {
        "seconds": time.perf_counter() - start,
        "payload": payload,
        "status": job,
    }


def _served_outcome(payload):
    from repro.io.serialization import RESULT_TYPES

    envelope = json.loads(payload)
    return RESULT_TYPES[envelope["type"]].from_dict(envelope["data"])


def _results_identical(a, b):
    if set(a.samples) != set(b.samples):
        return False
    return all(
        np.array_equal(a.samples[key].gradients, b.samples[key].gradients)
        for key in a.samples
    )


def _run_bench(qubit_counts, subset_counts, num_circuits, num_layers):
    full = _spec(qubit_counts, num_circuits, num_layers)
    subset = _spec(subset_counts, num_circuits, num_layers)
    with tempfile.TemporaryDirectory() as store_dir:
        with ExperimentServer(store=store_dir) as server:
            cold = _submit_and_fetch(server, full)
            cached = [
                _submit_and_fetch(server, full) for _ in range(CACHED_REPEATS)
            ]
            overlap = _submit_and_fetch(server, subset)
    direct = repro.run(
        ExperimentSpec(
            kind="variance", config=subset.config, seed=SEED, executor="serial"
        )
    )
    cached_seconds = statistics.median(run["seconds"] for run in cached)
    return {
        "cold_seconds": cold["seconds"],
        "cached_seconds": cached_seconds,
        "cached_samples": len(cached),
        "speedup": cold["seconds"] / cached_seconds,
        "cache_hit": all(run["status"]["cache_hit"] for run in cached),
        "bit_identical_payloads": all(
            run["payload"] == cold["payload"] for run in cached
        ),
        "subset_seconds": overlap["seconds"],
        "subset_cached_units": overlap["status"]["progress"]["cached_units"],
        "subset_total_units": overlap["status"]["progress"]["total_units"],
        "subset_matches_serial": _results_identical(
            _served_outcome(overlap["payload"]).result, direct.result
        ),
    }


def _report(metrics, grid, smoke=False):
    print()
    print("=" * 72)
    print("Experiment-service result cache: cold vs cached serving")
    print(
        f"  qubits={grid['qubit_counts']}, circuits={grid['num_circuits']}, "
        f"layers={grid['num_layers']}, methods={len(METHODS)}"
    )
    print("=" * 72)
    print(f"cold submission:    {metrics['cold_seconds']:.3f} s")
    print(
        f"exact resubmission: {metrics['cached_seconds']:.3f} s, median of "
        f"{metrics['cached_samples']} "
        f"({metrics['speedup']:.0f}x, cache_hit={metrics['cache_hit']})"
    )
    print(
        f"subset grid:        {metrics['subset_seconds']:.3f} s "
        f"({metrics['subset_cached_units']}/{metrics['subset_total_units']} "
        f"units from shard cache)"
    )
    print(f"bit-identical cached payloads: {metrics['bit_identical_payloads']}")
    print(f"subset matches serial run:     {metrics['subset_matches_serial']}")

    payload = {"grid": grid, **metrics, "smoke": smoke, "machine": machine_context()}
    name = "BENCH_service_cache_smoke.json" if smoke else "BENCH_service_cache.json"
    target = Path(__file__).resolve().parents[1] / name
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    return payload


def _assert_bars(payload):
    assert payload["cache_hit"], "resubmission was not served from the cache"
    assert payload["bit_identical_payloads"], "cached payload diverged"
    assert payload["subset_matches_serial"], "subset outcome diverged"
    assert payload["subset_cached_units"] == payload["subset_total_units"], (
        f"subset recomputed shards: only "
        f"{payload['subset_cached_units']}/{payload['subset_total_units']} "
        f"came from the cache"
    )
    assert payload["speedup"] >= 10.0, (
        f"expected >= 10x cached speedup, got {payload['speedup']:.1f}x"
    )


def test_service_cache(run_once):
    metrics = run_once(
        lambda: _run_bench(QUBIT_COUNTS, SUBSET_QUBIT_COUNTS, NUM_CIRCUITS, NUM_LAYERS)
    )
    grid = {
        "qubit_counts": list(QUBIT_COUNTS),
        "subset_qubit_counts": list(SUBSET_QUBIT_COUNTS),
        "num_circuits": NUM_CIRCUITS,
        "num_layers": NUM_LAYERS,
        "methods": list(METHODS),
        "seed": SEED,
    }
    _assert_bars(_report(metrics, grid))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced grid with the same assertions (the CI configuration); "
        "writes a distinct BENCH_service_cache_smoke.json",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        grid = {
            "qubit_counts": list(SMOKE_QUBIT_COUNTS),
            "subset_qubit_counts": list(SMOKE_SUBSET),
            "num_circuits": SMOKE_CIRCUITS,
            "num_layers": SMOKE_LAYERS,
            "methods": list(METHODS),
            "seed": SEED,
        }
        metrics = _run_bench(
            SMOKE_QUBIT_COUNTS, SMOKE_SUBSET, SMOKE_CIRCUITS, SMOKE_LAYERS
        )
        _assert_bars(_report(metrics, grid, smoke=True))
        return
    grid = {
        "qubit_counts": list(QUBIT_COUNTS),
        "subset_qubit_counts": list(SUBSET_QUBIT_COUNTS),
        "num_circuits": NUM_CIRCUITS,
        "num_layers": NUM_LAYERS,
        "methods": list(METHODS),
        "seed": SEED,
    }
    metrics = _run_bench(QUBIT_COUNTS, SUBSET_QUBIT_COUNTS, NUM_CIRCUITS, NUM_LAYERS)
    _assert_bars(_report(metrics, grid))


if __name__ == "__main__":
    main()
