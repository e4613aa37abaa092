"""Spec-driven experiments: one declarative object, pluggable executors.

Run::

    python examples/spec_driven_experiments.py --workers 2

Demonstrates the ``ExperimentSpec`` API end to end:

1. describe the Fig. 5a variance study declaratively and run it with
   ``repro.run``;
2. re-run the *same* spec on a different executor (process pool,
   optionally checkpointing shards so an interrupted grid resumes) and
   verify the seeded results are bit-identical;
3. move the kernels onto another array backend (``backend="torch"``,
   skipped when torch is not installed);
4. run the same study under a Kraus noise model (the batched
   Pauli-transfer path) and see how fingerprints keep noisy and
   noiseless results apart;
5. save the spec to JSON — the file is what ``python -m repro run
   SPEC.json`` executes — and reload it;
6. submit the spec to an in-process ``repro serve`` instance twice and
   watch the second submission come back as an O(1) cache hit with
   byte-identical result payloads.
"""

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro import ExperimentSpec, VarianceConfig, available_executors


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--circuits", type=int, default=20)
    parser.add_argument("--layers", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="shard checkpoints land here (resume by re-running)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = VarianceConfig(
        qubit_counts=tuple(args.qubits),
        num_circuits=args.circuits,
        num_layers=args.layers,
        methods=("random", "xavier_normal", "he_normal"),
    )

    # 1. Declare the experiment once; `repro.run` dispatches it.
    spec = ExperimentSpec(kind="variance", config=config, seed=args.seed)
    print(f"executors available: {', '.join(available_executors())}")
    print(f"running kind={spec.kind} on executor={spec.resolved_executor()}")
    outcome = repro.run(spec)
    print(f"ranking (best decay first): {outcome.ranking}")

    # 2. Same spec, different executor: bit-identical seeded results.
    pooled_spec = ExperimentSpec(
        kind="variance",
        config=config,
        seed=args.seed,
        executor="process_pool",
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
    )
    pooled = repro.run(pooled_spec)
    identical = all(
        np.array_equal(
            outcome.result.samples[key].gradients,
            pooled.result.samples[key].gradients,
        )
        for key in outcome.result.samples
    )
    print(
        f"process_pool x{args.workers} bit-identical to single process: "
        f"{identical}"
    )

    # 3. Array backends are configuration too: backend="torch" (or
    #    "cupy", "torch:cuda:0", ...) moves the statevector kernels onto
    #    that namespace and routes the spec to the ``device`` executor —
    #    same spec, same seeds, device-tolerance-identical results.
    #    Guarded: torch is an optional dependency, and a spec naming a
    #    missing namespace fails eagerly with an actionable ImportError.
    import importlib.util

    if importlib.util.find_spec("torch") is not None:
        torch_spec = ExperimentSpec(
            kind="variance", config=config, seed=args.seed, backend="torch"
        )
        print(f"torch backend routes to executor={torch_spec.resolved_executor()}")
        torch_outcome = repro.run(torch_spec)
        print(f"torch-backend ranking: {torch_outcome.ranking}")
    else:
        print("torch not installed; skipping the backend='torch' step")

    # 4. Noise is configuration too: a JSON payload of factory channels
    #    (plus optional readout error) routes the same spec through the
    #    batched Pauli-transfer simulator — (B, 4**n) Pauli vectors on
    #    the same batched kernels, rows matching exact density-matrix
    #    evolution.  A trivial model (zero rates) canonicalizes to None
    #    and stays bit-identical to the noiseless run; a real one gets
    #    its own fingerprint, so noisy and noiseless results never share
    #    cache entries.
    noise = {"default": {"name": "depolarizing", "probability": 0.01}}
    noisy_spec = ExperimentSpec(
        kind="variance", config=config, seed=args.seed, noise=noise
    )
    trivial_spec = ExperimentSpec(
        kind="variance",
        config=config,
        seed=args.seed,
        noise={"default": {"name": "depolarizing", "probability": 0.0}},
    )
    print(
        f"trivial noise shares the noiseless fingerprint: "
        f"{trivial_spec.fingerprint() == spec.fingerprint()}; "
        f"real noise gets its own: "
        f"{noisy_spec.fingerprint() != spec.fingerprint()}"
    )
    noisy = repro.run(noisy_spec)
    print(f"noisy ranking (depolarizing 1%): {noisy.ranking}")

    # 5. Specs serialize: this JSON file is exactly what
    #    `python -m repro run SPEC.json` consumes.
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "variance_spec.json"
        spec_path.write_text(json.dumps(spec.to_dict(), indent=2))
        reloaded = ExperimentSpec.from_file(spec_path)
        print(
            f"spec round-trips through {spec_path.name}: "
            f"kind={reloaded.kind}, seed={reloaded.seed}"
        )

    # 6. The same spec served over HTTP: `repro serve` fronts a
    #    deduplicating job queue and a content-addressed result store.
    #    The first submission executes; resubmitting the identical spec
    #    is answered instantly from the cache — byte-identical payloads,
    #    no recomputation.  (ExperimentServer is the in-process handle
    #    behind `python -m repro serve`.)
    import time
    import urllib.request

    from repro.service import ExperimentServer

    with tempfile.TemporaryDirectory() as store_dir:
        with ExperimentServer(store=store_dir) as server:
            print(f"serving experiments on {server.url}")
            body = json.dumps(spec.to_dict()).encode("utf-8")

            def submit():
                request = urllib.request.Request(
                    server.url + "/experiments",
                    data=body,
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    job = json.loads(response.read())
                while job["state"] not in ("done", "failed"):
                    time.sleep(0.05)
                    with urllib.request.urlopen(
                        f"{server.url}/experiments/{job['job_id']}"
                    ) as response:
                        job = json.loads(response.read())
                with urllib.request.urlopen(
                    f"{server.url}/experiments/{job['job_id']}/result"
                ) as response:
                    return job, response.read()

            first, payload_one = submit()
            second, payload_two = submit()
            print(
                f"first submission: state={first['state']} "
                f"cache_hit={first['cache_hit']} "
                f"units={first['progress']['completed_units']}"
                f"/{first['progress']['total_units']}"
            )
            print(
                f"second submission: state={second['state']} "
                f"cache_hit={second['cache_hit']}"
            )
            print(
                f"served payloads byte-identical: "
                f"{payload_one == payload_two}"
            )


if __name__ == "__main__":
    main()
