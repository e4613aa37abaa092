"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the paper's workflow end to end:

``variance``
    Fig. 5a — gradient-variance decay study with the improvement table.
``train``
    Fig. 5b/5c — identity-learning training comparison.
``run``
    Execute a saved :class:`~repro.core.spec.ExperimentSpec` JSON file
    (variance / training / sweep) through the executor registry.
``serve``
    Long-running experiment service: accepts spec submissions over
    HTTP, deduplicates identical in-flight jobs, and serves results
    from a content-addressed cache (exact resubmissions are O(1) and
    byte-identical; overlapping specs reuse shared shards).  Reliability
    knobs: ``--max-attempts`` (per-unit retry budget), ``--job-timeout``
    / ``--stall-timeout`` (wall-clock and heartbeat bounds), and
    ``--store-max-bytes`` / ``--store-max-age`` (LRU cache eviction).
    ``SIGTERM`` drains gracefully: new submissions get 503, in-flight
    jobs finish within ``--drain-timeout``, unfinished ones persist to
    the store and resume on the next ``repro serve``.
``store``
    Inspect (``store stats``) or garbage-collect (``store gc``) a
    result-cache directory without starting the server.
``landscape``
    Fig. 1 — ASCII landscape scan with flatness metrics.
``info``
    Library version plus the available initializers, optimizers,
    executors and gates.

Every command accepts ``--seed`` for exact reproducibility and the study
commands accept ``--output FILE`` to persist the outcome as JSON
(reloadable via :func:`repro.io.load_result`).  ``variance``, ``train``
and ``run`` accept ``--workers N`` to shard work over a process pool —
seeded results are bit-identical to the single-process run.  ``train``
runs analytic, noiseless studies in-process in lock step by default:
all ``--restarts`` x methods trajectories advance together through the
batched adjoint engine, one batched sweep per iteration;
``--batch-trajectories`` opts ``--shots``/``--noise`` runs in too.
``variance``, ``train`` and ``run`` take ``--shots N`` to switch from
analytic expectations to finite-sample estimation (hardware-realistic
measurement noise) with per-trajectory streams derived from ``--seed``,
and ``--noise JSON``
(inline payload or ``@file``) to run under a Kraus noise model through
the batched Pauli-transfer simulator — gate channels plus optional
bit-flip readout error on sampled measurements.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Union

import numpy as np

__all__ = ["build_parser", "main"]


def _parse_noise(text: str) -> dict:
    """Parse a ``--noise`` value: inline JSON or ``@path`` to a JSON file.

    The payload is the :meth:`~repro.backend.noise.NoiseModel.to_dict`
    form, e.g. ``'{"default": {"name": "depolarizing", "probability":
    0.01}, "readout_error": 0.02}'``.
    """
    import json
    from pathlib import Path

    raw = str(text)
    if raw.startswith("@"):
        try:
            raw = Path(raw[1:]).read_text(encoding="utf-8")
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot read noise file {text[1:]!r}: {exc}"
            ) from None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(
            f"--noise is not valid JSON ({exc}); pass an inline NoiseModel "
            "payload or @path to a JSON file"
        ) from None
    if not isinstance(payload, dict):
        raise argparse.ArgumentTypeError(
            f"--noise must be a JSON object (NoiseModel payload), "
            f"got {type(payload).__name__}"
        )
    return payload


_NOISE_HELP = (
    "noise model as inline JSON or @path to a JSON file (NoiseModel "
    "payload: 'default'/'per_gate' channels plus 'readout_error'); "
    "routes execution through the batched Pauli-transfer simulator, "
    "e.g. '{\"default\": {\"name\": \"depolarizing\", "
    "\"probability\": 0.01}}'"
)


def _parse_bytes(text: str) -> int:
    """Parse a byte budget with an optional K/M/G/T suffix (``"500M"``)."""
    raw = str(text).strip().upper()
    if raw.endswith("B"):
        raw = raw[:-1]
    multiplier = 1
    if raw and raw[-1] in "KMGT":
        multiplier = 1024 ** ("KMGT".index(raw[-1]) + 1)
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}; expected bytes with an optional "
            f"K/M/G/T suffix, e.g. 1048576, 500M, 2G"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0, got {text!r}")
    return int(value * multiplier)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Alleviating Barren Plateaus in "
        "Parameterized Quantum Machine Learning Circuits' (DATE 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    variance = sub.add_parser(
        "variance", help="run the Fig. 5a gradient-variance study"
    )
    variance.add_argument("--qubits", type=int, nargs="+", default=[2, 4, 6])
    variance.add_argument("--circuits", type=int, default=50)
    variance.add_argument("--layers", type=int, default=30)
    variance.add_argument("--methods", nargs="+", default=None)
    variance.add_argument("--cost", choices=("global", "local"), default="global")
    variance.add_argument(
        "--shots",
        type=int,
        default=None,
        help="estimate probed gradients from this many measurement "
        "samples instead of analytically (hardware-realistic noise)",
    )
    variance.add_argument(
        "--backend",
        default=None,
        help="array backend for the statevector kernels: 'numpy' "
        "(default, bit-identical reference), or a device namespace such "
        "as 'torch', 'torch:cuda:0' or 'cupy' (see `repro info`)",
    )
    variance.add_argument(
        "--noise", type=_parse_noise, default=None, help=_NOISE_HELP
    )
    variance.add_argument("--seed", type=int, default=0)
    variance.add_argument("--output", default=None)
    variance.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the grid over N worker processes (same seeded results)",
    )
    variance.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist per-shard results here and resume interrupted runs",
    )

    train = sub.add_parser("train", help="run the Fig. 5b/5c training study")
    train.add_argument("--qubits", type=int, default=10)
    train.add_argument("--layers", type=int, default=5)
    train.add_argument("--iterations", type=int, default=50)
    train.add_argument(
        "--optimizer", default="gradient_descent", help="optimizer registry name"
    )
    train.add_argument("--learning-rate", type=float, default=0.1)
    train.add_argument("--methods", nargs="+", default=None)
    train.add_argument("--cost", choices=("global", "local"), default="global")
    train.add_argument(
        "--shots",
        type=int,
        default=None,
        help="train on finite-sample losses/gradients (this many "
        "measurement samples per expectation, parameter-shift rule) "
        "instead of analytic values",
    )
    train.add_argument(
        "--backend",
        default=None,
        help="array backend for the statevector kernels: 'numpy' "
        "(default, bit-identical reference), or a device namespace such "
        "as 'torch', 'torch:cuda:0' or 'cupy' (see `repro info`)",
    )
    train.add_argument(
        "--noise", type=_parse_noise, default=None, help=_NOISE_HELP
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", default=None)
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        help="train methods in N worker processes (same seeded results)",
    )
    train.add_argument(
        "--batch-trajectories",
        action="store_true",
        help="advance all (method, restart) trajectories in lock step, "
        "in-process, through one batched sweep per iteration (same seeded "
        "results).  Analytic, noiseless runs without --workers already do; "
        "with --shots or --noise this opts in, stacking every shifted copy "
        "of every trajectory at once",
    )
    train.add_argument(
        "--restarts",
        type=int,
        default=1,
        help="independent restarts per method (trajectories are labelled "
        "METHOD#rK when greater than 1)",
    )
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist results here and resume interrupted runs: per "
        "panel in lock step, otherwise per trajectory",
    )

    run_cmd = sub.add_parser(
        "run", help="execute an ExperimentSpec JSON file"
    )
    run_cmd.add_argument("spec", help="path to the spec JSON file")
    run_cmd.add_argument(
        "--executor",
        default=None,
        help="override the spec's executor (see `repro info`)",
    )
    run_cmd.add_argument(
        "--workers", type=int, default=None, help="override the spec's workers"
    )
    run_cmd.add_argument(
        "--checkpoint-dir",
        default=None,
        help="override the spec's checkpoint directory",
    )
    run_cmd.add_argument(
        "--shots",
        type=int,
        default=None,
        help="override the spec's shots (finite-sample estimation)",
    )
    run_cmd.add_argument(
        "--backend",
        default=None,
        help="override the spec's array backend (e.g. 'torch', "
        "'torch:cuda:0', 'cupy'; see `repro info`)",
    )
    run_cmd.add_argument(
        "--noise",
        type=_parse_noise,
        default=None,
        help="override the spec's noise model (inline JSON or @file; "
        "see `repro variance --help`)",
    )
    run_cmd.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry budget per work unit (transient failures back off "
        "and retry bit-identically; default: spec's retry policy, "
        "REPRO_MAX_ATTEMPTS, or 3)",
    )
    run_cmd.add_argument("--output", default=None)

    serve = sub.add_parser(
        "serve", help="run the HTTP experiment service with a result cache"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8425,
        help="TCP port; 0 binds an ephemeral port (printed on startup)",
    )
    serve.add_argument(
        "--store",
        default="repro-store",
        help="result-cache directory (created if missing)",
    )
    serve.add_argument(
        "--executor",
        default=None,
        help="force this executor for every submitted spec "
        "(default: honour each spec's own choice)",
    )
    serve.add_argument(
        "--queue-workers",
        type=int,
        default=1,
        help="number of concurrent job-execution threads",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry budget per work unit for every job (default: "
        "REPRO_MAX_ATTEMPTS / REPRO_RETRY, or 3)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="abort any job running longer than this many seconds",
    )
    serve.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        help="abort a job whose progress heartbeat stalls this long (s)",
    )
    serve.add_argument(
        "--store-max-bytes",
        type=_parse_bytes,
        default=None,
        metavar="SIZE",
        help="LRU byte budget for the result cache (suffixes: K/M/G/T); "
        "exceeded budgets trigger eviction after writes",
    )
    serve.add_argument(
        "--store-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict cache entries not read for this many seconds",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds SIGTERM waits for in-flight jobs before persisting "
        "the unfinished queue and exiting (default: 30)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )

    store_cmd = sub.add_parser(
        "store", help="inspect or garbage-collect a result-cache directory"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="print entry counts, byte totals and quarantine size"
    )
    store_stats.add_argument(
        "--store", default="repro-store", help="result-cache directory"
    )
    store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used entries to fit a budget"
    )
    store_gc.add_argument(
        "--store", default="repro-store", help="result-cache directory"
    )
    store_gc.add_argument(
        "--max-bytes",
        type=_parse_bytes,
        default=None,
        metavar="SIZE",
        help="byte budget to evict down to (suffixes: K/M/G/T)",
    )
    store_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict entries not read for this many seconds",
    )

    landscape = sub.add_parser(
        "landscape", help="scan and print a Fig. 1 style cost landscape"
    )
    landscape.add_argument("--qubits", type=int, default=5)
    landscape.add_argument("--layers", type=int, default=30)
    landscape.add_argument("--resolution", type=int, default=15)
    landscape.add_argument("--seed", type=int, default=0)

    sub.add_parser("info", help="show version and registries")
    return parser


def _print_variance_outcome(outcome, output: Optional[str]) -> None:
    from repro.analysis import decay_table, variance_table
    from repro.io import save_result

    print()
    print(variance_table(outcome.result))
    print()
    if outcome.fits:
        print(decay_table(outcome.fits, outcome.improvements))
        print(f"ranking (best decay first): {outcome.ranking}")
    else:
        print("no decay fit: it needs at least two qubit counts")
    if output:
        print(f"saved to {save_result(outcome, output)}")


def _print_training_outcome(outcome, output: Optional[str]) -> None:
    from repro.analysis import training_table
    from repro.io import save_result

    print()
    print(training_table(outcome.histories))
    print(f"final-loss ranking (best first): {outcome.ranking()}")
    if output:
        print(f"saved to {save_result(outcome, output)}")


def _input_error(error: Union[Exception, str]) -> int:
    """Report input rejected before any work starts: one line on stderr
    and exit status 2, as argparse does for its own usage errors."""
    print(f"error: {error}", file=sys.stderr)
    return 2


def _check_env_fault_plan() -> None:
    """Parse ``REPRO_FAULT_PLAN`` before any work starts.

    Executors read it when they are built, after the input checks, so a
    malformed plan would otherwise stop a run with a traceback.
    """
    from repro.reliability import FaultPlan

    try:
        FaultPlan.from_env()
    except (OSError, ValueError) as error:
        raise ValueError(f"REPRO_FAULT_PLAN: {error}") from None


def _cmd_variance(args: argparse.Namespace) -> int:
    import repro

    try:
        _check_env_fault_plan()
        spec = _variance_spec(args)
    except ValueError as error:
        return _input_error(error)
    outcome = repro.run(spec, verbose=True)
    _print_variance_outcome(outcome, args.output)
    return 0


def _variance_spec(args: argparse.Namespace):
    from repro.core import ExperimentSpec, VarianceConfig
    from repro.initializers.registry import PAPER_METHODS

    config = VarianceConfig(
        qubit_counts=tuple(args.qubits),
        num_circuits=args.circuits,
        num_layers=args.layers,
        methods=tuple(args.methods) if args.methods else tuple(PAPER_METHODS),
        cost_kind=args.cost,
        shots=args.shots,
        backend=args.backend or "numpy",
        noise=args.noise,
    )
    return ExperimentSpec(
        kind="variance",
        config=config,
        seed=args.seed,
        executor="process_pool" if args.workers > 1 else None,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    import repro

    try:
        _check_env_fault_plan()
        spec = _training_spec(args)
    except ValueError as error:
        return _input_error(error)
    outcome = repro.run(spec, verbose=True)
    _print_training_outcome(outcome, args.output)
    return 0


def _training_spec(args: argparse.Namespace):
    from repro.core import ExperimentSpec, TrainingConfig
    from repro.initializers.registry import PAPER_METHODS

    config = TrainingConfig(
        num_qubits=args.qubits,
        num_layers=args.layers,
        iterations=args.iterations,
        optimizer=args.optimizer,
        learning_rate=args.learning_rate,
        cost_kind=args.cost,
        shots=args.shots,
        backend=args.backend or "numpy",
        noise=args.noise,
    )
    if args.batch_trajectories:
        executor = "lockstep"
        if args.workers > 1:
            print(
                "--batch-trajectories runs in-process; ignoring --workers",
                file=sys.stderr,
            )
    elif args.workers > 1:
        executor = "process_pool"
    else:
        executor = None
    return ExperimentSpec(
        kind="training",
        config=config,
        seed=args.seed,
        methods=tuple(args.methods) if args.methods else tuple(PAPER_METHODS),
        restarts=args.restarts,
        executor=executor,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    import repro
    from repro.core import ExperimentSpec

    try:
        _check_env_fault_plan()
        spec = ExperimentSpec.from_file(args.spec)
    except (OSError, TypeError, ValueError) as error:
        # TypeError: the spec's own field checks (POST /experiments
        # answers 400 for the same payloads).
        return _input_error(error)
    if spec.kind == "sweep" and args.output:
        # Fail fast: don't burn the whole sweep before reporting this.
        print(
            "--output is not supported for sweep specs (outcomes are "
            "per-value); use --checkpoint-dir or save values individually",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.executor is not None:
        overrides["executor"] = args.executor
    if args.workers is not None:
        overrides["workers"] = args.workers
        if args.executor is None and args.workers > 1:
            overrides["executor"] = "process_pool"
    if args.checkpoint_dir is not None:
        overrides["checkpoint_dir"] = args.checkpoint_dir
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.noise is not None:
        overrides["noise"] = args.noise
    if args.max_attempts is not None:
        overrides["retry"] = args.max_attempts
    if overrides:
        try:
            spec = dataclasses.replace(spec, **overrides)
        except ValueError as error:
            return _input_error(error)
    print(
        f"[run] kind={spec.kind} executor={spec.resolved_executor()} "
        f"workers={spec.workers}"
    )
    outcome = repro.run(spec, verbose=True)
    if spec.kind == "variance":
        _print_variance_outcome(outcome, args.output)
    elif spec.kind == "training":
        _print_training_outcome(outcome, args.output)
    else:
        for value, sub_outcome in outcome.items():
            print(
                f"[sweep {spec.sweep_field}={value}] "
                f"ranking: {sub_outcome.ranking}"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ExperimentServer, ResultStore

    try:
        _check_env_fault_plan()
        store = ResultStore(
            args.store,
            max_bytes=args.store_max_bytes,
            max_age=args.store_max_age,
        )
        server = ExperimentServer(
            store=store,
            host=args.host,
            port=args.port,
            executor=args.executor,
            worker_threads=args.queue_workers,
            quiet=not args.verbose,
            retry=args.max_attempts,
            job_timeout=args.job_timeout,
            stall_timeout=args.stall_timeout,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as error:
        # Bad options (e.g. an unknown --executor) fail before the port
        # is bound, not on every submitted job.
        return _input_error(error)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve shutting down", flush=True)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import ResultStore

    # ResultStore creates its layout, so a mistyped path would report an
    # empty store and leave a new directory behind.
    if not Path(args.store).is_dir():
        return _input_error(f"no result store at {args.store!r}")
    store = ResultStore(args.store)
    if args.store_command == "stats":
        stats = store.stats()
        print(f"store:       {stats['root']}")
        print(f"results:     {stats['results']}")
        print(f"shards:      {stats['shards']}")
        print(f"total bytes: {stats['total_bytes']}")
        print(f"quarantined: {stats['quarantined']}")
        return 0
    if args.max_bytes is None and args.max_age is None:
        print(
            "store gc needs a budget: pass --max-bytes and/or --max-age",
            file=sys.stderr,
        )
        return 2
    summary = store.gc(max_bytes=args.max_bytes, max_age=args.max_age)
    print(
        f"evicted {summary['evicted']} entr"
        f"{'y' if summary['evicted'] == 1 else 'ies'} "
        f"({summary['freed_bytes']} bytes freed, "
        f"{summary['quarantined']} quarantined); "
        f"{summary['total_bytes']} bytes remain"
    )
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    from repro.analysis import flatness_metrics, scan_landscape
    from repro.ansatz import HardwareEfficientAnsatz
    from repro.core import global_identity_cost

    if args.resolution < 2:
        return _input_error(f"resolution must be >= 2, got {args.resolution}")
    try:
        circuit = HardwareEfficientAnsatz(args.qubits, args.layers).build()
    except ValueError as error:
        return _input_error(error)
    cost = global_identity_cost(circuit)
    rng = np.random.default_rng(args.seed)
    anchor = rng.uniform(0, 2 * np.pi, circuit.num_parameters)
    scan = scan_landscape(
        cost,
        anchor,
        param_indices=(circuit.num_parameters - 2, circuit.num_parameters - 1),
        resolution=args.resolution,
    )
    metrics = flatness_metrics(scan)
    print(
        f"{args.qubits} qubits, depth {args.layers}: "
        f"cost range {metrics['cost_range']:.3e}, "
        f"std {metrics['cost_std']:.3e}, "
        f"mean |grad| {metrics['mean_gradient_magnitude']:.3e}"
    )
    print(scan.to_ascii())
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro
    from repro.backend.gates import FIXED_GATES, PARAMETRIC_GATES
    from repro.core import available_executors
    from repro.initializers import available_initializers
    from repro.optim import available_optimizers
    from repro.utils.array_api import array_backend_status

    backends = []
    for status in array_backend_status():
        if status["available"]:
            detail = status.get("version") or "available"
            device = status.get("device")
            if device:
                detail = f"{detail}, {device}"
            backends.append(f"{status['name']} ({detail})")
        else:
            backends.append(f"{status['name']} (not installed)")

    print(f"repro {repro.__version__}")
    print(f"initializers: {', '.join(available_initializers())}")
    print(f"optimizers:   {', '.join(available_optimizers())}")
    print(f"executors:    {', '.join(available_executors())}")
    print(f"backends:     {', '.join(backends)}")
    print(f"fixed gates:  {', '.join(sorted(FIXED_GATES))}")
    print(f"param gates:  {', '.join(sorted(PARAMETRIC_GATES))}")
    return 0


_COMMANDS = {
    "variance": _cmd_variance,
    "train": _cmd_train,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "landscape": _cmd_landscape,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
