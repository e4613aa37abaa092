"""Lock-step training bench — batched adjoint vs one trajectory at a time.

The Fig. 5b/5c study trains several initialization methods under one
config.  The ``serial`` executor trains them one trajectory per work
unit, ``B x iterations`` one-row adjoint sweeps; the ``lockstep``
executor (the default for analytic, noiseless training specs) folds all
trajectories into a ``(B, 2**n)`` stack and runs ``iterations`` batched
sweeps instead, in row chunks sized to stay cache-resident.  Four
sections, written together to ``BENCH_batched_adjoint.json`` at the repo
root:

* **paper panel** — the 10-qubit/5-layer configuration (100 parameters),
  9 trajectories, one ``repro.run`` of the same spec per executor
  (``serial``, then ``lockstep``) at a reduced iteration budget.
  Asserts bit-identical histories and at least a 3x end-to-end speedup.
* **wide register** — 14 qubits, 2 layers, 12 trajectories (the paper's
  six methods x 2 restarts) through ``repro.run``: the default executor
  (chunked lock-step) against ``serial``, interleaved repeats, medians and
  quartiles.  Wide stacks are where an un-chunked sweep falls out of
  cache, so this is the side of the chunk choice the 10-qubit panel
  cannot see.  Asserts bit-identity and that the default's median is not
  above serial's upper quartile.
* **budget sweep** — seconds per lock-step panel for each candidate
  ``_ADJOINT_CHUNK_DIVISOR`` (the divisor of the backend's
  ``chunk_bytes``), against the ``serial`` panel, at the widths where the
  candidates give different chunk rows (10, 12 and 14 qubits; at 16
  qubits both give 1-row chunks).  Every point runs in a fresh process,
  because the allocator state a wide stack leaves behind (page faults on
  fresh heap pages) is part of what the chunk size decides; points
  alternate between variants across rounds.  A challenger replaces the
  incumbent (the first candidate) only if, at some width, its median
  beats the incumbent's by more than the spread of either (quartile
  range over median), and it loses by that much at none.  This is the
  measurement that picked the divisor.
* **fast-path cap** — ``statevector._FAST_PATH_MAX_SLICES`` on against
  off (uncapped), in fresh processes: the wide-register lock-step panel,
  and a batched 12/14-qubit variance grid, the other workload whose
  batched single-qubit gates reach targets past the cap.  Asserts the
  cap slows neither (its median is not above the uncapped upper
  quartile).

Run the full bench (four to six minutes on a 2-core host)::

    python benchmarks/bench_batched_adjoint.py
    pytest benchmarks/bench_batched_adjoint.py -s

The CI smoke mode checks identity only (paper panel at toy scale, and a
12-qubit panel wide enough to be chunked) and writes the distinct
``BENCH_batched_adjoint_smoke.json``::

    python benchmarks/bench_batched_adjoint.py --smoke
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.backend.gradients as gradients
import repro.backend.statevector as statevector
from repro.analysis import format_table
from repro.core.spec import ExperimentSpec
from repro.core.training import TrainingConfig
from repro.core.variance import VarianceConfig
from repro.initializers.registry import PAPER_METHODS
from repro.utils import machine_context
from repro.utils.array_api import get_array_backend

ROOT = Path(__file__).resolve().parents[1]

NUM_QUBITS = 10
NUM_LAYERS = 5
ITERATIONS = 15
SEED = 2311
#: 9 trajectories, mirroring the paper's method comparison (>= 8 required).
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

#: Wide-register panel: 6 paper methods x 2 restarts = 12 trajectories.
WIDE = {"num_qubits": 14, "num_layers": 2, "iterations": 3, "restarts": 2}
WIDE_REPEATS = 7
#: A panel wide enough to be chunked (4-row chunks at 12 qubits) but
#: cheap enough for CI: 5 methods x 2 restarts = 10 trajectories.
SMOKE_WIDE = {"num_qubits": 12, "num_layers": 2, "iterations": 2, "restarts": 2}

#: Budget-sweep panels: the paper's six methods x ``restarts`` at each
#: width, trained for ``iterations`` steps.  Rows per forward pass at
#: /32, /16 and /64: 16, 24 and 8 at 10 qubits; 4, 8 and 2 at 12; 1, 2
#: and 1 at 14.  The backward pair holds twice as many rows.
SWEEP_WIDTHS = (
    {"num_qubits": 10, "num_layers": 5, "iterations": 2, "restarts": 4},
    {"num_qubits": 12, "num_layers": 2, "iterations": 2, "restarts": 4},
    {"num_qubits": 14, "num_layers": 2, "iterations": 2, "restarts": 2},
)
#: Candidate divisors of ``chunk_bytes``, incumbent first.
SWEEP_DIVISORS = (32, 16, 64)
#: Fresh processes per point (alternating between variants), each timing
#: ``SWEEP_RUNS`` runs after one warm-up run.  Shared with the cap A/B.
SWEEP_ROUNDS = 5
SWEEP_RUNS = 2
#: Fast-path cap A/B workloads: the wide-register panel, and a batched
#: variance grid with targets past the cap at both widths.
CAP_PANEL = dict(WIDE, iterations=2)
CAP_GRID = {
    "qubit_counts": [12, 14],
    "num_circuits": 8,
    "num_layers": 10,
    "methods": ["random", "xavier_normal", "he_normal"],
}


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
    if list(sequential) != list(lockstep):
        return False
    return all(
        sequential[m].losses == lockstep[m].losses
        and sequential[m].gradient_norms == lockstep[m].gradient_norms
        and np.array_equal(sequential[m].initial_params, lockstep[m].initial_params)
        and np.array_equal(sequential[m].final_params, lockstep[m].final_params)
        for m in sequential
    )


def _quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"q1": q1, "median": median, "q3": q3, "samples": samples}


def _paper_panel(config, methods):
    sequential, sequential_time = _train(config, methods, "serial")
    lockstep, lockstep_time = _train(config, methods, "lockstep")
    return {
        "config": {
            "num_qubits": config.num_qubits,
            "num_layers": config.num_layers,
            "iterations": config.iterations,
            "methods": list(methods),
            "seed": SEED,
        },
        "trajectories": len(methods),
        "sequential_seconds": sequential_time,
        "lockstep_seconds": lockstep_time,
        "speedup": sequential_time / lockstep_time,
        "bit_identical": _histories_identical(sequential, lockstep),
    }


def _panel_spec(panel, executor, methods=tuple(PAPER_METHODS)):
    return ExperimentSpec(
        kind="training",
        config=TrainingConfig(
            num_qubits=panel["num_qubits"],
            num_layers=panel["num_layers"],
            iterations=panel["iterations"],
        ),
        seed=SEED,
        methods=methods,
        restarts=panel["restarts"],
        executor=executor,
    )


def _chunk_rows(num_qubits, divisor):
    chunk_bytes = get_array_backend("numpy").chunk_bytes
    return max(1, chunk_bytes // divisor // (16 * 2**num_qubits))


def _wide_register(wide, repeats, methods=tuple(PAPER_METHODS)):
    """Default (chunked lock-step) vs ``serial`` with interleaved samples:
    alternating within every repeat exposes both sides to the same
    machine state, as in ``bench_device_backend.py``."""
    default_spec = _panel_spec(wide, None, methods)
    serial_spec = _panel_spec(wide, "serial", methods)
    times = {"default": [], "serial": []}
    outcomes = {}
    for _ in range(repeats):
        for side, spec in (("default", default_spec), ("serial", serial_spec)):
            start = time.perf_counter()
            outcomes[side] = repro.run(spec)
            times[side].append(time.perf_counter() - start)
    return {
        "config": dict(wide, methods=list(methods), seed=SEED),
        "trajectories": len(methods) * wide["restarts"],
        "default_executor": default_spec.resolved_executor(),
        "chunk_rows": _chunk_rows(
            wide["num_qubits"], gradients._ADJOINT_CHUNK_DIVISOR
        ),
        "repeats": repeats,
        "default_seconds": _quartiles(times["default"]),
        "serial_seconds": _quartiles(times["serial"]),
        "bit_identical": _histories_identical(
            outcomes["serial"].histories, outcomes["default"].histories
        ),
    }


def _sweep_point(point):
    """Seconds per run in this process for one point: a training panel
    (``panel``, on ``executor``) or a variance grid (``grid``), at
    ``divisor`` and with the fast-path cap lifted when ``uncapped``; one
    warm-up run first."""
    if point.get("divisor") is not None:
        gradients._ADJOINT_CHUNK_DIVISOR = point["divisor"]
    if point.get("uncapped"):
        statevector._FAST_PATH_MAX_SLICES = 2 ** 30
    if "grid" in point:
        spec = ExperimentSpec(
            kind="variance", config=VarianceConfig(**point["grid"]), seed=SEED
        )
    else:
        spec = _panel_spec(point["panel"], point.get("executor"))
    repro.run(spec)
    times = []
    for _ in range(SWEEP_RUNS):
        start = time.perf_counter()
        repro.run(spec)
        times.append(time.perf_counter() - start)
    return times


def _fresh_process_samples(points):
    """Run every point in its own process, ``SWEEP_ROUNDS`` times,
    alternating between points so each sees the same drift of the host;
    quartiles of the pooled runs per point, in order."""
    samples = [[] for _ in points]
    for _ in range(SWEEP_ROUNDS):
        for slot, point in enumerate(points):
            done = subprocess.run(
                [sys.executable, __file__, "--sweep-point", json.dumps(point)],
                check=True,
                capture_output=True,
                text=True,
            )
            samples[slot] += json.loads(done.stdout.splitlines()[-1])
    return [_quartiles(slot) for slot in samples]


def _spread(stats):
    return (stats["q3"] - stats["q1"]) / stats["median"]


def _verdict(incumbent, challenger):
    """``faster``/``slower`` when the challenger's median differs from the
    incumbent's by more than either's spread, else ``tied``."""
    gap = 1 - challenger["median"] / incumbent["median"]
    spread = max(_spread(incumbent), _spread(challenger))
    if abs(gap) <= spread:
        return "tied"
    return "faster" if gap > 0 else "slower"


def _budget_sweep():
    """Seconds per panel per candidate divisor and width, each point in a
    fresh process, against ``serial``; the incumbent divisor stands
    unless a challenger wins outside the spread."""
    incumbent = SWEEP_DIVISORS[0]
    widths = []
    for panel in SWEEP_WIDTHS:
        serial, *chunked = _fresh_process_samples(
            [{"panel": panel, "executor": "serial"}]
            + [{"panel": panel, "divisor": d} for d in SWEEP_DIVISORS]
        )
        trajectories = len(PAPER_METHODS) * panel["restarts"]
        entries = [
            {
                "divisor": divisor,
                "rows_per_pass": min(
                    trajectories, _chunk_rows(panel["num_qubits"], divisor)
                ),
                "seconds": stats,
                "ratio_to_serial": stats["median"] / serial["median"],
                "vs_incumbent": _verdict(chunked[0], stats),
            }
            for divisor, stats in zip(SWEEP_DIVISORS, chunked)
        ]
        widths.append(
            dict(
                panel,
                trajectories=trajectories,
                serial_seconds=serial,
                chunked=entries,
            )
        )
    verdicts = {
        divisor: [
            entry["vs_incumbent"]
            for width in widths
            for entry in width["chunked"]
            if entry["divisor"] == divisor
        ]
        for divisor in SWEEP_DIVISORS[1:]
    }
    # A challenger wins by beating the incumbent outside the spread at some
    # width and losing at none.  All-tied or mixed verdicts leave the
    # incumbent standing, reported as unresolved.
    winners = [
        divisor
        for divisor, seen in verdicts.items()
        if "faster" in seen and "slower" not in seen
    ]
    losers = [
        divisor
        for divisor, seen in verdicts.items()
        if "slower" in seen and "faster" not in seen
    ]
    return {
        "chunk_bytes": get_array_backend("numpy").chunk_bytes,
        "rounds": SWEEP_ROUNDS,
        "runs_per_round": SWEEP_RUNS,
        "incumbent_divisor": incumbent,
        "committed_divisor": gradients._ADJOINT_CHUNK_DIVISOR,
        "picked_divisor": winners[0] if len(winners) == 1 else incumbent,
        "unresolved": len(winners) != 1 and len(losers) != len(verdicts),
        "widths": widths,
    }


def _cap_ab():
    """The fast-path slice cap on against off, in fresh processes, on
    the wide lock-step panel and on a wide batched variance grid."""
    sections = {}
    for name, point in (
        ("lockstep_panel", {"panel": CAP_PANEL}),
        ("variance_grid", {"grid": CAP_GRID}),
    ):
        capped, uncapped = _fresh_process_samples(
            [point, dict(point, uncapped=True)]
        )
        sections[name] = {
            "workload": point,
            "capped_seconds": capped,
            "uncapped_seconds": uncapped,
            "uncapped_over_capped": uncapped["median"] / capped["median"],
        }
    return dict(max_slices=statevector._FAST_PATH_MAX_SLICES, **sections)


def _print_report(payload):
    panel = payload["paper_panel"]
    print()
    print("=" * 72)
    print("Lock-step (batched adjoint) vs sequential training (reduced Fig. 5b)")
    print("=" * 72)
    print(
        format_table(
            ["mode", "seconds", "speedup"],
            [
                ["sequential", f"{panel['sequential_seconds']:.2f}", "1.0x"],
                [
                    "lock-step",
                    f"{panel['lockstep_seconds']:.2f}",
                    f"{panel['speedup']:.2f}x",
                ],
            ],
        )
    )
    print(f"bit-identical histories: {panel['bit_identical']}")
    wide = payload["wide_register"]
    print()
    print(
        f"Wide register: {wide['config']['num_qubits']} qubits, "
        f"{wide['trajectories']} trajectories, {wide['chunk_rows']}-row chunks, "
        f"{wide['repeats']} interleaved repeats"
    )
    print(
        format_table(
            ["executor", "q1 s", "median s", "q3 s"],
            [
                [
                    name,
                    f"{wide[key]['q1']:.2f}",
                    f"{wide[key]['median']:.2f}",
                    f"{wide[key]['q3']:.2f}",
                ]
                for name, key in (
                    (f"default ({wide['default_executor']})", "default_seconds"),
                    ("serial", "serial_seconds"),
                )
            ],
        )
    )
    print(f"bit-identical histories: {wide['bit_identical']}")
    sweep = payload["budget_sweep"]
    print()
    print(
        "Budget sweep: median seconds per panel [q1-q3] (rows per pass, vs "
        f"/{sweep['incumbent_divisor']}), fresh processes"
    )
    print(
        format_table(
            ["width", "serial"] + [f"/{d}" for d in SWEEP_DIVISORS],
            [
                [
                    f"{w['num_qubits']}q x{w['trajectories']}",
                    _span(w["serial_seconds"]),
                ]
                + [
                    f"{_span(e['seconds'])} ({e['rows_per_pass']}, "
                    f"{e['vs_incumbent']})"
                    for e in w["chunked"]
                ]
                for w in sweep["widths"]
            ],
        )
    )
    print(
        f"picked /{sweep['picked_divisor']}"
        f"{' (unresolved)' if sweep['unresolved'] else ''}, "
        f"committed /{sweep['committed_divisor']}"
    )
    cap = payload["fast_path_cap"]
    print()
    print(
        f"Fast-path cap ({cap['max_slices']} slices) on vs off: median "
        "seconds [q1-q3], fresh processes"
    )
    print(
        format_table(
            ["workload", "capped", "uncapped", "uncapped / capped"],
            [
                [
                    name,
                    _span(cap[name]["capped_seconds"]),
                    _span(cap[name]["uncapped_seconds"]),
                    f"{cap[name]['uncapped_over_capped']:.2f}",
                ]
                for name in ("lockstep_panel", "variance_grid")
            ],
        )
    )


def _span(stats):
    return f"{stats['median']:.2f} [{stats['q1']:.2f}-{stats['q3']:.2f}]"


def _run_full():
    config = TrainingConfig(
        num_qubits=NUM_QUBITS, num_layers=NUM_LAYERS, iterations=ITERATIONS
    )
    payload = {
        "paper_panel": _paper_panel(config, METHODS),
        "wide_register": _wide_register(WIDE, WIDE_REPEATS),
        "budget_sweep": _budget_sweep(),
        "fast_path_cap": _cap_ab(),
        "machine": machine_context(),
    }
    _print_report(payload)
    target = ROOT / "BENCH_batched_adjoint.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    return payload


def _assert_contract(payload):
    panel, wide = payload["paper_panel"], payload["wide_register"]
    # Lock-step must never change results.
    assert panel["bit_identical"], "lock-step histories diverged from sequential"
    assert wide["bit_identical"], "default executor diverged from serial"
    # The acceptance bar: >= 3x for >= 8 trajectories at paper scale.
    assert panel["speedup"] >= 3.0, f"expected >= 3x, got {panel['speedup']:.2f}x"
    # Chunking keeps the wide stack at least as fast as serial.
    assert wide["default_seconds"]["median"] <= wide["serial_seconds"]["q3"], (
        f"default median {wide['default_seconds']['median']:.2f}s above "
        f"serial q3 {wide['serial_seconds']['q3']:.2f}s"
    )
    # The fast-path slice cap slows neither workload it reroutes.
    for name in ("lockstep_panel", "variance_grid"):
        side = payload["fast_path_cap"][name]
        assert (
            side["capped_seconds"]["median"] <= side["uncapped_seconds"]["q3"]
        ), f"{name}: capped median above uncapped q3"


def _run_smoke():
    config = TrainingConfig(num_qubits=4, num_layers=2, iterations=5)
    panel = _paper_panel(config, METHODS[:4])
    wide = _wide_register(SMOKE_WIDE, repeats=2, methods=tuple(PAPER_METHODS[:5]))
    return {
        "smoke": True,
        "paper_panel_bit_identical": panel["bit_identical"],
        "wide_register_bit_identical": wide["bit_identical"],
        "wide_register_chunk_rows": wide["chunk_rows"],
        "wide_register_trajectories": wide["trajectories"],
        "machine": machine_context(),
    }


def test_batched_adjoint_training(run_once):
    _assert_contract(run_once(_run_full))


@pytest.mark.slow
def test_batched_adjoint_smoke(run_once):
    """Fast smoke configuration: identity only, no speedup bar."""
    payload = run_once(_run_smoke)
    assert payload["paper_panel_bit_identical"]
    assert payload["wide_register_bit_identical"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="identity checks only at toy scale (the CI configuration); "
        "writes BENCH_batched_adjoint_smoke.json",
    )
    parser.add_argument("--sweep-point", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sweep_point:
        print(json.dumps(_sweep_point(json.loads(args.sweep_point))))
        return
    if not args.smoke:
        _assert_contract(_run_full())
        return
    payload = _run_smoke()
    print(
        f"[smoke] paper panel identity: {payload['paper_panel_bit_identical']}, "
        f"wide register identity ({payload['wide_register_trajectories']} "
        f"trajectories, {payload['wide_register_chunk_rows']}-row chunks): "
        f"{payload['wide_register_bit_identical']}"
    )
    # A distinct file: the smoke payload must never clobber the canonical
    # full-run numbers recorded in BENCH_batched_adjoint.json.
    target = ROOT / "BENCH_batched_adjoint_smoke.json"
    target.write_text(json.dumps(payload, indent=2))
    print(f"wrote {target}")
    assert payload["paper_panel_bit_identical"]
    assert payload["wide_register_bit_identical"]


if __name__ == "__main__":
    main()
