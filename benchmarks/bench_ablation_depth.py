"""A6 — ablation: the initialization advantage depends on circuit depth.

The paper only says the variance-analysis circuits have "substantial
depth".  This bench sweeps the depth and measures Xavier's improvement
over random at each, exposing the mechanism: a width-scaled initializer
keeps per-qubit accumulated angle variance at ``depth / qubits``, so at
shallow-to-moderate depth the ensemble stays near-identity (large
improvement) while at ``depth >> qubits`` it scrambles to a 2-design and
the advantage shrinks (this sweep's deepest point measures it; see
DESIGN.md §5b).

Shape assertions: random shows strong decay at every depth; Xavier's
improvement is large at moderate depth and strictly smaller at the
largest depth tested.
"""

from repro.analysis import format_table
from repro.core import VarianceConfig, run_variance_experiment

DEPTHS = (5, 20, 60)
QUBIT_COUNTS = (2, 4, 6)
NUM_CIRCUITS = 40
SEED = 606
METHODS = ("random", "xavier_normal")


def _run():
    outcomes = {}
    for depth in DEPTHS:
        config = VarianceConfig(
            qubit_counts=QUBIT_COUNTS,
            num_circuits=NUM_CIRCUITS,
            num_layers=depth,
            methods=METHODS,
        )
        outcomes[depth] = run_variance_experiment(config, seed=SEED)
    return outcomes


def test_depth_ablation(run_once):
    outcomes = run_once(_run)

    print()
    print("=" * 72)
    print("Ablation A6 — Xavier improvement over random vs circuit depth")
    print(f"  circuits={NUM_CIRCUITS}, qubits={QUBIT_COUNTS}, seed={SEED}")
    print("=" * 72)
    rows = []
    for depth, outcome in outcomes.items():
        rows.append(
            [
                str(depth),
                f"{outcome.fits['random'].rate:.3f}",
                f"{outcome.fits['xavier_normal'].rate:.3f}",
                f"{outcome.improvements['xavier_normal']:+.1f}%",
            ]
        )
    print(
        format_table(
            ["depth", "random_rate", "xavier_rate", "xavier_improvement"], rows
        )
    )
    print(
        "\nmechanism: per-qubit accumulated angle variance = depth/qubits; "
        "once it is >> 1 the Xavier ensemble scrambles too and the "
        "advantage shrinks (results/run_depth30.py runs the paper-width "
        "grid at depth 30)."
    )

    improvements = {
        depth: outcome.improvements["xavier_normal"]
        for depth, outcome in outcomes.items()
    }
    # Random exhibits barren-plateau decay at every depth tested.
    for depth, outcome in outcomes.items():
        assert outcome.fits["random"].rate > 0.5, depth
    # The advantage shrinks as depth grows past the moderate regime.
    assert improvements[20] > improvements[60]
    # And it is substantial somewhere in the shallow/moderate regime.
    assert max(improvements.values()) > 25.0
