"""Paper-width variance study at the default depth of 30 (DESIGN.md §5b).

Run from the repository root with ``PYTHONPATH=src python
results/run_depth30.py``; the outcome is saved next to this script as
``fig5a_depth30_full.json``.
"""

from pathlib import Path

import repro
from repro.analysis import decay_table, variance_table
from repro.core import ExperimentSpec, VarianceConfig
from repro.io import save_result

config = VarianceConfig(num_layers=30)  # qubits 2-10, 200 circuits
spec = ExperimentSpec(kind="variance", config=config, seed=20240311)
outcome = repro.run(spec, verbose=True)
print(variance_table(outcome.result))
print()
print(decay_table(outcome.fits, outcome.improvements))
print("ranking:", outcome.ranking)
save_result(outcome, Path(__file__).resolve().parent / "fig5a_depth30_full.json")
