"""Gradient-variance analysis engine (paper Section IV-C, Fig. 5a).

For every qubit count the engine samples ``num_circuits`` random PQC
structures (Eq. 2), initializes each with every method under test, and
records the cost gradient with respect to the circuit's *last* parameter,
computed with the exact parameter-shift rule (two circuit executions).

Pairing matters: the same circuit structures — and, per structure, the same
RNG child streams — are reused across methods, so method comparisons are
paired rather than confounded by structure resampling noise.

A shard runs in two steps.  First every structure's gate codes
(:attr:`RandomPQC.codes <repro.ansatz.random_pqc.RandomPQC>`) and every
method's angles are drawn, structure by structure and in method order,
before anything is evaluated; no circuit is built per structure.  Every
structure of a shard shares one circuit shape, so the codes stack into
one table over the configuration's skeleton: one
:class:`~repro.backend.simulator.MegaBatchPlan` and one cost per shard,
whose (structures x methods x shift terms) rows run in one
:func:`repro.backend.gradients.megabatch_parameter_shift` call, with
batch sizes in the hundreds.  Noisy shards fold the same plan:
:class:`~repro.backend.ptm.PauliTransferSimulator` runs the statevector
simulator's row loop over it, each row with its own gate's channel.
Since all sampling happens before any evaluation, the seeded gradients
do not depend on how the grid is cut into shards or which executor runs
them; ``tests/oracles.py`` keeps the per-structure, per-method shift
loop, over built circuits, they are checked against.

With ``VarianceConfig.shots`` the probed gradients are estimated from
finite measurement samples instead of analytically: each method reserves
one further per-circuit child stream (after the angle draws), so the
sampled grid, too, is bit-identical across executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ansatz.base import check_entangler, check_rotation_gates
from repro.ansatz.entanglement import ENTANGLEMENT_PATTERNS
from repro.ansatz.random_pqc import DEFAULT_GATE_POOL, RandomPQC
from repro.backend.gates import get_gate
from repro.backend.gradients import megabatch_parameter_shift
from repro.backend.noise import NoiseModel, resolve_noise_model
from repro.backend.ptm import PauliTransferSimulator
from repro.backend.simulator import MegaBatchPlan, StatevectorSimulator
from repro.core.cost import check_cost_kind, make_cost
from repro.core.results import GradientSamples, VarianceResult
from repro.initializers import Initializer, get_initializer
from repro.initializers.registry import PAPER_METHODS, resolve_initializer_names
from repro.utils.array_api import check_array_backend_name
from repro.utils.rng import SeedLike, derive_seeds, spawn_seeds
from repro.utils.validation import (
    check_in_choices,
    check_positive_int,
    check_register_fits,
)

__all__ = [
    "VarianceConfig",
    "VarianceAnalysis",
    "VarianceShard",
    "plan_variance_shards",
    "run_variance_shard",
    "merge_variance_outputs",
    "format_variance_progress",
]


@dataclass
class VarianceConfig:
    """Configuration of the variance study.

    Defaults follow the paper where it is explicit: qubit set
    {2, 4, 6, 8, 10}, 200 circuits per qubit count, gate pool {RX, RY, RZ},
    CZ chain entanglement, global identity cost, gradient of the last
    parameter only.

    The paper never states the variance-analysis circuit depth (only that
    it is "substantial").  Depth controls the outcome: width-scaled
    initializers keep per-qubit accumulated angle variance at
    ``num_layers / num_qubits``, so once ``num_layers >> num_qubits`` every
    scheme scrambles to a 2-design and the separation from random vanishes
    (``benchmarks/bench_ablation_depth.py`` measures it; DESIGN.md §5b).
    The default of 30 layers is deep enough that random initialization
    shows textbook BP decay (rate ~ 2 ln 2 per qubit) while the classical
    schemes retain their advantage — the regime the paper reports.
    """

    qubit_counts: Sequence[int] = (2, 4, 6, 8, 10)
    num_circuits: int = 200
    num_layers: int = 30
    #: Initializer names, stored as a tuple of canonical registry names
    #: (case-insensitive, aliases resolved); a method named twice raises.
    #: ``method_kwargs`` keys are canonicalized the same way.
    methods: Sequence[str] = tuple(PAPER_METHODS)
    gate_pool: Sequence[str] = DEFAULT_GATE_POOL
    entanglement: str = "chain"
    entangler: str = "CZ"
    cost_kind: str = "global"
    #: Which parameter's gradient to probe: the paper differentiates the
    #: "last" parameter; "first" and "middle" are extensions (McClean et
    #: al. probe an early-layer angle, where the tail of the circuit also
    #: scrambles the observable).
    param_position: str = "last"
    #: Estimate every probed gradient from this many measurement samples
    #: instead of analytically — the hardware-realistic noise extension.
    #: Each method gets an independent per-circuit sampling stream (one
    #: child seed per method, after the angle draws' children), so
    #: sampled grids stay bit-identical across executors too.
    shots: Optional[int] = None
    #: Array backend the statevector kernels run on: ``"numpy"`` (default,
    #: bit-identical to the pre-backend code) or an accelerator namespace
    #: spec such as ``"torch"`` / ``"torch:cuda:0"`` / ``"cupy"``.  The
    #: name is checked against the registry here; the namespace is
    #: resolved lazily at run time (see :mod:`repro.utils.array_api`).
    #: Excluded from checkpoint fingerprints only at its default.
    backend: str = "numpy"
    #: Serializable noise-model payload (``NoiseModel.from_dict``
    #: vocabulary: ``default`` / ``per_gate`` channels plus
    #: ``readout_error``).  When set, every probed gradient runs through
    #: the batched Pauli-transfer engine
    #: (:class:`repro.backend.ptm.PauliTransferSimulator`) instead of the
    #: statevector kernels.  Trivial payloads (no channels, ideal
    #: readout) are normalized to ``None`` so they hit the noiseless fast
    #: path — and the same checkpoint fingerprints.
    noise: Optional[Dict[str, object]] = None
    method_kwargs: Dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.qubit_counts:
            raise ValueError("qubit_counts must be non-empty")
        for q in self.qubit_counts:
            check_positive_int(int(q), "qubit count")
        counts = [int(q) for q in self.qubit_counts]
        if len(set(counts)) != len(counts):
            raise ValueError(
                f"qubit_counts must not repeat a count, got {tuple(counts)}"
            )
        check_positive_int(self.num_circuits, "num_circuits")
        check_positive_int(self.num_layers, "num_layers")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        # Stored canonical, so outcome tables, fingerprints and initializer
        # lookups see one spelling per method.
        self.methods = resolve_initializer_names(self.methods, "methods")
        if not isinstance(self.method_kwargs, dict):
            raise ValueError(
                "method_kwargs must map initializer names to keyword "
                f"arguments, got {self.method_kwargs!r}"
            )
        self.method_kwargs = dict(
            zip(
                resolve_initializer_names(self.method_kwargs, "method_kwargs"),
                self.method_kwargs.values(),
            )
        )
        # Gate names are stored upper-case, so spellings of one circuit
        # share a fingerprint.
        self.gate_pool = check_rotation_gates(self.gate_pool, "gate_pool")
        check_in_choices(self.entanglement, ENTANGLEMENT_PATTERNS, "entanglement")
        self.entangler = check_entangler(self.entangler)
        check_cost_kind(self.cost_kind)
        if self.param_position not in ("first", "middle", "last"):
            raise ValueError(
                "param_position must be 'first', 'middle' or 'last', got "
                f"{self.param_position!r}"
            )
        if self.shots is not None:
            check_positive_int(self.shots, "shots")
        check_array_backend_name(self.backend)
        if self.noise is not None:
            # Validate eagerly and store the canonical payload; trivial
            # models collapse to None (the noiseless path *is* their
            # exact execution, and the fingerprints stay aligned).
            model = NoiseModel.from_dict(dict(self.noise))
            self.noise = None if model.is_trivial else model.to_dict()
        for q in counts:
            check_register_fits(q, noisy=self.noise is not None)

    def build_initializers(self) -> Dict[str, Initializer]:
        """Instantiate the configured initialization methods by name."""
        return {
            name: get_initializer(name, **self.method_kwargs.get(name, {}))
            for name in self.methods
        }


@dataclass(frozen=True)
class VarianceShard:
    """One schedulable slice of the variance grid.

    A shard is a contiguous run of circuit instances for a single qubit
    count, carrying the *pre-reserved* RNG children (two per circuit:
    structure, angles) it will consume.  Because the children are reserved
    up front via :func:`repro.utils.rng.spawn_seeds`, executing shards in
    any order — or in other processes — reproduces the serial streams bit
    for bit.
    """

    num_qubits: int
    #: Index of the shard's first circuit within its qubit count's grid row.
    start: int
    #: ``(structure, angles)`` seed pairs, flattened: ``2 * num_circuits``.
    seeds: Tuple[np.random.SeedSequence, ...]

    @property
    def num_circuits(self) -> int:
        return len(self.seeds) // 2

    @property
    def unit_id(self) -> str:
        return f"variance-q{self.num_qubits}-c{self.start:05d}"


def plan_variance_shards(
    config: VarianceConfig,
    seed: SeedLike = None,
    circuits_per_shard: Optional[int] = None,
) -> List[VarianceShard]:
    """Split the (qubit count x circuit) grid into executable shards.

    All RNG children are reserved here, in the exact order the serial loop
    would spawn them, so the plan — not the execution schedule — fixes
    every random stream.  ``circuits_per_shard=None`` yields one shard per
    qubit count; smaller values subdivide each qubit count's row for load
    balancing across workers.
    """
    counts = [int(q) for q in config.qubit_counts]
    per_count = config.num_circuits
    children = spawn_seeds(seed, 2 * per_count * len(counts))
    if circuits_per_shard is None:
        step = per_count
    else:
        step = check_positive_int(int(circuits_per_shard), "circuits_per_shard")
    shards: List[VarianceShard] = []
    for k, num_qubits in enumerate(counts):
        base = 2 * per_count * k
        for start in range(0, per_count, step):
            stop = min(start + step, per_count)
            shards.append(
                VarianceShard(
                    num_qubits=num_qubits,
                    start=start,
                    seeds=tuple(children[base + 2 * start : base + 2 * stop]),
                )
            )
    return shards


def _build_simulator(config: VarianceConfig):
    """Simulator for a config: statevector, or PTM when noise is set."""
    noise_model = resolve_noise_model(config.noise)
    if noise_model is not None:
        return PauliTransferSimulator(noise_model, backend=config.backend)
    return StatevectorSimulator(backend=config.backend)


def run_variance_shard(
    config: VarianceConfig,
    shard: VarianceShard,
    simulator: Optional[StatevectorSimulator] = None,
) -> dict:
    """Execute one shard and return a JSON-able output record.

    This is the picklable work-unit function shipped to executor workers
    (and written to shard checkpoints): plain ``dict``/``list``/``float``
    payloads only, keyed so :func:`merge_variance_outputs` can reassemble
    the full grid in order.
    """
    simulator = simulator or _build_simulator(config)
    initializers = config.build_initializers()
    codes: List[np.ndarray] = []
    params: List[np.ndarray] = []
    sample_seeds: Optional[list] = [] if config.shots is not None else None
    # Sampled probes take one further child per method, in method order
    # after every angle draw's, so the draw streams stay bit-stable.
    per_structure = len(initializers) * (1 if sample_seeds is None else 2)
    for i in range(shard.num_circuits):
        pqc = RandomPQC(
            num_qubits=shard.num_qubits,
            num_layers=config.num_layers,
            gate_pool=config.gate_pool,
            entanglement=config.entanglement,
            entangler=config.entangler,
            seed=shard.seeds[2 * i],
        )
        # Per-method child streams derived from one per-circuit parent keep
        # the comparison paired and order-independent; deriving them leaves
        # the parent as it was, so a retried shard draws the same numbers.
        # Every method's angles are drawn before anything is evaluated.
        children = derive_seeds(shard.seeds[2 * i + 1], per_structure)
        shape = pqc.parameter_shape
        draws = [
            initializer.sample(shape, child)
            for initializer, child in zip(initializers.values(), children)
        ]
        if sample_seeds is not None:
            sample_seeds.extend(children[len(initializers):])
        codes.append(pqc.codes)
        params.append(np.stack([np.ravel(draw) for draw in draws]))
    # Every structure of the shard shares the skeleton, and every cost
    # kind depends on the width alone: one plan and one cost.
    plan = MegaBatchPlan(
        template=pqc.skeleton(),
        gates=[get_gate(name) for name in pqc.gate_pool],
        codes=codes,
    )
    cost = make_cost(config.cost_kind, plan.template, simulator=simulator)
    count = plan.num_parameters
    probe = {"first": 0, "middle": count // 2, "last": count - 1}
    # Base rows are structures in order, methods within each, and so are
    # the per-base-row sampling streams.
    outs = megabatch_parameter_shift(
        plan,
        cost.observable,
        params,
        simulator=simulator,
        param_indices=[probe[config.param_position]],
        shots=config.shots,
        seed=sample_seeds,
    )
    return {
        "num_qubits": shard.num_qubits,
        "start": shard.start,
        "gradients": {
            method: [float(cost.scale * raw[slot, 0]) for raw in outs]
            for slot, method in enumerate(config.methods)
        },
    }


def merge_variance_outputs(
    config: VarianceConfig, outputs: Sequence[dict]
) -> VarianceResult:
    """Reassemble shard outputs into a :class:`VarianceResult`.

    Shards may arrive in any order (process pools complete out of order;
    resumed runs mix checkpointed and fresh shards); rows are re-sorted by
    their ``start`` offset and validated against the configured grid.
    """
    by_count: Dict[int, List[dict]] = {int(q): [] for q in config.qubit_counts}
    for output in outputs:
        num_qubits = int(output["num_qubits"])
        if num_qubits not in by_count:
            raise ValueError(f"unexpected shard for {num_qubits} qubits")
        by_count[num_qubits].append(output)
    result = VarianceResult(
        qubit_counts=[int(q) for q in config.qubit_counts],
        methods=list(config.methods),
    )
    for num_qubits, rows in by_count.items():
        rows.sort(key=lambda row: int(row["start"]))
        for method in config.methods:
            gradients = [
                float(g) for row in rows for g in row["gradients"][method]
            ]
            if len(gradients) != config.num_circuits:
                raise ValueError(
                    f"incomplete grid row for q={num_qubits}, {method!r}: "
                    f"{len(gradients)} of {config.num_circuits} circuits"
                )
            result.add(
                GradientSamples(
                    num_qubits=num_qubits,
                    method=method,
                    gradients=np.asarray(gradients),
                )
            )
    return result


def format_variance_progress(
    config: VarianceConfig, num_qubits: int, rows: Sequence[dict]
) -> str:
    """The one-line-per-qubit-count progress message used by verbose runs.

    ``rows`` are the shard outputs covering one qubit count (any order).
    """
    ordered = sorted(rows, key=lambda row: int(row["start"]))
    variances = ", ".join(
        "{}={:.3e}".format(
            method,
            np.var(
                np.asarray(
                    [g for row in ordered for g in row["gradients"][method]]
                )
            ),
        )
        for method in config.methods
    )
    return f"[variance] q={num_qubits}: {variances}"


class VarianceAnalysis:
    """Runs the variance study and returns a :class:`VarianceResult`.

    This is the in-process entry point; it plans one shard per qubit count
    and executes them serially.  For sharded / multi-process execution use
    :func:`repro.run` with an :class:`~repro.core.spec.ExperimentSpec`,
    which routes the same shard functions through a pluggable executor.
    """

    def __init__(
        self,
        config: Optional[VarianceConfig] = None,
        simulator: Optional[StatevectorSimulator] = None,
    ):
        self.config = config or VarianceConfig()
        self.simulator = simulator or _build_simulator(self.config)

    def run(self, seed: SeedLike = None, verbose: bool = False) -> VarianceResult:
        """Execute the full (qubit count x method x circuit) grid.

        Parameters
        ----------
        seed:
            Master seed; every circuit instance derives independent child
            streams for its structure and for each method's angles.
        verbose:
            Print one progress line per qubit count.
        """
        config = self.config
        shards = plan_variance_shards(config, seed)
        outputs = []
        for shard in shards:
            output = run_variance_shard(config, shard, simulator=self.simulator)
            outputs.append(output)
            if verbose:
                # One shard per qubit count here, so the row is complete.
                print(
                    format_variance_progress(config, shard.num_qubits, [output])
                )
        return merge_variance_outputs(config, outputs)
