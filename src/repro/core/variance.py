"""Gradient-variance analysis engine (paper Section IV-C, Fig. 5a).

For every qubit count the engine samples ``num_circuits`` random PQC
structures (Eq. 2), initializes each with every method under test, and
records the cost gradient with respect to the circuit's *last* parameter,
computed with the exact parameter-shift rule (two circuit executions).

Pairing matters: the same circuit structures — and, per structure, the same
RNG child streams — are reused across methods, so method comparisons are
paired rather than confounded by structure resampling noise.

A shard runs in two steps.  First every structure is built and every
method's angles are drawn, structure by structure and in method order,
before anything is evaluated.  Then structures sharing a circuit *shape*
— for this sampler, every structure of a grid cell
(:func:`repro.ansatz.random_pqc.circuit_shape_key`) — are grouped into
shape buckets by :func:`plan_shape_buckets`, and each bucket's
(structures x methods x shift terms) rows run in one
:func:`repro.backend.gradients.megabatch_parameter_shift` call, with
batch sizes in the hundreds.  Noisy shards fold the same buckets:
:class:`~repro.backend.ptm.PauliTransferSimulator` runs the statevector
simulator's row loop over a bucket's plan, each row with its own gate's
channel.  Since all sampling happens before any
evaluation, the seeded gradients do not depend on how the grid is cut
into shards or which executor runs them; ``tests/oracles.py`` keeps the
per-structure, per-method shift loop they are checked against.

With ``VarianceConfig.shots`` the probed gradients are estimated from
finite measurement samples instead of analytically: each method reserves
one further per-circuit child stream (after the angle draws), so the
sampled grid, too, is bit-identical across executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ansatz.random_pqc import DEFAULT_GATE_POOL, RandomPQC
from repro.backend.circuit import QuantumCircuit
from repro.backend.gradients import megabatch_parameter_shift
from repro.backend.noise import NoiseModel, resolve_noise_model
from repro.backend.observables import Observable
from repro.backend.ptm import PauliTransferSimulator
from repro.backend.simulator import StatevectorSimulator
from repro.core.cost import make_cost
from repro.core.results import GradientSamples, VarianceResult
from repro.initializers import Initializer, get_initializer
from repro.initializers.registry import PAPER_METHODS, resolve_initializer_names
from repro.utils.array_api import check_array_backend_name
from repro.utils.rng import SeedLike, ensure_rng, spawn_rng, spawn_seeds
from repro.utils.validation import check_positive_int

__all__ = [
    "VarianceConfig",
    "VarianceAnalysis",
    "VarianceShard",
    "plan_variance_shards",
    "plan_shape_buckets",
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
    #: ``spawn_rng`` child per method, reserved after the angle draws), so
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


def plan_shape_buckets(keys: Sequence) -> List[List[int]]:
    """Group structure indices into shape buckets, first-appearance order.

    ``keys`` are hashable shape fingerprints (one per structure, e.g. from
    :func:`repro.ansatz.random_pqc.circuit_shape_key`); the result is one
    index list per distinct key, each list in ascending order.  For the
    paper's sampler every structure of a grid cell shares one shape, so a
    shard typically collapses into a single bucket of
    ``num_circuits x methods x shift-terms`` foldable rows — but the
    planner stays general for samplers whose wire patterns vary.
    """
    buckets: "Dict[object, List[int]]" = {}
    for index, key in enumerate(keys):
        buckets.setdefault(key, []).append(index)
    return list(buckets.values())


@dataclass
class _StructureRows:
    """One structure's contribution to a shape bucket's mega-batch."""

    circuit: QuantumCircuit
    observable: Observable
    scale: float
    #: ``(num_methods, P)`` angle matrix, method order.
    params: np.ndarray
    #: Per-method sampling streams (``None`` in analytic mode).
    sample_rngs: Optional[list]


def _observable_signature(observable: Observable):
    """Hashable identity of an observable, folded into bucket keys.

    A bucket shares its first structure's observable across all rows, so
    only structures whose observables are *known equal* may share a
    bucket.  The current cost kinds depend on the qubit count alone, but
    the key guards the invariant structurally: an unrecognized (or
    future structure-dependent) observable falls back to object identity,
    which degrades those structures to singleton buckets — still correct,
    just unfolded — instead of silently evaluating against the wrong
    operator.
    """
    from repro.backend.observables import PauliString, PauliSum, Projector

    if isinstance(observable, Projector):
        return ("projector", observable.bits)
    if isinstance(observable, PauliString):
        return ("pauli", observable.word, observable.coefficient)
    if isinstance(observable, PauliSum):
        return (
            "pauli_sum",
            tuple((term.word, term.coefficient) for term in observable.terms),
        )
    return ("opaque", id(observable))


def _probe_index(config: VarianceConfig, count: int) -> int:
    """Resolve ``config.param_position`` to a parameter index."""
    if config.param_position == "first":
        return 0
    if config.param_position == "middle":
        return count // 2
    return count - 1


def _build_simulator(
    config: VarianceConfig, noise_model: Optional[NoiseModel] = None
):
    """Simulator for a config: statevector, or PTM when noise is set."""
    if noise_model is None:
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
    noise_model = resolve_noise_model(config.noise)
    simulator = simulator or _build_simulator(config, noise_model)
    initializers = config.build_initializers()
    keys: List = []
    items: List[_StructureRows] = []
    for i in range(shard.num_circuits):
        structure_rng = ensure_rng(shard.seeds[2 * i])
        angles_rng = ensure_rng(shard.seeds[2 * i + 1])
        pqc = RandomPQC(
            num_qubits=shard.num_qubits,
            num_layers=config.num_layers,
            gate_pool=config.gate_pool,
            entanglement=config.entanglement,
            entangler=config.entangler,
            seed=structure_rng,
        )
        circuit = pqc.build()
        cost = make_cost(config.cost_kind, circuit, simulator=simulator)
        shape = pqc.parameter_shape
        # Per-method child streams derived from one per-circuit parent keep
        # the comparison paired and order-independent.  Every method's
        # angles are drawn before anything is evaluated.
        draws = {
            method: initializer.sample(shape, spawn_rng(angles_rng))
            for method, initializer in initializers.items()
        }
        # Sampled probes reserve one further child per method, in method
        # order after every angle draw, so the draw streams above stay
        # bit-stable.
        sample_rngs = None
        if config.shots is not None:
            sample_rngs = [spawn_rng(angles_rng) for _ in config.methods]
        keys.append((pqc.shape_key, _observable_signature(cost.observable)))
        items.append(
            _StructureRows(
                circuit=circuit,
                observable=cost.observable,
                scale=cost.scale,
                params=np.stack(
                    [
                        np.asarray(draws[m], dtype=float).reshape(-1)
                        for m in config.methods
                    ]
                ),
                sample_rngs=sample_rngs,
            )
        )
    return {
        "num_qubits": shard.num_qubits,
        "start": shard.start,
        "gradients": _execute_buckets(
            config, items, plan_shape_buckets(keys), simulator
        ),
    }


def _execute_buckets(
    config: VarianceConfig,
    items: Sequence[_StructureRows],
    buckets: Sequence[Sequence[int]],
    simulator: StatevectorSimulator,
) -> Dict[str, List[float]]:
    """Run a shard's structures bucket by bucket; gradients per method.

    Every bucket folds its (structures x methods x shift terms) rows into
    one :func:`~repro.backend.gradients.megabatch_parameter_shift`
    execution; the per-structure gradient blocks are then read back in
    original structure order.
    """
    per_structure: List[Optional[np.ndarray]] = [None] * len(items)
    for bucket in buckets:
        first = items[bucket[0]]
        index = _probe_index(config, first.circuit.num_parameters)
        seed = None
        if config.shots is not None:
            # Per-base-row streams: structures in bucket order, methods
            # within each structure.
            seed = [rng for i in bucket for rng in items[i].sample_rngs]
        outs = megabatch_parameter_shift(
            [items[i].circuit for i in bucket],
            first.observable,
            [items[i].params for i in bucket],
            simulator=simulator,
            param_indices=[index],
            shots=config.shots,
            seed=seed,
        )
        for i, out in zip(bucket, outs):
            per_structure[i] = out
    return {
        method: [
            float(item.scale * raw[slot, 0])
            for item, raw in zip(items, per_structure)
        ]
        for slot, method in enumerate(config.methods)
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
