"""Declarative experiment specification — the ``repro.run`` entry point.

Every paper artifact is reachable through one object and one call: an
:class:`ExperimentSpec` names *what* to run (kind + config + seed) and
*how* to run it (executor + workers + checkpointing), and :func:`run`
dispatches it.  The legacy entry points (``run_variance_experiment``,
``run_training_experiment``, ``sweep_variance``) are thin shims over this
path.

Quickstart
----------
Run the Fig. 5a variance study on the default (serial) executor::

    import repro
    from repro import ExperimentSpec, VarianceConfig

    spec = ExperimentSpec(
        kind="variance",
        config=VarianceConfig(qubit_counts=(2, 4, 6), num_circuits=50),
        seed=0,
    )
    outcome = repro.run(spec)           # VarianceExperimentOutcome
    print(outcome.ranking)

Variance grids run mega-batched: each work unit folds all of its
same-shape structures into stacked executions hundreds of rows wide.
Shard the same grid over 4 worker processes, with checkpoint/resume —
seeded results are bit-identical to the serial run::

    spec = ExperimentSpec(
        kind="variance",
        config=VarianceConfig(qubit_counts=(2, 4, 6), num_circuits=50),
        seed=0,
        executor="process_pool",
        workers=4,
        checkpoint_dir="checkpoints/fig5a",
    )
    outcome = repro.run(spec)           # interrupted? rerun to resume

Training (one Fig. 5b/5c panel) and sweeps use the same shape.  By
default an analytic, noiseless training spec runs on the ``lockstep``
executor, which advances every (method, restart) trajectory
simultaneously through the batched adjoint engine — one batched sweep
per iteration, histories bit-identical to ``serial``, which runs the
same loop one trajectory per work unit::

    repro.run(ExperimentSpec(kind="training", seed=1, methods=("random", "zeros")))
    repro.run(ExperimentSpec(kind="training", seed=1, restarts=5))
    repro.run(ExperimentSpec(
        kind="sweep", sweep_field="num_layers", sweep_values=[10, 30, 60], seed=2,
    ))

Any spec runs under hardware-realistic sampling noise by adding
``shots=`` — losses, gradients and variance probes become finite-sample
estimates with per-trajectory measurement streams spawned from the spec
seed, still bit-identical across executors (training with ``shots`` or
``noise`` defaults to ``serial``; name ``lockstep`` to fold it)::

    repro.run(ExperimentSpec(kind="training", seed=1, shots=1024, executor="lockstep"))

Specs serialize: ``spec.to_dict()`` / ``ExperimentSpec.from_file(path)``
round-trip through JSON, and the CLI runs a saved file directly::

    python -m repro run spec.json --workers 4

Executors live in a registry (:mod:`repro.core.executor`): ``serial``
(in-process; variance default), ``lockstep`` (``serial`` plus lock-step
training; analytic training default) and ``process_pool`` (multi-process
sharding).  ``batched`` is an alias of ``serial``, ``async`` and
``remote`` of ``process_pool``, and ``device`` of ``lockstep``.
``repro info`` lists them all.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend.noise import NoiseModel
from repro.core.executor import Executor, WorkUnit, executor_class, get_executor
from repro.reliability import FaultPlan, RetryPolicy
from repro.core.training import TrainingConfig
from repro.core.variance import (
    VarianceConfig,
    format_variance_progress,
    merge_variance_outputs,
    plan_variance_shards,
)
from repro.core import variance as _variance_module
from repro.initializers.registry import PAPER_METHODS, resolve_initializer_names
from repro.utils.array_api import check_array_backend_name, get_array_backend
from repro.utils.rng import SeedLike, ensure_rng, spawn_rng, spawn_seeds
from repro.utils.validation import check_positive_int

__all__ = [
    "ExperimentSpec",
    "ExperimentPlan",
    "plan_experiment",
    "run",
    "EXPERIMENT_KINDS",
]

#: Supported experiment kinds and their config classes.
EXPERIMENT_KINDS: Dict[str, type] = {
    "variance": VarianceConfig,
    "training": TrainingConfig,
    "sweep": VarianceConfig,
}


def _encode_seed(seed: SeedLike) -> Any:
    """JSON-encodable form of a seed (``None``/int pass through)."""
    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, np.integer):
        return int(seed)
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq
        if seed_seq is None:  # pragma: no cover - legacy bit generators
            raise ValueError(
                "cannot serialize a Generator without a SeedSequence; "
                "pass an int seed instead"
            )
        seed = seed_seq
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {
            "entropy": entropy,
            "spawn_key": [int(k) for k in seed.spawn_key],
            "pool_size": int(seed.pool_size),
            "n_children_spawned": int(seed.n_children_spawned),
        }
    raise TypeError(f"cannot serialize seed of type {type(seed).__name__}")


def _decode_seed(payload: Any) -> SeedLike:
    """Inverse of :func:`_encode_seed`."""
    if payload is None or isinstance(payload, int):
        return payload
    if isinstance(payload, dict):
        return np.random.SeedSequence(
            entropy=payload.get("entropy"),
            spawn_key=tuple(payload.get("spawn_key", ())),
            pool_size=int(payload.get("pool_size", 4)),
            n_children_spawned=int(payload.get("n_children_spawned", 0)),
        )
    raise TypeError(f"cannot decode seed payload {payload!r}")


def _json_field(
    payload: dict,
    name: str,
    convert: Callable[[Any], Any],
    default: Any = None,
    keep: bool = False,
) -> Any:
    """``convert(payload[name])`` (with ``keep``, the checked raw value),
    or ``default`` when absent or null.

    The JSON boundary of :meth:`ExperimentSpec.from_dict`: a value of the
    wrong type raises a :class:`ValueError` naming the field, not the
    :class:`TypeError` the constructors raise for it.
    """
    value = payload.get(name)
    if value is None:
        return default
    try:
        converted = convert(value)
    except (TypeError, ValueError, OverflowError, OSError) as error:
        raise ValueError(f"spec field {name!r}: {error}") from None
    return value if keep else converted


def _json_object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


@dataclass
class ExperimentSpec:
    """One declarative experiment: what to run, with what seed, and how.

    Parameters
    ----------
    kind:
        ``"variance"`` (Fig. 5a), ``"training"`` (one Fig. 5b/5c panel) or
        ``"sweep"`` (variance grid per swept config value).
    config:
        Kind-matched config object (:class:`VarianceConfig` /
        :class:`TrainingConfig`), a plain dict of its fields, or ``None``
        for library defaults.  Sweeps take the *base* variance config.
    seed:
        Master seed.  Ints/None serialize directly; ``SeedSequence`` (and
        generators carrying one) serialize via their entropy/spawn state.
    executor:
        Registered executor name, or ``None`` to derive one: ``device``
        for a non-numpy ``backend``; for training, ``lockstep`` when
        analytic, noiseless and on an adjoint engine, else ``serial``;
        ``serial`` for variance and sweeps.  ``batched`` is an alias of
        ``serial``, ``async`` and ``remote`` of ``process_pool``, and
        ``device`` of ``lockstep``.  An unknown name is rejected here, at
        construction.
    workers:
        Worker count for multi-process executors (``process_pool``).
    checkpoint_dir:
        Directory for per-shard checkpoints; a rerun of the same spec
        resumes from completed shards.
    circuits_per_shard:
        Variance shard granularity override (default: executor's choice).
    methods:
        A list or tuple of registered initializer names for ``training``
        specs (``None`` = the paper's methods); variance methods belong
        in ``config.methods``.  Stored as a tuple of canonical names
        (case-insensitive, aliases resolved), so two spellings of one
        method share labels and fingerprints; a name repeated after that
        raises :class:`ValueError`.
    restarts:
        Independent restarts per method for ``training`` specs: the run
        covers every ``(method, restart)`` trajectory (labelled
        ``"<method>#r<k>"`` when greater than one), folded into one
        lock-step batch by the ``lockstep`` executor or sharded one unit
        per trajectory by ``serial`` and the pool executors.
    shots:
        Estimate every expectation from this many measurement samples
        instead of analytically (``None`` keeps the paper's analytic
        setup).  Applies to all kinds — sampled training losses and
        shift-rule gradients for ``training``, sampled probe gradients
        for ``variance``/``sweep`` — by overriding the config's own
        ``shots`` field.  Per-trajectory / per-circuit measurement
        streams are spawned from the spec seed, so sampled results are
        bit-identical across every executor.
    backend:
        Array backend the statevector kernels run on: ``"numpy"``
        (default, bit-identical to the pre-backend code) or an
        accelerator namespace spec such as ``"torch"`` /
        ``"torch:cuda:0"`` / ``"cupy"``.  An unregistered name is
        rejected here, at construction; the namespace is resolved
        eagerly at ``run()`` so a missing optional dependency fails fast
        with an actionable error.  Non-default values override the config's own ``backend``
        field (mirroring ``shots``) and route to the ``device`` executor
        unless one is named explicitly.
    noise:
        Noise-model payload (:meth:`~repro.backend.noise.NoiseModel.to_dict`
        form) overriding the config's own ``noise`` field, mirroring
        ``shots``.  Non-trivial noise routes execution through the
        batched Pauli-transfer simulator; a trivial payload (identity
        channels, zero readout error) normalizes to ``None`` so its
        fingerprint equals the noiseless one.
    sweep_field / sweep_values / paired:
        For ``sweep`` specs: the :class:`VarianceConfig` field to vary,
        the values it takes, and whether runs share paired RNG streams.
    retry:
        Retry policy for the run's executor: an attempt count, a
        :meth:`~repro.reliability.RetryPolicy.to_dict` payload, or a
        :class:`~repro.reliability.RetryPolicy` instance.  ``None``
        defers to the environment (``REPRO_RETRY`` /
        ``REPRO_MAX_ATTEMPTS``) or the library default.  Scheduling-only:
        never enters the fingerprint — retried units are bit-identical
        by the pre-reserved-RNG contract.
    fault_plan:
        Deterministic chaos plan (:class:`~repro.reliability.FaultPlan`
        or its dict form) injected into the run's executor — test/CI
        tooling, ``None`` (the default) defers to ``REPRO_FAULT_PLAN``.
        Scheduling-only, like ``retry``.
    backend_fallback:
        When True, a non-numpy ``backend`` that fails to import or
        initialize degrades to numpy with one structured
        :class:`~repro.utils.array_api.BackendFallbackWarning` instead
        of raising — applied at resolve time, so fingerprints and cached
        results are stamped numpy.  ``None`` (default) reads the
        ``REPRO_BACKEND_FALLBACK`` env var; False keeps fail-fast.
    """

    kind: str
    config: Any = None
    seed: SeedLike = None
    executor: Optional[str] = None
    workers: int = 1
    checkpoint_dir: Optional[Union[str, Path]] = None
    circuits_per_shard: Optional[int] = None
    methods: Optional[Sequence[str]] = None
    restarts: int = 1
    shots: Optional[int] = None
    backend: str = "numpy"
    noise: Optional[Dict[str, object]] = None
    sweep_field: Optional[str] = None
    sweep_values: Optional[Sequence] = None
    paired: bool = True
    retry: Any = None
    fault_plan: Any = None
    backend_fallback: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {sorted(EXPERIMENT_KINDS)}"
            )
        if self.executor is not None:
            executor_class(self.executor)
        config_cls = EXPERIMENT_KINDS[self.kind]
        if isinstance(self.config, dict):
            if config_cls is VarianceConfig:
                # Stored payloads carry two retired variance knobs,
                # ``batched`` and ``fold``, which never changed a result
                # byte; drop them whatever their value.
                self.config = {
                    key: value
                    for key, value in self.config.items()
                    if key not in ("batched", "fold")
                }
            known = {f.name for f in fields(config_cls)}
            unknown = sorted(set(self.config) - known)
            if unknown:
                raise ValueError(
                    f"unknown {config_cls.__name__} field(s) {unknown}; "
                    f"valid fields: {sorted(known)}"
                )
            # JSON round-trips turn tuple fields into lists; normalize back
            # so reconstructed configs compare equal to handwritten ones.
            normalized = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in self.config.items()
            }
            self.config = config_cls(**normalized)
        elif self.config is not None and not isinstance(self.config, config_cls):
            raise TypeError(
                f"{self.kind} specs take a {config_cls.__name__} "
                f"(or a dict of its fields), got {type(self.config).__name__}"
            )
        check_positive_int(self.workers, "workers")
        check_positive_int(self.restarts, "restarts")
        if self.shots is not None:
            check_positive_int(self.shots, "shots")
        check_array_backend_name(self.backend)
        if self.noise is not None:
            # Validate eagerly and canonicalize: a trivial model (identity
            # channels, zero readout error) is bit-identical to noiseless,
            # so it normalizes to None and fingerprints stay aligned.
            noise = self.noise
            model = NoiseModel.from_dict(
                dict(noise) if isinstance(noise, Mapping) else noise
            )
            self.noise = None if model.is_trivial else model.to_dict()
        if self.retry is not None:
            # Validate eagerly (a bad policy must fail at spec
            # construction, not mid-run) but keep the raw value so
            # to_dict round-trips the user's own spelling.
            RetryPolicy.coerce(self.retry)
        if self.fault_plan is not None:
            FaultPlan.coerce(self.fault_plan)
        if self.backend_fallback is not None and not isinstance(
            self.backend_fallback, bool
        ):
            raise ValueError(
                f"backend_fallback must be True, False or None (defer to "
                f"REPRO_BACKEND_FALLBACK), got {self.backend_fallback!r}"
            )
        if self.circuits_per_shard is not None:
            # Validate eagerly: a bad shard size must fail at spec
            # construction, not after earlier shards have already burned
            # compute inside an executor.
            check_positive_int(self.circuits_per_shard, "circuits_per_shard")
        if self.methods is not None:
            if self.kind != "training":
                raise ValueError(
                    "methods applies to training specs only; variance "
                    "methods belong in config.methods"
                )
            # Fail here, not inside the unit that trains every method.
            if not isinstance(self.methods, (list, tuple)) or not all(
                isinstance(method, str) for method in self.methods
            ):
                raise ValueError(
                    f"methods must be a list of initializer names, got "
                    f"{self.methods!r}"
                )
            self.methods = resolve_initializer_names(self.methods, "methods")
        if self.restarts != 1 and self.kind != "training":
            raise ValueError(
                f"restarts applies to training specs only, not "
                f"kind={self.kind!r}"
            )
        if self.kind == "sweep":
            if self.sweep_field is None or self.sweep_values is None:
                raise ValueError(
                    "sweep specs require sweep_field and sweep_values"
                )
            valid = {f.name for f in fields(VarianceConfig)}
            if self.sweep_field not in valid:
                raise ValueError(
                    f"unknown VarianceConfig field {self.sweep_field!r}; "
                    f"choose from {sorted(valid)}"
                )
        elif self.sweep_field is not None or self.sweep_values is not None:
            raise ValueError(
                f"sweep_field/sweep_values apply to sweep specs only, "
                f"not kind={self.kind!r}"
            )

    def resolved_executor(self) -> str:
        """The executor name to run with (deriving one if unset)."""
        if self.executor is not None:
            return self.executor
        if self._resolved_backend() != "numpy":
            # Non-numpy namespaces default to the in-process device
            # executor: widest resident batches, no cross-process state.
            return "device"
        if self.kind == "training":
            # Lock-step is bit-identical to serial, and both run their
            # folds in chunks of bounded size.  It is the default only
            # where it is measured faster, analytic adjoint training;
            # shots, noise and the shift-rule engines keep serial.
            config = self.config or TrainingConfig()
            analytic_adjoint = (
                self.shots is None
                and config.shots is None
                and self.noise is None
                and config.noise is None
                and config.gradient_engine in ("adjoint", "batch_adjoint")
            )
            return "lockstep" if analytic_adjoint else "serial"
        return "serial"

    def _fallback_enabled(self) -> bool:
        """Whether backend graceful degradation is on (spec or env)."""
        if self.backend_fallback is not None:
            return self.backend_fallback
        flag = os.environ.get("REPRO_BACKEND_FALLBACK", "")
        return flag.strip().lower() in ("1", "true", "yes", "on")

    def _resolved_backend(self) -> str:
        """The array backend the run will use (spec override or config's).

        With :attr:`backend_fallback` enabled, an unavailable non-numpy
        backend resolves to ``"numpy"`` here — before executor
        derivation and fingerprinting — so the degraded run is planned,
        keyed and cached as what it actually computes.
        """
        if self.backend != "numpy":
            backend = self.backend
        else:
            config_backend = getattr(self.config, "backend", "numpy")
            backend = config_backend if config_backend else "numpy"
        if backend != "numpy" and self._fallback_enabled():
            from repro.utils.array_api import backend_spec_with_fallback

            backend = backend_spec_with_fallback(backend)
        return backend

    def fingerprint(self, plan: Any = None) -> str:
        """Content-addressed digest of this experiment's resolved identity.

        This is the public cache/checkpoint key used by shard checkpoints
        and the serving layer (:mod:`repro.service`): two specs share a
        fingerprint exactly when they are guaranteed to produce
        bit-identical results from the same canonical payload.

        Canonicalization rules:

        * The config is **resolved** first: a ``None`` config becomes the
          kind's defaults and spec-level ``shots``/``noise``/``backend``
          overrides are merged in — so the digest reflects what will
          actually run, not how the spec happened to be written.
        * Config fields at identity-neutral values are dropped:
          ``shots=None`` (analytic), ``noise=None`` (noiseless — trivial
          payloads canonicalize to ``None`` first) and
          ``backend="numpy"`` (bit-identical to the pre-backend kernels).
          Checkpoints written before those fields existed therefore keep
          matching.
        * Variance and sweep configs hash ``"batched": true``, the value
          of a retired knob every default run carried, so their
          fingerprints stay those of earlier releases.
        * The seed is encoded via its ``SeedSequence`` entropy/spawn
          state; a transient ``Generator`` without one is rejected with a
          :class:`ValueError` (its stream cannot be reproduced).
        * ``methods`` is stamped only when set, ``restarts`` only when
          ``!= 1``, and ``sweep_field``/``sweep_values``/``paired`` only
          for ``kind="sweep"`` — historical fingerprints stay stable.
        * Scheduling-only fields (``executor`` name, ``workers``,
          ``checkpoint_dir``) never enter the digest; ``plan`` folds in
          anything that changes how work is *cut into units* (e.g.
          ``{"circuits_per_shard": n}``) because resuming under a
          different plan must invalidate shard checkpoints.

        The digest is the SHA-1 hex of the canonical sorted-keys JSON.
        """
        return _fingerprint(self.kind, _resolve_config(self), self, plan=plan)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": asdict(self.config) if self.config is not None else None,
            "seed": _encode_seed(self.seed),
            "executor": self.executor,
            "workers": self.workers,
            "checkpoint_dir": (
                str(self.checkpoint_dir) if self.checkpoint_dir else None
            ),
            "circuits_per_shard": self.circuits_per_shard,
            "methods": list(self.methods) if self.methods is not None else None,
            "restarts": self.restarts,
            "shots": self.shots,
            "backend": self.backend,
            "noise": self.noise,
            "sweep_field": self.sweep_field,
            "sweep_values": (
                list(self.sweep_values) if self.sweep_values is not None else None
            ),
            "paired": self.paired,
            "retry": (
                self.retry.to_dict()
                if isinstance(self.retry, RetryPolicy)
                else self.retry
            ),
            "fault_plan": (
                self.fault_plan.to_dict()
                if isinstance(self.fault_plan, FaultPlan)
                else self.fault_plan
            ),
            "backend_fallback": self.backend_fallback,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Build a spec from its JSON payload (the inverse of :meth:`to_dict`).

        Raises :class:`ValueError`, naming the field, for any payload that
        does not describe a valid spec, wrongly typed values included.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"a spec payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            # A typo'd key (e.g. "sede") would otherwise silently run a
            # different experiment than the file describes.
            raise ValueError(
                f"unknown spec field(s) {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        if "kind" not in payload:
            raise ValueError(
                f"spec is missing its 'kind' field; "
                f"choose from {sorted(EXPERIMENT_KINDS)}"
            )
        # Handwritten spec files may carry explicit nulls for optional
        # scalars; _json_field reads them like absent keys, and names the
        # field of a value of the wrong type.
        spec_fields = dict(
            kind=str(payload["kind"]),
            config=_json_field(payload, "config", _json_object),
            seed=_json_field(payload, "seed", _decode_seed),
            executor=payload.get("executor"),
            workers=_json_field(payload, "workers", int, 1),
            checkpoint_dir=payload.get("checkpoint_dir"),
            circuits_per_shard=payload.get("circuits_per_shard"),
            methods=payload.get("methods"),
            restarts=_json_field(payload, "restarts", int, 1),
            shots=_json_field(payload, "shots", int),
            backend=_json_field(payload, "backend", str, "numpy"),
            noise=_json_field(payload, "noise", NoiseModel.from_dict, keep=True),
            sweep_field=payload.get("sweep_field"),
            sweep_values=payload.get("sweep_values"),
            paired=_json_field(payload, "paired", bool, True),
            retry=_json_field(payload, "retry", RetryPolicy.coerce, keep=True),
            fault_plan=_json_field(
                payload, "fault_plan", FaultPlan.coerce, keep=True
            ),
            backend_fallback=payload.get("backend_fallback"),
        )
        try:
            return cls(**spec_fields)
        except (TypeError, OverflowError) as error:
            # The constructor's TypeError for a value read as-is (say a
            # config field); its message names the field.
            raise ValueError(f"invalid spec: {error}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file.

        Accepts both a bare spec dict and a :func:`repro.io.save_result`
        payload wrapping one.
        """
        with Path(path).open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} does not contain a spec object")
        if payload.get("type") == "ExperimentSpec" and "data" in payload:
            payload = payload["data"]
        return cls.from_dict(payload)


def _digest(body: dict) -> str:
    """SHA-1 hex of the canonical (sorted-keys) JSON form of ``body``."""
    canonical = json.dumps(body, sort_keys=True, default=list)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _canonical_config_payload(config: Any) -> Optional[dict]:
    """Canonical JSON-able form of a config for fingerprinting.

    Shared by the run-level and shard-level fingerprints.  Fields at
    identity-neutral values are dropped so historical fingerprints stay
    stable as the config grows:

    * ``shots=None`` — analytic configs keep their pre-shots
      fingerprints, so existing checkpoints stay resumable.
    * ``noise=None`` — noiseless configs keep their pre-noise
      fingerprints; non-trivial noise payloads stay stamped so noisy
      results never collide with noiseless cache entries.
    * ``backend="numpy"`` — bit-identical to the pre-backend kernels, so
      default-backend checkpoints keep their historical fingerprints.
      Non-numpy backends are only tolerance-equal and stay stamped: a
      resume must not silently mix numerics across namespaces.
    """
    if config is None:
        return None
    payload = asdict(config)
    if payload.get("shots") is None:
        payload.pop("shots", None)
    if payload.get("noise") is None:
        # Noiseless (and trivial, which canonicalizes to None) configs
        # keep their pre-noise fingerprints; noisy payloads are stamped,
        # so noisy cache entries can never collide with noiseless ones.
        payload.pop("noise", None)
    if payload.get("backend", "numpy") == "numpy":
        payload.pop("backend", None)
    return payload


def _resolve_config(spec: ExperimentSpec) -> Any:
    """The config the run will actually use.

    Instantiates the kind's defaults for a ``None`` config and merges the
    spec-level ``shots``/``noise``/``backend`` overrides (the backend
    after any fallback to numpy).
    """
    config = (
        spec.config if spec.config is not None else EXPERIMENT_KINDS[spec.kind]()
    )
    config = _apply_shots(spec, config)
    config = _apply_noise(spec, config)
    # The resolved backend folds in the spec-level override and (when
    # backend_fallback is on) graceful degradation to numpy — stamping
    # the config *here* means fingerprints describe what actually runs.
    backend = spec._resolved_backend()
    if spec.backend != "numpy" or backend != (
        getattr(config, "backend", backend) or backend
    ):
        config = replace(config, backend=backend)
    return config


def _fingerprint(
    kind: str, config: Any, spec: ExperimentSpec, plan: Any = None
) -> str:
    """Stable digest tying shard checkpoints to their exact experiment.

    ``plan`` captures anything that changes how the work is cut into
    units (e.g. the variance shard granularity): resuming under a
    different plan must invalidate old checkpoints, not mis-merge them.
    Prefer the public :meth:`ExperimentSpec.fingerprint`, which resolves
    the config first; this low-level form takes an already-resolved one.
    """
    try:
        seed = _encode_seed(spec.seed)
    except (TypeError, ValueError):
        raise ValueError(
            "checkpointing requires a serializable seed (int, None, or "
            "SeedSequence-backed); got a transient generator"
        ) from None
    config_payload = _canonical_config_payload(config)
    if kind in ("variance", "sweep") and config_payload is not None:
        # The retired ``batched`` knob's default, kept so run
        # fingerprints (and every cache key built on them) stay stable.
        config_payload["batched"] = True
    payload = {
        "kind": kind,
        "config": config_payload,
        "seed": seed,
        "methods": list(spec.methods) if spec.methods else None,
        "plan": plan,
    }
    if spec.restarts != 1:
        # Only stamped when used, so single-restart checkpoints keep their
        # historical fingerprints.
        payload["restarts"] = spec.restarts
    if kind == "sweep":
        # Sweep specs never fingerprinted before this key existed, so
        # stamping only this kind leaves variance/training digests alone.
        payload["sweep"] = {
            "field": spec.sweep_field,
            "values": list(spec.sweep_values or ()),
            "paired": spec.paired,
        }
    return _digest(payload)


def _variance_unit_fingerprint(config: Any, shard: Any) -> str:
    """Content key of one variance shard, independent of its grid.

    A shard's output is fully determined by the non-grid config fields
    (layers, methods, cost, shots, backend, ...) plus its own qubit
    count, row offset and pre-reserved RNG children — *not* by which
    ``qubit_counts``/``num_circuits`` grid it was cut from.  Dropping
    those from the key lets partially-overlapping specs (the
    same grid cells inside different supersets) share shards in a
    content-addressed :class:`repro.service.ResultStore`: the seed spawn
    state embedded in the key guarantees a match only when the shard's
    random streams are truly identical.
    """
    payload = _canonical_config_payload(config) or {}
    for grid_field in ("qubit_counts", "num_circuits"):
        payload.pop(grid_field, None)
    return _digest(
        {
            "unit": "variance-shard",
            "config": payload,
            "num_qubits": int(shard.num_qubits),
            "start": int(shard.start),
            "seeds": [_encode_seed(s) for s in shard.seeds],
        }
    )


def _training_unit_fingerprint(
    config: Any, method: str, label: str, seed: SeedLike
) -> str:
    """Content key of one ``(method, restart)`` training trajectory."""
    return _digest(
        {
            "unit": "training-trajectory",
            "config": _canonical_config_payload(config),
            "method": method,
            "label": label,
            "seed": _encode_seed(seed),
        }
    )


def _lockstep_unit_fingerprint(
    config: Any, methods: Sequence[str], labels: Sequence[str], seeds: Sequence
) -> str:
    """Content key of a whole lock-step training panel (one work unit)."""
    return _digest(
        {
            "unit": "training-lockstep",
            "config": _canonical_config_payload(config),
            "methods": list(methods),
            "labels": list(labels),
            "seeds": [_encode_seed(s) for s in seeds],
        }
    )


@dataclass
class ExperimentPlan:
    """Executable form of a spec: resolved config, work units, fingerprints.

    Produced by :func:`plan_experiment` and consumed both by :func:`run`
    and by the serving layer (:mod:`repro.service`), which checks each
    unit's content-addressed fingerprint against its
    :class:`~repro.service.ResultStore` before paying for execution.
    """

    kind: str
    #: Resolved config (defaults instantiated, spec overrides merged).
    config: Any
    units: List[WorkUnit]
    #: Run-level checkpoint fingerprint; ``""`` when the seed is a
    #: transient generator and no checkpointing was requested.
    fingerprint: str
    #: ``unit_id ->`` grid-independent content fingerprint (the shard
    #: cache key; empty dict when the seed is not serializable).
    unit_fingerprints: Dict[str, str]
    #: Assemble the kind's outcome object from outputs in unit order.
    finalize: Callable[[List[Any]], Any]
    #: Stateful progress formatter: ``(unit, output) ->`` printable line,
    #: or ``None`` when this completion doesn't warrant one.
    progress_line: Callable[[WorkUnit, Any], Optional[str]]


def plan_experiment(
    spec: ExperimentSpec, executor: Optional[Executor] = None
) -> ExperimentPlan:
    """Resolve ``spec`` into executable work units without running them.

    ``executor`` supplies the lock-step/sharding policy (and is
    instantiated from the spec when omitted).  Sweep specs are not
    unit-plannable — they are a loop of variance runs; plan each swept
    value's :class:`ExperimentSpec` instead.
    """
    if spec.kind == "sweep":
        raise ValueError(
            "sweep specs run one variance experiment per swept value and "
            "cannot be planned as a single unit list; plan each value's "
            "variance spec instead"
        )
    if executor is None:
        executor = get_executor(
            spec.resolved_executor(),
            workers=spec.workers,
            checkpoint_dir=spec.checkpoint_dir,
            retry=spec.retry,
            fault_plan=spec.fault_plan,
        )
    config = _resolve_config(spec)
    # Fail fast on a missing optional namespace (torch/cupy not
    # installed): here, before any shard burns compute, with the
    # registry's actionable install hint.
    get_array_backend(config.backend)
    if spec.kind == "variance":
        return _plan_variance(spec, executor, config)
    return _plan_training(spec, executor, config)


def _maybe_fingerprint(
    spec: ExperimentSpec, executor: Executor, config: Any, plan: Any
) -> str:
    """Run fingerprint, or ``""`` for transient seeds without checkpoints."""
    try:
        return _fingerprint(spec.kind, config, spec, plan=plan)
    except ValueError:
        if executor.checkpoint_dir is not None:
            raise
        return ""


def run(
    spec: Union[ExperimentSpec, dict, str, Path], verbose: bool = False
) -> Any:
    """Execute an :class:`ExperimentSpec` (or a dict / JSON file of one).

    Returns the kind's outcome type: ``VarianceExperimentOutcome`` for
    ``variance``, ``TrainingExperimentOutcome`` for ``training``, and a
    ``{value: VarianceExperimentOutcome}`` dict for ``sweep``.
    """
    if isinstance(spec, (str, Path)):
        spec = ExperimentSpec.from_file(spec)
    elif isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    if spec.kind == "sweep":
        return _run_sweep(spec, verbose)
    executor = get_executor(
        spec.resolved_executor(),
        workers=spec.workers,
        checkpoint_dir=spec.checkpoint_dir,
        retry=spec.retry,
        fault_plan=spec.fault_plan,
    )
    plan = plan_experiment(spec, executor)
    on_result = None
    if verbose:

        def on_result(unit, output):
            line = plan.progress_line(unit, output)
            if line:
                print(line)

    outputs = executor.map_units(
        plan.units,
        fingerprint=plan.fingerprint,
        verbose=verbose,
        on_result=on_result,
        unit_keys=plan.unit_fingerprints,
    )
    return plan.finalize(outputs)


def _apply_shots(spec: ExperimentSpec, config: Any) -> Any:
    """Merge a spec-level ``shots`` override into the kind's config."""
    if spec.shots is None:
        return config
    return replace(config, shots=spec.shots)


def _apply_noise(spec: ExperimentSpec, config: Any) -> Any:
    """Merge a spec-level ``noise`` override into the kind's config.

    The spec's ``__post_init__`` already canonicalized trivial payloads
    to ``None``, so an override here always carries real noise.
    """
    if spec.noise is None:
        return config
    return replace(config, noise=dict(spec.noise))


def _plan_variance(
    spec: ExperimentSpec, executor: Executor, config: Any
) -> ExperimentPlan:
    """Plan variance shards and their merge into the Fig. 5a outcome."""
    per_shard = spec.circuits_per_shard
    if per_shard is None:
        per_shard = executor.circuits_per_shard(config.num_circuits)
    fingerprint = _maybe_fingerprint(
        spec, executor, config, plan={"circuits_per_shard": per_shard}
    )
    shards = plan_variance_shards(
        config, spec.seed, circuits_per_shard=per_shard
    )
    # Look the work function up through the module so tests can inject
    # failures (and so monkeypatched fakes reach every executor).
    units = [
        WorkUnit(shard.unit_id, _variance_module.run_variance_shard, (config, shard))
        for shard in shards
    ]
    unit_fingerprints: Dict[str, str] = {}
    if fingerprint:
        unit_fingerprints = {
            shard.unit_id: _variance_unit_fingerprint(config, shard)
            for shard in shards
        }

    def finalize(outputs: List[Any]) -> Any:
        result = merge_variance_outputs(config, outputs)
        from repro.core.experiments import variance_outcome_from_result

        return variance_outcome_from_result(result)

    # Stream one progress line per qubit count, as soon as its last shard
    # completes — long grids stay observably alive.
    pending = {int(q): 0 for q in config.qubit_counts}
    for shard in shards:
        pending[shard.num_qubits] += 1
    rows: Dict[int, list] = {int(q): [] for q in config.qubit_counts}

    def progress_line(unit, output):
        num_qubits = int(output["num_qubits"])
        rows[num_qubits].append(output)
        if len(rows[num_qubits]) == pending[num_qubits]:
            return format_variance_progress(config, num_qubits, rows[num_qubits])
        return None

    return ExperimentPlan(
        kind="variance",
        config=config,
        units=units,
        fingerprint=fingerprint,
        unit_fingerprints=unit_fingerprints,
        finalize=finalize,
        progress_line=progress_line,
    )


def _plan_training(
    spec: ExperimentSpec, executor: Executor, config: Any
) -> ExperimentPlan:
    """Plan every ``(method, restart)`` trajectory as executor units.

    Trajectories are independent work units (one per pre-reserved child
    seed), so multi-restart studies shard across process pools; a
    lock-step executor instead receives one unit that advances all
    trajectories simultaneously through the batched adjoint engine.
    Either way the seed layout — and therefore every history — is
    bit-identical across executors.
    """
    from repro.core import training as _training_module

    methods = tuple(spec.methods) if spec.methods else tuple(PAPER_METHODS)
    labels, trajectory_methods = _training_module.expand_trajectories(
        methods, spec.restarts
    )
    fingerprint = _maybe_fingerprint(spec, executor, config, plan=None)
    seeds = spawn_seeds(spec.seed, len(labels))
    unit_fingerprints: Dict[str, str] = {}
    if executor.training_lockstep:
        units = [
            WorkUnit(
                "train-lockstep",
                _training_module.run_lockstep_training_unit,
                (config, tuple(trajectory_methods), tuple(labels), tuple(seeds)),
            )
        ]
        if fingerprint:
            unit_fingerprints = {
                "train-lockstep": _lockstep_unit_fingerprint(
                    config, trajectory_methods, labels, seeds
                )
            }
    else:
        units = [
            WorkUnit(
                f"train-{label}",
                _training_module.run_labelled_training_unit,
                (config, method, label, seed),
            )
            for method, label, seed in zip(trajectory_methods, labels, seeds)
        ]
        if fingerprint:
            unit_fingerprints = {
                f"train-{label}": _training_unit_fingerprint(
                    config, method, label, seed
                )
                for method, label, seed in zip(trajectory_methods, labels, seeds)
            }

    def finalize(outputs: List[Any]) -> Any:
        from repro.core.experiments import TrainingExperimentOutcome
        from repro.core.results import TrainingHistory

        payloads = outputs[0] if executor.training_lockstep else outputs
        histories = {
            label: TrainingHistory.from_dict(payload)
            for label, payload in zip(labels, payloads)
        }
        return TrainingExperimentOutcome(
            optimizer=config.optimizer, histories=histories
        )

    def progress_line(unit, output):
        payloads = output if isinstance(output, list) else [output]
        return "\n".join(
            f"[train:{config.optimizer}] {payload['method']}: "
            f"{payload['losses'][0]:.4f} -> {payload['losses'][-1]:.4f}"
            for payload in payloads
        )

    return ExperimentPlan(
        kind="training",
        config=config,
        units=units,
        fingerprint=fingerprint,
        unit_fingerprints=unit_fingerprints,
        finalize=finalize,
        progress_line=progress_line,
    )


def _run_sweep(spec: ExperimentSpec, verbose: bool) -> Dict:
    """Run one variance experiment per swept value.

    Every replaced config is validated *before* anything runs, so a bad
    swept value fails fast instead of mid-sweep after burning the earlier
    runs.  With ``paired=True`` all values consume the same child seed
    stream, isolating the effect of the swept field.
    """
    base = _resolve_config(spec)
    values = list(spec.sweep_values)
    configs = [
        replace(base, **{spec.sweep_field: value}) for value in values
    ]
    rng = ensure_rng(spec.seed)
    shared = spawn_rng(rng)
    outcomes: Dict = {}
    for index, (value, config) in enumerate(zip(values, configs)):
        child = shared if spec.paired else spawn_rng(rng)
        run_seed = child.bit_generator.seed_seq if spec.paired else child
        checkpoint_dir = None
        if spec.checkpoint_dir is not None:
            checkpoint_dir = Path(spec.checkpoint_dir) / f"value-{index:03d}"
        outcomes[value] = run(
            ExperimentSpec(
                kind="variance",
                config=config,
                seed=run_seed,
                executor=spec.executor,
                workers=spec.workers,
                checkpoint_dir=checkpoint_dir,
                circuits_per_shard=spec.circuits_per_shard,
                retry=spec.retry,
                fault_plan=spec.fault_plan,
            ),
            verbose=verbose,
        )
    return outcomes
