"""Deterministic random-number-generator plumbing.

Every stochastic component in this library accepts either an integer seed,
an existing :class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).
Experiments spawn independent child generators per trial so that results do
not depend on execution order or on how many random draws earlier trials
consumed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Return a statistically independent child generator of ``rng``."""
    seed_seq = rng.bit_generator.seed_seq
    if seed_seq is None:  # pragma: no cover - legacy bit generators
        return np.random.default_rng(rng.integers(0, 2**63))
    (child,) = seed_seq.spawn(1)
    return np.random.default_rng(child)


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Reserve ``count`` child seed sequences from ``seed`` in spawn order.

    Produces exactly the same child spawn keys as ``count`` sequential
    :func:`spawn_rng` calls would (and advances the parent's spawn counter
    identically), but returns the picklable :class:`~numpy.random.SeedSequence`
    objects themselves.  That makes the children shippable to worker
    processes: an executor can hand shard *k* its pre-reserved slice of
    children and every stream stays bit-identical to a serial run,
    regardless of shard order or placement.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(seed)
    seed_seq = rng.bit_generator.seed_seq
    if seed_seq is None:  # pragma: no cover - legacy bit generators
        return [
            np.random.SeedSequence(int(rng.integers(0, 2**63)))
            for _ in range(count)
        ]
    return list(seed_seq.spawn(count))


def derive_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """The ``count`` children :func:`spawn_seeds` would reserve from
    ``seed`` next, without advancing a :class:`~numpy.random.SeedSequence`.

    Child ``k`` is exactly what ``seed.spawn`` returns, so the streams are
    the same; but a work unit deriving its children this way draws the
    same numbers however often it runs (a retry reuses its seed objects),
    and its seeds, so its fingerprint, are unchanged once it has run.
    Any other ``SeedLike`` goes through :func:`spawn_seeds`.
    """
    if not isinstance(seed, np.random.SeedSequence):
        return spawn_seeds(seed, count)
    first = seed.n_children_spawned
    return [
        np.random.SeedSequence(
            seed.entropy,
            spawn_key=seed.spawn_key + (first + k,),
            pool_size=seed.pool_size,
        )
        for k in range(count)
    ]


def resolve_rngs(seed: "SeedLike | Sequence[SeedLike]", count: int) -> List[np.random.Generator]:
    """One independent generator per row of a batch of size ``count``.

    A list/tuple of per-row seeds (``None``/int/``SeedSequence``/existing
    ``Generator``) is honoured element-wise — pre-seeded generators pass
    through unchanged, so callers can thread persistent per-row streams
    (e.g. one per training trajectory) through repeated batched calls.
    Any single ``SeedLike`` instead spawns ``count`` children via
    :func:`spawn_seeds`; running row ``b`` sequentially with child ``b``
    then consumes exactly the stream the batched call used — the
    bit-identity contract of the sampled batched paths.
    """
    if isinstance(seed, (list, tuple)):
        if len(seed) != count:
            raise ValueError(
                f"got {len(seed)} per-row seeds for a batch of {count}"
            )
        return [ensure_rng(entry) for entry in seed]
    return [ensure_rng(child) for child in spawn_seeds(seed, count)]


def child_rngs(
    seed: SeedLike, count: Optional[int] = None
) -> Iterator[np.random.Generator]:
    """Yield independent child generators derived from ``seed``.

    With ``count=None`` the iterator is unbounded.  Children are derived via
    ``SeedSequence.spawn`` so each stream is independent regardless of how
    many draws the others perform.
    """
    rng = ensure_rng(seed)
    produced = 0
    while count is None or produced < count:
        yield spawn_rng(rng)
        produced += 1
