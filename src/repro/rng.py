"""Seeded random-number plumbing.

Everything stochastic in this package (corpus synthesis, Gibbs sampling,
word2vec initialisation…) draws from a :class:`numpy.random.Generator`
obtained through :func:`ensure_rng`, so experiments are reproducible from
a single integer seed and components can be given independent,
deterministically derived streams via :func:`spawn`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

DEFAULT_SEED = 20220501  # ICDE 2022-flavoured default; any fixed int works.


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` maps to a generator seeded with :data:`DEFAULT_SEED` so that
    the library is deterministic by default; pass an explicit generator to
    share a stream between components.
    """
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    The children are produced through :class:`numpy.random.SeedSequence`
    spawning, so they are statistically independent and reproducible.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    base = ensure_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive(rng: RngLike, label: str) -> np.random.Generator:
    """Derive a child generator keyed by a stable string ``label``.

    Unlike :func:`spawn`, the child depends only on the parent seed state
    and the label hash, which keeps component streams stable when the
    number of components changes.
    """
    base = ensure_rng(rng)
    salt = np.frombuffer(label.encode("utf-8"), dtype=np.uint8).sum()
    mix = int(base.integers(0, 2**31 - 1)) ^ (int(salt) * 2654435761 % 2**31)
    return np.random.default_rng(mix)
