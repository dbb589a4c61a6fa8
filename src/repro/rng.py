"""Seeded random-number plumbing.

Everything stochastic in this package (corpus synthesis, Gibbs sampling,
word2vec initialisation…) draws from a :class:`numpy.random.Generator`
obtained through :func:`ensure_rng`, so experiments are reproducible from
a single integer seed and components can be given independent,
deterministically derived streams via :func:`spawn`.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

DEFAULT_SEED = 20220501  # ICDE 2022-flavoured default; any fixed int works.

_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


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


class WeightedChoice:
    """``Generator.choice(len(p), size, p=p)`` for a ``p`` fixed in advance.

    ``choice`` checks ``p``, builds ``cdf = p.cumsum(); cdf /= cdf[-1]``
    and returns ``cdf.searchsorted(random(size), side="right")`` on every
    call. This does the checks and the CDF once, at construction, and
    each :meth:`draw` is then the last step alone: the same values from
    the same generator calls, so the stream after it is the same too.
    """

    def __init__(self, p: Sequence[float] | np.ndarray) -> None:
        atol = _SQRT_EPS
        if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
            atol = max(atol, float(np.sqrt(np.finfo(p.dtype).eps)))
        probabilities = np.ascontiguousarray(p, dtype=np.float64)
        # The checks of ``Generator.choice``, in its order.
        if probabilities.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if probabilities.size == 0:
            raise ValueError("p must not be empty")
        total = _kahan_sum(probabilities.tolist())
        if np.isnan(total):
            raise ValueError("probabilities contain NaN")
        if np.logical_or.reduce(probabilities < 0):
            raise ValueError("probabilities are not non-negative")
        if abs(total - 1.0) > atol:
            raise ValueError("probabilities do not sum to 1")
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)  # shared by every draw, and by caches of it
        self._cdf = cdf

    def draw(
        self, generator: np.random.Generator, size: int | tuple[int, ...] | None = None
    ) -> int | np.ndarray:
        """One index (``size=None``) or an int64 array of ``size`` indices."""
        picks = self._cdf.searchsorted(generator.random(size), side="right")
        return int(picks) if size is None else picks


def _kahan_sum(values: list[float]) -> float:
    """Compensated sum in ``Generator.choice``'s order, so that a ``p`` on
    the edge of its tolerance is judged exactly as ``choice`` judges it."""
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        term = value - carry
        step = total + term
        carry = (step - total) - term
        total = step
    return total
