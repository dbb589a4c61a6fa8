"""Texture-term affinity kernels: p(term | quantitative texture).

The bridge that makes the synthetic corpus *learnable*: a recipe's
rheological profile (from the Table-I-calibrated gel model) is mapped to
signed signals on the three sensory axes, and texture terms are sampled
with probability increasing in the agreement between their dictionary
polarity and those signals. A 5.4 % gelatin gummy therefore says "katai"
and "muchimuchi"; a 0.4 % kanten jelly says "yuruyuru" and "bechat" —
the very associations the paper's topics recover.
"""

from __future__ import annotations

import numpy as np

from repro.lexicon.categories import AXES, SensoryAxis
from repro.lexicon.term import TextureTerm
from repro.rheology.attributes import TextureProfile

#: Midpoint and scale of the tanh signal per axis, in RU (hardness,
#: adhesiveness) or ratio (cohesiveness). Midpoints sit near the centre
#: of the Table I value ranges.
_SIGNAL_SHAPE: dict[SensoryAxis, tuple[float, float]] = {
    SensoryAxis.HARDNESS: (1.2, 1.2),
    SensoryAxis.COHESIVENESS: (0.40, 0.22),
    SensoryAxis.ADHESIVENESS: (0.45, 0.70),
}

#: Sharpness of the softmax over term scores. Higher → more deterministic
#: term choice per texture band (the paper's topics are strongly peaked).
DEFAULT_SHARPNESS = 4.0


def axis_signals(profile: TextureProfile) -> dict[SensoryAxis, float]:
    """Signed sensory signals in [−1, 1] for each axis."""
    values = {
        SensoryAxis.HARDNESS: profile.hardness,
        SensoryAxis.COHESIVENESS: profile.cohesiveness,
        SensoryAxis.ADHESIVENESS: profile.adhesiveness,
    }
    signals = {}
    for axis in AXES:
        mid, scale = _SIGNAL_SHAPE[axis]
        signals[axis] = float(np.tanh((values[axis] - mid) / scale))
    return signals


#: Polarity matrices of recently scored term tuples, keyed by the tuple's
#: identity (:class:`TextureTerm` is unhashable). Each entry holds its
#: tuple, so the id cannot be reused while the entry lives; the cache is
#: emptied before it would hold more than ``_POLARITIES_KEPT`` entries.
_POLARITIES: dict[int, tuple[tuple[TextureTerm, ...], np.ndarray]] = {}
_POLARITIES_KEPT = 8


def polarity_matrix(terms: tuple[TextureTerm, ...]) -> np.ndarray:
    """The ``(len(terms), 3)`` term polarities in :data:`AXES` order,
    built once per terms tuple."""
    entry = _POLARITIES.get(id(terms))
    if entry is not None and entry[0] is terms:
        return entry[1]
    matrix = np.array([term.as_vector() for term in terms], dtype=float)
    matrix.setflags(write=False)
    if len(_POLARITIES) >= _POLARITIES_KEPT:
        _POLARITIES.clear()
    _POLARITIES[id(terms)] = (terms, matrix)
    return matrix


def term_distribution(
    terms: tuple[TextureTerm, ...],
    profile: TextureProfile,
    sharpness: float = DEFAULT_SHARPNESS,
) -> np.ndarray:
    """Softmax sampling distribution over ``terms`` for ``profile``.

    A term's score is the agreement between its polarity and the axis
    signals, Σ_axis polarity · signal: a strongly "hard" term scores
    high exactly when the hardness signal is strongly positive, and is
    *penalised* when the dish is measurably soft.
    """
    if not terms:
        raise ValueError("no terms to score")
    signals = axis_signals(profile)
    polarities = polarity_matrix(terms)
    # Added in the order of a scalar ``sum`` over AXES (0 + h + c + a),
    # so every score rounds exactly as the per-term form does.
    scores = np.zeros(len(terms))
    for column, axis in enumerate(AXES):
        scores += polarities[:, column] * signals[axis]
    logits = sharpness * scores
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def sample_terms(
    terms: tuple[TextureTerm, ...],
    profile: TextureProfile,
    n: int,
    rng: np.random.Generator,
    sharpness: float = DEFAULT_SHARPNESS,
) -> list[TextureTerm]:
    """Draw ``n`` term occurrences (with replacement) for ``profile``."""
    if n <= 0:
        return []
    probabilities = term_distribution(terms, profile, sharpness=sharpness)
    indices = rng.choice(len(terms), size=n, p=probabilities)
    return [terms[int(i)] for i in indices]


def crispy_terms(terms: tuple[TextureTerm, ...]) -> tuple[TextureTerm, ...]:
    """Topping-texture terms: gel-unrelated, hard-crisp polarity.

    These are what nut/biscuit toppings contribute to a description —
    the contamination the paper's word2vec filter removes. Only the
    reduplicated forms ("karikari", "sakusaku") are used: they are the
    colloquial default, which concentrates corpus frequency enough for
    the word2vec vocabulary cutoff to see them.
    """
    return tuple(
        t
        for t in terms
        if not t.gel_related
        and t.surface == t.base + t.base
        and t.polarity_on(SensoryAxis.HARDNESS) > 0
        and t.polarity_on(SensoryAxis.COHESIVENESS) < 0
    )
