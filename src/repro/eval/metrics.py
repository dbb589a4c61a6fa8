"""Clustering and topic-quality metrics.

Used by the ablation benches to compare the joint model against the
LDA / GMM baselines: purity and normalised mutual information against
the ground-truth gel bands, and per-token word perplexity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError


def _contingency(labels_a: Sequence, labels_b: Sequence) -> np.ndarray:
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b) or not a:
        raise ReproError("label sequences must be equal-length and non-empty")
    cats_a = {c: i for i, c in enumerate(sorted(set(a), key=str))}
    cats_b = {c: i for i, c in enumerate(sorted(set(b), key=str))}
    table = np.zeros((len(cats_a), len(cats_b)), dtype=np.int64)
    for x, y in zip(a, b):
        table[cats_a[x], cats_b[y]] += 1
    return table


def purity(predicted: Sequence, truth: Sequence) -> float:
    """Cluster purity: fraction of points in their cluster's majority class."""
    table = _contingency(predicted, truth)
    return float(table.max(axis=1).sum() / table.sum())


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())  # repro: noqa[NUM002] - p filtered strictly positive on the line above


def mutual_information(labels_a: Sequence, labels_b: Sequence) -> float:
    """MI between two labelings, in nats."""
    table = _contingency(labels_a, labels_b).astype(float)
    n = table.sum()
    joint = table / n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log(joint / (pa @ pb))  # repro: noqa[NUM002] - zeros masked out below; errstate silences the -inf
    return float(terms[mask].sum())


def normalized_mutual_information(labels_a: Sequence, labels_b: Sequence) -> float:
    """NMI with arithmetic-mean normalisation, in [0, 1]."""
    table = _contingency(labels_a, labels_b).astype(float)
    h_a = _entropy(table.sum(axis=1))
    h_b = _entropy(table.sum(axis=0))
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    denominator = 0.5 * (h_a + h_b)
    if denominator == 0.0:
        return 0.0
    return float(np.clip(mutual_information(labels_a, labels_b) / denominator, 0, 1))


def word_perplexity(
    docs: Sequence[np.ndarray],
    phi: np.ndarray,
    theta: np.ndarray,
) -> float:
    """Per-token perplexity of ``docs`` under fitted (φ, θ) estimates.

    ``exp(−(1/N) Σ_dn log Σ_k θ_dk φ_k,w_dn)`` — lower is better. Used to
    compare the words channel of the joint model against plain LDA on the
    same documents.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != len(docs):
        raise ReproError("theta must have one row per document")
    total_log = 0.0
    total_tokens = 0
    for d, words in enumerate(docs):
        words = np.asarray(words, dtype=int)
        if words.size == 0:
            continue
        probs = theta[d] @ phi[:, words]
        total_log += float(np.log(np.maximum(probs, 1e-300)).sum())
        total_tokens += words.size
    if total_tokens == 0:
        raise ReproError("no tokens to score")
    return float(np.exp(-total_log / total_tokens))
