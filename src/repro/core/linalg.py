"""Guarded linear algebra for covariance and precision matrices.

Every matrix inverse and log-determinant in this package flows through
this module — a discipline enforced mechanically by the ``NUM001``
static-analysis rule (see :mod:`repro.analysis`). The point is not to
change the numbers: on healthy input :func:`guarded_inv` and
:func:`guarded_slogdet` are *bit-identical* to the raw
``np.linalg.inv`` / ``np.linalg.slogdet`` calls they replace, so the
pinned regression tests from the parallel-inference work keep holding.
What changes is the failure mode. Scatter matrices assembled from
near-duplicate gel vectors (or topics that momentarily own a single
document) drift onto the boundary of the PD cone, where a raw ``inv``
either raises ``LinAlgError`` mid-sweep or silently returns ``inf``/
``nan`` that poison every statistic downstream. The guarded helpers
degrade instead: symmetrise, ridge-regularise with a jitter scaled to
the matrix's own diagonal, and as a last resort fall back to the
Moore–Penrose pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

__all__ = [
    "chol_inv_logdet",
    "guarded_inv",
    "guarded_slogdet",
    "pd_logdet",
    "symmetrize",
]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``(a + aᵀ) / 2`` along the last two axes (batch-friendly)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _diag_scale(a: np.ndarray) -> np.ndarray:
    """Per-matrix magnitude of the diagonal, floored at 1, for jitter
    that is proportionate to the matrix instead of absolute."""
    diag = np.abs(np.einsum("...ii->...i", a)).mean(axis=-1)
    return np.maximum(diag, 1.0)[..., None, None]


def guarded_inv(
    a: np.ndarray, jitter: float = 1e-10, max_tries: int = 4
) -> np.ndarray:
    """Matrix inverse with a graceful path off the PD cone.

    The fast path is a plain ``np.linalg.inv`` — bit-identical to the
    direct call whenever the input is comfortably invertible, which is
    every healthy iteration. If that raises ``LinAlgError`` or produces
    non-finite entries, the input is symmetrised and ridge-regularised
    with exponentially growing jitter scaled to its mean diagonal; if
    even that fails, the Hermitian pseudo-inverse is returned. Works on
    a single ``(d, d)`` matrix or a stacked ``(..., d, d)`` batch; a
    batch the fast path fails on is repaired matrix by matrix, so each
    result is the one a call on that matrix alone returns.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ModelError(f"guarded_inv expects square matrices, got {a.shape}")
    try:
        out = np.linalg.inv(a)
        if np.all(np.isfinite(out)):
            return out
    except np.linalg.LinAlgError:
        pass
    if a.ndim > 2:
        out = np.empty_like(a)
        for index in np.ndindex(a.shape[:-2]):
            out[index] = guarded_inv(a[index], jitter, max_tries)
        return out
    sym = symmetrize(a)
    eye = np.eye(a.shape[-1])
    scale = _diag_scale(sym)
    for attempt in range(max_tries):
        ridge = jitter * (10.0**attempt) * scale
        try:
            out = np.linalg.inv(sym + ridge * eye)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(out)):
            return out
    return np.linalg.pinv(sym, hermitian=True)


def guarded_slogdet(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sign, log|det a|)`` along the last two axes.

    A thin, centralised wrapper: callers keep their own positivity
    checks (error types differ by API surface), but routing through here
    means NUM001 has a single module to audit when the guard policy
    changes.
    """
    a = np.asarray(a, dtype=float)
    sign, logdet = np.linalg.slogdet(a)
    return sign, logdet


def pd_logdet(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """log-determinant of a matrix required to be positive definite.

    Raises :class:`~repro.errors.ModelError` naming ``what`` when any
    sign is non-positive; otherwise returns the log-determinant(s).
    """
    sign, logdet = guarded_slogdet(a)
    if np.any(sign <= 0):
        raise ModelError(f"{what} is not positive definite")
    return logdet


def chol_inv_logdet(a: np.ndarray) -> tuple[np.ndarray, float]:
    """``(a⁻¹, log det a)`` via one Cholesky factorisation.

    The factorisation yields both quantities in a single ``O(d³)`` pass
    — the hot-path trick the collapsed sampler's predictive cache
    relies on. Off the PD cone it falls back to the generic guarded
    inverse and ``slogdet`` instead of raising.
    """
    a = np.asarray(a, dtype=float)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _, logdet = guarded_slogdet(a)
        return guarded_inv(a), float(logdet)
    logdet = 2.0 * float(
        np.log(np.diagonal(chol)).sum()  # repro: noqa[NUM002] - Cholesky diagonal is strictly positive
    )
    half = np.linalg.solve(chol, np.eye(a.shape[-1]))  # L⁻¹
    return half.T @ half, logdet  # (L Lᵀ)⁻¹ = L⁻ᵀ L⁻¹
