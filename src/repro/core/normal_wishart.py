"""Normal–Wishart posterior updates, sampling and predictive densities.

Implements equation (4) of the paper: given the concentration vectors
currently assigned to topic k, the NW posterior over (μ_k, Λ_k) has

    β_c = β + N_k            ν_c = ν + N_k
    μ_c = (N_k·ḡ + β·μ₀) / (N_k + β)
    S_c⁻¹ = S⁻¹ + Σ (g − ḡ)(g − ḡ)ᵀ + N_k·β/(N_k+β) (ḡ−μ₀)(ḡ−μ₀)ᵀ

from which (μ_k, Λ_k) are drawn as Λ ~ W(ν_c, S_c), μ ~ N(μ_c, (β_c Λ)⁻¹).
The fully-collapsed variant integrates (μ, Λ) out, giving a multivariate
Student-t predictive; both are provided.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from repro.core.linalg import guarded_inv, guarded_slogdet, pd_logdet, symmetrize
from repro.core.priors import NormalWishartPrior
from repro.errors import ModelError
from repro.rng import RngLike, ensure_rng

_LOG_2PI = float(np.log(2.0 * np.pi))

#: ``Generator.multivariate_normal``'s ``tol``: the PSD check's rtol and atol.
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class GaussianParams:
    """A sampled (μ, Λ) pair; Λ is a precision matrix."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self) -> None:
        if self.precision.shape != (self.mean.size, self.mean.size):
            raise ModelError("precision shape mismatch")

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log N(x | μ, Λ⁻¹) for one vector or a batch of rows."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        diff = x - self.mean
        logdet = pd_logdet(self.precision, "precision matrix")
        quad = np.einsum("ni,ij,nj->n", diff, self.precision, diff)
        out = 0.5 * (logdet - self.mean.size * _LOG_2PI - quad)
        return out if out.size > 1 else out[:1]


@dataclass(frozen=True)
class GaussianStack:
    """K Gaussians stacked for batched evaluation: means ``(K, d)`` and
    precisions ``(K, d, d)``.

    :func:`sample` draws one channel's K Gaussians as a stack; a caller
    that scores many vectors against fixed Gaussians (the fold-in's gel
    topics) stacks them once with :meth:`of` and calls
    :meth:`log_density` per vector, so the K log-determinants are
    computed once.
    """

    means: np.ndarray
    precisions: np.ndarray

    @classmethod
    def of(cls, params: Sequence[GaussianParams]) -> "GaussianStack":
        """Stack ``params``."""
        return cls(
            means=np.stack([p.mean for p in params]),
            precisions=np.stack([p.precision for p in params]),
        )

    @cached_property
    def logdets(self) -> np.ndarray:
        """log |Λ_k| ``(K,)``, one batched ``slogdet``, computed on first
        use; :class:`~repro.errors.ModelError` unless every Λ_k is
        positive definite."""
        return pd_logdet(self.precisions, "precision matrix")

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log N(x_n | μ_k, Λ_k⁻¹) for every (row, topic) pair, ``(n, K)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        diff = x[None, :, :] - self.means[:, None, :]       # (K, n, d)
        quad = np.einsum("kni,kij,knj->kn", diff, self.precisions, diff)
        return 0.5 * (
            self.logdets[:, None] - self.means.shape[1] * _LOG_2PI - quad
        ).T


def batch_log_density(stack: GaussianStack, x: np.ndarray) -> np.ndarray:
    """log N(x_n | μ_k, Λ_k⁻¹) for every (document, topic) pair at once:
    :meth:`GaussianStack.log_density`, an ``(n, K)`` matrix.

    All K quadratic forms run in a single einsum and all K
    log-determinants in one batched ``slogdet``. The reduction order per
    element matches :meth:`GaussianParams.log_density`, so the result is
    bit-identical to the per-topic loop it replaces while dispatching
    O(1) numpy calls instead of O(K).
    """
    return stack.log_density(x)


def posterior(prior: NormalWishartPrior, data: np.ndarray) -> NormalWishartPrior:
    """The NW posterior after observing the rows of ``data`` (eq. (4))."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 0:
        return prior
    if data.shape[1] != prior.dim:
        raise ModelError(
            f"data dim {data.shape[1]} does not match prior dim {prior.dim}"
        )
    n = data.shape[0]
    xbar = data.mean(axis=0)
    centered = data - xbar
    scatter = centered.T @ centered
    dmean = xbar - prior.mean

    kappa_c = prior.kappa + n
    dof_c = prior.dof + n
    mean_c = (n * xbar + prior.kappa * prior.mean) / kappa_c
    scale_inv = (
        guarded_inv(prior.scale)
        + scatter
        + (n * prior.kappa / kappa_c) * np.outer(dmean, dmean)
    )
    scale_c = symmetrize(guarded_inv(scale_inv))  # enforce symmetry numerically
    return NormalWishartPrior(mean=mean_c, kappa=kappa_c, dof=dof_c, scale=scale_c)


@lru_cache(maxsize=None)
def _bartlett_slots(dim: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Strict-lower-triangle and diagonal index slots of a ``dim × dim``
    matrix (``np.tril_indices`` alone costs tens of µs per call)."""
    return np.tril_indices(dim, k=-1), np.diag_indices(dim)


def _normal(
    means: np.ndarray, covariances: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """x_k ~ N(μ_k, Σ_k) for a ``(K, d)`` / ``(K, d, d)`` stack, given
    each draw's ``(1, d)`` row of standard normals in ``z`` ``(K, 1, d)``.

    Each row is computed as ``Generator.multivariate_normal(μ_k, Σ_k)``
    computes it with its default ``method="svd"``: ``u, s, vh = svd(Σ)``
    and ``μ + z (u √s)ᵀ``. The stacked ``svd`` and ``matmul`` run the
    per-matrix LAPACK and BLAS calls, so every row is numpy's to the bit
    (an ``einsum`` of the last product is not). Its PSD check stays:
    unless ``vhᵀ diag(s) vh`` matches Σ_k within ``_PSD_TOL``
    (``np.allclose``'s rule, elementwise, for the finite Σ that
    :func:`guarded_inv` returns), it warns as numpy does."""
    u, s, vh = np.linalg.svd(covariances)
    rebuilt = (np.swapaxes(vh, -1, -2) * s[:, None, :]) @ vh
    if not (
        np.abs(rebuilt - covariances) <= _PSD_TOL + _PSD_TOL * np.abs(covariances)
    ).all():
        warnings.warn(
            "covariance is not symmetric positive-semidefinite.",
            RuntimeWarning,
            stacklevel=3,
        )
    factors = u * np.sqrt(s)[:, None, :]
    return (means[:, None, :] + z @ np.swapaxes(factors, -1, -2))[:, 0, :]


def sample(
    posteriors: Sequence[NormalWishartPrior], rng: RngLike = None
) -> GaussianStack:
    """Draw (μ_k, Λ_k) ~ NW(μ₀, β, ν, S) from each of K posteriors of one
    dimension, returned as one stack.

    Λ ~ W(ν, S) by the Bartlett decomposition Λ = (C A)(C A)ᵀ: C is the
    lower Cholesky factor of S (:attr:`NormalWishartPrior.scale_cholesky`,
    cached on the posterior); A is lower triangular with N(0, 1) entries
    below the diagonal and √χ²(ν − i) on it. Then μ ~ N(μ₀, (βΛ)⁻¹).

    Topic by topic, in order, the random draws are those of
    ``scipy.stats.wishart.rvs`` (one variate) followed by
    ``Generator.multivariate_normal``: the strict-lower-triangle normals,
    the χ² diagonal, then the mean's standard normals. Only the
    deterministic algebra runs once on the ``(K, d, d)`` stack, with the
    per-matrix BLAS and LAPACK calls of the one-topic form, so every Λ_k
    and μ_k and the generator state after the call are those of K
    per-topic draws. ν > d − 1 is enforced by :class:`NormalWishartPrior`.
    """
    generator = ensure_rng(rng)
    n_stack = len(posteriors)
    dim = posteriors[0].dim
    n_tril = dim * (dim - 1) // 2
    # scipy draws chisquare(ν − (i + 1) + 1, size=1) for each i in turn;
    # one call on the vector of those shapes makes the same draws in the
    # same order, and the shape expression is scipy's, so non-integer ν
    # rounds exactly as there.
    shapes = np.array([post.dof for post in posteriors])[:, None] - (
        np.arange(dim) + 1
    ) + 1
    lower = np.empty((n_stack, n_tril))
    chisq = np.empty((n_stack, dim))
    z = np.empty((n_stack, 1, dim))
    for k in range(n_stack):
        lower[k] = generator.normal(size=n_tril)
        chisq[k] = generator.chisquare(shapes[k])
        z[k] = generator.standard_normal((1, dim))
    tril, diag = _bartlett_slots(dim)
    bartlett = np.zeros((n_stack, dim, dim))
    bartlett[:, tril[0], tril[1]] = lower
    bartlett[:, diag[0], diag[1]] = chisq**0.5
    chol_factors = np.stack([post.scale_cholesky for post in posteriors]) @ bartlett
    precisions = chol_factors @ np.swapaxes(chol_factors, -1, -2)
    kappas = np.array([post.kappa for post in posteriors])[:, None, None]
    covariances = symmetrize(guarded_inv(kappas * precisions))
    means = _normal(
        np.stack([post.mean for post in posteriors]), covariances, z
    )
    return GaussianStack(means=means, precisions=precisions)


def expected_params(nw: NormalWishartPrior) -> GaussianParams:
    """Posterior-mean parameters: μ = μ₀, E[Λ] = ν·S."""
    return GaussianParams(mean=nw.mean.copy(), precision=nw.dof * nw.scale)


def log_predictive(nw: NormalWishartPrior, x: np.ndarray) -> float:
    """log p(x | NW) with (μ, Λ) integrated out: multivariate Student-t.

    t has ``ν − d + 1`` degrees of freedom, location μ₀ and scale matrix
    ``(β+1) / (β (ν − d + 1)) · S⁻¹``.
    """
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    d = nw.dim
    dof_t = nw.dof - d + 1.0
    if dof_t <= 0:
        raise ModelError("NW dof too small for predictive density")
    scale_t = guarded_inv(nw.scale) * (nw.kappa + 1.0) / (nw.kappa * dof_t)
    diff = x - nw.mean
    solve = np.linalg.solve(scale_t, diff)
    quad = float(diff @ solve)
    _, logdet = guarded_slogdet(scale_t)
    return float(
        gammaln((dof_t + d) / 2.0)
        - gammaln(dof_t / 2.0)
        - 0.5 * (d * np.log(dof_t * np.pi) + logdet)  # repro: noqa[NUM002] - dof_t > 0 checked above
        - 0.5 * (dof_t + d) * np.log1p(quad / dof_t)
    )
