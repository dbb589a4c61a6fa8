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
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.special import gammaln

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

    @property
    def covariance(self) -> np.ndarray:
        """Λ⁻¹."""
        return guarded_inv(self.precision)


@dataclass(frozen=True)
class GaussianStack:
    """K Gaussians stacked for batched evaluation: means ``(K, d)``,
    precisions ``(K, d, d)`` and their log-determinants ``(K,)``.

    Stacking and the K log-determinants are the part of
    :func:`batch_log_density` that does not depend on ``x``; a caller
    that scores many vectors against fixed Gaussians (the fold-in's gel
    topics) stacks once and calls :meth:`log_density` per vector.
    """

    means: np.ndarray
    precisions: np.ndarray
    logdets: np.ndarray

    @classmethod
    def of(cls, params: Sequence[GaussianParams]) -> "GaussianStack":
        """Stack ``params``, with one batched ``slogdet`` for all K."""
        precisions = np.stack([p.precision for p in params])
        return cls(
            means=np.stack([p.mean for p in params]),
            precisions=precisions,
            logdets=pd_logdet(precisions, "precision matrix"),
        )

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log N(x_n | μ_k, Λ_k⁻¹) for every (row, topic) pair, ``(n, K)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        diff = x[None, :, :] - self.means[:, None, :]       # (K, n, d)
        quad = np.einsum("kni,kij,knj->kn", diff, self.precisions, diff)
        return 0.5 * (
            self.logdets[:, None] - self.means.shape[1] * _LOG_2PI - quad
        ).T


def batch_log_density(
    params: Sequence[GaussianParams], x: np.ndarray
) -> np.ndarray:
    """log N(x_n | μ_k, Λ_k⁻¹) for every (document, topic) pair at once.

    :meth:`GaussianStack.of` then :meth:`GaussianStack.log_density`: all
    K quadratic forms in a single einsum and all K log-determinants in
    one batched ``slogdet``, returning an ``(n, K)`` matrix. The
    reduction order per element matches :meth:`GaussianParams.log_density`,
    so the result is bit-identical to the per-topic loop it replaces
    while dispatching O(1) numpy calls instead of O(K).
    """
    return GaussianStack.of(params).log_density(x)


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


def _wishart(
    dof: float, scale: np.ndarray, generator: np.random.Generator
) -> np.ndarray:
    """Λ ~ W(ν, S) by the Bartlett decomposition Λ = (C A)(C A)ᵀ.

    C is the lower Cholesky factor of S; A is lower triangular with
    N(0, 1) entries below the diagonal and √χ²(ν − i) on it. The draws,
    their order and the products are those of ``scipy.stats.wishart.rvs``
    (one variate), so Λ and the generator state after it are bit-identical
    to scipy's; only its per-call argument processing is skipped. ν > d − 1
    is enforced by :class:`NormalWishartPrior`.
    """
    dim = scale.shape[0]
    chol = scipy.linalg.cholesky(scale, lower=True)
    tril, diag = _bartlett_slots(dim)
    factor = np.zeros((dim, dim))
    factor[tril] = generator.normal(size=dim * (dim - 1) // 2)
    # scipy draws chisquare(ν − (i + 1) + 1, size=1) for each i in turn;
    # one call on the vector of those shapes makes the same draws in the
    # same order, and the shape expression is scipy's, so non-integer ν
    # rounds exactly as there.
    factor[diag] = generator.chisquare(dof - (np.arange(dim) + 1) + 1) ** 0.5
    chol_factor = np.dot(chol, factor)
    return np.dot(chol_factor, chol_factor.T)


def _normal(
    mean: np.ndarray, covariance: np.ndarray, generator: np.random.Generator
) -> np.ndarray:
    """x ~ N(μ, Σ), computed as ``generator.multivariate_normal(mean,
    covariance)`` computes it with its default ``method="svd"``: one
    ``(1, d)`` row z of standard normals, ``u, s, vh = svd(Σ)`` and
    ``μ + z (u √s)ᵀ``. The bits and the generator state after it are
    numpy's; only its per-call argument processing is skipped. Its PSD
    check stays: unless ``vhᵀ diag(s) vh`` matches Σ within ``_PSD_TOL``
    (``np.allclose``'s rule, elementwise, for the finite Σ that
    :func:`guarded_inv` returns), it warns as numpy does."""
    dim = mean.shape[0]
    z = generator.standard_normal((1, dim))
    u, s, vh = np.linalg.svd(covariance)
    rebuilt = np.dot(vh.T * s, vh)
    if not (
        np.abs(rebuilt - covariance) <= _PSD_TOL + _PSD_TOL * np.abs(covariance)
    ).all():
        warnings.warn(
            "covariance is not symmetric positive-semidefinite.",
            RuntimeWarning,
            stacklevel=3,
        )
    return (mean + z @ (u * np.sqrt(s)).T).reshape(dim)


def sample(nw: NormalWishartPrior, rng: RngLike = None) -> GaussianParams:
    """Draw (μ, Λ) ~ NW(μ₀, β, ν, S)."""
    generator = ensure_rng(rng)
    precision = _wishart(nw.dof, nw.scale, generator)
    covariance = symmetrize(guarded_inv(nw.kappa * precision))
    mean = _normal(nw.mean, covariance, generator)
    return GaussianParams(mean=mean, precision=precision)


def expected_params(nw: NormalWishartPrior) -> GaussianParams:
    """Posterior-mean parameters: μ = μ₀, E[Λ] = ν·S."""
    return GaussianParams(mean=nw.mean.copy(), precision=nw.dof * nw.scale)


def log_predictive(nw: NormalWishartPrior, x: np.ndarray) -> float:
    """log p(x | NW) with (μ, Λ) integrated out: multivariate Student-t.

    t has ``ν − d + 1`` degrees of freedom, location μ₀ and scale matrix
    ``(β+1) / (β (ν − d + 1)) · S⁻¹``.
    """
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
