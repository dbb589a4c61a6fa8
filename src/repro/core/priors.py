"""Conjugate prior containers.

Two priors drive the joint model of Fig 1: a Dirichlet over topic /
word distributions (α, γ) and a Normal–Wishart over each topic's
concentration Gaussian (μ₀, β, ν, S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class DirichletPrior:
    """A symmetric-or-vector Dirichlet prior.

    ``concentration`` may be a positive scalar (symmetric prior) or a
    positive vector of per-component weights.
    """

    concentration: float | np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.concentration, dtype=float))
        if arr.ndim != 1 or not np.all(arr > 0.0):
            raise ModelError("Dirichlet concentration must be positive")

    def vector(self, size: int) -> np.ndarray:
        """The prior as a length-``size`` vector."""
        arr = np.atleast_1d(np.asarray(self.concentration, dtype=float))
        if arr.size == 1:
            return np.full(size, float(arr[0]))
        if arr.size != size:
            raise ModelError(
                f"Dirichlet prior has size {arr.size}, expected {size}"
            )
        return arr.copy()

    def total(self, size: int) -> float:
        """Σα for a prior applied to ``size`` components."""
        return float(self.vector(size).sum())


@dataclass(frozen=True)
class NormalWishartPrior:
    """The NW(μ₀, β, ν, S) prior of the paper's equation (1).

    ``scale`` is the Wishart scale matrix **S** (so ``E[Λ] = ν·S``);
    ``dof`` must exceed ``dim − 1``.
    """

    mean: np.ndarray
    kappa: float           # β in the paper: pseudo-count on the mean
    dof: float             # ν: Wishart degrees of freedom
    scale: np.ndarray      # S: Wishart scale matrix

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        if mean.ndim != 1:
            raise ModelError("NW mean must be a vector")
        dim = mean.size
        if scale.shape != (dim, dim):
            raise ModelError(f"NW scale must be {dim}x{dim}")
        if not np.allclose(scale, scale.T):
            raise ModelError("NW scale must be symmetric")
        if self.kappa <= 0.0:
            raise ModelError("NW kappa (β) must be positive")
        if self.dof <= dim - 1:
            raise ModelError(f"NW dof (ν) must exceed dim-1 = {dim - 1}")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError:
            raise ModelError("NW scale must be positive definite") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        """Dimensionality of the Gaussian."""
        return self.mean.size

    @cached_property
    def scale_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of ``scale``, scipy's (the factor
        ``scipy.stats.wishart`` draws with; numpy's can differ in the
        last bit), computed on first use and kept on this object."""
        import scipy.linalg

        return scipy.linalg.cholesky(self.scale, lower=True)

    @classmethod
    def vague(
        cls,
        data: np.ndarray,
        kappa: float = 0.1,
        scatter_weight: float = 0.3,
    ) -> "NormalWishartPrior":
        """A weakly-informative prior centred on the data.

        μ₀ = data mean. The Wishart scale is set so the prior contributes
        a pseudo-scatter of ``scatter_weight`` observations of the
        corpus-wide (diagonal) variance: ``S⁻¹ = scatter_weight ·
        diag(var)``. Small values keep a tight cluster's posterior
        covariance near its empirical scatter instead of being dragged
        toward the corpus spread — important here because topics are far
        tighter than the corpus (a single gel band vs. all gel bands).
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2:
            raise ModelError("need a (n, dim) data matrix with n >= 2")
        if scatter_weight <= 0.0:
            raise ModelError("scatter_weight must be positive")
        dim = data.shape[1]
        variance = np.maximum(data.var(axis=0), 1e-6)
        dof = float(dim + 2)
        scale = np.diag(1.0 / (scatter_weight * variance))
        return cls(mean=data.mean(axis=0), kappa=kappa, dof=dof, scale=scale)
