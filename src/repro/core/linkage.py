"""Topic ↔ empirical-study linkage (paper Section III-C.4).

"Kullback-Leibler divergence is applied for deriving [the] most similar
topic to the settings of the research. Then, the quantitative texture is
linked to corresponding texture terms […] in the topics. […] only the
gel ingredient concentrations are used for the comparison."

A :class:`TopicLinker` wraps a fitted joint model's gel Gaussians; its
:meth:`link_setting` / :meth:`link_dish` find the nearest topic for a
Table I setting or a Table II(b) dish, producing the "Table I" column of
Table II(a) and the "Assigned topic" column of Table II(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.linalg import guarded_inv
from repro.core.normal_wishart import GaussianParams
from repro.errors import LinkageError, NotFittedError
from repro.eval.divergence import point_gaussian_kl
from repro.rheology.studies import DishStudy, EmpiricalSetting
from repro.units.convert import information_quantity

#: Default width of the point-setting Gaussian in −log space.
DEFAULT_POINT_SIGMA = 0.35


@dataclass(frozen=True)
class LinkageResult:
    """The outcome of linking one setting/dish to the topics."""

    name: str
    topic: int
    divergences: np.ndarray  # KL to every topic, index = topic id

    @property
    def divergence(self) -> float:
        """KL to the assigned topic."""
        return float(self.divergences[self.topic])

    def ranking(self) -> list[int]:
        """Topics ordered from most to least similar."""
        return [int(k) for k in np.argsort(self.divergences)]


class TopicLinker:
    """KL-divergence linkage from empirical settings to fitted topics."""

    def __init__(self, model, point_sigma: float = DEFAULT_POINT_SIGMA) -> None:
        if getattr(model, "gel_means_", None) is None:
            raise NotFittedError("joint topic model")
        if point_sigma <= 0:
            raise LinkageError("point_sigma must be positive")
        self.point_sigma = point_sigma
        self.gel_means = np.asarray(model.gel_means_)
        # Absent gels are a constant in −log space, so a pure topic's
        # covariance is near-singular along those axes and the KL trace
        # term would explode. The setting's widening σ is applied to both
        # sides: topic covariances are floored at σ²·I.
        covs = np.asarray(model.gel_covs_).copy()
        covs += (point_sigma**2) * np.eye(covs.shape[1])[None, :, :]
        self.gel_covs = covs

    @classmethod
    def from_arrays(
        cls,
        gel_means: np.ndarray,
        gel_covs: np.ndarray,
        point_sigma: float = DEFAULT_POINT_SIGMA,
    ) -> "TopicLinker":
        """Rebuild a linker from its serialised state.

        ``gel_covs`` must already carry the σ²·I floor applied by
        ``__init__`` (this is what :func:`repro.persistence.save_linker`
        stores), so no further widening happens here.
        """
        if point_sigma <= 0:
            raise LinkageError("point_sigma must be positive")
        linker = cls.__new__(cls)
        linker.point_sigma = float(point_sigma)
        linker.gel_means = np.asarray(gel_means)
        linker.gel_covs = np.asarray(gel_covs)
        if linker.gel_means.ndim != 2 or linker.gel_covs.shape != (
            linker.gel_means.shape[0],
            linker.gel_means.shape[1],
            linker.gel_means.shape[1],
        ):
            raise LinkageError("gel mean/covariance shapes are inconsistent")
        return linker

    @property
    def n_topics(self) -> int:
        return self.gel_means.shape[0]

    def gel_params(self) -> list[GaussianParams]:
        """Per-topic gel Gaussians with the σ²·I covariance floor.

        The one floored density every fold-in scores gel vectors with:
        without the floor, absent gels make raw topic covariances
        near-singular and broad mixed topics dominate the posterior.
        """
        return [
            GaussianParams(
                mean=self.gel_means[k], precision=guarded_inv(self.gel_covs[k])
            )
            for k in range(self.n_topics)
        ]

    # -- core ------------------------------------------------------------------

    def divergences_from(self, gel_concentrations: np.ndarray) -> np.ndarray:
        """KL from a raw gel-concentration vector to every topic.

        The vector is transformed to −log space (the model's feature
        space) before comparison.
        """
        point = np.asarray(
            information_quantity(np.asarray(gel_concentrations, dtype=float))
        )
        if point.shape != self.gel_means[0].shape:
            raise LinkageError(
                f"gel vector has dim {point.size}, topics have "
                f"{self.gel_means.shape[1]}"
            )
        return np.array(
            [
                point_gaussian_kl(
                    point, self.gel_means[k], self.gel_covs[k], self.point_sigma
                )
                for k in range(self.n_topics)
            ]
        )

    def link(self, name: str, gel_concentrations: np.ndarray) -> LinkageResult:
        """Most similar topic for a raw gel-concentration vector."""
        divergences = self.divergences_from(gel_concentrations)
        return LinkageResult(
            name=name,
            topic=int(np.argmin(divergences)),
            divergences=divergences,
        )

    # -- convenience -------------------------------------------------------------

    def link_setting(self, setting: EmpiricalSetting) -> LinkageResult:
        """Link one Table I row."""
        return self.link(f"data {setting.data_id}", setting.gel_vector())

    def link_dish(self, dish: DishStudy) -> LinkageResult:
        """Link one Table II(b) dish (gel concentrations only, per paper)."""
        return self.link(dish.name, dish.gel_vector())

    def assignment_table(self, settings) -> dict[int, list[int]]:
        """Topic → list of Table I data ids (Table II(a)'s last column)."""
        table: dict[int, list[int]] = {}
        for setting in settings:
            result = self.link_setting(setting)
            table.setdefault(result.topic, []).append(setting.data_id)
        return table
