"""Evaluation utilities: divergences, clustering metrics, validation.

* :mod:`repro.eval.divergence` — Gaussian and discrete KL divergences
  (the similarity machinery of Sections III-C.4 and V-B);
* :mod:`repro.eval.metrics` — purity, NMI, word perplexity;
* :mod:`repro.eval.validation` — category-consistency validation of
  topic→rheology linkages against the dictionary annotations;
* :mod:`repro.eval.binning` — KL-ordered histogram binning (Fig 3).
"""

from repro.eval.divergence import (
    concentration_kl,
    discrete_kl,
    gaussian_kl,
    point_gaussian_kl,
)
from repro.eval.metrics import normalized_mutual_information, purity

__all__ = [
    "gaussian_kl",
    "point_gaussian_kl",
    "discrete_kl",
    "concentration_kl",
    "purity",
    "normalized_mutual_information",
]
