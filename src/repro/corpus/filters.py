"""Dataset filters of Section IV-A.

From the ~63,000 collected gel recipes the paper keeps only those that

1. carry at least one dictionary texture term in their description
   (~10,000 survive);
2. actually contain a gelling agent;
3. are not "occupied by more than 10 percent of unrelated ingredients"
   (fruit-dominated parfaits etc.), leaving ~3,000.

:class:`DatasetFilter` applies the same chain to featurised recipes and
keeps per-rule rejection counts so dataset statistics can be reported the
way the paper reports its funnel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.features import RecipeFeatures

#: The paper's unrelated-ingredient exclusion threshold.
UNRELATED_THRESHOLD = 0.10


@dataclass
class DatasetFilter:
    """The Section IV-A filter chain with rejection accounting."""

    rejected: dict[str, int] = field(
        default_factory=lambda: {"no_terms": 0, "no_gel": 0, "unrelated": 0}
    )

    def accept(self, features: RecipeFeatures) -> bool:
        """Whether ``features`` survives the chain (counts rejections)."""
        if features.n_terms == 0:
            self.rejected["no_terms"] += 1
            return False
        if not features.has_gel:
            self.rejected["no_gel"] += 1
            return False
        if features.unrelated_fraction > UNRELATED_THRESHOLD:
            self.rejected["unrelated"] += 1
            return False
        return True
