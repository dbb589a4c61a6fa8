"""The quantitative texture profile.

The paper's Fig 2 defines three instrumental attributes extracted from a
two-bite rheometer curve:

* **hardness** — peak force of the first compression (F1);
* **cohesiveness** — ratio of second-compression work to
  first-compression work (c/a), dimensionless in [0, 1];
* **adhesiveness** — cumulative negative force during the first
  ascent (area b).

Hardness and adhesiveness are expressed in RU (rheological units, the
unit the paper normalises all studies to); cohesiveness is a pure ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TextureProfile:
    """Hardness / cohesiveness / adhesiveness of one sample, in RU.

    ``springiness`` (height-recovery ratio between bites, the fourth
    classic TPA parameter) is optional: the paper's Table I reports only
    the three primary attributes, but the simulated rheometer extracts
    springiness too, and the derived TPA parameters *gumminess*
    (hardness × cohesiveness) and *chewiness* (gumminess × springiness)
    are exposed as properties.
    """

    hardness: float
    cohesiveness: float
    adhesiveness: float
    springiness: float | None = None

    def __post_init__(self) -> None:
        for name in ("hardness", "cohesiveness", "adhesiveness"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.springiness is not None and not 0.0 <= self.springiness <= 1.5:
            raise ValueError(
                f"springiness must lie in [0, 1.5], got {self.springiness}"
            )

    @property
    def gumminess(self) -> float:
        """TPA gumminess: hardness × cohesiveness (semi-solid chew energy)."""
        return self.hardness * self.cohesiveness

    @property
    def chewiness(self) -> float | None:
        """TPA chewiness: gumminess × springiness; ``None`` without
        springiness."""
        if self.springiness is None:
            return None
        return self.gumminess * self.springiness

    def as_array(self) -> np.ndarray:
        """``[hardness, cohesiveness, adhesiveness]`` as a float vector."""
        return np.array(
            [self.hardness, self.cohesiveness, self.adhesiveness], dtype=float
        )

    @classmethod
    def from_array(cls, values) -> "TextureProfile":
        """Inverse of :meth:`as_array`."""
        h, c, a = (float(v) for v in values)
        return cls(hardness=h, cohesiveness=c, adhesiveness=a)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"H={self.hardness:.2f}RU "
            f"C={self.cohesiveness:.2f} "
            f"A={self.adhesiveness:.2f}RU"
        )
