"""Two-bite texture-profile-analysis (TPA) rheometer simulation.

Implements the instrument of the paper's Fig 2: a disc probe descends
onto a gel sample, compresses it, ascends, and repeats — imitating two
chews. The simulated force-time curve exhibits the landmarks the paper
describes:

* a positive peak **F1** during the first compression, after which the
  network yields and the force falls ("the food shape begins to
  collapse");
* a negative force region during the first ascent as the sample sticks
  to the probe (area **b**);
* a smaller positive area during the second compression because only a
  ``recovery`` fraction of the network survived the first bite (areas
  **c** vs **a**).

:meth:`TPACurve.extract` computes the attributes from the raw curve the
way a rheometer's software does — numerically, with no access to the
material parameters — so hardness = F1, cohesiveness = c/a and
adhesiveness = |b| are genuine measurements of the simulated curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RheologyError
from repro.rheology.attributes import TextureProfile
from repro.rheology.material import MaterialParameters
from repro.rheology.ru import REFERENCE_PROBE_AREA_M2

#: Fraction of the yield-point stress the fractured network retains.
_FRACTURE_RESIDUAL = 0.6
#: Strain scale over which post-yield stress relaxes to the residual.
_FRACTURE_WIDTH = 0.08
#: Duration of the adhesive pull-off pulse, as a fraction of the ascent.
_ADHESION_FRACTION = 0.3
#: Maximum permanent set after the first bite, as a fraction of the peak
#: strain: a material with springiness 0 starts its second compression
#: this much "late" because the sample did not spring back to height.
_PERMANENT_SET_FRACTION = 0.3
#: Contact-detection threshold for onset extraction (fraction of the
#: bite's peak force).
_ONSET_THRESHOLD = 0.02


@dataclass(frozen=True)
class TPACurve:
    """A simulated two-bite force-time curve.

    ``time`` in seconds, ``force`` in newtons (= RU on the reference
    probe), ``strain`` is the imposed sample strain, and ``bite`` labels
    each sample point with its chew index (1 or 2).
    """

    time: np.ndarray
    force: np.ndarray
    strain: np.ndarray
    bite: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.time)
        if not (len(self.force) == len(self.strain) == len(self.bite) == n):
            raise RheologyError("curve arrays must have equal length")
        if n < 8:
            raise RheologyError("curve too short to analyse")

    def _areas(self, mask: np.ndarray, positive: bool) -> float:
        force = np.where(mask, self.force, 0.0)
        force = np.clip(force, 0.0, None) if positive else np.clip(force, None, 0.0)
        return float(np.trapezoid(force, self.time))

    def _bite_travel(self, mask: np.ndarray) -> float:
        """Strain distance from contact onset to peak strain in one bite's
        descent (the TPA "length" used for springiness)."""
        descending = np.gradient(self.strain, self.time) > 0
        descent = mask & descending
        if not descent.any():
            return 0.0
        forces = self.force[descent]
        strains = self.strain[descent]
        peak = float(forces.max())
        if peak <= 0.0:
            return 0.0
        onset_indices = np.flatnonzero(forces > _ONSET_THRESHOLD * peak)
        if onset_indices.size == 0:
            return 0.0
        onset = float(strains[onset_indices[0]])
        return max(float(strains.max()) - onset, 0.0)

    def extract(self) -> TextureProfile:
        """Compute the Fig 2 attributes (plus springiness) from the curve."""
        first = self.bite == 1
        second = self.bite == 2
        if not first.any() or not second.any():
            raise RheologyError("curve must contain two bites")
        ascending = np.gradient(self.strain, self.time) < 0
        f1 = float(np.max(self.force[first]))
        area_a = self._areas(first, positive=True)
        area_b = self._areas(first & ascending, positive=False)
        area_c = self._areas(second, positive=True)
        if area_a <= 0.0:
            raise RheologyError("first-bite work is non-positive")
        travel_1 = self._bite_travel(first)
        travel_2 = self._bite_travel(second)
        springiness = (
            min(max(travel_2 / travel_1, 0.0), 1.5) if travel_1 > 0 else None
        )
        return TextureProfile(
            hardness=max(f1, 0.0),
            cohesiveness=min(max(area_c / area_a, 0.0), 1.0),
            adhesiveness=abs(area_b),
            springiness=springiness,
        )


class Rheometer:
    """The simulated instrument.

    Parameters
    ----------
    strain_max:
        Peak imposed strain per chew (default 70 %, the common TPA
        setting).
    stroke_seconds:
        Duration of each descent and each ascent.
    samples_per_stroke:
        Sampling resolution of the force transducer.
    probe_area_m2:
        Probe disc area; defaults to the RU reference plunger.

    The transducer is noise-free, so a measurement is a pure function of
    the material (Table I is simulated this way).
    """

    def __init__(
        self,
        strain_max: float = 0.7,
        stroke_seconds: float = 1.0,
        samples_per_stroke: int = 250,
        probe_area_m2: float = REFERENCE_PROBE_AREA_M2,
    ) -> None:
        if not 0.05 <= strain_max <= 0.95:
            raise RheologyError(f"strain_max out of range: {strain_max}")
        if stroke_seconds <= 0 or samples_per_stroke < 8:
            raise RheologyError("degenerate stroke configuration")
        self.strain_max = strain_max
        self.stroke_seconds = stroke_seconds
        self.samples_per_stroke = samples_per_stroke
        self.probe_area_m2 = probe_area_m2

    # -- stress model ---------------------------------------------------

    def _loading_stress(self, material: MaterialParameters, strain: np.ndarray) -> np.ndarray:
        """Stress (kPa) along a monotone compression ramp."""
        elastic = material.modulus_kpa * strain
        peak = material.modulus_kpa * material.yield_strain
        over = strain > material.yield_strain
        relax = _FRACTURE_RESIDUAL + (1 - _FRACTURE_RESIDUAL) * np.exp(
            -(strain - material.yield_strain) / _FRACTURE_WIDTH
        )
        return np.where(over, peak * relax, elastic)

    def _compression_force(
        self, material: MaterialParameters, strain: np.ndarray, rate: float
    ) -> np.ndarray:
        stress = self._loading_stress(material, strain)
        stress = stress + material.viscosity_kpa_s * rate * (strain > 0.01)
        return stress * 1000.0 * self.probe_area_m2  # kPa → Pa → N

    def _ascent_force(
        self,
        material: MaterialParameters,
        phase: np.ndarray,
        peak_force: float,
    ) -> np.ndarray:
        """Force during an ascent: rapid elastic release, then adhesion."""
        release = peak_force * np.clip(1.0 - phase / 0.15, 0.0, 1.0) ** 2
        pulse = np.zeros_like(phase)
        window = (phase > 0.15) & (phase < 0.15 + _ADHESION_FRACTION)
        local = (phase[window] - 0.15) / _ADHESION_FRACTION
        # half-sine pull-off pulse whose time-integral equals the
        # material's adhesion parameter (in RU·s on the reference probe)
        amplitude = material.adhesion_j_m2 * np.pi / (
            2.0 * _ADHESION_FRACTION * self.stroke_seconds
        )
        pulse[window] = -amplitude * np.sin(np.pi * local)
        return release + pulse

    # -- the measurement --------------------------------------------------

    def run(self, material: MaterialParameters) -> TPACurve:
        """Run a two-bite measurement and return the force-time curve."""
        n = self.samples_per_stroke
        dt = self.stroke_seconds / n
        rate = self.strain_max / self.stroke_seconds
        ramp = np.linspace(0.0, self.strain_max, n, endpoint=False)
        phase = np.linspace(0.0, 1.0, n, endpoint=False)

        times, forces, strains, bites = [], [], [], []
        t0 = 0.0
        for bite_index, bite_material in ((1, material), (2, material.damaged())):
            if bite_index == 1:
                effective = ramp
            else:
                # permanent set: the sample did not fully spring back, so
                # the probe travels through air before re-contact
                offset = (
                    (1.0 - material.springiness)
                    * _PERMANENT_SET_FRACTION
                    * self.strain_max
                )
                effective = np.clip(ramp - offset, 0.0, None)
            down = self._compression_force(bite_material, effective, rate)
            peak = float(down[-1]) * 0.2  # residual contact force at reversal
            up = self._ascent_force(bite_material, phase, peak)
            force = np.concatenate([down, up])
            strain = np.concatenate([ramp, self.strain_max * (1.0 - phase)])
            time = t0 + dt * np.arange(2 * n)
            times.append(time)
            forces.append(force)
            strains.append(strain)
            bites.append(np.full(2 * n, bite_index))
            t0 = float(time[-1]) + dt

        return TPACurve(
            time=np.concatenate(times),
            force=np.concatenate(forces),
            strain=np.concatenate(strains),
            bite=np.concatenate(bites),
        )

    def measure(self, material: MaterialParameters) -> TextureProfile:
        """Run a measurement and extract the texture profile."""
        return self.run(material).extract()
