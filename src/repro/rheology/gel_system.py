"""Composition → texture response surface, calibrated to the paper.

Food-science background encoded here (Section III and [19]): the texture
of a gel dish is *primarily* determined by the tiny concentrations of the
gelling agents (gelatin, kanten, agar — fractions of a percent to a few
percent), with *subordinate* effects from the bulk emulsions (sugar, egg
albumen, egg yolk, raw cream, milk, yogurt).

Per-gel response curves are calibrated against the paper's Table I:

* **gelatin** — hardness rises steeply then saturates (Hill curve);
  moderately elastic; becomes tacky above ~2.2 %.
* **kanten** — hardest per unit mass, brittle (very low cohesiveness),
  never sticky.
* **agar** — intermediate; over-dosing weakens the network (the Table I
  rows 10–13 non-monotonicity) and makes it adhesive.
* **gelatin × agar** — strongly synergistic adhesiveness
  (the 12.6 RU spike of Table I row 5).

Emulsion effects are calibrated against Table II(b): emulsions harden the
dish, cream/yolk make it markedly more cohesive (Bavarois), milk much
less so (Milk jelly), and all of them dilute surface tack.

The model exposes both the direct response surface (:meth:`profile`) and
a material-parameter mapping (:meth:`material`) so the same composition
can be "measured" through the simulated rheometer of
:mod:`repro.rheology.rheometer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import RheologyError
from repro.rheology.attributes import TextureProfile
from repro.rheology.material import MaterialParameters
from repro.rheology.rheometer import Rheometer

#: Canonical gel order used by every concentration vector in the package.
GEL_NAMES: tuple[str, ...] = ("gelatin", "kanten", "agar")

#: Canonical emulsion order (the paper's six emulsions, Section IV-A).
EMULSION_NAMES: tuple[str, ...] = (
    "sugar",
    "egg_white",
    "egg_yolk",
    "cream",
    "milk",
    "yogurt",
)


@dataclass(frozen=True)
class Composition:
    """Mass-fraction composition of a dish: gels + emulsions."""

    gels: Mapping[str, float] = field(default_factory=dict)
    emulsions: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        gels = {k: float(v) for k, v in self.gels.items() if v}
        emulsions = {k: float(v) for k, v in self.emulsions.items() if v}
        for name in gels:
            if name not in GEL_NAMES:
                raise RheologyError(f"unknown gel {name!r}")
        for name in emulsions:
            if name not in EMULSION_NAMES:
                raise RheologyError(f"unknown emulsion {name!r}")
        for name, value in {**gels, **emulsions}.items():
            if not 0.0 <= value <= 1.0:
                raise RheologyError(f"concentration of {name!r} out of [0,1]: {value}")
        total = sum(gels.values()) + sum(emulsions.values())
        if total > 1.0 + 1e-9:
            raise RheologyError(f"concentrations sum to {total:.3f} > 1")
        object.__setattr__(self, "gels", MappingProxyType(gels))
        object.__setattr__(self, "emulsions", MappingProxyType(emulsions))

    def gel_vector(self) -> np.ndarray:
        """Gel concentrations in :data:`GEL_NAMES` order."""
        return np.array([self.gels.get(n, 0.0) for n in GEL_NAMES])

    def emulsion_vector(self) -> np.ndarray:
        """Emulsion concentrations in :data:`EMULSION_NAMES` order."""
        return np.array([self.emulsions.get(n, 0.0) for n in EMULSION_NAMES])


# --- per-gel response curves (Table I calibration) -----------------------

def _hill(c: float, hmax: float, k: float, n: float) -> float:
    if c <= 0.0:
        return 0.0
    r = (c / k) ** n
    return hmax * r / (1.0 + r)


def _gelatin_hardness(c: float) -> float:
    return _hill(c, hmax=6.8, k=0.034, n=6.0)


def _kanten_hardness(c: float) -> float:
    # Kanten barely sets below ~0.4 %: a sol-gel threshold gates the Hill
    # curve so 0.3–0.5 % "yuru kanten" reads as loose, not as weak-solid.
    setting = 1.0 / (1.0 + math.exp(-(c - 0.0035) / 0.001)) if c > 0 else 0.0
    return setting * _hill(c, hmax=6.0, k=0.009, n=3.0)


def _agar_hardness(c: float) -> float:
    if c <= 0.0:
        return 0.0
    return 1.22 * (c / 0.008) ** 2.4 * math.exp(-((c / 0.018) ** 2))


def _decay(c: float, base: float, c0: float, m: float) -> float:
    if c <= 0.0:
        return 0.0
    return base / (1.0 + (c / c0) ** m)


_GEL_HARDNESS = {
    "gelatin": _gelatin_hardness,
    "kanten": _kanten_hardness,
    "agar": _agar_hardness,
}

def _gelatin_cohesiveness(c: float) -> float:
    # Gelatin networks stay rubbery even when concentrated: decay to a
    # chewy floor rather than to brittle crumb (gummy candy is elastic).
    if c <= 0.0:
        return 0.0
    return 0.30 + 0.45 / (1.0 + (c / 0.022) ** 3)


_GEL_COHESIVENESS = {
    "gelatin": _gelatin_cohesiveness,
    "kanten": lambda c: _decay(c, base=0.50, c0=0.004, m=1.5),
    "agar": lambda c: _decay(c, base=0.90, c0=0.009, m=1.3),
}

#: Yield strain (brittleness) per gel: gelatin stretches, kanten snaps.
_GEL_YIELD_STRAIN = {"gelatin": 0.60, "kanten": 0.25, "agar": 0.35}

# --- emulsion effect weights (Table II(b) calibration) --------------------

_EMULSION_HARDNESS_W = {
    "cream": 10.0, "egg_yolk": 12.0, "egg_white": 3.0,
    "milk": 1.8, "sugar": 1.0, "yogurt": 1.5,
}
_EMULSION_COHESION_W = {
    "cream": 12.0, "egg_yolk": 10.0, "egg_white": 3.0,
    "milk": 0.3, "sugar": 0.2, "yogurt": 0.3,
}
_EMULSION_ADHESION_W = {
    "cream": 8.0, "egg_yolk": 6.0, "egg_white": 2.0,
    "milk": 0.8, "sugar": 0.2, "yogurt": 1.0,
}

#: Cohesiveness of an unset (gel-free) liquid dessert base.
_UNGELLED_COHESIVENESS = 0.45
#: Hardness ceiling; c/a is a ratio so cohesiveness is capped below 1.
_MAX_COHESIVENESS = 0.95


class GelSystemModel:
    """The calibrated composition → texture model.

    All methods are deterministic; randomness (batch variation, sloppy
    measuring) belongs to the corpus synthesiser, not the physics.
    """

    def __init__(self, rheometer: Rheometer | None = None) -> None:
        self.rheometer = rheometer or Rheometer()

    # -- response surface --------------------------------------------------

    def gel_hardness(self, gels: Mapping[str, float]) -> float:
        """Hardness (RU) from gels alone, Euclidean-combined across gels."""
        contributions = [
            _GEL_HARDNESS[name](gels.get(name, 0.0)) for name in GEL_NAMES
        ]
        return float(np.sqrt(np.sum(np.square(contributions))))

    def gel_cohesiveness(self, gels: Mapping[str, float]) -> float:
        """Concentration-weighted cohesiveness from gels alone."""
        weights = [gels.get(name, 0.0) for name in GEL_NAMES]
        total = sum(weights)
        if total <= 0.0:
            return _UNGELLED_COHESIVENESS
        values = [
            _GEL_COHESIVENESS[name](gels.get(name, 0.0)) for name in GEL_NAMES
        ]
        return float(sum(w * v for w, v in zip(weights, values)) / total)

    def gel_adhesiveness(self, gels: Mapping[str, float]) -> float:
        """Adhesiveness (RU) from gels, including the gelatin×agar synergy."""
        gelatin = gels.get("gelatin", 0.0)
        kanten = gels.get("kanten", 0.0)
        agar = gels.get("agar", 0.0)
        adh = 0.0
        if gelatin > 0.0:
            adh += 0.05 + 9.0 * max(0.0, gelatin - 0.022) ** 0.5
        if agar > 0.0:
            adh += 0.2 * (agar / 0.01) + 120.0 * max(0.0, agar - 0.012)
        if 0.0 < kanten < 0.006:
            # under-set kanten weeps (syneresis): wet, slightly clinging
            adh += 1.2 * (0.006 - kanten) / 0.006
        # gelatin×agar interpenetrating networks turn gluey only when both
        # are concentrated (Table I row 5: 12.6 RU at 3 % + 3 %)
        adh += 44000.0 * max(0.0, gelatin - 0.015) * max(0.0, agar - 0.015)
        return adh

    def profile(self, composition: Composition) -> TextureProfile:
        """Texture profile of ``composition`` (the paper's RU attributes)."""
        gels = composition.gels
        emulsions = composition.emulsions

        hardness_gel = self.gel_hardness(gels)
        hardness = hardness_gel * (
            1.0
            + sum(
                _EMULSION_HARDNESS_W[n] * emulsions.get(n, 0.0)
                for n in EMULSION_NAMES
            )
        )

        # Emulsion droplets reinforce cohesiveness only when there is a
        # gel network for them to fill ([19]: "emulsion-filled gels");
        # in a barely-set foam (mousse) the aerated egg white instead
        # makes the bite collapse — low cohesiveness, fluffy sensorially.
        gel_strength = hardness_gel / (hardness_gel + 0.3)
        cohesion = self.gel_cohesiveness(gels)
        boost = 1.0 + gel_strength * sum(
            _EMULSION_COHESION_W[n] * emulsions.get(n, 0.0) for n in EMULSION_NAMES
        )
        cohesion = 1.0 - (1.0 - cohesion) ** boost
        foam = emulsions.get("egg_white", 0.0) * (1.0 - gel_strength)
        cohesion /= 1.0 + 6.0 * foam
        cohesion = min(cohesion, _MAX_COHESIVENESS)

        adhesion = self.gel_adhesiveness(gels)
        adhesion /= 1.0 + sum(
            _EMULSION_ADHESION_W[n] * emulsions.get(n, 0.0) for n in EMULSION_NAMES
        )
        return TextureProfile(
            hardness=max(hardness, 0.0),
            cohesiveness=float(np.clip(cohesion, 0.0, _MAX_COHESIVENESS)),
            adhesiveness=max(adhesion, 0.0),
        )

    # -- rheometer loop ----------------------------------------------------

    def yield_strain(self, gels: Mapping[str, float]) -> float:
        """Concentration-weighted yield strain (brittleness) of the mix."""
        weights = [gels.get(name, 0.0) for name in GEL_NAMES]
        total = sum(weights)
        if total <= 0.0:
            return 0.5
        strains = [_GEL_YIELD_STRAIN[name] for name in GEL_NAMES]
        return float(sum(w * s for w, s in zip(weights, strains)) / total)

    def material(self, composition: Composition) -> MaterialParameters:
        """Material parameters realising this composition's profile.

        Inverts the rheometer's force model: the modulus is chosen so the
        first-compression peak (F1) lands on the response-surface
        hardness, recovery is the cohesiveness, and the adhesion work is
        the adhesiveness.
        """
        target = self.profile(composition)
        yield_strain = float(np.clip(self.yield_strain(composition.gels), 0.1, 0.6))
        rate = self.rheometer.strain_max / self.rheometer.stroke_seconds
        force_per_kpa = 1000.0 * self.rheometer.probe_area_m2
        # Small enough that the rate-dependent stress never rivals the
        # elastic term of even the softest Table I gel (0.2 RU).
        viscosity = 0.01
        modulus = max(
            (target.hardness / force_per_kpa - viscosity * rate) / yield_strain,
            1e-3,
        )
        recovery = float(np.clip(target.cohesiveness, 0.0, 0.95))
        return MaterialParameters(
            modulus_kpa=modulus,
            yield_strain=yield_strain,
            recovery=recovery,
            adhesion_j_m2=target.adhesiveness,
            viscosity_kpa_s=viscosity,
            # springy gels are the cohesive ones: a network that survives
            # the first bite also pushes the sample back to height
            springiness=float(np.clip(0.4 + 0.6 * recovery, 0.0, 1.0)),
        )

    def measure(self, composition: Composition) -> TextureProfile:
        """Texture profile obtained *through the simulated instrument*.

        Unlike :meth:`profile` this runs the full two-bite measurement and
        numerically extracts F1 / c/a / negative area, so it inherits the
        discretisation and extraction behaviour of a real rheometer.
        """
        return self.rheometer.measure(self.material(composition))
