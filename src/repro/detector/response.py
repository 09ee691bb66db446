"""Parameterised detector response models.

These encode the resolution and efficiency behaviour that the full
simulation would produce: calorimeter stochastic terms and sigmoid
efficiency turn-on curves. The digitiser applies the *hit-level* noise;
these object-level models are used where the simulation shortcuts hit
formation (calorimeter deposits, efficiencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CaloResponse:
    """Calorimeter energy response ``sigma/E = a/sqrt(E) (+) b``.

    ``a`` is the stochastic (sampling) term in sqrt(GeV) units and ``b``
    the constant term; the two are added in quadrature, the standard
    calorimetry parameterisation.
    """

    stochastic_term: float
    constant_term: float
    energy_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.stochastic_term < 0.0 or self.constant_term < 0.0:
            raise ConfigurationError("resolution terms must be non-negative")

    def relative_resolution(self, energy: float) -> float:
        """Fractional resolution sigma(E)/E at the given energy.

        sqrt-of-squares rather than ``hypot``: the two can differ in
        the last ulp, and the archived simulation bytes depend on it.
        """
        if energy <= 0.0:
            return 0.0
        stochastic = self.stochastic_term / math.sqrt(energy)
        return math.sqrt(stochastic * stochastic
                         + self.constant_term * self.constant_term)

    def smear(self, energy: float, rng: np.random.Generator) -> float:
        """Sample a measured energy for a true deposit ``energy``."""
        if energy <= 0.0:
            return 0.0
        sigma = self.relative_resolution(energy) * energy
        measured = self.energy_scale * (energy + rng.normal(0.0, sigma))
        return max(0.0, measured)


@dataclass(frozen=True)
class EfficiencyCurve:
    """A sigmoid turn-on efficiency curve in pt.

    ``plateau`` is the asymptotic efficiency, ``threshold`` the pt at which
    the curve reaches half the plateau, and ``width`` the turn-on sharpness.
    """

    plateau: float
    threshold: float
    width: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.plateau <= 1.0:
            raise ConfigurationError(
                f"plateau must be a probability, got {self.plateau}"
            )
        if self.width <= 0.0:
            raise ConfigurationError(f"width must be positive: {self.width}")

    def value(self, pt: float) -> float:
        """Efficiency at the given pt."""
        return self.plateau / (
            1.0 + math.exp(-(pt - self.threshold) / self.width)
        )

    def passes(self, pt: float, rng: np.random.Generator) -> bool:
        """Sample a pass/fail decision at the given pt."""
        return bool(rng.random() < self.value(pt))
