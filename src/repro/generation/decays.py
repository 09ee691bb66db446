"""Decay kinematics helpers for the toy generator.

Everything here is frame-exact relativistic kinematics; only the angular
distributions are simplified (isotropic in the parent rest frame).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GenerationError
from repro.kinematics import FourVector
from repro.kinematics.units import SPEED_OF_LIGHT_MM_PER_NS


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """One draw from ``[low, high)``: bit-identical to
    ``rng.uniform(low, high)`` on the same generator, at a third of
    the cost.

    numpy computes ``low + (high - low) * next_double`` in C from one
    ``random()`` double, so the same expression in Python returns the
    same float and leaves the stream at the same position. Requires
    ``low <= high``, as numpy does.
    """
    return low + (high - low) * rng.random()


def two_body_decay(
    parent: FourVector,
    mass1: float,
    mass2: float,
    rng: np.random.Generator,
) -> tuple[FourVector, FourVector]:
    """Decay ``parent`` into two bodies of the given masses.

    The decay is isotropic in the parent rest frame; the daughters are
    returned boosted into the lab frame. Raises :class:`GenerationError` if
    the decay is kinematically forbidden.
    """
    parent_mass = parent.mass
    if parent_mass < mass1 + mass2:
        raise GenerationError(
            f"two-body decay forbidden: M={parent_mass:.4f} < "
            f"{mass1:.4f} + {mass2:.4f}"
        )
    # Momentum of each daughter in the rest frame (the Kallen function).
    term_plus = parent_mass**2 - (mass1 + mass2) ** 2
    term_minus = parent_mass**2 - (mass1 - mass2) ** 2
    p_star = math.sqrt(term_plus * term_minus) / (2.0 * parent_mass)

    cos_theta = uniform(rng, -1.0, 1.0)
    sin_theta = math.sqrt(1.0 - cos_theta * cos_theta)
    phi = uniform(rng, -math.pi, math.pi)

    px = p_star * sin_theta * math.cos(phi)
    py = p_star * sin_theta * math.sin(phi)
    pz = p_star * cos_theta

    daughter1 = FourVector.from_p3m(px, py, pz, mass1)
    daughter2 = FourVector.from_p3m(-px, -py, -pz, mass2)

    bx, by, bz = parent.boost_vector()
    return daughter1.boosted(bx, by, bz), daughter2.boosted(bx, by, bz)


def breit_wigner_mass(
    pole_mass: float,
    width: float,
    rng: np.random.Generator,
    minimum: float = 0.1,
    maximum: float | None = None,
) -> float:
    """Sample a resonance mass from a (non-relativistic) Breit-Wigner.

    The Cauchy tail is truncated to ``[minimum, maximum]`` (default maximum
    is ``pole_mass + 25 * width``) by resampling, which keeps the generator
    free of unphysical masses without distorting the core of the peak.
    """
    if width <= 0.0:
        return pole_mass
    if maximum is None:
        maximum = pole_mass + 25.0 * width
    for _ in range(1000):
        mass = pole_mass + 0.5 * width * rng.standard_cauchy()
        if minimum <= mass <= maximum:
            return mass
    raise GenerationError(
        f"failed to sample Breit-Wigner(m={pole_mass}, w={width}) within "
        f"[{minimum}, {maximum}]"
    )


def sample_decay_vertex(
    momentum: FourVector,
    lifetime_ns: float,
    rng: np.random.Generator,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> tuple[tuple[float, float, float], float]:
    """Sample a decay position for a particle with the given proper lifetime.

    Returns ``(vertex_mm, proper_time_ns)``. The lab-frame flight length is
    ``beta * gamma * c * t_proper``; the vertex lies along the momentum
    direction from ``origin``. Stable particles (infinite lifetime) return
    the origin and an infinite proper time.
    """
    if lifetime_ns == float("inf"):
        return origin, float("inf")
    proper_time = rng.exponential(lifetime_ns)
    p = momentum.p
    mass = momentum.mass
    if mass <= 0.0:
        # Massless particles never decay in this model.
        return origin, float("inf")
    beta_gamma = p / mass
    flight = beta_gamma * SPEED_OF_LIGHT_MM_PER_NS * proper_time
    if p == 0.0:
        return origin, proper_time
    direction = (momentum.px / p, momentum.py / p, momentum.pz / p)
    vertex = (
        origin[0] + flight * direction[0],
        origin[1] + flight * direction[1],
        origin[2] + flight * direction[2],
    )
    return vertex, proper_time


def smeared_primary_vertex(
    rng: np.random.Generator,
    sigma_xy_mm: float = 0.02,
    sigma_z_mm: float = 50.0,
) -> tuple[float, float, float]:
    """Sample a primary-vertex position from the beam-spot distribution."""
    return (
        float(rng.normal(0.0, sigma_xy_mm)),
        float(rng.normal(0.0, sigma_xy_mm)),
        float(rng.normal(0.0, sigma_z_mm)),
    )
