"""Immutable relativistic four-vectors.

The :class:`FourVector` is the workhorse value type of the library. It is
deliberately a plain frozen dataclass over four floats rather than a numpy
wrapper: individual particles are manipulated far more often than bulk
arrays at this layer, and an explicit scalar implementation keeps the
physics readable. Bulk operations (histogram fills, smearing) convert to
numpy arrays at their own boundaries.

Conventions: the metric is (+, -, -, -); energies and momenta are in GeV;
``eta`` is pseudorapidity; ``phi`` is the azimuthal angle in (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import KinematicsError

_TWO_PI = 2.0 * math.pi


def finite(value) -> float:
    """``float(value)``; NaN and infinities are not measurements."""
    number = float(value)
    if not math.isfinite(number):
        raise KinematicsError(f"non-finite value {number!r}")
    return number


def wrap_phi(phi: float) -> float:
    """Wrap an azimuthal angle into the interval (-pi, pi]."""
    wrapped = math.fmod(phi, _TWO_PI)
    if wrapped > math.pi:
        wrapped -= _TWO_PI
    elif wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


def delta_phi(phi1: float, phi2: float) -> float:
    """Smallest signed azimuthal difference ``phi1 - phi2``."""
    return wrap_phi(phi1 - phi2)


@dataclass(frozen=True, slots=True)
class FourVector:
    """An energy-momentum four-vector ``(E, px, py, pz)`` in GeV.

    Instances are immutable; all arithmetic returns new vectors. Use the
    :meth:`from_ptetaphim` / :meth:`from_ptetaphie` constructors to build
    vectors from collider coordinates.
    """

    e: float
    px: float
    py: float
    pz: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "FourVector":
        """The null vector, useful as a sum accumulator."""
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_ptetaphim(
        cls, pt: float, eta: float, phi: float, mass: float
    ) -> "FourVector":
        """Build a vector from transverse momentum, eta, phi, and mass."""
        if pt < 0.0:
            raise KinematicsError(f"pt must be non-negative, got {pt}")
        px = pt * math.cos(phi)
        py = pt * math.sin(phi)
        pz = pt * math.sinh(eta)
        energy = math.sqrt(px * px + py * py + pz * pz + mass * mass)
        return cls(energy, px, py, pz)

    @classmethod
    def from_ptetaphie(
        cls, pt: float, eta: float, phi: float, energy: float
    ) -> "FourVector":
        """Build a vector from pt, eta, phi, and total energy."""
        if pt < 0.0:
            raise KinematicsError(f"pt must be non-negative, got {pt}")
        px = pt * math.cos(phi)
        py = pt * math.sin(phi)
        pz = pt * math.sinh(eta)
        return cls(energy, px, py, pz)

    @classmethod
    def from_p3m(cls, px: float, py: float, pz: float, mass: float) -> "FourVector":
        """Build an on-shell vector from three-momentum and mass."""
        energy = math.sqrt(px * px + py * py + pz * pz + mass * mass)
        return cls(energy, px, py, pz)

    # ------------------------------------------------------------------
    # Derived kinematic quantities
    # ------------------------------------------------------------------

    @property
    def pt(self) -> float:
        """Transverse momentum.

        Written as ``sqrt(px*px + py*py)`` rather than ``hypot``: the
        two can disagree in the last ulp, and every archived output
        that carries a pt was written with this form.
        """
        return math.sqrt(self.px * self.px + self.py * self.py)

    @property
    def p(self) -> float:
        """Magnitude of the three-momentum."""
        return math.sqrt(
            self.px * self.px + self.py * self.py + self.pz * self.pz
        )

    @property
    def phi(self) -> float:
        """Azimuthal angle in (-pi, pi]; zero for a vanishing pt."""
        if self.px == 0.0 and self.py == 0.0:
            return 0.0
        return math.atan2(self.py, self.px)

    @property
    def eta(self) -> float:
        """Pseudorapidity. Returns +/-inf for a purely longitudinal vector."""
        transverse = self.pt
        if transverse == 0.0:
            if self.pz > 0.0:
                return float("inf")
            if self.pz < 0.0:
                return float("-inf")
            return 0.0
        return math.asinh(self.pz / transverse)

    @property
    def theta(self) -> float:
        """Polar angle from the beam axis, in [0, pi]."""
        if self.p == 0.0:
            return 0.0
        return math.acos(max(-1.0, min(1.0, self.pz / self.p)))

    @property
    def rapidity(self) -> float:
        """True rapidity ``0.5 ln((E+pz)/(E-pz))``."""
        if self.e <= abs(self.pz):
            raise KinematicsError(
                f"rapidity undefined for E={self.e}, pz={self.pz}"
            )
        return 0.5 * math.log((self.e + self.pz) / (self.e - self.pz))

    @property
    def mass2(self) -> float:
        """Invariant mass squared (may be slightly negative numerically).

        Explicit products, not ``**2``: CPython's float power is not
        guaranteed to equal multiplication in the last bit, and the
        archived masses were written with the product form.
        """
        return (self.e * self.e - self.px * self.px
                - self.py * self.py - self.pz * self.pz)

    @property
    def mass(self) -> float:
        """Invariant mass; negative ``mass2`` from rounding clamps to zero."""
        m2 = self.mass2
        if m2 < 0.0:
            return 0.0
        return math.sqrt(m2)

    @property
    def et(self) -> float:
        """Transverse energy ``E * sin(theta)``."""
        if self.p == 0.0:
            return 0.0
        return self.e * self.pt / self.p

    @property
    def beta(self) -> float:
        """Velocity in units of c."""
        if self.e == 0.0:
            return 0.0
        return self.p / self.e

    @property
    def gamma(self) -> float:
        """Lorentz factor; raises for a massless (or spacelike) vector."""
        m = self.mass
        if m == 0.0:
            raise KinematicsError("gamma undefined for a massless vector")
        return self.e / m

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.e + other.e,
            self.px + other.px,
            self.py + other.py,
            self.pz + other.pz,
        )

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.e - other.e,
            self.px - other.px,
            self.py - other.py,
            self.pz - other.pz,
        )

    def __mul__(self, scale: float) -> "FourVector":
        return FourVector(
            self.e * scale, self.px * scale, self.py * scale, self.pz * scale
        )

    __rmul__ = __mul__

    def __neg__(self) -> "FourVector":
        return FourVector(-self.e, -self.px, -self.py, -self.pz)

    def dot(self, other: "FourVector") -> float:
        """Minkowski inner product with metric (+,-,-,-)."""
        return (
            self.e * other.e
            - self.px * other.px
            - self.py * other.py
            - self.pz * other.pz
        )

    # ------------------------------------------------------------------
    # Geometry between vectors
    # ------------------------------------------------------------------

    def delta_phi(self, other: "FourVector") -> float:
        """Signed azimuthal separation from ``other``."""
        return delta_phi(self.phi, other.phi)

    def delta_eta(self, other: "FourVector") -> float:
        """Pseudorapidity separation from ``other``."""
        return self.eta - other.eta

    def delta_r(self, other: "FourVector") -> float:
        """Angular distance ``sqrt(d_eta^2 + d_phi^2)`` used by jet cones."""
        d_eta = self.delta_eta(other)
        d_phi = self.delta_phi(other)
        return math.sqrt(d_eta * d_eta + d_phi * d_phi)

    def angle(self, other: "FourVector") -> float:
        """Opening angle in radians between the three-momenta."""
        p1 = self.p
        p2 = other.p
        if p1 == 0.0 or p2 == 0.0:
            raise KinematicsError("opening angle undefined for a null momentum")
        cosine = (
            self.px * other.px + self.py * other.py + self.pz * other.pz
        ) / (p1 * p2)
        return math.acos(max(-1.0, min(1.0, cosine)))

    # ------------------------------------------------------------------
    # Boosts
    # ------------------------------------------------------------------

    def boost_vector(self) -> tuple[float, float, float]:
        """The (bx, by, bz) velocity of this vector's rest frame."""
        if self.e == 0.0:
            raise KinematicsError("boost vector undefined for zero energy")
        return (self.px / self.e, self.py / self.e, self.pz / self.e)

    def boosted(self, bx: float, by: float, bz: float) -> "FourVector":
        """Return this vector actively boosted by velocity (bx, by, bz)."""
        b2 = bx * bx + by * by + bz * bz
        if b2 >= 1.0:
            raise KinematicsError(f"boost speed {math.sqrt(b2)} >= c")
        gamma = 1.0 / math.sqrt(1.0 - b2)
        bp = bx * self.px + by * self.py + bz * self.pz
        gamma2 = (gamma - 1.0) / b2 if b2 > 0.0 else 0.0
        px = self.px + gamma2 * bp * bx + gamma * bx * self.e
        py = self.py + gamma2 * bp * by + gamma * by * self.e
        pz = self.pz + gamma2 * bp * bz + gamma * bz * self.e
        energy = gamma * (self.e + bp)
        return FourVector(energy, px, py, pz)

    def boosted_to_rest_frame_of(self, frame: "FourVector") -> "FourVector":
        """Return this vector expressed in the rest frame of ``frame``."""
        bx, by, bz = frame.boost_vector()
        return self.boosted(-bx, -by, -bz)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_list(self) -> list[float]:
        """Serialise as ``[E, px, py, pz]`` for the JSON data formats."""
        return [self.e, self.px, self.py, self.pz]

    @classmethod
    def from_list(cls, values: list[float]) -> "FourVector":
        """Inverse of :meth:`to_list`; every component must be finite."""
        if len(values) != 4:
            raise KinematicsError(
                f"four-vector list must have 4 entries, got {len(values)}"
            )
        return cls(*(finite(v) for v in values))

    def is_close(self, other: "FourVector", rel_tol: float = 1e-9,
                 abs_tol: float = 1e-12) -> bool:
        """Component-wise closeness test for test assertions."""
        return all(
            math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
            for a, b in zip(self.to_list(), other.to_list())
        )


def invariant_mass(vectors: list[FourVector]) -> float:
    """Invariant mass of a system of four-vectors.

    >>> z = FourVector.from_ptetaphim(30.0, 0.2, 1.0, 91.2)
    >>> round(invariant_mass([z]), 1)
    91.2
    """
    total = FourVector.zero()
    for vector in vectors:
        total = total + vector
    return total.mass


def transverse_mass(lepton: FourVector, met: FourVector) -> float:
    """Transverse mass of a lepton + missing-momentum system.

    This is the W-mass-sensitive observable used by the W master classes:
    ``mT^2 = 2 pT(l) pT(miss) (1 - cos dphi)``.
    """
    d_phi = lepton.delta_phi(met)
    mt2 = 2.0 * lepton.pt * met.pt * (1.0 - math.cos(d_phi))
    return math.sqrt(max(0.0, mt2))
