"""Track finding and fitting.

Pattern recognition is a road search: pairs of hits on the two outermost
populated layers define a candidate trajectory in the ``phi(r)`` and
``z(r)`` planes; hits inside the road are collected, and candidates with
enough hits are fitted.

The fit exploits the linearised helix of
:mod:`repro.detector.digitization`:

    phi(r) = phi0 + d0 * (1/r) + c * r        (c = -q K B / 2 pt)
    z(r)   = z0 + t * r                       (t = sinh(eta))

Both are linear least-squares problems. The transverse fit yields the
charge (sign of ``c``), the transverse momentum (``|c|``), and the impact
parameter ``d0`` — which is what makes displaced-vertex physics (the D0
lifetime master class) possible downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.detector.digitization import KAPPA, TrackerHit
from repro.detector.geometry import DetectorGeometry
from repro.errors import ReconstructionError
from repro.kinematics import FourVector
from repro.kinematics.fourvector import wrap_phi

#: Mass hypothesis assigned to tracks with no particle ID, GeV (pion).
PION_MASS = 0.13957

#: Transverse momentum assigned when curvature is consistent with zero.
_MAX_PT = 10000.0

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Track:
    """A fitted charged-particle trajectory."""

    pt: float
    eta: float
    phi: float
    charge: int
    d0_mm: float
    z0_mm: float
    chi2: float
    n_hits: int

    def p4(self, mass: float = PION_MASS) -> FourVector:
        """Four-momentum under a mass hypothesis."""
        return FourVector.from_ptetaphim(self.pt, self.eta, self.phi, mass)

    def to_dict(self) -> dict:
        """Serialise for the RECO/AOD file formats."""
        return {
            "pt": self.pt, "eta": self.eta, "phi": self.phi,
            "q": self.charge, "d0": self.d0_mm, "z0": self.z0_mm,
            "chi2": self.chi2, "nhits": self.n_hits,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Track":
        """Inverse of :meth:`to_dict`."""
        return cls(
            pt=float(record["pt"]), eta=float(record["eta"]),
            phi=float(record["phi"]), charge=int(record["q"]),
            d0_mm=float(record["d0"]), z0_mm=float(record["z0"]),
            chi2=float(record["chi2"]), n_hits=int(record["nhits"]),
        )


@dataclass(frozen=True)
class TrackFinderConfig:
    """Road-search and quality-cut parameters."""

    min_hits: int = 5
    #: Road half-width around the seed prediction, radians.
    phi_road: float = 0.02
    #: Road half-width in z, as a fraction of the radius, mm/mm.
    z_road_mm: float = 30.0
    #: Maximum chi-square per degree of freedom for an accepted track.
    max_chi2_per_dof: float = 25.0
    min_pt: float = 0.3
    #: Extra road width for displaced tracks: hits within
    #: ``phi_road + d0_allowance_mm / r`` of the seed line are
    #: collected, letting the 1/r impact-parameter term of a secondary
    #: (V0/heavy-flavour) track stay inside the road. Zero = prompt
    #: tracking only.
    d0_allowance_mm: float = 0.0


class TrackFinder:
    """Road-search pattern recognition plus linear helix fitting."""

    def __init__(self, geometry: DetectorGeometry,
                 config: TrackFinderConfig | None = None) -> None:
        self.geometry = geometry
        self.config = config if config is not None else TrackFinderConfig()
        self._bfield = geometry.bfield_tesla
        if self._bfield <= 0.0:
            raise ReconstructionError(
                "tracking requires a positive magnetic field"
            )

    # ------------------------------------------------------------------

    def find(self, hits: list[TrackerHit]) -> list[Track]:
        """Reconstruct all tracks from an event's tracker hits."""
        config = self.config
        if len(hits) < config.min_hits:
            return []
        table = _HitTable(hits, self.geometry.tracker.hit_resolution_mm,
                          config)
        used = [False] * len(hits)
        tracks = []

        # Seed from the two outermost layers that have hits; fall back to
        # progressively inner pairs so short/low-pt tracks still seed.
        layers_present = sorted(table.by_layer, reverse=True)
        for i_outer, outer_layer in enumerate(layers_present[:-1]):
            inner_layer = layers_present[i_outer + 1]
            outer_indices = [i for i in table.by_layer[outer_layer]
                             if not used[i]]
            inner_indices = [i for i in table.by_layer[inner_layer]
                             if not used[i]]
            for seed_outer in outer_indices:
                if used[seed_outer]:
                    continue
                for seed_inner in inner_indices:
                    if used[seed_inner] or used[seed_outer]:
                        continue
                    track = self._try_seed(seed_outer, seed_inner, table,
                                           used)
                    if track is not None:
                        tracks.append(track)
        return tracks

    def _try_seed(self, i1: int, i2: int, table: _HitTable,
                  used: list[bool]) -> Track | None:
        """Grow and fit a candidate from a two-hit seed; mark hits used."""
        config = self.config
        r_list, phi_list, z_list = table.r_list, table.phi_list, table.z_list
        r1, r2 = r_list[i1], r_list[i2]
        if r1 == r2:
            return None
        dphi = wrap_phi(phi_list[i1] - phi_list[i2])
        slope_phi = dphi / (r1 - r2)
        # Reject seeds implying unphysically low pt.
        max_slope = KAPPA * self._bfield / (2.0 * config.min_pt)
        if abs(slope_phi) > max_slope:
            return None
        intercept_phi = phi_list[i2] - slope_phi * r2
        slope_z = (z_list[i1] - z_list[i2]) / (r1 - r2)
        intercept_z = z_list[i2] - slope_z * r2

        # The road, hit by hit: the same residuals a vectorised pass over
        # every hit computes (Python's float ``%`` is numpy's ``mod``).
        z_road = config.z_road_mm
        layer = table.layer
        # One hit per layer: keep the best residual on each layer.
        best_per_layer: dict[int, tuple[float, int]] = {}
        for index, (r, phi, z, window) in enumerate(zip(
                r_list, phi_list, z_list, table.phi_window)):
            if used[index]:
                continue
            if not abs(z - (intercept_z + slope_z * r)) < z_road:
                continue
            residual = abs(
                (phi - (intercept_phi + slope_phi * r) + math.pi) % _TWO_PI
                - math.pi
            )
            if not residual < window:
                continue
            current = best_per_layer.get(layer[index])
            if current is None or residual < current[0]:
                best_per_layer[layer[index]] = (residual, index)
        if len(best_per_layer) < config.min_hits:
            return None
        chosen = sorted(index for _, index in best_per_layer.values())
        track = self._fit(table, chosen)
        if track is None:
            return None
        for index in chosen:
            used[index] = True
        return track

    def _fit(self, table: _HitTable, chosen: list[int]) -> Track | None:
        """Linear least-squares helix fit over the chosen hits."""
        n = len(chosen)
        # Unwrap phi around the first hit so the linear fit is valid near
        # the +-pi boundary.
        phi_list, weights = table.phi_list, table.weights
        reference = phi_list[chosen[0]]
        weighted_phi = np.array([
            (reference + wrap_phi(phi_list[i] - reference)) * weights[i]
            for i in chosen
        ])
        rows = np.array(chosen)
        coeffs, residuals, rank, _ = np.linalg.lstsq(
            table.phi_rows.take(rows, axis=0), weighted_phi, rcond=None
        )
        if rank < 3:
            return None
        phi0, d0, curvature = coeffs.tolist()
        chi2 = float(residuals[0]) if residuals.size else 0.0

        z_coeffs, z_residuals, _, _ = np.linalg.lstsq(
            table.z_rows.take(rows, axis=0), table.z.take(rows), rcond=None
        )
        z0, slope_z = z_coeffs.tolist()
        if z_residuals.size:
            chi2 += float(z_residuals[0]) / table.sigma_z**2

        dof = max(1, 2 * n - 5)
        if chi2 / dof > self.config.max_chi2_per_dof:
            return None

        if curvature == 0.0:
            pt = _MAX_PT
            charge = 1
        else:
            pt = KAPPA * self._bfield / (2.0 * abs(curvature))
            pt = min(pt, _MAX_PT)
            charge = -1 if curvature > 0.0 else 1
        if pt < self.config.min_pt:
            return None
        return Track(
            pt=pt,
            eta=math.asinh(slope_z),
            phi=wrap_phi(phi0),
            charge=charge,
            d0_mm=d0,
            z0_mm=z0,
            chi2=chi2,
            n_hits=n,
        )


class _HitTable:
    """One event's tracker hits, laid out once for the road and the fit.

    Every per-hit quantity the fit needs is computed here, once per hit,
    by the same elementwise operations a per-fit computation would do:
    the phi-fit weight ``w = 1 / (sigma / r)``, the weighted phi-basis
    row ``[w, (1/r) w, r w]`` and the z-basis row ``[1, r]``. A fit
    takes its chosen rows by index, so ``lstsq`` sees exactly the
    doubles it would see had the rows been built from the chosen hits
    alone. The table lives for one :meth:`TrackFinder.find` call.
    """

    __slots__ = ("r_list", "phi_list", "z_list", "z", "layer", "by_layer",
                 "weights", "phi_rows", "z_rows", "phi_window", "sigma_z")

    def __init__(self, hits: list[TrackerHit], resolution_mm: float,
                 config: TrackFinderConfig) -> None:
        r = np.array([h.r_mm for h in hits], dtype=float)
        self.z = np.array([h.z_mm for h in hits], dtype=float)
        self.r_list = r.tolist()
        self.phi_list = np.array([h.phi for h in hits], dtype=float).tolist()
        self.z_list = self.z.tolist()
        self.layer = [int(h.layer) for h in hits]
        self.by_layer: dict[int, list[int]] = {}
        for index, layer in enumerate(self.layer):
            self.by_layer.setdefault(layer, []).append(index)
        weights = 1.0 / (resolution_mm / r)
        self.weights = weights.tolist()
        self.phi_rows = np.column_stack(
            [weights, (1.0 / r) * weights, r * weights])
        self.z_rows = np.column_stack([np.ones(len(hits)), r])
        # The road's phi half-width per hit, widened by ``d0 / r`` for
        # displaced tracking.
        if config.d0_allowance_mm > 0.0:
            self.phi_window = (config.phi_road
                               + config.d0_allowance_mm / r).tolist()
        else:
            self.phi_window = [config.phi_road] * len(hits)
        self.sigma_z = 3.0 * resolution_mm


def _track_line(track: Track) -> tuple[np.ndarray, np.ndarray]:
    """A track as a 3D line: reference point and unit direction."""
    # The point of closest approach to the beam line: with
    # d0 = x0 sin(phi) - y0 cos(phi), the transverse position is
    # d0 * (sin(phi), -cos(phi)).
    point = np.array([
        track.d0_mm * math.sin(track.phi),
        -track.d0_mm * math.cos(track.phi),
        track.z0_mm,
    ])
    direction = np.array([
        math.cos(track.phi),
        math.sin(track.phi),
        math.sinh(track.eta),
    ])
    return point, direction / np.linalg.norm(direction)


def two_track_vertex(
    track1: Track, track2: Track
) -> tuple[tuple[float, float, float], float]:
    """Estimate the common vertex of two tracks.

    Returns ``(vertex_xyz_mm, distance_of_closest_approach_mm)``. The
    vertex is the midpoint of the closest-approach segment between the two
    straight-line approximations of the tracks — good to the sagitta scale,
    which is far below the millimetre flight distances of charm hadrons.
    """
    p1, u1 = _track_line(track1)
    p2, u2 = _track_line(track2)
    w0 = p1 - p2
    a = float(np.dot(u1, u1))
    b = float(np.dot(u1, u2))
    c = float(np.dot(u2, u2))
    d = float(np.dot(u1, w0))
    e = float(np.dot(u2, w0))
    denominator = a * c - b * b
    if abs(denominator) < 1e-12:
        raise ReconstructionError("tracks are parallel: vertex undefined")
    s = (b * e - c * d) / denominator
    t = (a * e - b * d) / denominator
    closest1 = p1 + s * u1
    closest2 = p2 + t * u2
    vertex = 0.5 * (closest1 + closest2)
    doca = float(np.linalg.norm(closest1 - closest2))
    return (float(vertex[0]), float(vertex[1]), float(vertex[2])), doca
