"""The simplified Level-2 event format.

Design requirements from the paper: "a well-documented means of
transforming the full data format(s) ... into a simplified format
suitable for these applications, as well as an easily-understandable
description of the contents of the format itself" — i.e. the format must
be self-documenting (the Table 1 criterion) and light enough for a
classroom ("ROOT too heavy for classroom use" — ALICE's comment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import OutreachError
from repro.kinematics import FourVector
from repro.kinematics.fourvector import finite

#: Particle types the simplified format recognises.
PARTICLE_TYPES = ("electron", "muon", "photon", "jet")


def _number(value) -> None:
    """Refuse anything but a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")


def _objects(payload: dict, key: str) -> list[dict]:
    """``payload[key]`` (default empty), checked as a list of objects."""
    items = payload.get(key, [])
    if not isinstance(items, list) \
            or not all(isinstance(item, dict) for item in items):
        raise TypeError(f"display {key!r} is not a list of objects")
    return items


def _display_payload(payload) -> dict:
    """A copy of an embedded display payload, after checking that every
    field the display renderers read has its documented type; a wrong
    one raises ``TypeError``/``ValueError``, which the dataset reader
    reports as a malformed record."""
    if not isinstance(payload, dict):
        raise TypeError("display payload is not an object")
    for track in _objects(payload, "tracks"):
        int(track.get("charge", 0))
        points = track.get("points", [])
        if not isinstance(points, list) or not all(
                isinstance(point, list) and len(point) == 2
                for point in points):
            raise TypeError("track points are not [x, y] pairs")
        for point in points:
            for value in point:
                _number(value)
    for tower in _objects(payload, "towers"):
        if not isinstance(tower["kind"], str):
            raise TypeError("tower kind is not a string")
        for key in ("eta", "phi", "energy"):
            _number(tower[key])
    met = payload.get("met", {})
    if not isinstance(met, dict):
        raise TypeError("display met is not an object")
    for key in ("value", "phi"):
        if key in met:
            _number(met[key])
    return dict(payload)


@dataclass(frozen=True)
class SimplifiedParticle:
    """One particle in the simplified format: type plus kinematics."""

    particle_type: str
    energy: float
    pt: float
    eta: float
    phi: float
    charge: int = 0

    def __post_init__(self) -> None:
        if self.particle_type not in PARTICLE_TYPES:
            raise OutreachError(
                f"unknown simplified particle type "
                f"{self.particle_type!r}; known: {PARTICLE_TYPES}"
            )

    def p4(self) -> FourVector:
        """The particle's four-momentum."""
        return FourVector.from_ptetaphie(self.pt, self.eta, self.phi,
                                         self.energy)

    def to_dict(self) -> dict:
        """Serialise for the LEVEL2 JSON format."""
        return {
            "type": self.particle_type,
            "E": self.energy,
            "pt": self.pt,
            "eta": self.eta,
            "phi": self.phi,
            "charge": self.charge,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SimplifiedParticle":
        """Inverse of :meth:`to_dict`."""
        return cls(
            particle_type=str(record["type"]),
            energy=finite(record["E"]),
            pt=finite(record["pt"]),
            eta=finite(record["eta"]),
            phi=finite(record["phi"]),
            charge=int(record.get("charge", 0)),
        )


@dataclass
class Level2Event:
    """A complete simplified event.

    ``candidates`` carries exercise-specific composite objects (e.g. D0
    candidates with decay times for the lifetime master class);
    ``display`` optionally embeds an event-display payload so a single
    file serves both analysis and visualisation.
    """

    run_number: int
    event_number: int
    collision_energy_tev: float
    particles: list[SimplifiedParticle] = field(default_factory=list)
    met: float = 0.0
    met_phi: float = 0.0
    candidates: list[dict] = field(default_factory=list)
    display: dict | None = None

    def of_type(self, particle_type: str) -> list[SimplifiedParticle]:
        """Particles of one type, pt-sorted."""
        return sorted(
            (p for p in self.particles
             if p.particle_type == particle_type),
            key=lambda p: p.pt, reverse=True,
        )

    def leptons(self) -> list[SimplifiedParticle]:
        """Electrons and muons, pt-sorted."""
        return sorted(
            (p for p in self.particles
             if p.particle_type in ("electron", "muon")),
            key=lambda p: p.pt, reverse=True,
        )

    def approximate_size_bytes(self) -> int:
        """Rough persistent size, used by conversion statistics."""
        base = 64 + 40 * len(self.particles) + 48 * len(self.candidates)
        if self.display is not None:
            base += 32 * (len(self.display.get("tracks", []))
                          + len(self.display.get("towers", [])))
        return base

    def to_dict(self) -> dict:
        """Serialise for the LEVEL2 JSON-lines format."""
        record = {
            "run": self.run_number,
            "event": self.event_number,
            "collision_energy_tev": self.collision_energy_tev,
            "particles": [p.to_dict() for p in self.particles],
            "met": {"value": self.met, "phi": self.met_phi},
        }
        if self.candidates:
            record["candidates"] = list(self.candidates)
        if self.display is not None:
            record["display"] = dict(self.display)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Level2Event":
        """Inverse of :meth:`to_dict`."""
        met = record.get("met", {})
        return cls(
            run_number=int(record["run"]),
            event_number=int(record["event"]),
            collision_energy_tev=finite(
                record.get("collision_energy_tev", 0.0)
            ),
            particles=[SimplifiedParticle.from_dict(p)
                       for p in record.get("particles", [])],
            met=finite(met.get("value", 0.0)),
            met_phi=finite(met.get("phi", 0.0)),
            candidates=list(record.get("candidates", [])),
            display=(_display_payload(record["display"])
                     if "display" in record else None),
        )


def format_documentation() -> dict:
    """The embedded format description — the self-documentation payload."""
    return {
        "format": "repro-level2",
        "version": "1.0",
        "description": (
            "Simplified collider-event format for outreach and high-level "
            "re-analysis. One JSON object per event."
        ),
        "fields": {
            "run": "run number",
            "event": "event number",
            "collision_energy_tev": "centre-of-mass energy in TeV",
            "particles": (
                "list of reconstructed particles; each has type "
                "(electron|muon|photon|jet), E [GeV], pt [GeV], eta, "
                "phi [rad], charge"
            ),
            "met": "missing transverse momentum: value [GeV] and phi",
            "candidates": (
                "optional composite candidates, e.g. D0 with mass [GeV] "
                "and decay_time_ps"
            ),
            "display": "optional event-display payload (tracks, towers)",
        },
    }
