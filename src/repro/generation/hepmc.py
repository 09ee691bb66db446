"""A HepMC-like truth event record.

The paper notes that RIVET accepts "any Monte Carlo output ... as long as it
can produce output in HepMC format". This module is our HepMC: a compact,
self-describing truth record with particles, parent/child links, and decay
vertices, serialisable to plain dictionaries for the JSON-lines data files.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.kinematics import FourVector


class ParticleStatus(enum.IntEnum):
    """HepMC-style status codes for generated particles."""

    #: Stable final-state particle (enters the detector).
    FINAL = 1
    #: Decayed or fragmented intermediate particle.
    DECAYED = 2
    #: Hard-process particle (documentation line).
    HARD_PROCESS = 3


@dataclass(slots=True)
class GenParticle:
    """One particle line of a truth event.

    ``index`` is the particle's position in the event record; ``parents``
    and ``children`` are lists of indices into the same record.
    ``production_vertex`` and ``decay_vertex`` are (x, y, z) positions in
    millimetres, with ``None`` meaning "at the primary vertex" and "did not
    decay" respectively.
    """

    index: int
    pdg_id: int
    momentum: FourVector
    status: ParticleStatus
    parents: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    production_vertex: tuple[float, float, float] | None = None
    decay_vertex: tuple[float, float, float] | None = None

    @property
    def is_final(self) -> bool:
        """True for stable final-state particles."""
        return self.status == ParticleStatus.FINAL

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        record = {
            "index": self.index,
            "pdg_id": self.pdg_id,
            "p4": self.momentum.to_list(),
            "status": int(self.status),
            "parents": list(self.parents),
            "children": list(self.children),
        }
        if self.production_vertex is not None:
            record["prod_vtx"] = list(self.production_vertex)
        if self.decay_vertex is not None:
            record["decay_vtx"] = list(self.decay_vertex)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "GenParticle":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(record["index"]),
            pdg_id=int(record["pdg_id"]),
            momentum=FourVector.from_list(record["p4"]),
            status=ParticleStatus(int(record["status"])),
            parents=[int(i) for i in record.get("parents", [])],
            children=[int(i) for i in record.get("children", [])],
            production_vertex=_vertex(record.get("prod_vtx")),
            decay_vertex=_vertex(record.get("decay_vtx")),
        )


def _vertex(values) -> tuple[float, float, float] | None:
    """An ``[x, y, z]`` record as a position; ``None`` stays ``None``."""
    if values is None:
        return None
    x, y, z = values
    return float(x), float(y), float(z)


@dataclass(slots=True)
class GenEvent:
    """A complete truth event: the generator's view of one collision."""

    event_number: int
    process_id: int
    process_name: str
    sqrt_s: float
    weight: float = 1.0
    particles: list[GenParticle] = field(default_factory=list)

    def add_particle(
        self,
        pdg_id: int,
        momentum: FourVector,
        status: ParticleStatus,
        parents: list[int] | None = None,
        production_vertex: tuple[float, float, float] | None = None,
    ) -> GenParticle:
        """Append a particle, wiring up parent/child links, and return it."""
        particle = GenParticle(
            index=len(self.particles),
            pdg_id=pdg_id,
            momentum=momentum,
            status=status,
            parents=list(parents) if parents else [],
            production_vertex=production_vertex,
        )
        for parent_index in particle.parents:
            if not 0 <= parent_index < len(self.particles):
                raise GenerationError(
                    f"parent index {parent_index} out of range in event "
                    f"{self.event_number}"
                )
            self.particles[parent_index].children.append(particle.index)
        self.particles.append(particle)
        return particle

    def final_state(self) -> list[GenParticle]:
        """All stable final-state particles, in record order."""
        return [p for p in self.particles if p.is_final]

    def particles_with_pdg(self, *pdg_ids: int) -> list[GenParticle]:
        """All particles (any status) whose pdg id is in ``pdg_ids``."""
        wanted = set(pdg_ids)
        return [p for p in self.particles if p.pdg_id in wanted]

    def visible_momentum(self, invisible_ids: frozenset[int]) -> FourVector:
        """Summed momentum of final-state particles not in ``invisible_ids``."""
        total = FourVector.zero()
        for particle in self.final_state():
            if particle.pdg_id not in invisible_ids:
                total = total + particle.momentum
        return total

    def validate(self) -> None:
        """Check internal link consistency; raises :class:`GenerationError`."""
        n = len(self.particles)
        for particle in self.particles:
            for parent in particle.parents:
                if not 0 <= parent < n:
                    raise GenerationError(
                        f"particle {particle.index} has out-of-range parent "
                        f"{parent}"
                    )
                if particle.index not in self.particles[parent].children:
                    raise GenerationError(
                        f"parent {parent} does not list particle "
                        f"{particle.index} as a child"
                    )
            for child in particle.children:
                if not 0 <= child < n:
                    raise GenerationError(
                        f"particle {particle.index} has out-of-range child "
                        f"{child}"
                    )

    def to_dict(self) -> dict:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "event_number": self.event_number,
            "process_id": self.process_id,
            "process_name": self.process_name,
            "sqrt_s": self.sqrt_s,
            "weight": self.weight,
            "particles": [p.to_dict() for p in self.particles],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "GenEvent":
        """Inverse of :meth:`to_dict`."""
        event = cls(
            event_number=int(record["event_number"]),
            process_id=int(record["process_id"]),
            process_name=str(record["process_name"]),
            sqrt_s=float(record["sqrt_s"]),
            weight=float(record.get("weight", 1.0)),
        )
        event.particles = [
            GenParticle.from_dict(p) for p in record.get("particles", [])
        ]
        return event
