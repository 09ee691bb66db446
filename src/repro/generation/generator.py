"""The toy event generator driver.

:class:`ToyGenerator` samples events from a configured mixture of physics
processes, layers the underlying event on top of each hard interaction, and
records a :class:`GeneratorRunInfo` block — seed, tune, process list, cross
sections — which is exactly the generator-side provenance the preservation
layer must capture.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.generation.hepmc import GenEvent
from repro.generation.processes import MinimumBias, Process, Tune
from repro.kinematics import ParticleTable, default_particle_table


@dataclass
class GeneratorConfig:
    """Configuration of a generator run.

    ``processes`` is the mixture to sample; when more than one process is
    given, each event's process is chosen in proportion to its cross
    section. ``pileup_mu`` adds that many (Poisson-mean) soft minimum-bias
    overlays to every event, mimicking LHC pile-up.
    """

    processes: list[Process]
    sqrt_s: float = 8000.0
    tune: Tune = field(default_factory=Tune.tune_a)
    seed: int = 20130321
    pileup_mu: float = 0.0
    underlying_event: bool = True

    def __post_init__(self) -> None:
        if not self.processes:
            raise ConfigurationError("generator needs at least one process")
        if self.sqrt_s <= 0.0:
            raise ConfigurationError(f"sqrt_s must be positive: {self.sqrt_s}")
        if self.pileup_mu < 0.0:
            raise ConfigurationError(f"pileup_mu must be >= 0: {self.pileup_mu}")


@dataclass(frozen=True)
class GeneratorRunInfo:
    """Provenance block describing a completed (or planned) generator run."""

    generator: str
    version: str
    seed: int
    tune_name: str
    sqrt_s: float
    processes: tuple[dict, ...]
    pileup_mu: float

    def to_dict(self) -> dict:
        """Serialise for embedding in dataset headers."""
        return {
            "generator": self.generator,
            "version": self.version,
            "seed": self.seed,
            "tune": self.tune_name,
            "sqrt_s": self.sqrt_s,
            "processes": [dict(p) for p in self.processes],
            "pileup_mu": self.pileup_mu,
        }


class ToyGenerator:
    """Samples :class:`GenEvent` records from a process mixture.

    >>> from repro.generation import DrellYanZ
    >>> gen = ToyGenerator(GeneratorConfig(processes=[DrellYanZ()]))
    >>> events = gen.generate(10)
    >>> len(events)
    10
    """

    NAME = "toygen"
    VERSION = "1.0.0"

    def __init__(self, config: GeneratorConfig,
                 table: ParticleTable | None = None) -> None:
        self.config = config
        self.table = table if table is not None else default_particle_table()
        self._rng = np.random.default_rng(config.seed)
        self._minbias = MinimumBias()
        total = sum(p.cross_section_pb for p in config.processes)
        if total <= 0.0:
            raise ConfigurationError("total cross section must be positive")
        if any(p.cross_section_pb < 0.0 for p in config.processes):
            raise ConfigurationError("cross sections must be non-negative")
        weights = np.array(
            [p.cross_section_pb / total for p in config.processes]
        )
        # The cumulative distribution ``rng.choice(n, p=weights)`` builds
        # on every call; searching it with one ``random()`` draw picks
        # the same process from the same stream position.
        self._cdf = weights.cumsum()
        self._cdf /= self._cdf[-1]
        self._events_generated = 0

    @property
    def run_info(self) -> GeneratorRunInfo:
        """Provenance description of this generator setup."""
        return GeneratorRunInfo(
            generator=self.NAME,
            version=self.VERSION,
            seed=self.config.seed,
            tune_name=self.config.tune.name,
            sqrt_s=self.config.sqrt_s,
            processes=tuple(p.describe() for p in self.config.processes),
            pileup_mu=self.config.pileup_mu,
        )

    def _next_event(self) -> GenEvent:
        choice = int(self._cdf.searchsorted(self._rng.random(),
                                            side="right"))
        process = self.config.processes[choice]
        event = GenEvent(
            event_number=self._events_generated,
            process_id=process.process_id,
            process_name=process.name,
            sqrt_s=self.config.sqrt_s,
        )
        process.fill(event, self._rng, self.table, self.config.tune)
        if self.config.underlying_event and not isinstance(
            process, MinimumBias
        ):
            self._minbias.fill(event, self._rng, self.table, self.config.tune)
        if self.config.pileup_mu > 0.0:
            n_pileup = int(self._rng.poisson(self.config.pileup_mu))
            for _ in range(n_pileup):
                self._minbias.fill(event, self._rng, self.table,
                                   self.config.tune)
        self._events_generated += 1
        return event

    def generate(self, n_events: int) -> list[GenEvent]:
        """Generate ``n_events`` truth events as a list."""
        return [self._next_event() for _ in range(n_events)]

    def stream(self, n_events: int) -> Iterator[GenEvent]:
        """Generate ``n_events`` lazily, one event at a time."""
        for _ in range(n_events):
            yield self._next_event()
