"""Parameter scans: the exclusion curve a re-interpretation produces.

A single RECAST request answers "is *this* model excluded?"; the product
phenomenologists actually publish is the scan — the 95% CL cross-section
limit as a function of the model parameter (here the Z' mass), and the
mass reach below which a given theory cross-section is excluded. This
module drives any :class:`RecastBackend` across a parameter grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from repro.errors import RecastError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, active
from repro.recast.backend import RecastBackend
from repro.recast.catalog import PreservedSearch
from repro.recast.requests import ModelSpec
from repro.recast.results import RecastResult
from repro.runtime import ExecutionPolicy, parallel_map


@dataclass(frozen=True)
class ScanPoint:
    """One point of the exclusion scan."""

    mass: float
    result: RecastResult

    @property
    def limit_pb(self) -> float:
        """The 95% CL cross-section limit at this mass."""
        return self.result.upper_limit_pb

    @property
    def efficiency(self) -> float:
        """The selection efficiency at this mass."""
        return self.result.signal_efficiency


@dataclass
class ExclusionScan:
    """A completed scan with its derived exclusion statements."""

    analysis_id: str
    model_template: str
    points: list[ScanPoint] = field(default_factory=list)

    def limits(self) -> list[tuple[float, float]]:
        """(mass, limit) pairs, mass-ordered."""
        return [(point.mass, point.limit_pb)
                for point in sorted(self.points,
                                    key=lambda p: p.mass)]

    def excluded_masses(self, theory_cross_section_pb: float
                        ) -> list[float]:
        """Masses where the theory cross-section exceeds the limit."""
        return [point.mass
                for point in sorted(self.points, key=lambda p: p.mass)
                if (math.isfinite(point.limit_pb)
                    and theory_cross_section_pb > point.limit_pb)]

    def mass_reach(self, theory_cross_section_pb: float) -> float | None:
        """The highest contiguously excluded mass from the low edge.

        Returns None when even the lightest scanned mass is allowed.
        """
        reach = None
        for point in sorted(self.points, key=lambda p: p.mass):
            excluded = (math.isfinite(point.limit_pb)
                        and theory_cross_section_pb > point.limit_pb)
            if not excluded:
                break
            reach = point.mass
        return reach

    def render(self, theory_cross_section_pb: float) -> str:
        """Plain-text exclusion table."""
        lines = [
            f"Exclusion scan — {self.analysis_id} vs "
            f"{self.model_template}",
            "",
            f"{'mass [GeV]':>12s}{'efficiency':>12s}"
            f"{'limit [pb]':>14s}{'verdict':>10s}",
        ]
        for point in sorted(self.points, key=lambda p: p.mass):
            excluded = (math.isfinite(point.limit_pb)
                        and theory_cross_section_pb > point.limit_pb)
            limit = (f"{point.limit_pb:.3e}"
                     if math.isfinite(point.limit_pb) else "inf")
            lines.append(
                f"{point.mass:>12.0f}{point.efficiency:>12.3f}"
                f"{limit:>14s}"
                f"{'EXCL' if excluded else 'allowed':>10s}"
            )
        reach = self.mass_reach(theory_cross_section_pb)
        lines.append("")
        lines.append(
            f"theory sigma = {theory_cross_section_pb} pb -> mass "
            f"reach: {reach if reach is not None else 'none'} GeV"
        )
        return "\n".join(lines)


def _evaluate_scan_point(
    backend: RecastBackend,
    search: PreservedSearch,
    cross_section_pb: float,
    flavour: str,
    mass: float,
) -> ScanPoint:
    """Evaluate one mass point (module-level for process pools).

    Back ends seed their chains from their own configuration, never
    from scan order, so each point is a pure function of ``mass``.
    """
    model = ModelSpec(
        name=f"zprime-{int(mass)}",
        process="zprime",
        parameters={"mass": float(mass), "flavour": flavour,
                    "cross_section_pb": cross_section_pb},
    )
    return ScanPoint(mass=float(mass),
                     result=backend.process(search, model))


def run_mass_scan(
    backend: RecastBackend,
    search: PreservedSearch,
    masses: list[float],
    cross_section_pb: float = 0.05,
    flavour: str = "mu",
    policy: ExecutionPolicy | None = None,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> ExclusionScan:
    """Scan a Z'-style model over a mass grid through one back end.

    A parallel ``policy`` evaluates mass points concurrently; the scan's
    point list (and every limit derived from it) is identical to the
    serial scan — points land in grid order, one per requested mass.

    An enabled ``tracer`` records a ``recast.mass_scan`` span over the
    grid (per-chunk worker spans nest below it); ``metrics`` counts
    evaluated points. The backend itself can additionally be
    instrumented in-process via :meth:`RecastBackend.instrument` —
    that per-request tracing stays on the driver and is stripped
    before workers pickle the backend.
    """
    if not masses:
        raise RecastError("scan needs at least one mass point")
    obs = active(tracer)
    worker = functools.partial(_evaluate_scan_point, backend, search,
                               cross_section_pb, flavour)
    with obs.span("recast.mass_scan", analysis=search.analysis_id,
                  n_points=len(masses), backend=backend.name):
        points = parallel_map(worker, [float(mass) for mass in masses],
                              policy, tracer=tracer, metrics=metrics)
    if metrics is not None:
        metrics.counter("recast.scan_points").inc(len(points))
    return ExclusionScan(analysis_id=search.analysis_id,
                         model_template="zprime", points=points)
