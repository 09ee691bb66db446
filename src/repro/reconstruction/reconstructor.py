"""The reconstruction orchestrator and its conditions dependency.

:class:`Reconstructor` runs the full Reconstruction step over RAW events.
Its calibration constants come from a :class:`ConditionsSource`, which is
either a :class:`GlobalTagView` over a live :class:`ConditionsStore` (the
database-access mode) or a :class:`~repro.conditions.ConditionsSnapshot`
(the ALICE ship-a-text-file mode). Every payload read is logged so the
workflow layer can enumerate external dependencies for preservation.
"""

from __future__ import annotations

import copy
import functools
from typing import Protocol

from repro.conditions.calibration import (
    FOLDER_ECAL_SCALE,
    FOLDER_HCAL_SCALE,
)
from repro.conditions.store import ConditionsStore
from repro.detector.digitization import RawEvent
from repro.detector.geometry import DetectorGeometry
from repro.reconstruction.clustering import CaloClusterer, ClustererConfig
from repro.reconstruction.jets import ConeJetConfig, ConeJetFinder
from repro.reconstruction.objects import (
    ObjectBuilder,
    ObjectBuilderConfig,
    RecoEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, active
from repro.reconstruction.tracking import TrackFinder, TrackFinderConfig
from repro.runtime import ExecutionPolicy, parallel_map


class ConditionsSource(Protocol):
    """Anything that can answer ``payload(folder, run)`` queries."""

    def payload(self, folder: str, run: int) -> dict:
        """The conditions payload for ``folder`` valid at ``run``."""
        ...


class GlobalTagView:
    """Adapter presenting ``(store, global_tag)`` as a ConditionsSource."""

    def __init__(self, store: ConditionsStore, global_tag_name: str) -> None:
        self.store = store
        self.global_tag_name = global_tag_name
        # Fail fast on unknown global tags.
        store.global_tag(global_tag_name)

    def payload(self, folder: str, run: int) -> dict:
        """Resolve ``folder`` through the global tag and read the store."""
        return self.store.payload_for_global_tag(
            folder, self.global_tag_name, run
        )

    def describe(self) -> dict:
        """Provenance description of this conditions configuration."""
        return {
            "mode": "database",
            "store": self.store.name,
            "global_tag": self.global_tag_name,
        }


class Reconstructor:
    """The full RAW -> RECO reconstruction pass."""

    NAME = "repro-reco"
    VERSION = "1.0.0"

    def __init__(
        self,
        geometry: DetectorGeometry,
        conditions: ConditionsSource,
        track_config: TrackFinderConfig | None = None,
        cluster_config: ClustererConfig | None = None,
        object_config: ObjectBuilderConfig | None = None,
        jet_config: ConeJetConfig | None = None,
    ) -> None:
        self.geometry = geometry
        self.conditions = conditions
        self._track_finder = TrackFinder(geometry, track_config)
        self._clusterer = CaloClusterer(geometry, cluster_config)
        self._object_builder = ObjectBuilder(object_config)
        self._jet_finder = ConeJetFinder(jet_config)
        self._conditions_reads: list[tuple[str, int]] = []

    def _scale(self, folder: str, run: int) -> float:
        self._conditions_reads.append((folder, run))
        payload = self.conditions.payload(folder, run)
        return float(payload["scale"])

    def reconstruct(self, raw: RawEvent) -> RecoEvent:
        """Reconstruct one RAW event into a RECO event."""
        run = raw.run_number
        ecal_scale = self._scale(FOLDER_ECAL_SCALE, run)
        hcal_scale = self._scale(FOLDER_HCAL_SCALE, run)

        tracks = self._track_finder.find(raw.tracker_hits)
        ecal_clusters = self._clusterer.cluster(raw.calo_hits, "ecal",
                                                ecal_scale)
        hcal_name = self.geometry.hcal.name
        hcal_clusters = self._clusterer.cluster(raw.calo_hits, hcal_name,
                                                hcal_scale)

        muons = self._object_builder.build_muons(tracks, raw.muon_hits)
        electrons = self._object_builder.build_electrons(
            tracks, ecal_clusters, muons
        )
        photons = self._object_builder.build_photons(
            tracks, ecal_clusters, electrons
        )
        # Jets from HCAL clusters plus ECAL clusters not used by e/gamma.
        electron_photon_dirs = (
            [(e.p4.eta, e.p4.phi) for e in electrons]
            + [(p.p4.eta, p.p4.phi) for p in photons]
        )
        jet_inputs = list(hcal_clusters)
        for cluster in ecal_clusters:
            is_eg = any(
                abs(cluster.eta - eta) < 0.1
                and abs(cluster.phi - phi) < 0.1
                for eta, phi in electron_photon_dirs
            )
            if not is_eg:
                jet_inputs.append(cluster)
        jets = self._jet_finder.find(jet_inputs)
        met = self._object_builder.build_met(ecal_clusters, hcal_clusters,
                                             muons)
        return RecoEvent(
            run_number=raw.run_number,
            event_number=raw.event_number,
            tracks=tracks,
            ecal_clusters=ecal_clusters,
            hcal_clusters=hcal_clusters,
            electrons=electrons,
            muons=muons,
            photons=photons,
            jets=jets,
            met=met,
        )

    def reconstruct_batch(
        self,
        raw_events: list[RawEvent],
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> list[RecoEvent]:
        """Reconstruct a list of RAW events serially.

        One call to :meth:`reconstruct_many` under its default serial
        policy, passing ``tracer`` and ``metrics`` through. The name
        stays public because ``perfbench/layers.py`` traces it.
        """
        return self.reconstruct_many(raw_events, tracer=tracer,
                                     metrics=metrics)

    def reconstruct_many(
        self,
        raw_events: list[RawEvent],
        policy: ExecutionPolicy | None = None,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> list[RecoEvent]:
        """Reconstruct a list of RAW events in order.

        Under a parallel ``policy`` the events fan out through
        :func:`parallel_map` (chunked by the policy), each event is
        reconstructed by an isolated worker clone, and both the RECO
        events *and* the workers' conditions reads are merged back in
        input order — so the output list and the
        :attr:`conditions_reads` log are bit-identical to the serial
        loop. Event reconstruction is pure per event (no cross-event
        state), which is what makes the chunk boundary free to move.

        An enabled ``tracer`` wraps the pass in a
        ``reco.reconstruct_many`` span (per-chunk worker spans nest
        below it via :func:`parallel_map`); ``metrics`` counts events
        and conditions reads. Left at ``None``, the pass costs what it
        always did.
        """
        obs = active(tracer)
        reads_before = len(self._conditions_reads)
        if policy is None or policy.is_serial:
            with obs.span("reco.reconstruct_many",
                          n_events=len(raw_events), mode="serial"):
                recos = [self.reconstruct(raw) for raw in raw_events]
            self._record_reco_metrics(metrics, len(recos),
                                      reads_before)
            return recos
        worker = functools.partial(_reconstruct_event, self)
        recos = []
        with obs.span("reco.reconstruct_many",
                      n_events=len(raw_events), mode=policy.mode):
            for reco, reads in parallel_map(worker, raw_events, policy,
                                            tracer=tracer,
                                            metrics=metrics):
                recos.append(reco)
                self._conditions_reads.extend(reads)
        self._record_reco_metrics(metrics, len(recos), reads_before)
        return recos

    def _record_reco_metrics(self, metrics: MetricsRegistry | None,
                             n_events: int, reads_before: int) -> None:
        """Count one reconstruction pass into ``metrics`` (if any)."""
        if metrics is None:
            return
        metrics.counter("reco.events").inc(n_events)
        metrics.counter("reco.conditions_reads").inc(
            len(self._conditions_reads) - reads_before)

    def _clone_for_worker(self) -> "Reconstructor":
        """This reconstructor with an empty conditions-read log.

        The conditions source, finders and builders are read-only
        after construction, so the clone shares them; only the read
        log is its own, so concurrent workers never interleave their
        dependency records.
        """
        clone = copy.copy(self)
        clone._conditions_reads = []
        return clone

    @property
    def conditions_reads(self) -> list[tuple[str, int]]:
        """Every ``(folder, run)`` this reconstructor fetched."""
        return list(self._conditions_reads)

    def external_dependencies(self) -> dict:
        """The external-resource enumeration the preservation layer stores."""
        folders = sorted({folder for folder, _ in self._conditions_reads})
        runs = sorted({run for _, run in self._conditions_reads})
        description = {"folders": folders, "runs": runs}
        describe = getattr(self.conditions, "describe", None)
        if callable(describe):
            description["conditions"] = describe()
        return description

    def describe(self) -> dict:
        """Provenance description of this reconstruction configuration."""
        return {
            "producer": self.NAME,
            "version": self.VERSION,
            "geometry": self.geometry.name,
            "min_track_hits": self._track_finder.config.min_hits,
            "jet_cone_radius": self._jet_finder.config.cone_radius,
        }


def _reconstruct_event(
    reconstructor: Reconstructor, raw: RawEvent
) -> tuple[RecoEvent, list[tuple[str, int]]]:
    """Worker-side event driver (module-level so process pools can
    pickle it). Clones per event so thread workers are isolated too."""
    worker = reconstructor._clone_for_worker()
    return worker.reconstruct(raw), worker.conditions_reads
