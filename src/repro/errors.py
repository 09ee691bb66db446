"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to discriminate precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid parameters."""


class KinematicsError(ReproError):
    """A four-vector or particle operation was physically invalid."""


class UnknownParticleError(KinematicsError):
    """A PDG id or particle name is not present in the particle table."""


class GenerationError(ReproError):
    """The event generator could not produce a valid event."""


class DetectorError(ReproError):
    """Detector simulation or digitisation failed."""


class ConditionsError(ReproError):
    """Conditions database failure (missing tag, IOV gap, stale payload)."""


class IOVError(ConditionsError):
    """An interval of validity is malformed or no interval covers a run."""


class ReconstructionError(ReproError):
    """Reconstruction could not interpret the raw data it was given."""


class ExecutionError(ReproError):
    """A parallel-execution policy or scheduler invocation was invalid."""


class ObservabilityError(ReproError):
    """Tracing, metrics, or run-report assembly/validation failed."""


class DataModelError(ReproError):
    """An event container or tier operation was invalid."""


class TierError(DataModelError):
    """An operation was attempted on the wrong data tier."""


class SchemaError(DataModelError):
    """A record does not conform to its declared schema."""


class PersistenceError(ReproError):
    """Reading or writing an artifact file failed."""


class WorkflowError(ReproError):
    """A processing chain is malformed or failed to execute."""


class StepError(WorkflowError):
    """A single processing step failed."""


class ProvenanceError(ReproError):
    """Provenance records are missing, cyclic, or inconsistent."""


class StatsError(ReproError):
    """A statistical operation received invalid inputs."""


class HistogramError(StatsError):
    """Histogram construction, filling, or arithmetic failed."""


class RivetError(ReproError):
    """Failure inside the RIVET-analogue analysis framework."""


class AnalysisNotFoundError(RivetError):
    """A requested analysis plugin is not registered in the repository."""


class RecastError(ReproError):
    """Failure inside the RECAST-analogue re-analysis framework."""


class BackendError(RecastError):
    """A RECAST back end failed to process a request."""


class ServiceError(RecastError):
    """Failure inside the RECAST request-scheduling service."""


class QuotaError(ServiceError):
    """A tenant exceeded its queue or in-flight quota."""


class LeaseError(ServiceError):
    """A lease was granted, committed, or released inconsistently."""


class HepDataError(ReproError):
    """Failure in the HepData-analogue reactions database."""


class RecordNotFoundError(HepDataError):
    """A requested HepData record does not exist."""


class PreservationError(ReproError):
    """Failure in the core preservation framework."""


class RequestStateError(RecastError, PreservationError):
    """A RECAST request was driven through an illegal state transition.

    Doubles as a :class:`PreservationError`: the request history is a
    preserved artifact, and an illegal edge would corrupt that record.
    """


class ArchiveError(PreservationError):
    """Archive storage/retrieval failure."""


class FixityError(ArchiveError):
    """Archived content failed its checksum verification."""


class MetadataError(PreservationError):
    """Metadata is missing required fields or fails validation."""


class ValidationError(PreservationError):
    """Re-execution of a preserved analysis did not reproduce its outputs."""


class MigrationError(PreservationError):
    """A platform migration broke a preserved artifact."""


class OutreachError(ReproError):
    """Failure in the outreach / Level-2 tooling."""


class ConversionError(OutreachError):
    """An AOD record could not be converted to the simplified format."""


class InterviewError(ReproError):
    """The data-interview template or a response to it is invalid."""


class MaturityError(InterviewError):
    """A maturity rating is outside its rubric scale."""


class ExperimentError(ReproError):
    """An experiment profile is unknown or inconsistent."""
