"""The one canonical JSON encoder behind every byte-stable artifact.

Everything this library promises to replay byte-identically — archive
blobs and catalogues, dedup keys, request-event logs, run reports,
closure manifests, dataset files, lint reports — must go through a
*single* encoder, because two call sites that each spell out their own
``json.dumps(...)`` arguments will eventually disagree on one of them
and the byte-determinism contract dies silently. Three forms cover
every artifact:

- :func:`canonical_json` — the compact form (sorted keys, fixed
  separators, UTF-8 bytes) used for content digests, dedup keys, and
  JSON-lines event logs;
- :func:`canonical_text` — the human-readable form (sorted keys,
  fixed indent) used where an artifact is printed;
- :func:`canonical_document` — :func:`canonical_text` plus the single
  trailing newline every artifact *file* ends with.

The determinism linter (:mod:`repro.lint.det`, rule DAS401) enforces
the funnel statically: a ``json.dumps`` without ``sort_keys=True`` on
any path reachable from a registered replay root is a finding.

The way back in is funnelled too: :func:`load_json_document` is the
one reader for JSON documents a user hands the system, so every
damaged file surfaces as a typed error that names it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

#: The compact separator pair every digestable encoding uses.
CANONICAL_SEPARATORS = (",", ":")


def canonical_json(payload) -> bytes:
    """Compact deterministic encoding used for digests and logs."""
    return json.dumps(payload, sort_keys=True,
                      separators=CANONICAL_SEPARATORS).encode("utf-8")


def canonical_text(payload, *, indent: int | None = 1) -> str:
    """Readable deterministic encoding: sorted keys, fixed indent."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def canonical_document(payload, *, indent: int = 1) -> bytes:
    """Artifact-file bytes: :func:`canonical_text` plus one LF."""
    return (canonical_text(payload, indent=indent) + "\n").encode("utf-8")


def load_json_document(path, parse, error_type, what: str):
    """Decode the UTF-8 JSON document at ``path`` and ``parse`` it.

    An unreadable file, bytes that are not UTF-8 JSON, and a record
    :func:`parse_record` refuses all raise ``error_type`` naming
    ``what`` and ``path``.
    """
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error_type(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:
        raise error_type(
            f"{what} {path} is not valid JSON: {exc}") from None
    return parse_record(parse, record, error_type, f"{what} {path}")


def parse_record(parse, record, error_type, where: str):
    """``parse(record)``; a record it rejects or that has the wrong
    shape (a bare ``KeyError``, ``TypeError``, ``ValueError``,
    ``AttributeError``, or ``OverflowError`` from ``int(Infinity)``)
    raises ``error_type`` naming ``where``."""
    try:
        return parse(record)
    except ReproError as exc:
        raise error_type(f"{where}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise error_type(f"{where}: malformed: "
                         f"{type(exc).__name__}: {exc}") from None
