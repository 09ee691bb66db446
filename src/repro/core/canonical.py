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
damaged file surfaces as a typed error that names it. The way out is
too: :func:`write_atomic` writes every file, so a crash leaves the old
file or the new one, never a torn one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from pathlib import Path

from repro.errors import PersistenceError, PreservationError, ReproError

#: The compact separator pair every digestable encoding uses.
CANONICAL_SEPARATORS = (",", ":")


def _non_finite(value, where: str = "$"):
    """``(where, number)`` of the first NaN or infinity in ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        return where, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple))
             else ())
    for key, child in items:
        found = _non_finite(child, f"{where}[{key!r}]")
        if found:
            return found
    return None


def _dumps(payload, **layout) -> str:
    """``json.dumps`` with sorted keys and no NaN/Infinity tokens.

    JSON has no spelling for a non-finite number; the tokens Python
    would write instead are refused by strict readers, so a payload
    holding one raises :class:`PreservationError` naming where.
    """
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False,
                          **layout)
    except ValueError as exc:
        # Only the NaN refusal is searched for; a circular payload
        # would send the search round its cycle.
        found = (_non_finite(payload)
                 if str(exc).startswith("Out of range float") else None)
        if found is None:
            raise
        raise PreservationError(
            f"cannot encode non-finite number {found[1]!r} at "
            f"{found[0]}: JSON has no NaN or Infinity") from None


def canonical_json(payload) -> bytes:
    """Compact deterministic encoding used for digests and logs."""
    return _dumps(payload,
                  separators=CANONICAL_SEPARATORS).encode("utf-8")


def canonical_text(payload, *, indent: int | None = 1) -> str:
    """Readable deterministic encoding: sorted keys, fixed indent."""
    return _dumps(payload, indent=indent)


def canonical_document(payload, *, indent: int | None = 1) -> bytes:
    """Artifact-file bytes: :func:`canonical_text` plus one LF."""
    return (canonical_text(payload, indent=indent) + "\n").encode("utf-8")


def write_atomic(path, data: bytes, what: str) -> None:
    """Replace the file at ``path`` with ``data`` in one step.

    The bytes go to a hidden ``.tmp`` file beside ``path`` that
    :func:`os.replace` renames onto it, so a process that dies mid-write
    leaves the old file whole (there is no ``fsync``: a power loss is
    not covered). A failure removes the temporary file and raises
    :class:`PersistenceError` naming ``what`` and ``path``."""
    path = Path(path)
    temporary = path.parent / (
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        # lint: ignore[DAS004] -- the one artifact writer's temporary file
        temporary.write_bytes(data)
        # lint: ignore[DAS004] -- the one artifact writer
        os.replace(temporary, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise PersistenceError(
            f"cannot write {what} {path}: {exc.strerror or exc}") from None


def load_json_document(path, parse, error_type, what: str):
    """Decode the UTF-8 JSON document at ``path`` and ``parse`` it.

    An unreadable file, bytes that are not UTF-8 JSON, and a record
    :func:`parse_record` refuses all raise ``error_type`` naming
    ``what`` and ``path``.
    """
    try:
        # lint: ignore[DAS004] -- the one JSON document reader
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
