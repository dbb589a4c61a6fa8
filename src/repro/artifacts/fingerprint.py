"""Canonical config encoding and content fingerprints.

Every pipeline stage is identified by a *fingerprint*: the SHA-256 of a
canonical JSON encoding of ``{stage name, format version, stage config,
upstream fingerprints}``. Configs are dataclasses; :func:`canonical`
walks them generically (``dataclasses.fields``, not a hand-kept field
list), so adding a field to any config automatically perturbs the
fingerprint instead of silently colliding cache entries. The one
opt-out is a field declared with ``metadata={"fingerprint": False}``:
an execution setting (such as a worker count) that cannot change the
result must not change the key either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Hashable, Mapping

import numpy as np

from repro.errors import ArtifactError

#: Hex digits kept from the SHA-256 digest. 64 bits of fingerprint is
#: collision-safe for any realistic number of cache entries while staying
#: readable in directory listings and CLI tables.
FINGERPRINT_LENGTH = 16


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-encodable canonical form.

    Dataclasses become ``{"__dataclass__": name, fields...}`` via
    ``dataclasses.fields`` (recursively, skipping fields whose metadata
    sets ``"fingerprint": False``), mappings become plain dicts
    (JSON key sorting makes ordering irrelevant), sets are sorted, and
    numpy scalars collapse to their Python equivalents. Unsupported
    types raise :class:`~repro.errors.ArtifactError` rather than being
    silently stringified.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded: dict[str, Any] = {"__dataclass__": type(value).__name__}
        for field_ in dataclasses.fields(value):
            if field_.metadata.get("fingerprint", True):
                encoded[field_.name] = canonical(getattr(value, field_.name))
        return encoded
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [canonical(item) for item in value.tolist()]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ArtifactError(
        f"cannot canonicalise {type(value).__name__!r} for fingerprinting"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON string of ``value`` (sorted keys, no spaces)."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def fingerprint_of(value: Any) -> str:
    """Hex content fingerprint of ``value`` (see :func:`canonical`)."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8"))
    return digest.hexdigest()[:FINGERPRINT_LENGTH]


def stage_fingerprint(
    name: str,
    version: int,
    config: Any,
    upstream: Mapping[str, str],
) -> str:
    """Fingerprint of one stage invocation.

    ``upstream`` maps upstream stage names to *their* fingerprints, so a
    change anywhere in the ancestry re-fingerprints every descendant
    while leaving siblings untouched.
    """
    return fingerprint_of(
        {
            "stage": name,
            "version": version,
            "config": canonical(config),
            "upstream": dict(upstream),
        }
    )


def freeze(value: Any) -> Hashable:
    """A hashable deep-frozen view of :func:`canonical`'s output.

    Used by in-process memo caches that want dict keys rather than hex
    strings (mappings become sorted item tuples, lists become tuples).
    """
    reduced = canonical(value)
    return _freeze_canonical(reduced)


def _freeze_canonical(value: Any) -> Hashable:
    if isinstance(value, dict):
        return tuple(
            (key, _freeze_canonical(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, list):
        return tuple(_freeze_canonical(item) for item in value)
    return value
