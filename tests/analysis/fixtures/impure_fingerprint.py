"""DET001 fixture: a fingerprint helper that reads the clock.

Posed as ``src/repro/artifacts/fingerprint.py`` in tests. Every function
in that module is a purity root (fingerprints key the artifact cache),
so the wall-clock read inside ``_stamp`` must be flagged as reachable
from ``fingerprint_of`` — one deliberate finding.
"""

import hashlib
import json
import time


def _stamp() -> float:
    # the seeded impurity: wall-clock in a fingerprint helper
    return time.time()


def fingerprint_of(value) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(value, sort_keys=True).encode())
    digest.update(str(_stamp()).encode())
    return digest.hexdigest()


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
