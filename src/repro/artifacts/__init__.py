"""Content-addressed pipeline artifacts.

The paper's pipeline is a strict DAG (corpus → features → filter →
model → linkage); this package gives each node a durable, resumable,
provenance-tracked on-disk artifact:

* :mod:`repro.artifacts.fingerprint` — canonical config encoding and
  SHA-256 content fingerprints derived generically from dataclass
  fields;
* :mod:`repro.artifacts.stage` — the typed :class:`Stage` abstraction
  (config slice, compute, save/load, format version);
* :mod:`repro.artifacts.store` — the content-addressed
  :class:`ArtifactStore` (atomic writes, provenance manifests, run
  records, garbage collection);
* :mod:`repro.artifacts.runner` — the generic staged runner with
  RNG-state threading, so cached and freshly computed pipelines are
  bit-identical.

The concrete five-stage experiment pipeline lives in
:mod:`repro.pipeline.stages`.
"""

from repro.artifacts.fingerprint import (
    canonical,
    canonical_json,
    fingerprint_of,
    freeze,
    stage_fingerprint,
)
from repro.artifacts.runner import describe_run, run_pipeline
from repro.artifacts.stage import Stage
from repro.artifacts.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "Stage",
    "canonical",
    "canonical_json",
    "describe_run",
    "fingerprint_of",
    "freeze",
    "run_pipeline",
    "stage_fingerprint",
]
