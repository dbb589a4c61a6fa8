"""Content-addressed on-disk artifact store.

Layout under one cache root::

    <root>/
      objects/<stage-name>/<fingerprint>/
          manifest.json      # provenance: config, upstream, timings, RNG
          ...                # stage payload files (stage.save decides)
      runs/<experiment-fingerprint>.json   # per-run provenance manifest

Artifacts are immutable once written: :meth:`ArtifactStore.put` stages
the payload in a temporary sibling directory and promotes it with one
atomic rename, so a crashed or concurrent writer can never leave a
half-written entry that a reader would mistake for a complete one. A
directory *is* valid exactly when its ``manifest.json`` exists, because
the manifest is written last inside the temporary directory.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.artifacts.stage import Stage
from repro.errors import ArtifactError
from repro.obs import metrics

#: Schema version of ``manifest.json`` files.
MANIFEST_VERSION = 1

_MANIFEST = "manifest.json"


class ArtifactStore:
    """A content-addressed store of pipeline stage outputs."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- paths -------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def artifact_dir(self, stage_name: str, fingerprint: str) -> Path:
        """Directory of one (stage, fingerprint) artifact."""
        return self.objects_dir / stage_name / fingerprint

    # -- artifacts ---------------------------------------------------------

    def has(self, stage_name: str, fingerprint: str) -> bool:
        """Whether a complete artifact exists for this fingerprint."""
        return (self.artifact_dir(stage_name, fingerprint) / _MANIFEST).is_file()

    def read_manifest(self, stage_name: str, fingerprint: str) -> dict[str, Any]:
        """The provenance manifest of one artifact."""
        path = self.artifact_dir(stage_name, fingerprint) / _MANIFEST
        try:
            with path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError as exc:
            raise ArtifactError(
                f"no {stage_name} artifact with fingerprint {fingerprint}"
            ) from exc
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"corrupt artifact manifest at {path}") from exc
        if not isinstance(manifest, dict):
            raise ArtifactError(f"corrupt artifact manifest at {path}")
        return manifest

    def put(
        self,
        stage: Stage,
        fingerprint: str,
        payload: Any,
        manifest: Mapping[str, Any],
    ) -> Path:
        """Store ``payload`` + ``manifest`` under ``fingerprint``.

        Idempotent: if a complete artifact already exists the write is
        skipped (content addressing makes the existing one equivalent).
        """
        final = self.artifact_dir(stage.name, fingerprint)
        if self.has(stage.name, fingerprint):
            return final
        final.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(prefix=f".{fingerprint}-", dir=final.parent)
        )
        try:
            stage.save(payload, staging)
            body = {"manifest_version": MANIFEST_VERSION, **manifest}
            with (staging / _MANIFEST).open("w", encoding="utf-8") as handle:
                json.dump(body, handle, indent=2, sort_keys=True)
            try:
                os.replace(staging, final)
            except OSError:
                # A concurrent writer won the rename; keep its artifact.
                if not self.has(stage.name, fingerprint):
                    raise
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        metrics.registry.counter("cache.bytes_written").inc(
            self.size_of(final)
        )
        return final

    def load(self, stage: Stage, fingerprint: str) -> tuple[Any, dict[str, Any]]:
        """Load one artifact; returns ``(payload, manifest)``."""
        manifest = self.read_manifest(stage.name, fingerprint)
        directory = self.artifact_dir(stage.name, fingerprint)
        try:
            payload = stage.load(directory)
        except ArtifactError:
            raise
        except Exception as exc:  # repro: noqa[EXC001] - any deserialisation failure means a corrupt cache entry; surface it as one store error type
            raise ArtifactError(
                f"corrupt {stage.name} artifact {fingerprint}: {exc}"
            ) from exc
        metrics.registry.counter("cache.bytes_read").inc(
            self.size_of(directory)
        )
        return payload, manifest

    def iter_artifacts(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """Yield ``(stage_name, fingerprint, manifest)`` for every
        complete artifact, newest first within each stage."""
        if not self.objects_dir.is_dir():
            return
        for stage_dir in sorted(self.objects_dir.iterdir()):
            if not stage_dir.is_dir():
                continue
            entries = [
                d for d in stage_dir.iterdir()
                if d.is_dir() and (d / _MANIFEST).is_file()
            ]
            entries.sort(key=lambda d: (d / _MANIFEST).stat().st_mtime, reverse=True)
            for entry in entries:
                yield stage_dir.name, entry.name, self.read_manifest(
                    stage_dir.name, entry.name
                )

    def find(self, prefix: str) -> list[tuple[str, str, dict[str, Any]]]:
        """Artifacts whose fingerprint starts with ``prefix``."""
        if not prefix:
            raise ArtifactError("empty fingerprint prefix")
        return [
            (stage_name, fingerprint, manifest)
            for stage_name, fingerprint, manifest in self.iter_artifacts()
            if fingerprint.startswith(prefix)
        ]

    @staticmethod
    def size_of(directory: Path) -> int:
        """Total bytes under one artifact directory."""
        return sum(
            path.stat().st_size
            for path in directory.rglob("*")
            if path.is_file()
        )

    # -- run manifests -----------------------------------------------------

    def write_run_manifest(self, manifest: Mapping[str, Any]) -> Path:
        """Persist a per-run provenance manifest.

        Keyed by the experiment fingerprint: re-running the same config
        refreshes its manifest in place (and bumps its mtime, which is
        what :meth:`gc` recency is based on).
        """
        experiment = manifest.get("experiment")
        if not experiment:
            raise ArtifactError("run manifest lacks an experiment fingerprint")
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        path = self.runs_dir / f"{experiment}.json"
        staging = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with staging.open("w", encoding="utf-8") as handle:
            json.dump(dict(manifest), handle, indent=2, sort_keys=True)
        os.replace(staging, path)
        # json.dump preserves an existing file's mtime-ordering semantics
        # poorly when the content is identical; touch explicitly so the
        # freshest run always sorts first.
        os.utime(path, (time.time(), time.time()))
        return path

    def iter_runs(self) -> list[tuple[Path, dict[str, Any]]]:
        """All run manifests, most recently written first."""
        if not self.runs_dir.is_dir():
            return []
        paths = sorted(
            self.runs_dir.glob("*.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        runs = []
        for path in paths:
            try:
                with path.open("r", encoding="utf-8") as handle:
                    runs.append((path, json.load(handle)))
            except (OSError, ValueError) as exc:
                raise ArtifactError(f"corrupt run manifest at {path}") from exc
        return runs

    # -- garbage collection ------------------------------------------------

    def _remove_artifact(self, directory: Path) -> None:
        """Delete one artifact directory atomically w.r.t. readers.

        The manifest goes first: the instant it is unlinked the artifact
        reads as absent (:meth:`has` keys on the manifest), so a crash
        anywhere in the remaining removal can never leave a manifest
        whose payload was partially collected. The leftover
        manifest-less directory is debris that the next :meth:`gc`
        sweeps up.
        """
        manifest = directory / _MANIFEST
        if manifest.exists():
            manifest.unlink()
        shutil.rmtree(directory)

    def _debris(self) -> list[Path]:
        """Manifest-less object directories (crashed writers or gcs)."""
        if not self.objects_dir.is_dir():
            return []
        return [
            entry
            for stage_dir in sorted(self.objects_dir.iterdir())
            if stage_dir.is_dir()
            for entry in sorted(stage_dir.iterdir())
            if entry.is_dir() and not (entry / _MANIFEST).is_file()
        ]

    def gc(
        self, keep_runs: int = 10, dry_run: bool = False
    ) -> tuple[list[Path], int]:
        """Drop artifacts unreachable from the ``keep_runs`` newest runs.

        Returns ``(removed_paths, freed_bytes)``. Run manifests beyond
        the ``keep_runs`` most recent are deleted, then every artifact
        not referenced by a surviving run manifest is deleted —
        manifest-first per artifact (see :meth:`_remove_artifact`), so a
        payload is collected together with its manifest as one unit and
        readers never observe a manifest with missing payload files.
        Manifest-less debris directories left by crashed writers or a
        crashed earlier gc are swept too. With ``dry_run`` nothing is
        touched; the would-be removals are returned.
        """
        if keep_runs < 0:
            raise ArtifactError("keep_runs must be >= 0")
        runs = self.iter_runs()
        kept, dropped_runs = runs[:keep_runs], runs[keep_runs:]
        referenced: set[tuple[str, str]] = set()
        for _, manifest in kept:
            for stage_name, record in manifest.get("stages", {}).items():
                referenced.add((stage_name, record.get("fingerprint", "")))
        removed: list[Path] = []
        freed = 0
        for path, _ in dropped_runs:
            removed.append(path)
            freed += path.stat().st_size
            if not dry_run:
                path.unlink()
        for stage_name, fingerprint, _ in list(self.iter_artifacts()):
            if (stage_name, fingerprint) in referenced:
                continue
            directory = self.artifact_dir(stage_name, fingerprint)
            removed.append(directory)
            freed += self.size_of(directory)
            if not dry_run:
                self._remove_artifact(directory)
        for directory in self._debris():
            removed.append(directory)
            freed += self.size_of(directory)
            if not dry_run:
                shutil.rmtree(directory, ignore_errors=True)
        return removed, freed
