"""Tests for repro.artifacts.store and the generic staged runner."""

import json
import shutil
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import pytest

from repro.artifacts.runner import describe_run, run_pipeline
from repro.artifacts.stage import Stage
from repro.artifacts.store import ArtifactStore
from repro.errors import ArtifactError
from repro.rng import ensure_rng


class AddStage(Stage[int]):
    """Adds a config increment to a random draw; JSON payload."""

    name = "add"
    version = 1
    upstream = ()

    def config_of(self, config: Any) -> Mapping[str, Any]:
        return {"increment": config["increment"]}

    def compute(self, config, inputs, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1000)) + config["increment"]

    def save(self, payload: int, directory: Path) -> None:
        (directory / "value.json").write_text(json.dumps(payload))

    def load(self, directory: Path) -> int:
        return json.loads((directory / "value.json").read_text())


class DoubleStage(Stage[int]):
    """Doubles the upstream payload plus another random draw."""

    name = "double"
    version = 1
    upstream = ("add",)

    def config_of(self, config: Any) -> Mapping[str, Any]:
        return {}

    def compute(self, config, inputs, rng: np.random.Generator) -> int:
        return 2 * inputs["add"] + int(rng.integers(0, 1000))

    def save(self, payload: int, directory: Path) -> None:
        (directory / "value.json").write_text(json.dumps(payload))

    def load(self, directory: Path) -> int:
        return json.loads((directory / "value.json").read_text())


PIPELINE = (AddStage(), DoubleStage())


def run(tmp_path, increment=1, seed=0, store=True):
    return run_pipeline(
        PIPELINE,
        {"increment": increment},
        ensure_rng(seed),
        store=ArtifactStore(tmp_path) if store else None,
        seed=seed,
        experiment_fingerprint=f"exp-{increment}-{seed}",
    )


class TestStore:
    def test_put_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stage = AddStage()
        store.put(stage, "ab" * 8, 41, {"stage": "add", "fingerprint": "ab" * 8})
        payload, manifest = store.load(stage, "ab" * 8)
        assert payload == 41
        assert manifest["manifest_version"] == 1
        assert store.has("add", "ab" * 8)

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stage = AddStage()
        store.put(stage, "cd" * 8, 1, {})
        store.put(stage, "cd" * 8, 999, {})  # ignored: already complete
        payload, _ = store.load(stage, "cd" * 8)
        assert payload == 1

    def test_missing_artifact_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has("add", "00" * 8)
        with pytest.raises(ArtifactError):
            store.read_manifest("add", "00" * 8)

    def test_corrupt_manifest_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = store.artifact_dir("add", "ee" * 8)
        directory.mkdir(parents=True)
        (directory / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError):
            store.read_manifest("add", "ee" * 8)

    def test_corrupt_payload_raises_artifact_error(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stage = AddStage()
        store.put(stage, "ff" * 8, 7, {})
        (store.artifact_dir("add", "ff" * 8) / "value.json").write_text("???")
        with pytest.raises(ArtifactError, match="corrupt"):
            store.load(stage, "ff" * 8)

    def test_incomplete_directory_is_not_an_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = store.artifact_dir("add", "11" * 8)
        directory.mkdir(parents=True)
        (directory / "value.json").write_text("3")  # no manifest.json
        assert not store.has("add", "11" * 8)

    def test_find_by_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stage = AddStage()
        store.put(stage, "aaaa000000000000", 1, {})
        store.put(stage, "bbbb000000000000", 2, {})
        assert [f for _, f, _ in store.find("aaaa")] == ["aaaa000000000000"]
        with pytest.raises(ArtifactError):
            store.find("")


class TestRunner:
    def test_cold_run_computes_everything(self, tmp_path):
        payloads, manifest = run(tmp_path)
        assert manifest["hits"] == 0 and manifest["misses"] == 2
        assert set(payloads) == {"add", "double"}
        assert manifest["order"] == ["add", "double"]

    def test_warm_run_hits_and_matches(self, tmp_path):
        cold_payloads, cold = run(tmp_path)
        warm_payloads, warm = run(tmp_path)
        assert warm["hits"] == 2 and warm["misses"] == 0
        assert warm_payloads == cold_payloads
        for name in ("add", "double"):
            assert (
                warm["stages"][name]["fingerprint"]
                == cold["stages"][name]["fingerprint"]
            )

    def test_rng_state_threads_through_hits(self, tmp_path):
        """A run whose ancestors hit must match an all-computed run."""
        run(tmp_path)  # populate both stages
        # Drop only the downstream artifact so 'add' hits but 'double'
        # recomputes — its random draw must continue the restored stream.
        _, manifest = run(tmp_path)
        import shutil

        store = ArtifactStore(tmp_path)
        shutil.rmtree(
            store.artifact_dir(
                "double", manifest["stages"]["double"]["fingerprint"]
            )
        )
        mixed_payloads, mixed = run(tmp_path)
        assert mixed["stages"]["add"]["hit"]
        assert not mixed["stages"]["double"]["hit"]
        fresh_payloads, _ = run(tmp_path, store=False)
        assert mixed_payloads == fresh_payloads

    def test_config_change_invalidates_downstream_only(self, tmp_path):
        _, first = run(tmp_path, increment=1)
        _, second = run(tmp_path, increment=2)
        # 'add' fingerprints the increment → miss; 'double' folds in the
        # upstream fingerprint → also a miss.
        assert second["misses"] == 2
        assert (
            second["stages"]["add"]["fingerprint"]
            != first["stages"]["add"]["fingerprint"]
        )

    def test_run_manifest_persisted(self, tmp_path):
        _, manifest = run(tmp_path)
        ((path, stored),) = ArtifactStore(tmp_path).iter_runs()
        assert path.stem == manifest["experiment"]
        assert stored["stages"].keys() == manifest["stages"].keys()

    def test_describe_run_renders(self, tmp_path):
        _, manifest = run(tmp_path)
        text = describe_run(manifest)
        assert "add" in text and "double" in text and "computed" in text

    def test_no_store_still_runs(self, tmp_path):
        payloads, manifest = run(tmp_path, store=False)
        assert manifest["cache_dir"] is None
        assert manifest["misses"] == 2
        assert set(payloads) == {"add", "double"}


class TestGc:
    def test_gc_keeps_referenced_artifacts(self, tmp_path):
        run(tmp_path, increment=1)
        run(tmp_path, increment=2)
        store = ArtifactStore(tmp_path)
        removed, freed = store.gc(keep_runs=1)
        # increment=2's run survives; increment=1's run manifest and its
        # two now-unreferenced artifacts go.
        assert len(removed) == 3
        assert freed > 0
        survivors = {f for _, f, _ in store.iter_artifacts()}
        assert len(survivors) == 2

    def test_dry_run_touches_nothing(self, tmp_path):
        run(tmp_path, increment=1)
        run(tmp_path, increment=2)
        store = ArtifactStore(tmp_path)
        removed, _ = store.gc(keep_runs=0, dry_run=True)
        assert removed
        assert len(list(store.iter_artifacts())) == 4
        assert len(store.iter_runs()) == 2

    def test_keep_runs_validated(self, tmp_path):
        with pytest.raises(ArtifactError):
            ArtifactStore(tmp_path).gc(keep_runs=-1)


class TestGcAtomicity:
    """gc removes an artifact atomically with respect to readers: the
    manifest is unlinked first, so no observer ever sees a manifest whose
    payload is partially collected, even when removal crashes mid-way."""

    def _store_with_unreferenced(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(AddStage(), "cc" * 8, 41, {"stage": "add"})
        return store

    def test_gc_collects_payload_and_manifest_as_one_unit(self, tmp_path):
        store = self._store_with_unreferenced(tmp_path)
        directory = store.artifact_dir("add", "cc" * 8)
        assert store.load(AddStage(), "cc" * 8)[0] == 41
        removed, freed = store.gc(keep_runs=0)
        assert directory in removed
        assert freed > 0
        assert not directory.exists()
        assert not store.has("add", "cc" * 8)

    def test_crash_mid_removal_never_leaves_partial_artifact(
        self, tmp_path, monkeypatch
    ):
        """Kill the rmtree under gc: the artifact must already read as
        absent (manifest unlinked first), and the next gc sweeps the
        payload debris."""
        store = self._store_with_unreferenced(tmp_path)
        directory = store.artifact_dir("add", "cc" * 8)

        def exploding_rmtree(path, *args, **kwargs):
            raise OSError("disk pulled mid-removal")

        monkeypatch.setattr(shutil, "rmtree", exploding_rmtree)
        with pytest.raises(OSError):
            store.gc(keep_runs=0)
        monkeypatch.undo()

        # the crash window: payload still on disk, manifest gone — the
        # store must treat that as "no artifact", never "partial one"
        assert (directory / "value.json").exists()
        assert not store.has("add", "cc" * 8)
        with pytest.raises(ArtifactError):
            store.load(AddStage(), "cc" * 8)
        assert list(store.iter_artifacts()) == []

        removed, _ = store.gc(keep_runs=0)
        assert directory in removed
        assert not directory.exists()

    def test_debris_from_crashed_writer_is_swept(self, tmp_path):
        store = ArtifactStore(tmp_path)
        debris = store.objects_dir / "add" / ".deadbeef-tmp123"
        debris.mkdir(parents=True)
        (debris / "value.json").write_text("41")
        removed, freed = store.gc(keep_runs=0)
        assert debris in removed
        assert freed > 0
        assert not debris.exists()
