"""Tests for chunked artifact payloads and their gc atomicity.

The load-bearing guarantees:

* a chunked payload round-trips bytes exactly, for any chunking — one
  recipe per chunk, empty tail chunks, a single giant chunk;
* every read is digest-verified and a corrupted or missing blob is
  reported as *that chunk index*, not as a generic failure;
* the manifest is written last, so an interrupted writer leaves an
  incomplete directory that readers treat as absent;
* gc removes a chunked artifact atomically with respect to readers: the
  manifest is unlinked first, so no observer ever sees a manifest whose
  chunks are partially collected — even when removal crashes mid-way.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts.chunks import (
    CHUNK_DIR,
    CHUNK_INDEX,
    ChunkReader,
    ChunkWriter,
    chunk_digest,
    chunk_filename,
    combined_digest,
)
from repro.artifacts.stage import Stage
from repro.artifacts.store import ArtifactStore
from repro.errors import ArtifactError


def write_chunks(directory, blobs, meta=None):
    writer = ChunkWriter(directory)
    for i, blob in enumerate(blobs):
        writer.add(blob, meta=meta[i] if meta else None)
    return writer.finalize()


class TestChunkRoundTrip:
    def test_round_trip_with_meta(self, tmp_path):
        blobs = [b"alpha", b"", b"gamma" * 100]
        meta = [{"n": 1}, {"n": 0}, {"n": 3}]
        index = write_chunks(tmp_path, blobs, meta)
        assert index["n_chunks"] == 3
        assert index["sizes"] == [5, 0, 500]
        assert index["combined"] == combined_digest(index["digests"])
        reader = ChunkReader.open(tmp_path)
        assert list(reader) == blobs
        assert reader.meta[2] == {"n": 3}
        assert reader.read(1) == b""

    @settings(max_examples=30, deadline=None)
    @given(
        blobs=st.lists(
            st.binary(min_size=0, max_size=64), min_size=1, max_size=12
        )
    )
    def test_any_chunking_round_trips(self, tmp_path_factory, blobs):
        """Random chunk sizes — empty chunks and 1-byte chunks included —
        come back byte-identical and in order."""
        directory = tmp_path_factory.mktemp("chunks")
        index = write_chunks(directory, blobs)
        reader = ChunkReader.open(directory)
        assert len(reader) == len(blobs)
        assert list(reader) == blobs
        assert [chunk_digest(b) for b in blobs] == list(index["digests"])

    def test_writer_finalize_once(self, tmp_path):
        writer = ChunkWriter(tmp_path)
        writer.add(b"x")
        writer.finalize()
        with pytest.raises(ArtifactError):
            writer.add(b"y")
        with pytest.raises(ArtifactError):
            writer.finalize()


class TestChunkVerification:
    def test_corrupt_chunk_names_its_index(self, tmp_path):
        write_chunks(tmp_path, [b"aaa", b"bbb", b"ccc"])
        (tmp_path / CHUNK_DIR / chunk_filename(1)).write_bytes(b"BAD")
        reader = ChunkReader.open(tmp_path)
        assert reader.read(0) == b"aaa"
        with pytest.raises(ArtifactError, match="chunk 1 .* corrupt"):
            reader.read(1)

    def test_missing_chunk_names_its_index(self, tmp_path):
        write_chunks(tmp_path, [b"aaa", b"bbb"])
        (tmp_path / CHUNK_DIR / chunk_filename(0)).unlink()
        reader = ChunkReader.open(tmp_path)
        with pytest.raises(ArtifactError, match="chunk 0 missing"):
            reader.read(0)

    def test_out_of_range_index(self, tmp_path):
        write_chunks(tmp_path, [b"aaa"])
        reader = ChunkReader.open(tmp_path)
        with pytest.raises(ArtifactError, match="out of range"):
            reader.read(5)

    def test_tampered_index_fails_rolled_digest(self, tmp_path):
        write_chunks(tmp_path, [b"aaa", b"bbb"])
        path = tmp_path / CHUNK_INDEX
        index = json.loads(path.read_text())
        index["digests"][0] = chunk_digest(b"evil")
        path.write_text(json.dumps(index))
        with pytest.raises(ArtifactError, match="rolled digest"):
            ChunkReader.open(tmp_path)

    def test_no_index_reads_as_absent(self, tmp_path):
        with pytest.raises(ArtifactError, match="no chunk index"):
            ChunkReader.open(tmp_path)


class ChunkedBlobs(Stage[list]):
    """A stage whose payload, a list of byte blobs, is saved as chunks."""

    name = "corpus"

    def config_of(self, config):
        return {}

    def compute(self, config, inputs, rng):
        raise NotImplementedError

    def save(self, payload, directory):
        write_chunks(directory, payload)

    def load(self, directory):
        return list(ChunkReader.open(directory))


CHUNKED = ChunkedBlobs()


class TestGcChunkedAtomicity:
    def _store_with_unreferenced_chunked(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(CHUNKED, "cc" * 8, [b"a", b"b"], {"stage": "corpus"})
        return store

    def test_gc_collects_chunk_dir_and_manifest_as_one_unit(self, tmp_path):
        store = self._store_with_unreferenced_chunked(tmp_path)
        directory = store.artifact_dir("corpus", "cc" * 8)
        assert store.load(CHUNKED, "cc" * 8)[0] == [b"a", b"b"]
        removed, freed = store.gc(keep_runs=0)
        assert directory in removed
        assert freed > 0
        assert not directory.exists()
        assert not store.has("corpus", "cc" * 8)

    def test_crash_mid_removal_never_leaves_partial_artifact(
        self, tmp_path, monkeypatch
    ):
        """Kill the rmtree under gc: the artifact must already read as
        absent (manifest unlinked first), and the next gc sweeps the
        chunk debris."""
        store = self._store_with_unreferenced_chunked(tmp_path)
        directory = store.artifact_dir("corpus", "cc" * 8)

        def exploding_rmtree(path, *args, **kwargs):
            raise OSError("disk pulled mid-removal")

        monkeypatch.setattr(shutil, "rmtree", exploding_rmtree)
        with pytest.raises(OSError):
            store.gc(keep_runs=0)
        monkeypatch.undo()

        # the crash window: chunks still on disk, manifest gone — the
        # store must treat that as "no artifact", never "partial one"
        assert directory.exists()
        assert not store.has("corpus", "cc" * 8)
        with pytest.raises(ArtifactError):
            store.load(CHUNKED, "cc" * 8)
        assert list(store.iter_artifacts()) == []

        removed, _ = store.gc(keep_runs=0)
        assert directory in removed
        assert not directory.exists()

    def test_debris_from_crashed_writer_is_swept(self, tmp_path):
        store = ArtifactStore(tmp_path)
        debris = store.objects_dir / "corpus" / ".deadbeef-tmp123"
        (debris / CHUNK_DIR).mkdir(parents=True)
        (debris / CHUNK_DIR / chunk_filename(0)).write_bytes(b"orphan")
        removed, freed = store.gc(keep_runs=0)
        assert debris in removed
        assert freed > 0
        assert not debris.exists()
