"""Tests for repro.persistence."""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.errors import ArtifactError, ModelError
from repro.persistence import (
    FORMAT,
    FORMAT_VERSION,
    load_corpus,
    load_dataset,
    load_excluded_terms,
    load_linker,
    load_model,
    save_corpus,
    save_dataset,
    save_excluded_terms,
    save_linker,
    save_model,
)
from repro.rng import ensure_rng

FIXTURES = Path(__file__).parent / "fixtures"


class TestSaveLoad:
    def test_round_trip(self, fitted_joint, tiny_dataset, tmp_path):
        path = save_model(
            fitted_joint, tmp_path / "model.npz", tiny_dataset.vocabulary
        )
        loaded, vocabulary = load_model(path)
        assert vocabulary == tiny_dataset.vocabulary
        assert np.allclose(loaded.phi_, fitted_joint.phi_)
        assert np.allclose(loaded.theta_, fitted_joint.theta_)
        assert np.allclose(loaded.gel_means_, fitted_joint.gel_means_)
        assert np.array_equal(loaded.y_, fitted_joint.y_)
        assert loaded.config == fitted_joint.config

    def test_loaded_model_is_usable(self, fitted_joint, tiny_dataset, tmp_path):
        path = save_model(fitted_joint, tmp_path / "model.npz")
        loaded, _ = load_model(path)
        assert np.array_equal(
            loaded.topic_assignments(), fitted_joint.topic_assignments()
        )
        assert loaded.top_words(0, 3) == fitted_joint.top_words(0, 3)

    def test_loaded_model_links(self, fitted_joint, tmp_path):
        from repro.core.linkage import TopicLinker
        from repro.rheology.studies import TABLE_I

        path = save_model(fitted_joint, tmp_path / "model.npz")
        loaded, _ = load_model(path)
        original = TopicLinker(fitted_joint).assignment_table(TABLE_I)
        restored = TopicLinker(loaded).assignment_table(TABLE_I)
        assert original == restored

    def test_extension_appended(self, fitted_joint, tmp_path):
        path = save_model(fitted_joint, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            save_model(JointTextureTopicModel(), tmp_path / "x.npz")

    def test_non_archive_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, data=np.zeros(3))
        with pytest.raises((ModelError, KeyError)):
            load_model(bogus)

    def test_log_likelihoods_preserved(self, fitted_joint, tmp_path):
        path = save_model(fitted_joint, tmp_path / "model.npz")
        loaded, _ = load_model(path)
        assert loaded.log_likelihoods_ == fitted_joint.log_likelihoods_


def _header_of(path):
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(bytes(archive["header"].tobytes()).decode())


def _write_with_header(path, header, arrays):
    from repro.persistence import _encode_header

    np.savez_compressed(path, header=_encode_header(header), **arrays)


class TestFormatV2:
    def test_header_records_class_timing_and_kernel(
        self, fitted_joint, tmp_path
    ):
        path = save_model(fitted_joint, tmp_path / "model.npz")
        header = _header_of(path)
        assert header["format"] == FORMAT
        assert header["version"] == FORMAT_VERSION == 2
        assert header["model_class"] == "gibbs"
        assert header["kernel"] == fitted_joint.config.kernel
        assert header["fit_seconds"] == fitted_joint.fit_seconds_

    def test_fit_seconds_round_trips(self, fitted_joint, tmp_path):
        path = save_model(fitted_joint, tmp_path / "model.npz")
        loaded, _ = load_model(path)
        assert loaded.fit_seconds_ == fitted_joint.fit_seconds_

    def test_empty_vocabulary_round_trips(self, fitted_joint, tmp_path):
        path = save_model(fitted_joint, tmp_path / "model.npz")
        _, vocabulary = load_model(path)
        assert vocabulary == ()


class TestV1BackwardCompat:
    """Version-1 archives (pre model_class/fit_seconds/kernel) still load."""

    def test_committed_v1_fixture_loads(self):
        model, vocabulary = load_model(FIXTURES / "model_v1.npz")
        assert isinstance(model, JointTextureTopicModel)
        assert vocabulary == tuple(f"term{i}" for i in range(12))
        assert model.phi_.shape == (3, 12)
        assert model.log_likelihoods_
        assert model.fit_seconds_ is None  # v1 never stored it

    def test_v1_model_is_usable(self):
        model, _ = load_model(FIXTURES / "model_v1.npz")
        assert model.topic_assignments().shape == (30,)
        assert len(model.top_words(0, 3)) == 3


class TestCorruptArchives:
    def _arrays(self, fitted_joint):
        from repro.persistence import _ARRAY_FIELDS

        return {
            name: np.asarray(getattr(fitted_joint, name))
            for name in _ARRAY_FIELDS
        }

    def test_garbage_header_bytes(self, fitted_joint, tmp_path):
        path = tmp_path / "m.npz"
        np.savez(
            path,
            header=np.frombuffer(b"\xff\x00 not json", dtype=np.uint8),
            **self._arrays(fitted_joint),
        )
        with pytest.raises(ModelError):
            load_model(path)

    def test_wrong_format_marker(self, fitted_joint, tmp_path):
        path = tmp_path / "m.npz"
        _write_with_header(
            path,
            {"format": "not-a-model", "version": 2},
            self._arrays(fitted_joint),
        )
        with pytest.raises(ModelError):
            load_model(path)

    def test_unsupported_version(self, fitted_joint, tmp_path):
        path = tmp_path / "m.npz"
        _write_with_header(
            path,
            {"format": FORMAT, "version": 99, "config": {}},
            self._arrays(fitted_joint),
        )
        with pytest.raises(ModelError, match="version"):
            load_model(path)

    def test_unknown_model_class(self, fitted_joint, tmp_path):
        path = tmp_path / "m.npz"
        _write_with_header(
            path,
            {
                "format": FORMAT,
                "version": 2,
                "model_class": "mystery",
                "config": {},
            },
            self._arrays(fitted_joint),
        )
        with pytest.raises(ModelError, match="model class"):
            load_model(path)

    def _saved_header(self, fitted_joint, tmp_path, version):
        header = _header_of(save_model(fitted_joint, tmp_path / "saved.npz"))
        header["version"] = version
        return header

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_n_shards_key_loads(self, fitted_joint, tmp_path, version):
        """Archives written while the model configs had an ``n_shards``
        field carry ``"n_shards": null``, those written while they had a
        ``backend`` field and a nullable ``n_workers`` carry ``"backend":
        "serial", "n_workers": null``, and those written while the
        samplers had their emulsion, seeding and density-cache switches
        carry ``use_emulsions``, ``seed_y_with_kmeans`` and
        ``cache_y_densities``; they must keep loading."""
        header = self._saved_header(fitted_joint, tmp_path, version)
        header["config"].update(
            n_shards=None, backend="serial", n_workers=None,
            use_emulsions=True, seed_y_with_kmeans=True, cache_y_densities=True,
        )
        path = tmp_path / "m.npz"
        _write_with_header(path, header, self._arrays(fitted_joint))
        model, _ = load_model(path)
        assert model.config == fitted_joint.config
        assert np.array_equal(model.phi_, fitted_joint.phi_)

    def test_retired_vb_seeding_key_loads(self, tiny_dataset, tmp_path):
        """VB archives written while ``VariationalConfig`` had a
        ``seed_y_with_kmeans`` field carry it; they must keep loading."""
        from repro.core.variational import (
            VariationalConfig,
            VariationalJointModel,
        )

        model = VariationalJointModel(
            VariationalConfig(n_topics=4, max_iter=10)
        ).fit(
            list(tiny_dataset.docs),
            tiny_dataset.gel_log,
            tiny_dataset.emulsion_log,
            tiny_dataset.vocab_size,
            rng=3,
        )
        saved = save_model(model, tmp_path / "saved.npz")
        with np.load(saved, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = _header_of(saved)
        header["config"]["seed_y_with_kmeans"] = True
        del arrays["header"]
        path = tmp_path / "v.npz"
        _write_with_header(path, header, arrays)
        loaded, _ = load_model(path)
        assert type(loaded) is VariationalJointModel
        assert loaded.config == model.config
        assert np.array_equal(loaded.theta_, model.theta_)

    @pytest.mark.parametrize("version", [1, 2])
    def test_unknown_config_key(self, fitted_joint, tmp_path, version):
        header = self._saved_header(fitted_joint, tmp_path, version)
        header["config"]["n_galaxies"] = 3
        path = tmp_path / "m.npz"
        _write_with_header(path, header, self._arrays(fitted_joint))
        with pytest.raises(ModelError, match="n_galaxies") as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("config", ["absent", None, [1, 2]])
    def test_missing_config(self, fitted_joint, tmp_path, version, config):
        header = self._saved_header(fitted_joint, tmp_path, version)
        if config == "absent":
            del header["config"]
        else:
            header["config"] = config
        path = tmp_path / "m.npz"
        _write_with_header(path, header, self._arrays(fitted_joint))
        with pytest.raises(ModelError, match="config") as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)


class TestAllInferenceMethods:
    """Round trips restore the exact class and arrays for each method."""

    def test_gibbs(self, fitted_joint, tmp_path):
        loaded, _ = load_model(save_model(fitted_joint, tmp_path / "g.npz"))
        assert type(loaded) is JointTextureTopicModel
        assert np.array_equal(loaded.theta_, fitted_joint.theta_)

    def test_collapsed(self, tiny_dataset, tmp_path):
        from repro.core.collapsed import CollapsedJointModel

        config = JointModelConfig(n_topics=4, n_sweeps=15, burn_in=5, thin=2)
        model = CollapsedJointModel(config).fit(
            list(tiny_dataset.docs),
            tiny_dataset.gel_log,
            tiny_dataset.emulsion_log,
            tiny_dataset.vocab_size,
            rng=3,
        )
        loaded, _ = load_model(save_model(model, tmp_path / "c.npz"))
        assert type(loaded) is CollapsedJointModel
        assert np.array_equal(loaded.phi_, model.phi_)
        assert np.array_equal(loaded.y_, model.y_)
        assert loaded.log_likelihoods_ == model.log_likelihoods_
        assert loaded.fit_seconds_ == model.fit_seconds_

    def test_vb(self, tiny_dataset, tmp_path):
        from repro.core.variational import (
            VariationalConfig,
            VariationalJointModel,
        )

        model = VariationalJointModel(
            VariationalConfig(n_topics=4, max_iter=10)
        ).fit(
            list(tiny_dataset.docs),
            tiny_dataset.gel_log,
            tiny_dataset.emulsion_log,
            tiny_dataset.vocab_size,
            rng=3,
        )
        loaded, _ = load_model(save_model(model, tmp_path / "v.npz"))
        assert type(loaded) is VariationalJointModel
        assert np.array_equal(loaded.phi_, model.phi_)
        assert np.array_equal(loaded.theta_, model.theta_)
        assert loaded.elbo_trace_ == model.elbo_trace_
        assert loaded.n_iter_ == model.n_iter_


class TestCorpusSerialisation:
    def test_round_trip(self, tiny_corpus, tmp_path):
        path = save_corpus(tiny_corpus, tmp_path / "corpus.json.gz")
        loaded = load_corpus(path)
        assert loaded.preset_name == tiny_corpus.preset_name
        assert loaded.recipes == tiny_corpus.recipes
        assert loaded.truths == tiny_corpus.truths

    def test_equal_corpora_are_equal_bytes(self, tiny_corpus, tmp_path, monkeypatch):
        """The gzip header carries no wall-clock mtime: two saves of one
        corpus at different times are byte-equal (the store's payload
        bytes depend on the inputs only)."""
        (tmp_path / "first").mkdir()
        first = save_corpus(tiny_corpus, tmp_path / "first" / "corpus.json.gz")
        later = time.time() + 3600.0
        monkeypatch.setattr(time, "time", lambda: later)
        second = save_corpus(tiny_corpus, tmp_path / "corpus.json.gz")
        assert first.read_bytes() == second.read_bytes()
        loaded = load_corpus(second)
        assert loaded.recipes == tiny_corpus.recipes
        assert loaded.truths == tiny_corpus.truths

    def test_not_an_archive(self, tmp_path):
        bogus = tmp_path / "corpus.json.gz"
        bogus.write_text("plain text")
        with pytest.raises(ArtifactError):
            load_corpus(bogus)


class TestDatasetSerialisation:
    def test_round_trip(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "dataset.npz")
        loaded = load_dataset(path)
        assert loaded.vocabulary == tiny_dataset.vocabulary
        assert loaded.excluded_terms == tiny_dataset.excluded_terms
        assert dict(loaded.funnel) == dict(tiny_dataset.funnel)
        for name in ("gel_log", "emulsion_log", "gel_raw", "emulsion_raw"):
            assert np.array_equal(
                getattr(loaded, name), getattr(tiny_dataset, name)
            )
        assert len(loaded.docs) == len(tiny_dataset.docs)
        for doc_a, doc_b in zip(loaded.docs, tiny_dataset.docs):
            assert np.array_equal(doc_a, doc_b)
        for a, b in zip(loaded.features, tiny_dataset.features):
            assert a.recipe_id == b.recipe_id
            assert dict(a.term_counts) == dict(b.term_counts)
            assert a.total_mass_g == b.total_mass_g
            assert a.unrelated_fraction == b.unrelated_fraction

    def test_wrong_format_rejected(self, tiny_dataset, tmp_path):
        path = save_model_as_dataset_impostor(tmp_path)
        with pytest.raises(ArtifactError):
            load_dataset(path)


def save_model_as_dataset_impostor(tmp_path):
    """An npz with a non-dataset header (exercises the format check)."""
    from repro.persistence import _encode_header

    path = tmp_path / "impostor.npz"
    np.savez(path, header=_encode_header({"format": "other", "version": 1}))
    return path


class TestExcludedTermsSerialisation:
    def test_round_trip(self, tmp_path):
        terms = frozenset({"purupuru", "katai"})
        path = save_excluded_terms(terms, tmp_path / "excluded.json")
        assert load_excluded_terms(path) == terms

    def test_empty_set(self, tmp_path):
        path = save_excluded_terms(frozenset(), tmp_path / "excluded.json")
        assert load_excluded_terms(path) == frozenset()

    def test_not_a_term_file(self, tmp_path):
        bogus = tmp_path / "excluded.json"
        bogus.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ArtifactError):
            load_excluded_terms(bogus)


class TestLinkerSerialisation:
    def test_round_trip(self, fitted_joint, tmp_path):
        from repro.core.linkage import TopicLinker
        from repro.rheology.studies import TABLE_I

        linker = TopicLinker(fitted_joint)
        path = save_linker(linker, tmp_path / "linker.npz")
        loaded = load_linker(path)
        assert loaded.point_sigma == linker.point_sigma
        assert np.array_equal(loaded.gel_means, linker.gel_means)
        assert np.array_equal(loaded.gel_covs, linker.gel_covs)
        assert loaded.assignment_table(TABLE_I) == linker.assignment_table(
            TABLE_I
        )

    def test_wrong_format_rejected(self, tmp_path):
        path = save_model_as_dataset_impostor(tmp_path)
        with pytest.raises(ArtifactError):
            load_linker(path)


class TestDamagedArchives:
    """A truncated or bit-flipped ``.npz`` is a ModelError naming its path."""

    @staticmethod
    def save(kind, fitted_joint, tiny_dataset, directory):
        from repro.core.linkage import TopicLinker

        if kind == "model":
            path = save_model(
                fitted_joint, directory / "model.npz", tiny_dataset.vocabulary
            )
            return path, load_model
        if kind == "dataset":
            return save_dataset(tiny_dataset, directory / "dataset.npz"), load_dataset
        linker = TopicLinker(fitted_joint)
        return save_linker(linker, directory / "linker.npz"), load_linker

    @staticmethod
    def damage(data, how):
        if how == "flip-64":
            flipped = bytearray(data)
            for i in ensure_rng(0).choice(len(data), size=64, replace=False):
                flipped[i] ^= 0xFF
            return bytes(flipped)
        percent = int(how.removeprefix("cut-"))
        return data[: len(data) * percent // 100]

    @pytest.mark.parametrize(
        "how", ["cut-90", "cut-50", "cut-10", "cut-1", "flip-64"]
    )
    @pytest.mark.parametrize("kind", ["model", "dataset", "linker"])
    def test_damage_is_model_error(
        self, kind, how, fitted_joint, tiny_dataset, tmp_path
    ):
        path, loader = self.save(kind, fitted_joint, tiny_dataset, tmp_path)
        path.write_bytes(self.damage(path.read_bytes(), how))
        with pytest.raises(ModelError, match=re.escape(str(path))):
            loader(path)
