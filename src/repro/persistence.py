"""Saving and loading pipeline artifacts.

Every durable stage output of the pipeline has a serialiser here:

* **fitted models** (``save_model`` / ``load_model``) — a single
  ``.npz`` archive with a JSON-encoded header entry. Format version 2
  records the model class (``gibbs``/``collapsed``/``vb``), the fit
  wall-clock and the sampling-kernel name; version-1 archives written by
  older releases still load.
* **synthetic corpora** (``save_corpus`` / ``load_corpus``) — gzipped
  JSON of recipes plus their generator ground truth.
* **texture datasets** (``save_dataset`` / ``load_dataset``) — ``.npz``
  with the concentration matrices and CSR-flattened documents, plus a
  JSON header with vocabulary, funnel and per-recipe bookkeeping.
* **excluded-term sets** (``save_excluded_terms`` / ``load_excluded_terms``)
  — the word2vec gel-relatedness filter's output, as JSON.
* **topic linkers** (``save_linker`` / ``load_linker``) — the floored
  gel Gaussians and the point sigma, as ``.npz``.

All loaders reproduce their input bit-identically (arrays compare with
``==``, dataclasses compare equal), which is what lets the artifact
store swap a cached load for a fresh computation. A damaged ``.npz``
archive (truncated, or with flipped bytes) raises
:class:`~repro.errors.ModelError` naming its path.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.errors import ArtifactError, ModelError

#: Format marker stored inside every model archive.
FORMAT = "repro-joint-model"
#: Current model-archive version. v2 adds the model class, the fit
#: wall-clock (``fit_seconds_``) and the sampling-kernel name; v1
#: archives are still readable.
FORMAT_VERSION = 2

CORPUS_FORMAT = "repro-synth-corpus"
CORPUS_FORMAT_VERSION = 1

DATASET_FORMAT = "repro-texture-dataset"
DATASET_FORMAT_VERSION = 1

TERMS_FORMAT = "repro-excluded-terms"
TERMS_FORMAT_VERSION = 1

LINKER_FORMAT = "repro-topic-linker"
LINKER_FORMAT_VERSION = 1

_ARRAY_FIELDS = (
    "phi_",
    "theta_",
    "gel_means_",
    "gel_covs_",
    "emulsion_means_",
    "emulsion_covs_",
    "y_",
)

#: Config keys dropped on load: fields a later release retired, which
#: older archives still carry, and ``n_workers``, which records how a
#: fit ran rather than what it fitted (older archives hold null there).
_DROPPED_CONFIG_KEYS = frozenset({
    "n_shards", "backend", "n_workers",
    "use_emulsions", "seed_y_with_kmeans", "cache_y_densities",
})

#: Tags identifying the model class inside a v2 archive.
_MODEL_TAG_JOINT = "gibbs"
_MODEL_TAG_COLLAPSED = "collapsed"
_MODEL_TAG_VB = "vb"


#: What zipfile, zlib and numpy raise on a truncated or bit-flipped
#: ``.npz``. ``RuntimeError`` covers zipfile's ``NotImplementedError``
#: for a garbled version, compression method or flag bits.
_DAMAGED_ARCHIVE = (
    zipfile.BadZipFile, zlib.error, EOFError, KeyError, RuntimeError, ValueError
)


@contextmanager
def _open_npz(path: Path) -> Iterator[Any]:
    """``np.load`` one ``.npz`` archive; reading a damaged one raises
    :class:`~repro.errors.ModelError` naming ``path``.

    The file is opened here, not by ``np.load``, which leaves its own
    handle open when the zip directory fails to parse.
    """
    try:
        with path.open("rb") as handle, np.load(handle, allow_pickle=False) as archive:
            yield archive
    except _DAMAGED_ARCHIVE as exc:
        raise ModelError(f"{path} is a damaged archive: {exc}") from exc


def _npz_path(path: Path) -> Path:
    """np.savez appends .npz when missing; normalise the returned path."""
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _encode_header(header: Mapping[str, Any]) -> np.ndarray:
    return np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


def _decode_header(archive: Any, path: Path, expected_format: str) -> dict[str, Any]:
    try:
        header = json.loads(bytes(archive["header"].tobytes()).decode())
    except (KeyError, ValueError) as exc:
        raise ModelError(f"{path} is not a {expected_format} archive") from exc
    if not isinstance(header, dict) or header.get("format") != expected_format:
        raise ModelError(f"{path} is not a {expected_format} archive")
    return header


# -- fitted models ----------------------------------------------------------


def _model_tag(model: Any) -> str:
    from repro.core.collapsed import CollapsedJointModel
    from repro.core.variational import VariationalJointModel

    if isinstance(model, JointTextureTopicModel):
        return _MODEL_TAG_JOINT
    if isinstance(model, CollapsedJointModel):
        return _MODEL_TAG_COLLAPSED
    if isinstance(model, VariationalJointModel):
        return _MODEL_TAG_VB
    raise ModelError(f"cannot serialise model of type {type(model).__name__}")


def _config_from(config_type: type[Any], config: Any, path: Path) -> Any:
    """Rebuild a config dataclass from an archive header's ``config``.

    The keys of :data:`_DROPPED_CONFIG_KEYS` are dropped; a missing or
    non-object config and any other unknown key raise
    :class:`~repro.errors.ModelError`.
    """
    if not isinstance(config, dict):
        raise ModelError(f"{path} has no model config object")
    kwargs = {
        key: value
        for key, value in config.items()
        if key not in _DROPPED_CONFIG_KEYS
    }
    unknown = sorted(
        set(kwargs) - {field.name for field in dataclasses.fields(config_type)}
    )
    if unknown:
        raise ModelError(f"{path} has unknown model config keys {unknown}")
    return config_type(**kwargs)


def _model_for(tag: str, config: Any, path: Path) -> Any:
    from repro.core.collapsed import CollapsedJointModel
    from repro.core.variational import VariationalConfig, VariationalJointModel

    if tag == _MODEL_TAG_JOINT:
        return JointTextureTopicModel(_config_from(JointModelConfig, config, path))
    if tag == _MODEL_TAG_COLLAPSED:
        return CollapsedJointModel(_config_from(JointModelConfig, config, path))
    if tag == _MODEL_TAG_VB:
        return VariationalJointModel(_config_from(VariationalConfig, config, path))
    raise ModelError(f"unknown model class {tag!r} in archive")


def save_model(
    model: Any,
    path: str | Path,
    vocabulary: tuple[str, ...] = (),
) -> Path:
    """Serialise a fitted model (and optionally its vocabulary) to ``path``.

    Accepts any of the three inference implementations
    (:class:`~repro.core.joint_model.JointTextureTopicModel`,
    :class:`~repro.core.collapsed.CollapsedJointModel`,
    :class:`~repro.core.variational.VariationalJointModel`). Raises
    :class:`~repro.errors.ModelError` when the model is unfitted.
    """
    if model.theta_ is None:
        raise ModelError("cannot save an unfitted model")
    path = Path(path)
    header = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "model_class": _model_tag(model),
        "config": dataclasses.asdict(model.config),
        "vocabulary": list(vocabulary),
        "log_likelihoods": list(getattr(model, "log_likelihoods_", [])),
        "elbo_trace": list(getattr(model, "elbo_trace_", [])),
        "n_iter": getattr(model, "n_iter_", None),
        "fit_seconds": getattr(model, "fit_seconds_", None),
        "kernel": getattr(model.config, "kernel", None),
    }
    arrays = {
        name: np.asarray(getattr(model, name)) for name in _ARRAY_FIELDS
    }
    np.savez_compressed(path, header=_encode_header(header), **arrays)
    return _npz_path(path)


def load_model(
    path: str | Path,
) -> tuple[Any, tuple[str, ...]]:
    """Load a model saved by :func:`save_model`.

    Returns ``(model, vocabulary)``; the vocabulary is empty when none
    was stored. The model class matches what was saved: v2 archives
    restore the original inference implementation, v1 archives (which
    predate the class tag) always restore a
    :class:`~repro.core.joint_model.JointTextureTopicModel`.
    """
    path = Path(path)
    with _open_npz(path) as archive:
        header = _decode_header(archive, path, FORMAT)
        version = header.get("version")
        if version not in (1, FORMAT_VERSION):
            raise ModelError(f"unsupported archive version {version}")
        if version == 1:
            model = JointTextureTopicModel(
                _config_from(JointModelConfig, header.get("config"), path)
            )
        else:
            model = _model_for(
                header.get("model_class", ""), header.get("config"), path
            )
        for name in _ARRAY_FIELDS:
            setattr(model, name, archive[name])
        if hasattr(model, "log_likelihoods_"):
            model.log_likelihoods_ = list(header.get("log_likelihoods", []))
        if hasattr(model, "elbo_trace_"):
            model.elbo_trace_ = list(header.get("elbo_trace", []))
            if header.get("n_iter") is not None:
                model.n_iter_ = int(header["n_iter"])
        if hasattr(model, "fit_seconds_") and header.get("fit_seconds") is not None:
            model.fit_seconds_ = float(header["fit_seconds"])
    return model, tuple(header.get("vocabulary", ()))


# -- synthetic corpora ------------------------------------------------------


def corpus_body(corpus: Any) -> dict[str, Any]:
    """The JSON-ready body of a corpus, as :func:`save_corpus` writes it."""
    return {
        "format": CORPUS_FORMAT,
        "version": CORPUS_FORMAT_VERSION,
        "preset_name": corpus.preset_name,
        "recipes": [
            {
                "recipe_id": recipe.recipe_id,
                "title": recipe.title,
                "description": recipe.description,
                "ingredients": [
                    [ing.name, ing.quantity_text] for ing in recipe.ingredients
                ],
                "metadata": dict(recipe.metadata),
            }
            for recipe in corpus.recipes
        ],
        "truths": {
            recipe_id: {
                "archetype": truth.archetype,
                "dish": truth.dish,
                "gels": dict(truth.composition.gels),
                "emulsions": dict(truth.composition.emulsions),
                "profile": {
                    "hardness": truth.profile.hardness,
                    "cohesiveness": truth.profile.cohesiveness,
                    "adhesiveness": truth.profile.adhesiveness,
                    "springiness": truth.profile.springiness,
                },
                "gel_band": truth.gel_band,
                "sampled_terms": list(truth.sampled_terms),
                "topping_terms": list(truth.topping_terms),
            }
            for recipe_id, truth in corpus.truths.items()
        },
    }


def save_corpus(corpus: Any, path: str | Path) -> Path:
    """Serialise a :class:`~repro.synth.generator.SyntheticCorpus` to
    gzipped JSON at ``path``.

    One ``json.dumps`` call (the C encoder; ``json.dump`` streams through
    the pure-Python chunk iterator) and a gzip header with ``mtime=0``
    and no file name, so equal corpora are written as equal bytes.
    Level 6 rather than 9: on a 600-recipe corpus it writes about 5%
    more bytes in a third of the time.
    """
    path = Path(path)
    text = json.dumps(corpus_body(corpus))
    path.write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=6, mtime=0))
    return path


def corpus_from_body(body: Any, source: str) -> Any:
    """Rebuild a :class:`~repro.synth.generator.SyntheticCorpus` from a
    decoded :func:`corpus_body` dict (``source`` names it in errors)."""
    from repro.corpus.recipe import Ingredient, Recipe
    from repro.rheology.attributes import TextureProfile
    from repro.rheology.gel_system import Composition
    from repro.synth.generator import GroundTruth, SyntheticCorpus

    if not isinstance(body, dict) or body.get("format") != CORPUS_FORMAT:
        raise ArtifactError(f"{source} is not a {CORPUS_FORMAT} archive")
    if body.get("version") != CORPUS_FORMAT_VERSION:
        raise ArtifactError(f"unsupported corpus version {body.get('version')}")
    recipes = tuple(
        Recipe(
            recipe_id=entry["recipe_id"],
            title=entry["title"],
            description=entry["description"],
            ingredients=tuple(
                Ingredient(name=name, quantity_text=quantity)
                for name, quantity in entry["ingredients"]
            ),
            metadata=entry.get("metadata", {}),
        )
        for entry in body["recipes"]
    )
    truths = {
        recipe_id: GroundTruth(
            archetype=entry["archetype"],
            dish=entry["dish"],
            composition=Composition(
                gels=entry["gels"], emulsions=entry["emulsions"]
            ),
            profile=TextureProfile(
                hardness=entry["profile"]["hardness"],
                cohesiveness=entry["profile"]["cohesiveness"],
                adhesiveness=entry["profile"]["adhesiveness"],
                springiness=entry["profile"]["springiness"],
            ),
            gel_band=entry["gel_band"],
            sampled_terms=tuple(entry["sampled_terms"]),
            topping_terms=tuple(entry["topping_terms"]),
        )
        for recipe_id, entry in body["truths"].items()
    }
    return SyntheticCorpus(
        recipes=recipes, truths=truths, preset_name=body["preset_name"]
    )


def load_corpus(path: str | Path) -> Any:
    """Load a corpus saved by :func:`save_corpus`."""
    path = Path(path)
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            body = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path} is not a {CORPUS_FORMAT} archive") from exc
    return corpus_from_body(body, str(path))


# -- texture datasets -------------------------------------------------------


def save_dataset(dataset: Any, path: str | Path) -> Path:
    """Serialise a :class:`~repro.pipeline.dataset.TextureDataset` to a
    ``.npz`` archive at ``path``."""
    path = Path(path)
    docs = list(dataset.docs)
    offsets = np.zeros(len(docs) + 1, dtype=np.int64)
    if docs:
        offsets[1:] = np.cumsum([len(doc) for doc in docs])
        flat = (
            np.concatenate(docs).astype(np.int64)
            if offsets[-1]
            else np.empty(0, dtype=np.int64)
        )
    else:
        flat = np.empty(0, dtype=np.int64)
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_FORMAT_VERSION,
        "vocabulary": list(dataset.vocabulary),
        "excluded_terms": sorted(dataset.excluded_terms),
        "funnel": dict(dataset.funnel),
        "features": [
            {
                "recipe_id": feature.recipe_id,
                "term_counts": dict(feature.term_counts),
                "total_mass_g": feature.total_mass_g,
                "unrelated_fraction": feature.unrelated_fraction,
                "metadata": dict(feature.metadata),
            }
            for feature in dataset.features
        ],
    }
    np.savez_compressed(
        path,
        header=_encode_header(header),
        gel_log=dataset.gel_log,
        emulsion_log=dataset.emulsion_log,
        gel_raw=dataset.gel_raw,
        emulsion_raw=dataset.emulsion_raw,
        docs_flat=flat,
        doc_offsets=offsets,
    )
    return _npz_path(path)


def load_dataset(path: str | Path) -> Any:
    """Load a dataset saved by :func:`save_dataset`."""
    from repro.corpus.features import RecipeFeatures
    from repro.pipeline.dataset import TextureDataset

    path = Path(path)
    with _open_npz(path) as archive:
        try:
            header = _decode_header(archive, path, DATASET_FORMAT)
        except ModelError as exc:
            raise ArtifactError(str(exc)) from exc
        if header.get("version") != DATASET_FORMAT_VERSION:
            raise ArtifactError(
                f"unsupported dataset version {header.get('version')}"
            )
        gel_log = archive["gel_log"]
        emulsion_log = archive["emulsion_log"]
        gel_raw = archive["gel_raw"]
        emulsion_raw = archive["emulsion_raw"]
        flat = archive["docs_flat"]
        offsets = archive["doc_offsets"]
    features = tuple(
        RecipeFeatures(
            recipe_id=entry["recipe_id"],
            term_counts=entry["term_counts"],
            gel_raw=gel_raw[i],
            emulsion_raw=emulsion_raw[i],
            gel_log=gel_log[i],
            emulsion_log=emulsion_log[i],
            total_mass_g=entry["total_mass_g"],
            unrelated_fraction=entry["unrelated_fraction"],
            metadata=entry.get("metadata", {}),
        )
        for i, entry in enumerate(header["features"])
    )
    docs = tuple(
        flat[offsets[i]:offsets[i + 1]].astype(np.int64)
        for i in range(len(features))
    )
    return TextureDataset(
        features=features,
        vocabulary=tuple(header["vocabulary"]),
        docs=docs,
        gel_log=gel_log,
        emulsion_log=emulsion_log,
        gel_raw=gel_raw,
        emulsion_raw=emulsion_raw,
        excluded_terms=frozenset(header["excluded_terms"]),
        funnel=header["funnel"],
    )


# -- excluded-term sets -----------------------------------------------------


def save_excluded_terms(terms: frozenset[str], path: str | Path) -> Path:
    """Serialise the gel-relatedness filter's excluded-surface set."""
    path = Path(path)
    body = {
        "format": TERMS_FORMAT,
        "version": TERMS_FORMAT_VERSION,
        "terms": sorted(terms),
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=2)
    return path


def load_excluded_terms(path: str | Path) -> frozenset[str]:
    """Load a term set saved by :func:`save_excluded_terms`."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            body = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path} is not a {TERMS_FORMAT} file") from exc
    if not isinstance(body, dict) or body.get("format") != TERMS_FORMAT:
        raise ArtifactError(f"{path} is not a {TERMS_FORMAT} file")
    return frozenset(body["terms"])


# -- topic linkers ----------------------------------------------------------


def save_linker(linker: Any, path: str | Path) -> Path:
    """Serialise a :class:`~repro.core.linkage.TopicLinker` to ``path``."""
    path = Path(path)
    header = {
        "format": LINKER_FORMAT,
        "version": LINKER_FORMAT_VERSION,
        "point_sigma": linker.point_sigma,
    }
    np.savez_compressed(
        path,
        header=_encode_header(header),
        gel_means=linker.gel_means,
        gel_covs=linker.gel_covs,
    )
    return _npz_path(path)


def load_linker(path: str | Path) -> Any:
    """Load a linker saved by :func:`save_linker`."""
    from repro.core.linkage import TopicLinker

    path = Path(path)
    with _open_npz(path) as archive:
        try:
            header = _decode_header(archive, path, LINKER_FORMAT)
        except ModelError as exc:
            raise ArtifactError(str(exc)) from exc
        if header.get("version") != LINKER_FORMAT_VERSION:
            raise ArtifactError(
                f"unsupported linker version {header.get('version')}"
            )
        return TopicLinker.from_arrays(
            gel_means=archive["gel_means"],
            gel_covs=archive["gel_covs"],
            point_sigma=float(header["point_sigma"]),
        )
