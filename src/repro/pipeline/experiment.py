"""One-call experiment runner over the staged artifact pipeline.

Runs the full paper pipeline — synthesise corpus, gel-relatedness
filtering, dataset construction, joint-model fitting, linker
construction — as five explicit cached stages (see
:mod:`repro.pipeline.stages`) behind a single seeded
:func:`run_experiment`.

Caching is two-level. The in-process ``_CACHE`` (L1) memoises whole
:class:`ExperimentResult` objects per configuration, so the five
table/figure benchmarks share one fitted model within a process. The
optional ``cache_dir`` (L2) is a content-addressed
:class:`~repro.artifacts.store.ArtifactStore`: every stage output is
persisted with a provenance manifest and served from disk on the next
run — across processes, CI jobs and machines — with bit-identical
results. Editing any config knob invalidates exactly the downstream
stages and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.artifacts.store import ArtifactStore
from repro.core.joint_model import JointModelConfig
from repro.core.linkage import TopicLinker
from repro.pipeline.dataset import TextureDataset
from repro.pipeline.stages import (
    BUILD_DATASET,
    BUILD_LINKER,
    FIT_MODEL,
    SYNTH_CORPUS,
    experiment_fingerprint,
    run_staged,
)
from repro.synth.generator import SyntheticCorpus
from repro.synth.presets import CorpusPreset, DEFAULT_PRESET


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one pipeline run."""

    preset: CorpusPreset = DEFAULT_PRESET
    model: JointModelConfig = field(default_factory=JointModelConfig)
    seed: int = 20220501
    use_w2v_filter: bool = True
    use_log_transform: bool = True  # ablation B flips this
    point_sigma: float = 0.35
    #: Inference method: "gibbs" (paper), "collapsed" (Rao-Blackwellised
    #: Gibbs) or "vb" (variational CAVI).
    inference: str = "gibbs"

    def cache_key(self) -> str:
        """Content fingerprint of this configuration.

        Derived generically from ``dataclasses.fields`` (recursively
        through the preset and model configs) via
        :func:`repro.artifacts.fingerprint.fingerprint_of`, so a newly
        added config field perturbs the key automatically instead of
        silently colliding cache entries.
        """
        return experiment_fingerprint(self)


@dataclass(frozen=True)
class ExperimentResult:
    """A fitted pipeline: corpus + dataset + model + linker."""

    config: ExperimentConfig
    corpus: SyntheticCorpus
    dataset: TextureDataset
    model: Any
    linker: TopicLinker
    #: Run provenance (stage fingerprints, cache hits, timings) from the
    #: staged runner; ``None`` only for hand-assembled results.
    provenance: Mapping[str, Any] | None = field(default=None, compare=False)

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self.dataset.vocabulary

    def topic_assignments(self) -> np.ndarray:
        """Hard topic per dataset recipe (argmax θ_d)."""
        return self.model.topic_assignments()

    def truth_bands(self) -> list[str]:
        """Ground-truth gel band per dataset recipe."""
        return [
            self.corpus.truth_of(rid).gel_band for rid in self.dataset.recipe_ids
        ]


_CACHE: dict[tuple[str, str | None], ExperimentResult] = {}


def run_experiment(
    config: ExperimentConfig | None = None,
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run (or fetch from cache) one full pipeline.

    ``cache_dir`` enables the on-disk artifact store: stage outputs are
    persisted there and reused by later runs — including runs in other
    processes — with bit-identical results; a config change re-runs only
    the invalidated downstream stages. ``use_cache=False`` bypasses both
    the in-process memo and the disk store and recomputes everything.
    """
    config = config or ExperimentConfig()
    resolved = str(Path(cache_dir).resolve()) if cache_dir is not None else None
    key = (config.cache_key(), resolved)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    store = (
        ArtifactStore(cache_dir)
        if use_cache and cache_dir is not None
        else None
    )
    payloads, manifest = run_staged(config, store=store)
    result = ExperimentResult(
        config=config,
        corpus=payloads[SYNTH_CORPUS],
        dataset=payloads[BUILD_DATASET],
        model=payloads[FIT_MODEL],
        linker=payloads[BUILD_LINKER],
        provenance=manifest,
    )
    if use_cache:
        _CACHE[key] = result
    return result


def quick_config(n_recipes: int = 1500, n_sweeps: int = 300, seed: int = 11) -> ExperimentConfig:
    """A laptop-quick configuration used by examples and benches."""
    return ExperimentConfig(
        preset=CorpusPreset(name=f"quick{n_recipes}", n_recipes=n_recipes),
        model=JointModelConfig(
            n_topics=10,
            n_sweeps=n_sweeps,
            burn_in=n_sweeps // 2,
            thin=5,
        ),
        seed=seed,
    )


def clear_cache() -> None:
    """Drop all in-process cached experiment results (tests use this).

    On-disk artifact stores are unaffected; use ``repro cache gc`` for
    those.
    """
    _CACHE.clear()
