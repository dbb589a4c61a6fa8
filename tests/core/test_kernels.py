"""Tests for repro.core.kernels — the shared token-sampling layer.

The load-bearing guarantees:

* the dense kernel is **bit-identical** to the legacy per-token numpy
  loop (same uniforms, same order, same IEEE operations) for all three
  samplers, across seeds and for fractional ``α`` (the unfused path);
  the loop lives in :mod:`tests.core.legacy_kernel` as the oracle;
* the alias kernel is statistically equivalent — it recovers the same
  partition the dense kernel does, and its MH acceptance targets the
  exact conditional however stale its tables are;
* both kernels keep the count state internally consistent, including
  on empty and single-topic documents;
* the CSR flattening round-trips ragged corpora, including empty docs;
* :func:`sample_from_cumulative` clamps boundary draws into range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import collapsed, joint_model, lda
from repro.core.joint_model import JointModelConfig, JointTextureTopicModel
from repro.core.kernels import (
    KERNEL_CHOICES,
    KERNELS,
    AliasKernel,
    CSRTokens,
    DenseKernel,
    build_alias_table,
    make_kernel,
    sample_from_cumulative,
    select_kernel,
)
from repro.core.lda import LatentDirichletAllocation, LDAConfig
from repro.core.priors import DirichletPrior
from repro.core.state import TopicCounts, initialise_assignments
from repro.errors import ModelError
from repro.eval.metrics import normalized_mutual_information
from repro.rng import ensure_rng

from .legacy_kernel import LegacyKernel
from .test_joint_model import synthetic_joint_data


def synthetic_docs(rng, n_docs=60):
    """Ragged docs over three word ranges, with a sprinkle of empties."""
    docs = []
    for i in range(n_docs):
        if i % 17 == 0:
            docs.append(np.array([], dtype=np.int64))
            continue
        lo = (i % 3) * 3
        docs.append(rng.integers(lo, lo + 3, size=int(rng.integers(1, 7))))
    return docs


# -- sample_from_cumulative clamp --------------------------------------------


class TestSampleFromCumulative:
    def test_interior_draw(self):
        cumulative = np.array([0.25, 0.5, 0.75, 1.0])
        assert sample_from_cumulative(cumulative, 0.0) == 0
        assert sample_from_cumulative(cumulative, 0.6) == 2

    def test_boundary_uniform_is_clamped(self):
        """A uniform at (or rounding to) 1.0 must stay inside [0, K-1].

        With trailing zero-weight topics the cumulative ends in repeated
        values; ``searchsorted`` on target == cumulative[-1] lands on
        the *first* repeat, and a target strictly above every entry
        would land at K. Both must come back clamped.
        """
        flat_tail = np.array([0.5, 1.0, 1.0, 1.0])
        assert sample_from_cumulative(flat_tail, 1.0) == 1
        assert sample_from_cumulative(flat_tail, 1.0 - 1e-16) == 1
        one_hot = np.array([0.0, 0.0, 1.0])
        assert sample_from_cumulative(one_hot, 1.0) == 2
        # a degenerate all-zero cumulative must not index past the end
        assert sample_from_cumulative(np.zeros(3), 0.7) in range(3)

    def test_matches_manual_inverse_cdf(self, rng):
        weights = rng.random(10)
        cumulative = np.cumsum(weights)
        for u in rng.random(50):
            k = sample_from_cumulative(cumulative, u)
            target = u * cumulative[-1]
            # smallest index whose cumulative weight covers the target
            assert cumulative[k] >= target
            assert k == 0 or cumulative[k - 1] < target


# -- CSR flattening ----------------------------------------------------------


class TestCSRTokens:
    def test_round_trip_with_empty_docs(self, rng):
        docs = synthetic_docs(rng)
        csr = CSRTokens.from_docs(docs)
        assert csr.n_docs == len(docs)
        assert csr.n_tokens == sum(len(d) for d in docs)
        for original, words in zip(docs, csr.words_per_doc()):
            assert words.tolist() == list(original)

    def test_topics_round_trip(self, rng):
        docs = synthetic_docs(rng)
        z = [rng.integers(0, 4, size=len(d)) for d in docs]
        csr = CSRTokens.from_docs(docs, z)
        for original, topics in zip(z, csr.topics_per_doc()):
            assert topics.tolist() == list(original)

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                         max_size=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, lengths, seed):
        generator = ensure_rng(seed)
        docs = [generator.integers(0, 11, size=n) for n in lengths]
        csr = CSRTokens.from_docs(docs)
        offsets = csr.doc_offsets
        assert offsets.dtype == np.int32
        assert csr.token_words.dtype == np.int32
        assert list(np.diff(offsets)) == lengths
        rebuilt = csr.words_per_doc()
        assert all(
            r.tolist() == d.tolist() for r, d in zip(rebuilt, docs)
        )

    def test_mismatched_counts_rejected(self, rng):
        docs = synthetic_docs(rng)
        csr = CSRTokens.from_docs(docs)
        counts = TopicCounts(len(docs) + 1, 4, 9)
        with pytest.raises(ModelError):
            DenseKernel(csr, counts, DirichletPrior(1.0).vector(4), 0.1)


# -- kernel-level bit-identity ----------------------------------------------


def _build_kernel(name, docs, vocab_size, n_topics, seed, alpha=1.0):
    """A kernel over a freshly initialised state; ``"legacy"`` builds
    the test-only oracle, any other name goes through make_kernel."""
    generator = ensure_rng(seed)
    counts = TopicCounts(len(docs), n_topics, vocab_size)
    z = initialise_assignments(docs, counts, generator)
    args = (
        CSRTokens.from_docs(docs, z), counts,
        DirichletPrior(alpha).vector(n_topics), 0.1,
    )
    if name == "legacy":
        return LegacyKernel(*args), generator
    return make_kernel(name, *args), generator


def _fit_dense_and_legacy(monkeypatch, module, fit):
    """Run ``fit`` with the default dense kernel, then again with the
    legacy oracle injected through ``module.make_kernel``."""
    built = []

    def legacy_make_kernel(name, csr, counts, alpha, gamma):
        assert name == "dense"
        built.append(name)
        return LegacyKernel(csr, counts, alpha, gamma)

    dense = fit()
    with monkeypatch.context() as patch:
        patch.setattr(module, "make_kernel", legacy_make_kernel)
        legacy = fit()
    assert built, "the legacy oracle was never injected"
    return dense, legacy


class TestDenseBitIdentity:
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_sweeps_match_legacy_exactly(self, rng, seed, alpha):
        """Same uniforms, same z trajectory, same counts — bitwise.

        α = 1.0 exercises the fused integer-α fast path, α = 0.5 the
        unfused fallback; both must match the legacy loop exactly.
        """
        docs = synthetic_docs(rng)
        y = ensure_rng(seed).integers(0, 4, size=len(docs))
        dense, gen_d = _build_kernel("dense", docs, 9, 4, seed, alpha)
        legacy, gen_l = _build_kernel("legacy", docs, 9, 4, seed, alpha)
        assert isinstance(dense, DenseKernel)
        assert isinstance(legacy, LegacyKernel)
        for sweep in range(4):
            y_arg = None if sweep % 2 else y  # both LDA and joint paths
            dense.sweep(gen_d, y_arg)
            legacy.sweep(gen_l, y_arg)
            assert np.array_equal(
                dense.csr.token_topics, legacy.csr.token_topics
            )
            assert np.array_equal(dense.counts.n_dk, legacy.counts.n_dk)
            assert np.array_equal(dense.counts.n_kv, legacy.counts.n_kv)
            assert np.array_equal(dense.counts.n_k, legacy.counts.n_k)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_sweep_leaves_the_generator_where_per_document_draws_do(
        self, rng, alpha
    ):
        """One ``random(n_tokens)`` per sweep is the stream of one
        ``random(len(doc))`` per document, empty documents included, and
        leaves a pending 32-bit half-word alone."""
        docs = synthetic_docs(rng)
        dense, gen_d = _build_kernel("dense", docs, 9, 4, 5, alpha)
        legacy, gen_l = _build_kernel("legacy", docs, 9, 4, 5, alpha)
        for gen in (gen_d, gen_l):
            gen.integers(0, 7)  # leaves a buffered 32-bit half-word
        for _ in range(3):
            dense.sweep(gen_d)
            legacy.sweep(gen_l)
            assert gen_d.bit_generator.state == gen_l.bit_generator.state
            assert gen_d.integers(0, 7) == gen_l.integers(0, 7)

    def test_fused_path_selected_only_for_integer_alpha(self, rng):
        docs = synthetic_docs(rng)
        fused, _ = _build_kernel("dense", docs, 9, 4, 0, alpha=2.0)
        unfused, _ = _build_kernel("dense", docs, 9, 4, 0, alpha=0.25)
        assert fused._fused
        assert not unfused._fused

    @pytest.mark.parametrize("seed", [3, 11])
    def test_joint_model_fit_bit_identical(self, monkeypatch, seed):
        rng = ensure_rng(seed)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        config = JointModelConfig(n_topics=3, n_sweeps=20, burn_in=10, thin=2)
        dense, legacy = _fit_dense_and_legacy(
            monkeypatch,
            joint_model,
            lambda: JointTextureTopicModel(config).fit(
                docs, gels, emulsions, vocab_size=9, rng=seed
            ),
        )
        assert np.array_equal(dense.phi_, legacy.phi_)
        assert np.array_equal(dense.theta_, legacy.theta_)
        assert np.array_equal(dense.y_, legacy.y_)
        assert dense.log_likelihoods_ == legacy.log_likelihoods_

    @pytest.mark.parametrize("seed", [3, 11])
    def test_lda_fit_bit_identical(self, monkeypatch, rng, seed):
        docs = synthetic_docs(rng)
        config = LDAConfig(n_topics=4, n_sweeps=20, burn_in=10, thin=2)
        dense, legacy = _fit_dense_and_legacy(
            monkeypatch,
            lda,
            lambda: LatentDirichletAllocation(config).fit(
                docs, vocab_size=9, rng=seed
            ),
        )
        assert np.array_equal(dense.phi_, legacy.phi_)
        assert np.array_equal(dense.theta_, legacy.theta_)

    def test_collapsed_fit_bit_identical(self, monkeypatch):
        rng = ensure_rng(7)
        docs, gels, emulsions, _ = synthetic_joint_data(rng, n_docs=45)
        config = JointModelConfig(n_topics=3, n_sweeps=16, burn_in=8, thin=2)
        dense, legacy = _fit_dense_and_legacy(
            monkeypatch,
            collapsed,
            lambda: collapsed.CollapsedJointModel(config).fit(
                docs, gels, emulsions, vocab_size=9, rng=7
            ),
        )
        assert np.array_equal(dense.phi_, legacy.phi_)
        assert np.array_equal(dense.y_, legacy.y_)
        assert dense.log_likelihoods_ == legacy.log_likelihoods_


# -- boundary cases, both kernels ---------------------------------------------


@pytest.mark.parametrize("name", ["dense", "alias"])
class TestKernelBoundaries:
    def test_all_empty_docs(self, name):
        """Zero-token documents: sweeps must leave empty counts intact."""
        docs = [np.array([], dtype=np.int64) for _ in range(5)]
        kernel, generator = _build_kernel(name, docs, 9, 4, 0)
        y = ensure_rng(0).integers(0, 4, size=len(docs))
        for sweep in range(3):
            kernel.sweep(generator, None if sweep % 2 else y)
            kernel.counts.check()
        assert kernel.counts.n_k.sum() == 0

    def test_single_topic_doc(self, name):
        """A document whose tokens all share one topic: removing a token
        may drive that topic's doc count to zero mid-document, and the
        count state must stay exact on both paths."""
        docs = [np.array([0, 1, 2, 0, 1], dtype=np.int64),
                np.array([3], dtype=np.int64)]
        counts = TopicCounts(len(docs), 4, 9)
        z = [np.full(len(d), 2, dtype=np.int64) for d in docs]
        for d, (doc, zs) in enumerate(zip(docs, z)):
            for v, k in zip(doc, zs):
                counts.n_dk[d, k] += 1
                counts.n_kv[k, v] += 1
                counts.n_k[k] += 1
                counts.n_d[d] += 1
        csr = CSRTokens.from_docs(docs, z)
        kernel = make_kernel(
            name, csr, counts, DirichletPrior(0.5).vector(4), 0.1
        )
        generator = ensure_rng(3)
        y = np.array([2, 1])
        for sweep in range(6):
            kernel.sweep(generator, None if sweep % 2 else y)
            kernel.counts.check()
        assert kernel.counts.n_k.sum() == csr.n_tokens


# -- alias kernel -------------------------------------------------------------


class TestAliasKernel:
    def test_counts_stay_consistent(self, rng):
        docs = synthetic_docs(rng)
        y = ensure_rng(0).integers(0, 4, size=len(docs))
        kernel, generator = _build_kernel("alias", docs, 9, 4, 0)
        assert isinstance(kernel, AliasKernel)
        for sweep in range(6):
            kernel.sweep(generator, None if sweep % 2 else y)
            kernel.counts.check()
        assert kernel.counts.n_k.sum() == kernel.csr.n_tokens

    def test_matches_dense_partition(self):
        """Alias/MH recovers the dense partition (NMI) over three
        seeds, through the :func:`run_chains` restart harness a real
        fit takes."""
        from repro.core.collapsed import CollapsedJointModel
        from repro.core.joint_model import run_chains

        rng = ensure_rng(1)
        docs, gels, emulsions, truth = synthetic_joint_data(rng, n_docs=90)
        assignments = {}
        for kernel in ("dense", "alias"):
            config = JointModelConfig(
                n_topics=3, n_sweeps=40, burn_in=20, thin=2, kernel=kernel
            )
            chains = run_chains(
                CollapsedJointModel, config, docs, gels, emulsions,
                vocab_size=9, n_chains=3, rng=2,
            )
            assignments[kernel] = [
                chain.topic_assignments() for chain, _ in chains
            ]
        for dense_z, alias_z in zip(
            assignments["dense"], assignments["alias"]
        ):
            assert normalized_mutual_information(dense_z, alias_z) > 0.8
            assert normalized_mutual_information(alias_z, truth) > 0.8

    def test_alias_refresh_validation(self, rng):
        docs = synthetic_docs(rng)
        counts = TopicCounts(len(docs), 4, 9)
        generator = ensure_rng(0)
        z = initialise_assignments(docs, counts, generator)
        with pytest.raises(ModelError):
            AliasKernel(
                CSRTokens.from_docs(docs, z), counts,
                DirichletPrior(1.0).vector(4), 0.1, alias_refresh=0,
            )

    def test_empty_docs_consume_no_randomness(self):
        docs = [np.array([], dtype=np.int64) for _ in range(4)]
        kernel, generator = _build_kernel("alias", docs, 9, 3, 0)
        kernel.sweep(generator)
        kernel.counts.check()
        assert kernel.counts.n_k.sum() == 0

    @staticmethod
    def _stale_fixture(stale_weights):
        """One token of word 0 over phantom background counts, with the
        word-proposal table deliberately built from ``stale_weights``
        instead of the live counts (and a refresh budget that never
        triggers a rebuild)."""
        docs = [np.array([0], dtype=np.int64)]
        counts = TopicCounts(1, 3, 3)
        generator = ensure_rng(5)
        z = initialise_assignments(docs, counts, generator)
        # Phantom corpus: fixed background counts the single token sits
        # on top of, so its exact conditional is non-trivial and
        # constant across sweeps.
        background = np.array(
            [[50, 5, 5], [5, 30, 5], [2, 2, 20]], dtype=counts.n_kv.dtype
        )
        counts.n_kv += background
        counts.n_k += background.sum(axis=1)
        alpha = np.array([0.5, 1.0, 2.0])
        kernel = AliasKernel(
            CSRTokens.from_docs(docs, z), counts, alpha, 0.1,
            alias_refresh=10**9,
        )
        prob, alias = [1.0] * 3, [0, 1, 2]
        build_alias_table(stale_weights, prob, alias)
        kernel._wprob[0] = prob
        kernel._walias[0] = alias
        kernel._wweight[0] = list(stale_weights)
        kernel._wage[0] = 0
        # Exact conditional with the token removed: the background is
        # all that remains, so p(k) ∝ α_k (n_kv+γ)/(n_k+γV) is fixed.
        v_total = 0.1 * 3
        weights = alpha * (background[:, 0] + 0.1) / (
            background.sum(axis=1) + v_total
        )
        return kernel, generator, weights / weights.sum()

    @pytest.mark.parametrize(
        "stale_weights",
        [[0.7, 0.2, 0.1], [0.05, 0.05, 0.9], [1.0, 1.0, 1.0]],
    )
    def test_mh_targets_exact_conditional_despite_stale_tables(
        self, stale_weights
    ):
        """Chi-square: however wrong the stale proposal is, the MH
        acceptance must leave the chain targeting the exact collapsed
        conditional. Word and doc proposals alternate across sweeps, so
        both cycles are exercised."""
        kernel, generator, expected = self._stale_fixture(stale_weights)
        n_sweeps, thin = 30000, 3
        hits = np.zeros(3)
        for sweep in range(n_sweeps):
            kernel.sweep(generator)
            if sweep % thin == 0:
                hits[kernel._topics[0]] += 1
        # table never rebuilt: the proposal stayed stale throughout
        assert kernel._wweight[0] == list(stale_weights)
        n = hits.sum()
        chi2 = float((((hits - n * expected) ** 2) / (n * expected)).sum())
        # df=2 critical value at p=0.001 is 13.8; thinned MH samples are
        # still mildly correlated, so allow generous headroom.
        assert chi2 < 25.0, (hits / n, expected)

    def test_word_tables_refresh_on_budget(self, rng):
        docs = synthetic_docs(rng, n_docs=40)
        counts = TopicCounts(len(docs), 4, 9)
        generator = ensure_rng(2)
        z = initialise_assignments(docs, counts, generator)
        kernel = AliasKernel(
            CSRTokens.from_docs(docs, z), counts,
            DirichletPrior(1.0).vector(4), 0.1, alias_refresh=1,
        )
        before = kernel.alias_refreshes
        kernel.sweep(generator)
        assert kernel.alias_refreshes > before


# -- wiring -------------------------------------------------------------------


class TestKernelSelection:
    def test_unknown_kernel_rejected_everywhere(self, rng):
        docs = synthetic_docs(rng)
        counts = TopicCounts(len(docs), 4, 9)
        generator = ensure_rng(0)
        z = initialise_assignments(docs, counts, generator)
        # "blas" never existed; the other three are retired kernels
        for name in ("blas", "legacy", "sparse", "adlda"):
            with pytest.raises(ModelError):
                LDAConfig(kernel=name)
            with pytest.raises(ModelError):
                JointModelConfig(kernel=name)
            with pytest.raises(ModelError):
                make_kernel(
                    name, CSRTokens.from_docs(docs, z), counts,
                    DirichletPrior(1.0).vector(4), 0.1,
                )

    def test_kernel_names_exported(self):
        assert KERNELS == ("alias", "dense")
        assert KERNEL_CHOICES == ("alias", "dense", "auto")

    def test_auto_accepted_by_configs(self):
        assert LDAConfig(kernel="auto").kernel == "auto"
        assert JointModelConfig(kernel="auto").kernel == "auto"

    def test_auto_decision_table(self):
        """Pins the ``kernel="auto"`` policy. Re-derive from
        ``BENCH_sampler.json`` before moving any of these cells."""
        # K ≤ 24 → dense, the bit-identical default
        assert select_kernel(1) == "dense"
        assert select_kernel(10) == "dense"
        assert select_kernel(24) == "dense"
        # larger K → alias, with no table-footprint fallback
        assert select_kernel(25) == "alias"
        assert select_kernel(50) == "alias"
        assert select_kernel(200) == "alias"
        assert select_kernel(1000) == "alias"

    def test_make_kernel_auto_resolves(self, rng):
        docs = synthetic_docs(rng)
        counts = TopicCounts(len(docs), 4, 9)
        generator = ensure_rng(0)
        z = initialise_assignments(docs, counts, generator)
        kernel = make_kernel(
            "auto", CSRTokens.from_docs(docs, z), counts,
            DirichletPrior(1.0).vector(4), 0.1,
        )
        assert isinstance(kernel, DenseKernel)  # K=4 ≤ 24

    def test_cli_kernel_flag_reaches_config(self):
        import argparse

        from repro.cli import _apply_parallel_options
        from repro.pipeline.experiment import quick_config

        args = argparse.Namespace(workers=1, restarts=1, kernel="alias")
        config = _apply_parallel_options(quick_config(100, 20, 1), args)
        assert config.model.kernel == "alias"
