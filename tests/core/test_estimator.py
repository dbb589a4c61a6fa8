"""Tests for repro.core.estimator — fold-in texture estimation."""

import itertools

import numpy as np
import pytest
from scipy.special import gammaln, softmax

from repro.core.estimator import TextureEstimator, gibbs_fold_in
from repro.core.joint_model import JointModelConfig
from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import ModelError
from repro.lexicon.categories import SensoryAxis
from repro.pipeline.experiment import ExperimentConfig, run_experiment
from repro.rng import ensure_rng
from repro.synth.presets import CorpusPreset


@pytest.fixture(scope="module")
def estimator():
    config = ExperimentConfig(
        preset=CorpusPreset(name="estimator-test", n_recipes=1200),
        model=JointModelConfig(n_topics=10, n_sweeps=120, burn_in=60, thin=4),
        seed=11,
        use_w2v_filter=False,
    )
    return TextureEstimator(run_experiment(config))


def recipe(rid, ingredients, description="oishii dessert desu"):
    return Recipe(
        recipe_id=rid,
        title=rid,
        description=description,
        ingredients=tuple(Ingredient(n, q) for n, q in ingredients),
    )


class TestConstruction:
    def test_unfitted_model_rejected(self):
        class FakeResult:
            class model:
                theta_ = None

            linker = None
            vocabulary = ()

        with pytest.raises(ModelError):
            TextureEstimator(FakeResult())


class TestEstimate:
    def test_posterior_is_distribution(self, estimator):
        r = recipe("p1", [("gelatin", "5 g"), ("water", "300 ml")])
        estimate = estimator.estimate(r)
        assert estimate.topic_distribution.sum() == pytest.approx(1.0)
        assert np.all(estimate.topic_distribution >= 0)

    def test_cold_start_soft_jelly(self, estimator, dictionary):
        """No texture words: estimate from concentrations alone."""
        r = recipe(
            "soft",
            [("gelatin", "3 g"), ("juice", "450 ml"), ("sugar", "oosaji 2")],
        )
        estimate = estimator.estimate(r)
        polarity = np.mean(
            [
                dictionary[s].polarity_on(SensoryAxis.HARDNESS) * p
                for s, p in estimate.predicted_terms
                if s in dictionary
            ]
        )
        assert polarity < 0.02  # soft-leaning terms

    def test_cold_start_hard_kanten(self, estimator, dictionary):
        r = recipe(
            "hard",
            [("kanten", "8 g"), ("water", "400 ml"), ("sugar", "60 g")],
        )
        estimate = estimator.estimate(r)
        top = [s for s, _ in estimate.predicted_terms[:5] if s in dictionary]
        signs = [dictionary[s].sign_on(SensoryAxis.HARDNESS) for s in top]
        assert sum(signs) > 0  # hard-leaning terms

    def test_kanten_links_to_kanten_settings(self, estimator):
        r = recipe(
            "hard2",
            [("kanten", "7 g"), ("water", "400 ml"), ("sugar", "50 g")],
        )
        estimate = estimator.estimate(r)
        if estimate.linked_settings:  # kanten rows are 6-9
            assert {s.data_id for s in estimate.linked_settings} <= {6, 7, 8, 9}
            rheology = estimate.expected_rheology()
            assert rheology is not None and rheology.hardness > 1.5

    def test_description_terms_shift_posterior(self, estimator):
        base = [("gelatin", "4 g"), ("agar", "4 g"), ("water", "400 ml")]
        plain = estimator.estimate(recipe("m1", base))
        hinted = estimator.estimate(
            recipe("m2", base, description="purupuru ni katamarimashita")
        )
        if "purupuru" in estimator.vocabulary:
            k = plain.topic_distribution.argmax()
            # evidence must not reduce the purupuru-topic posterior
            phi = np.asarray(estimator.model.phi_)
            term_id = estimator.vocabulary.index("purupuru")
            best_topic = int(phi[:, term_id].argmax())
            assert (
                hinted.topic_distribution[best_topic]
                >= plain.topic_distribution[best_topic] - 1e-9
            )

    def test_top_term_accessor(self, estimator):
        r = recipe("t", [("gelatin", "5 g"), ("water", "300 ml")])
        estimate = estimator.estimate(r)
        assert estimate.top_term == estimate.predicted_terms[0][0]

    def test_expected_rheology_none_when_unlinked(self, estimator):
        # find any estimate with no linked settings, or skip
        r = recipe(
            "mix",
            [("gelatin", "4 g"), ("agar", "4 g"), ("water", "400 ml")],
        )
        estimate = estimator.estimate(r)
        if not estimate.linked_settings:
            assert estimate.expected_rheology() is None


class TestGibbsFoldIn:
    """The fold-in against exact enumeration on a hand-made K=3, V=4 model.

    θ ~ Dir(α) is shared by the tokens' topics z and the concentration
    topic y, so p(y=k | w, g) ∝ p(g | k) · (α + E[n_k | w]), where the
    expectation is over p(z | w) ∝ ∏_k Γ(α + n_k) · ∏_i φ[z_i, w_i].
    """

    PHI = np.array(
        [
            [0.70, 0.10, 0.10, 0.10],
            [0.10, 0.60, 0.20, 0.10],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    ALPHA = 1.0  # the joint model's default
    GELS = {
        "flat": np.zeros(3),
        "skewed": np.array([-0.5, 0.0, -2.0]),
    }
    TOKENS = [(), (0,), (1, 3), (0, 1, 2), (1, 1, 0, 3)]

    def exact(self, log_gel, tokens):
        n_topics = self.PHI.shape[0]
        weights, counts = [], []
        for z in itertools.product(range(n_topics), repeat=len(tokens)):
            n = np.bincount(np.array(z, dtype=int), minlength=n_topics)
            weights.append(
                np.exp(gammaln(self.ALPHA + n).sum())
                * np.prod([self.PHI[k, w] for k, w in zip(z, tokens)])
            )
            counts.append(n)
        expected = np.average(counts, axis=0, weights=weights)
        posterior = np.exp(log_gel) * (self.ALPHA + expected)
        return posterior / posterior.sum()

    def fold_in(self, log_gel, tokens, n_sweeps):
        return gibbs_fold_in(
            self.PHI,
            self.ALPHA,
            log_gel,
            np.array(tokens, dtype=np.int64),
            n_sweeps,
            ensure_rng(2022),
        )

    @pytest.mark.parametrize("gel", sorted(GELS))
    def test_no_tokens_is_the_gel_softmax(self, gel):
        log_gel = self.GELS[gel]
        posterior = self.fold_in(log_gel, (), 48)
        np.testing.assert_allclose(posterior, softmax(log_gel), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            self.exact(log_gel, ()), softmax(log_gel), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("tokens", TOKENS[1:], ids=str)
    @pytest.mark.parametrize("gel", sorted(GELS))
    def test_matches_exact_enumeration(self, gel, tokens):
        log_gel = self.GELS[gel]
        posterior = self.fold_in(log_gel, tokens, 4000)
        assert posterior.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(
            posterior, self.exact(log_gel, tokens), rtol=0, atol=0.02
        )
