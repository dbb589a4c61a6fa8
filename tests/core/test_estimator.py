"""Tests for repro.core.estimator — fold-in texture estimation."""

import itertools

import numpy as np
import pytest
from scipy.special import gammaln, softmax

from repro.core.estimator import TextureEstimator, gibbs_fold_in
from repro.core.joint_model import JointModelConfig
from repro.core.kernels import sample_from_cumulative
from repro.corpus.recipe import Ingredient, Recipe
from repro.errors import ModelError
from repro.lexicon.categories import SensoryAxis
from repro.pipeline.experiment import ExperimentConfig, run_experiment
from repro.rng import ensure_rng
from repro.synth.presets import CorpusPreset


def oracle_fold_in(phi, alpha, log_gel, token_ids, n_sweeps, rng):
    """The per-draw numpy loop :func:`gibbs_fold_in` must equal bit for bit.

    One scalar ``rng.random()``, one ``np.cumsum`` and one
    ``searchsorted`` per draw, and one normalised conditional per kept
    sweep, added into the running sum as it is made.
    """
    n_topics = phi.shape[0]
    burn_in = n_sweeps // 3
    gel_weight = np.exp(log_gel - log_gel.max())
    z = rng.integers(0, n_topics, size=token_ids.size)
    counts = np.bincount(z, minlength=n_topics).astype(float)
    rng.integers(0, n_topics)
    accumulated = np.zeros(n_topics)
    for sweep in range(n_sweeps):
        y_weights = (alpha + counts) * gel_weight
        y = sample_from_cumulative(np.cumsum(y_weights), rng.random())
        for i in range(token_ids.size):
            counts[z[i]] -= 1.0
            base = alpha + counts
            base[y] += 1.0
            weights = base * phi[:, token_ids[i]]
            z[i] = sample_from_cumulative(np.cumsum(weights), rng.random())
            counts[z[i]] += 1.0
        if sweep >= burn_in:
            conditional = (alpha + counts) * gel_weight
            accumulated += conditional / conditional.sum()
    return accumulated / (n_sweeps - burn_in)


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


class TestMatchesOracle:
    """:func:`gibbs_fold_in` against :func:`oracle_fold_in`: the same
    posterior bits, and the generator left in the same state.

    The gel evidence buries topics under ``exp`` underflow, so some gel
    weights are exactly 0.0, and ``phi`` has zero entries, so both kinds
    of cumulative sum have flat steps.
    """

    N_SWEEPS = (1, 2, 3, 48, 100)  # burn-in 0, 0, 1, 16 and 33
    N_WORDS = 30

    def assert_same(self, n_topics, n_tokens, n_sweeps, alpha, seed):
        setup = ensure_rng(seed)
        phi = setup.dirichlet(np.full(self.N_WORDS, 0.5), size=n_topics)
        phi[setup.random(phi.shape) < 0.2] = 0.0
        log_gel = setup.normal(0.0, 2.0, size=n_topics)
        if seed % 2:
            log_gel[setup.integers(n_topics)] += 800.0  # one dominant topic
        else:
            log_gel[setup.permutation(n_topics)[: n_topics // 2]] -= 800.0
        assert (np.exp(log_gel - log_gel.max()) == 0.0).any()
        tokens = setup.integers(0, self.N_WORDS, size=n_tokens)
        expected_rng, rng = ensure_rng(seed + 1), ensure_rng(seed + 1)
        expected = oracle_fold_in(phi, alpha, log_gel, tokens, n_sweeps, expected_rng)
        posterior = gibbs_fold_in(phi, alpha, log_gel, tokens, n_sweeps, rng)
        assert posterior.dtype == expected.dtype
        assert np.array_equal(posterior, expected), (n_tokens, n_sweeps, alpha)
        assert rng.random() == expected_rng.random()

    @pytest.mark.parametrize("n_topics", [3, 6, 10, 14, 50])
    def test_grid(self, n_topics):
        """Every token count 0-20, every (sweeps, α) pair, both gel shapes."""
        alphas = (0.1, 1.0, 50.0 / n_topics)
        for n_tokens in range(21):
            for repeat in range(2):
                self.assert_same(
                    n_topics,
                    n_tokens,
                    self.N_SWEEPS[n_tokens % 5],
                    alphas[(n_tokens + repeat) % 3],
                    seed=1000 * n_topics + 2 * n_tokens + repeat,
                )

    @pytest.mark.parametrize("n_topics", [3, 10, 50])
    def test_no_tokens(self, n_topics):
        """A token-free fold-in skips its sweeps: every sweep count, α."""
        for i, n_sweeps in enumerate(self.N_SWEEPS):
            for j, alpha in enumerate((0.1, 1.0, 50.0 / n_topics)):
                self.assert_same(
                    n_topics, 0, n_sweeps, alpha, seed=7 * n_topics + 3 * i + j
                )

    @pytest.mark.parametrize("n_topics", [10, 50])
    def test_token_cap(self, n_topics):
        """256 tokens, the most a served request may fold in."""
        self.assert_same(n_topics, 256, 48, 50.0 / n_topics, seed=n_topics)
