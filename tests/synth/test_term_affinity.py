"""Tests for repro.synth.term_affinity."""

import numpy as np
import pytest

from repro.lexicon.categories import AXES, SensoryAxis
from repro.lexicon.term import TextureTerm
from repro.rheology.attributes import TextureProfile
from repro.rng import ensure_rng
from repro.synth.term_affinity import (
    DEFAULT_SHARPNESS,
    axis_signals,
    crispy_terms,
    polarity_matrix,
    sample_terms,
    term_distribution,
)

HARD = TextureProfile(hardness=6.0, cohesiveness=0.1, adhesiveness=0.1)
SOFT = TextureProfile(hardness=0.05, cohesiveness=0.3, adhesiveness=0.05)
STICKY = TextureProfile(hardness=1.2, cohesiveness=0.4, adhesiveness=3.0)


def term_score(term: TextureTerm, signals: dict[SensoryAxis, float]) -> float:
    """Oracle: one term's agreement with the axis signals, as a scalar sum."""
    return float(sum(term.polarity_on(axis) * signals[axis] for axis in AXES))


def scalar_distribution(
    terms: tuple[TextureTerm, ...],
    profile: TextureProfile,
    sharpness: float = DEFAULT_SHARPNESS,
) -> np.ndarray:
    """Oracle: the softmax over per-term scalar scores."""
    signals = axis_signals(profile)
    logits = sharpness * np.array([term_score(t, signals) for t in terms])
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


class TestSignals:
    def test_signals_bounded(self):
        for profile in (HARD, SOFT, STICKY):
            for value in axis_signals(profile).values():
                assert -1.0 <= value <= 1.0

    def test_hard_profile_positive_hardness_signal(self):
        assert axis_signals(HARD)[SensoryAxis.HARDNESS] > 0.8

    def test_soft_profile_negative_hardness_signal(self):
        assert axis_signals(SOFT)[SensoryAxis.HARDNESS] < -0.5

    def test_sticky_profile_positive_adhesiveness_signal(self):
        assert axis_signals(STICKY)[SensoryAxis.ADHESIVENESS] > 0.8


class TestScoring:
    """Softmax is monotone in the score, so a better-matched term gets
    more probability mass."""

    @staticmethod
    def _prefers(dictionary, profile, better, worse):
        pair = (dictionary[better], dictionary[worse])
        dist = term_distribution(pair, profile)
        return dist[0] > dist[1]

    def test_matched_term_scores_high(self, dictionary):
        assert self._prefers(dictionary, HARD, "katai", "fuwafuwa")

    def test_soft_profile_prefers_soft_terms(self, dictionary):
        assert self._prefers(dictionary, SOFT, "fuwafuwa", "katai")

    def test_sticky_profile_prefers_sticky_terms(self, dictionary):
        assert self._prefers(dictionary, STICKY, "nettori", "karat")


class TestDistribution:
    def test_distribution_sums_to_one(self, dictionary):
        dist = term_distribution(dictionary.gel_related(), HARD)
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_sharpness_concentrates(self, dictionary):
        terms = dictionary.gel_related()
        flat = term_distribution(terms, HARD, sharpness=0.5)
        sharp = term_distribution(terms, HARD, sharpness=8.0)
        assert sharp.max() > flat.max()

    def test_empty_terms_raise(self):
        with pytest.raises(ValueError):
            term_distribution((), HARD)

    @pytest.mark.parametrize("sharpness", [DEFAULT_SHARPNESS, 3.0, 0.5])
    def test_matches_scalar_softmax_bit_for_bit(self, dictionary, sharpness):
        """The polarity-matrix scores add the axes in the scalar sum's
        order, so the sampling distribution (and every draw from it)
        is exactly the per-term softmax's."""
        terms = dictionary.gel_related()
        gen = ensure_rng(20220501)
        for hardness, cohesiveness, adhesiveness in zip(
            gen.lognormal(0.0, 1.2, 200),
            gen.uniform(0.01, 0.95, 200),
            gen.lognormal(-1.0, 1.2, 200),
        ):
            profile = TextureProfile(
                hardness=float(hardness),
                cohesiveness=float(cohesiveness),
                adhesiveness=float(adhesiveness),
            )
            assert np.array_equal(
                term_distribution(terms, profile, sharpness),
                scalar_distribution(terms, profile, sharpness),
            )

    def test_polarity_matrix_built_once_per_tuple(self, dictionary):
        terms = dictionary.gel_related()
        matrix = polarity_matrix(terms)
        assert matrix.shape == (len(terms), len(AXES))
        assert polarity_matrix(terms) is matrix
        assert np.array_equal(matrix, [term.as_vector() for term in terms])
        # a distinct tuple of the same terms gets its own, equal matrix
        assert np.array_equal(polarity_matrix(dictionary.gel_related()), matrix)


class TestSampling:
    def test_sample_count(self, dictionary, rng):
        terms = sample_terms(dictionary.gel_related(), HARD, 5, rng)
        assert len(terms) == 5

    def test_zero_samples(self, dictionary, rng):
        assert sample_terms(dictionary.gel_related(), HARD, 0, rng) == []

    def test_hard_profile_samples_hard_terms(self, dictionary, rng):
        terms = sample_terms(dictionary.gel_related(), HARD, 200, rng)
        mean_polarity = np.mean(
            [t.polarity_on(SensoryAxis.HARDNESS) for t in terms]
        )
        assert mean_polarity > 0.2

    def test_soft_profile_samples_soft_terms(self, dictionary, rng):
        terms = sample_terms(dictionary.gel_related(), SOFT, 200, rng)
        mean_polarity = np.mean(
            [t.polarity_on(SensoryAxis.HARDNESS) for t in terms]
        )
        assert mean_polarity < -0.2


class TestCrispyTerms:
    def test_all_non_gel_reduplicated(self, dictionary):
        for term in crispy_terms(tuple(dictionary)):
            assert not term.gel_related
            assert term.surface == term.base + term.base

    def test_karikari_included(self, dictionary):
        surfaces = {t.surface for t in crispy_terms(tuple(dictionary))}
        assert "karikari" in surfaces
        assert "sakusaku" in surfaces

    def test_gel_terms_never_included(self, dictionary):
        surfaces = {t.surface for t in crispy_terms(tuple(dictionary))}
        assert "purupuru" not in surfaces
        assert "katai" not in surfaces
