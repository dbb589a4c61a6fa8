"""Tests for repro.eval.rules — concentration→texture rule mining."""

import pytest

from repro.errors import ReproError
from repro.eval.rules import RuleMiner


@pytest.fixture(scope="module")
def rules(tiny_dataset_module):
    return RuleMiner(min_support=8, min_effect=0.8).mine(tiny_dataset_module)


@pytest.fixture(scope="module")
def tiny_dataset_module():
    from repro.pipeline.dataset import DatasetBuilder
    from repro.synth.generator import CorpusGenerator
    from repro.synth.presets import CorpusPreset

    corpus = CorpusGenerator(rng=123).generate(
        CorpusPreset(name="rules-test", n_recipes=900)
    )
    return DatasetBuilder(use_w2v_filter=False).build(corpus.recipes, rng=7)


class TestMiner:
    def test_finds_rules(self, rules):
        assert len(rules) > 5

    def test_sorted_by_effect(self, rules):
        effects = [r.effect_size for r in rules]
        assert effects == sorted(effects, reverse=True)

    def test_support_respected(self, rules):
        assert all(r.support >= 8 for r in rules)

    def test_effect_threshold_respected(self, rules):
        assert all(r.effect_size >= 0.8 for r in rules)

    def test_purupuru_needs_gelatin_and_agar(self, rules):
        """The signature mixed-gel texture must surface as rules."""
        purupuru = [r for r in rules if r.term == "purupuru"]
        positive = {
            r.ingredient for r in purupuru if r.direction > 0
        }
        assert "agar" in positive or "gelatin" in positive

    def test_directions_are_signed(self, rules):
        assert {r.direction for r in rules} <= {-1, 1}

    def test_positive_direction_means_higher_concentration(self, rules):
        for rule in rules:
            if rule.direction > 0:
                assert rule.mean_with > rule.mean_without
            else:
                assert rule.mean_with < rule.mean_without

    def test_render(self, rules):
        text = RuleMiner.render(rules, limit=5)
        assert text.count("\n") <= 4
        assert "recipes use" in text

    def test_render_empty(self):
        assert "no rules" in RuleMiner.render([])

    def test_min_support_validation(self):
        with pytest.raises(ReproError):
            RuleMiner(min_support=1)
