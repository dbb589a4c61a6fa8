"""Tests for repro.synth.templates."""

from repro.corpus.tokenizer import Tokenizer
from repro.synth import templates

from repro.rng import ensure_rng


def test_pick_is_deterministic_per_rng():
    a = templates.pick(templates.INTRO_SENTENCES, ensure_rng(1))
    b = templates.pick(templates.INTRO_SENTENCES, ensure_rng(1))
    assert a == b


def test_texture_sentence_embeds_term():
    rng = ensure_rng(0)
    for _ in range(20):
        sentence = templates.sentence_for_term("purupuru", "zerii", "gelatin", rng)
        assert "purupuru" in sentence


def test_topping_sentence_keeps_term_near_topping():
    """The word2vec filter needs term and topping within one window."""
    tok = Tokenizer()
    rng = ensure_rng(0)
    for _ in range(20):
        sentence = templates.sentence_for_topping("karikari", "almond", rng)
        tokens = tok.tokenize(sentence)
        assert "karikari" in tokens and "almond" in tokens
        distance = abs(tokens.index("karikari") - tokens.index("almond"))
        assert distance <= 4


def test_all_templates_format_cleanly():
    rng = ensure_rng(0)
    for template in templates.TEXTURE_SENTENCES:
        assert "{term}" in template
        template.format(term="x", dish="y", gel="z")
    for template in templates.TOPPING_SENTENCES:
        template.format(term="x", topping="y")
    for template in templates.INTRO_SENTENCES:
        template.format(dish="y")
    for template in templates.STEP_SENTENCES:
        template.format(gel="x", emulsion="y")
    for template in templates.CLOSING_SENTENCES:
        assert "{" not in template
