"""Tests for repro.corpus.tokenizer."""

from repro.corpus.tokenizer import STOPWORDS, Tokenizer


class TestTokenize:
    def test_basic_split(self):
        tokens = Tokenizer().tokenize("purupuru na zerii desu")
        assert tokens == ["purupuru", "zerii"]

    def test_lowercases(self):
        assert Tokenizer().tokenize("Purupuru ZERII") == ["purupuru", "zerii"]

    def test_punctuation_ignored(self):
        assert Tokenizer().tokenize("purupuru . zerii!") == ["purupuru", "zerii"]

    def test_numbers_dropped_by_default(self):
        assert Tokenizer().tokenize("200 ml mizu") == ["ml", "mizu"]

    def test_min_length(self):
        assert Tokenizer().tokenize("x purupuru g") == ["purupuru"]

    def test_empty_input(self):
        assert Tokenizer().tokenize("") == []
        assert Tokenizer().tokenize(None) == []  # type: ignore[arg-type]

    def test_callable(self):
        tok = Tokenizer()
        assert tok("purupuru") == ["purupuru"]


def test_default_stopwords_are_particles():
    for particle in ("no", "wa", "ga", "wo", "ni", "desu"):
        assert particle in STOPWORDS
