"""Description tokenisation.

The synthetic corpus is written in romanised Japanese, so tokenisation is
whitespace/punctuation splitting plus lower-casing — the morphological
heavy lifting a Japanese pipeline needs (MeCab et al.) is already done by
generating space-separated text. A small particle stopword list keeps the
word2vec vocabulary from being dominated by grammar.
"""

from __future__ import annotations

import re

#: Romanised Japanese particles and recipe boilerplate.
STOPWORDS: frozenset[str] = frozenset(
    {
        "no", "wa", "ga", "wo", "ni", "de", "to", "mo", "ya", "ne", "yo",
        "na", "e", "kara", "made", "desu", "masu", "shita", "suru", "naru",
        "totemo", "sukoshi", "chotto",
    }
)

#: Shortest token kept: drops stray single letters from unit
#: abbreviations.
MIN_LENGTH = 2


class Tokenizer:
    """Regex word tokenizer: lower-cases, then drops numbers, tokens
    shorter than :data:`MIN_LENGTH` and :data:`STOPWORDS`."""

    _WORD = re.compile(r"[a-zA-Z_]+|\d+(?:\.\d+)?")

    def tokenize(self, text: str) -> list[str]:
        """Tokens of ``text``, lower-cased, stopwords removed."""
        tokens = []
        for raw in self._WORD.findall(text or ""):
            token = raw.lower()
            if token[0].isdigit():
                continue
            if len(token) < MIN_LENGTH:
                continue
            if token in STOPWORDS:
                continue
            tokens.append(token)
        return tokens

    def __call__(self, text: str) -> list[str]:
        return self.tokenize(text)
