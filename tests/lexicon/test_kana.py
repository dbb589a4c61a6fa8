"""Tests for repro.lexicon.kana."""

import pytest

from repro.errors import ReproError
from repro.lexicon.kana import to_hiragana, to_katakana


class TestHiragana:
    @pytest.mark.parametrize(
        "romaji,expected",
        [
            ("purupuru", "ぷるぷる"),
            ("katai", "かたい"),
            ("fuwafuwa", "ふわふわ"),
            ("nettori", "ねっとり"),       # sokuon from "tt"
            ("mocchiri", "もっちり"),      # sokuon from "cch" (t+ch rule ≈ cch)
            ("churuchuru", "ちゅるちゅる"),  # digraph chu
            ("shakishaki", "しゃきしゃき"),  # digraph sha
            ("burinburin", "ぶりんぶりん"),  # moraic nasal before consonant
            ("purin", "ぷりん"),           # word-final n
            ("hajikeru", "はじける"),
            ("omoi", "おもい"),
        ],
    )
    def test_standard_forms(self, romaji, expected):
        assert to_hiragana(romaji) == expected

    @pytest.mark.parametrize(
        "romaji,expected",
        [
            ("purit", "ぷりっ"),   # the paper's clipped -t forms end in っ
            ("bechat", "べちゃっ"),
            ("kutat", "くたっ"),
        ],
    )
    def test_clipped_t_forms(self, romaji, expected):
        assert to_hiragana(romaji) == expected

    @pytest.mark.parametrize(
        "romaji,expected",
        [
            ("shakusyaku", "しゃくしゃく"),  # kunrei sya
            ("fukahuka", "ふかふか"),        # kunrei hu
            ("dossiri", "どっしり"),         # kunrei si with sokuon
        ],
    )
    def test_kunrei_spellings(self, romaji, expected):
        assert to_hiragana(romaji) == expected

    def test_untranslatable_raises_with_position(self):
        with pytest.raises(ReproError, match="position"):
            to_hiragana("qqq")

    def test_case_insensitive(self):
        assert to_hiragana("PuruPuru") == "ぷるぷる"


class TestKatakana:
    def test_onomatopoeia_convention(self):
        assert to_katakana("purupuru") == "プルプル"
        assert to_katakana("karikari") == "カリカリ"

    def test_sokuon_preserved(self):
        assert to_katakana("nettori") == "ネットリ"

    def test_every_dictionary_surface_transliterates(self, dictionary):
        # `repro dictionary` prints a katakana column for every term;
        # fukafuka/fukahuka are the same word in kana — one collision
        kana = {to_katakana(term.surface) for term in dictionary}
        assert len(kana) >= len(dictionary) - 2
        assert to_katakana("katai") == "カタイ"
