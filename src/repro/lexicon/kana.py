"""Romaji ⇄ kana transliteration for texture terms.

The real NARO dictionary lists terms in Japanese script; this package's
corpus is romanised, but anyone pointing the pipeline at genuine recipe
text needs the dictionary's surfaces in kana. :func:`to_hiragana` /
:func:`to_katakana` convert the package's Hepburn-style romaji (as used
in :mod:`repro.lexicon.base_terms`) into kana, handling digraphs
(kya/sho/chu…), the sokuon (doubled consonants → っ), the moraic nasal ん,
and long vowels.

Texture onomatopoeia are conventionally written in katakana
(プルプル), which is what :meth:`TextureTerm` consumers usually want.
"""

from __future__ import annotations

from repro.errors import ReproError

#: Romaji syllable → hiragana. Longest-match-first lookup; digraphs and
#: irregular Hepburn spellings (shi/chi/tsu/fu/ji) included.
_SYLLABLES: dict[str, str] = {
    # digraphs
    "kya": "きゃ", "kyu": "きゅ", "kyo": "きょ",
    "gya": "ぎゃ", "gyu": "ぎゅ", "gyo": "ぎょ",
    "sha": "しゃ", "shu": "しゅ", "sho": "しょ",
    "ja": "じゃ", "ju": "じゅ", "jo": "じょ",
    "cha": "ちゃ", "chu": "ちゅ", "cho": "ちょ",
    "nya": "にゃ", "nyu": "にゅ", "nyo": "にょ",
    "hya": "ひゃ", "hyu": "ひゅ", "hyo": "ひょ",
    "bya": "びゃ", "byu": "びゅ", "byo": "びょ",
    "pya": "ぴゃ", "pyu": "ぴゅ", "pyo": "ぴょ",
    "mya": "みゃ", "myu": "みゅ", "myo": "みょ",
    "rya": "りゃ", "ryu": "りゅ", "ryo": "りょ",
    # irregular Hepburn
    "shi": "し", "chi": "ち", "tsu": "つ", "fu": "ふ", "ji": "じ",
    # kunrei-shiki spellings (the base inventory mixes systems, as real
    # romanised Japanese does)
    "sya": "しゃ", "syu": "しゅ", "syo": "しょ",
    "tya": "ちゃ", "tyu": "ちゅ", "tyo": "ちょ",
    "zya": "じゃ", "zyu": "じゅ", "zyo": "じょ",
    "si": "し", "ti": "ち", "tu": "つ", "hu": "ふ", "zi": "じ",
    # k/g
    "ka": "か", "ki": "き", "ku": "く", "ke": "け", "ko": "こ",
    "ga": "が", "gi": "ぎ", "gu": "ぐ", "ge": "げ", "go": "ご",
    # s/z
    "sa": "さ", "su": "す", "se": "せ", "so": "そ",
    "za": "ざ", "zu": "ず", "ze": "ぜ", "zo": "ぞ",
    # t/d
    "ta": "た", "te": "て", "to": "と",
    "da": "だ", "de": "で", "do": "ど",
    # n
    "na": "な", "ni": "に", "nu": "ぬ", "ne": "ね", "no": "の",
    # h/b/p
    "ha": "は", "hi": "ひ", "he": "へ", "ho": "ほ",
    "ba": "ば", "bi": "び", "bu": "ぶ", "be": "べ", "bo": "ぼ",
    "pa": "ぱ", "pi": "ぴ", "pu": "ぷ", "pe": "ぺ", "po": "ぽ",
    # m
    "ma": "ま", "mi": "み", "mu": "む", "me": "め", "mo": "も",
    # y
    "ya": "や", "yu": "ゆ", "yo": "よ",
    # r
    "ra": "ら", "ri": "り", "ru": "る", "re": "れ", "ro": "ろ",
    # w
    "wa": "わ", "wo": "を",
    # vowels
    "a": "あ", "i": "い", "u": "う", "e": "え", "o": "お",
}

_CONSONANTS = set("bcdfghjkmnprstwyz")

#: hiragana→katakana offset (both blocks are parallel).
_KATA_OFFSET = ord("ア") - ord("あ")


def to_hiragana(romaji: str) -> str:
    """Convert Hepburn romaji to hiragana.

    Raises :class:`~repro.errors.ReproError` on untranslatable input.
    """
    text = romaji.lower().strip()
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        # moraic nasal: n at end, or n before a consonant (but not n+y digraph)
        if ch == "n" and (
            i + 1 == n
            or (
                text[i + 1] in _CONSONANTS
                and text[i + 1] != "y"
            )
            or text[i + 1] == "n"
        ):
            # "nn" spelling of ん consumes both letters
            if i + 1 < n and text[i + 1] == "n" and (
                i + 2 == n or text[i + 2] in "aiueoy"
            ):
                out.append("ん")
                i += 2
                continue
            out.append("ん")
            i += 1
            continue
        # sokuon: doubled consonant (tch counts as t + ch)
        if (
            ch in _CONSONANTS
            and i + 1 < n
            and (
                text[i + 1] == ch
                or (ch == "t" and text.startswith("ch", i + 1))
            )
        ):
            out.append("っ")
            i += 1
            continue
        # longest-match syllable (3, then 2, then 1 chars)
        for length in (3, 2, 1):
            candidate = text[i : i + length]
            if candidate in _SYLLABLES:
                out.append(_SYLLABLES[candidate])
                i += length
                break
        else:
            # trailing clipped-form consonant ("purit", "bechat"): the
            # romanisation of a final っ
            if ch in _CONSONANTS and i + 1 == n:
                out.append("っ")
                i += 1
                continue
            raise ReproError(
                f"cannot transliterate {romaji!r} at position {i} ({ch!r})"
            )
    return "".join(out)


def to_katakana(romaji: str) -> str:
    """Convert Hepburn romaji to katakana (the usual script for
    onomatopoeia)."""
    return "".join(
        chr(ord(ch) + _KATA_OFFSET) if "ぁ" <= ch <= "ゖ" else ch
        for ch in to_hiragana(romaji)
    )
