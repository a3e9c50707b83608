"""Snowball English ("Porter2") stemming algorithm.

Pure-Python implementation of the published English Snowball stemmer.
The entry point is :func:`stem`, which lowercases its input and returns
the stem. Words of two letters or fewer are returned unchanged.

Implementation notes kept close to the algorithm text: R1/R2 are fixed
character positions computed once per word, each the end of one match
of a compiled pattern (non-vowels, vowels, one non-vowel) from the start
and from R1; suffix rules use longest-match-wins semantics (a failed
condition on the longest match never falls back to a shorter one); 'y'
is marked as consonant 'Y' at the start of the word and after vowels,
and unmarked at the end.

Each step first tests the word's ending with one ``endswith`` on a
tuple, so most words skip most steps. The suffix tables of steps 2-4
are listed longest first; the longest n for which ``word[-n:]`` is in
the table gives the longest match.
"""

from __future__ import annotations

import re

_VOWELS = frozenset("aeiouy")  # marked consonant 'Y' is deliberately absent
_VOWEL = re.compile("[aeiouy]")
# R1 ends after the first non-vowel that follows a vowel; R2 likewise from R1
_REGION = re.compile("[^aeiouy]*[aeiouy]+[^aeiouy]")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = frozenset("cdeghkmnrt")

_EXCEPTION1 = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
}

# invariant once step 1a has run
_EXCEPTION2 = frozenset(
    ["inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed"]
)

_R1_PREFIXES = ("gener", "commun", "arsen")


def _mark_regions(word: str) -> tuple[int, int]:
    if word.startswith(_R1_PREFIXES):
        p1 = next(len(prefix) for prefix in _R1_PREFIXES if word.startswith(prefix))
    else:
        region = _REGION.match(word)
        p1 = region.end() if region else len(word)
    region = _REGION.match(word, p1)
    return p1, region.end() if region else len(word)


def _ends_short_syllable(word: str) -> bool:
    n = len(word)
    if n == 2:
        return word[0] in _VOWELS and word[1] not in _VOWELS
    if n >= 3:
        return (
            word[-3] not in _VOWELS
            and word[-2] in _VOWELS
            and word[-1] not in _VOWELS
            and word[-1] not in "wxY"
        )
    return False


def _longest_suffix(word: str, suffixes: tuple[str, ...], table: dict | frozenset) -> str:
    """The longest of ``suffixes`` (listed longest first, and each in
    ``table``) that ends ``word``, or '' if none does."""
    if word.endswith(suffixes):
        for n in range(len(suffixes[0]), 0, -1):
            if word[-n:] in table:
                return word[-n:]
    return ""


def _step0(word: str) -> str:
    if word.endswith(("'", "'s")):
        for suf in ("'s'", "'s", "'"):
            if word.endswith(suf):
                return word[: -len(suf)]
    return word


def _step1a(word: str) -> str:
    if not word.endswith(("s", "d")):
        return word
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith(("ied", "ies")):
        return word[:-3] + ("i" if len(word) >= 5 else "ie")
    if word.endswith(("us", "ss")):
        return word
    if word.endswith("s"):
        # delete only if some vowel precedes the position just before the s
        if _VOWEL.search(word, 0, len(word) - 2):
            return word[:-1]
    return word


def _step1b(word: str, p1: int) -> str:
    if not word.endswith(("ed", "ly", "ing")):
        return word
    for suf in ("eedly", "eed"):
        if word.endswith(suf):
            if len(word) - len(suf) >= p1:
                return word[: -len(suf)] + "ee"
            return word
    for suf in ("ingly", "edly", "ing", "ed"):
        if word.endswith(suf):
            if not _VOWEL.search(word, 0, len(word) - len(suf)):
                return word
            word = word[: -len(suf)]
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if word.endswith(_DOUBLES):
                return word[:-1]
            if p1 >= len(word) and _ends_short_syllable(word):
                return word + "e"
            return word
    return word


def _step1c(word: str) -> str:
    if word.endswith(("y", "Y")) and len(word) >= 3 and word[-2] not in _VOWELS:
        return word[:-1] + "i"
    return word


_STEP2_RULES = {
    "ization": "ize",
    "ational": "ate",
    "fulness": "ful",
    "ousness": "ous",
    "iveness": "ive",
    "tional": "tion",
    "biliti": "ble",
    "lessli": "less",
    "entli": "ent",
    "ation": "ate",
    "alism": "al",
    "aliti": "al",
    "ousli": "ous",
    "iviti": "ive",
    "fulli": "ful",
    "enci": "ence",
    "anci": "ance",
    "abli": "able",
    "izer": "ize",
    "ator": "ate",
    "alli": "al",
    "bli": "ble",
    "ogi": "og",
    "li": "",
}
_STEP2_SUFFIXES = tuple(_STEP2_RULES)


def _step2(word: str, p1: int) -> str:
    suf = _longest_suffix(word, _STEP2_SUFFIXES, _STEP2_RULES)
    if not suf or len(word) - len(suf) < p1:
        return word
    if suf == "ogi":
        if len(word) >= 4 and word[-4] == "l":
            return word[:-3] + "og"
        return word
    if suf == "li":
        if len(word) >= 3 and word[-3] in _LI_ENDINGS:
            return word[:-2]
        return word
    return word[: -len(suf)] + _STEP2_RULES[suf]


_STEP3_RULES = {
    "ational": "ate",
    "tional": "tion",
    "alize": "al",
    "icate": "ic",
    "iciti": "ic",
    "ative": "",
    "ical": "ic",
    "ness": "",
    "ful": "",
}
_STEP3_SUFFIXES = tuple(_STEP3_RULES)


def _step3(word: str, p1: int, p2: int) -> str:
    suf = _longest_suffix(word, _STEP3_SUFFIXES, _STEP3_RULES)
    if not suf or len(word) - len(suf) < p1:
        return word
    if suf == "ative" and len(word) - len(suf) < p2:
        return word
    return word[: -len(suf)] + _STEP3_RULES[suf]


_STEP4_SUFFIXES = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "ion",
    "al",
    "er",
    "ic",
)
_STEP4_TABLE = frozenset(_STEP4_SUFFIXES)


def _step4(word: str, p2: int) -> str:
    suf = _longest_suffix(word, _STEP4_SUFFIXES, _STEP4_TABLE)
    if not suf or len(word) - len(suf) < p2:
        return word
    if suf == "ion":
        if len(word) >= 4 and word[-4] in "st":
            return word[:-3]
        return word
    return word[: -len(suf)]


def _step5(word: str, p1: int, p2: int) -> str:
    if word.endswith("e"):
        pos = len(word) - 1
        if pos >= p2 or (pos >= p1 and not _ends_short_syllable(word[:-1])):
            return word[:-1]
        return word
    if word.endswith("l"):
        pos = len(word) - 1
        if pos >= p2 and len(word) >= 2 and word[-2] == "l":
            return word[:-1]
    return word


def stem(word: str) -> str:
    """Return the Snowball English stem of ``word`` (lowercased first)."""
    word = word.lower()
    if word in _EXCEPTION1:
        return _EXCEPTION1[word]
    if len(word) < 3:
        return word

    if word.startswith("'"):
        word = word[1:]
    if "y" in word:
        # in order: a 'y' marked 'Y' is no vowel to the 'y' after it
        if word.startswith("y"):
            word = "Y" + word[1:]
        chars = list(word)
        for i in range(1, len(chars)):
            if chars[i] == "y" and chars[i - 1] in _VOWELS:
                chars[i] = "Y"
        word = "".join(chars)

    p1, p2 = _mark_regions(word)

    word = _step0(word)
    word = _step1a(word)
    if word in _EXCEPTION2:
        return word
    word = _step1b(word, p1)
    word = _step1c(word)
    word = _step2(word, p1)
    word = _step3(word, p1, p2)
    word = _step4(word, p2)
    word = _step5(word, p1, p2)

    return word.replace("Y", "y")
