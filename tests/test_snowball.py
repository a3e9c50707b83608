"""English (Porter2-style) stemmer tests.

No third-party stemmer package is available in this environment to act
as a live oracle, so the oracle is a frozen reference table: the
algorithm's own exception lists, its documented example words, two
whole derivational families from its published sample vocabulary, and a
set of hand-traced words. Every entry was settled before being frozen;
none was copied from this implementation's output.

A second oracle is ``reference_snowball_stem``: the step-by-step
implementation frozen before the steps became table lookups. The
package's ``stem`` must equal it on every input.
"""

import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval.corpus import CorpusRows, type_table
from normeval.data import mini_corpus_path
from normeval.snowball import stem
from reference import (
    _SNOWBALL_DOUBLES,
    _SNOWBALL_EXCEPTION1,
    _SNOWBALL_EXCEPTION2,
    _SNOWBALL_LI_ENDINGS,
    _SNOWBALL_STEP2_RULES,
    _SNOWBALL_STEP3_RULES,
    _SNOWBALL_STEP4_SUFFIXES,
    reference_snowball_stem,
)

# (input, expected stem)
REFERENCE = [
    # --- exceptional forms (explicit word list in the algorithm) ---
    ("skis", "ski"),
    ("skies", "sky"),
    ("dying", "die"),
    ("lying", "lie"),
    ("tying", "tie"),
    ("idly", "idl"),
    ("gently", "gentl"),
    ("ugly", "ugli"),
    ("early", "earli"),
    ("only", "onli"),
    ("singly", "singl"),
    # --- invariant words (explicit word list) ---
    ("sky", "sky"),
    ("news", "news"),
    ("howe", "howe"),
    ("atlas", "atlas"),
    ("cosmos", "cosmos"),
    ("bias", "bias"),
    ("andes", "andes"),
    # --- words left invariant after the plural step (explicit list) ---
    ("inning", "inning"),
    ("outing", "outing"),
    ("canning", "canning"),
    ("herring", "herring"),
    ("earring", "earring"),
    ("proceed", "proceed"),
    ("exceed", "exceed"),
    ("succeed", "succeed"),
    # --- gener-/commun-/arsen- prefix region exception ---
    ("generate", "generat"),
    ("generates", "generat"),
    ("generated", "generat"),
    ("generating", "generat"),
    ("general", "general"),
    ("generally", "general"),
    ("generic", "generic"),
    ("generically", "generic"),
    ("generous", "generous"),
    ("generously", "generous"),
    ("communication", "communic"),
    ("arsenic", "arsenic"),
    ("arsenal", "arsenal"),
    # --- consign/consist/console family (published sample vocabulary) ---
    ("consign", "consign"),
    ("consigned", "consign"),
    ("consigning", "consign"),
    ("consignment", "consign"),
    ("consist", "consist"),
    ("consisted", "consist"),
    ("consistency", "consist"),
    ("consistent", "consist"),
    ("consistently", "consist"),
    ("consisting", "consist"),
    ("consists", "consist"),
    ("consolation", "consol"),
    ("consolations", "consol"),
    ("consolatory", "consolatori"),
    ("console", "consol"),
    ("consoled", "consol"),
    ("consoles", "consol"),
    ("consolidate", "consolid"),
    ("consolidated", "consolid"),
    ("consolidating", "consolid"),
    ("consoling", "consol"),
    ("consols", "consol"),
    ("consonant", "conson"),
    ("consort", "consort"),
    ("consorted", "consort"),
    ("consorting", "consort"),
    # --- kn- family (published sample vocabulary) ---
    ("knack", "knack"),
    ("knackeries", "knackeri"),
    ("knacks", "knack"),
    ("knag", "knag"),
    ("knave", "knave"),
    ("knaves", "knave"),
    ("knavish", "knavish"),
    ("kneaded", "knead"),
    ("kneading", "knead"),
    ("knee", "knee"),
    ("kneel", "kneel"),
    ("kneeled", "kneel"),
    ("kneeling", "kneel"),
    ("kneels", "kneel"),
    ("knees", "knee"),
    ("knell", "knell"),
    ("knelt", "knelt"),
    ("knew", "knew"),
    ("knick", "knick"),
    ("knif", "knif"),
    ("knife", "knife"),
    ("knight", "knight"),
    ("knightly", "knight"),
    ("knights", "knight"),
    ("knit", "knit"),
    ("knits", "knit"),
    ("knitted", "knit"),
    ("knitting", "knit"),
    ("knives", "knive"),
    ("knob", "knob"),
    ("knobs", "knob"),
    ("knock", "knock"),
    ("knocked", "knock"),
    ("knocker", "knocker"),
    ("knockers", "knocker"),
    ("knocking", "knock"),
    ("knocks", "knock"),
    ("knopp", "knopp"),
    ("knot", "knot"),
    ("knots", "knot"),
    # --- plural / -ed / -ing handling (documented examples and traces) ---
    ("ties", "tie"),
    ("cries", "cri"),
    ("flies", "fli"),
    ("ponies", "poni"),
    ("dies", "die"),
    ("cats", "cat"),
    ("gaps", "gap"),
    ("gas", "gas"),
    ("kiwis", "kiwi"),
    ("caress", "caress"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("meeting", "meet"),
    ("sing", "sing"),
    ("king", "king"),
    ("dating", "date"),
    ("exceeding", "exceed"),
    ("hopped", "hop"),
    ("hopping", "hop"),
    ("hoping", "hope"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("filing", "file"),
    ("failing", "fail"),
    ("fizzed", "fizz"),
    ("running", "run"),
    ("runs", "run"),
    ("ran", "ran"),
    # --- y/i alternation ---
    ("cry", "cri"),
    ("by", "by"),
    ("say", "say"),
    ("happy", "happi"),
    ("sprayed", "spray"),
    # --- derivational suffix chains (hand-traced) ---
    ("agreement", "agreement"),
    ("government", "govern"),
    ("rational", "ration"),
    ("rationalize", "ration"),
    ("activity", "activ"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
]


def test_reference_table():
    failures = [
        (word, expected, stem(word))
        for word, expected in REFERENCE
        if stem(word) != expected
    ]
    assert not failures, f"{len(failures)} mismatches: {failures[:10]}"


def test_case_folded():
    assert stem("Running") == "run"
    assert stem("SKIES") == "sky"


def test_short_words_unchanged():
    for word in ("a", "I", "be", "ox", ""):
        assert stem(word) == word.lower()


def test_leading_apostrophe_stripped():
    assert stem("'cause") == stem("cause")


def test_deterministic():
    words = [w for w, _ in REFERENCE]
    assert [stem(w) for w in words] == [stem(w) for w in words]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
def test_output_well_formed(word):
    out = stem(word)
    assert out, f"empty stem for {word!r}"
    assert out == out.lower()
    assert "Y" not in out
    assert len(out) <= len(word)


REARRANGING_EXCEPTIONS = {"dying": "die", "lying": "lie", "tying": "tie"}


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase, min_size=3, max_size=12))
@example("dying")
@example("lying")
@example("tying")
def test_stem_is_prefix_compatible(word):
    # A stem never rearranges letters: it is the word with a suffix
    # removed, possibly with a final 'e'/'i'/'y' adjustment. The
    # exceptional forms dying/lying/tying -> die/lie/tie are the only
    # words that rearrange letters; they must give their listed stems.
    out = stem(word)
    if word in REARRANGING_EXCEPTIONS:
        assert out == REARRANGING_EXCEPTIONS[word], (word, out)
        return
    shared = 0
    for a, b in zip(word, out):
        if a != b:
            break
        shared += 1
    assert shared >= len(out) - 1, (word, out)


# Vowels, 'y' and the apostrophe (region and marking edge cases) weigh more
# than the other letters; every letter of every suffix table is present,
# and a few capitals check the lowercasing.
_SUFFIX_LETTERS = sorted(
    set("sediulyngatbz")  # step 1
    | set("".join(_SNOWBALL_DOUBLES))
    | _SNOWBALL_LI_ENDINGS
    | set("".join(suf for suf, _ in _SNOWBALL_STEP2_RULES))
    | set("".join(suf for suf, _ in _SNOWBALL_STEP3_RULES))
    | set("".join(_SNOWBALL_STEP4_SUFFIXES))
)
_EDGE_ALPHABET = list("aeiouy" * 3 + "yy''" + "YSE") + _SUFFIX_LETTERS
_EDGE_PREFIXES = ["", "", "", "", "gener", "commun", "arsen", "y", "'", "''"]
EDGE_WORDS = [
    # a 'y' marked 'Y' is no vowel to the next 'y', so ayyy is marked aYyY
    # and keeps its final 'y'; marking aYYY at once would stem it to "ayyi"
    "ayyy",
    "sayyid",
    "'s'",
    "ied",
    "generalization",
    "generously",
    "communities",
    "communism",
    # "ness" starts inside the fixed six-letter R1 of commun-
    "communess",
    "arsenals",
    "arsenic",
    *_SNOWBALL_EXCEPTION1,
    *sorted(_SNOWBALL_EXCEPTION2),
]


@settings(max_examples=500, deadline=None)
@given(
    st.builds(
        lambda prefix, rest: prefix + "".join(rest),
        st.sampled_from(_EDGE_PREFIXES),
        st.lists(st.sampled_from(_EDGE_ALPHABET), max_size=14),
    )
)
def test_stem_equals_step_by_step_reference(word):
    assert stem(word) == reference_snowball_stem(word), word


for _word in EDGE_WORDS:
    test_stem_equals_step_by_step_reference = example(_word)(
        test_stem_equals_step_by_step_reference
    )


def _noise_endings():
    """The 120 pseudo-suffixes the English scale-up benchmark appends:
    a consonant-vowel chunk plus an English ending, drawn in order from
    ``random.Random(0)``."""
    pool = random.Random(0)
    endings = []
    while len(endings) < 120:
        ending = (
            pool.choice("bcdfghklmnprstvwz")
            + pool.choice("aeiou")
            + pool.choice(("s", "ed", "ing", "er", "ly", "ness", "ment", "able", "ism", "ful"))
        )
        if ending not in endings:
            endings.append(ending)
    return endings


def test_stem_equals_reference_over_bundled_corpus_with_noise_endings():
    types = sorted(type_table(text for _, text, _ in CorpusRows(mini_corpus_path())).types)
    words = types + [word + ending for word in types for ending in _noise_endings()]
    mismatches = [w for w in words if stem(w) != reference_snowball_stem(w)]
    assert not mismatches, f"{len(mismatches)} of {len(words)}: {mismatches[:10]}"
