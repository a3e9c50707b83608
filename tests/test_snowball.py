"""English (Porter2-style) stemmer tests.

No third-party stemmer package is available in this environment to act
as a live oracle, so the oracle is a frozen reference table: the
algorithm's own exception lists, its documented example words, two
whole derivational families from its published sample vocabulary, and a
set of hand-traced words. Every entry was settled before being frozen;
none was copied from this implementation's output.
"""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval.snowball import stem

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
