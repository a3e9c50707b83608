"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and is deterministic: the same seed gives
byte-identical files, a different seed gives different files. Only the
standard library's ``random.Random`` is used, so the inputs do not
depend on the numpy version under test.
"""

from __future__ import annotations

import random
import re
from collections import Counter

from bn_stemmer import SUFFIXES, stem as bn_stem

# ---------------------------------------------------------------- English

EN_COPIES = 50
EN_NOISE_SHARE = 0.5
EN_NOISE_ENDINGS = 120
_EN_SUFFIXES = ("s", "ed", "ing", "er", "ly", "ness", "ment", "able", "ism", "ful")
_EN_ONSETS = "bcdfghklmnprstvwz"
_EN_NUCLEI = "aeiou"
_WORD = re.compile(r"^(\W*)(.*?)(\W*)$", re.S)


def read_tsv(path: str) -> list[tuple[str, str]]:
    """(text, label) rows of a header + ``text<TAB>label`` file without quoting."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        text, label = line.split("\t")
        rows.append((text, label))
    return rows


def write_tsv(path: str, rows: list[tuple[str, str]]) -> None:
    for text, label in rows:
        # the corpus reader uses csv quoting: a field opening with '"' or
        # holding a tab or newline would not come back as written
        if text.startswith('"') or "\t" in text or "\n" in text or "\t" in label:
            raise ValueError(f"row cannot be written verbatim: {text!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("text\tlabel\n")
        for text, label in rows:
            fh.write(f"{text}\t{label}\n")


def en_scaleup(rows: list[tuple[str, str]], seed: int) -> list[tuple[str, str]]:
    """EN_COPIES copies of ``rows`` with suffix noise.

    About EN_NOISE_SHARE of the words get one of EN_NOISE_ENDINGS
    pseudo-suffixes (a consonant-vowel chunk plus an English ending)
    appended before their edge punctuation, which grows the vocabulary
    from a few hundred types to tens of thousands. Labels are kept. The
    seed places the noise; the pool of endings is the same for every
    seed, so the amount of work varies little from seed to seed.
    """
    pool = random.Random(0)
    endings: list[str] = []
    while len(endings) < EN_NOISE_ENDINGS:
        ending = pool.choice(_EN_ONSETS) + pool.choice(_EN_NUCLEI) + pool.choice(_EN_SUFFIXES)
        if ending not in endings:
            endings.append(ending)
    rng = random.Random(seed)
    out = []
    for _ in range(EN_COPIES):
        for text, label in rows:
            words = []
            for word in text.split(" "):
                if rng.random() < EN_NOISE_SHARE:
                    lead, core, trail = _WORD.match(word).groups()
                    if core:
                        word = lead + core + rng.choice(endings) + trail
                words.append(word)
            out.append((" ".join(words), label))
    return out


# ----------------------------------------------------------------- Bangla

BN_DOCS = 12_000
BN_ROOTS = 10_000
BN_SUFFIXED_SHARE = 0.6
DANDA = "।"
# consonants KA..HA without the unassigned code points and the two nasals
# that do not open a syllable
_BN_CONSONANTS = tuple(
    chr(cp)
    for cp in range(0x0995, 0x09BA)
    if cp not in (0x0999, 0x099E, 0x09A9, 0x09B1, 0x09B3, 0x09B4, 0x09B5)
)
_BN_VOWEL_SIGNS = ("া", "ি", "ী", "ু", "ূ", "ে", "ৈ", "ো", "ৌ")


def _bn_roots(rng: random.Random, count: int) -> list[str]:
    """Distinct roots of 2-3 consonant + vowel-sign syllables, kept only
    if the suffix stripper leaves the bare root and every root + suffix
    form back at exactly that root."""
    roots: list[str] = []
    seen: set[str] = set()
    while len(roots) < count:
        root = "".join(
            rng.choice(_BN_CONSONANTS) + rng.choice(_BN_VOWEL_SIGNS)
            for _ in range(rng.randint(2, 3))
        )
        if root in seen:
            continue
        seen.add(root)
        if bn_stem(root) == root and all(bn_stem(root + s) == root for s in SUFFIXES):
            roots.append(root)
    return roots


def bn_corpus(seed: int) -> tuple[list[tuple[str, str]], Counter, dict[str, str]]:
    """A Bengali-script corpus of BN_DOCS documents.

    Returns the (text, label) rows, the occurrence count of every token
    and the generator's own stem of every token (its root). Roots follow
    a Zipf-like frequency; BN_SUFFIXED_SHARE of the tokens carry one
    listed suffix. Each document is one or two sentences, each closed by
    a danda attached to its last word.
    """
    rng = random.Random(seed)
    roots = _bn_roots(rng, BN_ROOTS)
    cum_weights = []
    total = 0.0
    for rank in range(len(roots)):
        total += 1.0 / (rank + 1) ** 0.8
        cum_weights.append(total)
    occurrences: Counter = Counter()
    stems: dict[str, str] = {}
    rows = []
    for _ in range(BN_DOCS):
        sentences = []
        for _ in range(rng.randint(1, 2)):
            words = []
            for root in rng.choices(roots, cum_weights=cum_weights, k=rng.randint(3, 8)):
                token = root
                if rng.random() < BN_SUFFIXED_SHARE:
                    token = root + rng.choice(SUFFIXES)
                occurrences[token] += 1
                stems[token] = root
                words.append(token)
            sentences.append(" ".join(words) + DANDA)
        rows.append((" ".join(sentences), "bn"))
    return rows, occurrences, stems
