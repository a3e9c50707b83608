"""Intrinsic metrics: edit distance, compression ratio, distance average.

The edit-distance oracles here are deliberately different algorithms
from the implementation's dynamic program: a memoized first-principles
recursion, and breadth-first search over the explicit graph whose edges
are single edits. Any optimal edit script can be reordered so that
substitutions come first, then deletions, then insertions; ordered that
way every intermediate string stays within the closed string universe,
so BFS graph distance equals edit distance on it.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval import metrics
from normeval import (
    MetricError,
    TokenMapping,
    TruncateNormalizer,
    anld,
    compression_ratio,
    levenshtein,
    load_corpus,
    type_mapping,
    type_table,
)
from normeval.corpus import table_of
from normeval.data import mini_corpus_path
from reference import reference_anld


def recursive_distance(a: str, b: str) -> int:
    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        if a[i - 1] == b[j - 1]:
            return go(i - 1, j - 1)
        return 1 + min(go(i - 1, j), go(i, j - 1), go(i - 1, j - 1))

    return go(len(a), len(b))


def string_universe(alphabet: str, max_len: int) -> list[str]:
    return [
        "".join(chars)
        for n in range(max_len + 1)
        for chars in itertools.product(alphabet, repeat=n)
    ]


def edit_neighbors(s: str, alphabet: str, max_len: int):
    seen = set()
    for i in range(len(s)):
        seen.add(s[:i] + s[i + 1 :])
        for c in alphabet:
            if c != s[i]:
                seen.add(s[:i] + c + s[i + 1 :])
    if len(s) < max_len:
        for i in range(len(s) + 1):
            for c in alphabet:
                seen.add(s[:i] + c + s[i:])
    return seen


def bfs_distances(start: str, adjacency: dict[str, list[str]]) -> dict[str, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def untrimmed_distance(a: str, b: str) -> int:
    """The full Wagner-Fischer table over both whole strings, with no
    common prefix or suffix stripped first."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


# Latin letters, Bengali consonants, vowel signs (aa, i, e) and the
# hasant U+09CD, which joins consonants into conjuncts
MIXED_ALPHABET = "abn" + "\u0995\u0997\u09a8\u09b0" + "\u09be\u09bf\u09c7" + "\u09cd"


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "") == 0

    def test_empty_versus_word(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_classic_pair_against_recursion(self):
        assert levenshtein("kitten", "sitting") == 3
        assert recursive_distance("kitten", "sitting") == 3

    def test_non_latin_scalars_against_recursion(self):
        a, b = "গানগুলো", "গান"
        assert len(a) == 7 and len(b) == 3
        assert recursive_distance(a, b) == 4
        assert levenshtein(a, b) == 4

    def test_substitution_only(self):
        assert levenshtein("flaw", "flew") == 1

    def test_bfs_oracle_short_strings(self):
        # the exhaustive length-5 sweep lives in the acceptance suite;
        # this is the same construction kept quick for module runs
        alphabet, max_len = "abc", 3
        universe = string_universe(alphabet, max_len)
        adjacency = {s: sorted(edit_neighbors(s, alphabet, max_len)) for s in universe}
        for a in universe:
            dist = bfs_distances(a, adjacency)
            for b in universe:
                assert levenshtein(a, b) == dist[b], (a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abz", max_size=7), st.text(alphabet="abz", max_size=7))
    def test_matches_recursion(self, a, b):
        assert levenshtein(a, b) == recursive_distance(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abz", max_size=6), st.text(alphabet="abz", max_size=6))
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(alphabet="ab", max_size=5),
        st.text(alphabet="ab", max_size=5),
        st.text(alphabet="ab", max_size=5),
    )
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.text(alphabet=MIXED_ALPHABET, max_size=5),
        core_a=st.text(alphabet=MIXED_ALPHABET, max_size=5),
        core_b=st.text(alphabet=MIXED_ALPHABET, max_size=5),
        suffix=st.text(alphabet=MIXED_ALPHABET, max_size=5),
    )
    # a stem that is a prefix of its original
    @example(prefix="\u0997\u09be\u09a8", core_a="\u0997\u09c1\u09b2\u09cb", core_b="", suffix="")
    # the shared prefix and suffix overlap inside the shorter string
    @example(prefix="a", core_a="a", core_b="", suffix="a")
    @example(prefix="", core_a="", core_b="\u09cd\u09cd", suffix="\u09cd")
    def test_affix_trim_matches_untrimmed_table(self, prefix, core_a, core_b, suffix):
        a, b = prefix + core_a + suffix, prefix + core_b + suffix
        assert levenshtein(a, b) == untrimmed_distance(a, b)
        assert levenshtein(b, a) == untrimmed_distance(a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=MIXED_ALPHABET, max_size=10), st.integers(min_value=0, max_value=10))
    # a Bengali stem that keeps the hasant of a conjunct
    @example("\u0997\u09cd\u09b0\u09be\u09a8", 2)
    def test_prefix_distance_matches_untrimmed_table(self, a, cut):
        b = a[:cut]
        assert levenshtein(a, b) == untrimmed_distance(a, b) == len(a) - len(b)
        assert levenshtein(b, a) == untrimmed_distance(b, a)


class TestCompressionRatio:
    def test_two_decimal_display_at_realistic_vocabulary_sizes(self):
        assert f"{compression_ratio(2175, 1555).cr:.2f}" == "1.40"
        assert f"{compression_ratio(2956, 2227).cr:.2f}" == "1.33"

    def test_identity_vocabulary(self):
        result = compression_ratio(2, 2)
        assert result.cr == 1.0
        assert result.vocab_before == result.vocab_after == 2

    def test_ratio_of_counts(self):
        result = compression_ratio(3, 2)
        assert (result.vocab_before, result.vocab_after, result.cr) == (3, 2, 1.5)
        assert compression_ratio(np.int64(3), np.intp(2)) == result

    @pytest.mark.parametrize("before,after", [(3, -2), (-3, 2), (-1, 0)])
    def test_negative_count_rejected(self, before, after):
        with pytest.raises(MetricError, match="negative"):
            compression_ratio(before, after)

    @pytest.mark.parametrize("before,after", [(2.9, 1), (3, 2.0), ("3", 2), (None, 1)])
    def test_non_integer_count_rejected(self, before, after):
        with pytest.raises(MetricError, match="integers"):
            compression_ratio(before, after)

    def test_degenerate_normalizer(self):
        with pytest.raises(MetricError, match="degenerate"):
            compression_ratio(10, 0)

    def test_empty_corpus_both_sides(self):
        assert compression_ratio(0, 0).cr == 1.0

    def test_invariant_under_token_renaming(self):
        def size(*tokens):
            return len(table_of([tokens]).types)

        before = size("x", "x", "x", "x", "x", "y", "y", "z")
        renamed = size("q1", "q1", "q1", "q1", "q1", "q2", "q2", "q3")
        after = size(*["s"] * 8)
        assert compression_ratio(before, after).cr == compression_ratio(renamed, after).cr


def mapping(pairs, counts=None):
    pairs = dict(pairs)
    counts = counts or {orig: 1 for orig in pairs}
    return TokenMapping.of(list(pairs), list(pairs.values()), [counts[orig] for orig in pairs])


@st.composite
def weighted_pairs(draw):
    """Up to 40 ``(original, stem, count)`` of distinct originals over a
    small alphabet, so that distances tie; a stem may be longer than its
    original, and a count is up to 2**40."""
    originals = draw(st.lists(st.text("abé", min_size=1, max_size=5), min_size=1, max_size=40, unique=True))
    return [
        (orig, draw(st.text("abé", max_size=9)), draw(st.integers(1, 2**40)))
        for orig in originals
    ]


class TestAnld:
    def test_identity_mapping_is_zero(self):
        result = anld(mapping({"run": "run", "cat": "cat"}))
        assert result.anld == 0.0
        assert result.over_unit_pairs == 0

    def test_single_pair_running(self):
        result = anld(mapping({"running": "run"}))
        assert result.anld == pytest.approx(4 / 7)
        assert recursive_distance("running", "run") == 4

    def test_occurrence_weighting(self):
        result = anld(mapping({"ab": "a", "cd": "cd"}, counts={"ab": 1, "cd": 3}))
        assert result.anld == pytest.approx((0.5 * 1 + 0.0 * 3) / 4)

    def test_type_weighting_ignores_counts(self):
        pairs = {"ab": "a", "cd": "cd"}
        r1 = anld(mapping(pairs, counts={"ab": 1, "cd": 3}), weighting="by_type")
        r2 = anld(mapping(pairs, counts={"ab": 99, "cd": 1}), weighting="by_type")
        assert r1.anld == r2.anld == pytest.approx(0.25)

    def test_occurrence_weighting_invariant_under_uniform_scaling(self):
        pairs = {"ab": "a", "cde": "cd", "f": "f"}
        base = {"ab": 2, "cde": 5, "f": 1}
        r1 = anld(mapping(pairs, counts=base))
        r2 = anld(mapping(pairs, counts={t: 7 * c for t, c in base.items()}))
        assert r1.anld == pytest.approx(r2.anld, abs=1e-15)

    def test_over_unit_pair_counted_not_clamped(self):
        result = anld(mapping({"ab": "abcdef"}))
        assert result.anld == pytest.approx(2.0)
        assert result.over_unit_pairs == 1

    def test_worst_pairs_sorted_and_tie_broken_by_token(self):
        result = anld(mapping({"dd": "d", "bb": "b", "aaaa": "a", "cc": "cc"}))
        assert result.worst_pairs == (
            ("aaaa", "a", 0.75),
            ("bb", "b", 0.5),
            ("dd", "d", 0.5),
            ("cc", "cc", 0.0),
        )

    def test_worst_pairs_truncated(self):
        result = anld(mapping({"aa": "a", "bb": "b", "cc": "c"}), worst_n=2)
        assert len(result.worst_pairs) == 2

    def test_empty_mapping(self):
        with pytest.raises(MetricError, match="empty"):
            anld(mapping({}))

    def test_empty_original_token(self):
        with pytest.raises(MetricError, match="empty original"):
            anld(mapping({"": "x"}))

    def test_empty_stem_costs_full_length(self):
        result = anld(mapping({"abcd": ""}))
        assert result.anld == pytest.approx(1.0)

    def test_unknown_weighting(self):
        with pytest.raises(MetricError, match="unknown weighting"):
            anld(mapping({"a": "a"}), weighting="by_magic")
        with pytest.raises(MetricError, match="unknown weighting"):
            metrics.anld_with_alternate(mapping({"a": "a"}), "by_magic", worst_n=20)

    @pytest.mark.parametrize("weighting", ["by_occurrence", "by_type"])
    def test_alternate_matches_separate_calls_from_one_pass(self, weighting, monkeypatch):
        m = mapping(
            {"running": "run", "cats": "cat", "ab": "abcdef", "x": "x"},
            counts={"running": 3, "cats": 1, "ab": 2, "x": 5},
        )
        other = "by_type" if weighting == "by_occurrence" else "by_occurrence"
        expected = (anld(m, weighting, worst_n=2), anld(m, other, worst_n=0))
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return levenshtein(a, b)

        monkeypatch.setattr(metrics, "levenshtein", counting)
        assert metrics.anld_with_alternate(m, weighting, worst_n=2) == expected
        assert len(calls) == len(m.types)

    @settings(max_examples=300, deadline=None)
    @given(
        weighted=weighted_pairs(),
        weighting=st.sampled_from(metrics.WEIGHTINGS),
        worst_n=st.integers(0, 45),
    )
    # tied worst pairs, an over-unit pair and counts near 2**40
    @example(
        weighted=[("cd", "c", 2**40), ("ab", "a", 3), ("ba", "b", 2**40 - 1), ("a", "abc", 1)],
        weighting="by_occurrence",
        worst_n=3,
    )
    def test_equals_left_to_right_reference(self, weighted, weighting, worst_n):
        pairs = [(orig, stem) for orig, stem, _ in weighted]
        counts = [count for *_, count in weighted]
        m = TokenMapping.of([orig for orig, _ in pairs], [stem for _, stem in pairs], counts)
        result = anld(m, weighting, worst_n)
        expected, over_unit, worst = reference_anld(pairs, counts, weighting, worst_n)
        assert result.anld.hex() == expected.hex()
        assert result.over_unit_pairs == over_unit
        assert [(o, s, d.hex()) for o, s, d in result.worst_pairs] == [
            (o, s, d.hex()) for o, s, d in worst
        ]
        assert all(type(d) is float for _, _, d in result.worst_pairs)
        # both weightings from one pass of distances
        other = next(w for w in metrics.WEIGHTINGS if w != weighting)
        primary, alternate = metrics.anld_with_alternate(m, weighting, worst_n)
        assert primary == result
        assert alternate.anld.hex() == reference_anld(pairs, counts, other, 0)[0].hex()

    def test_truncation_distance_non_increasing_in_prefix_length(self):
        words = ["normalization", "running", "cat", "jumped", "ab"]
        values = []
        for n in range(1, 8):
            pairs = {w: w[:n] for w in words}
            values.append(anld(mapping(pairs)).anld)
        assert values == sorted(values, reverse=True)


class TestTruncationLadder:
    """On the bundled corpus, a longer prefix keeps more of every word:
    CR and ANLD must not increase from truncate:2 to truncate:8."""

    def test_cr_and_anld_non_increasing_in_prefix_length(self):
        table = type_table(doc.text for doc in load_corpus(mini_corpus_path()).documents)
        counts = table.occurrence_counts()
        crs, by_occurrence, by_type = [], [], []
        for k in range(2, 9):
            m = type_mapping(TruncateNormalizer(k), table.types, counts)
            normalized, _ = table.relabel(m)
            crs.append(compression_ratio(len(table.types), len(normalized.types)).cr)
            by_occurrence.append(anld(m, "by_occurrence").anld)
            by_type.append(anld(m, "by_type").anld)
        for values in (crs, by_occurrence, by_type):
            assert values == sorted(values, reverse=True)
            assert values[0] > values[-1]
