"""Embedding providers, cosine similarity, and IRS."""

import contextlib
import json
import random
import string
import threading
import tracemalloc
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval import (
    EmbeddingError,
    EmbeddingProvider,
    HashedNgramProvider,
    HttpServiceProvider,
    RunConfig,
    TokenizerConfig,
    TokenMapping,
    VectorFileProvider,
    build_normalizer,
    cosine_with_flag,
    irs,
    load_word2vec_text,
    run_evaluation,
)
from normeval import embeddings
from normeval.corpus import table_of
from normeval.embeddings import _EMBED_BLOCK, _NGRAM_RANGE
from reference import (
    load_corpus,
    reference_cosine_with_flag,
    reference_document_vector,
    reference_irs,
    reference_normalize_corpus,
    reference_stem_lists,
    reference_token_vector,
    reference_tokenize_corpus,
    table_tokens,
)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_with_flag(np.array([1.0, 0.0]), np.array([0.0, 1.0]))[0] == 0.0

    def test_identical_nonzero_is_exactly_one(self):
        u = np.array([0.1, 0.2, 0.3])
        assert cosine_with_flag(u, u.copy())[0] == 1.0

    def test_opposite(self):
        u = np.array([2.0, -1.0])
        assert cosine_with_flag(u, -u)[0] == pytest.approx(-1.0)

    def test_forty_five_degrees(self):
        value, _ = cosine_with_flag(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_vector_convention(self):
        value, flagged = cosine_with_flag(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert value == 0.0 and flagged
        value, flagged = cosine_with_flag(np.ones(3), np.ones(3))
        assert value == 1.0 and not flagged
        # a vector whose norm underflows to 0 is still not a zero vector
        value, flagged = cosine_with_flag(np.array([0.0, 1e-300]), np.array([1e-300, 1e-300]))
        assert value == pytest.approx(2**-0.5, abs=1e-12) and not flagged

    def test_dimension_mismatch(self):
        with pytest.raises(EmbeddingError, match="mismatch"):
            cosine_with_flag(np.ones(3), np.ones(4))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
        st.floats(1e-3, 1e3),
    )
    # the dot product of this vector with its half underflows
    @example(values=[0.0, 3.583250239489584e-162], scale=0.5)
    def test_positive_scale_invariance(self, values, scale):
        u = np.array(values)
        if np.linalg.norm(u) == 0.0 or np.linalg.norm(u * scale) == 0.0:
            return
        value, _ = cosine_with_flag(u, u * scale)
        assert value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_huge_opposite_vectors(self):
        # both norms overflow to inf unless the vectors are rescaled
        u = np.array([3e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine_with_flag(u, -2.0 * u)[0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_rejected(self, bad):
        u, v = np.array([bad, 1.0]), np.array([1.0, 1.0])
        for a, b in ((u, v), (v, u)):
            with pytest.raises(EmbeddingError, match="NaN or infinite"):
                cosine_with_flag(a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    )
    def test_symmetric_and_bounded(self, a, b):
        u, v = np.array(a), np.array(b)
        assert cosine_with_flag(u, v) == cosine_with_flag(v, u)
        assert -1.0 <= cosine_with_flag(u, v)[0] <= 1.0


# components spanning 1e-310 (subnormal) to 1e300, with the scales at
# which a norm crosses the 1e-150 and 1e150 limits drawn often
_SCALES = st.one_of(
    st.sampled_from([0.0, 1e-310, 1e-160, 1e-150, 1e-140, 1.0, 1e140, 1e150, 1e160, 1e300]),
    st.floats(1e-151, 1e-149),
    st.floats(1e149, 1e151),
    st.integers(-310, 300).map(lambda e: 10.0**e),
)
_COMPONENTS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)


@st.composite
def cosine_pairs(draw):
    base = draw(_COMPONENTS)
    u = np.array(base) * draw(_SCALES)
    relation = draw(st.sampled_from(["free", "same", "copy", "opposite", "scaled", "zero"]))
    if relation == "free":
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(base), max_size=len(base))))
        v = v * draw(_SCALES)
    elif relation == "same":
        v = u
    elif relation == "copy":
        v = u.copy()
    elif relation == "opposite":
        v = -u
    elif relation == "scaled":
        # a scale that would overflow a component is clipped to 1e300
        v = u * min(draw(_SCALES), 1e300 / max(np.abs(u).max(), 1.0))
    else:
        v = np.zeros_like(u)
    return (v, u) if draw(st.booleans()) else (u, v)


class TestCosineMatchesLinalgNorm:
    """cosine_with_flag takes its norms as sqrt(x . x); every result must
    be bit for bit the one np.linalg.norm gives."""

    @settings(max_examples=1000, deadline=None)
    @given(cosine_pairs())
    @example((np.array([3e200, 1e200]), np.array([-6e200, -2e200])))
    @example((np.array([0.0, 1e-300]), np.array([1e-300, 1e-300])))
    @example((np.array([1e-310, -1e-310]), np.array([1e-310, -1e-310])))
    @example((np.zeros(3), np.zeros(3)))
    def test_bitwise_equal_to_reference(self, pair):
        u, v = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, flag = cosine_with_flag(u, v)
            expected, expected_flag = reference_cosine_with_flag(u, v)
        assert (value.hex(), flag) == (expected.hex(), expected_flag)

    @settings(max_examples=200, deadline=None)
    @given(cosine_pairs(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_still_raises(self, pair, bad, data):
        u, v = (x.copy() for x in pair)
        target = data.draw(st.sampled_from([u, v]))
        target[data.draw(st.integers(0, len(target) - 1))] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingError, match="NaN or infinite"):
                cosine_with_flag(u, v)


class TestHashedNgramProvider:
    def test_rejects_tiny_dimension(self):
        with pytest.raises(EmbeddingError, match=">= 8"):
            HashedNgramProvider(dim=4)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 99999999999999999999])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(EmbeddingError, match="seed"):
            HashedNgramProvider(seed=seed)

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_accepts_seed_at_64_bit_limits(self, seed):
        provider = HashedNgramProvider(dim=8, seed=seed)
        assert provider.embed_documents([["token"]]).shape == (1, 8)

    def test_deterministic_across_instances(self):
        doc = ["running", "the", "marathon"]
        a = HashedNgramProvider(dim=64, seed=42).embed_documents([doc])
        b = HashedNgramProvider(dim=64, seed=42).embed_documents([doc])
        assert np.array_equal(a, b)

    def test_seed_changes_vectors(self):
        doc = ["running"]
        a = HashedNgramProvider(dim=64, seed=0).embed_documents([doc])
        b = HashedNgramProvider(dim=64, seed=1).embed_documents([doc])
        assert not np.array_equal(a, b)

    def test_nonempty_tokens_never_embed_to_zero(self):
        provider = HashedNgramProvider(dim=8)
        words = ["a", "an", "cat", "running", "électricité", "গান", "x" * 40]
        for word, row in zip(words, provider.embed_documents([[word] for word in words])):
            assert np.linalg.norm(row) > 0.0, word

    def test_empty_document_embeds_to_zero(self):
        out = HashedNgramProvider(dim=16).embed_documents([[]])
        assert np.array_equal(out, np.zeros((1, 16)))

    def test_document_vector_is_mean_of_token_vectors(self):
        provider = HashedNgramProvider(dim=32)
        va, vb, vab = provider.embed_documents([["alpha"], ["beta"], ["alpha", "beta"]])
        assert np.allclose(vab, (va + vb) / 2.0)

    def test_repeated_token_weighting(self):
        provider = HashedNgramProvider(dim=32)
        va, vb, vaab = provider.embed_documents([["alpha"], ["beta"], ["alpha", "alpha", "beta"]])
        assert np.allclose(vaab, (2 * va + vb) / 3.0)

    def test_cache_does_not_change_results(self):
        provider = HashedNgramProvider(dim=32)
        first = provider.embed_documents([["token"]])
        second = provider.embed_documents([["token"]])
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("call", ["embed_documents", "id_embedder"])
    def test_lone_surrogate_rejected_before_any_state_changes(self, call):
        provider = HashedNgramProvider(dim=16)
        provider.embed_documents([["before"]])
        state = gram_index_state(provider)
        tokens = ["fresh", "a\ud800b", "later"]
        with pytest.raises(EmbeddingError, match=r"token 'a\\ud800b' holds a lone surrogate"):
            if call == "embed_documents":
                provider.embed_documents([tokens])
            else:
                provider.id_embedder(tokens)
        assert gram_index_state(provider) == state
        documents = [["fresh", "later"], ["before", "fresh"]]
        for tokens, row in zip(documents, provider.embed_documents(documents)):
            assert np.array_equal(row, reference_document_vector(provider, tokens))


# 20,000 random lowercase letters: at dim 8 one coordinate of its vector
# reaches 205, beyond the range of int8
_rng = random.Random(0)
LONG_TOKEN = "".join(_rng.choice(string.ascii_lowercase) for _ in range(20000))

MIXED_WORDS = [
    "running", "ran", "électricité", "naïve", "গান", "গানগুলো", "কর্ম", "বিদ্যালয়",
    "東京", "x" * 40, "a", "r\u00e9sum\u00e9s", "ক্ষ", "mixedগান",
]


class TestHashedNgramAgainstReference:
    @pytest.mark.parametrize("dim,seed", [(8, 0), (64, 3), (256, 0)])
    def test_token_vectors_equal(self, dim, seed):
        provider = HashedNgramProvider(dim=dim, seed=seed)
        for word in MIXED_WORDS:
            expected = reference_token_vector(provider, word)
            assert np.array_equal(provider.embed_documents([[word]])[0], expected), word

    @pytest.mark.parametrize("dim,seed", [(8, 0), (64, 3), (256, 0)])
    def test_document_vectors_equal(self, dim, seed):
        provider = HashedNgramProvider(dim=dim, seed=seed)
        documents = [
            MIXED_WORDS,
            [],
            ["গান", "গান", "running", "গান", "running"],
            ["a"] * 7,
            list(reversed(MIXED_WORDS)),
            [],
        ]
        out = provider.embed_documents(documents)
        assert out.dtype == np.float64 and out.shape == (len(documents), dim)
        assert out.flags.c_contiguous
        for tokens, row in zip(documents, out):
            assert np.array_equal(row, reference_document_vector(provider, tokens)), tokens
        assert_keeps_only_grams(provider, {t for d in documents for t in d})

    def test_long_token_at_small_dimension(self):
        provider = HashedNgramProvider(dim=8)
        expected = reference_token_vector(provider, LONG_TOKEN)
        assert np.abs(expected).max() > 127
        assert np.array_equal(provider.embed_documents([[LONG_TOKEN]])[0], expected)
        document = [LONG_TOKEN, "gan", LONG_TOKEN]
        assert np.array_equal(
            provider.embed_documents([document])[0], reference_document_vector(provider, document)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.text(alphabet="abé" + "\u0995\u09be\u09cd", min_size=1, max_size=8), max_size=6
            ),
            max_size=4,
        )
    )
    def test_random_documents_equal(self, documents):
        provider = HashedNgramProvider(dim=16, seed=1)
        out = provider.embed_documents(documents)
        assert out.shape == (len(documents), 16)
        for tokens, row in zip(documents, out):
            assert np.array_equal(row, reference_document_vector(provider, tokens))


# the markers themselves, a combining acute, Bengali vowel signs and
# virama, an astral letter and an astral emoji
_TOKEN_CHARS = "ab<>\u00e9\u0301\u0995\u09be\u09cd\U0001d518\U0001f642"
_TOKENS = st.one_of(
    st.text(alphabet=_TOKEN_CHARS, max_size=10),
    st.sampled_from(["", "a", "ab", "abc", "\U0001d518\U0001d518", "x" * 60]),
)


def distinct_grams(tokens, n):
    """The distinct n-grams of the wrapped ``tokens``."""
    return {f"<{t}>"[i : i + n] for t in tokens for i in range(len(t) + 3 - n)}


def gram_index_state(provider):
    """The keys, ids and bins of the provider's gram index, as bytes."""
    grams = provider._grams
    return [(grams.keys[n].tobytes(), grams.ids[n].tobytes(), grams.bins[n].tobytes())
            for n in sorted(grams.keys)]


def gram_index_bytes(provider):
    grams = provider._grams
    return sum(a.nbytes for arrays in (grams.keys, grams.ids, grams.bins) for a in arrays.values())


def assert_keeps_only_grams(provider, tokens):
    """The provider keeps no state but its gram index, which holds the
    grams of ``tokens`` of each length in _NGRAM_RANGE and no others."""
    assert set(vars(provider)) == {"dim", "seed", "name", "_offset_type", "_grams"}
    lo, hi = _NGRAM_RANGE
    for n in range(lo, hi + 1):
        assert len(provider._grams.keys[n]) == len(distinct_grams(tokens, n))


def token_bin_count(token):
    """The bins a token's row of a vocabulary table holds: one per
    distinct gram, and one for a whole wrapped token outside the range."""
    lo, hi = _NGRAM_RANGE
    whole = not lo <= len(token) + 2 <= hi
    return whole + sum(len(distinct_grams([token], n)) for n in range(lo, hi + 1))


class TestBatchedTokenBins:
    """The bins of every new token of a call are built in one numpy pass;
    each token's vector must be the one its grams give one by one."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-2, 2),
        st.lists(st.lists(st.lists(_TOKENS, max_size=5), max_size=4), min_size=1, max_size=3),
    )
    @example(seed=0, calls=[[["", "a", "abc", "abcd"], [LONG_TOKEN[:300]]]])
    def test_token_vectors_equal_reference(self, seed, calls):
        provider = HashedNgramProvider(dim=8, seed=seed)
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # every call after the first mixes cached and new tokens
            for documents in calls:
                out = provider.embed_documents(documents)
                seen.update(t for d in documents for t in d)
                assert_keeps_only_grams(provider, seen)
                for tokens, row in zip(documents, out):
                    assert np.array_equal(row, reference_document_vector(provider, tokens))
            for token in seen:
                expected = reference_token_vector(provider, token)
                assert np.array_equal(provider.embed_documents([[token]])[0], expected), token
        # only the n-grams of the range are indexed, each under its
        # length, not the whole wrapped tokens outside it
        lo, hi = _NGRAM_RANGE
        for n in range(lo, hi + 1):
            assert len(provider._grams.keys[n]) == len(distinct_grams(seen, n))
        assert len(provider._grams) == sum(len(distinct_grams(seen, n)) for n in range(lo, hi + 1))

    @pytest.mark.parametrize("dim", [256, 40_000])
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.text(
                        st.one_of(
                            st.sampled_from("ab<>"),
                            st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
                            st.sampled_from(["\U0010ffff", "\U0010fffe", "\U00010000"]),
                            # a surrogate cannot be read from a UTF-8 corpus
                            st.characters(max_codepoint=0xFFFF, codec="utf-8"),
                        ),
                        max_size=9,
                    ),
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_gram_index_is_exact(self, dim, chunk, calls):
        # each call is an id_embedder (True) or embed_documents call of
        # one-token documents, built a few tokens at a time
        provider = HashedNgramProvider(dim=dim, seed=2)
        hashed = Counter()
        real_hash = provider._grams.hash

        def recording(grams):
            hashed.update(grams)
            return real_hash(grams)

        provider._grams.hash = recording
        seen = set()
        with mock.patch.object(embeddings, "_BUILD_CHUNK", chunk):
            for by_ids, tokens in calls:
                if by_ids:
                    tokens = list(dict.fromkeys(tokens))
                    embed = provider.id_embedder(tokens)
                    out = embed(np.arange(len(tokens)), np.arange(len(tokens) + 1))
                else:
                    out = provider.embed_documents([[token] for token in tokens])
                seen.update(tokens)
                for token, row in zip(tokens, out):
                    assert np.array_equal(row, reference_token_vector(provider, token)), token
        bin_type = np.uint16 if dim <= 2**15 else np.int32
        assert all(bins.dtype == bin_type for bins in provider._grams.bins.values())
        # every gram of the range reached the hash once, whatever the
        # calls and chunks it was built in
        lo, hi = _NGRAM_RANGE
        in_range = {gram: count for gram, count in hashed.items() if lo <= len(gram) <= hi}
        grams = set().union(*(distinct_grams(seen, n) for n in range(lo, hi + 1)))
        assert in_range == dict.fromkeys(grams, 1)

    def test_kept_memory_per_gram_and_bin(self):
        # the index keeps an int64 key, an int32 id and a two-byte bin per
        # gram, and a vocabulary's table an int64 indptr per token and two
        # bytes per bin; a string-keyed dict of the grams, about 90 bytes
        # a gram, and int32 bins fail the bound. The table is the
        # function's: once the function is gone, only the index is kept
        rng = random.Random(0)
        vocabulary = list(dict.fromkeys(
            "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 12)))
            for _ in range(3000)
        ))
        bins = sum(map(token_bin_count, vocabulary))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            provider = HashedNgramProvider(dim=256)
            embed = provider.id_embedder(vocabulary)
            live = tracemalloc.get_traced_memory()[0] - before
            del embed
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grams = len(provider._grams)
        assert bins > len(vocabulary) and grams > len(vocabulary)
        assert live < 24 * grams + 2 * bins + 8 * (len(vocabulary) + 1)
        assert kept < min(24 * grams, gram_index_bytes(provider) + 64 * 1024)

    def test_many_small_calls_keep_only_the_gram_index(self):
        # a caller may embed in many small embed_documents calls, each
        # adding a few new tokens; the provider must keep no table, and no
        # entry per token, across them
        HashedNgramProvider(dim=8).embed_documents([["warm"], ["up"]])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            provider = HashedNgramProvider(dim=8)
            for i in range(1000):
                provider.embed_documents([[f"token{i}"]])
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert_keeps_only_grams(provider, [f"token{i}" for i in range(1000)])
        assert kept < 24 * len(provider._grams)
        for i in (0, 511, 999):
            token = f"token{i}"
            assert np.array_equal(provider.embed_documents([[token]])[0], reference_token_vector(provider, token))

    def test_many_new_tokens_in_one_call(self):
        # more new tokens than one build pass takes, some of them repeated
        rng = random.Random(1)
        words = ["".join(rng.choice(_TOKEN_CHARS) for _ in range(rng.randint(0, 12)))
                 for _ in range(5000)]
        documents = [words[i : i + 7] + words[i // 2 : i // 2 + 3] for i in range(0, 5000, 5)]
        provider = HashedNgramProvider(dim=16, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = provider.embed_documents(documents)
        assert_keeps_only_grams(provider, words)
        for tokens, row in zip(documents[::37], out[::37]):
            assert np.array_equal(row, reference_document_vector(provider, tokens))


def block_corpus(n_docs, empty_at=(), long_at=()):
    """``n_docs`` short documents over a small vocabulary; the documents
    at ``empty_at`` are empty and those at ``long_at`` hold LONG_TOKEN."""
    words = ["gan", "ran", "running", "é", "গান", "a"]
    documents = [[words[i % 6], words[i % 5]][: 1 + i % 2] for i in range(n_docs)]
    for i in long_at:
        documents[i] = [LONG_TOKEN, "gan"]
    for i in empty_at:
        documents[i] = []
    return documents


def assert_equal_to_reference(provider, documents):
    out = provider.embed_documents(documents)
    assert out.dtype == np.float64 and out.shape == (len(documents), provider.dim)
    assert out.flags.c_contiguous
    reference = {}
    for tokens, row in zip(documents, out):
        key = tuple(tokens)
        if key not in reference:
            reference[key] = reference_document_vector(provider, tokens)
        assert np.array_equal(row, reference[key]), key[:2]
    assert_keeps_only_grams(provider, {t for d in documents for t in d})


class TestHashedNgramBlocks:
    """Documents are pooled a block of _EMBED_BLOCK at a time; no vector
    may depend on where the block edges fall."""

    @pytest.mark.parametrize("n_docs", [_EMBED_BLOCK - 1, _EMBED_BLOCK, _EMBED_BLOCK + 1])
    def test_block_edges_equal_reference(self, n_docs):
        # the first and last document of every block is empty (with
        # _EMBED_BLOCK + 1 documents the second block holds only an
        # empty one), and the 20,000-letter token sits next to the edges
        edges = {i for i in (0, _EMBED_BLOCK - 1, _EMBED_BLOCK, n_docs - 1) if i < n_docs}
        long_at = [i for i in (1, n_docs - 2) if i not in edges]
        documents = block_corpus(n_docs, empty_at=edges, long_at=long_at)
        assert_equal_to_reference(HashedNgramProvider(dim=8), documents)

    @pytest.mark.parametrize("empty_block", [0, 1])
    def test_block_of_only_empty_documents(self, empty_block):
        lo = empty_block * _EMBED_BLOCK
        documents = block_corpus(2 * _EMBED_BLOCK + 3, empty_at=range(lo, lo + _EMBED_BLOCK))
        assert_equal_to_reference(HashedNgramProvider(dim=16), documents)

    def test_all_documents_empty(self):
        out = HashedNgramProvider(dim=8).embed_documents([[]] * (_EMBED_BLOCK + 1))
        assert np.array_equal(out, np.zeros((_EMBED_BLOCK + 1, 8)))

    def test_no_documents(self):
        out = HashedNgramProvider(dim=8).embed_documents([])
        assert out.dtype == np.float64 and out.shape == (0, 8)

    @pytest.mark.parametrize("dim", [8, 256])
    def test_empty_document_is_positive_zero_float64(self, dim):
        provider = HashedNgramProvider(dim=dim)
        embedded = provider.embed_documents([["gan"], [], ["ran"]])
        for row in (embedded[1], provider.embed_documents([[]])[0]):
            assert row.dtype == np.float64 and row.shape == (dim,)
            assert not row.any() and not np.signbit(row).any()


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestWord2vecLoader:
    def test_round_trip(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["2 3", "a 1 0 0", "b 0 2.5 -1"])
        vectors, dim = load_word2vec_text(path)
        assert dim == 3
        assert np.array_equal(vectors["a"], [1.0, 0.0, 0.0])
        assert np.array_equal(vectors["b"], [0.0, 2.5, -1.0])

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 2\na 1 0\n", encoding="utf-8-sig")
        vectors, dim = load_word2vec_text(str(path))
        assert dim == 2
        assert list(vectors) == ["a"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(EmbeddingError, match="cannot open"):
            load_word2vec_text(str(tmp_path / "absent.txt"))

    def test_malformed_header(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["3", "a 1 0 0"])
        with pytest.raises(EmbeddingError, match="header"):
            load_word2vec_text(path)

    def test_non_integer_header(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["two 3", "a 1 0 0"])
        with pytest.raises(EmbeddingError, match="header"):
            load_word2vec_text(path)

    @pytest.mark.parametrize(
        "lines",
        [["0 -1"], ["0 0"], ["1 0", "foo"], ["-1 4"]],
        ids=["negative-dim", "zero-dim", "zero-dim-with-token", "negative-count"],
    )
    def test_non_positive_dimension_or_negative_count(self, tmp_path, lines):
        path = write_vectors(tmp_path / "v.txt", lines)
        with pytest.raises(EmbeddingError, match="header needs a count >= 0 and a dimension >= 1"):
            load_word2vec_text(path)

    def test_empty_file_with_a_valid_header(self, tmp_path):
        vectors, dim = load_word2vec_text(write_vectors(tmp_path / "v.txt", ["0 3"]))
        assert vectors == {} and dim == 3

    def test_wrong_component_count_reports_line(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["2 3", "a 1 0 0", "b 1 0"])
        with pytest.raises(EmbeddingError, match="line 3"):
            load_word2vec_text(path)

    def test_non_numeric_component(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["1 2", "a 1 oops"])
        with pytest.raises(EmbeddingError, match="non-numeric"):
            load_word2vec_text(path)

    def test_non_finite_component(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["1 2", "a 1 nan"])
        with pytest.raises(EmbeddingError, match="non-finite"):
            load_word2vec_text(path)

    def test_trailing_space_as_written_by_word2vec(self, tmp_path):
        # the reference word2vec tool writes "%lf " after every component
        path = tmp_path / "v.txt"
        path.write_bytes(b"2 3\na 1.000000 0.000000 0.000000 \nb 0.000000 2.500000 -1.000000 \n")
        vectors, dim = load_word2vec_text(str(path))
        assert dim == 3
        assert np.array_equal(vectors["a"], [1.0, 0.0, 0.0])
        assert np.array_equal(vectors["b"], [0.0, 2.5, -1.0])

    @pytest.mark.parametrize("trailing", ["", " ", "\t "])
    def test_crlf_line_ends(self, tmp_path, trailing):
        path = tmp_path / "v.txt"
        path.write_bytes(f"2 2\r\na 1 0{trailing}\r\nb 0 1{trailing}\r\n".encode())
        vectors, dim = load_word2vec_text(str(path))
        assert dim == 2
        assert np.array_equal(vectors["a"], [1.0, 0.0])
        assert np.array_equal(vectors["b"], [0.0, 1.0])

    def test_repeated_token_names_both_lines(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["3 2", "a 1 0", "b 0 1", "a 0.5 0.5"])
        with pytest.raises(EmbeddingError, match=r"line 4: token 'a' repeats line 2"):
            load_word2vec_text(path)

    def test_repeated_token_beats_count_mismatch(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["2 2", "a 1 0", "a 0 1"])
        with pytest.raises(EmbeddingError, match="repeats line 2"):
            load_word2vec_text(path)

    def test_count_mismatch(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["3 2", "a 1 0", "b 0 1"])
        with pytest.raises(EmbeddingError, match="declares 3"):
            load_word2vec_text(path)


class TestVectorFileProvider:
    @pytest.fixture
    def provider(self, tmp_path):
        path = write_vectors(tmp_path / "v.txt", ["2 2", "a 1 0", "b 0 1"])
        return VectorFileProvider(path)

    def test_mean_of_found_vectors(self, provider):
        out = provider.embed_documents([["a", "b"]])
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_missing_tokens_skipped_and_counted(self, provider):
        out = provider.embed_documents([["a", "zz", "qq"]])
        assert np.array_equal(out, [[1.0, 0.0]])
        assert provider.missing_tokens == 2

    def test_all_missing_yields_zero_vector(self, provider):
        out = provider.embed_documents([["zz"]])
        assert np.array_equal(out, [[0.0, 0.0]])


class FixedProvider(EmbeddingProvider):
    """Test double mapping each document's token tuple to a fixed vector."""

    def __init__(self, table):
        self.table = {k: np.array(v, dtype=np.float64) for k, v in table.items()}
        self.dim = len(next(iter(self.table.values())))

    def embed_documents(self, token_lists):
        out = np.zeros((len(token_lists), self.dim))
        for row, tokens in zip(out, token_lists):
            row[:] = self.table[tuple(tokens)]
        return out


def rows(*indices):
    """Document rows, as irs takes them."""
    return np.array(indices, dtype=np.intp)


def stemmed(table, stems):
    """The mapping of the types of ``table`` to ``stems``: one stem per
    type, in order, or a dict of type to stem, in which a type it lacks
    keeps its own form."""
    if isinstance(stems, dict):
        stems = [stems.get(t, t) for t in table.types]
    return TokenMapping.of(table.types, list(stems), table.occurrence_counts())


def normalization(table, stems):
    """The :func:`stemmed` mapping of ``table``, and the rows it changes."""
    mapping = stemmed(table, stems)
    return mapping, np.flatnonzero(table.changed(mapping))


def irs_of(provider, doc_ids, original, mapping, changed):
    """The IrsResult of one normalization through irs; its EmbeddingError
    is raised."""
    [outcome] = irs(provider, doc_ids, original, [(mapping, changed)])
    if isinstance(outcome, EmbeddingError):
        raise outcome
    return outcome


def hexed(result):
    """An IrsResult with every float as its hex string."""
    return (
        result.irs.hex(),
        [(doc_id, value.hex()) for doc_id, value in result.per_doc],
        result.zero_vector_docs,
    )


class TestIrs:
    def test_identity_corpus_scores_exactly_one(self):
        provider = HashedNgramProvider(dim=32)
        table = table_of([["the", "runner"], ["ran", "fast"]])
        mapping, changed = normalization(table, table.types)
        assert not len(changed)
        result = irs_of(provider, ["d1", "d2"], table, mapping, rows())
        assert result.irs == 1.0
        assert result.zero_vector_docs == 0
        assert [doc_id for doc_id, _ in result.per_doc] == ["d1", "d2"]

    def test_half_identical_half_orthogonal(self):
        provider = FixedProvider({("x",): [1, 0], ("y",): [0, 1], ("z",): [1, 0]})
        table = table_of([["x"], ["y"]])
        result = irs_of(provider, ["d1", "d2"], table, *normalization(table, ["z", "x"]))
        assert result.irs == pytest.approx(0.5)
        assert dict(result.per_doc) == {"d1": 1.0, "d2": 0.0}

    def test_zero_vector_documents_counted(self):
        provider = HashedNgramProvider(dim=16)
        original = table_of([["word"], ["gone"]])
        result = irs_of(provider, ["d1", "d2"], original, stemmed(original, {"gone": ""}), rows(1))
        assert result.zero_vector_docs == 1
        assert result.irs == pytest.approx(0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError, match="empty"):
            irs_of(HashedNgramProvider(dim=16), [], table_of([]), stemmed(table_of([]), []), rows())

    def test_scores_are_one_read_only_array_in_document_order(self):
        provider = FixedProvider({("x",): [1, 0], ("y",): [0, 1], ("z",): [1, 0]})
        table = table_of([["x"], ["y"], ["x"]])
        ids = ["d1", "d2", "d3"]
        result = irs_of(provider, ids, table, *normalization(table, {"x": "y"}))
        assert result.scores.dtype == np.float64 and not result.scores.flags.writeable
        assert result.scores.tolist() == [0.0, 1.0, 0.0]
        assert result.doc_ids is ids
        assert result.per_doc == (("d1", 0.0), ("d2", 1.0), ("d3", 0.0))
        # equal by value, not by identity
        copy = embeddings.IrsResult(result.irs, np.array([0.0, 1.0, 0.0]), list(ids), 0)
        assert result == copy
        assert result != embeddings.IrsResult(result.irs, np.array([0.0, 1.0, 0.5]), ids, 0)
        assert result != embeddings.IrsResult(result.irs, result.scores, ["d1", "d2", "d4"], 0)

    def test_originals_embedded_from_their_table(self):
        provider = HashedNgramProvider(dim=16)
        original = [["running", "fast"], ["গানগুলো"], []]
        stems = {"running": "run", "গানগুলো": "গান"}
        ids = ["d1", "d2", "d3"]
        table = table_of(original)
        result = irs_of(provider, ids, table, stemmed(table, stems), rows(0, 1))
        matrix = provider.embed_documents(original)
        expected = reference_irs(ids, matrix, reference_stem_lists(original, stems), rows(0, 1), provider)
        assert hexed(result) == hexed(expected)
        with pytest.raises(EmbeddingError, match="2 document ids for 3 documents"):
            irs_of(provider, ids[:2], table, stemmed(table, stems), rows(0, 1))

    @pytest.mark.parametrize(
        "returned", [np.zeros((2, 2)), np.zeros((0, 2)), np.zeros((1, 3))], ids=["rows+1", "rows-1", "width+1"]
    )
    def test_provider_returning_wrong_shape_rejected(self, returned):
        class WrongShapeProvider(FixedProvider):
            def embed_documents(self, token_lists):
                # the originals are "x" and "w"
                return returned if token_lists == [["y"]] else super().embed_documents(token_lists)

        provider = WrongShapeProvider({("x",): [1, 0], ("w",): [0, 1]})
        table = table_of([["x"], ["w"]])
        with pytest.raises(EmbeddingError, match=r"for 1 changed documents of width 2"):
            irs_of(provider, ["d1", "d2"], table, stemmed(table, {"w": "y"}), rows(1))

    @pytest.mark.parametrize(
        "returned", [np.zeros((3, 2)), np.zeros((1, 2)), np.zeros(2)], ids=["rows+1", "rows-1", "1-d"]
    )
    def test_provider_returning_wrong_shape_for_originals_rejected(self, returned):
        class WrongShapeProvider(FixedProvider):
            def embed_documents(self, token_lists):
                return returned

        provider = WrongShapeProvider({("x",): [1, 0]})
        table = table_of([["x"], ["w"]])
        [outcome] = irs(provider, ["d1", "d2"], table, [(stemmed(table, {"w": "y"}), rows(1))])
        assert isinstance(outcome, EmbeddingError)
        assert f"shape {returned.shape} for 2 original documents" in str(outcome)

    def test_no_normalization_embeds_nothing(self):
        provider = CountingProvider(dim=16)
        assert irs(provider, ["d1"], table_of([["word"]]), []) == []
        assert provider.embedded == [] and provider.calls == 0

    @pytest.mark.parametrize(
        "changed", [(1, 0), (0, 0), (-1,), (3,)], ids=["descending", "repeated", "negative", "past-end"]
    )
    def test_changed_rows_that_do_not_ascend_within_the_table_rejected(self, changed):
        provider = CountingProvider(dim=16)
        table = table_of([["a"], ["b"], ["c"]])
        with pytest.raises(EmbeddingError, match="changed rows must ascend within the 3 documents"):
            irs(provider, ["d1", "d2", "d3"], table, [(stemmed(table, ["x", "y", "c"]), rows(*changed))])
        assert provider.calls == 0

    @pytest.mark.parametrize(
        "other", [["a", "x", "c", "y"], ["a", "x"], ["a", "b", "z"]], ids=["longer", "shorter", "renamed"]
    )
    def test_mapping_of_other_types_rejected(self, other):
        # scored, a mapping of more types would read stem ids past the
        # table's types, and one of fewer could not map every document
        provider = CountingProvider(dim=16)
        table = table_of([["a"], ["b"], ["c"]])
        mapping = TokenMapping.of(other, other, [1] * len(other))
        with pytest.raises(
            EmbeddingError, match=f"^a mapping of {len(other)} other types for 3 original types$"
        ):
            irs(provider, ["d1", "d2", "d3"], table, [(mapping, rows(1))])
        assert provider.calls == 0


_IRS_RELATIONS = ["unchanged", "free", "copy", "opposite", "scaled", "zero"]


def pass_of(matrix, normalizations):
    """The arguments of irs, with the original token lists and each
    normalization's stems, for documents whose original rows are
    ``matrix`` under normalizations given as ``(changed, vectors)``:
    document ``i`` is ``[f"o{i}"]``, and under normalization ``j`` its
    token is stemmed to ``f"n{j}.{i}"``, embedding to ``vectors[i]``,
    when ``i`` is in ``changed``. A FixedProvider holds every document's
    vector, one token per document."""
    n = len(matrix)
    original = [[f"o{i}"] for i in range(n)]
    table = {(f"o{i}",): row for i, row in enumerate(matrix)}
    stems, changed_rows = [], []
    for j, (changed, vectors) in enumerate(normalizations):
        changed = sorted(changed)
        stems.append({f"o{i}": f"n{j}.{i}" for i in changed})
        table.update({(f"n{j}.{i}",): vectors[i] for i in changed})
        changed_rows.append(rows(*changed))
    doc_ids = [f"d{i}" for i in range(n)]
    return doc_ids, original, stems, changed_rows, FixedProvider(table)


def corpus_of(matrix, changed, vectors):
    """The arguments of check_against_reference for one normalization
    (see pass_of)."""
    doc_ids, original, [stems], [changed], provider = pass_of(matrix, [(changed, vectors)])
    return doc_ids, original, stems, changed, provider


@st.composite
def normalizations_of(draw, matrix):
    """A normalized side of the original rows ``matrix``, as ``(changed,
    vectors)``: each document unchanged, equal, opposite, scaled, zero or
    free."""
    components = st.lists(st.floats(-1.0, 1.0), min_size=len(matrix[0]), max_size=len(matrix[0]))
    changed, vectors = [], {}
    for i, a in enumerate(matrix):
        relation = draw(st.sampled_from(_IRS_RELATIONS))
        if relation == "free":
            b = np.array(draw(components)) * draw(_SCALES)
        elif relation == "scaled":
            b = a * min(draw(_SCALES), 1e300 / max(np.abs(a).max(), 1.0))
        else:
            b = {"unchanged": a, "copy": a, "opposite": -a, "zero": 0.0 * a}[relation]
        if relation != "unchanged":
            changed.append(i)
            vectors[i] = b
    return changed, vectors


@st.composite
def original_matrices(draw):
    """Original rows spanning zero, subnormal and huge norms."""
    dim = draw(st.integers(1, 5))
    components = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    return [np.array(draw(components)) * draw(_SCALES) for _ in range(draw(st.integers(1, 10)))]


@st.composite
def irs_corpora(draw):
    """Original rows and one normalized side (see normalizations_of)."""
    matrix = draw(original_matrices())
    return corpus_of(matrix, *draw(normalizations_of(matrix)))


@st.composite
def irs_passes(draw):
    """Original rows and one to four normalized sides."""
    matrix = draw(original_matrices())
    return pass_of(matrix, draw(st.lists(normalizations_of(matrix), min_size=1, max_size=4)))


def check_against_reference(doc_ids, original, stems, changed, provider):
    """irs equals reference_irs bit for bit, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = table_of(original)
        result = irs_of(provider, doc_ids, table, stemmed(table, stems), changed)
        matrix = provider.embed_documents(original)
        normalized = reference_stem_lists(original, stems)
        expected = reference_irs(doc_ids, matrix, normalized, changed, provider)
    assert result.irs.hex() == expected.irs.hex()
    assert [(d, v.hex()) for d, v in result.per_doc] == [(d, v.hex()) for d, v in expected.per_doc]
    assert result.zero_vector_docs == expected.zero_vector_docs
    return result


class TestBatchedIrs:
    """irs takes its cosines from batched row dots; each must be the one
    cosine_with_flag gives, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(irs_corpora())
    def test_equal_to_per_pair_loop(self, corpus):
        check_against_reference(*corpus)

    @settings(max_examples=100, deadline=None)
    @given(irs_corpora(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_row_still_raises(self, corpus, bad, data):
        doc_ids, original, stems, changed, provider = corpus
        i = data.draw(st.integers(0, len(doc_ids) - 1))
        if data.draw(st.booleans()) or i not in changed.tolist():
            row = provider.table[tuple(original[i])]
        else:
            row = provider.table[tuple(reference_stem_lists(original, stems)[i])]
        row[data.draw(st.integers(0, len(row) - 1))] = bad
        table = table_of(original)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingError, match="NaN or infinite"):
                irs_of(provider, doc_ids, table, stemmed(table, stems), changed)

    def test_rows_across_block_edges(self):
        n, dim = 2 * _EMBED_BLOCK + 5, 7
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((n, dim))
        changed = matrix + 0.3 * rng.standard_normal((n, dim))
        # zero, subnormal, huge, equal and unchanged rows at the block edges
        matrix[0] = 0.0
        changed[1] = 0.0
        matrix[_EMBED_BLOCK - 1] *= 1e-310
        changed[_EMBED_BLOCK] *= 1e200
        changed[_EMBED_BLOCK + 1] = matrix[_EMBED_BLOCK + 1]
        matrix[n - 1] *= 1e160
        changed[n - 1] = matrix[n - 1]
        unchanged = {2, _EMBED_BLOCK + 2, 2 * _EMBED_BLOCK}
        check_against_reference(*corpus_of(matrix, set(range(n)) - unchanged, changed))

    def test_no_matrix_of_all_normalized_documents(self):
        # eight blocks of documents, every one changed, at dim 256: one
        # float64 matrix of the originals, or of the normalized documents,
        # would take 2 MiB
        provider = HashedNgramProvider(dim=256)
        n = 8 * _EMBED_BLOCK
        table = table_of([f"w{i % 50}", f"v{i % 7}"] for i in range(n))
        # every document keeps its first token only
        mapping, changed = normalization(table, (t if t[0] == "w" else "" for t in table.types))
        ids = [f"d{i}" for i in range(n)]
        tracemalloc.start()
        try:
            result = irs_of(provider, ids, table, mapping, changed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(changed) == n
        assert peak < n * 256 * 8
        fresh = HashedNgramProvider(dim=256)
        assert result == irs_of(fresh, ids, table, mapping, changed)

    def test_peak_is_a_few_blocks_of_rows_and_the_tables(self):
        # eight blocks of documents at dim 256 and two normalizations that
        # change nearly every one. While a normalization's held block is
        # embedded, the pass holds a block of original rows, a block of
        # held rows per normalization, the embedded block and the pool's
        # int64 count matrix of twice its width: six blocks of rows. The
        # per-document results of eight blocks take under two more. The
        # tables of the three vocabularies and the gram index come on top
        dim, n = 256, 8 * _EMBED_BLOCK
        table = table_of([f"w{i % 500}", f"v{i % 70}"] for i in range(n))
        normalized = [
            normalization(table, (t if t[0] == "w" else "" for t in table.types)),
            normalization(table, (t[:2] for t in table.types)),
        ]
        ids = [f"d{i}" for i in range(n)]
        provider = HashedNgramProvider(dim=dim)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outcomes = irs(provider, ids, table, normalized)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(len(changed) > 0.95 * n for _, changed in normalized)
        tables = gram_index_bytes(provider) + sum(
            8 * (len(types) + 1) + 2 * sum(map(token_bin_count, types))
            for types in [table.types] + [mapping.stems for mapping, _ in normalized]
        )
        assert peak < 8 * _EMBED_BLOCK * dim * 8 + tables
        fresh = HashedNgramProvider(dim=dim)
        assert outcomes == irs(fresh, ids, table, normalized)


class TestIrsOverMappings:
    """irs maps each block of original rows through a mapping's stem ids;
    the documents it embeds and every score are those of the table
    relabelled by the mapping."""

    WORDS = ["run", "runs", "ran", "a", "gone", "x"]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(WORDS), max_size=4), min_size=1, max_size=9),
        st.dictionaries(st.sampled_from(WORDS), st.sampled_from(["", "run", "r", "a", "x", "new"])),
    )
    def test_equal_to_relabelled_table(self, docs, stems):
        # an empty document, and one whose every token has an empty stem
        docs = [*docs, [], ["gone", "gone"]]
        stems["gone"] = ""
        table = table_of(docs)
        mapping = stemmed(table, stems)
        relabelled, mask = table.relabel(mapping)
        changed = np.flatnonzero(mask)
        normalized = [list(tokens) for tokens in table_tokens(relabelled)]
        assert normalized == reference_stem_lists(docs, stems) and normalized[-1] == []
        ids = [f"d{i}" for i in range(len(docs))]
        provider = CountingProvider(dim=16)
        with blocks_of(2):
            result = irs_of(provider, ids, table, mapping, changed)
        # the originals, and the relabelled table's changed documents
        assert Counter(provider.embedded) == Counter(
            [tuple(tokens) for tokens in docs] + [tuple(normalized[i]) for i in changed.tolist()]
        )
        fresh = HashedNgramProvider(dim=16)
        expected = reference_irs(ids, fresh.embed_documents(docs), normalized, changed, fresh)
        assert hexed(result) == hexed(expected)
        assert result.zero_vector_docs == expected.zero_vector_docs >= 2


class CountingProvider(HashedNgramProvider):
    """Hashed provider that records every document it is asked to embed,
    and counts its calls: the calls of the functions its ``id_embedder``
    returns, which its ``embed_documents`` goes through too."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.embedded = []
        self.calls = 0

    def id_embedder(self, vocabulary):
        embed = super().id_embedder(vocabulary)

        def counted(ids, indptr):
            bounds = indptr.tolist()
            tokens = [vocabulary[i] for i in ids.tolist()]
            self.embedded.extend(tuple(tokens[a:b]) for a, b in zip(bounds, bounds[1:]))
            self.calls += 1
            return embed(ids, indptr)

        return counted


def irs_embedding_everything(provider, doc_ids, original, normalized):
    """IRS with both sides of every document embedded from its tokens."""
    emb_a = provider.embed_documents(original)
    emb_b = provider.embed_documents(normalized)
    pairs = [cosine_with_flag(a, b) for a, b in zip(emb_a, emb_b)]
    return (
        sum(value for value, _ in pairs) / len(pairs),
        tuple((doc_id, value) for doc_id, (value, _) in zip(doc_ids, pairs)),
        sum(flag for _, flag in pairs),
    )


class TestIrsSkipsUnchangedDocuments:
    IDS = ["d1", "d2", "d3", "d4", "d5", "d6"]
    ORIGINAL = [["running", "fast"], [], ["গানগুলো"], ["the", "runners"], ["x"], []]

    def result_tuple(self, result):
        return (result.irs, result.per_doc, result.zero_vector_docs)

    def test_identity_embeds_no_normalized_document(self):
        provider = CountingProvider(dim=16)
        table = table_of(self.ORIGINAL)
        result = irs_of(provider, self.IDS, table, *normalization(table, table.types))
        # the originals, in one block, and nothing else
        assert provider.embedded == [tuple(tokens) for tokens in self.ORIGINAL]
        assert provider.calls == 1
        assert self.result_tuple(result) == irs_embedding_everything(
            HashedNgramProvider(dim=16), self.IDS, self.ORIGINAL, self.ORIGINAL
        )
        # the two empty originals are reused and still count as zero vectors
        assert result.zero_vector_docs == 2

    # d2 and d6 are empty, so no mapping of types changes them
    @pytest.mark.parametrize("changed", [["d1"], ["d3", "d4"], ["d1", "d3", "d4", "d5"]])
    def test_embeds_exactly_the_changed_documents(self, changed):
        stems = {"d1": {"running": "run"}, "d3": {"গানগুলো": "গান"}, "d4": {"runners": "runner"},
                 "d5": {"x": ""}}
        stems = {t: stem for doc_id in changed for t, stem in stems[doc_id].items()}
        normalized = reference_stem_lists(self.ORIGINAL, stems)
        provider = CountingProvider(dim=16)
        table = table_of(self.ORIGINAL)
        changed_rows = rows(*(self.IDS.index(doc_id) for doc_id in changed))
        result = irs_of(provider, self.IDS, table, stemmed(table, stems), changed_rows)
        assert provider.embedded == [tuple(tokens) for tokens in self.ORIGINAL] + [
            tuple(normalized[i]) for i in changed_rows.tolist()
        ]
        assert self.result_tuple(result) == irs_embedding_everything(
            HashedNgramProvider(dim=16), self.IDS, self.ORIGINAL, normalized
        )

    def test_reused_all_zero_original_counts_as_zero_vector(self, tmp_path):
        # "zz" is not in the table, so d1 embeds to zero on both sides
        provider = VectorFileProvider(write_vectors(tmp_path / "v.txt", ["2 2", "a 1 0", "b 0 1"]))
        original = table_of([["zz"], ["a"], ["b"]])
        result = irs_of(provider, ["d1", "d2", "d3"], original, stemmed(original, {"b": "zz"}), rows(2))
        assert self.result_tuple(result) == (1 / 3, (("d1", 0.0), ("d2", 1.0), ("d3", 0.0)), 2)
        # the originals and the one changed document were looked up
        assert provider.missing_tokens == 2


@contextlib.contextmanager
def blocks_of(size):
    """irs with _EMBED_BLOCK = ``size`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "_EMBED_BLOCK", size)
        yield


class TestIrsInSmallBlocks:
    """irs embeds and scores the documents _EMBED_BLOCK at a time; with
    blocks of 3, a few documents span several blocks."""

    @pytest.fixture(autouse=True, scope="class")
    def small_blocks(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "_EMBED_BLOCK", 3)
            yield

    # The bit-for-bit comparisons against reference_irs run in blocks of
    # 2. Under a BLAS kernel whose dot sums in an order set by its second
    # operand's 16-byte alignment (OpenBLAS's Prescott), blocks of 3 move
    # every other odd-width row 8 bytes from its place in the reference's
    # matrices, and its dots with it; an even block, like the 128 of a
    # run, moves none.
    @settings(max_examples=100, deadline=None)
    @given(irs_corpora())
    def test_equal_to_per_pair_loop(self, corpus):
        with blocks_of(2):
            check_against_reference(*corpus)

    @settings(max_examples=100, deadline=None)
    @given(irs_passes())
    def test_several_normalizations_in_one_pass(self, corpus):
        doc_ids, original, stems, changed, provider = corpus
        table = table_of(original)
        with blocks_of(2), warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = irs(
                provider, doc_ids, table,
                [(stemmed(table, side), rows) for side, rows in zip(stems, changed)],
            )
            matrix = provider.embed_documents(original)
            expected = [
                reference_irs(doc_ids, matrix, reference_stem_lists(original, side), rows, provider)
                for side, rows in zip(stems, changed)
            ]
        assert [hexed(outcome) for outcome in outcomes] == [hexed(result) for result in expected]

    def test_zero_and_out_of_range_rows_in_later_blocks(self):
        n, dim = 11, 4
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((n, dim))
        changed = matrix + 0.3 * rng.standard_normal((n, dim))
        # the documents 0 1 2 | 3 4 5 | 6 7 8 | 9 10 make four blocks
        unchanged = {1, 6}
        matrix[6] = 0.0
        changed[5] = 0.0
        matrix[8] *= 1e-310
        changed[10] *= 1e200
        result = check_against_reference(*corpus_of(matrix, set(range(n)) - unchanged, changed))
        assert result.zero_vector_docs == 2

    def test_wrong_shape_in_second_block_rejected(self):
        class SecondBlockTooShort(FixedProvider):
            calls = 0

            def embed_documents(self, token_lists):
                out = super().embed_documents(token_lists)
                if token_lists[0] == ["x"]:  # the originals
                    return out
                self.calls += 1
                return out[:-1] if self.calls == 2 else out

        provider = SecondBlockTooShort({("x",): [1, 0], ("y",): [0, 1]})
        ids = [f"d{i}" for i in range(5)]
        with pytest.raises(EmbeddingError, match=r"shape \(1, 2\) for 2 changed documents"):
            table = table_of([["x"]] * 5)
            irs_of(provider, ids, table, stemmed(table, {"x": "y"}), rows(0, 1, 2, 3, 4))

    @pytest.mark.parametrize("n_changed, calls", [(0, 0), (1, 1), (3, 1), (4, 2), (7, 3)])
    def test_one_call_per_block_of_changed_documents(self, n_changed, calls):
        provider = CountingProvider(dim=16)
        table = table_of([f"w{i}"] for i in range(8))
        stems = {f"w{i}": f"s{i}" for i in range(8 - n_changed, 8)}
        ids = [f"d{i}" for i in range(8)]
        irs_of(provider, ids, table, stemmed(table, stems), rows(*range(8 - n_changed, 8)))
        # the three blocks of originals, then the changed documents' calls
        assert provider.calls - 3 == calls


class EmbeddingHandler(BaseHTTPRequestHandler):
    """Scriptable embedding service; behavior lives on the server object.

    ``server.respond(texts)`` returns ``(status, payload)``, or bytes that
    are written to the socket as the whole reply, status line included;
    empty bytes close the connection without a reply."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        texts = body["texts"]
        with self.server.lock:
            self.server.batches.append(list(texts))
            self.server.content_type = self.headers.get("Content-Type")
        reply = self.server.respond(texts)
        if isinstance(reply, bytes):
            self.wfile.write(reply)
            self.close_connection = True
            return
        status, payload = reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def embedding_service():
    server = ThreadingHTTPServer(("127.0.0.1", 0), EmbeddingHandler)
    server.lock = threading.Lock()
    server.batches = []
    server.respond = lambda texts: (
        200,
        {"vectors": [[float(len(t)), float(ord(t[0]))] for t in texts]},
    )
    # a short poll interval lets shutdown() return promptly
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/embed"
    server.shutdown()
    server.server_close()


class TestHttpServiceProvider:
    def test_batching_and_order_reassembly(self, embedding_service):
        server, url = embedding_service
        provider = HttpServiceProvider(url, batch_size=2)
        token_lists = [["alpha"], ["bee"], ["cc"], ["dddd"], ["e"]]
        out = provider.embed_documents(token_lists)
        assert out.tolist() == [
            [5.0, float(ord("a"))],
            [3.0, float(ord("b"))],
            [2.0, float(ord("c"))],
            [4.0, float(ord("d"))],
            [1.0, float(ord("e"))],
        ]
        assert sorted(len(b) for b in server.batches) == [1, 2, 2]

    def test_tokens_joined_with_spaces(self, embedding_service):
        server, url = embedding_service
        HttpServiceProvider(url).embed_documents([["two", "words"]])
        assert server.batches == [["two words"]]

    def test_posts_json_content_type(self, embedding_service):
        server, url = embedding_service
        out = HttpServiceProvider(url).embed_documents([["word"]])
        assert server.content_type == "application/json"
        assert out.dtype == np.float64 and out.shape == (1, 2) and out.flags.c_contiguous

    def test_empty_documents_not_sent(self, embedding_service):
        server, url = embedding_service
        out = HttpServiceProvider(url).embed_documents([[], ["word"], []])
        assert server.batches == [["word"]]
        assert np.array_equal(out[0], np.zeros(2))
        assert np.array_equal(out[2], np.zeros(2))
        assert not np.signbit(out).any()

    def test_empty_documents_before_first_reply_have_width_one(self, embedding_service):
        server, url = embedding_service
        out = HttpServiceProvider(url).embed_documents([[], []])
        assert server.batches == []
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_non_200_response(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (503, {"error": "overloaded"})
        with pytest.raises(EmbeddingError, match="status 503"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_wrong_vector_count(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": []})
        with pytest.raises(EmbeddingError, match="expected 1 vectors"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_malformed_reply(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, b"not json")
        with pytest.raises(EmbeddingError, match="malformed"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_missing_vectors_key(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"embeddings": [[1.0]]})
        with pytest.raises(EmbeddingError, match="malformed"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_non_finite_vector_rejected(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [[1.0, None]]})
        with pytest.raises(EmbeddingError, match="bad vector"):
            HttpServiceProvider(url).embed_documents([["word"]])

    @pytest.mark.parametrize(
        "vector",
        [["x"], [1, "2"], [True, 1], [1.0, False], [1.0, [2.0]], [[1.0], [2.0]], {"a": 1.0}, 3.0],
    )
    def test_non_numeric_vector_rejected(self, embedding_service, vector):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [vector]})
        with pytest.raises(EmbeddingError, match="bad vector"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_integer_beyond_float64_rejected(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [[1, 10**400]]})
        with pytest.raises(EmbeddingError, match="bad vector"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_integer_components_accepted(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [[1, -2, 3.5]]})
        out = HttpServiceProvider(url).embed_documents([["word"]])
        assert out.tolist() == [[1.0, -2.0, 3.5]] and out.dtype == np.float64

    def test_inconsistent_dimensions_within_batch(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [[1.0], [1.0, 2.0]]})
        with pytest.raises(EmbeddingError, match="inconsistent"):
            HttpServiceProvider(url, batch_size=2).embed_documents([["a"], ["b"]])

    def test_dimension_change_across_batches(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [[1.0] * len(t) for t in texts]})
        provider = HttpServiceProvider(url, batch_size=1, max_in_flight=1)
        with pytest.raises(EmbeddingError, match="inconsistent vector dimensions"):
            provider.embed_documents([["ab"], ["abc"]])

    def test_dimension_change_across_calls(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, {"vectors": [[1.0] * len(t) for t in texts]})
        provider = HttpServiceProvider(url)
        first = provider.embed_documents([["ab"], ["cd"]])
        assert first.shape == (2, 2)
        # an all-empty call still gets the dimension of the first reply
        (empty,) = provider.embed_documents([[]])
        assert np.array_equal(empty, np.zeros(2))
        with pytest.raises(EmbeddingError, match="inconsistent vector dimensions"):
            provider.embed_documents([["abc"]])

    def test_unreachable_service(self):
        provider = HttpServiceProvider("http://127.0.0.1:9/none", timeout=0.5)
        with pytest.raises(EmbeddingError, match="transport error"):
            provider.embed_documents([["word"]])

    def test_rejects_bad_batch_size(self):
        with pytest.raises(EmbeddingError, match="batch size"):
            HttpServiceProvider("http://example.invalid", batch_size=0)

    @pytest.mark.parametrize("max_in_flight", [0, -1])
    def test_rejects_bad_max_in_flight(self, max_in_flight):
        with pytest.raises(EmbeddingError, match="max in flight must be >= 1"):
            HttpServiceProvider("http://example.invalid", max_in_flight=max_in_flight)


class TestHttpFaults:
    """Each way the service or the transport can fail ends in one
    EmbeddingError."""

    def test_hang_past_timeout(self, embedding_service):
        server, url = embedding_service
        release = threading.Event()
        # once released, the handler closes the connection without writing
        server.respond = lambda texts: (release.wait(10), b"")[1]
        try:
            with pytest.raises(EmbeddingError, match="transport error"):
                HttpServiceProvider(url, timeout=0.2).embed_documents([["word"]])
        finally:
            release.set()

    def test_connection_closed_without_reply(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: b""
        with pytest.raises(EmbeddingError, match="transport error"):
            HttpServiceProvider(url).embed_documents([["word"]])

    @pytest.mark.parametrize("status", [b"200 OK", b"503 Service Unavailable"])
    def test_truncated_body(self, embedding_service, status):
        server, url = embedding_service
        server.respond = lambda texts: (
            b"HTTP/1.0 " + status + b"\r\nContent-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n{\"vectors\": [[1.0"
        )
        with pytest.raises(EmbeddingError, match="transport error"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_non_utf8_body(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (200, "\u00e9t\u00e9".encode("latin-1"))
        with pytest.raises(EmbeddingError, match="malformed reply"):
            HttpServiceProvider(url).embed_documents([["word"]])

    def test_non_utf8_error_body(self, embedding_service):
        server, url = embedding_service
        server.respond = lambda texts: (500, b"\xff\xfeoverloaded")
        with pytest.raises(EmbeddingError, match="status 500: .*overloaded"):
            HttpServiceProvider(url).embed_documents([["word"]])

    @pytest.mark.parametrize(
        "url", ["http://[::1", "http://127.0.0.1:99999/", "http://h:port/", "ftp://h/", "http:///x"]
    )
    def test_malformed_url(self, url):
        with pytest.raises(EmbeddingError, match="bad embedding service URL"):
            HttpServiceProvider(url).embed_documents([["word"]])


def write_corpus(path, texts):
    """A two-label corpus file of ``texts``; returns its path."""
    rows = "".join(f"{text}\t{'ab'[i % 2]}\n" for i, text in enumerate(texts))
    path.write_text("text\tlabel\n" + rows, encoding="utf-8")
    return str(path)


# documents that no normalizer changes, that truncate:2 and snowball-en
# both change, that only truncate:2 changes, and that both change again
RUN_TEXTS = [
    ("a is be", "running dogs", f"cat a w{i}", f"jumps w{i}")[i % 4] for i in range(22)
]


class TestIrsPassInARun:
    """evaluate makes one IRS pass: each block of originals is embedded
    once and every normalizer is scored against it."""

    SPECS = ("identity", "truncate:2", "snowball-en")

    def expected(self, corpus_path, specs):
        """Each spec's normalized token lists and changed rows, from the
        per-document reference normalization, and the originals."""
        docs = reference_tokenize_corpus(load_corpus(corpus_path), TokenizerConfig())
        sides = {}
        for spec in specs:
            normalized, _ = reference_normalize_corpus(build_normalizer(spec), docs)
            changed = rows(*(i for i, (a, b) in enumerate(zip(docs, normalized)) if a is not b))
            sides[spec] = ([list(doc.tokens) for doc in normalized], changed)
        return [list(doc.tokens) for doc in docs], sides

    def reference(self, corpus_path, spec):
        """The IRS of ``spec`` by reference_irs over a full originals matrix."""
        original, sides = self.expected(corpus_path, [spec])
        provider = HashedNgramProvider(dim=16)
        matrix = provider.embed_documents(original)
        doc_ids = [doc.id for doc in load_corpus(corpus_path).documents]
        return reference_irs(doc_ids, matrix, *sides[spec], provider)

    def test_each_document_embedded_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_EMBED_BLOCK", 4)
        corpus = write_corpus(tmp_path / "run.tsv", RUN_TEXTS)
        provider = CountingProvider(dim=16)
        monkeypatch.setattr("normeval.report.build_embedder", lambda spec: provider)
        reports = run_evaluation(RunConfig(corpus_path=corpus, normalizers=self.SPECS, classifiers=()))
        original, sides = self.expected(corpus, self.SPECS)
        expected = [tuple(tokens) for tokens in original]
        for normalized, changed in sides.values():
            expected += [tuple(normalized[i]) for i in changed.tolist()]
        # every original once, and every changed document once per normalizer
        assert Counter(provider.embedded) == Counter(expected)
        # one call per block of 4 originals, and per 4 changed documents
        # of each normalizer
        assert provider.calls == 6 + sum(-(-len(changed) // 4) for _, changed in sides.values())
        for spec, report in zip(self.SPECS, reports):
            assert hexed(report.irs_result) == hexed(self.reference(corpus, spec))

    def test_originals_failing_in_the_second_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_EMBED_BLOCK", 4)
        corpus = write_corpus(tmp_path / "run.tsv", RUN_TEXTS)

        class SecondOriginalsBlockFails(HashedNgramProvider):
            vocabularies = 0
            original_calls = 0

            def id_embedder(self, vocabulary):
                embed = super().id_embedder(vocabulary)
                self.vocabularies += 1
                if self.vocabularies > 1:
                    return embed

                # the first vocabulary is the originals'
                def originals(ids, indptr):
                    self.original_calls += 1
                    if self.original_calls == 2:
                        raise EmbeddingError("embedding service unavailable")
                    return embed(ids, indptr)

                return originals

        provider = SecondOriginalsBlockFails(dim=16)
        monkeypatch.setattr("normeval.report.build_embedder", lambda spec: provider)
        # the map: normalizer fails before the pass, so truncate:2 is the
        # first normalizer in it
        specs = ("map:/nonexistent/stems.tsv", "truncate:2", "identity", "snowball-en")
        reports = run_evaluation(RunConfig(corpus_path=corpus, normalizers=specs, classifiers=()))
        assert [r.failed for r in reports] == [True, True, False, False]
        assert reports[1].normalizer == "truncate:2"
        assert reports[1].error == "embedding service unavailable"
        for spec, report in zip(specs[2:], reports[2:]):
            assert hexed(report.irs_result) == hexed(self.reference(corpus, spec))
        # six blocks, the second embedded again
        assert provider.original_calls == 6 + 1

    def test_no_matrix_of_the_originals(self, tmp_path):
        # eight blocks of documents at dim 256: one float64 matrix of the
        # originals would take 2 MiB
        n = 8 * _EMBED_BLOCK
        corpus = write_corpus(tmp_path / "big.tsv", [f"w{i % 50} v{i % 7}" for i in range(n)])
        config = RunConfig(
            corpus_path=corpus, normalizers=("identity", "truncate:2"), classifiers=(),
            embedder="hash:256:0",
        )
        tracemalloc.start()
        try:
            reports = run_evaluation(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(report.failed for report in reports)
        assert peak < n * 256 * 8

    @pytest.mark.parametrize("every", [1, 7], ids=["dense", "sparse"])
    def test_http_posts_each_document_once(self, embedding_service, tmp_path, monkeypatch, every):
        # blocks of 64 documents, two batches of 32 each
        monkeypatch.setattr(embeddings, "_EMBED_BLOCK", 64)
        server, url = embedding_service
        server.respond = lambda texts: (
            200, {"vectors": [[float(len(t)), float(ord(t[0])), 1.0] for t in texts]}
        )
        # 150 documents over three blocks; truncate:2 changes every
        # every-th one, which are spread over all three blocks
        texts = [f"doc{i} text" if i % every == 0 else "ab cd" for i in range(150)]
        corpus = write_corpus(tmp_path / "http.tsv", texts)
        specs = ("identity", "truncate:2")
        config = RunConfig(corpus_path=corpus, normalizers=specs, classifiers=(), embedder=url)
        reports = run_evaluation(config)
        assert not any(report.failed for report in reports)
        original, sides = self.expected(corpus, specs)
        expected = [" ".join(tokens) for tokens in original]
        for normalized, changed in sides.values():
            expected += [" ".join(normalized[i]) for i in changed.tolist()]
        posted = [text for batch in server.batches for text in batch]
        assert Counter(posted) == Counter(expected)
        # as many batches as when the originals were embedded in one call
        # and the changed documents 64 at a time: 5 of originals, then
        # 5 (dense) or 1 (sparse, 22 documents) of truncate:2's
        n_changed = len(sides["truncate:2"][1])
        assert n_changed == -(-150 // every)
        assert len(server.batches) == 5 + -(-n_changed // 32)
