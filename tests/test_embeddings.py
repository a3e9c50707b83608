"""Embedding providers, cosine similarity, and IRS."""

import json
import random
import string
import threading
import tracemalloc
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval import (
    EmbeddingError,
    EmbeddingProvider,
    HashedNgramProvider,
    HttpServiceProvider,
    VectorFileProvider,
    cosine_with_flag,
    irs,
    load_word2vec_text,
)
from normeval import embeddings
from normeval.corpus import table_of
from normeval.embeddings import _EMBED_BLOCK, embed_table
from reference import reference_document_vector, reference_token_vector


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


def reference_cosine_with_flag(u, v):
    """cosine_with_flag with every norm taken by np.linalg.norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise EmbeddingError(f"cosine dimension mismatch: {u.shape} vs {v.shape}")
    with np.errstate(over="ignore"):
        # a norm that overflows to inf is rescaled below
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
    if not (1e-150 < nu < 1e150 and 1e-150 < nv < 1e150):
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise EmbeddingError("cosine of a vector with a NaN or infinite component")
        # dividing each vector by its largest magnitude keeps the angle
        # and brings both norms into [1, sqrt(dim)]
        if not (u.any() and v.any()):
            return 0.0, True
        u = u / np.abs(u).max()
        v = v / np.abs(v).max()
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
    if np.array_equal(u, v):
        return 1.0, False
    value = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, value)), False


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

    def test_rejects_bad_ngram_range(self):
        with pytest.raises(EmbeddingError, match="range"):
            HashedNgramProvider(n_range=(5, 3))
        with pytest.raises(EmbeddingError, match="range"):
            HashedNgramProvider(n_range=(0, 2))

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
        # one cache entry per distinct token
        assert len(provider._token_cache) == len({t for d in documents for t in d})

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


class TestBatchedTokenBins:
    """The bins of every new token of a call are built in one numpy pass;
    each token's vector must be the one its grams give one by one."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 5), (4, 6), (5, 9)]),
        st.integers(-2, 2),
        st.lists(st.lists(st.lists(_TOKENS, max_size=5), max_size=4), min_size=1, max_size=3),
    )
    @example(n_range=(3, 5), seed=0, calls=[[["", "a", "abc", "abcd"], [LONG_TOKEN[:300]]]])
    def test_token_vectors_equal_reference(self, n_range, seed, calls):
        provider = HashedNgramProvider(dim=8, n_range=n_range, seed=seed)
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # every call after the first mixes cached and new tokens
            for documents in calls:
                out = provider.embed_documents(documents)
                seen.update(t for d in documents for t in d)
                assert len(provider._token_cache) == len(seen)
                for tokens, row in zip(documents, out):
                    assert np.array_equal(row, reference_document_vector(provider, tokens))
            for token in seen:
                expected = reference_token_vector(provider, token)
                assert np.array_equal(provider.embed_documents([[token]])[0], expected), token
        # only the n-grams of the range are cached, not the whole wrapped
        # tokens outside it
        assert all(n_range[0] <= len(gram) <= n_range[1] for gram in provider._gram_bins)

    def test_table_grows_by_doubling(self):
        # irs adds a block's new tokens per call; the table must not be
        # copied whole on each of them
        provider = HashedNgramProvider(dim=8)
        lengths = set()
        for i in range(1000):
            provider.embed_documents([[f"token{i}"]])
            lengths.add((len(provider._indptr), len(provider._bins)))
        assert len(lengths) <= 2 * 16
        for i in (0, 511, 999):
            token = f"token{i}"
            assert np.array_equal(provider.embed_documents([[token]])[0], reference_token_vector(provider, token))

    @pytest.mark.parametrize("n_range", [(1, 2), (3, 5), (4, 8)])
    def test_many_new_tokens_in_one_call(self, n_range):
        # more new tokens than one build pass takes, some of them repeated
        rng = random.Random(1)
        words = ["".join(rng.choice(_TOKEN_CHARS) for _ in range(rng.randint(0, 12)))
                 for _ in range(5000)]
        documents = [words[i : i + 7] + words[i // 2 : i // 2 + 3] for i in range(0, 5000, 5)]
        provider = HashedNgramProvider(dim=16, n_range=n_range, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = provider.embed_documents(documents)
        assert len(provider._token_cache) == len(set(words))
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
    assert len(provider._token_cache) == len({t for d in documents for t in d})


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


class TestIrs:
    def test_identity_corpus_scores_exactly_one(self):
        provider = HashedNgramProvider(dim=32)
        table = table_of([["the", "runner"], ["ran", "fast"]])
        normalized, changed = table.relabel(table.types)
        assert not changed.any()
        result = irs(provider, ["d1", "d2"], embed_table(provider, table), normalized, rows())
        assert result.irs == 1.0
        assert result.zero_vector_docs == 0
        assert [doc_id for doc_id, _ in result.per_doc] == ["d1", "d2"]

    def test_half_identical_half_orthogonal(self):
        provider = FixedProvider({("x",): [1, 0], ("y",): [0, 1], ("z",): [1, 0]})
        table = table_of([["x"], ["y"]])
        normalized, changed = table.relabel(["z", "x"])
        original = embed_table(provider, table)
        result = irs(provider, ["d1", "d2"], original, normalized, np.flatnonzero(changed))
        assert result.irs == pytest.approx(0.5)
        assert dict(result.per_doc) == {"d1": 1.0, "d2": 0.0}

    def test_zero_vector_documents_counted(self):
        provider = HashedNgramProvider(dim=16)
        original = provider.embed_documents([["word"], ["word"]])
        result = irs(provider, ["d1", "d2"], original, table_of([["word"], []]), rows(1))
        assert result.zero_vector_docs == 1
        assert result.irs == pytest.approx(0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError, match="empty"):
            irs(HashedNgramProvider(dim=16), [], np.zeros((0, 16)), table_of([]), rows())

    def test_precomputed_original_embeddings(self):
        provider = HashedNgramProvider(dim=16)
        table = table_of([["running", "fast"], ["গানগুলো"], []])
        normalized = table_of([["run", "fast"], ["গান"], []])
        embedded = provider.embed_documents([["running", "fast"], ["গানগুলো"], []])
        ids = ["d1", "d2", "d3"]
        assert irs(provider, ids, embedded, normalized, rows(0, 1)) == irs(
            provider, ids, embed_table(provider, table), normalized, rows(0, 1)
        )
        with pytest.raises(EmbeddingError, match="2 original embeddings for 3 documents"):
            irs(provider, ids, embedded[:2], normalized, rows(0, 1))

    @pytest.mark.parametrize(
        "returned", [np.zeros((2, 2)), np.zeros((0, 2)), np.zeros((1, 3))], ids=["rows+1", "rows-1", "width+1"]
    )
    def test_provider_returning_wrong_shape_rejected(self, returned):
        class WrongShapeProvider(FixedProvider):
            def embed_documents(self, token_lists):
                return returned

        provider = WrongShapeProvider({("x",): [1, 0]})
        embedded = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EmbeddingError, match=r"for 1 changed documents of width 2"):
            irs(provider, ["d1", "d2"], embedded, table_of([["x"], ["y"]]), rows(1))

    def test_original_matrix_is_not_copied(self):
        # 4,000 documents at dim 256: an 8 MB matrix, while the scores and
        # the ids take well under 2 MB
        provider = HashedNgramProvider(dim=256)
        original = [[f"w{i % 50}"] for i in range(4000)]
        normalized = table_of(original[:-1] + [["changed"]])
        embedded = provider.embed_documents(original)
        snapshot = embedded.copy()
        ids = [f"d{i}" for i in range(4000)]
        tracemalloc.start()
        try:
            result = irs(provider, ids, embedded, normalized, rows(3999))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < embedded.nbytes / 4
        assert np.array_equal(embedded, snapshot)
        assert result.per_doc[-1][1] < 1.0 and result.irs > 0.99


def irs_by_pairs(doc_ids, original_matrix, normalized, changed, provider):
    """IRS by one cosine_with_flag call per document and a sequential
    sum; the documents at the rows ``changed`` are embedded from their
    ``normalized`` token lists, the others reuse their original row."""
    changed = changed.tolist()
    rows = dict(zip(changed, provider.embed_documents([normalized[i] for i in changed])))
    per_doc, total, zero_docs = [], 0.0, 0
    for i, (doc_id, row) in enumerate(zip(doc_ids, original_matrix)):
        value, flag = cosine_with_flag(row, rows.get(i, row))
        per_doc.append((doc_id, value))
        total += value
        zero_docs += flag
    return total / len(per_doc), tuple(per_doc), zero_docs


_IRS_RELATIONS = ["unchanged", "free", "copy", "opposite", "scaled", "zero"]


def corpus_of(matrix, changed, vectors):
    """The arguments of check_against_pairs for documents whose original
    rows are ``matrix`` and whose rows at ``changed`` embed to
    ``vectors[i]``: document ``i`` is ``[f"n{i}"]`` when changed, else
    ``[f"o{i}"]``, and a FixedProvider holds every document's vector."""
    changed = sorted(changed)
    normalized = [[f"n{i}"] if i in changed else [f"o{i}"] for i in range(len(matrix))]
    table = {
        tuple(tokens): vectors[i] if i in changed else matrix[i]
        for i, tokens in enumerate(normalized)
    }
    doc_ids = [f"d{i}" for i in range(len(matrix))]
    return doc_ids, np.asarray(matrix), normalized, rows(*changed), FixedProvider(table)


@st.composite
def irs_corpora(draw):
    """Original rows spanning zero, subnormal and huge norms, and a
    normalized side that is unchanged, equal, opposite, scaled, zero or
    free."""
    dim = draw(st.integers(1, 5))
    components = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    matrix, changed, vectors = [], [], {}
    for i in range(draw(st.integers(1, 10))):
        a = np.array(draw(components)) * draw(_SCALES)
        relation = draw(st.sampled_from(_IRS_RELATIONS))
        if relation == "free":
            b = np.array(draw(components)) * draw(_SCALES)
        elif relation == "scaled":
            b = a * min(draw(_SCALES), 1e300 / max(np.abs(a).max(), 1.0))
        else:
            b = {"unchanged": a, "copy": a, "opposite": -a, "zero": 0.0 * a}[relation]
        matrix.append(a)
        if relation != "unchanged":
            changed.append(i)
            vectors[i] = b
    return corpus_of(matrix, changed, vectors)


def check_against_pairs(doc_ids, matrix, normalized, changed, provider):
    """irs equals irs_by_pairs bit for bit, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = irs(provider, doc_ids, matrix, table_of(normalized), changed)
        expected = irs_by_pairs(doc_ids, matrix, normalized, changed, provider)
    assert result.irs.hex() == expected[0].hex()
    assert [(d, v.hex()) for d, v in result.per_doc] == [(d, v.hex()) for d, v in expected[1]]
    assert result.zero_vector_docs == expected[2]
    return result


class TestBatchedIrs:
    """irs takes its cosines from batched row dots; each must be the one
    cosine_with_flag gives, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(irs_corpora())
    def test_equal_to_per_pair_loop(self, corpus):
        check_against_pairs(*corpus)

    @settings(max_examples=100, deadline=None)
    @given(irs_corpora(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_row_still_raises(self, corpus, bad, data):
        doc_ids, matrix, normalized, changed, provider = corpus
        i = data.draw(st.integers(0, len(doc_ids) - 1))
        if data.draw(st.booleans()) or i not in changed.tolist():
            matrix[i, data.draw(st.integers(0, matrix.shape[1] - 1))] = bad
        else:
            row = provider.table[tuple(normalized[i])]
            row[data.draw(st.integers(0, len(row) - 1))] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingError, match="NaN or infinite"):
                irs(provider, doc_ids, matrix, table_of(normalized), changed)

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
        check_against_pairs(*corpus_of(matrix, set(range(n)) - unchanged, changed))

    def test_no_matrix_of_all_normalized_documents(self):
        # eight blocks of changed documents at dim 256: one float64 matrix
        # of them, or of the whole corpus, would take 8 MiB
        provider = HashedNgramProvider(dim=256)
        n = 8 * _EMBED_BLOCK
        table = table_of([f"w{i % 50}", f"v{i % 7}"] for i in range(n))
        # every document keeps its first token only
        normalized, changed = table.relabel(t if t[0] == "w" else "" for t in table.types)
        ids = [f"d{i}" for i in range(n)]
        matrix = embed_table(provider, table)
        tracemalloc.start()
        try:
            result = irs(provider, ids, matrix, normalized, np.flatnonzero(changed))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert changed.all()
        assert peak < matrix.nbytes
        fresh = HashedNgramProvider(dim=256)
        assert result == irs(fresh, ids, embed_table(fresh, table), normalized, np.flatnonzero(changed))


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
        original = embed_table(provider, table)
        provider.embedded.clear()
        provider.calls = 0
        normalized, changed = table.relabel(table.types)
        result = irs(provider, self.IDS, original, normalized, np.flatnonzero(changed))
        assert provider.embedded == [] and provider.calls == 0
        assert self.result_tuple(result) == irs_embedding_everything(
            HashedNgramProvider(dim=16), self.IDS, self.ORIGINAL, self.ORIGINAL
        )
        # the two empty originals are reused and still count as zero vectors
        assert result.zero_vector_docs == 2

    @pytest.mark.parametrize("changed", [["d1"], ["d2", "d4"], ["d1", "d3", "d5", "d6"]])
    def test_embeds_exactly_the_changed_documents(self, changed):
        stems = {"d1": ["run", "fast"], "d2": ["new"], "d3": ["গান"], "d4": ["the", "runner"],
                 "d5": [], "d6": ["x"]}
        normalized = [
            stems[doc_id] if doc_id in changed else tokens
            for doc_id, tokens in zip(self.IDS, self.ORIGINAL)
        ]
        provider = CountingProvider(dim=16)
        original = provider.embed_documents(self.ORIGINAL)
        provider.embedded.clear()
        changed_rows = rows(*(self.IDS.index(doc_id) for doc_id in changed))
        result = irs(provider, self.IDS, original, table_of(normalized), changed_rows)
        assert provider.embedded == [tuple(stems[doc_id]) for doc_id in changed]
        assert self.result_tuple(result) == irs_embedding_everything(
            HashedNgramProvider(dim=16), self.IDS, self.ORIGINAL, normalized
        )

    def test_reused_all_zero_original_counts_as_zero_vector(self, tmp_path):
        # "zz" is not in the table, so d1 embeds to zero on both sides
        provider = VectorFileProvider(write_vectors(tmp_path / "v.txt", ["1 2", "a 1 0"]))
        original = provider.embed_documents([["zz"], ["a"], ["a"]])
        normalized = table_of([["zz"], ["a"], ["zz"]])
        result = irs(provider, ["d1", "d2", "d3"], original, normalized, rows(2))
        assert self.result_tuple(result) == (1 / 3, (("d1", 0.0), ("d2", 1.0), ("d3", 0.0)), 2)
        # the originals and the one changed document were looked up
        assert provider.missing_tokens == 2


class TestIrsInSmallBlocks:
    """irs embeds and scores the changed documents _EMBED_BLOCK at a
    time; with blocks of 3, a few documents span several blocks."""

    @pytest.fixture(autouse=True, scope="class")
    def small_blocks(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "_EMBED_BLOCK", 3)
            yield

    @settings(max_examples=100, deadline=None)
    @given(irs_corpora())
    def test_equal_to_per_pair_loop(self, corpus):
        check_against_pairs(*corpus)

    def test_zero_and_out_of_range_rows_in_later_blocks(self):
        n, dim = 11, 4
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((n, dim))
        changed = matrix + 0.3 * rng.standard_normal((n, dim))
        # the changed documents 0 2 3 | 4 5 7 | 8 9 10 make three blocks
        unchanged = {1, 6}
        matrix[6] = 0.0
        changed[5] = 0.0
        matrix[8] *= 1e-310
        changed[10] *= 1e200
        result = check_against_pairs(*corpus_of(matrix, set(range(n)) - unchanged, changed))
        assert result.zero_vector_docs == 2

    def test_wrong_shape_in_second_block_rejected(self):
        class SecondBlockTooShort(FixedProvider):
            calls = 0

            def embed_documents(self, token_lists):
                self.calls += 1
                out = super().embed_documents(token_lists)
                return out[:-1] if self.calls == 2 else out

        provider = SecondBlockTooShort({("x",): [1, 0], ("y",): [0, 1]})
        embedded = np.array([[1.0, 0.0]] * 5)
        ids = [f"d{i}" for i in range(5)]
        with pytest.raises(EmbeddingError, match=r"shape \(1, 2\) for 2 changed documents"):
            irs(provider, ids, embedded, table_of([["y"]] * 5), rows(0, 1, 2, 3, 4))

    @pytest.mark.parametrize("n_changed, calls", [(0, 0), (1, 1), (3, 1), (4, 2), (7, 3)])
    def test_one_call_per_block_of_changed_documents(self, n_changed, calls):
        provider = CountingProvider(dim=16)
        original = [[f"w{i}"] for i in range(8)]
        normalized = original[: 8 - n_changed] + [[f"s{i}"] for i in range(8 - n_changed, 8)]
        matrix = provider.embed_documents(original)
        provider.calls = 0
        ids = [f"d{i}" for i in range(8)]
        irs(provider, ids, matrix, table_of(normalized), rows(*range(8 - n_changed, 8)))
        assert provider.calls == calls


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
