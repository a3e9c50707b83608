"""Embedding providers, cosine similarity, and the retention score."""

import hashlib
import json
import random
import string
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval import (
    DocumentEmbedding,
    EmbeddingError,
    EmbeddingProvider,
    HashedNgramProvider,
    HttpServiceProvider,
    TokenizedDocument,
    VectorFileProvider,
    cosine,
    cosine_with_flag,
    irs,
    load_word2vec_text,
)


class TestCosine:
    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identical_nonzero_is_exactly_one(self):
        u = np.array([0.1, 0.2, 0.3])
        assert cosine(u, u.copy()) == 1.0

    def test_opposite(self):
        u = np.array([2.0, -1.0])
        assert cosine(u, -u) == pytest.approx(-1.0)

    def test_forty_five_degrees(self):
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
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
            cosine(np.ones(3), np.ones(4))

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
        value = cosine(u, u * scale)
        assert value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_huge_opposite_vectors(self):
        # both norms overflow to inf unless the vectors are rescaled
        u = np.array([3e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine(u, -2.0 * u) == pytest.approx(-1.0, abs=1e-12)

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
        assert cosine(u, v) == cosine(v, u)
        assert -1.0 <= cosine(u, v) <= 1.0


class TestHashedNgramProvider:
    def test_rejects_tiny_dimension(self):
        with pytest.raises(EmbeddingError, match=">= 8"):
            HashedNgramProvider(dim=4)

    def test_rejects_bad_ngram_range(self):
        with pytest.raises(EmbeddingError, match="range"):
            HashedNgramProvider(n_range=(5, 3))
        with pytest.raises(EmbeddingError, match="range"):
            HashedNgramProvider(n_range=(0, 2))

    def test_deterministic_across_instances(self):
        doc = ["running", "the", "marathon"]
        a = HashedNgramProvider(dim=64, seed=42).embed_document(doc)
        b = HashedNgramProvider(dim=64, seed=42).embed_document(doc)
        assert np.array_equal(a.vector, b.vector)
        assert a.token_count == b.token_count == 3

    def test_seed_changes_vectors(self):
        doc = ["running"]
        a = HashedNgramProvider(dim=64, seed=0).embed_document(doc)
        b = HashedNgramProvider(dim=64, seed=1).embed_document(doc)
        assert not np.array_equal(a.vector, b.vector)

    def test_nonempty_tokens_never_embed_to_zero(self):
        provider = HashedNgramProvider(dim=8)
        words = ["a", "an", "cat", "running", "électricité", "গান", "x" * 40]
        for word in words:
            emb = provider.embed_document([word])
            assert np.linalg.norm(emb.vector) > 0.0, word

    def test_empty_document_embeds_to_zero(self):
        emb = HashedNgramProvider(dim=16).embed_document([])
        assert np.array_equal(emb.vector, np.zeros(16))
        assert emb.token_count == 0

    def test_document_vector_is_mean_of_token_vectors(self):
        provider = HashedNgramProvider(dim=32)
        va = provider.embed_document(["alpha"]).vector
        vb = provider.embed_document(["beta"]).vector
        vab = provider.embed_document(["alpha", "beta"]).vector
        assert np.allclose(vab, (va + vb) / 2.0)

    def test_repeated_token_weighting(self):
        provider = HashedNgramProvider(dim=32)
        va = provider.embed_document(["alpha"]).vector
        vb = provider.embed_document(["beta"]).vector
        vaab = provider.embed_document(["alpha", "alpha", "beta"]).vector
        assert np.allclose(vaab, (2 * va + vb) / 3.0)

    def test_cache_does_not_change_results(self):
        provider = HashedNgramProvider(dim=32)
        first = provider.embed_document(["token"]).vector
        second = provider.embed_document(["token"]).vector
        assert np.array_equal(first, second)


def reference_token_vector(provider, token):
    """Token vector by the uncached per-gram loop: every gram of the
    token hashed afresh and added to a float64 vector."""
    lo, hi = provider.n_range
    wrapped = f"<{token}>"
    grams = {wrapped}
    for n in range(lo, hi + 1):
        for i in range(len(wrapped) - n + 1):
            grams.add(wrapped[i : i + n])
    key = provider.seed.to_bytes(8, "little", signed=True)
    vec = np.zeros(provider.dim, dtype=np.float64)
    for gram in sorted(grams):
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=9, key=key).digest()
        idx = int.from_bytes(digest[:8], "little") % provider.dim
        sign = 1.0 if digest[8] & 1 else -1.0
        vec[idx] += sign
    return vec


def reference_document_vector(provider, tokens):
    """Document vector pooled one token at a time with numpy ``+=``."""
    if not tokens:
        return np.zeros(provider.dim)
    acc = np.zeros(provider.dim, dtype=np.float64)
    for token in tokens:
        acc += reference_token_vector(provider, token)
    return acc / len(tokens)


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
            assert np.array_equal(provider._token_vector(word), expected), word

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
        for tokens, emb in zip(documents, out):
            assert emb.vector.dtype == np.float64 and emb.vector.shape == (dim,)
            assert np.array_equal(emb.vector, reference_document_vector(provider, tokens)), tokens
            assert emb.token_count == len(tokens)
        # one cache entry per distinct token
        assert len(provider._token_cache) == len({t for d in documents for t in d})

    def test_long_token_at_small_dimension(self):
        provider = HashedNgramProvider(dim=8)
        expected = reference_token_vector(provider, LONG_TOKEN)
        assert np.abs(expected).max() > 127
        assert np.array_equal(provider._token_vector(LONG_TOKEN), expected)
        document = [LONG_TOKEN, "gan", LONG_TOKEN]
        assert np.array_equal(
            provider.embed_document(document).vector, reference_document_vector(provider, document)
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
        for tokens, emb in zip(documents, out):
            assert np.array_equal(emb.vector, reference_document_vector(provider, tokens))


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
        emb = provider.embed_document(["a", "b"])
        assert np.array_equal(emb.vector, [0.5, 0.5])
        assert emb.token_count == 2

    def test_missing_tokens_skipped_and_counted(self, provider):
        emb = provider.embed_document(["a", "zz", "qq"])
        assert np.array_equal(emb.vector, [1.0, 0.0])
        assert emb.token_count == 1
        assert provider.missing_tokens == 2

    def test_all_missing_yields_zero_vector(self, provider):
        emb = provider.embed_document(["zz"])
        assert np.array_equal(emb.vector, [0.0, 0.0])
        assert emb.token_count == 0


class FixedProvider(EmbeddingProvider):
    """Test double mapping each document's token tuple to a fixed vector."""

    def __init__(self, table):
        self.table = {k: np.array(v, dtype=np.float64) for k, v in table.items()}

    def embed_documents(self, token_lists):
        return [
            DocumentEmbedding(self.table[tuple(tokens)], len(tokens)) for tokens in token_lists
        ]


def docs(*pairs):
    return [TokenizedDocument(doc_id=i, tokens=tuple(t)) for i, t in pairs]


class TestIrs:
    def test_identity_corpus_scores_exactly_one(self):
        provider = HashedNgramProvider(dim=32)
        corpus = docs(("d1", ["the", "runner"]), ("d2", ["ran", "fast"]))
        result = irs(provider, corpus, corpus)
        assert result.irs == 1.0
        assert result.zero_vector_docs == 0
        assert [doc_id for doc_id, _ in result.per_doc] == ["d1", "d2"]

    def test_half_identical_half_orthogonal(self):
        provider = FixedProvider({("x",): [1, 0], ("y",): [0, 1], ("z",): [1, 0]})
        original = docs(("d1", ["x"]), ("d2", ["y"]))
        normalized = docs(("d1", ["z"]), ("d2", ["x"]))
        result = irs(provider, original, normalized)
        assert result.irs == pytest.approx(0.5)
        assert dict(result.per_doc) == {"d1": 1.0, "d2": 0.0}

    def test_zero_vector_documents_counted(self):
        provider = HashedNgramProvider(dim=16)
        original = docs(("d1", ["word"]), ("d2", ["word"]))
        normalized = docs(("d1", ["word"]), ("d2", []))
        result = irs(provider, original, normalized)
        assert result.zero_vector_docs == 1
        assert result.irs == pytest.approx(0.5)

    def test_misaligned_document_ids_rejected(self):
        provider = HashedNgramProvider(dim=16)
        original = docs(("d1", ["a"]), ("d2", ["b"]))
        normalized = docs(("d2", ["b"]), ("d1", ["a"]))
        with pytest.raises(EmbeddingError, match="different document sequences"):
            irs(provider, original, normalized)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmbeddingError, match="empty"):
            irs(HashedNgramProvider(dim=16), [], [])

    def test_precomputed_original_embeddings(self):
        provider = HashedNgramProvider(dim=16)
        original = docs(("d1", ["running", "fast"]), ("d2", ["গানগুলো"]), ("d3", []))
        normalized = docs(("d1", ["run", "fast"]), ("d2", ["গান"]), ("d3", []))
        embedded = provider.embed_documents([list(d.tokens) for d in original])
        assert irs(provider, original, normalized, embedded) == irs(provider, original, normalized)
        with pytest.raises(EmbeddingError, match="2 original embeddings for 3 documents"):
            irs(provider, original, normalized, embedded[:2])


class EmbeddingHandler(BaseHTTPRequestHandler):
    """Scriptable embedding service; behavior lives on the server object."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        texts = body["texts"]
        with self.server.lock:
            self.server.batches.append(list(texts))
        status, payload = self.server.respond(texts)
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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
        assert [list(e.vector) for e in out] == [
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

    def test_empty_documents_not_sent(self, embedding_service):
        server, url = embedding_service
        out = HttpServiceProvider(url).embed_documents([[], ["word"], []])
        assert server.batches == [["word"]]
        assert np.array_equal(out[0].vector, np.zeros(2))
        assert out[0].token_count == 0
        assert np.array_equal(out[2].vector, np.zeros(2))

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
        assert [len(e.vector) for e in first] == [2, 2]
        # an all-empty call still gets the dimension of the first reply
        (empty,) = provider.embed_documents([[]])
        assert np.array_equal(empty.vector, np.zeros(2))
        with pytest.raises(EmbeddingError, match="inconsistent vector dimensions"):
            provider.embed_documents([["abc"]])

    def test_unreachable_service(self):
        provider = HttpServiceProvider("http://127.0.0.1:9/none", timeout=0.5)
        with pytest.raises(EmbeddingError, match="transport error"):
            provider.embed_documents([["word"]])

    def test_rejects_bad_batch_size(self):
        with pytest.raises(EmbeddingError, match="batch size"):
            HttpServiceProvider("http://example.invalid", batch_size=0)
