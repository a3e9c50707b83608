"""Document embedding providers and IRS, the score of what a
normalization keeps of each document's embedding.

Three provider kinds embed a list of documents into one C-contiguous
float64 matrix, a row per document, either from token lists
(``embed_documents``) or from type ids into a vocabulary
(``id_embedder``, which the run path uses):

* hashed character n-grams: deterministic, language-agnostic, no model
  or download required; the built-in default.
* vector file: word2vec text format lookup table, mean over found tokens.
* HTTP service: delegates embedding (and pooling) of whole documents to
  an external model server via a small JSON protocol.

The IRS of a normalizer is the mean cosine similarity between each
document's embedding and the embedding of its normalized form.
:func:`irs` scores every normalization of a run in one pass over the
documents, from the run's type table and each normalization's token
mapping: it embeds each block of originals once, maps each block of a
normalization's changed rows through its stem ids, and holds one block
of originals and at most one block of rows per normalization, never a
matrix of the corpus nor a normalized corpus. Each result keeps its
per-document scores as one float64 array in document order.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import urllib.parse
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import TokenMapping, TypeTable, _ranges, table_of
from .errors import EmbeddingError
from .metrics import left_sum


@dataclass(frozen=True, eq=False)
class IrsResult:
    """A normalization's IRS: ``scores`` holds each document's score as
    one read-only float64 array, in the order of ``doc_ids``, which is
    the list of document ids the scores were computed for, held by
    reference. Results compare equal by value."""

    irs: float
    scores: np.ndarray
    doc_ids: Sequence[str]
    zero_vector_docs: int

    @property
    def per_doc(self) -> tuple[tuple[str, float], ...]:
        """``(doc_id, score)`` of every document, built when read."""
        return tuple(zip(self.doc_ids, self.scores.tolist()))

    def __eq__(self, other):
        if not isinstance(other, IrsResult):
            return NotImplemented
        return (
            (self.irs, self.zero_vector_docs) == (other.irs, other.zero_vector_docs)
            and list(self.doc_ids) == list(other.doc_ids)
            and np.array_equal(self.scores, other.scores)
        )


# norms in this range keep the dot product clear of underflow and overflow
_NORM_LO, _NORM_HI = 1e-150, 1e150


def cosine_with_flag(u: np.ndarray, v: np.ndarray) -> tuple[float, bool]:
    """Cosine similarity in [-1, 1], and whether the zero-vector
    convention fired: 0 if either vector is all zeros.

    Bitwise-identical non-zero vectors score exactly 1.0 (a vector is at
    angle zero to itself; the shortcut avoids rounding the diagonal).
    Raises EmbeddingError if a component is NaN or infinite.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise EmbeddingError(f"cosine dimension mismatch: {u.shape} vs {v.shape}")
    with np.errstate(over="ignore"):
        # what np.linalg.norm evaluates for a 1-d float64 vector; a norm
        # that overflows to inf is rescaled below
        nu = math.sqrt(u.dot(u))
        nv = math.sqrt(v.dot(v))
    if not (_NORM_LO < nu < _NORM_HI and _NORM_LO < nv < _NORM_HI):
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise EmbeddingError("cosine of a vector with a NaN or infinite component")
        # dividing each vector by its largest magnitude keeps the angle
        # and brings both norms into [1, sqrt(dim)]
        if not (u.any() and v.any()):
            return 0.0, True
        u = u / np.abs(u).max()
        v = v / np.abs(v).max()
        nu = math.sqrt(u.dot(u))
        nv = math.sqrt(v.dot(v))
    if u is v or np.array_equal(u, v):
        return 1.0, False
    value = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, value)), False


class EmbeddingProvider:
    """Base class: subclasses embed token lists into a C-contiguous
    float64 array of shape ``(len(token_lists), dim)``.

    ``id_embedder`` takes a vocabulary once and returns a function that
    embeds documents given as ids into it: ``embed(ids, indptr)`` embeds
    the documents ``ids[indptr[i] : indptr[i + 1]]``, a row each. Here it
    calls ``embed_documents`` with their tokens, once per call of the
    function; providers that can work from ids override it."""

    name: str = "provider"

    def embed_documents(self, token_lists: list[list[str]]) -> np.ndarray:
        raise NotImplementedError

    def id_embedder(self, vocabulary: list[str]):
        def embed(ids: np.ndarray, indptr: np.ndarray) -> np.ndarray:
            tokens = list(map(vocabulary.__getitem__, ids.tolist()))
            bounds = indptr.tolist()
            return self.embed_documents([tokens[a:b] for a, b in zip(bounds, bounds[1:])])

        return embed


# every code point is below 2**21, so an id below 2**42 and a code pack
# into one int64 key
_CODE_BITS = 21
# the lengths of the character n-grams a token is hashed by
_NGRAM_RANGE = (3, 5)


class _GramIndex:
    """Each gram of a length in ``_NGRAM_RANGE`` hashed so far, found by an
    exact integer key, and the bin it adds to: a +1 gram at coordinate
    ``i`` adds to bin ``i``, a -1 gram to bin ``dim + i``.

    A 3-gram's key is its three code points packed ``_CODE_BITS`` each;
    a longer gram's key is the id of its prefix gram (one code point
    shorter) shifted left ``_CODE_BITS``, plus its last code point. The
    ids of each length number its grams in the order they were added.
    Each length keeps its keys sorted, with their ids and bins beside
    them, so a batch of keys is found by one ``np.searchsorted``."""

    def __init__(self, dim: int, key: bytes, dtype):
        self.dim = dim
        self.dtype = dtype
        # a copy of this keyed state hashes as a freshly keyed blake2b
        self.state = hashlib.blake2b(digest_size=9, key=key)
        lo, hi = _NGRAM_RANGE
        self.keys = {n: np.zeros(0, np.int64) for n in range(lo, hi + 1)}
        self.ids = {n: np.zeros(0, np.int32) for n in range(lo, hi + 1)}
        self.bins = {n: np.zeros(0, dtype) for n in range(lo, hi + 1)}

    def __len__(self) -> int:
        return sum(map(len, self.keys.values()))

    def hash(self, grams: list[str]) -> np.ndarray:
        """The bins of ``grams``, hashed without indexing them."""
        digests = bytearray()
        for gram in grams:
            hasher = self.state.copy()
            hasher.update(gram.encode("utf-8"))
            digests += hasher.digest()
        raw = np.frombuffer(digests, np.uint8).reshape(-1, 9)
        # the first 8 bytes, little-endian, pick the coordinate
        index = raw[:, :8].copy().view("<u8")[:, 0] % self.dim
        return np.where(raw[:, 8] & 1, index, index + self.dim).astype(self.dtype)

    def find(self, n: int, keys: np.ndarray, grams) -> tuple[np.ndarray, np.ndarray]:
        """The ids, as int64, and the bins of the distinct ascending
        ``keys`` of n-grams; ``grams(new)`` are the strings of the keys
        at the indices ``new``, asked for only for keys not yet in the
        index."""
        known = self.keys[n]
        at = np.searchsorted(known, keys)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == keys[hit]
        ids = np.empty(len(keys), np.int64)
        bins = np.empty(len(keys), self.dtype)
        ids[hit] = self.ids[n][at[hit]]
        bins[hit] = self.bins[n][at[hit]]
        new = np.flatnonzero(~hit)
        if len(new):
            ids[new] = np.arange(len(known), len(known) + len(new))
            bins[new] = self.hash(grams(new))
            at = at[new]
            self.keys[n] = np.insert(known, at, keys[new])
            self.ids[n] = np.insert(self.ids[n], at, ids[new])
            self.bins[n] = np.insert(self.bins[n], at, bins[new])
        return ids, bins


def _firsts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal keys in a sorted array."""
    first = np.ones(len(sorted_keys), bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of ``keys`` in key order, equal keys sharing an id, and
    the index of one key of each id, in id order."""
    order = keys.argsort()
    first = _firsts(keys[order])
    ids = np.empty_like(order)
    ids[order] = np.cumsum(first) - 1
    return ids, order[first]


def _token_bins(tokens: list[str], index: _GramIndex) -> tuple[np.ndarray, np.ndarray]:
    """The bins of the distinct grams of each token: their number per
    token, and the bins themselves, token by token.

    The wrapped tokens are joined into one array of code points, and
    each n-gram at position ``p`` gets its key in ``index`` level by
    level, from the (n-1)-gram at ``p`` and the code at ``p + n - 1``.
    Grams that cross a token's end are dropped, a gram repeated in a
    token counts once, and the distinct keys of each level are found in
    the index by one call.
    """
    lo, hi = _NGRAM_RANGE
    wrapped = [f"<{token}>" for token in tokens]
    text = "".join(wrapped)
    lens = np.fromiter(map(len, wrapped), np.intp, len(wrapped))
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.int64)
    token_at = np.repeat(np.arange(len(tokens)), lens)
    # the codes from each position to the end of its token
    room = np.repeat(np.cumsum(lens), lens) - np.arange(len(codes))
    pos, keys = np.arange(len(codes)), codes
    token_parts, bin_parts = [], []
    for n in range(1, hi + 1):
        if n > 1:
            keep = room[pos] >= n
            pos, keys = pos[keep], keys[keep]
            # an int64 while lo <= 3: a key packs at most 3 codes, or an
            # id and a code
            keys = keys << _CODE_BITS | codes[pos + n - 1]
        if not len(pos):
            break
        if n >= lo:
            rank, first = _rank(keys)
            starts = pos[first]
            ids, found = index.find(
                n, keys[first], lambda new: [text[p : p + n] for p in starts[new].tolist()]
            )
            pairs = np.sort(token_at[pos] * len(first) + rank)
            pairs = pairs[_firsts(pairs)]
            token_parts.append(pairs // len(first))
            bin_parts.append(found[pairs % len(first)])
            keys = ids[rank]
    # the whole wrapped token is a gram of its own; outside [lo, hi] it
    # is no other token's n-gram, and its token is built once, so it is
    # hashed without being indexed
    whole = np.flatnonzero((lens < lo) | (lens > hi))
    token_parts.append(whole)
    bin_parts.append(index.hash([wrapped[i] for i in whole.tolist()]))
    token_of = np.concatenate(token_parts)
    bins = np.concatenate(bin_parts)[token_of.argsort()]
    return np.bincount(token_of, minlength=len(tokens)), bins


# documents pooled by one np.bincount, and original documents embedded,
# and changed documents of one normalization embedded and scored, at a
# time by irs; bounds the count matrix at _EMBED_BLOCK x 2 dim, and irs's
# original rows, and the held rows of each normalization, at
# _EMBED_BLOCK x dim each
_EMBED_BLOCK = 128
# tokens whose bins are built in one pass; bounds its temporaries
_BUILD_CHUNK = 2048


class HashedNgramProvider(EmbeddingProvider):
    """Character n-gram hashing embeddings.

    Tokens are wrapped in boundary markers ('<' token '>'); every
    character n-gram for n in ``_NGRAM_RANGE``, 3 to 5, contributes +/-1
    on a hashed coordinate, and the whole wrapped token always
    contributes one gram so no non-empty token embeds to zero. Token
    vectors are summed over grams, document vectors are the mean of
    token vectors. Hashing is keyed blake2b, so vectors are identical
    across runs and platforms for a fixed (dim, seed).

    Each gram is hashed once per provider (see :class:`_GramIndex`), the
    provider's only lasting state. ``id_embedder`` builds a table of its
    vocabulary in one numpy pass per ``_BUILD_CHUNK`` tokens (see
    :func:`_token_bins`): each token stored as the bins of its distinct
    grams, the sign folded into the bin, a row per vocabulary id of one
    CSR table (an indptr and its bins). A bin takes two bytes while
    ``2 dim <= 2**16``. Only the function it returns holds the table, so
    the table is freed with the function; ``embed_documents`` numbers
    its tokens in a :class:`TypeTable` and goes the same way. A block of
    documents is pooled by one integer histogram over the bins of all
    its tokens, offset by document; a document vector is then (positive
    - negative counts) / token count. The counts are exact integers and
    the division is one float64 operation, so the vector equals the
    float64 mean of the token vectors whatever the summation order.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        if dim < 8:
            raise EmbeddingError(f"hashed n-gram dimension must be >= 8, got {dim}")
        if not -(2**63) <= seed < 2**63:
            raise EmbeddingError(f"hashed n-gram seed must be in [-2**63, 2**63), got {seed}")
        self.dim = dim
        self.seed = seed
        self.name = f"hash-{dim}"
        # a bin plus a pooling block's largest offset must fit the type
        self._offset_type = np.int32 if 2 * dim * _EMBED_BLOCK < 2**31 else np.int64
        bin_type = np.uint16 if 2 * dim <= 2**16 else self._offset_type
        self._grams = _GramIndex(dim, seed.to_bytes(8, "little", signed=True), bin_type)

    def embed_documents(self, token_lists: list[list[str]]) -> np.ndarray:
        table = table_of(token_lists)
        return self.id_embedder(table.types)(table.ids, table.indptr)

    def id_embedder(self, vocabulary: list[str]):
        """Build the table of ``vocabulary``, ``_BUILD_CHUNK`` tokens at a
        time; the function pools the table's rows of the ids."""
        # grams are hashed as UTF-8, which a lone surrogate has no form
        # in; checked before the index changes, so the provider stays usable
        try:
            "".join(vocabulary).encode("utf-8")
        except UnicodeEncodeError as exc:
            at = bisect.bisect_right(list(itertools.accumulate(map(len, vocabulary))), exc.start)
            raise EmbeddingError(
                f"token {vocabulary[at]!r} holds a lone surrogate, which cannot be encoded as UTF-8"
            ) from None
        counts, bins = [np.zeros(1, np.intp)], [np.zeros(0, self._grams.dtype)]
        for start in range(0, len(vocabulary), _BUILD_CHUNK):
            chunk_counts, chunk_bins = _token_bins(
                vocabulary[start : start + _BUILD_CHUNK], self._grams
            )
            counts.append(chunk_counts)
            bins.append(chunk_bins)
        table = np.concatenate(counts).cumsum(), np.concatenate(bins)
        return lambda ids, indptr: self._embed_rows(*table, ids, indptr)

    def _embed_rows(
        self, token_indptr: np.ndarray, bins: np.ndarray, rows: np.ndarray, indptr: np.ndarray
    ) -> np.ndarray:
        """The mean token vectors of the documents ``rows[indptr[i] :
        indptr[i + 1]]``, rows of the table ``token_indptr`` and ``bins``,
        pooled ``_EMBED_BLOCK`` at a time."""
        dim, width = self.dim, 2 * self.dim
        n_docs = len(indptr) - 1
        out = np.empty((n_docs, dim))
        for start in range(0, n_docs, _EMBED_BLOCK):
            stop = min(start + _EMBED_BLOCK, n_docs)
            block = rows[indptr[start] : indptr[stop]]
            starts = token_indptr[block]
            token_lens = token_indptr[block + 1] - starts
            doc_lens = np.diff(indptr[start : stop + 1])
            # offset every bin by its document's first count, in a type
            # wide enough for the sum
            bin_ends = np.concatenate([[0], np.cumsum(token_lens)])[np.cumsum(doc_lens)]
            offsets = np.arange(0, (stop - start) * width, width, dtype=self._offset_type)
            flat = np.repeat(offsets, np.diff(bin_ends, prepend=0))
            flat += bins[_ranges(starts, token_lens)]
            counts = np.bincount(flat, minlength=(stop - start) * width).reshape(-1, width)
            np.subtract(counts[:, :dim], counts[:, dim:], out=out[start:stop], dtype=np.float64)
            # an empty document divides its zero row by 1: +0.0
            out[start:stop] /= np.maximum(doc_lens, 1)[:, None]
        return out


def load_word2vec_text(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Load a word2vec text-format vector file, UTF-8 with or without a
    byte-order mark: a '<count> <dim>' header line, then one '<token>
    <dim floats>' line per token. Trailing whitespace on a line is
    ignored (the reference word2vec tool ends every component with a
    space); a repeated token is an error."""
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise EmbeddingError(f"cannot open vector file {path!r}: {exc}") from exc
    vectors: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    with fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EmbeddingError(f"{path}: malformed header line, expected '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise EmbeddingError(f"{path}: malformed header line {header!r}") from None
        if count < 0 or dim < 1:
            raise EmbeddingError(
                f"{path}: header needs a count >= 0 and a dimension >= 1, got {count} {dim}"
            )
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise EmbeddingError(
                    f"{path}: line {lineno}: expected token plus {dim} values, got {len(parts) - 1}"
                )
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingError(f"{path}: line {lineno}: non-numeric vector component") from None
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{path}: line {lineno}: non-finite vector component")
            token = parts[0]
            if token in first_line:
                raise EmbeddingError(
                    f"{path}: line {lineno}: token {token!r} repeats line {first_line[token]}"
                )
            first_line[token] = lineno
            vectors[token] = vec
    if len(vectors) != count:
        raise EmbeddingError(
            f"{path}: header declares {count} vectors but file holds {len(vectors)}"
        )
    return vectors, dim


class VectorFileProvider(EmbeddingProvider):
    """Static lookup-table embeddings; a document embeds to the mean of
    the vectors of its found tokens. Missing tokens are skipped and
    counted; a document with no found tokens embeds to the zero vector."""

    def __init__(self, path: str):
        self.vectors, self.dim = load_word2vec_text(path)
        self.name = f"vecfile:{path}"
        self.missing_tokens = 0

    def embed_documents(self, token_lists: list[list[str]]) -> np.ndarray:
        out = np.zeros((len(token_lists), self.dim))
        for row, tokens in zip(out, token_lists):
            found = [self.vectors[t] for t in tokens if t in self.vectors]
            self.missing_tokens += len(tokens) - len(found)
            if found:
                row[:] = np.mean(found, axis=0)
        return out


class HttpServiceProvider(EmbeddingProvider):
    """Remote embedding service client.

    Protocol: POST <url> with JSON {"texts": [...]} and the header
    ``Content-Type: application/json``; the service replies 200 with JSON
    {"vectors": [[...], ...]}, one vector per input text. Tokens are
    joined with single spaces before sending; pooling is the service's
    responsibility. Batches may be issued concurrently up to
    ``max_in_flight``; results are reassembled in request order.

    The first reply fixes the provider's dimension: a later vector of
    another dimension, in any batch or call, raises EmbeddingError, and
    empty documents embed to zeros of that dimension (of width 1 before
    the first reply).
    """

    def __init__(
        self, url: str, batch_size: int = 32, timeout: float = 30.0, max_in_flight: int = 4
    ):
        try:
            parts = urllib.parse.urlsplit(url)
            parts.port  # raises ValueError unless a number in 0-65535
        except ValueError as exc:
            raise EmbeddingError(f"bad embedding service URL {url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise EmbeddingError(f"bad embedding service URL {url!r}: expected http(s)://<host>/...")
        if batch_size < 1:
            raise EmbeddingError(f"batch size must be >= 1, got {batch_size}")
        if max_in_flight < 1:
            raise EmbeddingError(f"max in flight must be >= 1, got {max_in_flight}")
        self.url = url
        self.batch_size = batch_size
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self.name = f"http:{url}"
        self.dim: int | None = None  # fixed by the first reply

    def _post_batch(self, texts: list[str]) -> list[np.ndarray]:
        import http.client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.url,
            data=json.dumps({"texts": texts}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # a status other than 2xx
                with exc:
                    status, body = exc.code, exc.read()
        # a truncated body raises IncompleteRead, an HTTPException but not
        # an OSError; urllib raises ValueError for a URL it cannot parse,
        # and a host name that cannot be IDNA-encoded raises UnicodeError
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise EmbeddingError(f"embedding service {self.url}: transport error: {exc}") from exc
        if status != 200:
            text = body.decode("utf-8", "replace")
            raise EmbeddingError(f"embedding service {self.url}: status {status}: {text[:200]}")
        try:
            vectors = json.loads(body)["vectors"]
        except (ValueError, KeyError, TypeError) as exc:
            raise EmbeddingError(f"embedding service {self.url}: malformed reply: {exc}") from exc
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbeddingError(
                f"embedding service {self.url}: expected {len(texts)} vectors, "
                f"got {len(vectors) if isinstance(vectors, list) else type(vectors).__name__}"
            )
        # a vector is a list of JSON numbers: np.asarray would also take
        # numeric strings and booleans
        good = all(isinstance(vec, list) and set(map(type, vec)) <= {int, float} for vec in vectors)
        try:  # an integer beyond float64 raises
            arrays = [np.array(vec, dtype=np.float64) for vec in vectors] if good else []
        except OverflowError:
            good = False
        if not (good and all(np.isfinite(arr).all() for arr in arrays)):
            raise EmbeddingError(f"embedding service {self.url}: bad vector in reply")
        return arrays

    def embed_documents(self, token_lists: list[list[str]]) -> np.ndarray:
        from concurrent.futures import ThreadPoolExecutor

        texts = [" ".join(tokens) for tokens in token_lists]
        nonempty = [i for i, t in enumerate(texts) if t]
        batches = [
            nonempty[i : i + self.batch_size] for i in range(0, len(nonempty), self.batch_size)
        ]
        vectors: list[np.ndarray] = []  # one per non-empty text, in order
        # the pool starts no thread until a batch is submitted
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            for vecs in pool.map(lambda b: self._post_batch([texts[i] for i in b]), batches):
                for vec in vecs:
                    if self.dim is None:
                        self.dim = len(vec)
                    elif len(vec) != self.dim:
                        raise EmbeddingError(
                            f"embedding service {self.url}: inconsistent vector dimensions: "
                            f"got {len(vec)} after {self.dim}"
                        )
                vectors += vecs
        out = np.zeros((len(token_lists), 1 if self.dim is None else self.dim))
        for i, vec in zip(nonempty, vectors):
            out[i] = vec
        return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] . b[i]`` for every row, each by the BLAS dot that the 1-d
    ``a[i].dot(b[i])`` calls, so with the same rounding (np.einsum sums
    in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def irs(
    provider: EmbeddingProvider,
    doc_ids: list[str],
    original: TypeTable,
    normalized: Sequence[tuple[TokenMapping, np.ndarray]],
) -> list[IrsResult | EmbeddingError]:
    """The IRS of every normalization of the documents ``doc_ids``, whose
    tokens are the ``original`` table: each normalization is a mapping of
    the table's types and the strictly ascending rows at which its
    documents differ from the originals. A result holds ``doc_ids``
    itself.
    One outcome per normalization, in order: its IrsResult, or the
    EmbeddingError that ended it.

    One pass walks the documents ``_EMBED_BLOCK`` at a time and embeds
    each block of originals once (through ``provider.id_embedder`` of the
    original types). Each normalization keeps the original rows of its
    changed documents until it has ``_EMBED_BLOCK`` of them, or the pass
    ends, then maps those documents' rows of the table through its
    mapping (:meth:`TokenMapping.normalize_rows`, as
    :meth:`TypeTable.relabel` does), embeds them (through the id
    embedder of its stems) in one call and scores them. So the pass
    holds one block of originals and at most one block of rows per
    normalization, never a matrix of all the documents nor a normalized
    corpus, and a normalization's calls are those of embedding its
    changed documents ``_EMBED_BLOCK`` at a time. A failure to embed a
    normalization's documents, or to score them, ends that normalization
    only. A failure to embed a block of originals ends the earliest
    normalization still in the pass, and the block is embedded again for
    the others.

    Every score is the one :func:`cosine_with_flag` gives, bit for bit:
    the cosines come from batched row dots, and a document with a norm
    outside ``(_NORM_LO, _NORM_HI)`` on either side is scored by
    :func:`cosine_with_flag` itself. The IRS is the mean of the scores
    added in document order.
    """
    if not doc_ids:
        raise EmbeddingError("cannot compute IRS over an empty corpus")
    if len(doc_ids) != len(original):
        raise EmbeddingError(f"{len(doc_ids)} document ids for {len(original)} documents")
    outcomes: list[IrsResult | EmbeddingError | None] = [None] * len(normalized)
    embed = provider.id_embedder(original.types) if normalized else None
    live = [
        _Scores(j, provider, original, mapping, changed)
        for j, (mapping, changed) in enumerate(normalized)
    ]
    for start in range(0, len(original), _EMBED_BLOCK):
        stop = min(start + _EMBED_BLOCK, len(original))
        a = None
        while live and a is None:
            try:
                a = embed(*original.select(np.arange(start, stop)))
                if np.ndim(a) != 2 or len(a) != stop - start:
                    raise EmbeddingError(
                        f"{provider.name}: embeddings of shape {np.shape(a)} for "
                        f"{stop - start} original documents"
                    )
            except EmbeddingError as exc:
                a = None
                outcomes[live.pop(0).index] = exc
        if a is None:
            break
        a = np.ascontiguousarray(a, np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt(_row_dots(a, a))
        in_range = (_NORM_LO < norms) & (norms < _NORM_HI)
        for scores in list(live):
            try:
                scores.add(start, a, norms, in_range)
            except EmbeddingError as exc:
                outcomes[scores.index] = exc
                live.remove(scores)
    for scores in live:
        try:
            scores.flush()
            outcomes[scores.index] = scores.result(doc_ids)
        except EmbeddingError as exc:
            outcomes[scores.index] = exc
    return outcomes


class _Scores:
    """One normalization in :func:`irs`'s pass: the original table, its
    mapping and changed rows, the original rows (with their norms) of the
    changed documents not yet scored, and the score of every document so
    far."""

    def __init__(
        self,
        index: int,
        provider: EmbeddingProvider,
        original: TypeTable,
        mapping: TokenMapping,
        changed: np.ndarray,
    ):
        if mapping.types != original.types:
            raise EmbeddingError(
                f"a mapping of {len(mapping.types)} other types for {len(original.types)} original types"
            )
        n_docs = len(original)
        if len(changed) and not (
            changed[0] >= 0 and changed[-1] < n_docs and (np.diff(changed) > 0).all()
        ):
            raise EmbeddingError(
                f"changed rows must ascend within the {n_docs} documents of their table"
            )
        self.index = index
        self.name = provider.name
        self.original = original
        self.mapping = mapping
        self.changed = changed
        self.embed = provider.id_embedder(mapping.stems) if len(changed) else None
        self.values = np.ones(n_docs)  # an unchanged document scores 1
        self.zero_docs = 0
        self.scored = 0  # changed documents scored so far
        self.pending = 0  # the changed documents after those, held in a
        # the original rows, norms and in-range flags of the held
        # documents; made when the first changed document is held
        self.a = self.norms = self.in_range = None

    def add(self, start: int, a: np.ndarray, norms: np.ndarray, in_range: np.ndarray) -> None:
        """Take the block of documents from ``start`` on, whose original
        rows are ``a``, of norms ``norms``, ``in_range`` where a norm is
        inside ``(_NORM_LO, _NORM_HI)``: score its unchanged documents,
        and hold its changed ones, scoring every ``_EMBED_BLOCK`` held."""
        lo, hi = np.searchsorted(self.changed, [start, start + len(a)])
        local = self.changed[lo:hi] - start
        unchanged_out = ~in_range
        unchanged_out[local] = False
        for i in np.flatnonzero(unchanged_out).tolist():
            self.values[start + i], zero_flag = cosine_with_flag(a[i], a[i])
            self.zero_docs += zero_flag
        if len(local) and self.a is None:
            self.a = np.empty((_EMBED_BLOCK, a.shape[1]))
            self.norms = np.empty(_EMBED_BLOCK)
            self.in_range = np.empty(_EMBED_BLOCK, bool)
        while len(local):
            take, local = np.split(local, [_EMBED_BLOCK - self.pending])
            held = slice(self.pending, self.pending + len(take))
            self.a[held] = a[take]
            self.norms[held] = norms[take]
            self.in_range[held] = in_range[take]
            self.pending += len(take)
            if self.pending == _EMBED_BLOCK:
                self.flush()

    def flush(self) -> None:
        """Embed and score the changed documents held."""
        n = self.pending
        if not n:
            return
        rows = self.changed[self.scored : self.scored + n]
        a, norms, in_range = self.a[:n], self.norms[:n], self.in_range[:n]
        b = self.embed(*self.mapping.normalize_rows(*self.original.select(rows)))
        if b.shape != (n, a.shape[1]):
            raise EmbeddingError(
                f"{self.name}: embeddings of shape {b.shape} for {n} changed "
                f"documents of width {a.shape[1]}"
            )
        b = np.ascontiguousarray(b, np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            norms_b = np.sqrt(_row_dots(b, b))
            cosines = np.clip(_row_dots(a, b) / (norms * norms_b), -1.0, 1.0)
        cosines[(a == b).all(axis=1)] = 1.0
        # a norm out of range: the zero-vector convention, a rescaling,
        # or an error for a non-finite component
        out = ~(in_range & (_NORM_LO < norms_b) & (norms_b < _NORM_HI))
        for j in np.flatnonzero(out).tolist():
            cosines[j], zero_flag = cosine_with_flag(a[j], b[j])
            self.zero_docs += zero_flag
        self.values[rows] = cosines
        self.scored += n
        self.pending = 0

    def result(self, doc_ids: list[str]) -> IrsResult:
        scores = self.values
        scores.flags.writeable = False
        return IrsResult(
            irs=left_sum(scores) / len(scores),
            scores=scores,
            doc_ids=doc_ids,
            zero_vector_docs=self.zero_docs,
        )
