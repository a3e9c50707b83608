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
document's embedding and the embedding of its normalized form
(:func:`irs`, from a run's type tables).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import urllib.parse
from dataclasses import dataclass

import numpy as np

from .corpus import TypeTable, _ranges, table_of
from .errors import EmbeddingError


@dataclass(frozen=True)
class IrsResult:
    irs: float
    per_doc: tuple[tuple[str, float], ...]
    zero_vector_docs: int


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


def embed_table(provider: EmbeddingProvider, table: TypeTable) -> np.ndarray:
    """The provider's matrix of every document of ``table``."""
    return provider.id_embedder(table.types)(table.ids, table.indptr)


class _GramBins(dict):
    """gram -> the bin it adds to: a +1 gram at coordinate ``i`` adds to
    bin ``i``, a -1 gram to bin ``dim + i``; a gram is hashed on its
    first lookup."""

    def __init__(self, dim: int, key: bytes):
        super().__init__()
        self.dim = dim
        # a copy of this keyed state hashes as a freshly keyed blake2b
        self.state = hashlib.blake2b(digest_size=9, key=key)

    def hash(self, grams: list[str]) -> np.ndarray:
        """The bins of ``grams``, as int32, hashed without caching."""
        digests = bytearray()
        for gram in grams:
            hasher = self.state.copy()
            hasher.update(gram.encode("utf-8"))
            digests += hasher.digest()
        raw = np.frombuffer(digests, np.uint8).reshape(-1, 9)
        # the first 8 bytes, little-endian, pick the coordinate
        index = raw[:, :8].copy().view("<u8")[:, 0] % self.dim
        return np.where(raw[:, 8] & 1, index, index + self.dim).astype(np.int32)

    def bins(self, grams: list[str]) -> np.ndarray:
        """The bins of the distinct ``grams``, as int32."""
        new = [gram for gram in grams if gram not in self]
        if new:
            self.update(zip(new, self.hash(new).tolist()))
        return np.fromiter(map(self.__getitem__, grams), np.int32, len(grams))


def _firsts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal keys in a sorted array."""
    first = np.ones(len(sorted_keys), bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of ``keys``, equal keys sharing an id, and the index
    of one key of each id."""
    order = keys.argsort()
    first = _firsts(keys[order])
    ids = np.empty_like(order)
    ids[order] = np.cumsum(first) - 1
    return ids, order[first]


# every code point is below 2**21, so an id below 2**42 and a code pack
# into one int64 key
_CODE_BITS = 21


def _token_bins(
    tokens: list[str], n_range: tuple[int, int], gram_bins: _GramBins
) -> tuple[np.ndarray, np.ndarray]:
    """The bins of the distinct grams of each token: their number per
    token, and the bins themselves, token by token.

    The wrapped tokens are joined into one array of code points, and
    each n-gram at position ``p`` gets an exact id, level by level, from
    the pair (id of the (n-1)-gram at ``p``, code at ``p + n - 1``).
    Grams that cross a token's end are dropped, a gram repeated in a
    token counts once, and each distinct gram string is looked up once.
    """
    lo, hi = n_range
    wrapped = [f"<{token}>" for token in tokens]
    text = "".join(wrapped)
    lens = np.fromiter(map(len, wrapped), np.intp, len(wrapped))
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32).astype(np.int64)
    token_at = np.repeat(np.arange(len(tokens)), lens)
    # the codes from each position to the end of its token
    room = np.repeat(np.cumsum(lens), lens) - np.arange(len(codes))
    pos, ids = np.arange(len(codes)), codes
    token_parts, bin_parts = [], []
    for n in range(1, hi + 1):
        if n > 1:
            keep = room[pos] >= n
            pos, ids = pos[keep], ids[keep]
            ids = ids << _CODE_BITS | codes[pos + n - 1]
        if not len(pos):
            break
        if n >= lo:
            ids, first = _rank(ids)
            pairs = np.sort(token_at[pos] * len(first) + ids)
            pairs = pairs[_firsts(pairs)]
            found = gram_bins.bins([text[p : p + n] for p in pos[first].tolist()])
            token_parts.append(pairs // len(first))
            bin_parts.append(found[pairs % len(first)])
        elif ids.max() >> (63 - _CODE_BITS):
            # the next level's key would overflow
            ids = _rank(ids)[0]
    # the whole wrapped token is a gram of its own; outside [lo, hi] it
    # is no other token's n-gram, and its token is built once, so it is
    # hashed without being cached
    whole = np.flatnonzero((lens < lo) | (lens > hi))
    token_parts.append(whole)
    bin_parts.append(gram_bins.hash([wrapped[i] for i in whole.tolist()]))
    token_of = np.concatenate(token_parts)
    bins = np.concatenate(bin_parts)[token_of.argsort()]
    return np.bincount(token_of, minlength=len(tokens)), bins


def _append(table: np.ndarray, used: int, extra: np.ndarray) -> np.ndarray:
    """``table[:used]`` followed by ``extra``: in ``table`` itself when it
    has room, else in a new array at least twice as long, so a table
    grown by many small calls is copied O(log n) times. The room past
    the end is not written until it is used, so in a large table its
    pages stay out of the resident set."""
    end = used + len(extra)
    if end > len(table):
        grown = np.empty(max(end, 2 * len(table)), table.dtype)
        grown[:used] = table[:used]
        table = grown
    table[used:end] = extra
    return table


# documents pooled by one np.bincount, and changed documents embedded
# and scored at a time by irs; bounds the count matrix at
# _EMBED_BLOCK x 2 dim and irs's normalized rows at _EMBED_BLOCK x dim
_EMBED_BLOCK = 512
# new tokens whose bins are built in one pass; bounds its temporaries
_BUILD_CHUNK = 2048


class HashedNgramProvider(EmbeddingProvider):
    """Character n-gram hashing embeddings.

    Tokens are wrapped in boundary markers ('<' token '>'); every n-gram
    for n in [lo, hi] contributes +/-1 on a hashed coordinate, and the
    whole wrapped token always contributes one gram so no non-empty
    token embeds to zero. Token vectors are summed over grams, document
    vectors are the mean of token vectors. Hashing is keyed blake2b, so
    vectors are identical across runs and platforms for a fixed
    (dim, n_range, seed).

    Each gram is hashed once per provider, and each token is stored once
    as the bins of its distinct grams, the sign folded into the bin (see
    :class:`_GramBins`): a row of one CSR table, ``_bins[_indptr[row]:
    _indptr[row + 1]]``, where ``_token_cache`` maps the token to its
    row; both arrays keep room to grow (see :func:`_append`).
    ``id_embedder`` builds the rows of a vocabulary's new tokens in one
    numpy pass per ``_BUILD_CHUNK`` of them (see :func:`_token_bins`) and
    keeps the row of each vocabulary id, so that documents given as ids
    are pooled from rows; ``embed_documents`` numbers its tokens in a
    :class:`TypeTable` and goes the same way. A block of documents is
    pooled by one integer histogram over the bins of all its tokens,
    offset by document; a document vector is then (positive - negative
    counts) / token count. The counts are exact integers and the
    division is one float64 operation, so the vector equals the float64
    mean of the token vectors whatever the summation order.
    """

    def __init__(self, dim: int = 256, n_range: tuple[int, int] = (3, 5), seed: int = 0):
        if dim < 8:
            raise EmbeddingError(f"hashed n-gram dimension must be >= 8, got {dim}")
        lo, hi = n_range
        if lo < 1 or lo > hi:
            raise EmbeddingError(f"invalid n-gram range {n_range}")
        if not -(2**63) <= seed < 2**63:
            raise EmbeddingError(f"hashed n-gram seed must be in [-2**63, 2**63), got {seed}")
        self.dim = dim
        self.n_range = (lo, hi)
        self.seed = seed
        self.name = f"hash-{dim}"
        self._gram_bins = _GramBins(dim, seed.to_bytes(8, "little", signed=True))
        self._token_cache: dict[str, int] = {}
        self._indptr = np.zeros(1, np.int64)
        # a bin plus a pooling block's largest offset must fit the type
        self._bins = np.zeros(0, np.int32 if 2 * dim * _EMBED_BLOCK < 2**31 else np.int64)

    def _add_tokens(self, tokens: list[str]) -> None:
        """Give every one of the distinct ``tokens`` not yet in the table
        its row, building their bins ``_BUILD_CHUNK`` tokens at a time."""
        cache = self._token_cache
        new = list(itertools.filterfalse(cache.__contains__, tokens))
        if not new:
            return
        counts, bins = [], []
        for start in range(0, len(new), _BUILD_CHUNK):
            chunk = new[start : start + _BUILD_CHUNK]
            chunk_counts, chunk_bins = _token_bins(chunk, self.n_range, self._gram_bins)
            counts.append(chunk_counts)
            bins.append(chunk_bins)
        rows = len(cache)
        used = int(self._indptr[rows])
        ends = used + np.cumsum(np.concatenate(counts))
        self._indptr = _append(self._indptr, rows + 1, ends)
        self._bins = _append(self._bins, used, np.concatenate(bins))
        cache.update(zip(new, range(rows, rows + len(new))))

    def embed_documents(self, token_lists: list[list[str]]) -> np.ndarray:
        return embed_table(self, table_of(token_lists))

    def id_embedder(self, vocabulary: list[str]):
        """Every new token of ``vocabulary`` gets its row here, in one
        pass; the function pools the rows of the ids."""
        self._add_tokens(vocabulary)
        row_of = np.fromiter(
            map(self._token_cache.__getitem__, vocabulary), np.intp, len(vocabulary)
        )
        return lambda ids, indptr: self._embed_rows(row_of[ids], indptr)

    def _embed_rows(self, rows: np.ndarray, indptr: np.ndarray) -> np.ndarray:
        """The mean token vectors of the documents ``rows[indptr[i] :
        indptr[i + 1]]`` (table rows), pooled ``_EMBED_BLOCK`` at a time."""
        n_docs = len(indptr) - 1
        out = np.empty((n_docs, self.dim))
        for start in range(0, n_docs, _EMBED_BLOCK):
            stop = min(start + _EMBED_BLOCK, n_docs)
            block = rows[indptr[start] : indptr[stop]]
            self._pool(block, np.diff(indptr[start : stop + 1]), out[start:stop])
        return out

    def _pool(self, rows: np.ndarray, doc_lens: np.ndarray, out: np.ndarray) -> None:
        """Write the mean token vectors of a block of documents, whose
        tokens are the table ``rows``, ``doc_lens[i]`` of them for
        document ``i``, into the rows of ``out``."""
        dim, width = self.dim, 2 * self.dim
        n_docs = len(doc_lens)
        starts = self._indptr[rows]
        token_lens = self._indptr[rows + 1] - starts
        flat = self._bins[_ranges(starts, token_lens)]
        # offset every bin by its document's first count
        bin_ends = np.concatenate([[0], np.cumsum(token_lens)])[np.cumsum(doc_lens)]
        offsets = np.arange(0, n_docs * width, width, dtype=flat.dtype)
        flat += np.repeat(offsets, np.diff(bin_ends, prepend=0))
        counts = np.bincount(flat, minlength=n_docs * width).reshape(n_docs, width)
        np.subtract(counts[:, :dim], counts[:, dim:], out=out, dtype=np.float64)
        # an empty document divides its zero row by 1: +0.0
        out /= np.maximum(doc_lens, 1)[:, None]


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
    original_embeddings: np.ndarray,
    normalized: TypeTable,
    changed: np.ndarray,
) -> IrsResult:
    """The IRS of the documents ``doc_ids``: their original
    rows, ``original_embeddings``, against the ``normalized`` table,
    whose documents at the rows ``changed`` differ from the originals.

    The changed documents are embedded (through ``provider.id_embedder``
    of the normalized types) and scored a block of ``_EMBED_BLOCK`` at a
    time, so the run holds the original matrix and one block of
    normalized rows, never a matrix of all of them. Every score is the
    one :func:`cosine_with_flag` gives, bit for bit: the cosines come
    from batched row dots, and a document with a norm outside
    ``(_NORM_LO, _NORM_HI)`` on either side is scored by
    :func:`cosine_with_flag` itself.
    """
    if not doc_ids:
        raise EmbeddingError("cannot compute IRS over an empty corpus")
    if len(original_embeddings) != len(doc_ids):
        raise EmbeddingError(
            f"{len(original_embeddings)} original embeddings for {len(doc_ids)} documents"
        )
    original = np.ascontiguousarray(original_embeddings, np.float64)
    values = np.ones(len(original))  # an unchanged document scores 1
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(_row_dots(original, original))
    in_range = (_NORM_LO < norms) & (norms < _NORM_HI)
    unchanged_out = ~in_range
    unchanged_out[changed] = False
    zero_docs = 0
    embed = provider.id_embedder(normalized.types) if len(changed) else None
    for start in range(0, len(changed), _EMBED_BLOCK):
        rows = changed[start : start + _EMBED_BLOCK]
        b = embed(*normalized.select(rows))
        if b.shape != (len(rows), original.shape[1]):
            raise EmbeddingError(
                f"{provider.name}: embeddings of shape {b.shape} for {len(rows)} changed "
                f"documents of width {original.shape[1]}"
            )
        a, b = original[rows], np.ascontiguousarray(b, np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            norms_b = np.sqrt(_row_dots(b, b))
            cosines = np.clip(_row_dots(a, b) / (norms[rows] * norms_b), -1.0, 1.0)
        cosines[(a == b).all(axis=1)] = 1.0
        # a norm out of range: the zero-vector convention, a rescaling,
        # or an error for a non-finite component
        out = ~(in_range[rows] & (_NORM_LO < norms_b) & (norms_b < _NORM_HI))
        for j in np.flatnonzero(out).tolist():
            cosines[j], zero_flag = cosine_with_flag(a[j], b[j])
            zero_docs += zero_flag
        values[rows] = cosines
    for i in np.flatnonzero(unchanged_out).tolist():
        values[i], zero_flag = cosine_with_flag(original[i], original[i])
        zero_docs += zero_flag
    per_doc = tuple(zip(doc_ids, values.tolist()))
    total = 0.0
    for value in values.tolist():  # sum() compensates from Python 3.12 on
        total += value
    return IrsResult(irs=total / len(per_doc), per_doc=per_doc, zero_vector_docs=zero_docs)
