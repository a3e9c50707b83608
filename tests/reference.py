"""Reference implementations that the tests compare normeval against.

Tokenization and normalization one document at a time, ANLD one pair
at a time, hashed n-gram vectors one gram at a time, the cosine of two
vectors with norms from np.linalg.norm and IRS one document at a time,
TF-IDF fitted and applied one training set
at a time through dicts, logistic regression and the SVM trained one
set at a time, the softmax objective with its gradient, and the English
Snowball stemmer step by step. They share no helper with the package,
so a change inside one of its helpers cannot hide from the comparisons
made against them.
"""

import hashlib
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from normeval import EmbeddingError, EvaluationError, IrsResult
from normeval.downstream import LinearClassifier
from normeval.embeddings import _NGRAM_RANGE


@dataclass(frozen=True)
class Doc:
    """One document of the per-document references: its id and tokens."""

    doc_id: str
    tokens: tuple[str, ...]


def table_tokens(table):
    """The tokens of each document of a type table, as tuples, read one
    id at a time."""
    ids, bounds = table.ids.tolist(), table.indptr.tolist()
    return [tuple(table.types[i] for i in ids[a:b]) for a, b in zip(bounds, bounds[1:])]


def reference_tokenize_corpus(corpus, config):
    """Each document's tokens, one document at a time: whitespace split,
    edge Unicode punctuation stripped, lowercased, empty tokens dropped
    (as ``config`` says)."""
    out = []
    for doc in corpus.documents:
        tokens = []
        for token in doc.text.split():
            if config.strip_punct:
                while token and unicodedata.category(token[0]).startswith("P"):
                    token = token[1:]
                while token and unicodedata.category(token[-1]).startswith("P"):
                    token = token[:-1]
            if config.lowercase:
                token = token.lower()
            if token:
                tokens.append(token)
        out.append(Doc(doc.id, tuple(tokens)))
    return out


def mapping_items(mapping):
    """A token mapping's (type, stem) and (type, count) pairs in type
    order, read one label at a time; label -1 reads as the empty stem."""
    stems = [mapping.stems[label] if label >= 0 else "" for label in mapping.labels.tolist()]
    return list(zip(mapping.types, stems)), list(zip(mapping.types, mapping.counts.tolist()))


def reference_normalize_corpus(normalizer, docs):
    """Normalization one token at a time: each distinct token in
    first-seen order through ``normalize_token``, then every document
    rebuilt unless none of its tokens changed (an empty stem is a
    change, and is dropped from the stream). Returns the documents and
    the ``(pairs, counts)`` dicts: each distinct token's stem and how
    often it occurs, in first-seen order."""
    occurrence = Counter()
    for doc in docs:
        occurrence.update(doc.tokens)
    pairs = {token: normalizer.normalize_token(token) for token in occurrence}
    normalized = []
    for doc in docs:
        if all(pairs[token] and pairs[token] == token for token in doc.tokens):
            normalized.append(doc)
        else:
            stems = tuple(pairs[token] for token in doc.tokens if pairs[token])
            normalized.append(Doc(doc.doc_id, stems))
    return normalized, (pairs, dict(occurrence))


def reference_stem_lists(token_lists, stems):
    """Each token list with every token replaced by its stem in the dict
    ``stems``, one token at a time; a token the dict lacks keeps its own
    form, and an empty stem is dropped."""
    return [[stems.get(t, t) for t in tokens if stems.get(t, t)] for tokens in token_lists]


def reference_levenshtein(a, b):
    """Edit distance by the full dynamic program, one cell at a time."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def reference_anld(pairs, counts, weighting, worst_n):
    """ANLD one pair at a time over the ``(original, stem)`` pairs, each
    occurring ``counts[i]`` times: every distance divided by its
    original's length, weighted by its count (``by_occurrence``) or by
    1.0 (``by_type``), and the products and weights added in two Python
    floats from 0.0, left to right in pair order. Returns the ANLD, the
    number of pairs above distance 1 and the ``worst_n`` pairs of
    greatest distance as ``(original, stem, distance)``, ties by
    original."""
    total = weight_sum = 0.0
    scored = []
    for (original, stem), count in zip(pairs, counts):
        d = reference_levenshtein(original, stem) / len(original)
        w = count if weighting == "by_occurrence" else 1.0
        total += d * w
        weight_sum += w
        scored.append((original, stem, d))
    worst = sorted(scored, key=lambda pair: (-pair[2], pair[0]))[:worst_n]
    return total / weight_sum, sum(d > 1.0 for _, _, d in scored), tuple(worst)


def reference_token_vector(provider, token):
    """Token vector by the uncached per-gram loop: every gram of the
    token hashed afresh and added to a float64 vector."""
    lo, hi = _NGRAM_RANGE
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


def reference_cosine_with_flag(u, v):
    """Cosine in [-1, 1] and whether the zero-vector convention fired,
    with every norm taken by np.linalg.norm."""
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


def reference_irs(doc_ids, original_matrix, normalized, changed, provider):
    """The IRS of one normalization over a full matrix of the original
    rows: the documents at the rows ``changed`` are embedded from their
    ``normalized`` token lists in one ``embed_documents`` call, the others
    reuse their original row, each document is scored by one
    reference_cosine_with_flag call on its rows as they lie in those
    matrices, and the scores are summed in order."""
    changed = np.asarray(changed).tolist()
    rows = dict(zip(changed, provider.embed_documents([normalized[i] for i in changed])))
    scores, total, zero_docs = [], 0.0, 0
    for i, row in enumerate(original_matrix):
        value, flag = reference_cosine_with_flag(row, rows.get(i, row))
        scores.append(value)
        total += value
        zero_docs += flag
    return IrsResult(
        irs=total / len(scores), scores=np.array(scores), doc_ids=list(doc_ids),
        zero_vector_docs=zero_docs,
    )


def reference_tfidf_fit(train_docs):
    """``(vocabulary, idf)`` of the training documents: the sorted
    distinct tokens, and idf(t) = ln((1 + N) / (1 + df(t))) + 1."""
    if not train_docs:
        raise EvaluationError("cannot fit TF-IDF on an empty training set")
    df = {}
    for doc in train_docs:
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    n = len(train_docs)
    idf = np.empty(len(vocabulary), dtype=np.float64)
    for token, i in vocabulary.items():
        idf[i] = math.log((1 + n) / (1 + df[token])) + 1.0
    return vocabulary, idf


def reference_tfidf_transform_all(model, docs):
    """One row per document: raw token counts times idf, L2-normalized;
    a document without a token of the vocabulary is an all-zero row."""
    vocabulary, idf = model
    rows = []
    cols = []
    vals = []
    for r, doc in enumerate(docs):
        counts = {}
        for token in doc.tokens:
            j = vocabulary.get(token)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        if not counts:
            continue
        weights = {j: tf * idf[j] for j, tf in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        for j in sorted(weights):
            rows.append(r)
            cols.append(j)
            vals.append(weights[j] / norm)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(docs), len(vocabulary)), dtype=np.float64
    )


def reference_softmax_probs(Wt, X):
    probs = np.asarray(X @ Wt)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def reference_softmax_grad_t(probs, Wt, XT, y_idx, l2_lambda):
    n = probs.shape[0]
    probs[np.arange(n), y_idx] -= 1.0
    grad = np.asarray(XT @ probs)
    grad /= n
    grad += l2_lambda * Wt
    return grad


def reference_softmax_loss_and_grad(W, X, y_idx, l2_lambda):
    """Multinomial softmax objective, mean cross-entropy plus
    (l2/2)||W||^2, and its gradient in W (classes x features)."""
    n = X.shape[0]
    probs = reference_softmax_probs(W.T, X)
    loss = -np.mean(np.log(probs[np.arange(n), y_idx])) + 0.5 * l2_lambda * float(np.sum(W * W))
    return loss, reference_softmax_grad_t(probs, W.T, X.T, y_idx, l2_lambda).T


def reference_train_logistic_regression(spec, X, y_idx, classes):
    Wt = np.zeros((X.shape[1], len(classes)), dtype=np.float64)
    XT = sparse.csr_matrix(X.T)
    for _ in range(spec.epochs):
        probs = reference_softmax_probs(Wt, X)
        grad = reference_softmax_grad_t(probs, Wt, XT, y_idx, spec.l2_lambda)
        grad *= spec.learning_rate
        Wt -= grad
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))


def reference_train_linear_svm(spec, X, y_idx, classes):
    X = sparse.csr_matrix(X)
    n, n_features = X.shape
    k = len(classes)
    C = 1.0 / (n * spec.l2_lambda) if spec.l2_lambda > 0 else math.inf
    q_diag = np.asarray(X.multiply(X).sum(axis=1)).ravel().tolist()
    rows = [
        (X.indices[X.indptr[i] : X.indptr[i + 1]], X.data[X.indptr[i] : X.indptr[i + 1]])
        for i in range(n)
    ]
    labels = y_idx.tolist()
    rng = np.random.default_rng(spec.seed)
    Wt = np.zeros((n_features, k), dtype=np.float64)
    alpha = [[0.0] * k for _ in range(n)]
    for _ in range(spec.epochs):
        max_pg = 0.0
        for i in rng.permutation(n).tolist():
            q = q_diag[i]
            if q == 0.0:
                continue
            cols, vals = rows[i]
            # the row score as normeval defines it: each nonzero's terms
            # added one at a time, in the row's column order
            scores = [0.0] * k
            for col, val in zip(cols.tolist(), vals.tolist()):
                for c, weight in enumerate(Wt[col].tolist()):
                    scores[c] += val * weight
            a_i, label = alpha[i], labels[i]
            steps = [0.0] * k
            for c in range(k):
                y = 1.0 if c == label else -1.0
                g = y * scores[c] - 1.0
                a = a_i[c]
                pg = min(g, 0.0) if a == 0.0 else max(g, 0.0) if a == C else g
                if pg != 0.0:
                    max_pg = max(max_pg, abs(pg))
                    a_i[c] = min(max(a - g / q, 0.0), C)
                    steps[c] = (a_i[c] - a) * y
            if any(steps):
                Wt[cols] += np.outer(vals, steps)
        if max_pg < 0.1:
            break
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))


# ------------------------------------------------------------- Snowball
# The English Snowball stemmer as one linear endswith scan per step and a
# character loop per region, frozen from the package before its steps
# became table lookups and its regions a compiled pattern.

_SNOWBALL_VOWELS = frozenset("aeiouy")  # marked consonant 'Y' is deliberately absent
_SNOWBALL_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_SNOWBALL_LI_ENDINGS = frozenset("cdeghkmnrt")

_SNOWBALL_EXCEPTION1 = {
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
_SNOWBALL_EXCEPTION2 = frozenset(
    ["inning", "outing", "canning", "herring", "earring", "proceed", "exceed", "succeed"]
)

_SNOWBALL_R1_PREFIXES = ("gener", "commun", "arsen")


def _snowball_region_after(word: str, start: int) -> int:
    """Position after the first non-vowel that follows a vowel, from start."""
    n = len(word)
    i = start
    while i < n and word[i] not in _SNOWBALL_VOWELS:
        i += 1
    if i == n:
        return n
    i += 1
    while i < n and word[i] in _SNOWBALL_VOWELS:
        i += 1
    if i == n:
        return n
    return i + 1


def _snowball_mark_regions(word: str) -> tuple[int, int]:
    p1 = None
    for prefix in _SNOWBALL_R1_PREFIXES:
        if word.startswith(prefix):
            p1 = len(prefix)
            break
    if p1 is None:
        p1 = _snowball_region_after(word, 0)
    p2 = _snowball_region_after(word, p1)
    return p1, p2


def _snowball_ends_short_syllable(word: str) -> bool:
    n = len(word)
    if n == 2:
        return word[0] in _SNOWBALL_VOWELS and word[1] not in _SNOWBALL_VOWELS
    if n >= 3:
        return (
            word[-3] not in _SNOWBALL_VOWELS
            and word[-2] in _SNOWBALL_VOWELS
            and word[-1] not in _SNOWBALL_VOWELS
            and word[-1] not in "wxY"
        )
    return False


def _snowball_contains_vowel(part: str) -> bool:
    return any(c in _SNOWBALL_VOWELS for c in part)


def _snowball_step0(word: str) -> str:
    for suf in ("'s'", "'s", "'"):
        if word.endswith(suf):
            return word[: -len(suf)]
    return word


def _snowball_step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ied") or word.endswith("ies"):
        return word[:-3] + ("i" if len(word) >= 5 else "ie")
    if word.endswith("us") or word.endswith("ss"):
        return word
    if word.endswith("s"):
        # delete only if some vowel precedes the position just before the s
        if _snowball_contains_vowel(word[:-2]):
            return word[:-1]
    return word


def _snowball_step1b(word: str, p1: int) -> str:
    for suf in ("eedly", "eed"):
        if word.endswith(suf):
            if len(word) - len(suf) >= p1:
                return word[: -len(suf)] + "ee"
            return word
    for suf in ("ingly", "edly", "ing", "ed"):
        if word.endswith(suf):
            stem_part = word[: -len(suf)]
            if not _snowball_contains_vowel(stem_part):
                return word
            word = stem_part
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if word.endswith(_SNOWBALL_DOUBLES):
                return word[:-1]
            if p1 >= len(word) and _snowball_ends_short_syllable(word):
                return word + "e"
            return word
    return word


def _snowball_step1c(word: str) -> str:
    if (
        len(word) >= 3
        and word[-1] in "yY"
        and word[-2] not in _SNOWBALL_VOWELS
    ):
        return word[:-1] + "i"
    return word


_SNOWBALL_STEP2_RULES = [
    ("ization", "ize"),
    ("ational", "ate"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("entli", "ent"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("ousli", "ous"),
    ("iviti", "ive"),
    ("fulli", "ful"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("abli", "able"),
    ("izer", "ize"),
    ("ator", "ate"),
    ("alli", "al"),
    ("bli", "ble"),
    ("ogi", "og"),
    ("li", ""),
]


def _snowball_step2(word: str, p1: int) -> str:
    for suf, repl in _SNOWBALL_STEP2_RULES:
        if word.endswith(suf):
            if len(word) - len(suf) < p1:
                return word
            if suf == "ogi":
                if len(word) >= 4 and word[-4] == "l":
                    return word[:-3] + "og"
                return word
            if suf == "li":
                if len(word) >= 3 and word[-3] in _SNOWBALL_LI_ENDINGS:
                    return word[:-2]
                return word
            return word[: -len(suf)] + repl
    return word


_SNOWBALL_STEP3_RULES = [
    ("ational", "ate"),
    ("tional", "tion"),
    ("alize", "al"),
    ("icate", "ic"),
    ("iciti", "ic"),
    ("ative", ""),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
]


def _snowball_step3(word: str, p1: int, p2: int) -> str:
    for suf, repl in _SNOWBALL_STEP3_RULES:
        if word.endswith(suf):
            if len(word) - len(suf) < p1:
                return word
            if suf == "ative" and len(word) - len(suf) < p2:
                return word
            return word[: -len(suf)] + repl
    return word


_SNOWBALL_STEP4_SUFFIXES = (
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


def _snowball_step4(word: str, p2: int) -> str:
    for suf in _SNOWBALL_STEP4_SUFFIXES:
        if word.endswith(suf):
            if len(word) - len(suf) < p2:
                return word
            if suf == "ion":
                if len(word) >= 4 and word[-4] in "st":
                    return word[:-3]
                return word
            return word[: -len(suf)]
    return word


def _snowball_step5(word: str, p1: int, p2: int) -> str:
    if word.endswith("e"):
        pos = len(word) - 1
        if pos >= p2 or (pos >= p1 and not _snowball_ends_short_syllable(word[:-1])):
            return word[:-1]
        return word
    if word.endswith("l"):
        pos = len(word) - 1
        if pos >= p2 and len(word) >= 2 and word[-2] == "l":
            return word[:-1]
    return word


def reference_snowball_stem(word: str) -> str:
    """Snowball English stem of ``word`` (lowercased first), one linear
    ``endswith`` scan per suffix step, as the package had it before its
    steps became table lookups."""
    word = word.lower()
    if word in _SNOWBALL_EXCEPTION1:
        return _SNOWBALL_EXCEPTION1[word]
    if len(word) < 3:
        return word

    if word.startswith("'"):
        word = word[1:]
    if word.startswith("y"):
        word = "Y" + word[1:]
    chars = list(word)
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _SNOWBALL_VOWELS:
            chars[i] = "Y"
    word = "".join(chars)

    p1, p2 = _snowball_mark_regions(word)

    word = _snowball_step0(word)
    word = _snowball_step1a(word)
    if word in _SNOWBALL_EXCEPTION2:
        return word
    word = _snowball_step1b(word, p1)
    word = _snowball_step1c(word)
    word = _snowball_step2(word, p1)
    word = _snowball_step3(word, p1, p2)
    word = _snowball_step4(word, p2)
    word = _snowball_step5(word, p1, p2)

    return word.replace("Y", "y")
