"""Corpus loading, tokenization, vocabulary counting, and fold planning.

All structures produced here are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import logging
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label: str


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    labels: frozenset[str]
    skipped_rows: int = 0

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class TokenizedDocument:
    doc_id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    strip_punct: bool = True


@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    assignments: dict[str, int]  # doc_id -> fold index in [0, k)


def _resolve_column(spec: str | int, header: list[str] | None, what: str) -> int:
    """Map a column name or 0-based index onto an index in the row. An
    index must not be negative and, when the file has a header, must be
    less than the header's width."""
    if isinstance(spec, int) or spec.removeprefix("-").isdecimal():
        index = int(spec)
        if index < 0:
            raise CorpusError(f"{what} column index {index} is negative; indexes are 0-based")
        if header is not None and index >= len(header):
            raise CorpusError(
                f"{what} column index {index} is out of range for {len(header)} header field(s)"
            )
        return index
    if header is None:
        raise CorpusError(
            f"{what} column given by name {spec!r} but the file has no header"
        )
    try:
        return header.index(spec)
    except ValueError:
        raise CorpusError(f"{what} column {spec!r} not found in header {header}") from None


def load_corpus(
    path: str,
    text_col: str | int = "text",
    label_col: str | int = "label",
    delimiter: str = "\t",
    has_header: bool = True,
) -> Corpus:
    """Load a labeled corpus from a delimited UTF-8 file; a leading
    byte-order mark is dropped.

    One Document per data row, in file order. Rows whose text is empty
    after trimming are skipped and counted in ``Corpus.skipped_rows``.
    Document ids are the 1-based file line numbers. Tab-separated fields
    are read verbatim, without quote handling: a ``"`` is an ordinary
    character there. Other delimiters keep csv quoting.
    """
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CorpusError(f"cannot open corpus file {path!r}: {exc}") from exc

    documents: list[Document] = []
    labels: set[str] = set()
    skipped = 0
    with fh:
        try:
            quoting = csv.QUOTE_NONE if delimiter == "\t" else csv.QUOTE_MINIMAL
            reader = csv.reader(fh, delimiter=delimiter, quoting=quoting)
            header: list[str] | None = None
            if has_header:
                header = next(reader, None)
                if header is None:
                    raise CorpusError(f"corpus file {path!r} is empty")
            ti = _resolve_column(text_col, header, "text")
            li = _resolve_column(label_col, header, "label")
            if ti == li:
                raise CorpusError(
                    f"text column {text_col!r} and label column {label_col!r} "
                    f"are the same column (index {ti})"
                )
            expected = len(header) if header is not None else max(ti, li) + 1
            for row in reader:
                if not row:
                    continue
                if len(row) < expected:
                    raise CorpusError(
                        f"line {reader.line_num}: expected {expected} fields, got {len(row)}"
                    )
                text = row[ti].strip()
                label = row[li].strip()
                if not text:
                    skipped += 1
                    continue
                documents.append(Document(id=str(reader.line_num), text=text, label=label))
                labels.add(label)
        except UnicodeDecodeError as exc:
            raise CorpusError(f"corpus file {path!r} is not valid UTF-8: {exc}") from exc

    if not documents:
        raise CorpusError(f"corpus file {path!r} contains no usable rows")
    if skipped:
        log.warning("skipped %d empty-text row(s) while loading %s", skipped, path)
    return Corpus(documents=tuple(documents), labels=frozenset(labels), skipped_rows=skipped)


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


class _TokenMemo(dict):
    """Raw whitespace token -> tokenized form, '' when nothing is left;
    each raw token is processed once, on its first lookup."""

    def __init__(self, config: TokenizerConfig):
        super().__init__()
        self.config = config

    def __missing__(self, raw: str) -> str:
        token = _strip_punct(raw) if self.config.strip_punct else raw
        if self.config.lowercase:
            token = token.lower()
        self[raw] = token
        return token


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split on Unicode whitespace, then optionally strip edge punctuation
    and lowercase. Deterministic; empty text yields an empty list."""
    return list(filter(None, map(_TokenMemo(config).__getitem__, text.split())))


def tokenize_corpus(
    corpus: Corpus, config: TokenizerConfig = TokenizerConfig()
) -> list[TokenizedDocument]:
    """:func:`tokenize` of every document, with one memo for the corpus."""
    memo = _TokenMemo(config).__getitem__
    return [
        TokenizedDocument(doc_id=doc.id, tokens=tuple(filter(None, map(memo, doc.text.split()))))
        for doc in corpus.documents
    ]


def count_occurrences(docs: list[TokenizedDocument]) -> Counter[str]:
    """How often each token occurs in ``docs``, in first-seen order."""
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(doc.tokens)
    return counts


def make_folds(corpus: Corpus, k: int, seed: int) -> FoldPlan:
    """Stratified k-fold assignment, deterministic for fixed (corpus, k, seed).

    Within each label the documents are shuffled with a seeded generator and
    dealt round-robin; the dealing offset carries over between labels so both
    per-label and global fold sizes differ by at most 1.
    """
    if k < 2:
        raise CorpusError(f"k must be >= 2, got {k}")
    by_label: dict[str, list[str]] = {}
    for doc in corpus.documents:
        by_label.setdefault(doc.label, []).append(doc.id)
    for label in sorted(by_label):
        if len(by_label[label]) < k:
            raise CorpusError(
                f"label {label!r} has {len(by_label[label])} document(s), fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    assignments: dict[str, int] = {}
    offset = 0
    for label in sorted(by_label):
        ids = by_label[label]
        order = rng.permutation(len(ids))
        for j, idx in enumerate(order):
            assignments[ids[idx]] = (offset + j) % k
        offset = (offset + len(ids)) % k
    # preserve corpus order in the mapping for deterministic serialization
    assignments = {doc.id: assignments[doc.id] for doc in corpus.documents}
    return FoldPlan(k=k, seed=seed, assignments=assignments)
