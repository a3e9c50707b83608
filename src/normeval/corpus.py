"""Corpus loading, tokenization into a type table, occurrence counting,
and fold planning.

A run tokenizes its corpus once, into a :class:`TypeTable`: the distinct
tokens and every document as an array of their ids. Normalization,
CR, ANLD, IRS and the fold TF-IDF all read that table.

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


class _TypeIds(dict):
    """Token -> type id; a token not seen before takes the next id, so
    ids follow first-seen order."""

    def __missing__(self, token: str) -> int:
        self[token] = type_id = len(self)
        return type_id


class _RawTypeIds(dict):
    """Raw whitespace token -> the type id of its tokenized form in
    ``type_ids``, -1 when nothing is left; each raw token is tokenized
    once, on its first lookup."""

    def __init__(self, config: TokenizerConfig):
        super().__init__()
        self.config = config
        self.type_ids = _TypeIds()

    def __missing__(self, raw: str) -> int:
        token = _strip_punct(raw) if self.config.strip_punct else raw
        if self.config.lowercase:
            token = token.lower()
        self[raw] = type_id = self.type_ids[token] if token else -1
        return type_id


def _cumulative(mask: np.ndarray) -> np.ndarray:
    """How many entries of ``mask`` are set before each position, the
    end included: ``_cumulative(mask)[indptr]`` is an indptr over the
    set entries."""
    return np.concatenate(([0], np.cumsum(mask)))


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lens[i]``, concatenated, by
    one cumulative sum of steps; every length must be >= 1."""
    steps = np.ones(lens.sum(), np.intp)
    steps[:1] = starts[:1]
    steps[(np.cumsum(lens) - lens)[1:]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(steps, out=steps)


@dataclass(frozen=True)
class TypeTable:
    """A tokenized corpus as type ids: the distinct tokens (``types``)
    in first-occurrence order, and document ``i`` as the int32 ids
    ``ids[indptr[i] : indptr[i + 1]]`` into them. Every type occurs."""

    types: list[str]
    ids: np.ndarray
    indptr: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def occurrence_counts(self) -> Counter[str]:
        """How often each type occurs, in first-seen order."""
        counts = np.bincount(self.ids, minlength=len(self.types)).tolist()
        return Counter(dict(zip(self.types, counts)))

    def select(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids and indptr of the documents at ``rows``, in that order."""
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        nonempty = lens > 0  # _ranges takes no empty range
        return self.ids[_ranges(starts[nonempty], lens[nonempty])], _cumulative(lens)

    def relabel(self, labels) -> tuple[TypeTable, np.ndarray]:
        """The table with type ``types[i]`` replaced by ``labels[i]`` and
        the types labelled '' dropped, and the mask of the documents
        holding a type it changes, labelled '' or another string. The new
        types are the distinct non-empty labels in first-seen order."""
        labels = list(labels)
        # '' takes id 0, so one less is -1 for it and first-seen ids for the rest
        new_ids = _TypeIds({"": 0})
        id_of_type = np.fromiter(map(new_ids.__getitem__, labels), np.int32, len(labels)) - 1
        changed_type = np.fromiter(map(str.__ne__, labels, self.types), bool, len(labels))
        changed_type |= id_of_type < 0
        ids = id_of_type[self.ids]
        kept = ids >= 0
        changed = np.diff(_cumulative(changed_type[self.ids])[self.indptr]) > 0
        table = TypeTable(list(new_ids)[1:], ids[kept], _cumulative(kept)[self.indptr])
        return table, changed


def _build_table(token_lists, type_id, type_ids: _TypeIds) -> TypeTable:
    """The table of documents given as token sequences: ``type_id`` maps
    a token to its id in ``type_ids``, or to -1 to drop it."""
    flat: list[int] = []
    ends = [0]
    for tokens in token_lists:
        flat += map(type_id, tokens)
        ends.append(len(flat))
    ids = np.array(flat, np.int32)
    kept = ids >= 0
    return TypeTable(list(type_ids), ids[kept], _cumulative(kept)[ends])


def type_table(texts, config: TokenizerConfig = TokenizerConfig()) -> TypeTable:
    """:func:`tokenize` of every text as one :class:`TypeTable`, each
    distinct raw token tokenized once."""
    raw = _RawTypeIds(config)
    return _build_table(map(str.split, texts), raw.__getitem__, raw.type_ids)


def table_of(token_lists) -> TypeTable:
    """The table of already tokenized documents, each given as its
    tokens; every token is a type, the empty one too."""
    type_ids = _TypeIds()
    return _build_table(token_lists, type_ids.__getitem__, type_ids)


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split on Unicode whitespace, then optionally strip edge punctuation
    and lowercase. Deterministic; empty text yields an empty list."""
    table = type_table([text], config)
    return list(map(table.types.__getitem__, table.ids.tolist()))


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
