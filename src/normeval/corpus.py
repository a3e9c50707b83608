"""Corpus loading, tokenization into a type table, occurrence counting,
and fold planning.

A run reads its corpus file once (:class:`CorpusRows`) and tokenizes
each row's text as it is read, into one :class:`TypeTable`: the
distinct tokens and every document as an array of their ids. Only the
table is kept, with the document ids and the labels where a run reads
them, never the texts.
Normalization, CR, ANLD, IRS and the fold TF-IDF all read that table,
and a normalizer's stems of its types are one :class:`TokenMapping` of
stem ids; a normalized corpus is the table's rows mapped through them
(:meth:`TokenMapping.normalize_rows`). Each whitespace token is
stripped of edge punctuation by one ``str.strip`` over the punctuation
characters of the texts read so far, its own text among them, so
tokenization keeps no state per raw token, only the types and their
ids.

All structures produced here are immutable after construction and safe to
share across threads; a :class:`CorpusRows` reader is not, as it counts
the rows it skips while it reads.
"""

from __future__ import annotations

import csv
import logging
import unicodedata
from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import CorpusError, NormalizerError

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


@dataclass
class CorpusRows:
    """The usable rows of a delimited UTF-8 corpus file, as
    ``(id, text, label)`` in file order; a leading byte-order mark is
    dropped.

    Each iteration reads the file once, one row at a time, so no row is
    held after it is yielded. A document's id is its 1-based file line
    number. Rows whose text is empty after trimming are skipped and
    counted in ``skipped``; a file with no usable row is a CorpusError
    once it is read to the end. With a header, every row has the
    header's width; without one, a row needs only the columns read.
    Tab-separated fields are read verbatim, without quote handling: a
    ``"`` is an ordinary character there. Other delimiters keep csv
    quoting. Equal labels are one shared string.
    """

    path: str
    text_col: str | int = "text"
    label_col: str | int = "label"
    delimiter: str = "\t"
    has_header: bool = True
    skipped: int = field(default=0, init=False)

    def __iter__(self):
        path = self.path
        try:
            fh = open(path, encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise CorpusError(f"cannot open corpus file {path!r}: {exc}") from exc
        self.skipped = 0
        labels: dict[str, str] = {}  # holds a label once a row is yielded
        with fh:
            try:
                quoting = csv.QUOTE_NONE if self.delimiter == "\t" else csv.QUOTE_MINIMAL
                reader = csv.reader(fh, delimiter=self.delimiter, quoting=quoting)
                header: list[str] | None = None
                if self.has_header:
                    header = next(reader, None)
                    if header is None:
                        raise CorpusError(f"corpus file {path!r} is empty")
                ti = _resolve_column(self.text_col, header, "text")
                li = _resolve_column(self.label_col, header, "label")
                if ti == li:
                    raise CorpusError(
                        f"text column {self.text_col!r} and label column {self.label_col!r} "
                        f"are the same column (index {ti})"
                    )
                expected = len(header) if header is not None else max(ti, li) + 1
                for row in reader:
                    if not row:
                        continue
                    if len(row) < expected or header is not None and len(row) > expected:
                        raise CorpusError(
                            f"line {reader.line_num}: expected {expected} fields, got {len(row)}"
                        )
                    text = row[ti].strip()
                    if not text:
                        self.skipped += 1
                        continue
                    label = row[li].strip()
                    yield str(reader.line_num), text, labels.setdefault(label, label)
            except UnicodeDecodeError as exc:
                raise CorpusError(f"corpus file {path!r} is not valid UTF-8: {exc}") from exc
        if not labels:
            raise CorpusError(f"corpus file {path!r} contains no usable rows")
        if self.skipped:
            log.warning("skipped %d empty-text row(s) while loading %s", self.skipped, path)


def load_corpus(
    path: str,
    text_col: str | int = "text",
    label_col: str | int = "label",
    delimiter: str = "\t",
    has_header: bool = True,
) -> Corpus:
    """Load a labeled corpus: one Document per row of
    :class:`CorpusRows`, which gives the rules on ids, skipped rows,
    row width and quoting."""
    rows = CorpusRows(path, text_col, label_col, delimiter, has_header)
    documents = tuple(Document(*row) for row in rows)
    labels = frozenset(doc.label for doc in documents)
    return Corpus(documents=documents, labels=labels, skipped_rows=rows.skipped)


class _TypeIds(dict):
    """Token -> type id; a token not seen before takes the next id, so
    ids follow first-seen order."""

    def __missing__(self, token: str) -> int:
        self[token] = type_id = len(self)
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

    def occurrence_counts(self) -> np.ndarray:
        """How often each type occurs, as int64 in type order."""
        return np.bincount(self.ids, minlength=len(self.types))

    def select(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids and indptr of the documents at ``rows``, in that order."""
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        nonempty = lens > 0  # _ranges takes no empty range
        return self.ids[_ranges(starts[nonempty], lens[nonempty])], _cumulative(lens)

    def changed(self, mapping: TokenMapping) -> np.ndarray:
        """The mask of the documents holding a type that ``mapping``, a
        mapping of this table's types, changes, to an empty or another
        stem."""
        if mapping.types != self.types:
            raise CorpusError(f"mapping of {len(mapping.types)} other types for {len(self.types)} types")
        stems = mapping.type_stems()
        changed_type = np.fromiter(map(str.__ne__, stems, self.types), bool, len(stems))
        changed_type |= mapping.labels < 0
        return np.diff(_cumulative(changed_type[self.ids])[self.indptr]) > 0

    def relabel(self, mapping: TokenMapping) -> tuple[TypeTable, np.ndarray]:
        """The normalized corpus as a table of its own, its types
        ``mapping.stems`` and its documents this table's rows mapped by
        :meth:`TokenMapping.normalize_rows`, and :meth:`changed`. A run
        relabels its table only to featurize one normalized corpus's
        folds; IRS maps the rows it embeds itself, block by block."""
        changed = self.changed(mapping)
        return TypeTable(mapping.stems, *mapping.normalize_rows(self.ids, self.indptr)), changed


@dataclass(frozen=True, eq=False)
class TokenMapping:
    """A normalizer's stems of the distinct ``types``: ``stems`` are the
    distinct non-empty stems in first-seen order, ``labels`` the int32
    stem id of each type (-1 for an empty stem), and ``counts`` the
    int64 occurrences of each type."""

    types: list[str]
    stems: list[str]
    labels: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, types: list[str], stems: list[str], counts) -> TokenMapping:
        """The mapping of ``types[i]`` to ``stems[i]``, occurring
        ``counts[i]`` times; the stems are numbered here, once. A stem
        that is not a ``str`` is a NormalizerError naming its token."""
        counts = np.asarray(counts, np.int64)
        if not len(stems) == len(counts) == len(types):
            raise NormalizerError(f"{len(stems)} stems and {len(counts)} counts for {len(types)} types")
        for token, stem in zip(types, stems):
            if not isinstance(stem, str):
                raise NormalizerError(f"the stem of {token!r} is {stem!r}, not a str")
        # '' takes id 0, so one less is -1 for it and first-seen ids for the rest
        stem_ids = _TypeIds({"": 0})
        labels = np.fromiter(map(stem_ids.__getitem__, stems), np.int32, len(stems)) - 1
        return cls(types, list(stem_ids)[1:], labels, counts)

    def normalize_rows(self, ids: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The documents ``ids[indptr[i] : indptr[i + 1]]`` of type ids,
        ``indptr`` starting at 0, normalized: each type replaced by its
        stem id and the types of empty stem dropped. Returns the stem
        ids and their indptr; this is the one definition of a normalized
        corpus."""
        stem_ids = self.labels[ids]
        kept = stem_ids >= 0
        return stem_ids[kept], _cumulative(kept)[indptr]

    def type_stems(self) -> list[str]:
        """The stem of each type, in type order; '' for an empty stem."""
        return list(map([*self.stems, ""].__getitem__, self.labels.tolist()))


def _strip_punctuation(texts):
    """The whitespace tokens of each text, each stripped by one
    ``str.strip`` over the punctuation characters (Unicode category P*)
    of that text and the texts before it. A text is scanned for
    characters not seen before, and each distinct character is
    classified once, when the first text holding it is read; the
    punctuation characters are kept in that order, and each text's new
    ones in code point order."""
    classified: set[str] = set()
    punctuation = ""
    for text in texts:
        if not classified.issuperset(text):
            new = set(text) - classified
            classified |= new
            punctuation += "".join(
                sorted(c for c in new if unicodedata.category(c).startswith("P"))
            )
        yield map(str.strip, text.split(), repeat(punctuation))


def _number(token_lists, type_ids: _TypeIds) -> tuple[np.ndarray, np.ndarray]:
    """The int32 ids in ``type_ids`` of the tokens of documents given as
    token sequences, and the int64 indptr of the documents over them."""
    ids = array("i")
    ends = array("q", [0])
    for tokens in token_lists:
        ids.extend(map(type_ids.__getitem__, tokens))
        ends.append(len(ids))
    return np.asarray(ids, np.int32), np.frombuffer(ends, np.int64)


def type_table(texts, config: TokenizerConfig = TokenizerConfig()) -> TypeTable:
    """:func:`tokenize` of every text as one :class:`TypeTable`.

    The texts are read once, one at a time, so an iterator of them is
    never held whole. Edge punctuation is stripped by one ``str.strip``
    per token over the punctuation characters of the texts read so far,
    the token's own text among them: every edge character of a token is
    a character of its text, so this strips exactly the token's edge
    runs of punctuation. No state is kept per raw token, and none per
    text once it is numbered."""
    token_lists = _strip_punctuation(texts) if config.strip_punct else map(str.split, texts)
    if config.lowercase:
        token_lists = (map(str.lower, tokens) for tokens in token_lists)
    # '' takes id 0 and is dropped; one less is each other type's id
    type_ids = _TypeIds({"": 0})
    ids, indptr = _number(token_lists, type_ids)
    dropped = np.flatnonzero(ids == 0)
    if len(dropped):  # else the ids are not copied
        ids = np.delete(ids, dropped)
        indptr -= np.searchsorted(dropped, indptr)
    ids -= 1
    return TypeTable(list(type_ids)[1:], ids, indptr)


def table_of(token_lists) -> TypeTable:
    """The table of already tokenized documents, each given as its
    tokens; every token is a type, the empty one too."""
    type_ids = _TypeIds()
    ids, indptr = _number(token_lists, type_ids)
    return TypeTable(list(type_ids), ids, indptr)


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split on Unicode whitespace, then optionally strip edge punctuation
    and lowercase. Deterministic; empty text yields an empty list."""
    table = type_table([text], config)
    return list(map(table.types.__getitem__, table.ids.tolist()))


def make_folds(corpus: Corpus, k: int, seed: int) -> FoldPlan:
    """:func:`plan_folds` of the corpus's documents."""
    documents = corpus.documents
    return plan_folds([doc.id for doc in documents], [doc.label for doc in documents], k, seed)


def plan_folds(doc_ids: list[str], labels: list[str], k: int, seed: int) -> FoldPlan:
    """Stratified k-fold assignment of the documents ``doc_ids``, of
    ``labels``; deterministic for fixed (documents, k, seed).

    Within each label the documents are shuffled with a seeded generator and
    dealt round-robin; the dealing offset carries over between labels so both
    per-label and global fold sizes differ by at most 1.
    """
    if k < 2:
        raise CorpusError(f"k must be >= 2, got {k}")
    by_label: dict[str, list[str]] = {}
    for doc_id, label in zip(doc_ids, labels):
        by_label.setdefault(label, []).append(doc_id)
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
    assignments = {doc_id: assignments[doc_id] for doc_id in doc_ids}
    return FoldPlan(k=k, seed=seed, assignments=assignments)
