"""The corpus file reader, tokenization, occurrence counts and fold
planning."""

import collections
import random
import re
import string
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normeval import CorpusError, CorpusRows, TokenizerConfig, plan_folds, type_table
from reference import Corpus, Document, reference_tokenize_corpus, table_tokens


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def read(path, **columns):
    """Every row of the file at ``path``, as ``(id, text, label)``."""
    return list(CorpusRows(path, **columns))


class TestLoadCorpus:
    """A corpus file read as the rows of :class:`CorpusRows`."""

    def test_happy_path_with_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello there\tA\nbye now\tB\n")
        rows = read(path)
        assert len(rows) == 2
        assert rows[0][1] == "hello there"
        assert rows[0][2] == "A"
        assert {label for _, _, label in rows} == {"A", "B"}

    def test_ids_are_file_line_numbers(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nfirst\tA\nsecond\tB\n")
        assert [doc_id for doc_id, _, _ in read(path)] == ["2", "3"]

    def test_ids_unique(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\n" + "".join(f"doc {i}\tA\n" for i in range(20)))
        ids = [doc_id for doc_id, _, _ in read(path)]
        assert len(set(ids)) == len(ids)

    def test_columns_by_index_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "A\thello\nB\tbye\n")
        rows = read(path, text_col=1, label_col=0, has_header=False)
        assert rows[0][1] == "hello"
        assert rows[0][2] == "A"

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_dropped(self, tmp_path, has_header):
        # without a header the mark would be part of the first document
        path = tmp_path / "c.tsv"
        path.write_text("text\tlabel\nhello\tA\n" if has_header else "hello\tA\n", encoding="utf-8-sig")
        columns = {} if has_header else {"text_col": 0, "label_col": 1}
        rows = read(str(path), has_header=has_header, **columns)
        assert [(text, label) for _, text, label in rows] == [("hello", "A")]

    def test_comma_delimiter(self, tmp_path):
        path = write(tmp_path, "c.csv", "text,label\nhello,A\nbye,B\n")
        assert read(path, delimiter=",")[1][1] == "bye"

    def test_tsv_quotes_are_ordinary_characters(self, tmp_path):
        # with csv quoting, the opening quote of row 1 would swallow the
        # rows up to the quote in row 3 into one document
        rows = ['"Quoted start\tA', "plain two\tB", 'has a " inside\tA', "four\tB", "five\tA"]
        path = write(tmp_path, "q.tsv", "text\tlabel\n" + "\n".join(rows) + "\n")
        reader = CorpusRows(path)
        rows = list(reader)
        assert len(rows) == 5
        assert reader.skipped == 0
        assert rows[0][1] == '"Quoted start'
        assert rows[2][1] == 'has a " inside'

    def test_utf8_text_and_labels(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nগান শুনি\tসংগীত\nÜber “alles”\tdé\n")
        assert read(path) == [("2", "গান শুনি", "সংগীত"), ("3", "Über “alles”", "dé")]

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"text\tlabel\nhello\tA\n\xff\xfe\tB\n")
        with pytest.raises(CorpusError, match="is not valid UTF-8"):
            read(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot open"):
            read(str(tmp_path / "nope.tsv"))

    def test_missing_column_name(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        with pytest.raises(CorpusError, match="'body' not found"):
            read(path, text_col="body")

    def test_named_column_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\n")
        with pytest.raises(CorpusError, match="no header"):
            read(path, text_col="text", has_header=False)

    @pytest.mark.parametrize("has_header", [True, False])
    def test_negative_column_index(self, tmp_path, has_header):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        with pytest.raises(CorpusError, match="text column index -5 is negative"):
            read(path, text_col="-5", has_header=has_header)
        with pytest.raises(CorpusError, match="label column index -1 is negative"):
            read(path, text_col=0, label_col=-1, has_header=has_header)

    def test_column_index_beyond_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        with pytest.raises(CorpusError, match="text column index 7 is out of range for 2"):
            read(path, text_col="7")
        with pytest.raises(CorpusError, match="label column index 2 is out of range for 2"):
            read(path, label_col=2)

    @pytest.mark.parametrize(
        "text_col, label_col",
        [("label", "label"), ("1", "label"), (1, "label"), ("text", 0), ("0", "0")],
    )
    def test_text_and_label_in_the_same_column(self, tmp_path, text_col, label_col):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        index = 0 if str(text_col) in ("text", "0") else 1
        message = (
            f"text column {text_col!r} and label column {label_col!r} "
            f"are the same column (index {index})"
        )
        with pytest.raises(CorpusError, match=re.escape(message)):
            read(path, text_col=text_col, label_col=label_col)

    def test_same_index_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\n")
        with pytest.raises(CorpusError, match="same column"):
            read(path, text_col=1, label_col="1", has_header=False)

    def test_column_index_beyond_row_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\n")
        with pytest.raises(CorpusError, match="expected 8 fields"):
            read(path, text_col=7, label_col=1, has_header=False)

    def test_short_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\nonlyonefield\n")
        with pytest.raises(CorpusError, match="line 3"):
            read(path)

    def test_row_wider_than_header_is_an_error(self, tmp_path):
        # read by position, its text would be "hello" and its label "world"
        path = write(tmp_path, "c.tsv", "text\tlabel\nhi\tA\nhello\tworld\tpos\n")
        with pytest.raises(CorpusError, match=r"^line 3: expected 2 fields, got 3$"):
            read(path)

    def test_extra_columns_allowed_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\textra\nbye\tB\n")
        rows = read(path, text_col=0, label_col=1, has_header=False)
        assert [(text, label) for _, text, label in rows] == [("hello", "A"), ("bye", "B")]

    def test_empty_text_rows_skipped_and_counted(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n   \tB\nbye\tA\n")
        reader = CorpusRows(path)
        rows = list(reader)
        assert len(rows) == 2
        assert reader.skipped == 1
        assert "B" not in {label for _, _, label in rows}

    def test_all_rows_empty(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\n\tA\n")
        with pytest.raises(CorpusError, match="no usable rows"):
            read(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "c.tsv", "")
        with pytest.raises(CorpusError, match="is empty"):
            read(path)
        with pytest.raises(CorpusError, match="no usable rows"):
            read(path, text_col=0, label_col=1, has_header=False)

    def test_equal_labels_are_one_string(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\none\tspam\ntwo\tspam\n")
        [(_, _, first), (_, _, second)] = read(path)
        assert first == second == "spam" and first is second

    def test_iterating_twice_reads_the_same_rows(self, tmp_path):
        # each iteration reads the file afresh and counts its own skipped rows
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n \tB\nbye\tA\n\tA\n")
        reader = CorpusRows(path)
        first = list(reader)
        assert reader.skipped == 2
        assert list(reader) == first == [("2", "hello", "A"), ("4", "bye", "A")]
        assert reader.skipped == 2

    def test_partly_read_iterator_raises_nothing(self, tmp_path):
        # a row is checked only when it is read: neither the short row 4
        # nor the no-usable-rows check is reached by the first row
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n \tB\nshort\n")
        rows = iter(CorpusRows(path))
        assert next(rows) == ("2", "hello", "A")
        rows.close()  # no error, and the file is closed with the generator
        assert rows.gi_frame is None
        with pytest.raises(CorpusError, match="line 4"):
            read(path)

    def test_no_usable_rows_only_at_the_end_of_the_file(self, tmp_path):
        # every row is read before the error, and a usable last row is found
        empty = "text\tlabel\n" + " \tA\n" * 3
        reader = CorpusRows(write(tmp_path, "empty.tsv", empty))
        with pytest.raises(CorpusError, match="contains no usable rows"):
            list(reader)
        assert reader.skipped == 3
        reader = CorpusRows(write(tmp_path, "late.tsv", empty + "late\tA\n"))
        assert list(reader) == [("5", "late", "A")] and reader.skipped == 3


def tokens(text, config=TokenizerConfig()):
    """The tokens of one text, as its one-text type table holds them."""
    [doc] = table_tokens(type_table([text], config))
    return list(doc)


class TestTokenize:
    def test_whitespace_split_and_lowercase(self):
        assert tokens("The Cat  sat\ton the Mat") == ["the", "cat", "sat", "on", "the", "mat"]

    def test_edge_punctuation_stripped(self):
        assert tokens('"Hello," she said.') == ["hello", "she", "said"]

    def test_interior_punctuation_kept(self):
        assert tokens("don't can't") == ["don't", "can't"]

    def test_pure_punctuation_token_dropped(self):
        assert tokens("wait -- what") == ["wait", "what"]

    def test_unicode_punctuation(self):
        assert tokens("“quoted” —dash—") == ["quoted", "dash"]

    def test_config_toggles(self):
        cfg = TokenizerConfig(lowercase=False, strip_punct=False)
        assert tokens("The cat.", cfg) == ["The", "cat."]

    def test_empty_text(self):
        assert tokens("") == []

    def test_no_empty_tokens(self):
        table = type_table(["... ! ok"])
        assert table.types == ["ok"]
        assert table.ids.tolist() == [0] and table.indptr.tolist() == [0, 1]


# punctuation of every P subcategory, astral ones among them; whitespace
# beyond ASCII; letters whose lowercase changes length (İ) or depends
# on context (a final Σ)
TOKENIZER_ALPHABET = (
    "_‿-—(［)］«“»”.,!¿।\U0001e95e\U00010100"
    " \t\n\xa0\u1680\u2028\u3000\x1c"
    "İẞΣσaA9"
)
CONFIGS = [TokenizerConfig(lowercase, strip) for lowercase in (True, False) for strip in (True, False)]


class TestTokenizeAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.text(st.one_of(
            st.sampled_from(TOKENIZER_ALPHABET),
            st.characters(exclude_categories=()),  # surrogates too
        ), max_size=30),
        min_size=1, max_size=6,
    ))
    def test_equal_to_per_character_reference(self, texts):
        corpus = Corpus(
            documents=tuple(Document(str(i), text, "x") for i, text in enumerate(texts)),
            labels=frozenset("x"),
        )
        for config in CONFIGS:
            expected = [doc.tokens for doc in reference_tokenize_corpus(corpus, config)]
            table = type_table((text for text in texts), config)
            assert table_tokens(table) == expected, config
            assert table.types == list(dict.fromkeys(t for tokens in expected for t in tokens))
            assert table.ids.dtype == np.int32


class TestPunctuationClassifiedOnFirstRead:
    # each character is classified when the first text holding it is
    # read; the order of the texts, and so which text holds a character
    # first, changes no token
    @settings(max_examples=30, deadline=None)
    @given(st.permutations(["«first» text", "second, text", "(only) here¡", "none", "¡first!"]))
    @example(["«first» text", "second text"])  # « and » occur in the first text only
    def test_equal_to_per_character_reference(self, texts):
        corpus = Corpus(
            documents=tuple(Document(str(i), text, "x") for i, text in enumerate(texts)),
            labels=frozenset("x"),
        )
        for config in CONFIGS:
            expected = [doc.tokens for doc in reference_tokenize_corpus(corpus, config)]
            assert table_tokens(type_table(iter(texts), config)) == expected, config


EDGE_FORMS = ["{}", "{},", "({})", "{}.", "“{}”", "[{}]!", "¿{}?", "{};"]


def edge_form_texts(all_forms):
    """10,000 words, each occurring eight times, as 4,000 texts of 20
    tokens: each word in one of ``EDGE_FORMS`` throughout, or, with
    ``all_forms``, in all eight in turn. Either way every form is used."""
    rng = random.Random(0)
    words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(8)) for _ in range(10000)]
    tokens = [
        EDGE_FORMS[(j + copy * all_forms) % 8].format(word)
        for copy in range(8)
        for j, word in enumerate(words)
    ]
    return [" ".join(tokens[i : i + 20]) for i in range(0, len(tokens), 20)]


class TestTokenizeMemory:
    def test_peak_does_not_grow_with_raw_forms(self):
        # the same tokens and types, with 10,000 or 80,000 distinct raw
        # whitespace tokens; state kept per raw token fails the bound
        peaks = []
        for all_forms in (False, True):
            texts = edge_form_texts(all_forms)
            assert len(set(" ".join(texts).split())) == (80000 if all_forms else 10000)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                table = type_table(texts)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert len(table.types) == 10000 and len(table.ids) == 80000
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_texts_of_an_iterator_are_not_held(self):
        # about 2,000 texts of about 2 KB from 50 words, read from a
        # generator: a table that holds every text peaks above their size
        rng = random.Random(0)
        words = [
            "".join(rng.choices(string.ascii_letters, k=rng.randint(16, 24))) + rng.choice(",. ")
            for _ in range(50)
        ]

        def text(i):
            return " ".join(random.Random(i).choices(words, k=90))

        text_bytes = sum(sys.getsizeof(text(i)) for i in range(2000))
        assert 3.5e6 < text_bytes < 4.5e6
        tracemalloc.start()
        try:
            table = type_table(text(i) for i in range(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 2000 and len(table.types) == 50
        assert peak < text_bytes / 2, (peak, text_bytes)

    def test_ids_not_copied_when_no_token_is_dropped(self):
        # no token is pure punctuation, so no id is dropped: the peak is
        # the id buffer as it grows, with no copy of it beside it
        rng = random.Random(1)
        words = ["".join(rng.choices(string.ascii_lowercase, k=8)) for _ in range(50)]
        texts = [" ".join(random.Random(i).choices(words, k=90)) for i in range(2000)]
        tracemalloc.start()
        try:
            table = type_table(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.ids) == 2000 * 90 and len(table.types) == 50
        assert peak < 1.6 * table.ids.nbytes, (peak, table.ids.nbytes)


class TestCountOccurrences:
    def test_counts_in_first_seen_order(self):
        table = type_table(["b a b", "c a"])
        counts = table.occurrence_counts()
        assert dict(zip(table.types, counts.tolist())) == {"a": 2, "b": 2, "c": 1}
        assert table.types == ["b", "a", "c"]
        assert counts.tolist() == [2, 2, 1] and counts.dtype == "int64"


def ids_for(labels):
    """One document id per entry of ``labels``: "0", "1", and so on."""
    return [str(i) for i in range(len(labels))]


class TestMakeFolds:
    def test_covers_every_document_once(self):
        labels = ["A"] * 10 + ["B"] * 13
        plan = plan_folds(ids_for(labels), labels, k=5, seed=1)
        assert set(plan.assignments) == set(ids_for(labels))
        assert all(0 <= f < 5 for f in plan.assignments.values())

    def test_global_fold_sizes_differ_by_at_most_one(self):
        labels = ["A"] * 10 + ["B"] * 13 + ["C"] * 6
        plan = plan_folds(ids_for(labels), labels, k=5, seed=3)
        sizes = collections.Counter(plan.assignments.values())
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_per_label_fold_sizes_differ_by_at_most_one(self):
        labels = ["A"] * 10 + ["B"] * 13 + ["C"] * 6
        plan = plan_folds(ids_for(labels), labels, k=5, seed=3)
        for label in "ABC":
            ids = [i for i, lab in zip(ids_for(labels), labels) if lab == label]
            sizes = collections.Counter(plan.assignments[i] for i in ids)
            counts = [sizes.get(f, 0) for f in range(5)]
            assert max(counts) - min(counts) <= 1

    def test_deterministic_for_fixed_seed(self):
        labels = ["A"] * 20 + ["B"] * 20
        ids = ids_for(labels)
        assert plan_folds(ids, labels, 5, 42).assignments == plan_folds(ids, labels, 5, 42).assignments

    def test_seed_changes_assignment(self):
        labels = ["A"] * 30 + ["B"] * 30
        ids = ids_for(labels)
        assert plan_folds(ids, labels, 5, 1).assignments != plan_folds(ids, labels, 5, 2).assignments

    def test_assignments_in_document_order(self):
        labels = ["B", "A"] * 6
        ids = [f"d{i}" for i in reversed(range(12))]
        assert list(plan_folds(ids, labels, 3, 0).assignments) == ids

    def test_label_smaller_than_k(self):
        labels = ["A"] * 10 + ["B"] * 3
        with pytest.raises(CorpusError, match="'B'"):
            plan_folds(ids_for(labels), labels, k=5, seed=0)

    def test_k_below_two(self):
        labels = ["A"] * 10
        with pytest.raises(CorpusError, match="k must be >= 2"):
            plan_folds(ids_for(labels), labels, k=1, seed=0)

    @pytest.mark.parametrize("n_labels", [4, 6])
    def test_a_label_per_document(self, n_labels):
        # with 4 labels the fifth document has none; with 6 one is spare
        labels = ["x", "y"] * 3
        with pytest.raises(CorpusError, match=f"^{n_labels} label\\(s\\) for 5 document\\(s\\)$"):
            plan_folds(list("abcde"), labels[:n_labels], k=2, seed=0)

    def test_duplicate_document_id(self):
        # assigned once, the two a's and the two b's leave a fold empty
        with pytest.raises(CorpusError, match="^document id 'a' occurs more than once$"):
            plan_folds(["a", "a", "b", "b"], ["x", "y", "x", "y"], k=2, seed=0)
        with pytest.raises(CorpusError, match="^document id 'b' occurs more than once$"):
            plan_folds(["a", "b", "c", "b"], ["x", "y", "x", "y"], k=2, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_balance_property(self, counts, seed):
        labels = [chr(ord("a") + i) for i, n in enumerate(counts) for _ in range(n)]
        ids = ids_for(labels)
        plan = plan_folds(ids, labels, k=3, seed=seed)
        sizes = collections.Counter(plan.assignments.values())
        global_counts = [sizes.get(f, 0) for f in range(3)]
        assert max(global_counts) - min(global_counts) <= 1
        for label in set(labels):
            per = collections.Counter(plan.assignments[i] for i, lab in zip(ids, labels) if lab == label)
            per_counts = [per.get(f, 0) for f in range(3)]
            assert max(per_counts) - min(per_counts) <= 1
