"""Corpus loading, tokenization, vocabulary, and fold planning."""

import collections
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normeval import (
    Corpus,
    CorpusError,
    Document,
    TokenizerConfig,
    load_corpus,
    make_folds,
    tokenize,
    type_table,
)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def make_corpus(labels):
    docs = tuple(
        Document(id=str(i), text=f"doc {i}", label=label) for i, label in enumerate(labels)
    )
    return Corpus(documents=docs, labels=frozenset(labels))


class TestLoadCorpus:
    def test_happy_path_with_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello there\tA\nbye now\tB\n")
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.documents[0].text == "hello there"
        assert corpus.documents[0].label == "A"
        assert corpus.labels == {"A", "B"}

    def test_ids_are_file_line_numbers(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nfirst\tA\nsecond\tB\n")
        corpus = load_corpus(path)
        assert [d.id for d in corpus.documents] == ["2", "3"]

    def test_ids_unique(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\n" + "".join(f"doc {i}\tA\n" for i in range(20)))
        corpus = load_corpus(path)
        ids = [d.id for d in corpus.documents]
        assert len(set(ids)) == len(ids)

    def test_columns_by_index_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "A\thello\nB\tbye\n")
        corpus = load_corpus(path, text_col=1, label_col=0, has_header=False)
        assert corpus.documents[0].text == "hello"
        assert corpus.documents[0].label == "A"

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_dropped(self, tmp_path, has_header):
        # without a header the mark would be part of the first document
        path = tmp_path / "c.tsv"
        path.write_text("text\tlabel\nhello\tA\n" if has_header else "hello\tA\n", encoding="utf-8-sig")
        columns = {} if has_header else {"text_col": 0, "label_col": 1}
        corpus = load_corpus(str(path), has_header=has_header, **columns)
        assert [(d.text, d.label) for d in corpus.documents] == [("hello", "A")]

    def test_comma_delimiter(self, tmp_path):
        path = write(tmp_path, "c.csv", "text,label\nhello,A\nbye,B\n")
        corpus = load_corpus(path, delimiter=",")
        assert corpus.documents[1].text == "bye"

    def test_tsv_quotes_are_ordinary_characters(self, tmp_path):
        # with csv quoting, the opening quote of row 1 would swallow the
        # rows up to the quote in row 3 into one document
        rows = ['"Quoted start\tA', "plain two\tB", 'has a " inside\tA', "four\tB", "five\tA"]
        path = write(tmp_path, "q.tsv", "text\tlabel\n" + "\n".join(rows) + "\n")
        corpus = load_corpus(path)
        assert len(corpus) == 5
        assert corpus.skipped_rows == 0
        assert corpus.documents[0].text == '"Quoted start'
        assert corpus.documents[2].text == 'has a " inside'

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot open"):
            load_corpus(str(tmp_path / "nope.tsv"))

    def test_missing_column_name(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        with pytest.raises(CorpusError, match="'body' not found"):
            load_corpus(path, text_col="body")

    def test_named_column_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\n")
        with pytest.raises(CorpusError, match="no header"):
            load_corpus(path, text_col="text", has_header=False)

    @pytest.mark.parametrize("has_header", [True, False])
    def test_negative_column_index(self, tmp_path, has_header):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        with pytest.raises(CorpusError, match="text column index -5 is negative"):
            load_corpus(path, text_col="-5", has_header=has_header)
        with pytest.raises(CorpusError, match="label column index -1 is negative"):
            load_corpus(path, text_col=0, label_col=-1, has_header=has_header)

    def test_column_index_beyond_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n")
        with pytest.raises(CorpusError, match="text column index 7 is out of range for 2"):
            load_corpus(path, text_col="7")
        with pytest.raises(CorpusError, match="label column index 2 is out of range for 2"):
            load_corpus(path, label_col=2)

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
            load_corpus(path, text_col=text_col, label_col=label_col)

    def test_same_index_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\n")
        with pytest.raises(CorpusError, match="same column"):
            load_corpus(path, text_col=1, label_col="1", has_header=False)

    def test_column_index_beyond_row_without_header(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hello\tA\n")
        with pytest.raises(CorpusError, match="expected 8 fields"):
            load_corpus(path, text_col=7, label_col=1, has_header=False)

    def test_short_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\nonlyonefield\n")
        with pytest.raises(CorpusError, match="line 3"):
            load_corpus(path)

    def test_empty_text_rows_skipped_and_counted(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\nhello\tA\n   \tB\nbye\tA\n")
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.skipped_rows == 1
        assert "B" not in corpus.labels

    def test_all_rows_empty(self, tmp_path):
        path = write(tmp_path, "c.tsv", "text\tlabel\n\tA\n")
        with pytest.raises(CorpusError, match="no usable rows"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "c.tsv", "")
        with pytest.raises(CorpusError):
            load_corpus(path)


class TestTokenize:
    def test_whitespace_split_and_lowercase(self):
        assert tokenize("The Cat  sat\ton the Mat") == ["the", "cat", "sat", "on", "the", "mat"]

    def test_edge_punctuation_stripped(self):
        assert tokenize('"Hello," she said.') == ["hello", "she", "said"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't can't") == ["don't", "can't"]

    def test_pure_punctuation_token_dropped(self):
        assert tokenize("wait -- what") == ["wait", "what"]

    def test_unicode_punctuation(self):
        assert tokenize("“quoted” —dash—") == ["quoted", "dash"]

    def test_config_toggles(self):
        cfg = TokenizerConfig(lowercase=False, strip_punct=False)
        assert tokenize("The cat.", cfg) == ["The", "cat."]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_no_empty_tokens(self):
        table = type_table(["... ! ok"])
        assert table.types == ["ok"]
        assert table.ids.tolist() == [0] and table.indptr.tolist() == [0, 1]


class TestCountOccurrences:
    def test_counts_in_first_seen_order(self):
        corpus = Corpus(
            documents=(
                Document(id="1", text="b a b", label="x"),
                Document(id="2", text="c a", label="x"),
            ),
            labels=frozenset({"x"}),
        )
        counts = type_table(doc.text for doc in corpus.documents).occurrence_counts()
        assert counts == {"a": 2, "b": 2, "c": 1}
        assert list(counts) == ["b", "a", "c"]
        assert len(counts) == 3


class TestMakeFolds:
    def test_covers_every_document_once(self):
        corpus = make_corpus(["A"] * 10 + ["B"] * 13)
        plan = make_folds(corpus, k=5, seed=1)
        assert set(plan.assignments) == {d.id for d in corpus.documents}
        assert all(0 <= f < 5 for f in plan.assignments.values())

    def test_global_fold_sizes_differ_by_at_most_one(self):
        corpus = make_corpus(["A"] * 10 + ["B"] * 13 + ["C"] * 6)
        plan = make_folds(corpus, k=5, seed=3)
        sizes = collections.Counter(plan.assignments.values())
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_per_label_fold_sizes_differ_by_at_most_one(self):
        corpus = make_corpus(["A"] * 10 + ["B"] * 13 + ["C"] * 6)
        plan = make_folds(corpus, k=5, seed=3)
        for label in "ABC":
            ids = [d.id for d in corpus.documents if d.label == label]
            sizes = collections.Counter(plan.assignments[i] for i in ids)
            counts = [sizes.get(f, 0) for f in range(5)]
            assert max(counts) - min(counts) <= 1

    def test_deterministic_for_fixed_seed(self):
        corpus = make_corpus(["A"] * 20 + ["B"] * 20)
        assert make_folds(corpus, 5, 42).assignments == make_folds(corpus, 5, 42).assignments

    def test_seed_changes_assignment(self):
        corpus = make_corpus(["A"] * 30 + ["B"] * 30)
        assert make_folds(corpus, 5, 1).assignments != make_folds(corpus, 5, 2).assignments

    def test_label_smaller_than_k(self):
        corpus = make_corpus(["A"] * 10 + ["B"] * 3)
        with pytest.raises(CorpusError, match="'B'"):
            make_folds(corpus, k=5, seed=0)

    def test_k_below_two(self):
        corpus = make_corpus(["A"] * 10)
        with pytest.raises(CorpusError, match="k must be >= 2"):
            make_folds(corpus, k=1, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_balance_property(self, counts, seed):
        labels = [chr(ord("a") + i) for i, n in enumerate(counts) for _ in range(n)]
        corpus = make_corpus(labels)
        plan = make_folds(corpus, k=3, seed=seed)
        sizes = collections.Counter(plan.assignments.values())
        global_counts = [sizes.get(f, 0) for f in range(3)]
        assert max(global_counts) - min(global_counts) <= 1
        for label in set(labels):
            ids = [d.id for d in corpus.documents if d.label == label]
            per = collections.Counter(plan.assignments[i] for i in ids)
            per_counts = [per.get(f, 0) for f in range(3)]
            assert max(per_counts) - min(per_counts) <= 1
