"""The type table that a run tokenizes its corpus into, against the
per-document path, and the run path's use of it."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normeval import (
    Corpus,
    CorpusError,
    Document,
    EvaluationError,
    HashedNgramProvider,
    IdentityNormalizer,
    RunConfig,
    TokenizerConfig,
    build_normalizer,
    cosine_with_flag,
    irs,
    load_corpus,
    run_evaluation,
    run_intrinsic,
    type_mapping,
    type_table,
)
from normeval import embeddings
from normeval.corpus import TypeTable, table_of
from normeval.data import mini_corpus_path
from normeval.downstream import table_tfidf
from reference import (
    mapping_items,
    reference_document_vector,
    reference_normalize_corpus,
    reference_tfidf_fit,
    reference_tfidf_transform_all,
    reference_tokenize_corpus,
    table_tokens,
)

# pure punctuation, case variants of one type, edge punctuation and
# non-ASCII letters
RAW_TOKENS = [
    "--", "...", "“”", "!", "run", "Run", "RUN", "run.", "(run)", "'Ran'", "ran",
    "running", "a", "A", "Über", "über", "日本", "গান", "x-y", "é",
]
# every raw token of this document is pure punctuation
NOTHING = "-- ... !"


@st.composite
def corpora(draw):
    """A corpus with duplicate documents and documents that tokenize to
    nothing, and the stems of a ``map:`` file over its raw tokens: some
    empty, some merging types, and one document whose every stem is
    empty."""
    texts = draw(st.lists(
        st.one_of(
            st.just(NOTHING),
            st.lists(st.sampled_from(RAW_TOKENS), min_size=1, max_size=8).map(" ".join),
        ),
        min_size=2, max_size=12,
    ))
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))  # duplicates
    texts.append("unstemmable gone")
    corpus = Corpus(
        documents=tuple(Document(str(i), text, "ab"[i % 2]) for i, text in enumerate(texts)),
        labels=frozenset("ab"),
    )
    stems = draw(st.dictionaries(
        st.sampled_from(RAW_TOKENS).map(str.lower), st.sampled_from(["", "r", "run", "a", "日"]),
    ))
    stems.update(unstemmable="", gone="")
    config = TokenizerConfig(lowercase=draw(st.booleans()), strip_punct=draw(st.booleans()))
    return corpus, stems, config


def csr_bytes(X):
    return (X.shape, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes())


class TestTableAgainstPerDocumentPath:
    @settings(max_examples=120, deadline=None)
    @given(corpora(), st.sampled_from(["map", "snowball-en", "truncate:1"]), st.data())
    def test_same_results(self, corpus_stems_config, spec, data):
        corpus, stems, config = corpus_stems_config
        with tempfile.TemporaryDirectory() as tmp:
            if spec == "map":
                spec = f"map:{os.path.join(tmp, 'stems.tsv')}"
                with open(spec[4:], "w", encoding="utf-8") as fh:
                    fh.writelines(f"{token}\t{stem}\n" for token, stem in stems.items())
            normalizer = build_normalizer(spec)
        docs = reference_tokenize_corpus(corpus, config)
        ref_docs, (ref_pairs, ref_counts) = reference_normalize_corpus(normalizer, docs)
        ref_changed = [i for i, (a, b) in enumerate(zip(docs, ref_docs)) if a is not b]
        doc_ids = [doc.id for doc in corpus.documents]

        # the run path: one table, relabelled by the stems
        table = type_table((doc.text for doc in corpus.documents), config)
        assert table_tokens(table) == [doc.tokens for doc in docs]
        mapping = type_mapping(normalizer, table.types, table.occurrence_counts())
        assert mapping_items(mapping) == (list(ref_pairs.items()), list(ref_counts.items()))
        normalized, changed = table.relabel(mapping)
        assert table_tokens(normalized) == [doc.tokens for doc in ref_docs]
        assert np.flatnonzero(changed).tolist() == ref_changed

        # IRS, each score bit for bit
        provider = HashedNgramProvider(dim=16, seed=1)
        expected = []
        for i, (a, b) in enumerate(zip(docs, ref_docs)):
            va = reference_document_vector(provider, a.tokens)
            vb = va if a is b else reference_document_vector(provider, b.tokens)
            expected.append((a.doc_id, cosine_with_flag(va, vb)[0].hex()))
        [result] = irs(provider, doc_ids, table, [(mapping, np.flatnonzero(changed))])
        assert [(d, v.hex()) for d, v in result.per_doc] == expected
        # a fresh provider, the originals numbered from their token lists
        fresh = HashedNgramProvider(dim=16, seed=1)
        original = table_of(doc.tokens for doc in docs)
        [result] = irs(fresh, doc_ids, original, [(mapping, np.flatnonzero(changed))])
        assert [(d, v.hex()) for d, v in result.per_doc] == expected

        # the fold TF-IDF, entry for entry
        k = data.draw(st.integers(2, 3))
        fold_of = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=len(docs), max_size=len(docs)))
        )
        train_sets = [[d for d, f in zip(ref_docs, fold_of) if f != fold] for fold in range(k)]
        if not all(any(d.tokens for d in train) for train in train_sets):
            with pytest.raises(EvaluationError):
                table_tfidf(normalized, fold_of, k)
            return
        for fold, (Xtr, Xte) in enumerate(table_tfidf(normalized, fold_of, k)):
            model = reference_tfidf_fit(train_sets[fold])
            tested = [d for d, f in zip(ref_docs, fold_of) if f == fold]
            assert csr_bytes(Xtr) == csr_bytes(reference_tfidf_transform_all(model, train_sets[fold]))
            assert csr_bytes(Xte) == csr_bytes(reference_tfidf_transform_all(model, tested))

    def test_empty_documents_at_every_position(self):
        texts = ["--", "run ran", "!", "!", "ran", "..."]
        corpus = Corpus(tuple(Document(str(i), t, "a") for i, t in enumerate(texts)), frozenset("a"))
        table = type_table(t for t in texts)
        assert table.types == ["run", "ran"]
        assert table.indptr.tolist() == [0, 0, 2, 2, 2, 3, 3]
        ids, indptr = table.select(np.array([0, 4, 2, 1, 5]))
        assert ids.tolist() == [1, 0, 1] and indptr.tolist() == [0, 0, 1, 1, 3, 3]
        expected = reference_tokenize_corpus(corpus, TokenizerConfig())
        assert table_tokens(table) == [doc.tokens for doc in expected]

    @pytest.mark.parametrize("n_labels", [2, 3, 4])
    def test_relabel_with_another_label_count_rejected(self, n_labels):
        # the mapping of another table, of as many types or not
        table = type_table(["run ran", "runs"])
        other = table_of([["x", "y", "z", "w"][:n_labels]])
        mapping = type_mapping(IdentityNormalizer(), other.types, other.occurrence_counts())
        with pytest.raises(CorpusError, match=f"^mapping of {n_labels} other types for 3 types$"):
            table.relabel(mapping)
        # equal types in another list are the table's own
        mapping = type_mapping(IdentityNormalizer(), list(table.types), table.occurrence_counts())
        assert table_tokens(table.relabel(mapping)[0]) == table_tokens(table)


MINI_SPECS = ("identity", "snowball-en", "truncate:3")


def mini_config(**overrides):
    return RunConfig(corpus_path=mini_corpus_path(), normalizers=MINI_SPECS, **overrides)


class TestRunPathStructure:
    @pytest.mark.parametrize("run", [run_intrinsic, run_evaluation])
    def test_run_builds_no_document(self, run, tmp_path, monkeypatch):
        # the rows go from the file into the type table; the run keeps
        # only the table, the document ids and the labels
        def no_document(*args, **kwargs):
            raise AssertionError("a run built a corpus.Document")

        path = tmp_path / "c.tsv"
        path.write_text("text\tlabel\n" + "".join(
            f"doc {i} says {'yes' if i % 2 else 'no'}.\t{'ab'[i % 2]}\n" for i in range(40)
        ), encoding="utf-8")
        monkeypatch.setattr("normeval.corpus.Document", no_document)
        config = RunConfig(str(path), ("identity", "truncate:2"), classifiers=("nb",), k=2)
        reports = run(config)
        assert [report.failed for report in reports] == [False, False]

    def test_evaluate_relabels_only_to_featurize(self, monkeypatch):
        # IRS maps rows through each mapping itself; the table is
        # relabelled only for the folds of a corpus a normalizer changed
        calls = []
        real = TypeTable.relabel

        def counting(table, mapping):
            calls.append(mapping)
            return real(table, mapping)

        monkeypatch.setattr(TypeTable, "relabel", counting)
        reports = run_evaluation(mini_config(classifiers=()))
        assert not any(report.failed for report in reports)
        assert calls == []
        reports = run_evaluation(mini_config(classifiers=("nb",), k=2))
        assert not any(report.failed for report in reports)
        # snowball-en and truncate:3, each once; identity changes nothing
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_each_embedded_vocabulary_built_once_in_chunks(self, monkeypatch):
        sizes = []
        real_token_bins = embeddings._token_bins

        def counting(tokens, *args):
            sizes.append(len(tokens))
            return real_token_bins(tokens, *args)

        chunk = 100
        monkeypatch.setattr(embeddings, "_token_bins", counting)
        monkeypatch.setattr(embeddings, "_BUILD_CHUNK", chunk)
        reports = run_evaluation(mini_config(classifiers=()))
        assert not any(report.failed for report in reports)
        # the original types, then the types of snowball-en and of
        # truncate:3, each built once, in chunks; identity changes no
        # document and builds none
        table = type_table(doc.text for doc in load_corpus(mini_corpus_path()).documents)
        counts = table.occurrence_counts()
        vocabularies = [table.types] + [
            table.relabel(type_mapping(build_normalizer(spec), table.types, counts))[0].types
            for spec in MINI_SPECS[1:]
        ]
        assert all(len(vocabulary) > chunk for vocabulary in vocabularies)
        assert sizes == [
            min(chunk, len(vocabulary) - start)
            for vocabulary in vocabularies
            for start in range(0, len(vocabulary), chunk)
        ]
