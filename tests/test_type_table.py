"""The type table that a run tokenizes its corpus into, against the
per-document path, and the run path's use of it."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normeval import (
    Corpus,
    Document,
    EvaluationError,
    HashedNgramProvider,
    RunConfig,
    TokenizedDocument,
    TokenizerConfig,
    build_normalizer,
    cosine_with_flag,
    count_occurrences,
    irs,
    load_corpus,
    normalize_corpus,
    run_evaluation,
    run_intrinsic,
    tokenize_corpus,
)
from normeval import embeddings
from normeval.corpus import type_table
from normeval.data import mini_corpus_path
from normeval.downstream import fold_tfidf, table_tfidf
from normeval.embeddings import embed_table, retention
from normeval.normalizers import type_mapping
from reference import (
    reference_document_vector,
    reference_normalize_corpus,
    reference_tfidf_fit,
    reference_tfidf_transform_all,
    reference_tokenize_corpus,
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
        ref_docs, ref_mapping = reference_normalize_corpus(normalizer, docs)
        ref_changed = [i for i, (a, b) in enumerate(zip(docs, ref_docs)) if a is not b]
        doc_ids = [doc.id for doc in corpus.documents]

        # the run path: one table, relabelled by the stems
        table = type_table((doc.text for doc in corpus.documents), config)
        assert table.documents(doc_ids) == docs
        mapping = type_mapping(normalizer, table.types, table.occurrence_counts())
        assert list(mapping.pairs.items()) == list(ref_mapping.pairs.items())
        assert list(mapping.occurrence_counts.items()) == list(ref_mapping.occurrence_counts.items())
        normalized, changed = table.relabel(mapping.pairs.values())
        assert normalized.documents(doc_ids) == ref_docs
        assert np.flatnonzero(changed).tolist() == ref_changed

        # the public adapters
        assert tokenize_corpus(corpus, config) == docs
        assert list(count_occurrences(docs).items()) == list(ref_mapping.occurrence_counts.items())
        public_docs, public_mapping = normalize_corpus(normalizer, docs)
        assert public_docs == ref_docs and public_mapping == mapping
        assert [a is b for a, b in zip(public_docs, docs)] == [a is b for a, b in zip(ref_docs, docs)]

        # IRS, each score bit for bit
        provider = HashedNgramProvider(dim=16, seed=1)
        expected = []
        for i, (a, b) in enumerate(zip(docs, ref_docs)):
            va = reference_document_vector(provider, a.tokens)
            vb = va if a is b else reference_document_vector(provider, b.tokens)
            expected.append((a.doc_id, cosine_with_flag(va, vb)[0].hex()))
        original = embed_table(provider, table)
        result = retention(provider, doc_ids, original, normalized, np.flatnonzero(changed))
        assert [(d, v.hex()) for d, v in result.per_doc] == expected
        public = irs(HashedNgramProvider(dim=16, seed=1), docs, public_docs)
        assert [(d, v.hex()) for d, v in public.per_doc] == expected

        # the fold TF-IDF, entry for entry
        k = data.draw(st.integers(2, 3))
        fold_of = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=len(docs), max_size=len(docs)))
        )
        train_sets = [[d for d, f in zip(ref_docs, fold_of) if f != fold] for fold in range(k)]
        if not all(any(d.tokens for d in train) for train in train_sets):
            for run in (lambda: table_tfidf(normalized, fold_of, k),
                        lambda: fold_tfidf(public_docs, fold_of, k)):
                with pytest.raises(EvaluationError):
                    run()
            return
        for matrices in (table_tfidf(normalized, fold_of, k), fold_tfidf(public_docs, fold_of, k)):
            for fold, (Xtr, Xte) in enumerate(matrices):
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
        assert table.documents([d.id for d in corpus.documents]) == tokenize_corpus(corpus)


MINI_SPECS = ("identity", "snowball-en", "truncate:3")


def mini_config(**overrides):
    return RunConfig(corpus_path=mini_corpus_path(), normalizers=MINI_SPECS, **overrides)


class TestRunPathStructure:
    def test_no_tokenized_document_is_built(self, monkeypatch):
        built = []
        real_init = TokenizedDocument.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TokenizedDocument, "__init__", counting)
        reports = run_evaluation(mini_config(classifiers=("nb", "lr", "svm")))
        reports += run_intrinsic(mini_config())
        assert not any(report.failed for report in reports)
        assert built == []
        # the count sees a document that is built
        tokenize_corpus(load_corpus(mini_corpus_path()))
        assert built

    def test_each_normalizers_new_stems_built_in_chunks(self, monkeypatch):
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
        # the original types, then each normalizer's stems not built before
        docs = tokenize_corpus(load_corpus(mini_corpus_path()))
        built = set()
        expected = []
        for stems in [list(count_occurrences(docs))] + [
            list(count_occurrences(normalize_corpus(build_normalizer(spec), docs)[0]))
            for spec in MINI_SPECS
        ]:
            new = [stem for stem in stems if stem not in built]
            built.update(new)
            expected.append(math.ceil(len(new) / chunk))
            sizes_of_new = [min(chunk, len(new) - start) for start in range(0, len(new), chunk)]
            assert sizes[: len(sizes_of_new)] == sizes_of_new
            del sizes[: len(sizes_of_new)]
        assert sizes == []
        # the originals, then snowball-en and truncate:3; identity adds none
        assert expected[0] > 1 and expected[1] == 0 and expected[2] >= 1 and expected[3] >= 1
