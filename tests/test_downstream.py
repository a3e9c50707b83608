"""TF-IDF features, the three classifiers, cross-validation, and the
performance-delta significance machinery."""

import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

import normeval
from normeval import (
    ALPHA,
    ClassifierSpec,
    Corpus,
    Document,
    EvalRun,
    EvaluationError,
    FoldPlan,
    IdentityNormalizer,
    SnowballEnglishNormalizer,
    TruncateNormalizer,
    accuracy,
    cross_validate_features,
    fold_features,
    fold_split,
    macro_f1,
    make_classifier_spec,
    load_corpus,
    make_folds,
    mcnemar,
    mpd,
    paired_t_pvalue,
    train_folds,
    type_mapping,
    type_table,
)
from normeval.corpus import table_of
from normeval.data import mini_corpus_path
from normeval.downstream import LinearClassifier, table_tfidf
from reference import (
    Doc,
    reference_softmax_loss_and_grad,
    reference_tfidf_fit,
    reference_tfidf_transform_all,
    reference_train_linear_svm,
    reference_train_logistic_regression,
)


def tdoc(doc_id, *tokens):
    return Doc(doc_id=doc_id, tokens=tokens)


def fold0_tfidf(train_docs, test_docs):
    """table_tfidf's fold-0 (training, test) matrices, with ``train_docs``
    in fold 1 and ``test_docs`` in fold 0."""
    table = table_of(doc.tokens for doc in [*train_docs, *test_docs])
    return table_tfidf(table, np.array([1] * len(train_docs) + [0] * len(test_docs)), 2)[0]


def columns(train_docs):
    """Each training token's column: the sorted distinct training tokens."""
    return {t: i for i, t in enumerate(sorted({t for d in train_docs for t in d.tokens}))}


class TestTfidf:
    def test_idf_values(self):
        train_docs = [tdoc("1", "both", "only1"), tdoc("2", "both")]
        _, X = fold0_tfidf(train_docs, [tdoc("t", "both", "only1")])
        # token in every doc: ln(3/3) + 1; token in one of two: ln(3/2) + 1;
        # a document with each once weighs them in the ratio of their idfs
        both, only1 = X.toarray().ravel()
        assert only1 / both == pytest.approx((math.log(1.5) + 1.0) / 1.0)

    def test_vocabulary_from_training_docs_only(self):
        train_docs = [tdoc("1", "a", "b"), tdoc("2", "b", "c")]
        _, X = fold0_tfidf(train_docs, [tdoc("t", "a", "unseen")])
        assert list(columns(train_docs)) == ["a", "b", "c"]
        assert X.shape == (1, 3)
        assert X[0, columns(train_docs)["a"]] > 0.0

    def test_rows_are_unit_length(self):
        train_docs = [tdoc("1", "a", "b", "b"), tdoc("2", "c")]
        _, X = fold0_tfidf(train_docs, [tdoc("t1", "a", "b"), tdoc("t2", "c", "c", "a")])
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
        assert norms == pytest.approx([1.0, 1.0])

    def test_single_token_doc_is_unit_vector_regardless_of_repeats(self):
        train_docs = [tdoc("1", "a"), tdoc("2", "b")]
        once = fold0_tfidf(train_docs, [tdoc("t", "a")])[1].toarray()
        thrice = fold0_tfidf(train_docs, [tdoc("t", "a", "a", "a")])[1].toarray()
        assert np.allclose(once, thrice)

    def test_doc_with_no_known_tokens_is_zero_row(self):
        _, X = fold0_tfidf([tdoc("1", "a")], [tdoc("t", "zz")])
        assert X.nnz == 0

    def test_term_frequency_shifts_weight(self):
        train_docs = [tdoc("1", "a", "b"), tdoc("2", "a"), tdoc("3", "b")]
        _, X = fold0_tfidf(train_docs, [tdoc("t", "a", "a", "b")])
        X = X.toarray().ravel()
        assert X[columns(train_docs)["a"]] > X[columns(train_docs)["b"]]

    def test_empty_training_set(self):
        with pytest.raises(EvaluationError, match="empty"):
            fold0_tfidf([], [tdoc("t", "a")])

    def test_matrix_is_csr(self):
        Xtr, Xte = fold0_tfidf([tdoc("1", "a")], [tdoc("t", "a")])
        assert sparse.issparse(Xte) and Xte.format == "csr"
        assert sparse.issparse(Xtr) and Xtr.format == "csr"


def separable_data(n_per_class=6):
    """Two classes with disjoint vocabulary; trivially separable."""
    docs, labels = [], []
    for i in range(n_per_class):
        docs.append(tdoc(f"p{i}", "red", "crimson", f"filler{i % 3}"))
        labels.append("warm")
        docs.append(tdoc(f"q{i}", "blue", "azure", f"filler{i % 3}"))
        labels.append("cool")
    model = reference_tfidf_fit(docs)
    return model, reference_tfidf_transform_all(model, docs), labels, docs


class TestClassifierSpec:
    def test_unknown_kind(self):
        with pytest.raises(EvaluationError, match="unknown classifier kind"):
            ClassifierSpec(kind="decision_tree")

    @pytest.mark.parametrize(
        "field,value",
        [("alpha", 0.0), ("l2_lambda", -1.0), ("learning_rate", 0.0), ("epochs", 0)],
    )
    def test_invalid_hyperparameters(self, field, value):
        with pytest.raises(EvaluationError):
            ClassifierSpec(kind="multinomial_nb", **{field: value})

    @pytest.mark.parametrize("field", ["alpha", "l2_lambda", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hyperparameters(self, field, value):
        # NaN passed the range checks, which compare False either way
        with pytest.raises(EvaluationError, match=f"{field} must be finite"):
            ClassifierSpec(kind="multinomial_nb", **{field: value})

    def test_defaults_per_kind(self):
        assert make_classifier_spec("linear_svm") == ClassifierSpec(kind="linear_svm")
        assert make_classifier_spec("logistic_regression").learning_rate == 0.5
        assert make_classifier_spec("multinomial_nb").alpha == 1.0


class TestTrainGuards:
    def test_single_class_rejected(self):
        model, X, labels, _ = separable_data()
        with pytest.raises(EvaluationError, match="single class"):
            train_folds(make_classifier_spec("multinomial_nb"), [(X, ["same"] * X.shape[0])])


@pytest.mark.parametrize("kind", ["multinomial_nb", "logistic_regression", "linear_svm"])
class TestAllClassifiers:
    def test_separates_disjoint_vocabulary(self, kind):
        model, X, labels, _ = separable_data()
        clf = train_folds(make_classifier_spec(kind), [(X, labels)])[0]
        assert clf.predict(X) == labels
        held_out = reference_tfidf_transform_all(
            model, [tdoc("h1", "crimson", "filler0"), tdoc("h2", "azure", "filler1")]
        )
        assert clf.predict(held_out) == ["warm", "cool"]

    def test_deterministic_across_trainings(self, kind):
        _, X, labels, _ = separable_data()
        a = train_folds(make_classifier_spec(kind, seed=3), [(X, labels)])[0]
        b = train_folds(make_classifier_spec(kind, seed=3), [(X, labels)])[0]
        Xq = X[:3]
        assert np.array_equal(a.decision_scores(Xq), b.decision_scores(Xq))


class TestLinearClassifier:
    @pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm"])
    def test_lr_and_svm_train_one_linear_type(self, kind):
        _, X, labels, _ = separable_data()
        clf = train_folds(make_classifier_spec(kind), [(X, labels)])[0]
        assert type(clf) is LinearClassifier
        assert clf.classes == sorted(set(labels))
        assert clf.W.shape == (len(clf.classes), X.shape[1])
        assert clf.b is None
        assert np.array_equal(clf.decision_scores(X), np.asarray(X @ clf.W.T))

    def test_nb_trains_one_with_log_prior_intercepts(self):
        _, X, labels, _ = separable_data()
        clf = train_folds(make_classifier_spec("multinomial_nb"), [(X, labels)])[0]
        assert type(clf) is LinearClassifier
        priors = [labels.count(c) / len(labels) for c in clf.classes]
        assert np.allclose(np.exp(clf.b), priors)
        # each class's weights are the log likelihoods of the features
        assert np.allclose(np.exp(clf.W).sum(axis=1), 1.0)
        assert np.array_equal(clf.decision_scores(X), np.asarray(X @ clf.W.T) + clf.b)

    def test_tie_breaks_to_lowest_sorted_class(self):
        clf = LinearClassifier(["a", "b"], np.zeros((2, 3)))
        assert clf.predict(sparse.csr_matrix(np.ones((2, 3)))) == ["a", "a"]


class TestMultinomialNB:
    def test_tie_breaks_to_lowest_sorted_class(self):
        X = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        clf = train_folds(make_classifier_spec("multinomial_nb"), [(X, ["zebra", "aardvark"])])[0]
        # a zero row scores equal class priors; argmax takes "aardvark"
        zero_row = sparse.csr_matrix((1, 2))
        assert clf.predict(zero_row) == ["aardvark"]

    def test_smoothing_keeps_unseen_features_finite(self):
        X = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        clf = train_folds(make_classifier_spec("multinomial_nb"), [(X, ["a", "b"])])[0]
        assert np.all(np.isfinite(clf.W))


class TestSoftmaxGradient:
    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        X = sparse.csr_matrix(rng.random((5, 4)))
        y_idx = np.array([0, 1, 2, 0, 1])
        W = rng.normal(size=(3, 4))
        _, grad = reference_softmax_loss_and_grad(W, X, y_idx, l2_lambda=0.01)
        h = 1e-6
        numeric = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                lp, _ = reference_softmax_loss_and_grad(Wp, X, y_idx, 0.01)
                lm, _ = reference_softmax_loss_and_grad(Wm, X, y_idx, 0.01)
                numeric[i, j] = (lp - lm) / (2 * h)
        denom = np.maximum(np.abs(grad) + np.abs(numeric), 1e-8)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-5

    def test_training_reduces_loss(self):
        _, X, labels, _ = separable_data()
        clf = train_folds(make_classifier_spec("logistic_regression"), [(X, labels)])[0]
        classes = sorted(set(labels))
        y_idx = np.array([classes.index(lab) for lab in labels])
        zero_loss, _ = reference_softmax_loss_and_grad(np.zeros_like(clf.W), X, y_idx, 1e-4)
        trained_loss, _ = reference_softmax_loss_and_grad(clf.W, X, y_idx, 1e-4)
        assert trained_loss < zero_loss

    def test_training_takes_the_reference_gradient_steps(self):
        _, X, labels, _ = separable_data()
        spec = make_classifier_spec("logistic_regression")
        clf = train_folds(spec, [(X, labels)])[0]
        y_idx = np.array([sorted(set(labels)).index(lab) for lab in labels])
        W = np.zeros_like(clf.W)
        for _ in range(spec.epochs):
            _, grad = reference_softmax_loss_and_grad(W, X, y_idx, spec.l2_lambda)
            W -= spec.learning_rate * grad
        assert np.array_equal(clf.W, W)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        n_features=st.integers(1, 30),
        k=st.integers(2, 4),
        zero_rows=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_training_equals_the_reference_steps_byte_for_byte(self, n, n_features, k, zero_rows, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n_features)) * (rng.random((n, n_features)) < 0.4)
        dense[rng.permutation(n)[: min(zero_rows, n)]] = 0.0
        X = sparse.csr_matrix(dense)
        y_idx = rng.integers(0, k, size=n)
        y_idx[:2] = [0, 1]
        _, y_idx = np.unique(y_idx, return_inverse=True)
        spec = make_classifier_spec("logistic_regression")
        clf = train_folds(spec, [(X, [f"c{i}" for i in y_idx])])[0]
        W = np.zeros(clf.W.shape)
        for _ in range(spec.epochs):
            _, grad = reference_softmax_loss_and_grad(W, X, y_idx, spec.l2_lambda)
            W -= spec.learning_rate * grad
        assert clf.W.tobytes() == W.tobytes()


class TestLinearSvm:
    @pytest.mark.parametrize("epochs", [1, 200])
    @pytest.mark.parametrize(
        "rows,labels",
        [([[1.0, 0.0], [0.0, 1.0]], ["a", "b"]),
         # an all-zero row has x.x = 0 and cannot move w
         ([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], ["a", "a", "b"])],
    )
    def test_orthogonal_rows_reach_hard_margin_in_one_epoch(self, epochs, rows, labels):
        # each row's first dual step sets alpha = 1 (C = 1/(n * l2) is far
        # above it), so w_a = x_a - x_b with both margins exactly 1
        spec = ClassifierSpec(kind="linear_svm", epochs=epochs)
        clf = train_folds(spec, [(sparse.csr_matrix(np.array(rows)), labels)])[0]
        assert np.array_equal(clf.W, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_unregularized_nonseparable_stops_at_epoch_cap(self):
        # duplicate rows with both labels: with C unbounded the dual
        # never converges, so only the epoch cap ends training
        _, X, labels, _ = separable_data()
        shuffled = [labels[j] for j in np.random.default_rng(5).permutation(len(labels))]
        capped = [
            train_folds(ClassifierSpec(kind="linear_svm", l2_lambda=0.0, epochs=e), [(X, shuffled)])[0].W
            for e in (20, 21)
        ]
        assert all(np.all(np.isfinite(W)) for W in capped)
        assert not np.array_equal(*capped)

    def test_weights_finite(self):
        _, X, labels, _ = separable_data()
        clf = train_folds(make_classifier_spec("linear_svm"), [(X, labels)])[0]
        assert np.all(np.isfinite(clf.W))


def csr_bytes(X):
    return (X.shape, X.data.dtype, X.data.tobytes(), X.indices.dtype, X.indices.tobytes(),
            X.indptr.dtype, X.indptr.tobytes())


# repeated, case-distinct and non-ASCII tokens; an empty list is an empty document
TOKENS = st.text(alphabet="abAé日ß́", min_size=1, max_size=3)
# up to 20 tokens, so that a document can have more distinct tokens than the
# 8 below which numpy's pairwise sum adds sequentially
DOCUMENTS = st.lists(st.lists(TOKENS, max_size=20), min_size=2, max_size=24)


class TestFoldTfidfAgainstPerFoldReference:
    @settings(max_examples=60, deadline=None)
    @given(tokens=DOCUMENTS, k=st.integers(2, 6), data=st.data())
    def test_every_fold_byte_for_byte(self, tokens, k, data):
        docs = [tdoc(f"d{i}", *t) for i, t in enumerate(tokens)]
        fold_of = data.draw(st.lists(st.integers(0, k - 1), min_size=len(docs), max_size=len(docs)))
        # every fold trains on at least one token (featureless folds are tested apart)
        assume(all(any(t for t, f in zip(tokens, fold_of) if f != fold) for fold in range(k)))
        matrices = table_tfidf(table_of(tokens), np.array(fold_of, dtype=np.intp), k)
        assert len(matrices) == k
        for fold, (Xtr, Xte) in enumerate(matrices):
            train_docs = [d for d, f in zip(docs, fold_of) if f != fold]
            test_docs = [d for d, f in zip(docs, fold_of) if f == fold]
            model = reference_tfidf_fit(train_docs)
            assert csr_bytes(Xtr) == csr_bytes(reference_tfidf_transform_all(model, train_docs))
            assert csr_bytes(Xte) == csr_bytes(reference_tfidf_transform_all(model, test_docs))

    def test_test_document_without_training_tokens_is_a_zero_row(self):
        table = table_of([["x", "y"], ["x"], ["only-here", "only-here"]])
        (_, _), (_, _), (Xtr, Xte) = table_tfidf(table, np.array([0, 1, 2]), 3)
        assert Xte.shape == (1, 2) and Xte.nnz == 0
        assert Xtr.shape == (2, 2)

    def test_featureless_training_fold_names_the_fold(self):
        with pytest.raises(EvaluationError, match="^fold 1: the training documents have no tokens"):
            table_tfidf(table_of([[], ["x"], []]), np.array([0, 1, 0]), 2)

    def test_empty_training_fold_names_the_fold(self):
        with pytest.raises(EvaluationError, match="^fold 0: cannot fit TF-IDF on an empty"):
            table_tfidf(table_of([["x"], ["y"]]), np.array([0, 0]), 2)


def random_training_set(rng, n_classes):
    """A sparse training set with some all-zero rows over a random subset
    of at least two of the n_classes classes."""
    n, n_features = int(rng.integers(2, 30)), int(rng.integers(1, 20))
    dense = rng.random((n, n_features)) * (rng.random((n, n_features)) < 0.4)
    dense[rng.permutation(n)[: int(rng.integers(0, n))]] = 0.0
    present = rng.permutation(n_classes)[: int(rng.integers(2, n_classes + 1))]
    y = rng.choice(present, size=n)
    y[:2] = present[:2]
    return sparse.csr_matrix(dense), [f"c{c}" for c in y]


def mini_corpus_fold_sets(normalizer=None):
    """The five fold training sets of the bundled corpus (k=5, seed 42),
    normalized by ``normalizer`` if one is given."""
    corpus = load_corpus(mini_corpus_path())
    split = corpus_split(corpus, k=5, seed=42)
    features = fold_features(corpus_table(corpus, normalizer), split)
    return [(Xtr, labels) for (Xtr, _), labels in zip(features, split.train_labels)]


class TestTrainFoldsAgainstPerSetReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n_sets=st.integers(2, 6),
        n_classes=st.sampled_from([2, 3, 4, 9]),
        epochs=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_logistic_regression_byte_for_byte(self, n_sets, n_classes, epochs, seed):
        rng = np.random.default_rng(seed)
        sets = [random_training_set(rng, n_classes) for _ in range(n_sets)]
        spec = ClassifierSpec(kind="logistic_regression", epochs=epochs)
        for (X, labels), model in zip(sets, train_folds(spec, sets)):
            classes = sorted(set(labels))
            y_idx = np.array([classes.index(lab) for lab in labels])
            expected = reference_train_logistic_regression(spec, X, y_idx, classes)
            assert model.classes == classes
            assert model.W.tobytes() == expected.W.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(n_classes=st.sampled_from([2, 3, 4, 9]), seed=st.integers(0, 2**32 - 1))
    def test_linear_svm_byte_for_byte(self, n_classes, seed):
        rng = np.random.default_rng(seed)
        sets = [random_training_set(rng, n_classes) for _ in range(3)]
        spec = make_classifier_spec("linear_svm", seed=seed)
        for (X, labels), model in zip(sets, train_folds(spec, sets)):
            classes = sorted(set(labels))
            y_idx = np.array([classes.index(lab) for lab in labels])
            expected = reference_train_linear_svm(spec, X, y_idx, classes)
            assert model.W.tobytes() == expected.W.tobytes()

    def test_mini_corpus_folds_byte_for_byte_at_200_steps(self):
        sets = mini_corpus_fold_sets()
        spec = make_classifier_spec("logistic_regression", seed=42)
        for (X, labels), model in zip(sets, train_folds(spec, sets)):
            classes = sorted(set(labels))
            y_idx = np.array([classes.index(lab) for lab in labels])
            expected = reference_train_logistic_regression(spec, X, y_idx, classes)
            assert model.W.tobytes() == expected.W.tobytes()

    def test_sets_with_different_classes_train_apart(self):
        rng = np.random.default_rng(3)
        X = sparse.csr_matrix(rng.random((4, 3)))
        sets = [(X, ["a", "b", "a", "b"]), (X, ["a", "c", "c", "a"]), (X, ["b", "a", "a", "b"])]
        spec = make_classifier_spec("logistic_regression")
        models = train_folds(spec, sets)
        assert [m.classes for m in models] == [["a", "b"], ["a", "c"], ["a", "b"]]
        for (X, labels), model in zip(sets, models):
            assert model.W.tobytes() == train_folds(spec, [(X, labels)])[0].W.tobytes()


@st.composite
def svm_lanes(draw):
    """1-8 training sets of different row counts, feature counts and row
    widths (up to 40 nonzeros), with all-zero rows; every set trains on
    at least two classes, and with three or more classes the second set
    lacks one of the first set's classes."""
    n_classes = draw(st.sampled_from([2, 3, 4]))
    n_lanes = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for lane in range(n_lanes):
        n, n_features = int(rng.integers(n_classes, 30)), int(rng.integers(1, 41))
        dense = rng.random((n, n_features)) * (rng.random((n, n_features)) < rng.random())
        dense[rng.permutation(n)[: int(rng.integers(0, n))]] = 0.0
        present = rng.permutation(n_classes)[: int(rng.integers(2, n_classes + 1))]
        if lane == 1 and n_classes > 2:
            present = np.arange(n_classes - 1)
        y = rng.choice(present, size=n)
        y[: len(present)] = present
        sets.append((sparse.csr_matrix(dense), [f"c{c}" for c in y]))
    return sets


class TestLinearSvmLockstep:
    """Each lane of the SVM's lockstep trains exactly as its set does
    alone in the per-set reference, whose row scores add a row's terms
    one at a time in column order."""

    @staticmethod
    def assert_each_lane_is_its_reference(spec, sets):
        for (X, labels), model in zip(sets, train_folds(spec, sets)):
            classes = sorted(set(labels))
            y_idx = np.array([classes.index(lab) for lab in labels])
            expected = reference_train_linear_svm(spec, X, y_idx, classes)
            assert model.classes == classes
            assert model.W.tobytes() == expected.W.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        sets=svm_lanes(),
        l2_lambda=st.sampled_from([0.0, 1e-4, 1e-2, 0.5]),
        epochs=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_lane_byte_for_byte(self, sets, l2_lambda, epochs, seed):
        spec = ClassifierSpec(kind="linear_svm", l2_lambda=l2_lambda, epochs=epochs, seed=seed)
        self.assert_each_lane_is_its_reference(spec, sets)

    def test_lanes_that_stop_in_different_epochs(self):
        # orthogonal rows reach their margins in the first epoch and stop
        # after the second; duplicate rows with both labels and C
        # unbounded run to the epoch cap, the ninth
        converging = (sparse.csr_matrix(np.eye(3)), ["a", "b", "a"])
        capped = (sparse.csr_matrix(np.ones((4, 2))), ["a", "b", "a", "b"])
        spec = ClassifierSpec(kind="linear_svm", l2_lambda=0.0, epochs=9)
        self.assert_each_lane_is_its_reference(spec, [converging, capped, converging])

    def test_mini_corpus_conditions_byte_for_byte(self):
        # the reference run's lanes: three corpora x five folds
        sets = [
            *mini_corpus_fold_sets(),
            *mini_corpus_fold_sets(SnowballEnglishNormalizer()),
            *mini_corpus_fold_sets(TruncateNormalizer(3)),
        ]
        self.assert_each_lane_is_its_reference(make_classifier_spec("linear_svm", seed=42), sets)


# the weights of the mini corpus's five fold SVMs as hex; run in this
# process and in fresh ones under other OpenBLAS kernels
FOLD_SVM_WEIGHTS = """
from normeval import (
    fold_features, fold_split, load_corpus, make_classifier_spec, make_folds, train_folds, type_table
)
from normeval.data import mini_corpus_path

corpus = load_corpus(mini_corpus_path())
split = fold_split(
    [d.id for d in corpus.documents],
    {d.id: d.label for d in corpus.documents},
    make_folds(corpus, k=5, seed=42),
)
features = fold_features(type_table(d.text for d in corpus.documents), split)
sets = [(Xtr, labels) for (Xtr, _), labels in zip(features, split.train_labels)]
models = train_folds(make_classifier_spec("linear_svm", seed=42), sets)
weights = b"".join(model.W.tobytes() for model in models).hex()
"""


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return {flag for line in fh if line.startswith("flags") for flag in line.split()[2:]}
    except OSError:
        return set()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels"
)
class TestSvmWeightsDoNotDependOnTheBlasKernel:
    @pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
    def test_fresh_process_under_another_kernel(self, coretype):
        # every x86-64 CPU runs Prescott; forcing a kernel whose
        # instructions the CPU lacks can crash the process
        if coretype == "Haswell" and "avx2" not in _cpu_flags():
            pytest.skip("the CPU has no AVX2")
        here = {}
        exec(FOLD_SVM_WEIGHTS, here)
        src = str(Path(normeval.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", FOLD_SVM_WEIGHTS + "print(weights)"],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert proc.stdout.strip() == here["weights"]


class TestScoring:
    def test_accuracy(self):
        assert accuracy(["a", "a", "b", "b"], ["a", "b", "b", "b"]) == 0.75

    def test_macro_f1_hand_computed(self):
        # class a: F1 = 2/3; class b: F1 = 4/5
        value = macro_f1(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        assert value == pytest.approx((2 / 3 + 4 / 5) / 2)

    def test_macro_f1_ignores_classes_absent_from_gold(self):
        assert macro_f1(["a", "a"], ["a", "c"]) == pytest.approx(2 / 3)

    def test_macro_f1_never_predicted_class_scores_zero(self):
        assert macro_f1(["a", "b"], ["a", "a"]) == pytest.approx(0.5 * (2 / 3 + 0.0))

    def test_perfect_predictions(self):
        gold = ["x", "y", "x"]
        assert accuracy(gold, gold) == 1.0
        assert macro_f1(gold, gold) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError, match="length mismatch"):
            accuracy(["a"], ["a", "b"])
        with pytest.raises(EvaluationError, match="length mismatch"):
            macro_f1(["a"], ["a", "b"])

    def test_empty_inputs(self):
        with pytest.raises(EvaluationError, match="empty"):
            accuracy([], [])
        with pytest.raises(EvaluationError, match="empty"):
            macro_f1([], [])


def toy_corpus():
    """Separable two-topic corpus (12 docs per label) for CV tests."""
    documents = []
    for i in range(12):
        documents.append(
            Document(
                id=f"r{i}",
                text=f"the red crimson scarlet flame number{i % 4}",
                label="warm",
            )
        )
        documents.append(
            Document(
                id=f"b{i}",
                text=f"the blue azure cobalt ocean number{i % 4}",
                label="cool",
            )
        )
    return Corpus(documents=tuple(documents), labels=frozenset({"warm", "cool"}))


def gold_of(corpus):
    return {doc.id: doc.label for doc in corpus.documents}


def corpus_table(corpus, normalizer=None):
    """The corpus's type table, relabelled by ``normalizer`` if one is given."""
    table = type_table(doc.text for doc in corpus.documents)
    if normalizer is None:
        return table
    mapping = type_mapping(normalizer, table.types, table.occurrence_counts())
    return table.relabel(mapping)[0]


def corpus_split(corpus, k, seed):
    return fold_split([doc.id for doc in corpus.documents], gold_of(corpus), make_folds(corpus, k, seed))


KINDS = ("multinomial_nb", "logistic_regression", "linear_svm")


class TestCrossValidate:
    def test_separable_corpus_scores_perfectly(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=3, seed=0)
        specs = [make_classifier_spec(kind) for kind in KINDS]
        [runs] = cross_validate_features(split, [fold_features(corpus_table(corpus), split)], specs, ["original"])
        for kind, run in zip(KINDS, runs):
            assert run.mean_accuracy == 1.0, kind
            assert run.mean_macro_f1 == 1.0, kind

    def test_out_of_fold_predictions_cover_corpus_in_order(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=4, seed=1)
        [[run]] = cross_validate_features(
            split, [fold_features(corpus_table(corpus), split)],
            [make_classifier_spec("multinomial_nb")], ["original"],
        )
        assert list(run.per_doc_predictions) == [doc.id for doc in corpus.documents]
        assert len(run.fold_scores) == 4
        assert [s[0] for s in run.fold_scores] == [0, 1, 2, 3]

    def test_condition_field(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=3, seed=0)
        corpora = [
            fold_features(corpus_table(corpus), split),
            fold_features(corpus_table(corpus, IdentityNormalizer()), split),
        ]
        spec = make_classifier_spec("multinomial_nb")
        [[bare], [ident]] = cross_validate_features(split, corpora, [spec], ["original", "normalized"])
        assert bare.condition == "original"
        assert ident.condition == "normalized"

    def test_identity_normalizer_measures_identically_to_none(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=3, seed=0)
        corpora = [
            fold_features(corpus_table(corpus), split),
            fold_features(corpus_table(corpus, IdentityNormalizer()), split),
        ]
        spec = make_classifier_spec("logistic_regression")
        [[bare], [ident]] = cross_validate_features(split, corpora, [spec], ["original", "normalized"])
        assert ident.fold_scores == bare.fold_scores
        assert ident.mean_accuracy == bare.mean_accuracy
        assert ident.mean_macro_f1 == bare.mean_macro_f1
        assert ident.per_doc_predictions == bare.per_doc_predictions

    def test_normalizer_applied_before_featurization(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=3, seed=0)
        # truncation to 1 char collapses red/blue vocabularies far less
        # cleanly; the run must still complete and stay in [0, 1]
        features = fold_features(corpus_table(corpus, TruncateNormalizer(1)), split)
        [[run]] = cross_validate_features(
            split, [features], [make_classifier_spec("multinomial_nb")], ["normalized"]
        )
        assert 0.0 <= run.mean_accuracy <= 1.0

    def test_deterministic(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=3, seed=0)
        spec = make_classifier_spec("linear_svm", seed=7)
        a, b = (
            cross_validate_features(split, [fold_features(corpus_table(corpus), split)], [spec], ["original"])
            for _ in range(2)
        )
        assert a == b


class TestCrossValidateFeatures:
    def test_shared_features_match_one_run_per_classifier(self):
        corpus = toy_corpus()
        split = corpus_split(corpus, k=3, seed=0)
        features = [fold_features(corpus_table(corpus), split)]
        specs = [make_classifier_spec(kind, seed=5) for kind in KINDS]
        [runs] = cross_validate_features(split, features, specs, ["original"])
        assert runs == [cross_validate_features(split, features, [spec], ["original"])[0][0] for spec in specs]

    def test_incomplete_fold_plan_rejected(self):
        corpus = toy_corpus()
        plan = FoldPlan(k=2, seed=0, assignments={"r0": 0})
        with pytest.raises(EvaluationError, match="does not cover"):
            fold_split([doc.id for doc in corpus.documents], gold_of(corpus), plan)

    @pytest.mark.parametrize("bad_fold", [-1, 2])
    def test_fold_outside_the_plan_rejected(self, bad_fold):
        corpus = toy_corpus()
        assignments = dict(make_folds(corpus, k=2, seed=0).assignments)
        assignments["r0"] = bad_fold
        with pytest.raises(EvaluationError, match="outside 0..1"):
            fold_split(
                [doc.id for doc in corpus.documents], gold_of(corpus),
                FoldPlan(k=2, seed=0, assignments=assignments),
            )


def run_with_scores(kind, accs, f1s=None, condition="normalized"):
    f1s = f1s or accs
    scores = tuple((i, a, f) for i, (a, f) in enumerate(zip(accs, f1s)))
    return EvalRun(
        classifier=kind,
        condition=condition,
        fold_scores=scores,
        mean_accuracy=sum(accs) / len(accs),
        mean_macro_f1=sum(f1s) / len(f1s),
        per_doc_predictions={},
    )


class TestPairedT:
    def test_all_zero_differences(self):
        assert paired_t_pvalue([0.0, 0.0, 0.0]) == 1.0

    def test_constant_nonzero_differences(self):
        assert paired_t_pvalue([0.1, 0.1, 0.1]) == 0.0

    def test_single_nonzero_difference(self):
        assert paired_t_pvalue([0.2]) == 0.0

    def test_matches_reference_implementation(self):
        diffs = [0.02, -0.01, 0.03, 0.0, 0.01]
        expected = stats.ttest_rel(diffs, [0.0] * len(diffs)).pvalue
        assert paired_t_pvalue(diffs) == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize("df", range(1, 41))
    def test_tail_equals_scipy_stats_t_exactly(self, df):
        # scipy.stats is the oracle only: normeval computes the tail with
        # scipy.special.stdtr and must agree to the last bit
        noise = np.random.default_rng(df).standard_normal(df + 1)
        noise -= noise.mean()
        sd = float(np.std(noise, ddof=1))
        for target in np.geomspace(1e-4, 300.0, 25):
            diffs = list(noise + target * sd / math.sqrt(df + 1))
            arr = np.asarray(diffs)
            t_stat = float(np.mean(arr)) / (float(np.std(arr, ddof=1)) / math.sqrt(df + 1))
            expected = float(2.0 * stats.t.sf(abs(t_stat), df))
            assert paired_t_pvalue(diffs) == expected
            assert paired_t_pvalue([-d for d in diffs]) == expected

    def test_sign_symmetric(self):
        diffs = [0.05, -0.02, 0.04, 0.01, -0.03]
        flipped = [-d for d in diffs]
        assert paired_t_pvalue(diffs) == pytest.approx(paired_t_pvalue(flipped))

    def test_empty(self):
        with pytest.raises(EvaluationError):
            paired_t_pvalue([])


class TestMpd:
    def test_identical_runs(self):
        a = run_with_scores("multinomial_nb", [0.8, 0.9, 0.7])
        b = run_with_scores("multinomial_nb", [0.8, 0.9, 0.7], condition="original")
        result = mpd(a, b)
        assert result.mpd == 0.0
        assert result.p_value == 1.0
        assert not result.significant
        assert result.test == "paired_t"

    def test_constant_improvement(self):
        # quarters are exactly representable, so every fold difference
        # is bitwise 0.25 and the degenerate-variance convention fires
        a = run_with_scores("linear_svm", [0.75, 1.0, 0.5])
        b = run_with_scores("linear_svm", [0.5, 0.75, 0.25], condition="original")
        result = mpd(a, b)
        assert result.mpd == pytest.approx(0.25)
        assert result.p_value == 0.0
        assert result.significant

    def test_nearly_constant_improvement_gets_tiny_nonzero_p(self):
        a = run_with_scores("linear_svm", [0.8, 0.9, 1.0])
        b = run_with_scores("linear_svm", [0.7, 0.8, 0.9], condition="original")
        result = mpd(a, b)
        # diffs are 0.1 up to float artifacts, not bitwise constant
        assert 0.0 < result.p_value < 1e-20
        assert result.significant

    def test_antisymmetric_delta(self):
        a = run_with_scores("multinomial_nb", [0.81, 0.9, 0.75])
        b = run_with_scores("multinomial_nb", [0.7, 0.88, 0.8], condition="original")
        assert mpd(a, b).mpd == pytest.approx(-mpd(b, a).mpd)
        assert mpd(a, b).p_value == pytest.approx(mpd(b, a).p_value)

    def test_macro_f1_metric_selected(self):
        a = run_with_scores("multinomial_nb", [0.9, 0.9], f1s=[0.5, 0.6])
        b = run_with_scores("multinomial_nb", [0.9, 0.9], f1s=[0.7, 0.7], condition="original")
        result = mpd(a, b, metric="macro_f1")
        assert result.metric_name == "macro_f1"
        assert result.mpd == pytest.approx(-0.15)

    def test_significance_threshold(self):
        # borderline vector: p just either side of alpha decides the flag
        a = run_with_scores("multinomial_nb", [0.80, 0.84, 0.82, 0.86, 0.83])
        b = run_with_scores(
            "multinomial_nb", [0.79, 0.80, 0.81, 0.80, 0.80], condition="original"
        )
        result = mpd(a, b)
        assert result.significant == (result.p_value < ALPHA)

    def test_classifier_mismatch(self):
        a = run_with_scores("multinomial_nb", [0.9, 0.9])
        b = run_with_scores("linear_svm", [0.9, 0.9], condition="original")
        with pytest.raises(EvaluationError, match="classifier mismatch"):
            mpd(a, b)

    def test_unknown_metric(self):
        a = run_with_scores("multinomial_nb", [0.9, 0.9])
        with pytest.raises(EvaluationError, match="unknown metric"):
            mpd(a, a, metric="auc")

    def test_mpd_delta_units(self):
        # one fold: each mean is its score divided by 1, which is exact
        a = run_with_scores("multinomial_nb", [0.6959])
        b = run_with_scores("multinomial_nb", [0.6821], condition="original")
        assert mpd(a, b).mpd == pytest.approx(0.0138, abs=1e-12)
        assert 100 * mpd(a, b).mpd == pytest.approx(1.38, abs=1e-10)


def mcnemar_case(n01, n10, n_both_right=10):
    """Build prediction dicts with the given disagreement counts."""
    gold, pa, pb = {}, {}, {}
    i = 0
    for _ in range(n01):  # a right, b wrong
        gold[f"d{i}"], pa[f"d{i}"], pb[f"d{i}"] = "x", "x", "y"
        i += 1
    for _ in range(n10):  # a wrong, b right
        gold[f"d{i}"], pa[f"d{i}"], pb[f"d{i}"] = "x", "y", "x"
        i += 1
    for _ in range(n_both_right):
        gold[f"d{i}"], pa[f"d{i}"], pb[f"d{i}"] = "x", "x", "x"
        i += 1
    return pa, pb, gold


class TestMcnemar:
    def test_exact_binomial_small_disagreement(self):
        pa, pb, gold = mcnemar_case(5, 0)
        assert mcnemar(pa, pb, gold) == pytest.approx(2 * 0.5**5)

    def test_identical_predictions(self):
        pa, pb, gold = mcnemar_case(0, 0)
        assert mcnemar(pa, pb, gold) == 1.0

    def test_balanced_disagreement_capped_at_one(self):
        pa, pb, gold = mcnemar_case(7, 7)
        assert mcnemar(pa, pb, gold) == 1.0

    def test_symmetric_in_the_two_systems(self):
        pa, pb, gold = mcnemar_case(6, 2)
        assert mcnemar(pa, pb, gold) == pytest.approx(mcnemar(pb, pa, gold))

    def test_exact_value_against_binomial_tail(self):
        pa, pb, gold = mcnemar_case(8, 2)
        expected = 2 * sum(math.comb(10, k) * 0.5**10 for k in range(3))
        assert mcnemar(pa, pb, gold) == pytest.approx(expected)

    def test_large_disagreement_uses_continuity_corrected_chi_square(self):
        pa, pb, gold = mcnemar_case(20, 10)
        chi = (abs(20 - 10) - 1) ** 2 / 30
        # chi-square(1) upper tail equals erfc(sqrt(x/2))
        expected = math.erfc(math.sqrt(chi / 2))
        assert mcnemar(pa, pb, gold) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_exact_branch_is_the_correctly_rounded_binomial_tail(self, n):
        for k in range(n // 2 + 1):
            tail = Fraction(sum(math.comb(n, i) for i in range(k + 1)), 2**n)
            expected = float(min(1, 2 * tail))
            pa, pb, gold = mcnemar_case(k, n - k)
            assert mcnemar(pa, pb, gold) == expected
            assert mcnemar(pb, pa, gold) == expected

    @pytest.mark.parametrize(
        "k, expected", [(4, 0.11846923828125), (5, 0.3017578125), (6, 0.60723876953125)]
    )
    def test_exact_branch_where_binom_cdf_is_one_ulp_low(self, k, expected):
        # scipy.stats.binom.cdf(k, 15, 0.5) is one ulp below the exact
        # dyadic tail for these k; normeval keeps the exact value
        pa, pb, gold = mcnemar_case(k, 15 - k)
        assert mcnemar(pa, pb, gold) == expected

    @pytest.mark.parametrize("n", [26, 27, 31, 40, 57, 80])
    def test_chi_square_branch_equals_scipy_stats_chi2_exactly(self, n):
        for n01 in range(n + 1):
            pa, pb, gold = mcnemar_case(n01, n - n01, n_both_right=0)
            chi = (abs(n01 - (n - n01)) - 1.0) ** 2 / n
            assert mcnemar(pa, pb, gold) == float(stats.chi2.sf(chi, 1))

    def test_mismatched_document_sets(self):
        pa, pb, gold = mcnemar_case(2, 2)
        pa_extra = dict(pa)
        pa_extra["ghost"] = "x"
        with pytest.raises(EvaluationError, match="differ"):
            mcnemar(pa_extra, pb, gold)
