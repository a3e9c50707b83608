"""Downstream task evaluation: TF-IDF features, three deterministic
linear classifiers, stratified cross-validation, and the model
performance delta with paired significance testing.

The delta answers the question the intrinsic metrics cannot: does
normalizing the text actually change what a classifier can learn from
it? Scores are compared per fold against a shared un-normalized
baseline, and the delta is paired with a two-sided t-test (plus a
McNemar test over pooled out-of-fold predictions).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse, special

from .corpus import FoldPlan, TokenizedDocument
from .errors import EvaluationError

ALPHA = 0.05


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus its training hyperparameters.

    alpha applies to multinomial_nb only, and learning_rate to
    logistic_regression only. epochs is the number of gradient steps of
    logistic_regression and caps the passes of linear_svm, which stops
    earlier once it has converged.
    """

    kind: str
    alpha: float = 1.0
    l2_lambda: float = 1e-4
    learning_rate: float = 0.5
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise EvaluationError(
                f"unknown classifier kind {self.kind!r}; expected one of {sorted(CLASSIFIER_KINDS)}"
            )
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise EvaluationError(f"alpha must be finite and > 0, got {self.alpha}")
        if not math.isfinite(self.l2_lambda) or self.l2_lambda < 0:
            raise EvaluationError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise EvaluationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise EvaluationError(f"epochs must be >= 1, got {self.epochs}")


def make_classifier_spec(kind: str, seed: int = 0) -> ClassifierSpec:
    """Spec with the documented default hyperparameters for ``kind``."""
    return ClassifierSpec(kind=kind, seed=seed)


@dataclass(frozen=True)
class EvalRun:
    classifier: str
    condition: str
    fold_scores: tuple[tuple[int, float, float], ...]
    mean_accuracy: float
    mean_macro_f1: float
    per_doc_predictions: dict[str, str]


@dataclass(frozen=True)
class MpdResult:
    metric_name: str
    mpd: float
    p_value: float
    test: str
    significant: bool


def _count_distinct(docs: list[TokenizedDocument]):
    """Every (document, distinct token) entry of ``docs``, each document's
    tokens in first-occurrence order: ``(vocabulary, ids, tf, doc)`` with
    the token's id in ``vocabulary``, which numbers the sorted distinct
    tokens of ``docs``, its count and the document's index."""
    counts = [Counter(doc.tokens) for doc in docs]
    vocabulary = {token: i for i, token in enumerate(sorted(set().union(*counts)))}
    lengths = [len(c) for c in counts]
    nnz = sum(lengths)
    ids = np.fromiter(map(vocabulary.__getitem__, chain.from_iterable(counts)), np.intp, nnz)
    tf = np.fromiter(chain.from_iterable(c.values() for c in counts), np.float64, nnz)
    return vocabulary, ids, tf, np.repeat(np.arange(len(docs)), lengths)


def _smoothed_idf(n: int, df: np.ndarray) -> np.ndarray:
    """ln((1 + n) / (1 + df)) + 1 for n training documents, one math.log
    per distinct document frequency."""
    values, inverse = np.unique(df, return_inverse=True)
    table = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in values.tolist()])
    return table[inverse]


def _unit_weights(ids: np.ndarray, tf: np.ndarray, doc: np.ndarray, n_docs: int, idf: np.ndarray):
    """tf * idf of every entry of :func:`_count_distinct` under each row of
    ``idf`` (one feature space per row, idf 0 for a token outside it),
    each document scaled to unit length; a document without weight stays
    all-zero.

    np.bincount adds a bin's weights one at a time in input order, so a
    document's squared weights are summed in its first-occurrence order,
    as a loop over its distinct tokens sums them; numpy's pairwise sum
    would move the last bits."""
    weights = tf * idf[:, ids]
    bins = (np.arange(len(idf))[:, np.newaxis] * n_docs + doc).ravel()
    squares = np.bincount(bins, weights=(weights * weights).ravel(), minlength=len(idf) * n_docs)
    norms = np.sqrt(squares).reshape(len(idf), n_docs)
    norms[norms == 0.0] = 1.0
    return weights / norms[:, doc]


def _csr_rows(values, cols, doc, keep, rows, n_cols) -> sparse.csr_matrix:
    """The matrix of the documents selected by the mask ``rows``, from the
    entries selected by ``keep``, which come ordered by document and then
    by column."""
    per_row = np.bincount(doc[keep], minlength=len(rows))[rows]
    indptr = np.concatenate(([0], np.cumsum(per_row)))
    return sparse.csr_matrix((values[keep], cols[keep], indptr), shape=(len(per_row), n_cols))


def fold_tfidf(
    docs: list[TokenizedDocument], fold_of: np.ndarray, k: int
) -> list[tuple[sparse.csr_matrix, sparse.csr_matrix]]:
    """The (training, test) TF-IDF matrices of each of the k folds, where
    ``fold_of`` holds each document's fold, from one count of the
    documents: raw token counts times the smoothed idf
    ln((1 + N) / (1 + df)) + 1 of the N documents outside the fold, each
    row L2-normalized (all-zero without a token of the fold's features).

    Token ids follow the sorted distinct tokens of all folds, so a
    fold's columns, its present ids renumbered in order, keep that order.
    A fold's document frequencies are the total minus the fold's own."""
    vocabulary, ids, tf, doc = _count_distinct(docs)
    n_types = len(vocabulary)
    held_out = np.bincount(fold_of[doc] * n_types + ids, minlength=k * n_types)
    held_out = held_out.reshape(k, n_types)
    df = held_out.sum(axis=0) - held_out
    present = df > 0
    n_train = len(docs) - np.bincount(fold_of, minlength=k)
    idf = np.zeros(df.shape)
    for fold in range(k):
        if not n_train[fold]:
            raise EvaluationError(f"fold {fold}: cannot fit TF-IDF on an empty training set")
        if not present[fold].any():
            raise EvaluationError(
                f"fold {fold}: the training documents have no tokens, so there are no features"
            )
        idf[fold, present[fold]] = _smoothed_idf(int(n_train[fold]), df[fold, present[fold]])
    order = np.lexsort((ids, doc))
    values = _unit_weights(ids, tf, doc, len(docs), idf)[:, order]
    ids, doc = ids[order], doc[order]
    tested = fold_of[doc]
    matrices = []
    for fold in range(k):
        cols = np.cumsum(present[fold])[ids] - 1
        n_cols = int(present[fold].sum())
        in_fold = tested == fold
        train_rows = _csr_rows(values[fold], cols, doc, ~in_fold, fold_of != fold, n_cols)
        test_rows = _csr_rows(
            values[fold], cols, doc, in_fold & present[fold, ids], fold_of == fold, n_cols
        )
        matrices.append((train_rows, test_rows))
    return matrices


class MultinomialNBClassifier:
    """Multinomial naive Bayes over non-negative feature values with
    Laplace smoothing. Ties resolve to the lowest class in sort order
    (argmax over classes sorted ascending returns the first maximum)."""

    def __init__(self, classes: list[str], log_prior: np.ndarray, log_likelihood: np.ndarray):
        self.classes = classes
        self.log_prior = log_prior
        self.log_likelihood = log_likelihood

    def decision_scores(self, X) -> np.ndarray:
        return np.asarray(X @ self.log_likelihood.T) + self.log_prior

    def predict(self, X) -> list[str]:
        scores = self.decision_scores(X)
        return [self.classes[i] for i in np.argmax(scores, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_scores(X)
        scores -= scores.max(axis=1, keepdims=True)
        expd = np.exp(scores)
        return expd / expd.sum(axis=1, keepdims=True)


def _train_multinomial_nb(spec: ClassifierSpec, X, y_idx: np.ndarray, classes: list[str]):
    n_features = X.shape[1]
    k = len(classes)
    log_prior = np.empty(k)
    log_likelihood = np.empty((k, n_features))
    for c in range(k):
        mask = y_idx == c
        log_prior[c] = math.log(mask.sum() / len(y_idx))
        feature_sums = np.asarray(X[np.where(mask)[0]].sum(axis=0)).ravel()
        smoothed = feature_sums + spec.alpha
        log_likelihood[c] = np.log(smoothed) - math.log(smoothed.sum())
    return MultinomialNBClassifier(classes, log_prior, log_likelihood)


def _softmax_probs(Wt: np.ndarray, X) -> np.ndarray:
    """Row-wise softmax of the scores X @ Wt, in a fresh array; ``Wt`` is
    the weights transposed (features x classes)."""
    probs = np.asarray(X @ Wt)
    # the row maxima by one np.maximum per class: the values of
    # probs.max(axis=1), which takes several times longer on few classes
    top = probs[:, 0].copy()
    for column in probs.T[1:]:
        np.maximum(top, column, out=top)
    probs -= top[:, np.newaxis]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _one_hot(y_idx: np.ndarray, k: int) -> np.ndarray:
    targets = np.zeros((len(y_idx), k))
    targets[np.arange(len(y_idx)), y_idx] = 1.0
    return targets


def _softmax_grad_t(
    probs: np.ndarray, Wt: np.ndarray, XT, targets: np.ndarray, l2_lambda: float, n
):
    """Gradient of the multinomial softmax objective, mean cross-entropy
    plus (l2/2)||W||^2, transposed like ``Wt``, from the class
    probabilities of X's rows, which it overwrites; ``XT`` is X
    transposed, ``targets`` the one-hot labels and ``n`` the row count to
    average over (or one per entry of Wt)."""
    probs -= targets
    grad = np.asarray(XT @ probs)
    grad /= n
    grad += l2_lambda * Wt
    return grad


class LinearClassifier:
    """Scores X @ W.T, one weight row per class; logistic regression and
    the linear SVM both train one. Ties resolve to the lowest class in
    sort order."""

    def __init__(self, classes: list[str], W: np.ndarray):
        self.classes = classes
        self.W = W

    def decision_scores(self, X) -> np.ndarray:
        return np.asarray(X @ self.W.T)

    def predict(self, X) -> list[str]:
        scores = self.decision_scores(X)
        return [self.classes[i] for i in np.argmax(scores, axis=1)]


def _train_logistic_regression(spec: ClassifierSpec, X, y_idx: np.ndarray, classes: list[str]):
    return _train_logistic_regression_blocks(spec, [X], [y_idx], classes)[0]


def _train_logistic_regression_blocks(
    spec: ClassifierSpec, blocks: list, labels: list[np.ndarray], classes: list[str]
) -> list[LinearClassifier]:
    """One model per training set (``blocks[i]`` with class indices
    ``labels[i]``, all over ``classes``), stepped together as the
    diagonal blocks of one problem.

    A row's scores and a feature's gradient read the same nonzeros in
    the same order as in its own set, and each feature row's gradient is
    divided by its own set's row count, so every model's weights are
    bit-identical to training its set alone."""
    X = sparse.block_diag(blocks, format="csr")
    XT = sparse.csr_matrix(X.T)
    targets = _one_hot(np.concatenate(labels), len(classes))
    widths = [block.shape[1] for block in blocks]
    # features x classes, so that X @ Wt and XT @ probs both read a
    # C-contiguous operand
    Wt = np.zeros((X.shape[1], len(classes)), dtype=np.float64)
    # each set's row count at its own weights, in full: dividing by a
    # broadcast column is twice as slow
    n_rows = np.repeat([[float(block.shape[0])] * len(classes) for block in blocks], widths, axis=0)
    for _ in range(spec.epochs):
        grad = _softmax_grad_t(_softmax_probs(Wt, X), Wt, XT, targets, spec.l2_lambda, n_rows)
        grad *= spec.learning_rate
        Wt -= grad
    return [
        LinearClassifier(classes, np.ascontiguousarray(W.T))
        for W in np.split(Wt, np.cumsum(widths)[:-1])
    ]


# Stop once every |projected gradient| of an epoch is below this. LIBLINEAR
# uses the same 0.1, but on the spread max PG - min PG, which is stricter.
SVM_TOLERANCE = 0.1


def _train_linear_svm(spec: ClassifierSpec, X, y_idx: np.ndarray, classes: list[str]):
    """One-vs-rest L2-regularized hinge loss, trained by dual coordinate
    descent (Hsieh et al., ICML 2008; the LIBLINEAR solver).

    The primal l2/2 ||w||^2 + (1/n) sum hinge has the dual box
    0 <= alpha_i <= C with C = 1/(n * l2) (unbounded when l2 is 0), and
    w = sum alpha_i y_i x_i. Rows are visited in a seeded per-epoch
    permutation; training stops once the largest |projected gradient|
    over all rows and classes of an epoch is below SVM_TOLERANCE, or
    after spec.epochs epochs. Rows
    with x_i . x_i = 0 cannot move w and are skipped."""
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
    # features x classes, so that a row's columns are one contiguous gather
    Wt = np.zeros((n_features, k), dtype=np.float64)
    alpha = [[0.0] * k for _ in range(n)]
    for _ in range(spec.epochs):
        max_pg = 0.0
        for i in rng.permutation(n).tolist():
            q = q_diag[i]
            if q == 0.0:
                continue
            cols, vals = rows[i]
            G = Wt[cols]
            scores = (vals @ G).tolist()
            a_i, label = alpha[i], labels[i]
            steps = [0.0] * k
            # k is small: scalar arithmetic beats numpy calls on length-k arrays
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
                G += vals[:, np.newaxis] * steps
                Wt[cols] = G
        if max_pg < SVM_TOLERANCE:
            break
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))


CLASSIFIER_KINDS = {
    "multinomial_nb": _train_multinomial_nb,
    "logistic_regression": _train_logistic_regression,
    "linear_svm": _train_linear_svm,
}


def _encode_labels(labels: list[str]) -> tuple[list[str], np.ndarray]:
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise EvaluationError(f"training set has a single class {classes}; need at least 2")
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[lab] for lab in labels], dtype=np.intp)


def train(spec: ClassifierSpec, X, labels: list[str]):
    """Train the classifier named by spec on feature rows X. Training is
    deterministic for fixed inputs and seed. Requires >= 2 classes."""
    classes, y_idx = _encode_labels(labels)
    return CLASSIFIER_KINDS[spec.kind](spec, X, y_idx, classes)


def train_folds(spec: ClassifierSpec, training_sets: list[tuple[object, list[str]]]) -> list:
    """One model per (X, labels) training set, each the model
    ``train(spec, X, labels)`` returns. Logistic regression trains all
    sets with the same classes together, as one block-diagonal problem."""
    if spec.kind != "logistic_regression":
        return [train(spec, X, labels) for X, labels in training_sets]
    encoded = [_encode_labels(labels) for _, labels in training_sets]
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, (classes, _) in enumerate(encoded):
        groups.setdefault(tuple(classes), []).append(i)
    models: list = [None] * len(training_sets)
    for classes, members in groups.items():
        blocks = [training_sets[i][0] for i in members]
        labels = [encoded[i][1] for i in members]
        trained = _train_logistic_regression_blocks(spec, blocks, labels, list(classes))
        for i, model in zip(members, trained):
            models[i] = model
    return models


def accuracy(gold: list[str], predicted: list[str]) -> float:
    if len(gold) != len(predicted):
        raise EvaluationError(f"length mismatch: {len(gold)} gold vs {len(predicted)} predicted")
    if not gold:
        raise EvaluationError("cannot score an empty prediction set")
    return sum(g == p for g, p in zip(gold, predicted)) / len(gold)


def macro_f1(gold: list[str], predicted: list[str]) -> float:
    """Unweighted mean of per-class F1 over the classes present in gold.

    Classes absent from gold are excluded even if predicted; a gold
    class with zero precision+recall contributes F1 = 0.
    """
    if len(gold) != len(predicted):
        raise EvaluationError(f"length mismatch: {len(gold)} gold vs {len(predicted)} predicted")
    if not gold:
        raise EvaluationError("cannot score an empty prediction set")
    scores = []
    for cls in sorted(set(gold)):
        tp = sum(1 for g, p in zip(gold, predicted) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, predicted) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, predicted) if g == cls and p != cls)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores)


def cross_validate_docs(
    docs: list[TokenizedDocument],
    gold: dict[str, str],
    folds: FoldPlan,
    specs: list[ClassifierSpec],
    condition: str = "original",
) -> list[EvalRun]:
    """Out-of-fold evaluation of every spec on already tokenized docs.

    For each fold, TF-IDF is fitted on the other folds only, so no
    test-fold token ever enters the feature space (leakage guard), and
    that one feature matrix is shared by every classifier; all folds'
    matrices come from one pass (:func:`fold_tfidf`). ``gold`` maps each
    doc id to its label. Returns one run per spec, in spec order.
    """
    missing = [doc.doc_id for doc in docs if doc.doc_id not in folds.assignments]
    if missing:
        raise EvaluationError(f"fold plan does not cover document ids {missing[:5]}")
    fold_of = [folds.assignments[doc.doc_id] for doc in docs]
    if not set(fold_of) <= set(range(folds.k)):
        raise EvaluationError(f"fold plan assigns a fold outside 0..{folds.k - 1}")
    features = fold_tfidf(docs, np.array(fold_of, dtype=np.intp), folds.k)
    tested = [[d.doc_id for d, f in zip(docs, fold_of) if f == fold] for fold in range(folds.k)]
    gold_tested = [[gold[doc_id] for doc_id in ids] for ids in tested]
    training_sets = [
        (Xtr, [gold[d.doc_id] for d, f in zip(docs, fold_of) if f != fold])
        for fold, (Xtr, _) in enumerate(features)
    ]
    runs = []
    for spec in specs:
        scores: list[tuple[int, float, float]] = []
        predicted: dict[str, str] = {}
        for fold, model in enumerate(train_folds(spec, training_sets)):
            preds = model.predict(features[fold][1])
            gold_te = gold_tested[fold]
            scores.append((fold, accuracy(gold_te, preds), macro_f1(gold_te, preds)))
            predicted.update(zip(tested[fold], preds))
        runs.append(
            EvalRun(
                classifier=spec.kind,
                condition=condition,
                fold_scores=tuple(scores),
                mean_accuracy=sum(s[1] for s in scores) / len(scores),
                mean_macro_f1=sum(s[2] for s in scores) / len(scores),
                per_doc_predictions={d.doc_id: predicted[d.doc_id] for d in docs},
            )
        )
    return runs


def paired_t_pvalue(differences: list[float]) -> float:
    """Two-sided paired t-test p-value over per-fold score differences.

    Degenerate-variance conventions: all differences zero -> 1.0; all
    differences equal and non-zero -> 0.0.
    """
    if not differences:
        raise EvaluationError("paired t-test needs at least one difference")
    diffs = np.asarray(differences, dtype=np.float64)
    # constancy is checked on the values, not on the sample deviation:
    # std([0.1, 0.1, 0.1]) is ~1e-17 because the mean is not representable
    if np.all(diffs == diffs[0]):
        return 1.0 if diffs[0] == 0.0 else 0.0
    sd = float(np.std(diffs, ddof=1))
    t_stat = float(np.mean(diffs)) / (sd / math.sqrt(len(diffs)))
    # stdtr(df, -|t|) is the lower tail scipy.stats.t.sf(|t|, df) evaluates,
    # without the cost of importing scipy.stats
    return float(2.0 * special.stdtr(len(diffs) - 1, -abs(t_stat)))


def mpd(run_normalized: EvalRun, run_original: EvalRun, metric: str = "accuracy") -> MpdResult:
    """Model performance delta for one classifier: mean normalized fold
    score minus mean original fold score, with a paired two-sided t-test
    over the per-fold differences. Requires matching classifier and
    fold structure."""
    if metric not in ("accuracy", "macro_f1"):
        raise EvaluationError(f"unknown metric {metric!r}; expected accuracy or macro_f1")
    if run_normalized.classifier != run_original.classifier:
        raise EvaluationError(
            f"classifier mismatch: {run_normalized.classifier!r} vs {run_original.classifier!r}"
        )
    folds_a = [s[0] for s in run_normalized.fold_scores]
    folds_b = [s[0] for s in run_original.fold_scores]
    if folds_a != folds_b:
        raise EvaluationError(f"fold mismatch: {folds_a} vs {folds_b}")
    col = 1 if metric == "accuracy" else 2
    diffs = [
        sa[col] - sb[col]
        for sa, sb in zip(run_normalized.fold_scores, run_original.fold_scores)
    ]
    p_value = paired_t_pvalue(diffs)
    mean_normalized = sum(s[col] for s in run_normalized.fold_scores) / len(diffs)
    mean_original = sum(s[col] for s in run_original.fold_scores) / len(diffs)
    return MpdResult(
        metric_name=metric,
        mpd=float(mean_normalized - mean_original),
        p_value=p_value,
        test="paired_t",
        significant=p_value < ALPHA,
    )


def mcnemar(
    preds_a: dict[str, str], preds_b: dict[str, str], gold: dict[str, str]
) -> float:
    """Two-sided McNemar p-value over pooled out-of-fold predictions.

    Exact binomial when the disagreement count n01+n10 <= 25, else
    chi-square with continuity correction. Identical predictions -> 1.0.
    """
    if set(preds_a) != set(preds_b) or set(preds_a) != set(gold):
        raise EvaluationError("prediction and gold document sets differ")
    n01 = sum(1 for i in gold if preds_a[i] == gold[i] and preds_b[i] != gold[i])
    n10 = sum(1 for i in gold if preds_a[i] != gold[i] and preds_b[i] == gold[i])
    n = n01 + n10
    if n == 0:
        return 1.0
    if n <= 25:
        # exact dyadic tail: an int/int division is correctly rounded
        tail = sum(math.comb(n, i) for i in range(min(n01, n10) + 1))
        return min(1.0, 2 * tail / 2**n)
    chi = (abs(n01 - n10) - 1.0) ** 2 / n
    return float(special.chdtrc(1, chi))
