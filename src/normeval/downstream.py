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
from dataclasses import dataclass

import numpy as np
from scipy import sparse, special

from .corpus import Corpus, FoldPlan, TokenizedDocument, TokenizerConfig, tokenize_corpus
from .errors import EvaluationError
from .normalizers import Normalizer, normalize_corpus

ALPHA = 0.05


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: dict[str, int]
    idf: np.ndarray


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
        if self.alpha <= 0:
            raise EvaluationError(f"alpha must be > 0, got {self.alpha}")
        if self.l2_lambda < 0:
            raise EvaluationError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.learning_rate <= 0:
            raise EvaluationError(f"learning_rate must be > 0, got {self.learning_rate}")
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


def tfidf_fit(train_docs: list[TokenizedDocument]) -> TfidfModel:
    """Fit vocabulary and smoothed idf on training documents only:
    idf(t) = ln((1 + N) / (1 + df(t))) + 1."""
    if not train_docs:
        raise EvaluationError("cannot fit TF-IDF on an empty training set")
    df: dict[str, int] = {}
    for doc in train_docs:
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    n = len(train_docs)
    idf = np.empty(len(vocabulary), dtype=np.float64)
    for token, i in vocabulary.items():
        idf[i] = math.log((1 + n) / (1 + df[token])) + 1.0
    return TfidfModel(vocabulary=vocabulary, idf=idf)


def tfidf_transform_all(
    model: TfidfModel, docs: list[TokenizedDocument]
) -> sparse.csr_matrix:
    """One row per document: raw token counts times idf, L2-normalized
    unless the document has no in-vocabulary tokens (then all-zero)."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for r, doc in enumerate(docs):
        counts: dict[int, int] = {}
        for token in doc.tokens:
            j = model.vocabulary.get(token)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        if not counts:
            continue
        weights = {j: tf * model.idf[j] for j, tf in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        for j in sorted(weights):
            rows.append(r)
            cols.append(j)
            vals.append(weights[j] / norm)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(docs), len(model.vocabulary)), dtype=np.float64
    )


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
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _softmax_grad_t(probs: np.ndarray, Wt: np.ndarray, XT, y_idx: np.ndarray, l2_lambda: float):
    """Gradient of :func:`softmax_loss_and_grad`'s objective, transposed
    like ``Wt``, from the class probabilities of X's rows, which it
    overwrites; ``XT`` is X transposed."""
    n = probs.shape[0]
    probs[np.arange(n), y_idx] -= 1.0
    grad = np.asarray(XT @ probs)
    grad /= n
    grad += l2_lambda * Wt
    return grad


def softmax_loss_and_grad(W: np.ndarray, X, y_idx: np.ndarray, l2_lambda: float):
    """Multinomial softmax objective and its gradient in W (classes x
    features): mean cross-entropy plus (l2/2)||W||^2. Exposed so the
    analytic gradient can be checked against finite differences."""
    n = X.shape[0]
    probs = _softmax_probs(W.T, X)
    loss = -np.mean(np.log(probs[np.arange(n), y_idx])) + 0.5 * l2_lambda * float(
        np.sum(W * W)
    )
    return loss, _softmax_grad_t(probs, W.T, X.T, y_idx, l2_lambda).T


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
    # features x classes, so that X @ Wt and XT @ probs both read a
    # C-contiguous operand; each step takes the IEEE operations of
    # W -= learning_rate * softmax_loss_and_grad(W, ...)[1], in place
    Wt = np.zeros((X.shape[1], len(classes)), dtype=np.float64)
    XT = sparse.csr_matrix(X.T)
    for _ in range(spec.epochs):
        grad = _softmax_grad_t(_softmax_probs(Wt, X), Wt, XT, y_idx, spec.l2_lambda)
        grad *= spec.learning_rate
        Wt -= grad
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))


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
            scores = (vals @ Wt[cols]).tolist()
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
                Wt[cols] += np.outer(vals, steps)
        if max_pg < SVM_TOLERANCE:
            break
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))


CLASSIFIER_KINDS = {
    "multinomial_nb": _train_multinomial_nb,
    "logistic_regression": _train_logistic_regression,
    "linear_svm": _train_linear_svm,
}


def train(spec: ClassifierSpec, X, labels: list[str]):
    """Train the classifier named by spec on feature rows X. Training is
    deterministic for fixed inputs and seed. Requires >= 2 classes."""
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise EvaluationError(f"training set has a single class {classes}; need at least 2")
    index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([index[lab] for lab in labels], dtype=np.intp)
    return CLASSIFIER_KINDS[spec.kind](spec, X, y_idx, classes)


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
    that one feature matrix is shared by every classifier. ``gold`` maps
    each doc id to its label. Returns one run per spec, in spec order.
    """
    missing = [doc.doc_id for doc in docs if doc.doc_id not in folds.assignments]
    if missing:
        raise EvaluationError(f"fold plan does not cover document ids {missing[:5]}")
    fold_scores: list[list[tuple[int, float, float]]] = [[] for _ in specs]
    predictions: list[dict[str, str]] = [{} for _ in specs]
    for fold in range(folds.k):
        train_docs = [d for d in docs if folds.assignments[d.doc_id] != fold]
        test_docs = [d for d in docs if folds.assignments[d.doc_id] == fold]
        model = tfidf_fit(train_docs)
        Xtr = tfidf_transform_all(model, train_docs)
        Xte = tfidf_transform_all(model, test_docs)
        gold_tr = [gold[d.doc_id] for d in train_docs]
        gold_te = [gold[d.doc_id] for d in test_docs]
        for spec, scores, predicted in zip(specs, fold_scores, predictions):
            preds = train(spec, Xtr, gold_tr).predict(Xte)
            scores.append((fold, accuracy(gold_te, preds), macro_f1(gold_te, preds)))
            predicted.update(zip((d.doc_id for d in test_docs), preds))
    return [
        EvalRun(
            classifier=spec.kind,
            condition=condition,
            fold_scores=tuple(scores),
            mean_accuracy=sum(s[1] for s in scores) / len(scores),
            mean_macro_f1=sum(s[2] for s in scores) / len(scores),
            per_doc_predictions={d.doc_id: predicted[d.doc_id] for d in docs},
        )
        for spec, scores, predicted in zip(specs, fold_scores, predictions)
    ]


def cross_validate(
    corpus: Corpus,
    folds: FoldPlan,
    spec: ClassifierSpec,
    normalizer: Normalizer | None = None,
    tokenizer: TokenizerConfig = TokenizerConfig(),
) -> EvalRun:
    """Out-of-fold evaluation of one classifier on a corpus (see
    :func:`cross_validate_docs`). Normalization, when given, is applied
    per token before featurization."""
    docs = tokenize_corpus(corpus, tokenizer)
    condition = "original"
    if normalizer is not None:
        docs, _ = normalize_corpus(normalizer, docs)
        condition = "normalized"
    gold = {doc.id: doc.label for doc in corpus.documents}
    return cross_validate_docs(docs, gold, folds, [spec], condition)[0]


def mpd_delta(metric_normalized: float, metric_original: float) -> float:
    """Performance delta in the callers' units: normalized minus original."""
    return float(metric_normalized - metric_original)


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
    delta = mpd_delta(
        sum(s[col] for s in run_normalized.fold_scores) / len(diffs),
        sum(s[col] for s in run_original.fold_scores) / len(diffs),
    )
    return MpdResult(
        metric_name=metric,
        mpd=delta,
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
