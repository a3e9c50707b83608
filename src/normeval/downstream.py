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

from .corpus import FoldPlan, TypeTable
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


def _count_distinct(table: TypeTable):
    """Every (document, distinct type) entry of ``table``, each document's
    types in first-occurrence order: ``(ids, tf, doc)`` with the type's
    id in the sorted types, its count and the document's index."""
    n_types = len(table.types)
    doc = np.repeat(np.arange(len(table)), np.diff(table.indptr))
    # np.unique sorts stably, so ``first`` is each entry's first occurrence
    keys, first, tf = np.unique(
        doc * n_types + table.ids, return_index=True, return_counts=True
    )
    order = first.argsort()
    keys = keys[order]
    sorted_id = np.empty(n_types, np.intp)
    sorted_id[sorted(range(n_types), key=table.types.__getitem__)] = np.arange(n_types)
    return sorted_id[keys % n_types], tf[order].astype(np.float64), keys // n_types


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


def table_tfidf(
    table: TypeTable, fold_of: np.ndarray, k: int
) -> list[tuple[sparse.csr_matrix, sparse.csr_matrix]]:
    """The (training, test) TF-IDF matrices of each of the k folds, where
    ``fold_of`` holds each document's fold, from one count of the
    table's documents: raw token counts times the smoothed idf
    ln((1 + N) / (1 + df)) + 1 of the N documents outside the fold, each
    row L2-normalized (all-zero without a token of the fold's features).

    Token ids follow the sorted distinct tokens of all folds, so a
    fold's columns, its present ids renumbered in order, keep that order.
    A fold's document frequencies are the total minus the fold's own."""
    ids, tf, doc = _count_distinct(table)
    n_types = len(table.types)
    held_out = np.bincount(fold_of[doc] * n_types + ids, minlength=k * n_types)
    held_out = held_out.reshape(k, n_types)
    df = held_out.sum(axis=0) - held_out
    present = df > 0
    n_train = len(table) - np.bincount(fold_of, minlength=k)
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
    values = _unit_weights(ids, tf, doc, len(table), idf)[:, order]
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



def _train_multinomial_nb(spec: ClassifierSpec, blocks: list, labels: list, classes: list[str]):
    """One model per training set, each trained on its own."""
    models = []
    for X, y_idx in zip(blocks, labels):
        log_prior = np.empty(len(classes))
        log_likelihood = np.empty((len(classes), X.shape[1]))
        for c in range(len(classes)):
            mask = y_idx == c
            log_prior[c] = math.log(mask.sum() / len(y_idx))
            feature_sums = np.asarray(X[np.where(mask)[0]].sum(axis=0)).ravel()
            smoothed = feature_sums + spec.alpha
            log_likelihood[c] = np.log(smoothed) - math.log(smoothed.sum())
        models.append(MultinomialNBClassifier(classes, log_prior, log_likelihood))
    return models


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


def _train_logistic_regression(
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
# Steps per batch of the SVM's lockstep. A batch's rows are gathered at
# once, padded to the batch's widest row, so this bounds the memory they
# take: on the bundled corpus, 32 keeps a run's peak resident set at what
# training one row at a time took, and 128 raised it by about 0.6 MB.
SVM_CHUNK = 32


def _train_linear_svm(
    spec: ClassifierSpec, blocks: list, labels: list[np.ndarray], classes: list[str]
) -> list[LinearClassifier]:
    """One-vs-rest L2-regularized hinge loss, one model per training set,
    trained by dual coordinate descent (Hsieh et al., ICML 2008; the
    LIBLINEAR solver) with every set stepped in lockstep.

    For a set of n rows, the primal l2/2 ||w||^2 + (1/n) sum hinge has
    the dual box 0 <= alpha_i <= C with C = 1/(n * l2) (unbounded when
    l2 is 0), and w = sum alpha_i y_i x_i. Each set visits its rows in a
    per-epoch permutation from its own generator, seeded with spec.seed,
    and stops once the largest |projected gradient| over all rows and
    classes of an epoch is below SVM_TOLERANCE, or after spec.epochs
    epochs. Rows with x_i . x_i = 0 cannot move w and are skipped.

    A row's score for class c is the sum of x_ij * w_jc over the row's
    nonzeros, added one at a time in the row's column order; normeval
    defines it so, where a BLAS dot product would sum in the order of
    the CPU's kernel. Each set owns a range of rows of one weight table
    (features x classes), and every step trains the next row of every
    set still running. A batch of steps pads its rows to its widest one
    with a column of weight 0 that never moves, and adding 0 leaves a
    sum unchanged, so every set's weights are bit-identical to training
    it alone."""
    sizes = [X.shape[0] for X in blocks]
    row_start = np.concatenate(([0], np.cumsum(sizes)))
    col_start = np.concatenate(([0], np.cumsum([X.shape[1] for X in blocks])))
    # the sets' rows and features numbered one after another
    X = sparse.block_diag(blocks, format="csr")
    n, n_features = X.shape
    q = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    signs = np.full((n, len(classes)), -1.0)
    signs[np.arange(n), np.concatenate(labels)] = 1.0
    bound = [
        1.0 / (size * spec.l2_lambda) if spec.l2_lambda > 0 else math.inf for size in sizes
    ]
    rngs = [np.random.default_rng(spec.seed) for _ in blocks]

    def epoch(lane: int) -> np.ndarray:
        """The lane's rows for one more epoch, without the rows of q = 0."""
        order = rngs[lane].permutation(sizes[lane]) + row_start[lane]
        return order[q[order] != 0.0]

    Wt = np.zeros((n_features + 1, len(classes)))
    alpha = np.zeros(signs.shape)
    # each running lane's rows left in its epoch, its epoch number, and
    # the largest |projected gradient| of its epoch so far
    queue = {lane: epoch(lane) for lane in range(len(blocks))}
    queue = {lane: rows for lane, rows in queue.items() if len(rows)}
    epochs = dict.fromkeys(queue, 1)
    top = dict.fromkeys(queue, 0.0)
    while queue:
        lanes = list(queue)
        # up to the first epoch end of a running lane, the lanes are fixed
        steps = min(SVM_CHUNK, *(len(rows) for rows in queue.values()))
        chunk = np.stack([queue[lane][:steps] for lane in lanes], axis=1)
        C = np.array([bound[lane] for lane in lanes])
        reached = _svm_steps(Wt, alpha, chunk, X, signs, q, C)
        for lane, pg in zip(lanes, reached.tolist()):
            top[lane] = max(top[lane], pg)
            queue[lane] = queue[lane][steps:]
            if len(queue[lane]):
                continue
            if top[lane] < SVM_TOLERANCE or epochs[lane] == spec.epochs:
                del queue[lane]
            else:
                queue[lane], epochs[lane], top[lane] = epoch(lane), epochs[lane] + 1, 0.0
    return [
        LinearClassifier(classes, np.ascontiguousarray(Wt[start:stop].T))
        for start, stop in zip(col_start[:-1], col_start[1:])
    ]


def _svm_steps(Wt, alpha, chunk, X, signs, q, C) -> np.ndarray:
    """Dual coordinate descent steps of the lanes of ``chunk``'s columns,
    one row of ``X`` per lane and step (``chunk[t, l]``), updating the
    weight table ``Wt`` and the duals ``alpha`` in place; ``C`` holds
    each lane's box bound. Returns each lane's largest |projected
    gradient|."""
    steps, lanes = chunk.shape
    k = Wt.shape[1]
    shape = (steps, lanes * k)
    # the rows' nonzeros, padded to the widest row of the batch with the
    # zero weight column after all features
    start = X.indptr[chunk]
    length = X.indptr[chunk + 1] - start
    slots = np.arange(length.max())
    entry = start[..., np.newaxis] + slots
    pad = slots >= length[..., np.newaxis]
    entry[pad] = 0
    cols = np.where(pad, X.shape[1], X.indices[entry])
    vals = np.where(pad, 0.0, X.data[entry])
    # a step's (lane, class) pairs along one flat axis, so that numpy
    # runs each operation as one loop; its gathered weights lead with the
    # nonzero slot, so that summing over the slots adds whole planes in
    # slot order
    at = (cols.transpose(0, 2, 1)[..., np.newaxis] * k + np.arange(k)).reshape(
        steps, -1, lanes * k
    )
    row_vals = np.repeat(vals.transpose(0, 2, 1), k, axis=2)
    dual_at = (chunk[..., np.newaxis] * k + np.arange(k)).reshape(shape)
    row_signs = signs[chunk].reshape(shape)
    row_q = np.repeat(q[chunk], k, axis=1)
    bound = np.repeat(C, k)
    zeros = np.zeros(lanes * k)
    flat_w = Wt.reshape(-1)
    flat_alpha = alpha.reshape(-1)
    # every step's gradients and duals before its update; the projected
    # gradients are taken from them once, after the last step
    grads = np.empty(shape)
    before = np.empty(shape)
    for i, v, j, y, qq, g, a in zip(at, row_vals, dual_at, row_signs, row_q, grads, before):
        G = flat_w.take(i)
        np.multiply(np.add.reduce(v * G, axis=0), y, out=g)
        g -= 1.0
        flat_alpha.take(j, out=a)
        # the clipped Newton step; where the projected gradient is 0 the
        # clip returns alpha itself, so no step needs masking
        new = g / qq
        np.subtract(a, new, out=new)
        np.maximum(new, zeros, out=new)
        np.minimum(new, bound, out=new)
        flat_alpha[j] = new
        new -= a
        new *= y
        G += v * new
        flat_w[i] = G
    pg = np.where(before == 0.0, np.minimum(grads, 0.0), grads)
    pg = np.where(before == bound, np.maximum(pg, 0.0), pg)
    return np.abs(pg).reshape(steps, lanes, k).max(axis=(0, 2))


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


def train_folds(spec: ClassifierSpec, training_sets: list[tuple[object, list[str]]]) -> list:
    """One model per (X, labels) training set, each as if trained alone.
    Sets with the same classes go to the classifier's trainer together:
    logistic regression steps them as one block-diagonal problem, the
    SVM in lockstep."""
    encoded = [_encode_labels(labels) for _, labels in training_sets]
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, (classes, _) in enumerate(encoded):
        groups.setdefault(tuple(classes), []).append(i)
    models: list = [None] * len(training_sets)
    for classes, members in groups.items():
        blocks = [training_sets[i][0] for i in members]
        labels = [encoded[i][1] for i in members]
        trained = CLASSIFIER_KINDS[spec.kind](spec, blocks, labels, list(classes))
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


@dataclass(frozen=True)
class FoldSplit:
    """Which documents each fold of a plan tests and trains on, in corpus
    order; every normalization of the same corpus shares it."""

    fold_of: np.ndarray
    doc_ids: list[str]
    tested: list[list[str]]
    gold_tested: list[list[str]]
    train_labels: list[list[str]]


def fold_split(doc_ids: list[str], gold: dict[str, str], folds: FoldPlan) -> FoldSplit:
    """The split of the documents ``doc_ids`` under ``folds``; ``gold``
    maps each doc id to its label."""
    missing = [doc_id for doc_id in doc_ids if doc_id not in folds.assignments]
    if missing:
        raise EvaluationError(f"fold plan does not cover document ids {missing[:5]}")
    fold_of = [folds.assignments[doc_id] for doc_id in doc_ids]
    if not set(fold_of) <= set(range(folds.k)):
        raise EvaluationError(f"fold plan assigns a fold outside 0..{folds.k - 1}")
    tested = [[i for i, f in zip(doc_ids, fold_of) if f == fold] for fold in range(folds.k)]
    return FoldSplit(
        fold_of=np.array(fold_of, dtype=np.intp),
        doc_ids=list(doc_ids),
        tested=tested,
        gold_tested=[[gold[i] for i in ids] for ids in tested],
        train_labels=[
            [gold[i] for i, f in zip(doc_ids, fold_of) if f != fold] for fold in range(folds.k)
        ],
    )


def fold_features(table: TypeTable, split: FoldSplit) -> list:
    """The (training, test) TF-IDF matrices of each fold of ``split``
    (:func:`table_tfidf`); the table's documents are in the split's
    corpus order. A fold without features fails first, then one that
    trains on a single class, so the features of a corpus are known to
    train."""
    features = table_tfidf(table, split.fold_of, len(split.tested))
    for labels in split.train_labels:
        _encode_labels(labels)
    return features


def cross_validate_features(
    split: FoldSplit, corpora: list[list], specs: list[ClassifierSpec], conditions: list[str]
) -> list[list[EvalRun]]:
    """The run of every spec on every corpus, ``runs[c][s]`` for the
    fold features ``corpora[c]`` (:func:`fold_features`) under the
    condition name ``conditions[c]``. Each spec trains the folds of all
    corpora in one :func:`train_folds` call, so the SVM steps them all
    in lockstep."""
    training_sets = [
        (Xtr, labels)
        for features in corpora
        for (Xtr, _), labels in zip(features, split.train_labels)
    ]
    runs: list[list[EvalRun]] = [[] for _ in corpora]
    for spec in specs:
        models = iter(train_folds(spec, training_sets))
        for features, condition, out in zip(corpora, conditions, runs):
            scores: list[tuple[int, float, float]] = []
            predicted: dict[str, str] = {}
            for fold, (_, Xte) in enumerate(features):
                preds = next(models).predict(Xte)
                gold_te = split.gold_tested[fold]
                scores.append((fold, accuracy(gold_te, preds), macro_f1(gold_te, preds)))
                predicted.update(zip(split.tested[fold], preds))
            out.append(
                EvalRun(
                    classifier=spec.kind,
                    condition=condition,
                    fold_scores=tuple(scores),
                    mean_accuracy=sum(s[1] for s in scores) / len(scores),
                    mean_macro_f1=sum(s[2] for s in scores) / len(scores),
                    per_doc_predictions={i: predicted[i] for i in split.doc_ids},
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
