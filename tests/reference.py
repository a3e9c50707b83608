"""Reference implementations that the tests compare normeval against.

TF-IDF fitted and applied one training set at a time through dicts,
logistic regression and the SVM trained one set at a time, and the
softmax objective with its gradient. They share no helper with the
package, so a change inside one of its helpers cannot hide from the
byte comparisons made against them.
"""

import math

import numpy as np
from scipy import sparse

from normeval import EvaluationError
from normeval.downstream import LinearClassifier


def reference_tfidf_fit(train_docs):
    """``(vocabulary, idf)`` of the training documents: the sorted
    distinct tokens, and idf(t) = ln((1 + N) / (1 + df(t))) + 1."""
    if not train_docs:
        raise EvaluationError("cannot fit TF-IDF on an empty training set")
    df = {}
    for doc in train_docs:
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    n = len(train_docs)
    idf = np.empty(len(vocabulary), dtype=np.float64)
    for token, i in vocabulary.items():
        idf[i] = math.log((1 + n) / (1 + df[token])) + 1.0
    return vocabulary, idf


def reference_tfidf_transform_all(model, docs):
    """One row per document: raw token counts times idf, L2-normalized;
    a document without a token of the vocabulary is an all-zero row."""
    vocabulary, idf = model
    rows = []
    cols = []
    vals = []
    for r, doc in enumerate(docs):
        counts = {}
        for token in doc.tokens:
            j = vocabulary.get(token)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        if not counts:
            continue
        weights = {j: tf * idf[j] for j, tf in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        for j in sorted(weights):
            rows.append(r)
            cols.append(j)
            vals.append(weights[j] / norm)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(docs), len(vocabulary)), dtype=np.float64
    )


def reference_softmax_probs(Wt, X):
    probs = np.asarray(X @ Wt)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def reference_softmax_grad_t(probs, Wt, XT, y_idx, l2_lambda):
    n = probs.shape[0]
    probs[np.arange(n), y_idx] -= 1.0
    grad = np.asarray(XT @ probs)
    grad /= n
    grad += l2_lambda * Wt
    return grad


def reference_softmax_loss_and_grad(W, X, y_idx, l2_lambda):
    """Multinomial softmax objective, mean cross-entropy plus
    (l2/2)||W||^2, and its gradient in W (classes x features)."""
    n = X.shape[0]
    probs = reference_softmax_probs(W.T, X)
    loss = -np.mean(np.log(probs[np.arange(n), y_idx])) + 0.5 * l2_lambda * float(np.sum(W * W))
    return loss, reference_softmax_grad_t(probs, W.T, X.T, y_idx, l2_lambda).T


def reference_train_logistic_regression(spec, X, y_idx, classes):
    Wt = np.zeros((X.shape[1], len(classes)), dtype=np.float64)
    XT = sparse.csr_matrix(X.T)
    for _ in range(spec.epochs):
        probs = reference_softmax_probs(Wt, X)
        grad = reference_softmax_grad_t(probs, Wt, XT, y_idx, spec.l2_lambda)
        grad *= spec.learning_rate
        Wt -= grad
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))


def reference_train_linear_svm(spec, X, y_idx, classes):
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
        if max_pg < 0.1:
            break
    return LinearClassifier(classes, np.ascontiguousarray(Wt.T))
