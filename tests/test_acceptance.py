"""Acceptance suite: ten release criteria, one test per criterion.

Each test name states its criterion, so `pytest -v` prints one pass/fail
line per criterion. Tolerances and runtime budgets are asserted inside
the tests themselves.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import sparse

from normeval import (
    HashedNgramProvider,
    IdentityNormalizer,
    SnowballEnglishNormalizer,
    TokenMapping,
    TruncateNormalizer,
    VectorFileProvider,
    anld,
    compression_ratio,
    cross_validate_features,
    fold_features,
    fold_split,
    irs,
    levenshtein,
    make_classifier_spec,
    mcnemar,
    mpd,
    paired_t_pvalue,
    ses,
    ses_consistency_ok,
    train_folds,
    type_mapping,
    type_table,
)
from normeval.corpus import table_of
from normeval.data import mini_corpus_path
from reference import (
    Corpus,
    Doc,
    Document,
    load_corpus,
    make_folds,
    reference_softmax_loss_and_grad,
    reference_tfidf_fit,
    reference_tfidf_transform_all,
)


def test_criterion_01_ses_arithmetic():
    value = ses(0.80, 1.64)
    assert abs(value - 1.312) < 1e-12
    assert f"{value:.2f}" == "1.31"
    value = ses(0.88, 1.90)
    assert abs(value - 1.672) < 1e-12
    assert f"{value:.2f}" == "1.67"


def test_criterion_02_consistency_flag_fires_on_quoted_row():
    # published-style row: CR 1.61, IRS 0.91, quoted SES 1.672; the
    # product is 1.4651, so the flag must fire
    assert not ses_consistency_ok(cr=1.61, irs=0.91, reported_ses=1.672)
    assert abs(1.672 - 1.61 * 0.91) > 0.005
    # flag rule is exactly |ses - cr*irs| > 0.005
    assert ses_consistency_ok(cr=1.0, irs=1.0, reported_ses=1.005)
    assert not ses_consistency_ok(cr=1.0, irs=1.0, reported_ses=1.0051)


def test_criterion_03_compression_ratio_arithmetic():
    assert f"{compression_ratio(2175, 1555).cr:.2f}" == "1.40"
    assert f"{compression_ratio(2956, 2227).cr:.2f}" == "1.33"


def test_criterion_04_levenshtein_exhaustive_oracle():
    """Every pair of strings of length 0..5 over a 3-letter alphabet,
    checked against breadth-first search over the explicit edit graph.

    Any optimal edit script can be reordered to substitutions, then
    deletions, then insertions, so all intermediate strings stay within
    length 5 over the same alphabet and graph distance equals edit
    distance on this closed universe.
    """
    started = time.monotonic()
    alphabet, max_len = "abc", 5
    universe = [
        "".join(chars)
        for n in range(max_len + 1)
        for chars in itertools.product(alphabet, repeat=n)
    ]
    assert len(universe) == 364

    def neighbors(s):
        out = set()
        for i in range(len(s)):
            out.add(s[:i] + s[i + 1 :])
            for c in alphabet:
                if c != s[i]:
                    out.add(s[:i] + c + s[i + 1 :])
        if len(s) < max_len:
            for i in range(len(s) + 1):
                for c in alphabet:
                    out.add(s[:i] + c + s[i:])
        return out

    adjacency = {s: sorted(neighbors(s)) for s in universe}
    for a in universe:
        dist = {a: 0}
        frontier = [a]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in adjacency[node]:
                    if nb not in dist:
                        dist[nb] = dist[node] + 1
                        nxt.append(nb)
            frontier = nxt
        for b in universe:
            assert levenshtein(a, b) == dist[b], (a, b)
    assert time.monotonic() - started < 10.0


def test_criterion_05_anld_identity_and_overstemming_order():
    started = time.monotonic()
    corpus = load_corpus(mini_corpus_path())
    assert len(corpus) >= 200
    table = type_table(doc.text for doc in corpus.documents)
    counts = table.occurrence_counts()

    ident_map = type_mapping(IdentityNormalizer(), table.types, counts)
    assert anld(ident_map).anld == 0.0

    snow_map = type_mapping(SnowballEnglishNormalizer(), table.types, counts)
    trunc_map = type_mapping(TruncateNormalizer(3), table.types, counts)
    anld_snowball = anld(snow_map).anld
    anld_truncate = anld(trunc_map).anld
    # blunt truncation distorts more than a rule-based stemmer, which
    # distorts more than not stemming at all
    assert anld_truncate > anld_snowball > 0.0
    assert time.monotonic() - started < 5.0


def test_criterion_06_irs_identity_orthogonal_and_http(tmp_path):
    from test_embeddings import EmbeddingHandler  # reuse the mock service
    import threading
    from http.server import ThreadingHTTPServer

    from normeval import HttpServiceProvider

    # identity on the bundled corpus scores exactly 1.0
    corpus = load_corpus(mini_corpus_path())
    table = type_table(doc.text for doc in corpus.documents)
    identity_map = type_mapping(IdentityNormalizer(), table.types, table.occurrence_counts())
    changed = table.changed(identity_map)
    provider = HashedNgramProvider(dim=256, seed=0)
    doc_ids = [doc.id for doc in corpus.documents]
    [result] = irs(provider, doc_ids, table, [(identity_map, np.flatnonzero(changed))])
    assert result.irs == 1.0

    # two-doc vector-file case: doc1 untouched, doc2 fully replaced by a
    # token with an orthogonal vector -> (1.0 + 0.0) / 2
    vec_path = tmp_path / "orth.txt"
    vec_path.write_text("3 2\nkeep 1 0\nnorth 0 1\neast 1 0\n", encoding="utf-8")
    provider = VectorFileProvider(str(vec_path))
    original = table_of([["keep"], ["north"]])
    mapping = TokenMapping.of(original.types, ["keep", "east"], [1, 1])
    rows = np.flatnonzero(original.changed(mapping))
    [result] = irs(provider, ["d1", "d2"], original, [(mapping, rows)])
    assert abs(result.irs - 0.5) < 1e-9

    # same construction through the HTTP provider with fixed vectors
    table = {"keep": [1.0, 1.0], "north": [3.0, 0.0], "east": [0.0, 5.0]}
    server = ThreadingHTTPServer(("127.0.0.1", 0), EmbeddingHandler)
    server.lock = threading.Lock()
    server.batches = []
    server.respond = lambda texts: (200, {"vectors": [table[t] for t in texts]})
    # a short poll interval lets shutdown() return promptly
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/embed"
        http = HttpServiceProvider(url)
        [http_result] = irs(http, ["d1", "d2"], original, [(mapping, rows)])
        assert abs(http_result.irs - 0.5) < 1e-9
    finally:
        server.shutdown()
        server.server_close()


def test_criterion_07_mpd_null_and_delta_arithmetic():
    from test_downstream import run_with_scores  # one-fold runs: a mean is its score
    corpus = load_corpus(mini_corpus_path())
    folds = make_folds(corpus, k=5, seed=42)
    table = type_table(doc.text for doc in corpus.documents)
    gold = {doc.id: doc.label for doc in corpus.documents}
    split = fold_split([doc.id for doc in corpus.documents], gold, folds)
    for kind in ("multinomial_nb", "logistic_regression", "linear_svm"):
        spec = make_classifier_spec(kind, seed=42)
        [[baseline]] = cross_validate_features(split, [fold_features(table, split)], [spec], ["original"])
        identity_map = type_mapping(IdentityNormalizer(), table.types, table.occurrence_counts())
        identity_table, _ = table.relabel(identity_map)
        [[identity]] = cross_validate_features(
            split, [fold_features(identity_table, split)], [spec], ["normalized"]
        )
        for metric in ("accuracy", "macro_f1"):
            result = mpd(identity, baseline, metric)
            assert result.mpd == 0.0, kind
            assert result.p_value == 1.0, kind
            assert not result.significant
        assert mcnemar(identity.per_doc_predictions, baseline.per_doc_predictions, gold) == 1.0

    delta = mpd(
        run_with_scores("multinomial_nb", [69.59]),
        run_with_scores("multinomial_nb", [68.21], condition="original"),
    ).mpd
    assert abs(delta - 1.38) < 1e-12
    assert f"{delta:+.2f}" == "+1.38"


def test_criterion_08_significance_machinery():
    gold, pa, pb = {}, {}, {}
    for i in range(5):  # system a right, system b wrong, 5 times
        gold[f"d{i}"], pa[f"d{i}"], pb[f"d{i}"] = "x", "x", "y"
    for i in range(5, 15):
        gold[f"d{i}"], pa[f"d{i}"], pb[f"d{i}"] = "x", "x", "x"
    assert abs(mcnemar(pa, pb, gold) - 0.0625) < 1e-9
    assert mcnemar(pa, pa, gold) == 1.0

    assert paired_t_pvalue([0.0, 0.0, 0.0, 0.0, 0.0]) == 1.0
    assert paired_t_pvalue([0.25, 0.25, 0.25, 0.25, 0.25]) == 0.0


def test_criterion_09_classifier_sanity():
    # constructed separable 3-class corpus: 100% training accuracy
    docs, labels = [], []
    vocab = {"ruby": "gems", "opal": "gems", "pine": "trees", "oak": "trees",
             "heron": "birds", "crane": "birds"}
    i = 0
    for word, label in vocab.items():
        for _ in range(5):
            docs.append(Doc(doc_id=f"t{i}", tokens=(word, f"pad{i % 3}")))
            labels.append(label)
            i += 1
    model = reference_tfidf_fit(docs)
    X = reference_tfidf_transform_all(model, docs)
    for kind in ("multinomial_nb", "logistic_regression", "linear_svm"):
        clf = train_folds(make_classifier_spec(kind, seed=0), [(X, labels)])[0]
        assert clf.predict(X) == labels, kind

    # label-shuffled bundled corpus: 5-fold mean accuracy within 3
    # binomial standard errors of chance (balanced 3-class, p = 1/3)
    corpus = load_corpus(mini_corpus_path())
    gold_labels = [d.label for d in corpus.documents]
    rng = np.random.default_rng(7)
    shuffled = [gold_labels[j] for j in rng.permutation(len(gold_labels))]
    shuffled_corpus = Corpus(
        documents=tuple(
            Document(id=d.id, text=d.text, label=lab)
            for d, lab in zip(corpus.documents, shuffled)
        ),
        labels=frozenset(shuffled),
    )
    folds = make_folds(shuffled_corpus, k=5, seed=42)
    chance = 1.0 / 3.0
    se = math.sqrt(chance * (1 - chance) / len(shuffled_corpus))
    split = fold_split(
        [d.id for d in shuffled_corpus.documents],
        {d.id: d.label for d in shuffled_corpus.documents},
        folds,
    )
    features = fold_features(type_table(d.text for d in shuffled_corpus.documents), split)
    for kind in ("multinomial_nb", "logistic_regression", "linear_svm"):
        [[run]] = cross_validate_features(
            split, [features], [make_classifier_spec(kind, seed=42)], ["original"]
        )
        assert abs(run.mean_accuracy - chance) <= 3 * se, (kind, run.mean_accuracy)

    # analytic softmax gradient vs central finite differences
    rng = np.random.default_rng(11)
    X = sparse.csr_matrix(rng.random((5, 4)))
    y_idx = np.array([0, 1, 2, 0, 1])
    W = rng.normal(size=(3, 4))
    _, grad = reference_softmax_loss_and_grad(W, X, y_idx, l2_lambda=0.01)
    h = 1e-6
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            lp, _ = reference_softmax_loss_and_grad(Wp, X, y_idx, 0.01)
            lm, _ = reference_softmax_loss_and_grad(Wm, X, y_idx, 0.01)
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(grad[i, j]), abs(numeric), 1e-8)
            assert abs(grad[i, j] - numeric) / denom < 1e-5


def test_criterion_10_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    out = [tmp_path / "run1.json", tmp_path / "run2.json"]
    argv = [
        sys.executable,
        "-m",
        "normeval.cli",
        "evaluate",
        "--corpus", mini_corpus_path(),
        "--normalizer", "identity",
        "--normalizer", "snowball-en",
        "--normalizer", "truncate:3",
        "--classifiers", "nb,lr,svm",
        "--k", "5",
        "--seed", "42",
    ]
    for path in out:
        proc = subprocess.run(
            argv + ["--out-json", str(path)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    first, second = out[0].read_bytes(), out[1].read_bytes()
    assert first == second
    assert time.monotonic() - started < 60.0

    payload = json.loads(first)
    assert payload["schema"] == "1"
    assert [r["normalizer"] for r in payload["reports"]] == [
        "identity", "snowball-en", "truncate-3",
    ]
    for report in payload["reports"]:
        assert len(report["downstream"]) == 3
