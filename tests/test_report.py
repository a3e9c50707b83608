"""Report assembly, JSON/Markdown emitters, and the command line."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from normeval import (
    AnldResult,
    CorpusError,
    EmbeddingError,
    EvaluationError,
    HashedNgramProvider,
    HttpServiceProvider,
    IdentityNormalizer,
    IrsResult,
    MappingNormalizer,
    NormalizerError,
    NormalizerReport,
    RunConfig,
    SnowballEnglishNormalizer,
    TokenizerConfig,
    TruncateNormalizer,
    VectorFileProvider,
    build_normalizer,
    build_embedder,
    compression_ratio,
    emit_json,
    emit_markdown,
    irs,
    run_evaluation,
    run_intrinsic,
    safety_gate,
    type_mapping,
    type_table,
)
from normeval import downstream
from normeval.cli import main
from normeval.corpus import TokenMapping, TypeTable, table_of
from normeval.data import mini_corpus_path
from normeval.report import report_json
from reference import (
    load_corpus, make_folds, mapping_items, reference_normalize_corpus, reference_tokenize_corpus,
)
from test_normalizers import NoneStemNormalizer, ShortNormalizer

DATA = Path(__file__).parent / "data"


class TestRunConfig:
    def test_report_echoes_the_whole_config(self):
        config = RunConfig(
            corpus_path="x.tsv",
            normalizers=("identity", "truncate:3"),
            text_col="body",
            label_col="tag",
            delimiter=",",
            has_header=False,
            lowercase=False,
            strip_punct=False,
            embedder="hash:64:1",
            classifiers=("nb", "svm"),
            k=3,
            seed=9,
            anld_weighting="by_type",
            safety_threshold=0.3,
            worst_n=4,
        )
        echoed = json.loads(report_json([], config))["config"]
        expected = {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in config.to_dict().items()
        }
        assert echoed == expected
        assert list(echoed) == [field.name for field in fields(RunConfig)]

    def test_requires_a_normalizer(self):
        with pytest.raises(EvaluationError, match="at least one normalizer"):
            RunConfig(corpus_path="x.tsv", normalizers=())

    def test_rejects_negative_worst_n(self):
        with pytest.raises(EvaluationError, match="worst_n"):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), worst_n=-1)

    def test_rejects_unknown_weighting(self):
        with pytest.raises(EvaluationError, match="weighting"):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), anld_weighting="magic")

    def test_rejects_unknown_classifier(self):
        with pytest.raises(EvaluationError, match="classifier"):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), classifiers=("boost",))

    @pytest.mark.parametrize(
        "classifiers, repeated",
        [
            (("nb", "nb"), "multinomial_nb"),
            (("nb", "multinomial_nb"), "multinomial_nb"),
            (("svm", "lr", "logistic_regression"), "logistic_regression"),
        ],
    )
    def test_rejects_a_repeated_classifier(self, classifiers, repeated):
        message = f"classifier(s) [{repeated!r}] named more than once"
        with pytest.raises(EvaluationError, match=re.escape(message)):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), classifiers=classifiers)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_rejects_k_below_2(self, k):
        with pytest.raises(EvaluationError, match="k must be >= 2"):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), k=k)

    def test_rejects_negative_seed(self):
        with pytest.raises(EvaluationError, match="seed must be >= 0, got -1"):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), seed=-1)

    @pytest.mark.parametrize("threshold", [0.0, -0.2, float("nan"), float("inf")])
    def test_rejects_bad_safety_threshold(self, threshold):
        with pytest.raises(EvaluationError, match="safety_threshold"):
            RunConfig(corpus_path="x.tsv", normalizers=("identity",), safety_threshold=threshold)


class TestBuildNormalizer:
    def test_identity(self):
        assert isinstance(build_normalizer("identity"), IdentityNormalizer)

    def test_snowball(self):
        norm = build_normalizer("snowball-en")
        assert isinstance(norm, SnowballEnglishNormalizer)
        assert norm.normalize_token("running") == "run"

    def test_truncate(self):
        norm = build_normalizer("truncate:3")
        assert isinstance(norm, TruncateNormalizer)
        assert norm.normalize_token("normalization") == "nor"

    def test_truncate_bad_length(self):
        with pytest.raises(NormalizerError, match="integer"):
            build_normalizer("truncate:three")

    def test_mapping_file(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("running\trun\n", encoding="utf-8")
        norm = build_normalizer(f"map:{path}")
        assert isinstance(norm, MappingNormalizer)
        assert norm.normalize_token("running") == "run"
        assert norm.normalize_token("other") == "other"

    def test_external_command_split_shell_style(self):
        norm = build_normalizer("ext:cat '-A'")
        try:
            assert norm.command == ["cat", "-A"]
        finally:
            norm.close()

    def test_external_empty_command(self):
        with pytest.raises(NormalizerError, match="command"):
            build_normalizer("ext:")

    def test_unknown_spec(self):
        with pytest.raises(NormalizerError, match="unknown normalizer spec"):
            build_normalizer("porter9000")


class TestBuildEmbedder:
    def test_hash_defaults(self):
        provider = build_embedder("hash")
        assert isinstance(provider, HashedNgramProvider)
        assert provider.dim == 256 and provider.seed == 0
        provider = build_embedder("hash:64")
        assert provider.dim == 64 and provider.seed == 0

    def test_hash_with_dim_and_seed(self):
        provider = build_embedder("hash:64:7")
        assert provider.dim == 64 and provider.seed == 7

    @pytest.mark.parametrize("spec", ["hash:abc", "hash:64:7:9"])
    def test_hash_bad_spec(self, spec):
        with pytest.raises(EvaluationError, match="bad hash embedder spec"):
            build_embedder(spec)

    def test_vecfile(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 8\na 1 0 0 0 0 0 0 0\n", encoding="utf-8")
        assert isinstance(build_embedder(f"vecfile:{path}"), VectorFileProvider)

    def test_http(self):
        provider = build_embedder("http://127.0.0.1:1/embed")
        assert isinstance(provider, HttpServiceProvider)

    def test_unknown(self):
        with pytest.raises(EvaluationError, match="unknown embedder spec"):
            build_embedder("bert-large")


CORPUS_ROWS = []
for i in range(12):
    CORPUS_ROWS.append(f"the red crimson scarlet flame glows number{i % 4}\twarm")
    CORPUS_ROWS.append(f"the blue azure cobalt ocean waves number{i % 4}\tcool")


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.tsv"
    path.write_text("text\tlabel\n" + "\n".join(CORPUS_ROWS) + "\n", encoding="utf-8")
    return str(path)


def toy_config(corpus_path, **overrides):
    defaults = dict(
        corpus_path=corpus_path,
        normalizers=("identity",),
        embedder="hash:64:0",
        classifiers=("nb",),
        k=3,
        seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def mixed_reports(corpus_path):
    config = toy_config(
        corpus_path, normalizers=("identity", "truncate:2", "map:/nonexistent/f.tsv")
    )
    return config, run_evaluation(config)


class TestRunEvaluation:
    def test_failure_is_isolated_to_its_normalizer(self, mixed_reports):
        _, reports = mixed_reports
        assert [r.failed for r in reports] == [False, False, True]
        assert "map:/nonexistent/f.tsv" == reports[2].normalizer
        assert reports[2].error

    def test_identity_scores(self, mixed_reports):
        _, reports = mixed_reports
        ident = reports[0]
        assert ident.normalizer == "identity"
        assert ident.compression.cr == 1.0
        assert ident.irs_result.irs == 1.0
        assert ident.ses_result.ses == 1.0
        assert ident.ses_result.safe
        assert ident.anld_primary.anld == 0.0
        for delta in ident.deltas:
            assert delta.mpd_accuracy.mpd == 0.0
            assert delta.mpd_accuracy.p_value == 1.0
            assert not delta.mpd_accuracy.significant
            assert delta.mcnemar_p == 1.0

    def test_truncation_distorts(self, mixed_reports):
        _, reports = mixed_reports
        trunc = reports[1]
        assert trunc.compression.cr > 1.0
        assert trunc.anld_primary.anld > 0.2
        assert not trunc.ses_result.safe

    def test_baseline_runs_shared_across_normalizers(self, mixed_reports):
        _, reports = mixed_reports
        assert reports[0].deltas[0].original is reports[1].deltas[0].original

    def test_alias_and_full_name_give_the_same_runs(self, corpus_path):
        (by_alias,) = run_evaluation(
            toy_config(corpus_path, normalizers=("truncate:3",), classifiers=("nb",))
        )
        (by_name,) = run_evaluation(
            toy_config(corpus_path, normalizers=("truncate:3",), classifiers=("multinomial_nb",))
        )
        assert by_alias.deltas[0].classifier == "multinomial_nb"
        assert by_alias.deltas == by_name.deltas

    def test_alternate_weighting_also_reported(self, mixed_reports):
        _, reports = mixed_reports
        assert reports[0].anld_primary.weighting == "by_occurrence"
        assert reports[0].anld_alternate.weighting == "by_type"

    def test_fold_count_respected(self, corpus_path):
        reports = run_evaluation(toy_config(corpus_path, k=4))
        assert len(reports[0].deltas[0].normalized.fold_scores) == 4

    def test_compression_counts_distinct_non_empty_stems(self, corpus_path, tmp_path):
        # CR comes from the token mapping; it must equal the vocabularies
        # of the token streams, where empty stems are dropped
        mapping = tmp_path / "merge.tsv"
        mapping.write_text("red\t\ncrimson\tred\nscarlet\tred\nblue\tazure\n", encoding="utf-8")
        specs = ("identity", f"map:{mapping}", "truncate:2", "snowball-en")
        reports = run_evaluation(toy_config(corpus_path, normalizers=specs, classifiers=()))
        docs = reference_tokenize_corpus(load_corpus(corpus_path), TokenizerConfig())
        for spec, report in zip(specs, reports):
            normalized, _ = reference_normalize_corpus(build_normalizer(spec), docs)
            expected = compression_ratio(
                len({t for d in docs for t in d.tokens}), len({t for d in normalized for t in d.tokens})
            )
            assert report.compression == expected
        assert reports[1].empty_stems == 1

    @pytest.mark.parametrize("bad", [ShortNormalizer, NoneStemNormalizer], ids=["short", "none-stem"])
    @pytest.mark.parametrize("run", [run_evaluation, run_intrinsic])
    def test_wrong_length_normalizer_output_is_its_failure_entry(
        self, run, bad, corpus_path, monkeypatch
    ):
        monkeypatch.setattr(
            "normeval.report.build_normalizer",
            lambda spec: bad() if spec == "bad" else build_normalizer(spec),
        )
        failed, kept = run(toy_config(corpus_path, normalizers=("bad", "identity"), classifiers=()))
        types = len(type_table(row.split("\t")[0] for row in CORPUS_ROWS).types)
        assert failed.error == {
            ShortNormalizer: f"{types - 1} stems and {types} counts for {types} types",
            NoneStemNormalizer: "the stem of 'the' is None, not a str",
        }[bad]
        assert not kept.failed

    def test_no_classifiers_skips_downstream(self, corpus_path):
        reports = run_evaluation(toy_config(corpus_path, classifiers=()))
        assert reports[0].deltas == ()
        assert reports[0].compression.cr == 1.0

    def test_missing_corpus_aborts_run(self, corpus_path):
        with pytest.raises(CorpusError, match="cannot open"):
            run_evaluation(toy_config("/nonexistent/corpus.tsv"))


class CountingProvider(HashedNgramProvider):
    """Hashed embedder that records each call of the functions its
    ``id_embedder`` returns and can fail the first ``failures`` of them."""

    def __init__(self, failures=0):
        super().__init__(dim=64, seed=0)
        self.calls = 0
        self.failures = failures

    def id_embedder(self, vocabulary):
        embed = super().id_embedder(vocabulary)

        def counted(ids, indptr):
            self.calls += 1
            if self.calls <= self.failures:
                raise EmbeddingError("embedding service unavailable")
            return embed(ids, indptr)

        return counted


class TestOriginalEmbeddingsShared:
    NORMALIZERS = ("identity", "truncate:2", "snowball-en")

    def plain_irs(self, corpus_path, spec):
        """IRS of one normalizer through ``irs`` alone, with a fresh provider,
        from the per-document reference normalization."""
        original = reference_tokenize_corpus(load_corpus(corpus_path), TokenizerConfig())
        normalized, (pairs, counts) = reference_normalize_corpus(build_normalizer(spec), original)
        changed = [i for i, (a, b) in enumerate(zip(original, normalized)) if a is not b]
        table = table_of(doc.tokens for doc in original)
        mapping = TokenMapping.of(
            table.types, [pairs[t] for t in table.types], [counts[t] for t in table.types]
        )
        [result] = irs(
            HashedNgramProvider(dim=64, seed=0),
            [doc.doc_id for doc in original],
            table,
            [(mapping, np.array(changed, dtype=np.intp))],
        )
        return result

    def run(self, corpus_path, monkeypatch, provider):
        monkeypatch.setattr("normeval.report.build_embedder", lambda spec: provider)
        config = toy_config(corpus_path, normalizers=self.NORMALIZERS, classifiers=())
        return run_evaluation(config)

    def test_originals_embedded_once(self, corpus_path, monkeypatch):
        provider = CountingProvider()
        reports = self.run(corpus_path, monkeypatch, provider)
        # the originals once, then one block of changed documents for each
        # of truncate:2 and snowball-en; identity changes none
        assert provider.calls == 1 + 2
        for spec, report in zip(self.NORMALIZERS, reports):
            assert not report.failed
            assert report.irs_result == self.plain_irs(corpus_path, spec)

    def test_failed_embedding_is_retried_by_the_next_normalizer(self, corpus_path, monkeypatch):
        provider = CountingProvider(failures=1)
        reports = self.run(corpus_path, monkeypatch, provider)
        assert reports[0].failed
        assert "embedding service unavailable" in reports[0].error
        for spec, report in zip(self.NORMALIZERS[1:], reports[1:]):
            assert not report.failed
            assert report.irs_result == self.plain_irs(corpus_path, spec)
        # the failed call, then the originals once, then one per normalizer
        assert provider.calls == 1 + 1 + 2


class TestUnchangedCorpusReusesBaseline:
    """A normalizer that changes no document takes the baseline's runs
    instead of cross-validating the same documents again."""

    CLASSIFIERS = ("nb", "lr", "svm")

    def run(self, corpus_path, monkeypatch, spec):
        calls = []
        real = downstream.train_folds

        def counting(classifier_spec, training_sets):
            models = real(classifier_spec, training_sets)
            # one model per (fold, classifier)
            calls.extend(classifier_spec.kind for _ in models)
            return models

        monkeypatch.setattr(downstream, "train_folds", counting)
        config = toy_config(corpus_path, normalizers=(spec,), classifiers=self.CLASSIFIERS)
        [report] = run_evaluation(config)
        assert not report.failed
        return report, len(calls)

    @pytest.mark.parametrize("spec", ["identity", "truncate:50", "map"])
    def test_no_op_normalizer_adds_no_training(self, corpus_path, monkeypatch, tmp_path, spec):
        if spec == "map":
            mapping = tmp_path / "absent.tsv"
            mapping.write_text("ember\tfire\nglowing\tglow\n", encoding="utf-8")
            spec = f"map:{mapping}"
        report, calls = self.run(corpus_path, monkeypatch, spec)
        # only the baseline: one model per (fold, classifier)
        assert calls == 3 * len(self.CLASSIFIERS)
        for delta in report.deltas:
            assert delta.normalized.condition == "normalized"
            assert delta.original.condition == "original"
            assert delta.normalized.fold_scores == delta.original.fold_scores
            for result in (delta.mpd_accuracy, delta.mpd_macro_f1):
                assert result.mpd == 0.0 and result.p_value == 1.0
            assert delta.mcnemar_p == 1.0

    def test_one_changed_document_still_cross_validates(self, monkeypatch, tmp_path):
        corpus = tmp_path / "one.tsv"
        rows = [CORPUS_ROWS[0].replace("flame", "ember")] + CORPUS_ROWS[1:]
        corpus.write_text("text\tlabel\n" + "\n".join(rows) + "\n", encoding="utf-8")
        mapping = tmp_path / "ember.tsv"
        mapping.write_text("ember\tflame\n", encoding="utf-8")
        _, calls = self.run(str(corpus), monkeypatch, f"map:{mapping}")
        assert calls == 2 * 3 * len(self.CLASSIFIERS)


class TestFeaturelessTrainingFold:
    """A fold whose training documents have no tokens is one
    EvaluationError naming the fold, whatever the classifier."""

    MESSAGE = "fold 0: the training documents have no tokens, so there are no features"

    @pytest.mark.parametrize("classifier", ["nb", "lr", "svm"])
    def test_in_the_baseline_exits_1(self, classifier, tmp_path, capsys):
        corpus = tmp_path / "punct.tsv"
        corpus.write_text("text\tlabel\n" + "!!!\ta\n!!!\tb\n" * 5, encoding="utf-8")
        code = main(["evaluate", "--corpus", str(corpus), "--normalizer", "identity",
                     "--classifiers", classifier, "--k", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"normeval: error: {self.MESSAGE}\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("classifier", ["nb", "lr", "svm"])
    def test_in_a_normalizer_is_its_failure_entry(self, classifier, tmp_path):
        corpus = tmp_path / "unique.tsv"
        corpus.write_text(
            "text\tlabel\n" + "".join(f"w{i}\t{'ab'[i % 2]}\n" for i in range(10)),
            encoding="utf-8",
        )
        # drop every token of fold 1, so that fold 0 trains on empty documents
        folds = make_folds(load_corpus(str(corpus)), k=2, seed=0)
        docs = reference_tokenize_corpus(load_corpus(str(corpus)), TokenizerConfig())
        mapping = tmp_path / "drop.tsv"
        mapping.write_text(
            "".join(f"{doc.tokens[0]}\t\n" for doc in docs if folds.assignments[doc.doc_id] == 1),
            encoding="utf-8",
        )
        config = toy_config(str(corpus), normalizers=(f"map:{mapping}", "identity"),
                            classifiers=(classifier,), k=2, seed=0)
        dropped, kept = run_evaluation(config)
        assert dropped.error == self.MESSAGE
        assert not kept.failed


class TestOccurrencesCountedOnce:
    def test_one_count_shared_by_every_mapping(self, corpus_path, monkeypatch):
        counted = []
        real = TypeTable.occurrence_counts

        def counting(table):
            counted.append(len(table))
            return real(table)

        mappings = []
        real_mapping = type_mapping

        def recording(*args):
            mapping = real_mapping(*args)
            mappings.append(mapping)
            return mapping

        monkeypatch.setattr(TypeTable, "occurrence_counts", counting)
        monkeypatch.setattr("normeval.report.type_mapping", recording)
        specs = ("identity", "truncate:2", "snowball-en")
        reports = run_evaluation(toy_config(corpus_path, normalizers=specs, classifiers=()))
        assert not any(r.failed for r in reports)
        assert len(counted) == 1 and len(mappings) == len(specs)
        docs = reference_tokenize_corpus(load_corpus(corpus_path), TokenizerConfig())
        for spec, mapping in zip(specs, mappings):
            pairs, counts = reference_normalize_corpus(build_normalizer(spec), docs)[1]
            assert mapping_items(mapping) == (list(pairs.items()), list(counts.items()))
            assert mapping.counts is mappings[0].counts


def hand_built_report(irs=0.91):
    """A report built by hand from an external table's figures."""
    return NormalizerReport(
        normalizer="external-table",
        compression=compression_ratio(161, 100),
        irs_result=IrsResult(irs=irs, scores=np.zeros(0), doc_ids=[], zero_vector_docs=0),
        ses_result=safety_gate(irs=0.91, cr=1.61, anld=0.05),
        anld_primary=AnldResult(
            anld=0.05, pair_count=1, over_unit_pairs=0, worst_pairs=(), weighting="by_occurrence"
        ),
        anld_alternate=AnldResult(
            anld=0.05, pair_count=1, over_unit_pairs=0, worst_pairs=(), weighting="by_type"
        ),
        deltas=(),
    )


class TestEmitJson:
    def test_empty_report_list_bytes(self, tmp_path):
        path = tmp_path / "out.json"
        emit_json([], str(path))
        assert path.read_bytes() == b'{"schema":"1","reports":[]}'

    def test_identity_values_and_verdict(self, mixed_reports, tmp_path):
        config, reports = mixed_reports
        path = tmp_path / "out.json"
        emit_json(reports, str(path), config)
        text = path.read_text(encoding="utf-8")
        assert '"ses":1.0' in text
        assert '"verdict":"safe"' in text
        assert '"verdict":"unsafe"' in text
        payload = json.loads(text)
        assert payload["schema"] == "1"
        assert payload["config"]["seed"] == 0
        assert payload["config"]["normalizers"][1] == "truncate:2"
        ident = payload["reports"][0]
        assert ident["compression"] == {"vocab_before": ident["compression"]["vocab_before"],
                                        "vocab_after": ident["compression"]["vocab_before"],
                                        "cr": 1.0}
        assert ident["irs"]["irs"] == 1.0
        assert ident["anld"]["anld"] == 0.0
        assert ident["downstream"][0]["mcnemar_p"] == 1.0
        assert ident["warnings"]["ses_consistency_flag"] is False

    def test_failed_entry_shape(self, mixed_reports, tmp_path):
        config, reports = mixed_reports
        path = tmp_path / "out.json"
        emit_json(reports, str(path), config)
        failed = json.loads(path.read_text())["reports"][2]
        assert set(failed) == {"normalizer", "error"}

    def test_byte_identical_across_runs(self, corpus_path, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        config1 = toy_config(corpus_path, normalizers=("identity", "truncate:2"))
        config2 = toy_config(corpus_path, normalizers=("identity", "truncate:2"))
        emit_json(run_evaluation(config1), str(p1), config1)
        emit_json(run_evaluation(config2), str(p2), config2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(EvaluationError, match="cannot write"):
            emit_json([], str(tmp_path / "no" / "dir" / "out.json"))

    def test_nan_never_reaches_the_json(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(EvaluationError, match="non-finite"):
            emit_json([hand_built_report(irs=float("nan"))], str(path))
        assert not path.exists()

    def test_nan_report_exits_one(self, corpus_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "normeval.cli.run_evaluation", lambda config: [hand_built_report(irs=float("nan"))]
        )
        assert main(["evaluate", "--corpus", corpus_path, "--normalizer", "identity"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


class TestGoldenReport:
    """The reports of the reference run (the bundled corpus; identity,
    snowball-en and truncate:3; nb, lr and svm; k=5, seed 42) must not
    change by a byte. The files in tests/data were written by emit_json
    and emit_markdown without a config, whose echoed corpus path would
    differ between checkouts, under Python 3.11.7, numpy 2.4.6 and
    scipy 1.17.1; other numeric library versions may legitimately move
    the last digits of the floats."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = RunConfig(
            corpus_path=mini_corpus_path(),
            normalizers=("identity", "snowball-en", "truncate:3"),
            classifiers=("nb", "lr", "svm"),
            k=5,
            seed=42,
        )
        return run_evaluation(config)

    def test_json_bytes(self, reports, tmp_path):
        path = tmp_path / "report.json"
        emit_json(reports, str(path))
        assert path.read_bytes() == (DATA / "mini_evaluate_report.json").read_bytes()

    def test_markdown_bytes(self, reports, tmp_path):
        path = tmp_path / "report.md"
        emit_markdown(reports, str(path))
        assert path.read_bytes() == (DATA / "mini_evaluate_report.md").read_bytes()


class TestGoldenReportThreeFolds:
    """The reports of a second run on the bundled corpus, with another
    fold count, seed, embedder and classifier order (identity and
    truncate:2; lr, svm and nb; hash:8:3; k=3, seed 7), must not change
    by a byte either. Written like the reference run's files."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = RunConfig(
            corpus_path=mini_corpus_path(),
            normalizers=("identity", "truncate:2"),
            classifiers=("lr", "svm", "nb"),
            embedder="hash:8:3",
            k=3,
            seed=7,
        )
        return run_evaluation(config)

    def test_json_bytes(self, reports, tmp_path):
        path = tmp_path / "report.json"
        emit_json(reports, str(path))
        assert path.read_bytes() == (DATA / "mini_evaluate_k3_report.json").read_bytes()

    def test_markdown_bytes(self, reports, tmp_path):
        path = tmp_path / "report.md"
        emit_markdown(reports, str(path))
        assert path.read_bytes() == (DATA / "mini_evaluate_k3_report.md").read_bytes()


class TestGoldenIntrinsic:
    """The standard output of `metrics` (under both ANLD weightings) and
    `anld-pairs` on the bundled corpus with identity, snowball-en and
    truncate:3 must not change by a byte."""

    NORMALIZERS = ["--normalizer", "identity", "--normalizer", "snowball-en",
                   "--normalizer", "truncate:3"]

    @pytest.mark.parametrize("weighting", ["occurrence", "type"])
    def test_metrics_stdout(self, weighting, capsys):
        code = main(["metrics", "--corpus", mini_corpus_path(), *self.NORMALIZERS,
                     "--anld-weighting", weighting])
        assert code == 0
        golden = (DATA / f"mini_metrics_{weighting}.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_anld_pairs_stdout(self, capsys):
        code = main(["anld-pairs", "--corpus", mini_corpus_path(), *self.NORMALIZERS,
                     "--worst-n", "50"])
        assert code == 0
        assert capsys.readouterr().out == (DATA / "mini_anld_pairs.tsv").read_text(encoding="utf-8")


class TestEmitMarkdown:
    def test_summary_rows_and_notes(self, mixed_reports, tmp_path):
        config, reports = mixed_reports
        path = tmp_path / "out.md"
        emit_markdown(reports, str(path), config)
        text = path.read_text(encoding="utf-8")
        assert "| identity | 1.00 | 1.00 | 1.00 (safe) | 0.00 |" in text
        assert "(UNSAFE)" in text
        assert "## Worst over-stemming pairs" in text
        assert "## Failed normalizers" in text
        assert "map:/nonexistent/f.tsv" in text
        assert "seed: 0" in text

    def test_zero_vector_documents_noted(self, tmp_path):
        irs_result = IrsResult(irs=0.91, scores=np.zeros(0), doc_ids=[], zero_vector_docs=2)
        path = tmp_path / "out.md"
        emit_markdown([replace(hand_built_report(), irs_result=irs_result)], str(path))
        notes = path.read_text(encoding="utf-8").split("## Notes\n\n")[1].splitlines()
        assert notes[0] == (
            "- `external-table`: 2 document(s) embedded to a zero vector and scored 0 in IRS."
        )

    def test_empty_stem_rendered_as_placeholder(self, corpus_path, tmp_path):
        mapping = tmp_path / "drop.tsv"
        mapping.write_text("red\t\nblue\t\n", encoding="utf-8")
        config = toy_config(corpus_path, normalizers=(f"map:{mapping}",), classifiers=())
        reports = run_evaluation(config)
        assert reports[0].empty_stems == 2
        path = tmp_path / "out.md"
        emit_markdown(reports, str(path), config)
        text = path.read_text(encoding="utf-8")
        assert "(empty)" in text
        assert "normalized to empty stems" in text

    def test_pipe_in_a_cell_is_escaped(self, corpus_path, tmp_path):
        mapping = tmp_path / "a|b.tsv"
        mapping.write_text("red\tr|d\n", encoding="utf-8")
        config = toy_config(corpus_path, normalizers=(f"map:{mapping}",))
        reports = run_evaluation(config)
        path = tmp_path / "out.md"
        emit_markdown(reports, str(path), config)
        text = path.read_text(encoding="utf-8")
        assert f"| map:{tmp_path}/a\\|b.tsv | multinomial_nb |" in text
        assert "| red | r\\|d | 0.33 |" in text
        # every row of a table has as many cells as its separator line
        tables = re.findall(r"(?m)(?:^\|.*\n)+", text)
        assert len(tables) == 3
        for table in tables:
            assert len({len(re.split(r"(?<!\\)\|", row)) for row in table.splitlines()}) == 1


class TestCli:
    def test_evaluate_stdout_json(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--classifiers", "nb",
                "--k", "3",
                "--seed", "0",
                "--embedder", "hash:64:0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "1"
        assert payload["reports"][0]["verdict"] == "safe"

    def test_evaluate_writes_files(self, corpus_path, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        out_md = tmp_path / "r.md"
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--normalizer", "truncate:2",
                "--classifiers", "nb",
                "--k", "3",
                "--seed", "0",
                "--embedder", "hash:64:0",
                "--out-json", str(out_json),
                "--out-md", str(out_md),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_json.read_text())["reports"][1]["verdict"] == "unsafe"
        assert out_md.read_text().startswith("# Normalizer evaluation")

    def test_missing_corpus_exits_1(self, capsys):
        code = main(
            ["evaluate", "--corpus", "/nonexistent.tsv", "--normalizer", "identity"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_classifier_exits_1(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--classifiers", "xgboost",
            ]
        )
        assert code == 1
        assert "unknown classifier" in capsys.readouterr().err

    def test_repeated_classifier_exits_1(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--classifiers", "nb,multinomial_nb",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "normeval: error: classifier(s) ['multinomial_nb'] named more than once "
            "in ['nb', 'multinomial_nb']\n"
        )

    def test_malformed_http_embedder_exits_1(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--embedder", "http://[::1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "normeval: error: bad embedding service URL 'http://[::1': Invalid IPv6 URL\n"
        )

    def test_negative_seed_exits_1(self, corpus_path, capsys):
        code = main(
            ["evaluate", "--corpus", corpus_path, "--normalizer", "identity", "--seed", "-1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "normeval: error: seed must be >= 0, got -1\n"

    def test_out_of_range_hash_seed_exits_1(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--embedder", "hash:256:99999999999999999999",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("normeval: error: ")
        assert "seed" in captured.err
        assert "Traceback" not in captured.err

    def test_usage_error_exits_1(self, corpus_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["evaluate", "--corpus", corpus_path])
        assert exc_info.value.code == 1

    @pytest.mark.parametrize("command", ["evaluate", "metrics", "anld-pairs"])
    def test_negative_worst_n_exits_1(self, corpus_path, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--corpus", corpus_path, "--normalizer", "identity", "--worst-n", "-1"])
        assert exc_info.value.code == 1
        assert "--worst-n must be >= 0" in capsys.readouterr().err

    def test_all_normalizers_failed_exits_2(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "map:/nonexistent/a.tsv",
                "--normalizer", "map:/nonexistent/b.tsv",
                "--classifiers", "nb",
                "--k", "3",
                "--embedder", "hash:64:0",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "failed" in err

    def test_one_surviving_normalizer_exits_0(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "map:/nonexistent/a.tsv",
                "--normalizer", "identity",
                "--classifiers", "nb",
                "--k", "3",
                "--embedder", "hash:64:0",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_bad_embedder_spec_exits_1(self, corpus_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--normalizer", "identity",
                "--embedder", "bert",
                "--classifiers", "nb",
            ]
        )
        assert code == 1
        assert "unknown embedder" in capsys.readouterr().err

    def test_metrics_subcommand(self, corpus_path, capsys):
        code = main(
            [
                "metrics",
                "--corpus", corpus_path,
                "--normalizer", "truncate:3",
                "--anld-weighting", "type",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"][0]
        assert report["compression"]["cr"] > 1.0
        assert report["anld"]["weighting"] == "by_type"
        assert "downstream" not in report

    def test_metrics_unwritable_out_json_exits_1(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["metrics", "--corpus", corpus_path, "--normalizer", "identity",
                     "--out-json", str(out)])
        assert code == 1
        assert "normeval: error: cannot write JSON report" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_writes_out_json(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["metrics", "--corpus", corpus_path, "--normalizer", "identity",
                     "--out-json", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["reports"][0]["compression"]["cr"] == 1.0

    def test_k_below_2_exits_1(self, corpus_path, capsys):
        code = main(["evaluate", "--corpus", corpus_path, "--normalizer", "identity",
                     "--classifiers", "nb", "--k", "1", "--embedder", "hash:64:0"])
        assert code == 1
        assert "normeval: error: k must be >= 2" in capsys.readouterr().err

    def test_zero_safety_threshold_exits_1(self, corpus_path, capsys):
        code = main(["evaluate", "--corpus", corpus_path, "--normalizer", "identity",
                     "--classifiers", "", "--safety-threshold", "0", "--embedder", "hash:64:0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "normeval: error: safety_threshold" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("header", ["0 -1", "0 0", "1 0\nfoo"])
    def test_vector_file_without_a_dimension_exits_1(self, corpus_path, tmp_path, capsys, header):
        vectors = tmp_path / "v.txt"
        vectors.write_text(header + "\n", encoding="utf-8")
        code = main(["evaluate", "--corpus", corpus_path, "--normalizer", "truncate:3",
                     "--classifiers", "", "--embedder", f"vecfile:{vectors}"])
        assert code == 1
        captured = capsys.readouterr()
        assert "normeval: error:" in captured.err and "dimension >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["metrics", "anld-pairs"])
    def test_intrinsic_failure_is_reported_and_isolated(self, corpus_path, command, capsys):
        code = main([command, "--corpus", corpus_path, "--normalizer", "map:/nonexistent/m.tsv",
                     "--normalizer", "truncate:3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "normeval: map:/nonexistent/m.tsv failed: cannot open mapping file" in captured.err
        assert "truncate-3" in captured.out

    def test_text_col_beyond_header_exits_1(self, capsys):
        code = main(["metrics", "--corpus", mini_corpus_path(), "--normalizer", "identity",
                     "--text-col", "7"])
        assert code == 1
        assert "normeval: error: text column index 7 is out of range" in capsys.readouterr().err

    def test_row_wider_than_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.tsv"
        path.write_text("text\tlabel\nhi there\tneg\nhello\tworld\tpos\n", encoding="utf-8")
        code = main(["metrics", "--corpus", str(path), "--normalizer", "identity"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "normeval: error: line 3: expected 2 fields, got 3\n"

    @pytest.mark.parametrize("text_col", ["label", "1"])
    @pytest.mark.parametrize("command", ["evaluate", "metrics", "anld-pairs"])
    def test_text_col_equal_to_label_col_exits_1(self, command, text_col, capsys):
        code = main([command, "--corpus", mini_corpus_path(), "--normalizer", "identity",
                     "--text-col", text_col, "--label-col", "label"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"normeval: error: text column '{text_col}' and label column 'label' "
            "are the same column (index 1)\n"
        )

    @pytest.mark.parametrize("command", ["metrics", "anld-pairs"])
    def test_intrinsic_all_failed_exits_2(self, corpus_path, command, capsys):
        code = main([command, "--corpus", corpus_path, "--normalizer", "map:/nonexistent/m.tsv"])
        assert code == 2
        assert "failed" in capsys.readouterr().err

    def test_anld_pairs_subcommand(self, corpus_path, capsys):
        code = main(
            ["anld-pairs", "--corpus", corpus_path, "--normalizer", "truncate:3", "--worst-n", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 5
        for line in lines:
            name, original, stem, distance = line.split("\t")
            # successful entries report under the display name
            assert name == "truncate-3"
            assert original.startswith(stem)
            assert float(distance) >= 0.0


# the options the README's CLI section lists for each subcommand
SHARED_OPTIONS = [
    "--corpus", "--text-col", "--label-col", "--delimiter", "--no-header", "--no-lowercase",
    "--no-strip-punct", "--normalizer", "--anld-weighting", "--worst-n",
]
README_OPTIONS = {
    "evaluate": SHARED_OPTIONS + [
        "--out-json", "--embedder", "--classifiers", "--k", "--seed", "--safety-threshold",
        "--out-md",
    ],
    "metrics": SHARED_OPTIONS + ["--out-json"],
    "anld-pairs": SHARED_OPTIONS,
}


class TestCliConfig:
    """Each option sets the RunConfig field of its name, and an option
    left out takes RunConfig's default."""

    def parsed_config(self, monkeypatch, capsys, argv):
        seen = []
        runner = "run_evaluation" if argv[0] == "evaluate" else "run_intrinsic"
        monkeypatch.setattr(f"normeval.cli.{runner}", lambda config: seen.append(config) or [])
        main(argv)
        capsys.readouterr()
        (config,) = seen
        return config

    @pytest.mark.parametrize("command", ["evaluate", "metrics", "anld-pairs"])
    def test_options_left_out_take_the_run_configs_defaults(self, command, monkeypatch, capsys):
        config = self.parsed_config(
            monkeypatch, capsys, [command, "--corpus", "c.tsv", "--normalizer", "identity"]
        )
        expected = RunConfig(corpus_path="c.tsv", normalizers=("identity",))
        if command == "evaluate":
            # the CLI's default names the classifiers by their short names
            expected = replace(expected, classifiers=("nb", "lr", "svm"))
        for field in fields(RunConfig):
            assert getattr(config, field.name) == getattr(expected, field.name), field.name
            assert type(getattr(config, field.name)) is type(getattr(expected, field.name))

    def test_every_option_sets_its_field(self, monkeypatch, capsys):
        config = self.parsed_config(
            monkeypatch,
            capsys,
            [
                "evaluate",
                "--corpus", "c.tsv",
                "--normalizer", "identity",
                "--normalizer", "truncate:3",
                "--text-col", "body",
                "--label-col", "tag",
                "--delimiter", "comma",
                "--no-header",
                "--no-lowercase",
                "--no-strip-punct",
                "--embedder", "hash:64:1",
                "--classifiers", "nb,,svm",
                "--k", "3",
                "--seed", "9",
                "--anld-weighting", "type",
                "--safety-threshold", "0.3",
                "--worst-n", "4",
            ],
        )
        assert config == RunConfig(
            corpus_path="c.tsv",
            normalizers=("identity", "truncate:3"),
            text_col="body",
            label_col="tag",
            delimiter=",",
            has_header=False,
            lowercase=False,
            strip_punct=False,
            embedder="hash:64:1",
            classifiers=("nb", "svm"),
            k=3,
            seed=9,
            anld_weighting="by_type",
            safety_threshold=0.3,
            worst_n=4,
        )

    @pytest.mark.parametrize("command", sorted(README_OPTIONS))
    def test_help_names_every_option_the_readme_lists(self, command, capsys):
        cli_section = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cli_section = cli_section.split("\n## CLI\n")[1].split("\n## ")[0]
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for option in README_OPTIONS[command]:
            assert f"`{option}" in cli_section, option
            assert re.search(rf"{option}\b", out), option
