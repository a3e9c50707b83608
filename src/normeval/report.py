"""Evaluation orchestration and report emission.

run_evaluation ties the pieces together: normalize, score the intrinsic
metrics, compute IRS, apply the safety gate, and measure
downstream classifier deltas against a shared un-normalized baseline.
run_intrinsic scores the intrinsic metrics only. Both load the corpus
into one type table and run each normalizer through the same loop.
Reports serialize to JSON (machine, full precision) and Markdown
(human, rounded), one row group per normalizer.
"""

from __future__ import annotations

import json
import math
import shlex
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import CorpusRows, TokenizerConfig, TokenMapping, TypeTable, plan_folds, type_table
from .downstream import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    EvalRun,
    MpdResult,
    cross_validate_features,
    fold_features,
    fold_split,
    make_classifier_spec,
    mcnemar,
    mpd,
)
from .embeddings import (
    EmbeddingProvider,
    HashedNgramProvider,
    HttpServiceProvider,
    IrsResult,
    VectorFileProvider,
    irs,
)
from .errors import EmbeddingError, EvaluationError, NormEvalError, NormalizerError
from .metrics import (
    WEIGHTINGS,
    AnldResult,
    CompressionResult,
    anld,
    anld_with_alternate,
    compression_ratio,
)
from .normalizers import (
    ExternalNormalizer,
    IdentityNormalizer,
    MappingNormalizer,
    Normalizer,
    SnowballEnglishNormalizer,
    TruncateNormalizer,
    type_mapping,
)
from .ses import DEFAULT_ANLD_THRESHOLD, SesResult, safety_gate

# the short names of the classifier kinds; a kind's own name names it too
CLASSIFIER_ALIASES = {"nb": "multinomial_nb", "lr": "logistic_regression", "svm": "linear_svm"}


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of one evaluation run."""

    corpus_path: str
    normalizers: tuple[str, ...]
    text_col: str = "text"
    label_col: str = "label"
    delimiter: str = "\t"
    has_header: bool = True
    lowercase: bool = True
    strip_punct: bool = True
    embedder: str = "hash:256:0"
    classifiers: tuple[str, ...] = tuple(CLASSIFIER_KINDS)
    k: int = 5
    seed: int = 42
    anld_weighting: str = WEIGHTINGS[0]
    safety_threshold: float = DEFAULT_ANLD_THRESHOLD
    worst_n: int = 20

    def __post_init__(self):
        if not self.normalizers:
            raise EvaluationError("config needs at least one normalizer")
        if self.anld_weighting not in WEIGHTINGS:
            raise EvaluationError(f"unknown anld weighting {self.anld_weighting!r}")
        if self.worst_n < 0:
            raise EvaluationError(f"worst_n must be >= 0, got {self.worst_n}")
        if self.k < 2:
            raise EvaluationError(f"k must be >= 2, got {self.k}")
        if self.seed < 0:
            raise EvaluationError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.safety_threshold) or self.safety_threshold <= 0.0:
            raise EvaluationError(
                f"safety_threshold must be finite and > 0, got {self.safety_threshold}"
            )
        kinds = [CLASSIFIER_ALIASES.get(c, c) for c in self.classifiers]
        unknown = [c for c, kind in zip(self.classifiers, kinds) if kind not in CLASSIFIER_KINDS]
        if unknown:
            raise EvaluationError(f"unknown classifier name(s) {unknown}")
        repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
        if repeated:
            raise EvaluationError(
                f"classifier(s) {repeated} named more than once in {list(self.classifiers)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClassifierDelta:
    classifier: str
    original: EvalRun
    normalized: EvalRun
    mpd_accuracy: MpdResult
    mpd_macro_f1: MpdResult
    mcnemar_p: float


@dataclass(frozen=True)
class NormalizerReport:
    """One normalizer's results. A failed normalizer carries only its
    error; an intrinsic report (:func:`run_intrinsic`) only compression
    and ``anld_primary``."""

    normalizer: str
    error: str | None = None
    compression: CompressionResult | None = None
    irs_result: IrsResult | None = None
    ses_result: SesResult | None = None
    anld_primary: AnldResult | None = None
    anld_alternate: AnldResult | None = None
    deltas: tuple[ClassifierDelta, ...] = ()
    empty_stems: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None


def build_normalizer(spec: str) -> Normalizer:
    """Instantiate a normalizer from its spec string.

    Grammar: identity | snowball-en | truncate:<n> | map:<path> |
    ext:<command...> (command split shell-style).
    """
    if spec == "identity":
        return IdentityNormalizer()
    if spec == "snowball-en":
        return SnowballEnglishNormalizer()
    if spec.startswith("truncate:"):
        arg = spec[len("truncate:") :]
        try:
            n = int(arg)
        except ValueError:
            raise NormalizerError(f"truncate length must be an integer, got {arg!r}") from None
        return TruncateNormalizer(n)
    if spec.startswith("map:"):
        return MappingNormalizer(spec[len("map:") :])
    if spec.startswith("ext:"):
        command = shlex.split(spec[len("ext:") :])
        if not command:
            raise NormalizerError("ext: spec needs a command")
        return ExternalNormalizer(command)
    raise NormalizerError(
        f"unknown normalizer spec {spec!r}; expected identity, snowball-en, "
        f"truncate:<n>, map:<path>, or ext:<command>"
    )


def build_embedder(spec: str) -> EmbeddingProvider:
    """Instantiate an embedding provider from its spec string.

    Grammar: hash[:<dim>[:<seed>]] | vecfile:<path> | http:<url>.
    """
    if spec == "hash" or spec.startswith("hash:"):
        parts = spec.split(":")[1:]
        try:
            values = [int(part) for part in parts]
        except ValueError:
            raise EvaluationError(f"bad hash embedder spec {spec!r}") from None
        if len(values) > 2:
            raise EvaluationError(f"bad hash embedder spec {spec!r}")
        return HashedNgramProvider(*values)
    if spec.startswith("vecfile:"):
        return VectorFileProvider(spec[len("vecfile:") :])
    if spec.startswith("http:") or spec.startswith("https:"):
        return HttpServiceProvider(spec)
    raise EvaluationError(
        f"unknown embedder spec {spec!r}; expected hash:<dim>:<seed>, vecfile:<path>, or http:<url>"
    )


def _corpus_rows(config: RunConfig) -> CorpusRows:
    """The rows of the configured corpus, read once per iteration."""
    return CorpusRows(
        config.corpus_path, config.text_col, config.label_col, config.delimiter, config.has_header
    )


def _type_table(config: RunConfig, texts) -> TypeTable:
    """The type table of ``texts`` under the configured tokenizer; each
    text goes straight into the table as it is read, so none is held."""
    tokenizer = TokenizerConfig(lowercase=config.lowercase, strip_punct=config.strip_punct)
    return type_table(texts, tokenizer)


def _run_normalizers(
    specs: tuple[str, ...],
    table: TypeTable,
    score: Callable[[str, TokenMapping], NormalizerReport],
) -> list[NormalizerReport]:
    """Build each normalizer, map the table's types with it, pass its
    name and the token mapping to ``score``, and close it. The types
    are counted once, for every mapping. A NormEvalError on the way
    becomes that spec's failure entry; the other normalizers still run."""
    reports: list[NormalizerReport] = []
    occurrence_counts = table.occurrence_counts()
    for spec in specs:
        normalizer = None
        try:
            normalizer = build_normalizer(spec)
            mapping = type_mapping(normalizer, table.types, occurrence_counts)
            reports.append(score(normalizer.name, mapping))
        except NormEvalError as exc:
            reports.append(NormalizerReport(normalizer=spec, error=str(exc)))
        finally:
            if normalizer is not None:
                normalizer.close()
    return reports


def run_intrinsic(config: RunConfig) -> list[NormalizerReport]:
    """CR and ANLD (under the configured weighting, with the configured
    number of worst pairs) of every configured normalizer: no
    embeddings, no classifiers and no normalized corpus. Failures are
    isolated as in :func:`run_evaluation`."""
    table = _type_table(config, (text for _, text, _ in _corpus_rows(config)))

    def score(name: str, mapping: TokenMapping) -> NormalizerReport:
        return NormalizerReport(
            normalizer=name,
            compression=compression_ratio(len(mapping.types), len(mapping.stems)),
            anld_primary=anld(mapping, weighting=config.anld_weighting, worst_n=config.worst_n),
        )

    return _run_normalizers(config.normalizers, table, score)


def run_evaluation(config: RunConfig) -> list[NormalizerReport]:
    """Evaluate every configured normalizer over the configured corpus.

    The corpus is tokenized into one type table, and each normalizer's
    corpus is that table mapped through its stem ids. The run has three
    phases. The first runs each normalizer's intrinsic metrics and finds
    the documents it changes; a normalizer that gets through it is held
    as its token mapping and those rows, not as a normalized corpus. The
    second is one IRS pass over every mapping (:func:`irs`), which
    embeds each block of original documents once and maps each block of
    changed rows through a mapping's stem ids; each surviving normalizer
    then takes its safety gate, and, when classifiers are configured,
    the table is relabelled by each mapping that changed a document, one
    at a time, and that corpus's folds are featurized. The third trains
    every classifier on the folds of the un-normalized baseline and of
    all those corpora together, then scores each normalizer's deltas
    against the shared baseline; a normalizer that changes no document
    takes the baseline runs as its normalized runs. A failure inside one
    normalizer's first or second phase becomes a failure entry in its
    report, and the others still complete; a failure to embed a block of
    originals is the failure of the first normalizer still in the IRS
    pass, and the others embed the block again. Corpus loading or
    baseline failures abort the whole run before any normalizer runs.
    """
    doc_ids: list[str] = []
    labels: list[str] = []

    def texts():
        for doc_id, text, label in _corpus_rows(config):
            doc_ids.append(doc_id)
            labels.append(label)
            yield text

    table = _type_table(config, texts())
    provider = build_embedder(config.embedder)
    specs: list[ClassifierSpec] = []
    split = None
    baseline_features = None
    gold: dict[str, str] = {}
    if config.classifiers:
        if len(set(labels)) < 2:
            raise EvaluationError("downstream evaluation requires at least 2 labels")
        gold = dict(zip(doc_ids, labels))
        specs = [
            make_classifier_spec(CLASSIFIER_ALIASES.get(name, name), config.seed)
            for name in config.classifiers
        ]
        split = fold_split(doc_ids, gold, plan_folds(doc_ids, labels, config.k, config.seed))
        baseline_features = fold_features(table, split)

    # the token mapping and the changed rows of each normalizer that got
    # through the first phase
    normalizations: list[tuple[TokenMapping, np.ndarray]] = []

    def score(name: str, mapping: TokenMapping) -> NormalizerReport:
        compression = compression_ratio(len(mapping.types), len(mapping.stems))
        primary, alternate = anld_with_alternate(
            mapping, weighting=config.anld_weighting, worst_n=config.worst_n
        )
        normalizations.append((mapping, np.flatnonzero(table.changed(mapping))))
        return NormalizerReport(
            normalizer=name,
            compression=compression,
            anld_primary=primary,
            anld_alternate=alternate,
            empty_stems=int((mapping.labels < 0).sum()),
        )

    reports = _run_normalizers(config.normalizers, table, score)
    outcomes = irs(provider, doc_ids, table, normalizations)
    # each report that got through the second phase with its corpus's
    # fold features, None for a corpus the normalizer left unchanged
    pending: list[tuple[NormalizerReport, list | None]] = []
    for i, (spec, report) in enumerate(zip(config.normalizers, reports)):
        if report.failed:
            continue
        # popped, so that each mapping is freed once featurized
        mapping, changed = normalizations.pop(0)
        irs_result = outcomes.pop(0)
        try:
            if isinstance(irs_result, EmbeddingError):
                raise irs_result
            gated = safety_gate(
                irs_result.irs, report.compression.cr, report.anld_primary.anld,
                config.safety_threshold,
            )
            # training is deterministic, so cross-validating unchanged
            # documents again would reproduce the baseline's runs
            if specs and len(changed):
                features = fold_features(table.relabel(mapping)[0], split)
            else:
                features = None
        except NormEvalError as exc:
            reports[i] = NormalizerReport(normalizer=spec, error=str(exc))
            continue
        reports[i] = replace(report, irs_result=irs_result, ses_result=gated)
        pending.append((reports[i], features))
    if not specs:
        return reports
    changed = [features for _, features in pending if features is not None]
    baseline_runs, *changed_runs = cross_validate_features(
        split,
        [baseline_features, *changed],
        specs,
        ["original"] + ["normalized"] * len(changed),
    )
    changed_runs = iter(changed_runs)
    unchanged_runs = [replace(run, condition="normalized") for run in baseline_runs]
    finished = []
    for report, features in pending:
        runs = unchanged_runs if features is None else next(changed_runs)
        deltas = tuple(_delta(run, baseline, gold) for run, baseline in zip(runs, baseline_runs))
        finished.append(replace(report, deltas=deltas))
    done = iter(finished)
    return [report if report.failed else next(done) for report in reports]


def _delta(run_norm: EvalRun, run_orig: EvalRun, gold: dict[str, str]) -> ClassifierDelta:
    """One classifier's normalized run against its baseline run."""
    return ClassifierDelta(
        classifier=run_norm.classifier,
        original=run_orig,
        normalized=run_norm,
        mpd_accuracy=mpd(run_norm, run_orig, "accuracy"),
        mpd_macro_f1=mpd(run_norm, run_orig, "macro_f1"),
        mcnemar_p=mcnemar(run_norm.per_doc_predictions, run_orig.per_doc_predictions, gold),
    )


def _report_to_dict(report: NormalizerReport) -> dict:
    if report.failed:
        return {"normalizer": report.normalizer, "error": report.error}
    a = report.anld_primary
    anld_out = {
        "weighting": a.weighting,
        "anld": a.anld,
        "pair_count": a.pair_count,
        "over_unit_pairs": a.over_unit_pairs,
    }
    if report.anld_alternate is not None:
        anld_out["alternate_weighting"] = report.anld_alternate.weighting
        anld_out["alternate_anld"] = report.anld_alternate.anld
    anld_out["worst_pairs"] = [
        {"original": orig, "stem": stem, "distance": dist} for orig, stem, dist in a.worst_pairs
    ]
    head = {"normalizer": report.normalizer, "compression": asdict(report.compression)}
    if report.irs_result is None:  # an intrinsic report
        return {**head, "anld": anld_out}
    s = report.ses_result
    out = {
        **head,
        "irs": {"irs": report.irs_result.irs, "zero_vector_docs": report.irs_result.zero_vector_docs},
        "ses": s.ses,
        "verdict": s.verdict,
        "safety_threshold": s.threshold,
        "anld": anld_out,
        "downstream": [
            {
                "classifier": d.classifier,
                "original": {"accuracy": d.original.mean_accuracy, "macro_f1": d.original.mean_macro_f1},
                "normalized": {"accuracy": d.normalized.mean_accuracy, "macro_f1": d.normalized.mean_macro_f1},
                "mpd_accuracy": {
                    "mpd": d.mpd_accuracy.mpd,
                    "p_value": d.mpd_accuracy.p_value,
                    "test": d.mpd_accuracy.test,
                    "significant": d.mpd_accuracy.significant,
                },
                "mpd_macro_f1": {
                    "mpd": d.mpd_macro_f1.mpd,
                    "p_value": d.mpd_macro_f1.p_value,
                    "test": d.mpd_macro_f1.test,
                    "significant": d.mpd_macro_f1.significant,
                },
                "mcnemar_p": d.mcnemar_p,
            }
            for d in report.deltas
        ],
        "warnings": {
            "empty_stems": report.empty_stems,
            "zero_vector_docs": report.irs_result.zero_vector_docs,
            "over_unit_pairs": a.over_unit_pairs,
            # evaluate computes SES as CR x IRS, so its own rows always
            # pass the check; ses.ses_consistency_ok audits quoted tables
            "ses_consistency_flag": False,
        },
    }
    return out


def report_json(reports: list[NormalizerReport], config: RunConfig | None = None) -> str:
    """The machine-readable report: schema version, optional echoed
    config (including the seed), and one entry per normalizer, as
    compact ASCII JSON. Key order and float formatting are stable, so
    identical runs produce byte-identical text. NaN and infinity have no
    JSON form, so a report holding one raises EvaluationError."""
    payload: dict = {"schema": "1"}
    if config is not None:
        payload["config"] = config.to_dict()
    payload["reports"] = [_report_to_dict(r) for r in reports]
    try:
        return json.dumps(payload, separators=(",", ":"), ensure_ascii=True, allow_nan=False)
    except ValueError as exc:
        raise EvaluationError(f"cannot write a non-finite number to JSON: {exc}") from exc


def emit_json(reports: list[NormalizerReport], path: str, config: RunConfig | None = None) -> None:
    """Write :func:`report_json` to ``path``."""
    text = report_json(reports, config)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise EvaluationError(f"cannot write JSON report to {path!r}: {exc}") from exc


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _table_row(cells: list[str]) -> str:
    """One Markdown table row; a ``|`` inside a cell is escaped, so a
    token or a normalizer name cannot add a column."""
    return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"


def emit_markdown(reports: list[NormalizerReport], path: str, config: RunConfig | None = None) -> None:
    """Write the human-readable report: a summary table (one row per
    normalizer), per-classifier detail, worst over-stemming pairs, and
    footnotes for every flag. Displayed numbers are rounded; the JSON
    report keeps full precision."""
    lines: list[str] = ["# Normalizer evaluation", ""]
    if config is not None:
        lines += [
            f"Corpus: `{config.corpus_path}` | folds: {config.k} | seed: {config.seed} | "
            f"embedder: `{config.embedder}` | ANLD weighting: {config.anld_weighting} | "
            f"safety threshold: {config.safety_threshold}",
            "",
        ]
    ok = [r for r in reports if not r.failed]
    failed = [r for r in reports if r.failed]
    classifier_names: list[str] = []
    for r in ok:
        for d in r.deltas:
            if d.classifier not in classifier_names:
                classifier_names.append(d.classifier)

    header = ["Normalizer", "CR", "IRS", "SES", "ANLD"]
    header += [f"{name} acc (orig→norm)" for name in classifier_names]
    lines.append(_table_row(header))
    lines.append("|" + "---|" * len(header))
    notes: list[str] = []
    for r in ok:
        verdict = "safe" if r.ses_result.safe else "UNSAFE"
        row = [
            r.normalizer,
            f"{r.compression.cr:.2f}",
            f"{r.irs_result.irs:.2f}",
            f"{r.ses_result.ses:.2f} ({verdict})",
            f"{r.anld_primary.anld:.2f}",
        ]
        by_kind = {d.classifier: d for d in r.deltas}
        for name in classifier_names:
            d = by_kind.get(name)
            if d is None:
                row.append("-")
            else:
                mark = "*" if d.mpd_accuracy.significant else ""
                row.append(
                    f"{_pct(d.original.mean_accuracy)} → {_pct(d.normalized.mean_accuracy)}{mark}"
                )
        lines.append(_table_row(row))
        if not r.ses_result.safe:
            notes.append(
                f"`{r.normalizer}`: UNSAFE, ANLD {r.anld_primary.anld:.2f} exceeds "
                f"threshold {r.ses_result.threshold:.2f}; its SES should not be optimized for."
            )
        if r.empty_stems:
            notes.append(f"`{r.normalizer}`: {r.empty_stems} token type(s) normalized to empty stems.")
        if r.irs_result.zero_vector_docs:
            notes.append(
                f"`{r.normalizer}`: {r.irs_result.zero_vector_docs} document(s) embedded to a zero "
                f"vector and scored 0 in IRS."
            )
        if r.anld_primary.over_unit_pairs:
            notes.append(
                f"`{r.normalizer}`: {r.anld_primary.over_unit_pairs} pair(s) with normalized "
                f"distance above 1 (stem longer than original)."
            )
    lines.append("")
    if any(d.mpd_accuracy.significant for r in ok for d in r.deltas):
        lines += ["`*` accuracy delta significant at p < 0.05 (paired t).", ""]

    if classifier_names:
        lines += ["## Downstream detail", ""]
        lines.append(
            "| Normalizer | Classifier | Acc orig | Acc norm | MPD | p (paired t) | "
            "p (McNemar) | Macro-F1 orig | Macro-F1 norm |"
        )
        lines.append("|" + "---|" * 9)
        for r in ok:
            for d in r.deltas:
                lines.append(
                    _table_row(
                        [
                            r.normalizer,
                            d.classifier,
                            _pct(d.original.mean_accuracy),
                            _pct(d.normalized.mean_accuracy),
                            f"{100.0 * d.mpd_accuracy.mpd:+.2f}",
                            f"{d.mpd_accuracy.p_value:.4f}",
                            f"{d.mcnemar_p:.4f}",
                            _pct(d.original.mean_macro_f1),
                            _pct(d.normalized.mean_macro_f1),
                        ]
                    )
                )
        lines.append("")

    pairs_sections = [r for r in ok if r.anld_primary.worst_pairs]
    if pairs_sections:
        lines += ["## Worst over-stemming pairs", ""]
        for r in pairs_sections:
            lines += [f"### {r.normalizer}", "", "| Original | Stem | Normalized distance |", "|---|---|---|"]
            for orig, stem, dist in r.anld_primary.worst_pairs:
                lines.append(_table_row([orig, stem if stem else "(empty)", f"{dist:.2f}"]))
            lines.append("")

    if notes:
        lines += ["## Notes", ""]
        lines += [f"- {note}" for note in notes]
        lines.append("")

    if failed:
        lines += ["## Failed normalizers", ""]
        for r in failed:
            lines.append(f"- `{r.normalizer}`: {r.error}")
        lines.append("")

    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    except OSError as exc:
        raise EvaluationError(f"cannot write Markdown report to {path!r}: {exc}") from exc
