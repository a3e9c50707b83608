"""Per-layer tracing of normeval, installed from outside the program.

``Tracer.install`` wraps the functions each normeval module exports and
patches every name under which a caller looks them up (``cli.anld``,
``report.anld``, ...), plus the methods of the normalizer and embedder
classes. Each wrapped call records a span ``[name, start, end, parent]``
in memory; a few very hot functions only bump counters. Nothing is
written until the run ends (``write_spans``). ``layer_metrics`` turns the
spans and counters into the benchmark's per-layer metrics, and
``self_times`` gives each span name's own time, its duration minus the
part covered by its child spans.

A name that a later version of the program no longer has is skipped, so
the tracer keeps working while the code under it changes; the metrics of
a layer it can no longer see read 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.corpus_size: tuple[int, int] | None = None  # (tokens, types) of the first tokenization
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._providers: list = []

    # -------------------------------------------------------------- wrapping

    def span(self, name: str, fn):
        """Call ``fn()`` inside a span named ``name``."""
        return self._wrap(fn, name)()

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = [name(*args) if callable(name) else name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owners, attr, make_wrapper):
        """Replace ``attr`` on every owner that has it by one wrapper
        around the first owner's value."""
        present = [o for o in owners if attr in vars(o)]
        if not present:
            return
        wrapper = make_wrapper(vars(present[0])[attr])
        for owner in present:
            self._patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def _patch_span(self, owners, attr, name, **hooks):
        self._patch(owners, attr, lambda fn: self._wrap(fn, name, **hooks))

    def _patch_count(self, owners, attr, on_call):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                on_call(*args)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owners, attr, make)

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        from normeval import cli, downstream, embeddings, metrics, normalizers, report

        def count_token(*args):
            self.counts["normalizers.token_calls"] += 1

        self._patch_span([cli, report], "load_corpus", "corpus.load")
        self._patch_span([cli, report, downstream], "tokenize_corpus", "corpus.tokenize",
                         after=self._note_corpus)
        self._patch_span([cli, report, downstream], "normalize_corpus", "normalizers.normalize_corpus")
        self._patch_span([normalizers], "snowball_stem", "snowball.stem")
        for cls in _subclasses(normalizers.Normalizer):
            if cls is normalizers.ExternalNormalizer:
                self._patch_span([cls], "normalize_token", "normalizers.ext_roundtrip",
                                 before=count_token)
                self._patch_span([cls], "__init__", "normalizers.ext_start")
            else:
                self._patch_count([cls], "normalize_token", count_token)

        self._patch_span([cli, report], "anld", "metrics.anld")
        self._patch_span([cli, report], "compression_ratio", "metrics.compression_ratio")
        self._patch_count([metrics], "levenshtein", self._note_levenshtein)

        self._patch_span([report], "build_embedder", "embeddings.build",
                         after=self._providers.append)
        self._patch_span([report], "irs", "embeddings.irs")
        self._patch_span([embeddings], "cosine_with_flag", "embeddings.cosine")
        for cls in _subclasses(embeddings.EmbeddingProvider):
            self._patch_span([cls], "embed_documents", "embeddings.embed_documents",
                             before=self._note_embed)

        self._patch_span([report], "cross_validate", "downstream.cross_validate")
        self._patch_span([downstream], "tfidf_fit", "downstream.tfidf_fit")
        self._patch_span([downstream], "tfidf_transform_all", "downstream.tfidf_transform")
        self._patch_span([downstream], "train", lambda spec, *a: f"downstream.train.{spec.kind}")
        self._patch_span([report], "mpd", "downstream.mpd")
        self._patch_span([report], "mcnemar", "downstream.mcnemar")

        self._patch_span([cli], "emit_json", "report.emit_json")
        self._patch_span([cli], "emit_markdown", "report.emit_markdown")
        # the metrics subcommand serializes its own JSON: its command
        # span minus the intrinsic-reports span is that serializer
        self._patch_span([cli], "_cmd_metrics", "cli.metrics_command")
        self._patch_span([cli], "_intrinsic_reports", "cli.intrinsic_reports")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _note_corpus(self, docs) -> None:
        if self.corpus_size is None:
            tokens = [t for d in docs for t in d.tokens]
            self.corpus_size = (len(tokens), len(set(tokens)))

    def _note_levenshtein(self, a, b) -> None:
        self.counts["metrics.levenshtein_calls"] += 1
        if a != b:
            self.counts["metrics.levenshtein_cells"] += len(a) * len(b)

    def _note_embed(self, provider, token_lists) -> None:
        self.counts["embeddings.embed_docs"] += len(token_lists)
        self.counts["embeddings.token_lookups"] += sum(len(t) for t in token_lists)

    # -------------------------------------------------------------- results

    def _durations(self, *names: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] in names]

    def _total(self, *names: str) -> float:
        return float(sum(self._durations(*names)))

    def self_times(self) -> dict[str, dict]:
        """Calls, total and self time per span name."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[i]
        return table

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, without the setup, CPU, report size
        and overhead figures that the benchmark measures outside the
        traced process."""
        table = self.self_times()
        calls = {name: row["calls"] for name, row in table.items()}
        roundtrips = sorted(d * 1e6 for d in self._durations("normalizers.ext_roundtrip"))
        tokens, types = self.corpus_size or (0, 0)
        metrics_self = table.get("cli.metrics_command", {}).get("self_s", 0.0)
        return {
            "corpus.load_s": self._total("corpus.load"),
            "corpus.tokenize_s": self._total("corpus.tokenize"),
            "corpus.tokenize_calls": calls.get("corpus.tokenize", 0),
            "corpus.tokens": tokens,
            "corpus.types": types,
            "normalizers.normalize_s": self._total("normalizers.normalize_corpus"),
            "normalizers.normalize_calls": calls.get("normalizers.normalize_corpus", 0),
            "normalizers.token_calls": self.counts["normalizers.token_calls"],
            "normalizers.ext_start_s": self._total("normalizers.ext_start"),
            "normalizers.ext_roundtrips": len(roundtrips),
            "normalizers.ext_roundtrip_p50_us": statistics.median(roundtrips) if roundtrips else 0.0,
            "normalizers.ext_roundtrip_p99_us": _p99(roundtrips),
            "snowball.stem_s": self._total("snowball.stem"),
            "snowball.stems": calls.get("snowball.stem", 0),
            "metrics.anld_s": self._total("metrics.anld"),
            "metrics.anld_calls": calls.get("metrics.anld", 0),
            "metrics.levenshtein_calls": self.counts["metrics.levenshtein_calls"],
            "metrics.levenshtein_cells": self.counts["metrics.levenshtein_cells"],
            "metrics.compression_s": self._total("metrics.compression_ratio"),
            "embeddings.irs_s": self._total("embeddings.irs"),
            "embeddings.embed_s": self._total("embeddings.embed_documents"),
            "embeddings.cosine_s": self._total("embeddings.cosine"),
            "embeddings.embed_docs": self.counts["embeddings.embed_docs"],
            "embeddings.token_lookups": self.counts["embeddings.token_lookups"],
            "embeddings.distinct_tokens": sum(
                len(getattr(p, "_token_cache", ())) for p in self._providers
            ),
            "downstream.cv_s": self._total("downstream.cross_validate"),
            "downstream.tfidf_s": self._total("downstream.tfidf_fit", "downstream.tfidf_transform"),
            "downstream.tfidf_fit_calls": calls.get("downstream.tfidf_fit", 0),
            "downstream.train_calls": sum(
                n for name, n in calls.items() if name.startswith("downstream.train.")
            ),
            **{
                f"downstream.train_s.{kind}": self._total(f"downstream.train.{kind}")
                for kind in ("multinomial_nb", "logistic_regression", "linear_svm")
            },
            "downstream.stats_s": self._total("downstream.mpd", "downstream.mcnemar"),
            "report.emit_json_s": self._total("report.emit_json") + metrics_self,
            "report.emit_md_s": self._total("report.emit_markdown"),
        }

    def write_spans(self, path: str) -> None:
        """One JSON line per span; times are seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _p99(sorted_values: list[float]) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100)[98]
