"""Command-line interface.

Subcommands:
  evaluate    full pipeline: CR, ANLD, IRS, SES + safety gate, downstream
              classifier deltas with significance, JSON/Markdown reports.
  metrics     intrinsic metrics only (CR, ANLD); no classifiers, no
              embeddings.
  anld-pairs  dump the worst (original, stem, distance) pairs as TSV.

Exit codes: 0 success; 1 configuration or I/O error; 2 evaluation failed
for every requested normalizer.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NormEvalError
from .report import (
    RunConfig,
    emit_json,
    emit_markdown,
    report_json,
    run_evaluation,
    run_intrinsic,
)

_DELIMITERS = {"tab": "\t", "comma": ","}
_WEIGHTINGS = {"occurrence": "by_occurrence", "type": "by_type"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # all-normalizers-failed, so usage errors must exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="path to the delimited corpus file")
    parser.add_argument("--text-col", default="text", help="text column name or 0-based index")
    parser.add_argument("--label-col", default="label", help="label column name or 0-based index")
    parser.add_argument("--delimiter", choices=sorted(_DELIMITERS), default="tab")
    parser.add_argument("--no-header", action="store_true", help="corpus file has no header row")
    parser.add_argument("--no-lowercase", action="store_true", help="keep token case")
    parser.add_argument("--no-strip-punct", action="store_true", help="keep edge punctuation")
    parser.add_argument(
        "--normalizer",
        action="append",
        required=True,
        metavar="SPEC",
        help="identity | snowball-en | truncate:<n> | map:<path> | ext:<command>; repeatable",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="normeval", description="Evaluate text normalizers.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="full evaluation with downstream classifiers")
    _add_corpus_args(ev)
    ev.add_argument(
        "--embedder",
        default="hash:256:0",
        help="hash:<dim>:<seed> | vecfile:<path> | http:<url>",
    )
    ev.add_argument(
        "--classifiers",
        default="nb,lr,svm",
        help="comma-separated subset of nb,lr,svm (empty string skips downstream evaluation)",
    )
    ev.add_argument("--k", type=int, default=5, help="cross-validation fold count")
    ev.add_argument("--seed", type=int, default=42, help="fold and classifier seed")
    ev.add_argument("--anld-weighting", choices=sorted(_WEIGHTINGS), default="occurrence")
    ev.add_argument("--safety-threshold", type=float, default=0.20)
    ev.add_argument("--worst-n", type=int, default=20, help="over-stemming pairs to keep")
    ev.add_argument("--out-json", help="JSON report path (default: stdout)")
    ev.add_argument("--out-md", help="Markdown report path (optional)")

    me = sub.add_parser("metrics", help="intrinsic metrics only (CR, ANLD)")
    _add_corpus_args(me)
    me.add_argument("--anld-weighting", choices=sorted(_WEIGHTINGS), default="occurrence")
    me.add_argument("--worst-n", type=int, default=20)
    me.add_argument("--out-json", help="JSON output path (default: stdout)")

    ap = sub.add_parser("anld-pairs", help="dump worst (original, stem, distance) pairs as TSV")
    _add_corpus_args(ap)
    ap.add_argument("--anld-weighting", choices=sorted(_WEIGHTINGS), default="occurrence")
    ap.add_argument("--worst-n", type=int, default=20)

    return parser


def _config_from_args(args) -> RunConfig:
    evaluate_only = {}
    if args.command == "evaluate":
        evaluate_only = dict(
            embedder=args.embedder,
            classifiers=tuple(c for c in args.classifiers.split(",") if c),
            k=args.k,
            seed=args.seed,
            safety_threshold=args.safety_threshold,
        )
    return RunConfig(
        corpus_path=args.corpus,
        normalizers=tuple(args.normalizer),
        text_col=args.text_col,
        label_col=args.label_col,
        delimiter=_DELIMITERS[args.delimiter],
        has_header=not args.no_header,
        lowercase=not args.no_lowercase,
        strip_punct=not args.no_strip_punct,
        anld_weighting=_WEIGHTINGS[args.anld_weighting],
        worst_n=args.worst_n,
        **evaluate_only,
    )


def _print_failures(reports) -> int:
    """Name every failed normalizer on stderr; return the exit code, 2
    when all of them failed."""
    for report in reports:
        if report.failed:
            print(f"normeval: {report.normalizer} failed: {report.error}", file=sys.stderr)
    return 2 if all(r.failed for r in reports) else 0


def _write_json(reports, path: str | None, config: RunConfig | None) -> None:
    if path:
        emit_json(reports, path, config)
    else:
        print(report_json(reports, config))


def _cmd_evaluate(args, config: RunConfig) -> int:
    reports = run_evaluation(config)
    code = _print_failures(reports)
    _write_json(reports, args.out_json, config)
    if args.out_md:
        emit_markdown(reports, args.out_md, config)
    return code


def _cmd_metrics(args, config: RunConfig) -> int:
    reports = run_intrinsic(config)
    code = _print_failures(reports)
    _write_json(reports, args.out_json, None)
    return code


def _cmd_anld_pairs(args, config: RunConfig) -> int:
    reports = run_intrinsic(config)
    code = _print_failures(reports)
    for report in reports:
        if not report.failed:
            for original, stem, distance in report.anld_primary.worst_pairs:
                print(f"{report.normalizer}\t{original}\t{stem}\t{distance!r}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.worst_n < 0:
        parser.error(f"--worst-n must be >= 0, got {args.worst_n}")
    try:
        config = _config_from_args(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args, config)
        if args.command == "metrics":
            return _cmd_metrics(args, config)
        return _cmd_anld_pairs(args, config)
    except NormEvalError as exc:
        print(f"normeval: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
