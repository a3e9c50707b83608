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
from .metrics import WEIGHTINGS
from .report import (
    RunConfig,
    emit_json,
    emit_markdown,
    report_json,
    run_evaluation,
    run_intrinsic,
)

_DELIMITERS = {"tab": "\t", "comma": ","}
_WEIGHTINGS = {name.removeprefix("by_"): name for name in WEIGHTINGS}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # all-normalizers-failed, so usage errors must exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    # An option's dest is the RunConfig field it sets, and an option not
    # given is left out of the parsed namespace, so RunConfig's own
    # default applies.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument(
        "--corpus", dest="corpus_path", required=True, metavar="CORPUS",
        help="path to the delimited corpus file",
    )
    shared.add_argument("--text-col", help="text column name or 0-based index")
    shared.add_argument("--label-col", help="label column name or 0-based index")
    shared.add_argument("--delimiter", choices=sorted(_DELIMITERS))
    shared.add_argument(
        "--no-header", dest="has_header", action="store_false", help="corpus file has no header row"
    )
    shared.add_argument(
        "--no-lowercase", dest="lowercase", action="store_false", help="keep token case"
    )
    shared.add_argument(
        "--no-strip-punct", dest="strip_punct", action="store_false", help="keep edge punctuation"
    )
    shared.add_argument(
        "--normalizer",
        dest="normalizers",
        action="append",
        required=True,
        metavar="SPEC",
        help="identity | snowball-en | truncate:<n> | map:<path> | ext:<command>; repeatable",
    )
    shared.add_argument("--anld-weighting", choices=sorted(_WEIGHTINGS))
    shared.add_argument("--worst-n", type=int, help="over-stemming pairs to keep")
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--out-json", help="JSON report path (default: stdout)")

    parser = _Parser(prog="normeval", description="Evaluate text normalizers.")
    sub = parser.add_subparsers(dest="command", required=True)
    ev = sub.add_parser(
        "evaluate", parents=[shared, json_out], argument_default=argparse.SUPPRESS,
        help="full evaluation with downstream classifiers",
    )
    ev.add_argument("--embedder", help="hash:<dim>:<seed> | vecfile:<path> | http:<url>")
    ev.add_argument(
        "--classifiers",
        type=lambda names: tuple(filter(None, names.split(","))),
        default="nb,lr,svm",
        help="comma-separated subset of nb,lr,svm (empty string skips downstream evaluation)",
    )
    ev.add_argument("--k", type=int, help="cross-validation fold count")
    ev.add_argument("--seed", type=int, help="fold and classifier seed")
    ev.add_argument("--safety-threshold", type=float)
    ev.add_argument("--out-md", default=None, help="Markdown report path (optional)")
    sub.add_parser("metrics", parents=[shared, json_out], help="intrinsic metrics only (CR, ANLD)")
    sub.add_parser(
        "anld-pairs", parents=[shared], help="dump worst (original, stem, distance) pairs as TSV"
    )
    return parser


def _config_from_args(args) -> RunConfig:
    given = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__ if name in args}
    given["normalizers"] = tuple(given["normalizers"])
    if "delimiter" in given:
        given["delimiter"] = _DELIMITERS[given["delimiter"]]
    if "anld_weighting" in given:
        given["anld_weighting"] = _WEIGHTINGS[given["anld_weighting"]]
    return RunConfig(**given)


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
    if getattr(args, "worst_n", 0) < 0:
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
