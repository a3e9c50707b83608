"""Benchmark for normeval: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
The workload's inputs are generated from ``--seed`` under
``perfbench/_work/NAME``. Each round is a fresh interpreter
(``child.py``) that times ``import normeval.cli`` and one call of
``normeval.cli.main`` on the workload's arguments; rounds repeat until
``--seconds`` have passed, at least two of them, so that every run
checks determinism. Every round's report is
checked (``checks.py``) and must be byte-identical to the first one.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json (medians over the rounds). With
``--trace 1`` the rounds alternate untraced and traced (``layertrace.py``)
and the object holds the per-layer metrics; a table of self times per
span goes to stderr. One operation is one normalizer entry of a round's
report; it fails when the entry carries an error or fails a check.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2
MIN_SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
ROUND_TIMEOUT_S = 90
NORMALIZERS = ["--normalizer", "identity", "--normalizer", "snowball-en", "--normalizer", "truncate:3"]


@dataclass
class Workload:
    argv: list[str]  # normeval command line
    expects: list[dict]  # one per normalizer entry, see checks.check_report
    out_json: Path
    cpus: set[int] | None = None  # CPU affinity of the rounds; None leaves it alone


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs into ``work`` and return the program
    arguments with one expectation per normalizer entry."""
    corpus = work / "corpus.tsv"
    out_json = work / "report.json"
    reports = ["--out-json", str(out_json), "--out-md", str(work / "report.md")]
    mini = SRC / "normeval" / "data" / "mini_corpus.tsv"
    cpus = None
    if name == "mini-evaluate":
        # the paper's reference configuration; the seed does not change it
        rows = gen.read_tsv(str(mini))
        argv = ["evaluate", "--corpus", str(corpus), *NORMALIZERS, "--classifiers", "nb,lr,svm",
                "--embedder", "hash:256:0", "--k", "5", "--seed", "42", *reports]
        truncate = checks.truncate_expectation([t for t, _ in rows], 3)
        expects = [{"identity": True}, {"paper_safe": True}, {**truncate, "unsafe": True}]
    elif name == "en-intrinsic":
        rows = gen.en_scaleup(gen.read_tsv(str(mini)), seed)
        argv = ["evaluate", "--corpus", str(corpus), *NORMALIZERS, "--classifiers", "",
                "--embedder", "hash:256:0", *reports]
        expects = [{"identity": True}, {}, checks.truncate_expectation([t for t, _ in rows], 3)]
    elif name == "bn-ext":
        rows, occurrences, stems = gen.bn_corpus(seed)
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(BENCH / 'bn_stemmer.py'))}"
        argv = ["metrics", "--corpus", str(corpus), "--normalizer", f"ext:{command}",
                "--out-json", str(out_json)]
        expects = [checks.stems_expectation(occurrences, stems)]
        # The round and the stemmer it starts share one CPU. Across the
        # two vCPUs of a VM every round trip waits for a halted vCPU to
        # be woken, which doubles the run and varies up to fourfold with
        # the host's load; on one CPU the run measures the round trips.
        cpus = {max(os.sched_getaffinity(0))}
    else:
        raise SystemExit(f"unknown workload {name!r}")
    gen.write_tsv(str(corpus), rows)
    return Workload(argv, expects, out_json, cpus)


def run_child(work: Path, mode: str, argv: list[str], tag: str, cpus: set[int] | None,
              importtime: bool = False) -> dict:
    result = work / f"{tag}.json"
    log = work / f"{tag}.log"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH / "child.py"),
           mode, str(SRC), str(result), str(work / f"{tag}.spans.jsonl"), *argv]
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
                              timeout=ROUND_TIMEOUT_S,
                              preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
    if proc.returncode != 0:
        raise RuntimeError(f"round {tag} exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    out = json.loads(result.read_text())
    if importtime:
        out["importtime"] = log.read_text()
    return out


class Tally:
    """Attempted and failed operations, and whether every output held."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_bytes: bytes | None = None

    def record(self, tag: str) -> None:
        expects = self.workload.expects
        self.attempted += len(expects)
        try:
            data = self.workload.out_json.read_bytes()
            problems = checks.check_report(checks.parse_report(data), expects)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            data, problems = None, [[f"unreadable report: {exc!r}"]] * len(expects)
        if data is not None:
            if self.first_bytes is None:
                self.first_bytes = data
            elif data != self.first_bytes:
                problems = [p + ["report bytes differ from the first round"] for p in problems]
        for i, entry_problems in enumerate(problems):
            if entry_problems:
                self.failed += 1
                # an entry that carries an error is a failed operation; a
                # wrong output is also an incorrect one
                if not entry_problems[0].startswith("error:"):
                    self.correct = False
                print(f"{tag} entry {i}: {'; '.join(entry_problems)}", file=sys.stderr)


def one_round(work: Path, workload: Workload, tally: Tally, mode: str, tag: str) -> dict:
    workload.out_json.unlink(missing_ok=True)
    result = run_child(work, mode, workload.argv, tag, workload.cpus)
    tally.record(tag)
    print(f"{tag}: setup_s {result['setup_s']:.4f} run_s {result['run_s']:.4f} "
          f"peak_rss_mb {result['peak_rss_mb']:.1f}", file=sys.stderr)
    return result


def import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative import time of the outermost ``-X importtime`` entries
    named ``package`` or ``package.*``."""
    entries = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the column header
        name = parts[2].strip()
        if name == package or name.startswith(package + "."):
            entries.append((len(parts[2]) - len(parts[2].lstrip()), cumulative_us))
    if not entries:
        return 0.0
    depth = min(d for d, _ in entries)
    return sum(us for d, us in entries if d == depth) / 1e6


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    work = BENCH / "_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = prepare(name, seed, work)
    tally = Tally(workload)
    deadline = time.perf_counter() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    while len(plain) + len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        plain.append(one_round(work, workload, tally, "run", f"round{len(plain)}"))
        if trace:
            traced.append(one_round(work, workload, tally, "trace", f"traced{len(traced)}"))
    if not trace:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUP_SAMPLES:
            setup = run_child(work, "import", [], f"import{len(setups)}", workload.cpus)
            setups.append(setup["setup_s"])
        return tally, {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    logs = [run_child(work, "import", [], f"importtime{i}", workload.cpus,
                      importtime=True)["importtime"] for i in range(IMPORTTIME_SAMPLES)]
    layers = {key: statistics.median_low(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    layers.update({
        "setup.scipy_stats_import_s": statistics.median(import_seconds(t, "scipy.stats") for t in logs),
        "setup.numpy_import_s": statistics.median(import_seconds(t, "numpy") for t in logs),
        "cli.cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "report.json_bytes": len(tally.first_bytes or b""),
        "trace.overhead_s": statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in plain),
    })
    print_self_times(traced[-1]["self_times"])
    return tally, layers


def print_self_times(table: dict) -> None:
    print(f"{'span':40} {'calls':>9} {'total_s':>10} {'self_s':>10}", file=sys.stderr)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}",
              file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "normeval" / "cli.py").is_file():
        print(f"run.py: no normeval sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: workload {args.workload!r} is not in BENCHMARK.json", file=sys.stderr)
        return 1
    tally, values = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(values) != {m["name"] for m in declared}:
        print(f"run.py: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
