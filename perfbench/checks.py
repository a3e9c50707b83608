"""Output checks for the benchmark's reports.

Each check compares a report against a value computed here, apart from
the program, or against a property the method must have. ``check_report``
returns the problems found for each normalizer entry, so a run can count
an entry whose output is wrong as a failed operation.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter

REL_TOL = 1e-12
PAPER_SNOWBALL_ANLD = 0.14
PAPER_ANLD_TOL = 0.005


def own_tokens(text: str) -> list[str]:
    """Whitespace split, edge Unicode punctuation stripped, lowercased."""
    out = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            out.append(raw[start:end].lower())
    return out


def truncate_expectation(texts: list[str], n: int) -> dict:
    """CR and occurrence-weighted ANLD of keeping the first n characters:
    a token of length L loses max(0, L - n) characters, an edit distance
    of exactly that many deletions."""
    occurrences = Counter(tok for text in texts for tok in own_tokens(text))
    return stems_expectation(occurrences, {tok: tok[:n] for tok in occurrences})


def stems_expectation(occurrences: Counter, stems: dict[str, str]) -> dict:
    """CR and occurrence-weighted ANLD of a normalizer that only strips
    suffixes: each token maps to ``stems[token]``, a prefix of it, at an
    edit distance equal to the number of code points stripped."""
    for tok, stem in stems.items():
        if not tok.startswith(stem):
            raise ValueError(f"stem {stem!r} is not a prefix of {tok!r}")
    after = {stem for stem in stems.values() if stem}
    total = sum(occurrences.values())
    distance = sum(n * (len(tok) - len(stems[tok])) / len(tok) for tok, n in occurrences.items())
    return {"cr": len(occurrences) / len(after), "anld": distance / total}


def parse_report(data: bytes) -> dict:
    """Decode a JSON report, refusing NaN and infinities."""

    def refuse(name):
        raise ValueError(f"report contains {name}")

    return json.loads(data.decode("utf-8"), parse_constant=refuse)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _entry_problems(entry: dict, expect: dict, n_labels: int) -> list[str]:
    if "error" in entry:
        return [f"error: {entry['error']}"]
    problems = []
    cr = entry["compression"]["cr"]
    anld = entry["anld"]["anld"]
    if "cr" in expect and not _close(cr, expect["cr"]):
        problems.append(f"CR {cr!r} != independent {expect['cr']!r}")
    if "anld" in expect and not _close(anld, expect["anld"]):
        problems.append(f"ANLD {anld!r} != independent {expect['anld']!r}")
    if "ses" in entry:
        irs = entry["irs"]["irs"]
        if not _close(entry["ses"], cr * irs):
            problems.append(f"SES {entry['ses']!r} != CR x IRS {cr * irs!r}")
        if not -1.0 <= irs <= 1.0:
            problems.append(f"IRS {irs!r} outside [-1, 1]")
        verdict = "safe" if anld <= entry["safety_threshold"] else "unsafe"
        if entry["verdict"] != verdict:
            problems.append(f"verdict {entry['verdict']} but ANLD {anld!r} gives {verdict}")
    for d in entry.get("downstream", []):
        name = d["classifier"]
        for metric, key in (("accuracy", "mpd_accuracy"), ("macro_f1", "mpd_macro_f1")):
            delta = d["normalized"][metric] - d["original"][metric]
            if not _close(d[key]["mpd"], delta):
                problems.append(f"{name} {key} {d[key]['mpd']!r} != normalized - original {delta!r}")
        for side in ("original", "normalized"):
            if d[side]["accuracy"] < 2.0 / n_labels:
                problems.append(f"{name} {side} accuracy {d[side]['accuracy']!r} near chance")
    if expect.get("identity"):
        scores = (("CR", cr, 1.0), ("ANLD", anld, 0.0), ("IRS", entry["irs"]["irs"], 1.0),
                  ("SES", entry["ses"], 1.0))
        for label, value, want in scores:
            if value != want:
                problems.append(f"identity {label} {value!r} != {want}")
        for d in entry["downstream"]:
            for key in ("mpd_accuracy", "mpd_macro_f1"):
                if d[key]["mpd"] != 0.0 or d[key]["p_value"] != 1.0:
                    problems.append(f"identity {d['classifier']} {key} {d[key]} not (0, p=1)")
            if d["mcnemar_p"] != 1.0:
                problems.append(f"identity {d['classifier']} McNemar p {d['mcnemar_p']!r} != 1")
    if expect.get("paper_safe"):
        if abs(anld - PAPER_SNOWBALL_ANLD) > PAPER_ANLD_TOL or entry["verdict"] != "safe":
            problems.append(f"ANLD {anld!r} ({entry['verdict']}) misses the paper's safe 0.14")
    if expect.get("unsafe") and entry["verdict"] != "unsafe":
        problems.append("expected an unsafe verdict")
    return problems


def check_report(payload: dict, expects: list[dict], n_labels: int = 3) -> list[list[str]]:
    """Problems per entry of ``payload["reports"]``; ``expects`` holds one
    dict per requested normalizer, in order, with any of the keys
    ``identity``, ``cr``, ``anld``, ``paper_safe`` and ``unsafe``."""
    entries = payload["reports"]
    if len(entries) != len(expects):
        return [[f"report has {len(entries)} entries, expected {len(expects)}"]] * len(expects)
    return [_entry_problems(e, x, n_labels) for e, x in zip(entries, expects)]
