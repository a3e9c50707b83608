"""Intrinsic normalization metrics: vocabulary compression and
average normalized Levenshtein distance over (original, stem) pairs.

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Literal

from .errors import MetricError
from .normalizers import TokenMapping


@dataclass(frozen=True)
class CompressionResult:
    vocab_before: int
    vocab_after: int
    cr: float


@dataclass(frozen=True)
class AnldResult:
    anld: float
    pair_count: int
    over_unit_pairs: int
    worst_pairs: tuple[tuple[str, str, float], ...]
    weighting: str


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions, and
    substitutions transforming a into b. Operates on Unicode scalar
    values (Python string items), not bytes.

    When one string is a prefix of the other, as a stem usually is of
    its word, the distance is the difference in length: deletions alone
    reach that lower bound. Otherwise a common prefix and a common suffix
    are stripped before the dynamic program: some optimal alignment
    matches them character for character, so only the differing cores
    need the table.
    """
    if a == b:
        return 0
    if a.startswith(b) or b.startswith(a):
        return abs(len(a) - len(b))
    start, limit = 0, min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end = 0
    while end < limit - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a, b = a[start : len(a) - end], b[start : len(b) - end]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def compression_ratio(before: int, after: int) -> CompressionResult:
    """Unique-token count before normalization divided by after.

    cr > 1 means the vocabulary shrank; cr = 1 means the normalization
    changed nothing; cr < 1 means it expanded the vocabulary.
    """
    try:
        nb, na = operator.index(before), operator.index(after)
    except TypeError:
        raise MetricError(f"vocabulary sizes must be integers, got {before!r}, {after!r}") from None
    if nb < 0 or na < 0:
        raise MetricError(f"vocabulary sizes must not be negative, got {nb}, {na}")
    if nb > 0 and na == 0:
        raise MetricError(
            "degenerate normalizer: non-empty vocabulary collapsed to zero distinct tokens"
        )
    cr = nb / na if na > 0 else 1.0
    return CompressionResult(vocab_before=nb, vocab_after=na, cr=cr)


def anld(
    mapping: TokenMapping,
    weighting: Literal["by_occurrence", "by_type"] = "by_occurrence",
    worst_n: int = 20,
) -> AnldResult:
    """Average of levenshtein(original, stem) / len(original) over pairs.

    ``by_occurrence`` weights each pair by how often the original token
    occurred; ``by_type`` weights every pair equally. Distances are
    never clamped: a stem longer than its original can push a pair's
    normalized distance above 1, and such pairs are counted in
    ``over_unit_pairs`` so the anomaly stays visible.
    """
    _check_weighting(weighting)
    return _weighted_anld(mapping, _pair_distances(mapping), weighting, worst_n)


def anld_with_alternate(
    mapping: TokenMapping,
    weighting: Literal["by_occurrence", "by_type"] = "by_occurrence",
    worst_n: int = 20,
) -> tuple[AnldResult, AnldResult]:
    """:func:`anld` under ``weighting`` and under the other weighting
    (without worst pairs), from one Levenshtein pass over the pairs."""
    _check_weighting(weighting)
    scored = _pair_distances(mapping)
    alternate = "by_type" if weighting == "by_occurrence" else "by_occurrence"
    return (
        _weighted_anld(mapping, scored, weighting, worst_n),
        _weighted_anld(mapping, scored, alternate, 0),
    )


def _check_weighting(weighting: str) -> None:
    if weighting not in ("by_occurrence", "by_type"):
        raise MetricError(f"unknown weighting {weighting!r}")


def _pair_distances(mapping: TokenMapping) -> list[float]:
    """The normalized distance of every pair, in mapping order."""
    if not mapping.pairs:
        raise MetricError("cannot compute distance average over an empty token mapping")
    if "" in mapping.pairs:
        raise MetricError("token mapping contains an empty original token")
    return [levenshtein(original, stem) / len(original) for original, stem in mapping.pairs.items()]


def _weighted_anld(
    mapping: TokenMapping, distances: list[float], weighting: str, worst_n: int
) -> AnldResult:
    total = 0.0
    weight_sum = 0.0
    over_unit = 0
    for original, d in zip(mapping.pairs, distances):
        w = mapping.occurrence_counts.get(original, 0) if weighting == "by_occurrence" else 1.0
        total += d * w
        weight_sum += w
        if d > 1.0:
            over_unit += 1
    if weight_sum == 0:
        raise MetricError("token mapping has zero total occurrence weight")
    # tuples for the worst pairs only: a tuple per pair, kept alive at once,
    # sets off the cyclic garbage collector at corpus scale
    originals = list(mapping.pairs)
    stems = list(mapping.pairs.values())
    worst = heapq.nsmallest(
        worst_n, range(len(distances)), key=lambda i: (-distances[i], originals[i])
    )
    return AnldResult(
        anld=total / weight_sum,
        pair_count=len(mapping.pairs),
        over_unit_pairs=over_unit,
        worst_pairs=tuple((originals[i], stems[i], distances[i]) for i in worst),
        weighting=weighting,
    )
