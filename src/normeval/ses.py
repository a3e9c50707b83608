"""Stemming effectiveness score and the distortion safety gate.

SES multiplies vocabulary compression by IRS, the meaning kept, rewarding
normalizers that shrink the vocabulary without losing meaning. A high
SES can still hide destructive rewriting, so reports pair it with a
safety verdict driven by average normalized edit distance: compression
is only worth having when the token rewrites stay recognizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MetricError

DEFAULT_ANLD_THRESHOLD = 0.20
SES_CONSISTENCY_TOLERANCE = 0.005


@dataclass(frozen=True)
class SesResult:
    ses: float
    irs: float
    cr: float
    anld: float
    safe: bool
    threshold: float

    @property
    def verdict(self) -> str:
        return "safe" if self.safe else "unsafe"


def ses(irs: float, cr: float) -> float:
    """Effectiveness score: irs * cr.

    Requires -1 <= irs <= 1 and cr > 0, both finite.
    """
    if not (math.isfinite(irs) and math.isfinite(cr)):
        raise MetricError(f"ses requires finite inputs, got irs={irs}, cr={cr}")
    if not -1.0 <= irs <= 1.0:
        raise MetricError(f"irs must lie in [-1, 1], got {irs}")
    if cr <= 0.0:
        raise MetricError(f"compression ratio must be > 0, got {cr}")
    return irs * cr


def safety_gate(irs: float, cr: float, anld: float, threshold: float = DEFAULT_ANLD_THRESHOLD) -> SesResult:
    """Combine SES with the distortion verdict.

    A normalizer is unsafe when anld exceeds the threshold (strictly);
    anld equal to the threshold is still safe. The verdict depends only
    on anld and the threshold, never on the score itself.
    """
    if not math.isfinite(anld) or anld < 0.0:
        raise MetricError(f"anld must be finite and >= 0, got {anld}")
    if not math.isfinite(threshold) or threshold <= 0.0:
        raise MetricError(f"threshold must be finite and > 0, got {threshold}")
    return SesResult(
        ses=ses(irs, cr),
        irs=irs,
        cr=cr,
        anld=anld,
        safe=anld <= threshold,
        threshold=threshold,
    )


def ses_consistency_ok(
    cr: float, irs: float, reported_ses: float, tolerance: float = SES_CONSISTENCY_TOLERANCE
) -> bool:
    """Check an externally reported (cr, irs, ses) triple for product
    consistency: |ses - cr * irs| <= tolerance.

    Useful when auditing published score tables, where a quoted SES may
    not match the product of its quoted factors.
    """
    if not math.isfinite(tolerance) or tolerance < 0.0:
        raise MetricError(f"tolerance must be finite and >= 0, got {tolerance}")
    return abs(reported_ses - cr * irs) <= tolerance
