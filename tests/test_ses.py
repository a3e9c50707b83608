"""Effectiveness score, safety gate, and product-consistency audit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normeval import (
    DEFAULT_ANLD_THRESHOLD,
    MetricError,
    SesResult,
    safety_gate,
    ses,
    ses_consistency_ok,
)

finite_irs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
finite_cr = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestSes:
    def test_known_products_exact(self):
        # both products are exact in binary64, so == is intentional
        assert ses(0.80, 1.64) == 1.312
        assert ses(0.88, 1.90) == 1.672

    def test_identity_normalizer(self):
        assert ses(1.0, 1.0) == 1.0

    def test_negative_retention_allowed(self):
        assert ses(-0.5, 2.0) == -1.0

    @pytest.mark.parametrize("irs", [1.5, -1.01, math.nan, math.inf])
    def test_invalid_retention(self, irs):
        with pytest.raises(MetricError):
            ses(irs, 1.2)

    @pytest.mark.parametrize("cr", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_compression(self, cr):
        with pytest.raises(MetricError):
            ses(0.9, cr)

    @settings(max_examples=200, deadline=None)
    @given(finite_irs, finite_cr)
    def test_matches_product(self, irs, cr):
        assert ses(irs, cr) == irs * cr

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), finite_cr)
    def test_monotone_in_retention_for_positive_cr(self, a, b, cr):
        lo, hi = sorted((a, b))
        assert ses(lo, cr) <= ses(hi, cr)


class TestSafetyGate:
    def test_safe_below_threshold(self):
        result = safety_gate(irs=0.9, cr=1.5, anld=0.1)
        assert isinstance(result, SesResult)
        assert result.safe
        assert result.verdict == "safe"
        assert result.ses == pytest.approx(1.35)
        assert result.threshold == DEFAULT_ANLD_THRESHOLD

    def test_unsafe_above_threshold(self):
        result = safety_gate(irs=0.95, cr=2.0, anld=0.45)
        assert not result.safe
        assert result.verdict == "unsafe"
        # high score does not rescue a distorting normalizer
        assert result.ses == pytest.approx(1.9)

    def test_boundary_is_safe(self):
        assert safety_gate(irs=0.9, cr=1.2, anld=0.20).safe
        assert not safety_gate(irs=0.9, cr=1.2, anld=math.nextafter(0.20, 1.0)).safe

    def test_custom_threshold(self):
        assert not safety_gate(irs=0.9, cr=1.2, anld=0.15, threshold=0.1).safe
        assert safety_gate(irs=0.9, cr=1.2, anld=0.15, threshold=0.15).safe

    @pytest.mark.parametrize("anld", [-0.1, math.nan, math.inf])
    def test_invalid_anld(self, anld):
        with pytest.raises(MetricError):
            safety_gate(0.9, 1.2, anld)

    @pytest.mark.parametrize("threshold", [0.0, -0.2, math.nan])
    def test_invalid_threshold(self, threshold):
        with pytest.raises(MetricError):
            safety_gate(0.9, 1.2, 0.1, threshold=threshold)

    @settings(max_examples=200, deadline=None)
    @given(
        finite_irs,
        finite_cr,
        st.floats(0.0, 2.0),
        st.floats(0.01, 1.0),
    )
    def test_verdict_independent_of_score(self, irs, cr, anld, threshold):
        result = safety_gate(irs, cr, anld, threshold=threshold)
        assert result.safe == (anld <= threshold)
        assert result.ses == ses(irs, cr)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0))
    def test_gate_monotone_in_anld(self, a, b, threshold):
        lo, hi = sorted((a, b))
        gate_lo = safety_gate(0.9, 1.2, lo, threshold=threshold)
        gate_hi = safety_gate(0.9, 1.2, hi, threshold=threshold)
        # distortion can only flip a verdict from safe to unsafe
        assert gate_lo.safe or not gate_hi.safe


class TestConsistencyAudit:
    def test_consistent_triple(self):
        assert ses_consistency_ok(cr=1.64, irs=0.80, reported_ses=1.312)

    def test_inconsistent_published_style_triple(self):
        # 1.61 * 0.91 = 1.4651, ~0.21 away from the quoted 1.672
        assert not ses_consistency_ok(cr=1.61, irs=0.91, reported_ses=1.672)
        assert abs(1.672 - 1.61 * 0.91) > 0.2

    def test_tolerance_boundary(self):
        assert ses_consistency_ok(cr=1.0, irs=1.0, reported_ses=1.005)
        assert not ses_consistency_ok(cr=1.0, irs=1.0, reported_ses=1.006)

    def test_custom_tolerance(self):
        assert ses_consistency_ok(cr=1.0, irs=1.0, reported_ses=1.09, tolerance=0.1)
        assert not ses_consistency_ok(cr=1.0, irs=1.0, reported_ses=1.09, tolerance=0.05)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(MetricError):
            ses_consistency_ok(1.0, 1.0, 1.0, tolerance=-0.01)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # NaN made every triple inconsistent and infinity every one consistent
        with pytest.raises(MetricError, match="tolerance must be finite"):
            ses_consistency_ok(1.0, 1.0, 1.0, tolerance=tolerance)

    @settings(max_examples=100, deadline=None)
    @given(finite_irs, finite_cr)
    def test_true_product_always_consistent(self, irs, cr):
        assert ses_consistency_ok(cr=cr, irs=irs, reported_ses=cr * irs)
