import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pgpfr.errors import InvalidArgumentError
from pgpfr.metrics import MetricsRecord, accuracy, ifm, summarize

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def rec(task, g, l=None, i=0.0):
    l = g if l is None else l
    return MetricsRecord(task, g, l, i, g, g)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 2, 3], [0, 0, 0]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch_and_empty(self):
        with pytest.raises(InvalidArgumentError):
            accuracy([1], [1, 2])
        with pytest.raises(InvalidArgumentError):
            accuracy([], [])

    def test_permutation_invariant(self):
        pairs = [(1, 1), (2, 0), (3, 3), (4, 4)]
        a = accuracy([p for p, _ in pairs], [t for _, t in pairs])
        rev = pairs[::-1]
        b = accuracy([p for p, _ in rev], [t for _, t in rev])
        assert a == b


class TestIfm:
    def test_equal_is_zero(self):
        assert ifm(0.7, 0.7) == 0.0

    def test_maximum(self):
        assert ifm(1.0, 0.0) == 100.0

    def test_derived_value(self):
        assert ifm(0.9, 0.6) == abs(0.9 - 0.6) / (0.9 + 0.6) * 100
        assert ifm(0.9, 0.6) == pytest.approx(20.0, rel=1e-12)

    def test_both_zero_convention(self):
        assert ifm(0.0, 0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            ifm(1.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            ifm(0.5, -0.1)

    @given(unit, unit)
    @settings(max_examples=100)
    def test_bounded_and_symmetric(self, l, g):
        v = ifm(l, g)
        assert 0.0 <= v <= 100.0
        assert v == ifm(g, l)

    @given(unit, unit, st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=50)
    @example(l=0.0, g=5e-324, alpha=0.5)
    def test_scale_invariance(self, l, g, alpha):
        if l + g == 0:
            return
        # a subnormal scaled value has lost precision, and one that underflows
        # to 0 turns (0, g) into the (0, 0) -> 0 convention: neither is the
        # same ratio, so only scaled values that stay normal (or stay 0) count
        assume(all(v == 0.0 or alpha * v >= sys.float_info.min for v in (l, g)))
        assert ifm(alpha * l, alpha * g) == pytest.approx(ifm(l, g), abs=1e-9)


class TestSummarize:
    def test_single_record(self):
        s = summarize([rec(0, 0.8)])
        assert s["mean_global_acc"] == 0.8
        assert s["mean_ifm"] is None

    def test_two_identical_records(self):
        s = summarize([rec(0, 0.9), rec(1, 0.9, i=5.0)])
        assert s["mean_global_acc"] == pytest.approx(0.9)
        assert s["mean_ifm"] == pytest.approx(5.0)

    def test_task0_excluded_from_mean_ifm(self):
        records = [rec(0, 1.0, i=0.0), rec(1, 0.8, i=10.0), rec(2, 0.6, i=30.0)]
        s = summarize(records)
        assert s["mean_ifm"] == pytest.approx(20.0)
        assert s["mean_global_acc"] == pytest.approx((1.0 + 0.8 + 0.6) / 3)

    def test_mean_matches_independent_recomputation(self):
        gs = [0.91, 0.85, 0.77, 0.70]
        records = [rec(i, g, i=float(i)) for i, g in enumerate(gs)]
        s = summarize(records)
        assert s["mean_global_acc"] == pytest.approx(math.fsum(gs) / len(gs))

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            summarize([])
