"""Tests for losses and agreement metrics."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from agrm.losses import (
    ScoreBatch,
    mae_loss,
    midranks,
    plcc_loss,
    plcc_metric,
    srcc,
    total_loss,
)


class TestScoreBatch:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ScoreBatch(predicted=[1.0, 2.0], target=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ScoreBatch(predicted=[1.0, math.nan], target=[1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScoreBatch(predicted=[], target=[])

    def test_len(self):
        assert len(ScoreBatch(predicted=[1.0, 2.0, 3.0], target=[0.0, 0.0, 0.0])) == 3


class TestMae:
    def test_frozen_example(self):
        assert mae_loss(ScoreBatch(predicted=[0.0, 5.0], target=[5.0, 0.0])) == 5.0

    def test_zero_at_identity(self):
        b = ScoreBatch(predicted=[1.0, 2.5, 4.0], target=[1.0, 2.5, 4.0])
        assert mae_loss(b) == 0.0

    def test_shift_by_constant(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(0, 5, 20)
        assert mae_loss(ScoreBatch(predicted=q + 0.25, target=q)) == pytest.approx(0.25)


class TestPlccLoss:
    def test_identical_scores_near_zero(self):
        q = np.array([1.0, 2.0, 3.0])
        assert plcc_loss(ScoreBatch(predicted=q, target=q.copy())) < 1e-9

    def test_anticorrelated_frozen(self):
        b = ScoreBatch(predicted=[0.0, 5.0], target=[5.0, 0.0])
        assert plcc_loss(b) == pytest.approx(3.999999968, abs=1e-12)

    def test_needs_two_scores(self):
        with pytest.raises(ValueError):
            plcc_loss(ScoreBatch(predicted=[1.0], target=[2.0]))

    def test_constant_predictions_stay_finite(self):
        b = ScoreBatch(predicted=[2.0, 2.0, 2.0], target=[1.0, 2.0, 3.0])
        assert math.isfinite(plcc_loss(b))

    def test_perfectly_correlated_affine_near_zero(self):
        """Standardization removes scale and shift, so affine matches score 0."""
        t = np.array([0.5, 1.0, 2.0, 4.5])
        b = ScoreBatch(predicted=3.0 * t + 1.0, target=t)
        assert plcc_loss(b) < 1e-9


class TestTotalLoss:
    def test_composition(self):
        b = ScoreBatch(predicted=[0.5, 1.5, 4.0], target=[1.0, 2.0, 3.5])
        assert total_loss(b, lam=0.5) == pytest.approx(
            mae_loss(b) + 0.5 * plcc_loss(b), abs=1e-15
        )

    def test_lambda_zero_is_mae(self):
        b = ScoreBatch(predicted=[0.5, 1.5, 4.0], target=[1.0, 2.0, 3.5])
        assert total_loss(b, lam=0.0) == mae_loss(b)

    def test_negative_lambda_rejected(self):
        b = ScoreBatch(predicted=[1.0, 2.0], target=[1.0, 2.0])
        with pytest.raises(ValueError):
            total_loss(b, lam=-1.0)


def midranks_oracle(values):
    """Reference mid-ranks: walk the sorted values one tie run at a time."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        # positions i..j (0-based) share the value; mean 1-based rank
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1.0 + 2**-52, 3.0, 1e300]),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_loop_oracle_under_heavy_ties(self, values):
        assert np.array_equal(midranks(values), midranks_oracle(values))

    def test_no_ties(self):
        assert list(midranks([3.0, 1.0, 2.0])) == [3.0, 1.0, 2.0]

    def test_tie_group_averages(self):
        assert list(midranks([1.0, 2.0, 2.0, 3.0])) == [1.0, 2.5, 2.5, 4.0]

    def test_all_equal(self):
        assert list(midranks([7.0, 7.0, 7.0])) == [2.0, 2.0, 2.0]

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.integers(0, 6, size=30).astype(float)
            assert list(midranks(x)) == pytest.approx(
                list(scipy.stats.rankdata(x)), abs=0
            )


class TestSrcc:
    def test_tie_example_frozen(self):
        got = srcc([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert got == pytest.approx(4.5 / math.sqrt(22.5), abs=1e-14)
        assert got == pytest.approx(0.9487, abs=1e-4)

    def test_monotone_nonlinear_is_one(self):
        t = np.linspace(0, 5, 20)
        assert srcc(np.exp(t), t) == pytest.approx(1.0, abs=1e-14)

    def test_reversal_is_minus_one(self):
        t = np.linspace(0, 5, 20)
        assert srcc(-t, t) == pytest.approx(-1.0, abs=1e-14)

    def test_constant_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning, match="constant"):
            assert srcc([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            a = rng.integers(0, 8, size=n).astype(float)
            b = rng.normal(size=n).round(1)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            want = scipy.stats.spearmanr(a, b).statistic
            assert srcc(a, b) == pytest.approx(want, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            srcc([1.0, 2.0], [1.0, 2.0, 3.0])


class TestPlccMetric:
    def test_matches_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            a = rng.normal(size=n)
            b = 0.5 * a + rng.normal(size=n)
            want = scipy.stats.pearsonr(a, b).statistic
            assert plcc_metric(a, b) == pytest.approx(want, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = plcc_metric(x, y)
        for a, b in [(2.0, 0.0), (0.5, -3.0), (17.0, 100.0)]:
            assert plcc_metric(a * x + b, y) == pytest.approx(base, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = rng.normal(size=10)
            r = plcc_metric(a, 3.0 * a + 1e-9 * rng.normal(size=10))
            assert -1.0 <= r <= 1.0

    def test_constant_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning, match="constant"):
            assert plcc_metric([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0
