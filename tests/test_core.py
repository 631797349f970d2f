"""Tests for the arithmetic graded response core."""

import dataclasses
import math

import numpy as np
import pytest

from agrm import core
from agrm.core import (
    AgrmParams,
    GeneralGrmParams,
    ProbVector,
    agrm_probs,
    boundary_thetas,
    category_probs,
    expected_score,
    gamma_threshold,
    is_unimodal,
    modal_grade,
    peak_ability,
    rescale_score,
    sigmoid,
)


def naive_sigmoid(x):
    """Textbook logistic, valid only away from overflow; used as an oracle."""
    return 1.0 / (1.0 + math.exp(-x))


def naive_probs(theta, thresholds, scale):
    """Plain cumulative differences with no stability tricks."""
    s = [naive_sigmoid(scale * (theta - b)) for b in thresholds]
    out = [1.0 - s[0]]
    out.extend(s[i - 1] - s[i] for i in range(1, len(s)))
    out.append(s[-1])
    return out


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1.7) == pytest.approx(0.8455347349164652, abs=1e-15)

    def test_matches_naive_in_safe_range(self):
        xs = np.linspace(-30, 30, 401)
        for x in xs:
            assert sigmoid(float(x)) == pytest.approx(naive_sigmoid(x), abs=1e-15)

    def test_symmetry(self):
        for x in (-12.3, -1.0, 0.0, 0.5, 7.7):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)

    def test_extremes_do_not_overflow(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0

    def test_monotone(self):
        xs = np.linspace(-40, 40, 1001)
        vals = [sigmoid(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


class TestParams:
    def test_agrm_defaults(self):
        p = AgrmParams(theta=0.0, beta1=-1.0, gamma=1.0)
        assert p.k == 5
        # the curve scale is fixed in the module, not carried per item
        assert [f.name for f in dataclasses.fields(AgrmParams)] == ["theta", "beta1", "gamma", "k"]
        assert (core.D, core.ALPHA) == (1.7, 1.0)

    def test_thresholds_are_arithmetic(self):
        p = AgrmParams(theta=0.0, beta1=-1.0, gamma=0.5, k=6)
        assert p.thresholds() == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_to_general_preserves_curves(self):
        p = AgrmParams(theta=0.3, beta1=-1.0, gamma=0.9, k=5)
        g = p.to_general()
        assert g.k == p.k
        assert g.theta == p.theta
        assert g.thresholds == tuple(p.thresholds())
        assert list(category_probs(g)) == pytest.approx(list(agrm_probs(p)), abs=1e-15)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=1)
        with pytest.raises(ValueError):
            AgrmParams(theta=math.nan, beta1=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            AgrmParams(theta=0.0, beta1=math.inf, gamma=1.0)

    def test_general_rejects_decreasing_thresholds(self):
        with pytest.raises(ValueError):
            GeneralGrmParams(theta=0.0, thresholds=(1.0, 0.0))

    def test_general_allows_equal_thresholds(self):
        g = GeneralGrmParams(theta=0.0, thresholds=(0.5, 0.5))
        probs = category_probs(g)
        assert probs[1] == 0.0

    def test_frozen(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=1.0)
        with pytest.raises(AttributeError):
            p.theta = 1.0


class TestProbVector:
    def test_valid_roundtrip(self):
        v = ProbVector([0.2, 0.3, 0.5])
        assert len(v) == 3
        assert list(v) == [0.2, 0.3, 0.5]
        assert v[1] == 0.3

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ProbVector([0.2, 0.3, 0.4])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            ProbVector([-0.1, 0.6, 0.5])

    def test_rejects_single_entry(self):
        with pytest.raises(ValueError):
            ProbVector([1.0])

    def test_sum_slack_is_fixed_and_shared_with_normalized_rows(self):
        # a row may miss 1 by 1e-12 and no more, in both checks; no caller
        # can widen the slack
        rows = np.array([[0.5, 0.5 + 5e-13], [0.5, 0.5 + 5e-12]])
        assert core.normalized_rows(rows).tolist() == [True, False]
        ProbVector(rows[0])
        with pytest.raises(ValueError, match="mass sums to"):
            ProbVector(rows[1])
        with pytest.raises(TypeError):
            ProbVector([0.9, 0.9], tol=float("nan"))


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


class TestCumulativeProb:
    """P(Y >= m), the mass of grades m..k, is the m-th boundary curve."""

    @staticmethod
    def tail(p, m):
        return math.fsum(list(agrm_probs(p))[m - 1 :])

    def test_matches_naive(self):
        p = AgrmParams(theta=0.4, beta1=-1.0, gamma=0.8, k=5)
        for m in range(2, 6):
            b = p.thresholds()[m - 2]
            assert self.tail(p, m) == pytest.approx(naive_sigmoid(1.7 * (0.4 - b)), abs=1e-15)

    def test_decreasing_in_threshold_index(self):
        p = AgrmParams(theta=0.0, beta1=-2.0, gamma=0.9, k=7)
        cs = [self.tail(p, m) for m in range(2, 8)]
        assert all(b < a for a, b in zip(cs, cs[1:]))


class TestCategoryProbs:
    def test_frozen_example(self):
        g = GeneralGrmParams(theta=0.0, thresholds=(-2.0, -1.0, 0.0, 1.0))
        expect = [
            0.03229546469845057,
            0.12216980038508418,
            0.34553473491646525,
            0.3455347349164653,
            0.1544652650835347,
        ]
        assert list(category_probs(g)) == pytest.approx(expect, abs=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            th = np.sort(rng.uniform(-5, 5, size=k - 1))
            g = GeneralGrmParams(theta=float(rng.uniform(-8, 8)), thresholds=tuple(th))
            assert math.fsum(category_probs(g)) == pytest.approx(1.0, abs=1e-12)


class TestAgrmProbs:
    def test_frozen_example(self):
        p = AgrmParams(theta=0.0, beta1=-1.0, gamma=1.0)
        expect = [
            0.15446526508353475,
            0.34553473491646525,
            0.3455347349164653,
            0.12216980038508418,
            0.032295464698450516,
        ]
        assert list(agrm_probs(p)) == pytest.approx(expect, abs=1e-14)

    def test_matches_naive_differences(self):
        """The one-pass band form agrees with plain cumulative differences."""
        rng = np.random.default_rng(11)
        for _ in range(500):
            k = int(rng.integers(2, 10))
            gamma = float(rng.uniform(0.01, 3.0))
            beta1 = float(rng.uniform(-4, 4))
            theta = float(rng.uniform(beta1 - 6, beta1 + (k - 2) * gamma + 6))
            p = AgrmParams(theta=theta, beta1=beta1, gamma=gamma, k=k)
            got = list(agrm_probs(p))
            want = naive_probs(theta, p.thresholds(), 1.7)
            assert got == pytest.approx(want, abs=1e-12)

    def test_huge_spacing_stays_normalized(self):
        """Spacing far beyond exp overflow still behaves."""
        for gamma in (25.0, 450.0, 2000.0):
            p = AgrmParams(theta=3.0, beta1=0.0, gamma=gamma, k=6)
            probs = agrm_probs(p)
            assert all(math.isfinite(v) and v >= 0.0 for v in probs)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
            curves = [sigmoid(1.7 * (p.theta - b)) for b in p.thresholds()]
            want = [hi - lo for hi, lo in zip(curves, curves[1:])]
            assert list(probs)[1:-1] == pytest.approx(want, abs=1e-12)

    def test_zero_spacing_collapses_middle(self):
        p = AgrmParams(theta=0.7, beta1=0.2, gamma=0.0, k=5)
        probs = agrm_probs(p)
        assert probs[1] == probs[2] == probs[3] == 0.0
        assert probs[0] + probs[4] == pytest.approx(1.0, abs=1e-15)

    def test_negative_spacing_rejected(self):
        with pytest.raises(ValueError):
            agrm_probs(AgrmParams(theta=0.0, beta1=0.0, gamma=-0.5))

    def test_two_grades(self):
        p = AgrmParams(theta=0.4, beta1=0.1, gamma=1.0, k=2)
        probs = agrm_probs(p)
        s = sigmoid(1.7 * (0.4 - 0.1))
        assert probs[1] == pytest.approx(s, abs=1e-15)
        assert probs[0] == pytest.approx(1.0 - s, abs=1e-15)

    def test_palindrome_at_scale_midpoint(self):
        """At theta centered between the outer thresholds the mass is symmetric."""
        p0 = AgrmParams(theta=0.0, beta1=-1.0, gamma=1.0, k=5)
        mid = (p0.thresholds()[0] + p0.thresholds()[-1]) / 2.0
        probs = list(agrm_probs(AgrmParams(theta=mid, beta1=-1.0, gamma=1.0, k=5)))
        assert probs == pytest.approx(probs[::-1], abs=1e-15)


# ---------------------------------------------------------------------------
# structure: threshold, peaks, crossings
# ---------------------------------------------------------------------------


class TestGammaThreshold:
    def test_default_value(self):
        assert gamma_threshold() == pytest.approx(0.8154672712469945, abs=1e-15)



class TestPeakAbility:
    def test_threshold_midpoint(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=5)
        assert peak_ability(p, 2) == pytest.approx(0.5)
        assert peak_ability(p, 3) == pytest.approx(1.5)
        assert peak_ability(p, 4) == pytest.approx(2.5)

    def test_grid_confirms_argmax(self):
        """Numeric argmax over a fine ability grid lands on the midpoint."""
        p = AgrmParams(theta=0.0, beta1=-1.0, gamma=1.2, k=5)
        for m in (2, 3, 4):
            grid = np.linspace(-4.0, 5.0, 9001)
            masses = [
                agrm_probs(AgrmParams(theta=float(t), beta1=-1.0, gamma=1.2, k=5))[m - 1]
                for t in grid
            ]
            best = grid[int(np.argmax(masses))]
            assert best == pytest.approx(peak_ability(p, m), abs=2e-3)

    def test_edge_grades_rejected(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=5)
        with pytest.raises(ValueError):
            peak_ability(p, 1)
        with pytest.raises(ValueError):
            peak_ability(p, 5)


class TestBoundaryThetas:
    def test_crossings_hold(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=5)
        t1, t2 = boundary_thetas(p)
        lo = agrm_probs(AgrmParams(theta=t1, beta1=0.0, gamma=1.0, k=5))
        hi = agrm_probs(AgrmParams(theta=t2, beta1=0.0, gamma=1.0, k=5))
        assert lo[0] == pytest.approx(lo[1], abs=1e-12)
        assert hi[3] == pytest.approx(hi[4], abs=1e-12)

    def test_frozen_example(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=5)
        t1, t2 = boundary_thetas(p)
        assert t1 == pytest.approx(0.2674755739558121, abs=1e-14)
        assert t2 == pytest.approx(2.732524426044188, abs=1e-14)

    def test_mirror_symmetry(self):
        """theta1 and theta2 mirror about the center of the threshold span."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(3, 10))
            gamma = float(rng.uniform(0.5, 4.0))
            beta1 = float(rng.uniform(-3, 3))
            p = AgrmParams(theta=0.0, beta1=beta1, gamma=gamma, k=k)
            t1, t2 = boundary_thetas(p)
            assert t1 + t2 == pytest.approx(beta1 + p.thresholds()[-1], abs=1e-9)

    def test_bisection_confirms_first_crossing(self):
        """Sign-change bisection on P1 - P2 recovers the closed form."""
        p = AgrmParams(theta=0.0, beta1=0.5, gamma=1.3, k=6)

        def diff(theta):
            v = agrm_probs(AgrmParams(theta=theta, beta1=0.5, gamma=1.3, k=6))
            return v[0] - v[1]

        lo, hi = 0.5, 0.5 + 1.3 / 2.0
        assert diff(lo) > 0.0 and diff(hi) < 0.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if diff(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert boundary_thetas(p)[0] == pytest.approx((lo + hi) / 2.0, abs=1e-12)

    def test_wide_spacing_collapses_to_base(self):
        p = AgrmParams(theta=0.0, beta1=1.0, gamma=40.0, k=5)
        t1, _ = boundary_thetas(p)
        assert t1 == pytest.approx(1.0, abs=1e-12)

    def test_sits_outside_interior_peaks_above_threshold(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=0.85, k=5)
        t1, t2 = boundary_thetas(p)
        assert t1 < peak_ability(p, 2)
        assert t2 > peak_ability(p, 4)

    def test_rejects_small_gamma_naming_logarithm(self):
        p = AgrmParams(theta=0.0, beta1=0.0, gamma=0.3, k=5)
        with pytest.raises(ValueError, match="log argument"):
            boundary_thetas(p)

    def test_rejects_gamma_on_the_threshold(self):
        # fl(2 e^(-1.7 gamma)) is exactly 1 at gamma = ln(2)/1.7
        gamma = math.log(2.0) / 1.7
        assert 2.0 * math.exp(-1.7 * gamma) == 1.0
        with pytest.raises(ValueError, match="log argument"):
            boundary_thetas(AgrmParams(theta=0.0, beta1=0.0, gamma=gamma, k=5))

    def test_rejects_two_grades(self):
        with pytest.raises(ValueError):
            boundary_thetas(AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=2))


# ---------------------------------------------------------------------------
# shape predicates
# ---------------------------------------------------------------------------


class TestModalGrade:
    def test_basic(self):
        assert modal_grade([0.1, 0.7, 0.2]) == 2

    def test_palindrome_picks_middle(self):
        assert modal_grade([0.1, 0.2, 0.4, 0.2, 0.1]) == 3

    def test_tie_goes_low(self):
        assert modal_grade([0.1, 0.4, 0.4, 0.1]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            modal_grade([])


class TestIsUnimodal:
    def test_single_interior_peak(self):
        assert is_unimodal([0.1, 0.2, 0.4, 0.2, 0.1])

    def test_two_separated_peaks(self):
        assert not is_unimodal([0.4, 0.1, 0.4, 0.1])

    def test_monotone_both_ways(self):
        assert is_unimodal([0.7, 0.2, 0.07, 0.03])
        assert is_unimodal([0.03, 0.07, 0.2, 0.7])

    def test_peak_plateau_of_two_allowed(self):
        assert is_unimodal([0.1, 0.35, 0.35, 0.2])

    def test_peak_plateau_of_three_rejected(self):
        assert not is_unimodal([0.1, 0.25, 0.25, 0.25, 0.15])

    def test_subtolerance_wiggle_ignored(self):
        # the fixed slack is 1e-12: smaller wiggles are ignored, larger bumps count
        v = [0.4, 0.3, 0.2 + 5e-14, 0.2, 0.1 - 5e-14, 0.1]
        assert is_unimodal(v)
        assert is_unimodal([0.4, 0.3, 0.2, 0.2 + 5e-14, 0.1])
        assert not is_unimodal([0.4, 0.3, 0.2, 0.2 + 5e-12, 0.1])
        assert not is_unimodal([0.1, 0.2, 0.2 - 5e-12, 0.3, 0.1])

    def test_saturated_tail_ties_allowed(self):
        assert is_unimodal([0.0, 0.0, 1e-300, 1e-16, 1.0 - 1e-16])
        assert is_unimodal([1.0 - 1e-16, 1e-16, 1e-300, 0.0, 0.0])

    def test_sub_threshold_counterexample_detected(self):
        """gamma far below the guarantee produces a three-peaked vector."""
        probs = agrm_probs(AgrmParams(theta=0.15, beta1=0.0, gamma=0.1, k=5))
        assert not is_unimodal(probs)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            is_unimodal([1.0])
        with pytest.raises(ValueError):
            is_unimodal([])


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


class TestScores:
    def test_uniform_mass_centers(self):
        assert expected_score([0.2] * 5) == pytest.approx(3.0, abs=1e-15)

    def test_matches_one_plus_cumulative_sum(self):
        """The mean grade telescopes to 1 + the sum of cumulative curves."""
        rng = np.random.default_rng(19)
        for _ in range(300):
            k = int(rng.integers(2, 10))
            p = AgrmParams(
                theta=float(rng.uniform(-6, 6)),
                beta1=float(rng.uniform(-3, 3)),
                gamma=float(rng.uniform(0.05, 2.5)),
                k=k,
            )
            q = expected_score(agrm_probs(p))
            csum = 1.0 + math.fsum(sigmoid(1.7 * (p.theta - b)) for b in p.thresholds())
            assert q == pytest.approx(csum, abs=1e-12)

    def test_monotone_in_ability(self):
        thetas = np.linspace(-8, 8, 400)
        qs = [
            expected_score(agrm_probs(AgrmParams(theta=float(t), beta1=-1.0, gamma=1.0)))
            for t in thetas
        ]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_rescale_endpoints(self):
        assert rescale_score(1.0, 5) == 0.0
        assert rescale_score(5.0, 5) == 5.0
        assert rescale_score(3.0, 5) == pytest.approx(2.5)
        assert rescale_score(1.0, 9) == 0.0
        assert rescale_score(9.0, 9) == 5.0

    def test_rescale_clamps_rounding_overshoot(self):
        """A mean grade an ulp past either endpoint must not leave [0, 5]."""
        assert rescale_score(math.nextafter(5.0, 6.0), 5) == 5.0
        assert rescale_score(math.nextafter(1.0, 0.0), 5) == 0.0
        assert rescale_score(math.nextafter(9.0, 10.0), 9) == 5.0

    def test_rescale_rejects_degenerate_scale(self):
        with pytest.raises(ValueError):
            rescale_score(1.0, 1)
