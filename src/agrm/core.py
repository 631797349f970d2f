"""Arithmetic graded response model over an ordinal grade scale.

A response with ability ``theta`` to an item with base difficulty ``beta1``
and arithmetic step ``gamma`` is graded on ``1..k``.  The cumulative curves
sit at equally spaced thresholds

    beta_m = beta1 + (m - 1) * gamma,    m = 1 .. k-1,

and grade ``m`` occupies the band between the cumulative curves at
``beta_{m-1}`` and ``beta_m`` (grade 1 sits below ``beta_1``, grade ``k``
above ``beta_{k-1}``).  Written against the base threshold this means grade
``m``'s lower curve is at ``beta1 + (m - 2) * gamma``.  Whenever

    gamma > 2 * ln(2) / (d * alpha)

the grade distribution is unimodal in theta; that guarantee is the reason for
the arithmetic threshold layout.

Each band's mass is the difference of its two cumulative curves, as in
Samejima's graded response model, and is computed from them as

    sigma(z_a) - sigma(z_b) = sigma(z_a) * sigma(-z_b) * (1 - e^(z_b - z_a)),

a product that does not cancel at any z, where z = d * alpha * (theta - b)
at a threshold b.

The scaling constant ``d`` = ``D`` = 1.7 and the discrimination ``alpha`` =
``ALPHA`` = 1 are the published constants, fixed here rather than passed in.
The masses see them only through their product, which multiplies theta,
beta1 and gamma alike, so any other pair would only change the units of
those three.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "D",
    "ALPHA",
    "AgrmParams",
    "GeneralGrmParams",
    "ProbVector",
    "sigmoid",
    "sigmoid_array",
    "softplus_array",
    "category_probs",
    "agrm_probs",
    "agrm_probs_batch",
    "agrm_probs_unchecked",
    "normalized_rows",
    "gamma_threshold",
    "peak_ability",
    "boundary_thetas",
    "boundary_thetas_batch",
    "modal_grade",
    "is_unimodal",
    "is_unimodal_batch",
    "expected_score",
    "expected_score_batch",
    "rescale_score",
]

# Entries may undershoot 0 or overshoot 1 by a few ulp when sigmoid
# differences are taken near saturation; anything beyond this is a bug.
_ENTRY_SLACK = 1e-15
# how far a row of masses may sum away from 1
_SUM_SLACK = 1e-12
# dips and bumps this small, as in saturated tails that agree to float
# precision, do not break a rise or a fall into separate modes
_UNIMODAL_SLACK = 1e-12

D = 1.7
ALPHA = 1.0
# the curves' scale d * alpha, the only form in which the kernels use either
_SCALE = D * ALPHA
# z is clamped to +/- this before use.  That moves no mass, since e^-|z|
# underflows to 0 beyond 745 either way, and an overflowing threshold
# (z = -inf) then meets its neighbour with a gap of 0, not inf - inf = nan
_Z_CAP = 800.0


def _is_count(v, lo: int = 0) -> bool:
    """An integer >= lo; bools (JSON's true and false) are refused."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _require_count(name: str, v, lo: int) -> None:
    """The count rule, for the grade count, sizes, seeds and epochs alike."""
    if not _is_count(v, lo):
        raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")


def _is_real(v) -> bool:
    """A finite int or float, not a bool; an int too large for a float
    fails the bound, as nan and inf do, without being converted."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _require_finite(name: str, v) -> None:
    """The finite-number rule."""
    if not _is_real(v):
        raise ValueError(f"{name} must be finite, got {v!r}")


def _require_non_negative(name: str, v) -> None:
    """The finite-number rule at 0 and above, for rates, weights and noise levels."""
    if not (_is_real(v) and v >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def _float_array(name: str, values) -> np.ndarray:
    """``values`` as float64; an integer too large for a float is refused by name."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds a number too large for a float") from None


def _finite_vector(name: str, values) -> np.ndarray:
    """The score and feature vector rule: ``values`` as a non-empty 1-d
    float64 vector of finite entries."""
    arr = _float_array(name, values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class AgrmParams:
    """Item/response parameters with arithmetically spaced thresholds."""

    theta: float
    beta1: float
    gamma: float
    k: int = 5

    def __post_init__(self) -> None:
        for name in ("theta", "beta1", "gamma"):
            _require_finite(name, getattr(self, name))
        _require_count("k", self.k, 2)

    def thresholds(self) -> list[float]:
        """The k-1 cumulative thresholds beta1 + (m - 1) * gamma."""
        return [self.beta1 + m * self.gamma for m in range(self.k - 1)]

    def to_general(self) -> "GeneralGrmParams":
        return GeneralGrmParams(theta=self.theta, thresholds=tuple(self.thresholds()))


@dataclass(frozen=True)
class GeneralGrmParams:
    """Graded response parameters with free (non-decreasing) thresholds."""

    theta: float
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite("theta", self.theta)
        if len(self.thresholds) < 1:
            raise ValueError("need at least one threshold")
        for b in self.thresholds:
            _require_finite("threshold", b)
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if hi < lo:
                raise ValueError(f"thresholds must be non-decreasing, got {self.thresholds!r}")

    @property
    def k(self) -> int:
        return len(self.thresholds) + 1


class ProbVector(Sequence[float]):
    """Probability mass over grades 1..k, validated at construction.

    At least two grades, and the one row must pass ``normalized_rows``, the
    mass rule every batch path applies; construction fails otherwise, with
    ``_mass_refusal``'s message, so downstream code never sees an
    unnormalized vector.
    """

    __slots__ = ("_p",)

    def __init__(self, values: Sequence[float]):
        p = tuple(float(v) for v in values)
        if len(p) < 2:
            raise ValueError("need at least two grades")
        row = np.array([p])
        if not normalized_rows(row)[0]:
            raise ValueError(_mass_refusal(row[0]))
        self._p = p

    def __len__(self) -> int:
        return len(self._p)

    def __getitem__(self, index):
        return self._p[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self._p)

    def __repr__(self) -> str:
        return f"ProbVector({list(self._p)!r})"


def sigmoid(x: float) -> float:
    """Logistic function 1 / (1 + e^-x), safe against overflow at both tails."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def category_probs(p: GeneralGrmParams) -> ProbVector:
    """Per-grade mass as adjacent differences of the cumulative curves."""
    s = [sigmoid(_SCALE * (p.theta - b)) for b in p.thresholds]
    out = [1.0 - s[0]]
    out.extend(s[i - 1] - s[i] for i in range(1, len(s)))
    out.append(s[-1])
    return ProbVector(out)


def agrm_probs(p: AgrmParams) -> ProbVector:
    """Per-grade mass under arithmetic thresholds, stable at any spacing.

    The scalar reference for ``agrm_probs_batch``, the same formula in
    ``math``: the edge grades are sigma(-z_0) and sigma(z_{k-2}), and each
    middle grade is sigma(z_m) sigma(-z_{m+1}) (1 - e^{z_{m+1} - z_m}).
    Requires gamma >= 0 (decreasing thresholds have no coherent grade bands).
    """
    if p.gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {p.gamma!r}")
    # z at each of the k-1 thresholds beta1 + m * gamma, m = 0 .. k-2
    z = [
        min(max(_SCALE * (p.theta - (p.beta1 + m * p.gamma)), -_Z_CAP), _Z_CAP)
        for m in range(p.k - 1)
    ]
    out = [sigmoid(-z[0])]
    out.extend(
        sigmoid(z[m]) * sigmoid(-z[m + 1]) * (0.0 - math.expm1(z[m + 1] - z[m]))
        for m in range(p.k - 2)
    )
    out.append(sigmoid(z[-1]))
    return ProbVector(out)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """``sigmoid`` element-wise: 1 / (1 + e) for x >= 0, e / (1 + e) below,
    with e = exp(-|x|); the numerator exp(min(x, 0)) is 1 or e exactly."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def softplus_array(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) element-wise, without overflow."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _first_bad(
    name: str, values: np.ndarray, bad: np.ndarray, what: str, first_row: int = 0
) -> ValueError:
    """The error for the first flagged entry, naming its row counted from
    ``first_row``."""
    i = int(np.argmax(bad.reshape(-1)))
    row = np.unravel_index(i, bad.shape)[0] + first_row
    return ValueError(f"{name} {float(values.reshape(-1)[i])!r} {what} (row {row})")


@functools.lru_cache(maxsize=64)
def _steps(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n - 1.0 as one shared read-only vector per n."""
    out = np.arange(float(n))
    out.setflags(write=False)
    return out


def _grade_sum(a: np.ndarray) -> np.ndarray:
    """The sums over the first axis of a grade-first (k, ...) array, bit for
    bit those of ``np.add.reduce`` over a contiguous last axis of k terms.

    NumPy adds fewer than 8 such terms in sequence, as a reduction over the
    first axis does, so there each add runs over whole rows.  From 8 terms
    on its pairwise sum keeps interleaved partial sums, and the array is
    copied into the last-axis layout and summed by NumPy itself, so the
    order is NumPy's own at every k and every batch size.
    """
    if len(a) < 8:
        return np.add.reduce(a, axis=0)
    return np.add.reduce(np.ascontiguousarray(a.T), axis=-1).T


def _cell_probs(theta, beta1, gamma, k: int, steps: np.ndarray) -> np.ndarray:
    """The masses of the cells that the thresholds beta1 + steps * gamma cut
    the grade scale of the k-grade model into, grade first: (r + 1, N) for
    r thresholds and N items.

    ``steps`` holds r >= 1 ascending, consecutive threshold indices (floats
    in 0 .. k-2), shared by every item as an (r, 1) column or one window per
    item as (r, N).  Cell 0 lies below the first threshold, sigma(-z), cell
    r above the last, sigma(z), and each cell between them is one grade;
    with every threshold, ``_steps(k - 1)[:, None]``, the cells are the k
    grades.  ``theta``, ``beta1`` and ``gamma`` are as in
    ``agrm_probs_unchecked``, and nothing is checked.  The arithmetic reads
    the thresholds alone; ``k`` names the model they are cut from, so a
    stand-in for this function (the verify tests' fault injection) can
    build that model's full rows.

    One pass over z at the window's thresholds, clamped to +/-``_Z_CAP``:
    e = exp(-|z|) gives sigma(z) and sigma(-z) as 1 / (1 + e) and
    e / (1 + e), swapped where z < 0.  The cell between thresholds a and
    b = a + 1 is

        sigma(z_a) - sigma(z_b) = sigma(z_a) sigma(-z_b) (1 - e^{z_b - z_a}),

    a product with no cancellation.  It takes the gap between the computed
    z's rather than d * alpha * gamma, so the masses telescope to 1 at any
    offset.  Saturated tails underflow to 0.  Each entry comes from the
    same float operations on the same z whatever the window, so a grade's
    mass is bitwise the same in every window that holds its two thresholds,
    and an end cell at threshold 0 or k-2 is bitwise grade 1 or grade k.
    """
    # thresholds down the rows and items along them, so every step runs over
    # contiguous items
    z = steps * gamma
    z += beta1
    np.subtract(theta, z, out=z)
    z *= _SCALE
    np.maximum(z, -_Z_CAP, out=z)
    np.minimum(z, _Z_CAP, out=z)
    # e = exp(-|z|), then in place s = e / (1 + e) and r = 1 / (1 + e)
    s = np.abs(z)
    np.negative(s, out=s)
    np.exp(s, out=s)
    r = 1.0 + s
    np.divide(s, r, out=s)
    np.divide(1.0, r, out=r)
    pos = z >= 0.0
    up = np.where(pos, r, s)  # sigma(z)
    down = np.where(pos, s, r)  # sigma(-z)
    out = np.empty((len(z) + 1, theta.size))
    out[0] = down[0]
    out[-1] = up[-1]
    # the gaps z_{m+1} - z_m reuse s; 0.0 - expm1 rather than -expm1, so
    # that a zero gap (gamma = 0) gives +0.0
    gap = np.subtract(z[1:], z[:-1], out=s[1:])
    np.expm1(gap, out=gap)
    mid = out[1:-1]
    np.multiply(up[:-1], down[1:], out=mid)
    mid *= np.subtract(0.0, gap, out=gap)
    return out


def agrm_probs_unchecked(theta, beta1, gamma, k: int = 5) -> np.ndarray:
    """The arithmetic of ``agrm_probs_batch`` without any of its checks:
    ``_cell_probs`` over all k-1 thresholds, the one full-row kernel.

    ``theta``, ``beta1`` and ``gamma`` must be float64 vectors of one length
    with finite entries and gamma >= 0, and k >= 2; the rows that come out
    are not checked either (``normalized_rows`` does that).  This runs
    under the caller's ``np.errstate`` (NumPy ignores underflow by
    default); ``agrm_probs_batch`` and ``agrm verify`` ignore it
    explicitly, once around their calls.  ``agrm verify``'s probes read one
    or two grades each and call ``_cell_probs`` with only the two
    thresholds around them, which gives those grades bit for bit.

    The masses fill a grade-first (k, N) array, and the (N, k) result is
    its transpose, a view: its ``.T`` is that array, each grade one
    contiguous row, which is what the mass rule, the mean grade, the
    unimodality check and the backward's slopes read.
    """
    return _cell_probs(theta, beta1, gamma, k, _steps(k - 1)[:, None]).T


def _in_range(probs: np.ndarray) -> np.ndarray:
    """Entry mask: within [0, 1] up to ``_ENTRY_SLACK``; False for NaN."""
    return (probs >= -_ENTRY_SLACK) & (probs <= 1.0 + _ENTRY_SLACK)


def normalized_rows(probs: np.ndarray) -> np.ndarray:
    """The mass rule, as a row mask of an (N, k) mass array: True where every
    entry lies in [0, 1] up to ``_ENTRY_SLACK`` and the row's sum is within
    ``_SUM_SLACK`` of 1.  ``ProbVector`` applies it to its one row, so the
    mask is True exactly where ``ProbVector`` accepts the row.  It reads
    the masses grade first, the kernel's own layout."""
    ok = np.abs(_grade_sum(probs.T) - 1.0) <= _SUM_SLACK
    # the entry-wise pass runs only when some entry is out of range (or NaN);
    # the two flat reductions that screen for it cost far less than row-wise
    # ones at small k
    if probs.size and not (probs.min() >= -_ENTRY_SLACK and probs.max() <= 1.0 + _ENTRY_SLACK):
        ok &= _in_range(probs.T).all(axis=0)
    return ok


def _mass_refusal(row: np.ndarray) -> str:
    """Why ``normalized_rows`` refuses a (k,) row: its first entry out of
    range, else its sum."""
    in_range = _in_range(row)
    if not in_range.all():
        return f"entry {float(row[np.argmin(in_range)])!r} outside [0, 1]"
    return f"mass sums to {float(row.sum())!r}, not 1"


@np.errstate(under="ignore")
def agrm_probs_batch(theta, beta1, gamma, k: int = 5) -> np.ndarray:
    """``agrm_probs`` for N items at once: row i holds the k grade masses of item i.

    ``theta``, ``beta1`` and ``gamma`` are length-N vectors sharing one
    ``k``.  The arithmetic per entry is that of the scalar function, and so
    are the checks (finite inputs, gamma >= 0, and ``normalized_rows`` on
    the output); a failing check names the first offending row.  The input
    checks screen first and check exactly only when the screen fails (see
    ``_checked_probs``).  Underflow to 0 in a saturated tail is expected and
    not reported.
    """
    _require_count("k", k, 2)
    theta, beta1, gamma = (np.asarray(v, dtype=np.float64) for v in (theta, beta1, gamma))
    if theta.ndim != 1 or not theta.shape == beta1.shape == gamma.shape:
        raise ValueError(
            f"theta, beta1, gamma must be vectors of one length, got shapes "
            f"{theta.shape}, {beta1.shape}, {gamma.shape}"
        )
    return _checked_probs(theta, beta1, gamma, k)


def _checked_probs(theta, beta1, gamma, k: int, first_row: int = 0) -> np.ndarray:
    """``agrm_probs_batch`` past its argument checks, under the caller's
    ``np.errstate``: float64 vectors of one length and k >= 2, as the head's
    forward builds them.  A refusal names its row counted from
    ``first_row``, the input row of entry 0 when the vectors are one block
    of a longer input.

    Screen, then check exactly: the greatest magnitude over the three
    vectors is finite only when every entry is, and the least gamma says
    whether any is negative.  Only when that screen fails do the per-vector
    checks run, and then one of them raises, naming the same row and value
    as it would without the screen.  Unlike a sum, a greatest magnitude
    neither overflows nor sets off a floating-point warning.
    """
    if theta.size == 0:
        return np.empty((0, k))
    if not (np.abs(np.concatenate((theta, beta1, gamma))).max() < math.inf and gamma.min() >= 0.0):
        for name, arr in (("theta", theta), ("beta1", beta1), ("gamma", gamma)):
            if not np.isfinite(arr).all():
                raise _first_bad(name, arr, ~np.isfinite(arr), "is not finite", first_row)
        if gamma.min() < 0.0:
            raise _first_bad("gamma", gamma, gamma < 0.0, "must be >= 0", first_row)
    out = agrm_probs_unchecked(theta, beta1, gamma, k)
    ok = normalized_rows(out)
    if not ok.all():
        row = int(np.argmin(ok))
        raise ValueError(f"{_mass_refusal(out[row])} (row {row + first_row})")
    return out


def gamma_threshold() -> float:
    """Smallest threshold spacing that guarantees unimodality: 2 ln2 / (d * alpha),
    0.815 at the fixed ``D`` and ``ALPHA``."""
    return 2.0 * math.log(2.0) / _SCALE


def peak_ability(p: AgrmParams, m: int) -> float:
    """Ability at which interior grade m is most likely: (beta_{m-1} + beta_m) / 2.

    Defined for 2 <= m <= k-1; the edge grades peak at the ends of the scale
    rather than at a finite ability.
    """
    if not 2 <= m <= p.k - 1:
        raise ValueError(f"interior grade index must be in [2, {p.k - 1}], got {m}")
    return p.beta1 + (m - 1.5) * p.gamma


def _require_distinct_crossings(k: int) -> None:
    if k < 3:
        raise ValueError("boundary crossings are distinct only for k >= 3")


def boundary_thetas(p: AgrmParams) -> tuple[float, float]:
    """Abilities where the edge grades hand over to their neighbors.

    Returns (theta1, theta2) with P_1(theta1) = P_2(theta1) and
    P_{k-1}(theta2) = P_k(theta2):

        theta1 = beta1    - ln(1 - 2 e^{-c gamma}) / c
        theta2 = beta_{k-2} + ln(e^{c gamma} - 2) / c,    c = d * alpha = 1.7

    Both logarithms share the argument 1 - 2 e^{-c gamma} (the second after
    factoring out e^{c gamma}), so both exist exactly when gamma > ln2 / c
    = 0.408.  Needs k >= 3: with only one threshold the two stated equalities
    are the same crossing at beta1.
    """
    _require_distinct_crossings(p.k)
    g = _SCALE * p.gamma
    t = 2.0 * math.exp(-g)
    if t >= 1.0:
        raise ValueError(
            "log argument 1 - 2*exp(-d*alpha*gamma) is not positive; "
            f"need gamma > ln(2)/(d*alpha) = {math.log(2.0) / _SCALE!r}, got {p.gamma!r}"
        )
    log_arg = math.log1p(-t)
    theta1 = p.beta1 - log_arg / _SCALE
    theta2 = (p.beta1 + (p.k - 3) * p.gamma) + (g + log_arg) / _SCALE
    return theta1, theta2


def boundary_thetas_batch(beta1, gamma, k: int = 5):
    """``boundary_thetas`` for N items sharing k: (theta1, theta2) vectors.

    Same arithmetic as the scalar function; every row needs
    gamma > ln2 / (d * alpha), and the error names the first that does not.
    """
    _require_distinct_crossings(k)
    beta1, gamma = (np.asarray(v, dtype=np.float64) for v in (beta1, gamma))
    g = _SCALE * gamma
    with np.errstate(under="ignore"):
        t = 2.0 * np.exp(-g)
    # one mask decides and reports, so the two cannot disagree on a row
    ok = t < 1.0
    if not ok.all():
        raise _first_bad("gamma", gamma, ~ok, f"is not above ln(2)/(d*alpha) = {math.log(2.0) / _SCALE!r}")
    log_arg = np.log1p(-t)
    theta1 = beta1 - log_arg / _SCALE
    theta2 = (beta1 + (k - 3) * gamma) + (g + log_arg) / _SCALE
    return theta1, theta2


def modal_grade(probs: Sequence[float]) -> int:
    """1-based index of the largest mass; exact ties go to the lower grade."""
    v = list(probs)
    if not v:
        raise ValueError("empty probability vector")
    return v.index(max(v)) + 1


def is_unimodal(probs: Sequence[float]) -> bool:
    """True when the vector rises to a single peak and falls afterwards.

    Comparisons carry the slack ``_UNIMODAL_SLACK`` = 1e-12, fixed here
    rather than passed in: dips on the rising side and bumps on the falling
    side no larger than it still count as monotone, so saturated tail
    entries that agree to float precision do not read as extra modes.  The
    peak itself may be a plateau of width two (an exact crossing), never
    wider.
    """
    v = list(probs)
    if len(v) < 2:
        raise ValueError("need at least two grades")
    vmax = max(v)
    peak = v.index(vmax)
    for i in range(peak):
        if v[i + 1] - v[i] < -_UNIMODAL_SLACK:
            return False
    for i in range(peak, len(v) - 1):
        if v[i + 1] - v[i] > _UNIMODAL_SLACK:
            return False
    plateau = 1
    while peak - plateau >= 0 and v[peak - plateau] >= vmax - _UNIMODAL_SLACK:
        plateau += 1
    j = peak + 1
    while j < len(v) and v[j] >= vmax - _UNIMODAL_SLACK:
        plateau += 1
        j += 1
    return plateau <= 2


def is_unimodal_batch(probs: np.ndarray) -> np.ndarray:
    """``is_unimodal`` for each row of an (N, k) array of finite masses.

    Same comparisons as the scalar function: rises to the first maximum and
    falls after it, each step with slack ``_UNIMODAL_SLACK``, and at most two
    entries within that slack of the maximum next to each other around it.
    The masses are read grade first, so each step runs over whole grades.
    """
    by_grade = np.asarray(probs, dtype=np.float64).T
    if by_grade.ndim != 2 or len(by_grade) < 2:
        raise ValueError(f"need an (N, k) array with k >= 2, got shape {by_grade.T.shape}")
    k, n = by_grade.shape
    peak = by_grade.argmax(axis=0)[None]
    step = np.diff(by_grade, axis=0)
    # steps up to the peak may dip by the slack, steps after it rise by it
    monotone = (np.where(np.arange(k - 1)[:, None] < peak, -step, step) <= _UNIMODAL_SLACK).all(axis=0)
    # near-maximal entries, padded by two grades a side so the peak's
    # neighbours at distance 1 and 2 can be read without bounds checks
    near = np.zeros((k + 4, n), dtype=bool)
    near[2:-2] = by_grade >= np.take_along_axis(by_grade, peak, axis=0) - _UNIMODAL_SLACK
    left2, left1, right1, right2 = np.take_along_axis(near, peak + np.array([[0], [1], [3], [4]]), axis=0)
    # the plateau is 1 + (near run left of the peak) + (near run right of it)
    return monotone & ~(left1 & (left2 | right1)) & ~(right1 & right2)


def expected_score(probs: Sequence[float]) -> float:
    """Mean grade sum_m m * P_m over the 1-based grade scale."""
    v = list(probs)
    if not v:
        raise ValueError("empty probability vector")
    return math.fsum((i + 1) * p for i, p in enumerate(v))


def expected_score_batch(probs: np.ndarray) -> np.ndarray:
    """``expected_score`` of each row of a (..., k) mass array, within an ulp.

    A plain sum of the k terms can land 2 ulp away from the correctly
    rounded mean that ``expected_score`` gives.  Here the running sums come
    from ``cumsum``, which adds one grade at a time; TwoSum recovers the
    exact rounding error of each of those additions, and the errors are
    added back once (``_grade_sum``), which keeps the result within an ulp
    of it.  Every row is still reduced on its own, and the terms are laid
    out grade first (the transpose of the kernel's (N, k) view is
    contiguous), so each step runs over whole grades.  No grades is the
    scalar function's error.
    """
    if not probs.shape[-1]:
        raise ValueError("empty probability vector")
    terms = (probs * _steps(probs.shape[-1] + 1)[1:]).T
    run = terms.cumsum(axis=0)
    s, t, x = run[:-1], run[1:], terms[1:]  # t = fl(s + x)
    z = t - s
    return (run[-1] + _grade_sum((s - (t - z)) + (x - z))).T


def rescale_score(q: float, k: int) -> float:
    """Affine map of a mean grade from [1, k] onto the [0, 5] rating scale."""
    _require_count("k", k, 2)
    _require_finite("q", q)
    # the multiply can overshoot an endpoint by an ulp; the contract is [0, 5]
    return min(5.0, max(0.0, (q - 1.0) * 5.0 / (k - 1.0)))
