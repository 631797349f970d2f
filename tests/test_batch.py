"""Tests for the batched array path: grade masses, head forward and backward.

The scalar ``core.agrm_probs`` is the oracle for the batch kernel, and a
one-row forward is the oracle for every row of a batch.
"""

import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrm import core, data, head, losses
from agrm.gradients import batch_loss_and_grads, fd_check
from agrm.head import (
    ABLATIONS,
    ACTIVATIONS,
    AGG_MODES,
    FeaturePair,
    HeadBatch,
    HeadConfig,
    _forward,
    batch_scores,
    feature_matrix,
    forward_blocks,
    head_forward,
    init_head,
)

# the 16 configurations of acceptance check C6, then the three ablations
# that are not the default head
CONFIGS = [
    HeadConfig(k=k, activation=act, agg_mode=agg)
    for act in ACTIVATIONS
    for agg in AGG_MODES
    for k in (3, 5)
] + [HeadConfig(ablation=abl) for abl in ABLATIONS if abl != "none"]


def config_id(cfg):
    return f"{cfg.activation}-{cfg.agg_mode}-k{cfg.k}-{cfg.ablation}"


def assembled(batches):
    """One ``HeadBatch`` of the given blocks' ``HeadBatch``es, in order."""
    return HeadBatch(*(None if f[0] is None else np.concatenate(f) for f in zip(*batches)))


def streamed(hp, items):
    """Every field of ``forward_blocks(hp, items)``, its blocks concatenated."""
    return assembled([batch for _, batch in forward_blocks(hp, items)])


# ---------------------------------------------------------------------------
# grade-mass kernel against the scalar oracle
# ---------------------------------------------------------------------------

# theta, beta1 and gamma reach as far in z = c (theta - beta) and g = c gamma,
# at the fixed c = d * alpha = 1.7, as they would at a scale of 6
WIDE = 6.0 / 1.7
spacing = st.one_of(
    st.just(0.0),  # g == 0: every middle band is empty
    st.floats(0.0, WIDE),
    st.floats(WIDE, 40.0 * WIDE),  # g beyond 30 from gamma 17.6
    st.floats(400.0 * WIDE, 5000.0 * WIDE),  # g beyond 700: e^-g underflows
)
item = st.tuples(st.floats(-200.0 * WIDE, 200.0 * WIDE), st.floats(-50.0 * WIDE, 50.0 * WIDE), spacing)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=st.lists(item, min_size=1, max_size=12), k=st.integers(2, 9))
@example(rows=[(0.3, 0.0, 1.0), (0.0, 0.0, 0.0)], k=5)  # g == 0
@example(rows=[(40.0, 0.0, 1.0), (-40.0, 0.0, 0.5)], k=6)  # |z| > 30
@example(rows=[(0.0, 0.0, 20.0), (10.0, 0.0, 500.0)], k=4)  # g > 30, g > 700
@example(rows=[(100.0, -3.0, 0.0)], k=3)  # g == 0 beside |z| > 30
def test_batch_masses_match_scalar_oracle(rows, k):
    theta, beta1, gamma = (np.array(col) for col in zip(*rows))
    with np.errstate(all="raise"):
        got = core.agrm_probs_batch(theta, beta1, gamma, k)
    assert got.shape == (len(rows), k)
    for i, (t, b, g) in enumerate(rows):
        want = core.agrm_probs(core.AgrmParams(theta=t, beta1=b, gamma=g, k=k))
        assert np.max(np.abs(got[i] - np.array(want))) <= 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.lists(item, min_size=1, max_size=12), k=st.integers(2, 7))
# a plain row sum of the k terms lands 2 ulp (1.8e-15) off here
@example(rows=[(7.9233702749177155, -0.4810167161935044, 2.983273971676615)], k=7)
def test_batch_mean_grade_matches_expected_score(rows, k):
    # q < 8 for k <= 7, where one ulp is below 1e-15
    theta, beta1, gamma = (np.array(col) for col in zip(*rows))
    probs = core.agrm_probs_batch(theta, beta1, gamma, k=k)
    q = core.expected_score_batch(probs)
    for i, row in enumerate(probs):
        assert abs(q[i] - core.expected_score(row)) <= 1e-15


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    rows=st.lists(item, min_size=1, max_size=12),
    offset=st.floats(-1e6, 1e6),
    k=st.integers(2, 64),
    pick=st.data(),
)
def test_window_cells_are_the_full_rows_entries(rows, offset, k, pick):
    """Each single-grade cell of a window is bitwise the full row's grade,
    and an end cell at threshold 0 or k-2 bitwise the edge grade, for
    windows shared by the rows and windows one per row."""
    theta, beta1, gamma = (np.array(col) for col in zip(*rows))
    theta, beta1 = theta + offset, beta1 + offset
    width = pick.draw(st.integers(1, k - 1), label="width")
    starts = st.integers(0, k - 1 - width)
    if pick.draw(st.booleans(), label="shared"):
        first = [pick.draw(starts, label="first")]
    else:
        first = pick.draw(st.lists(starts, min_size=len(rows), max_size=len(rows)), label="firsts")
    first = np.array(first, dtype=np.float64)
    steps = first + core._steps(width)[:, None]
    full = core.agrm_probs_unchecked(theta, beta1, gamma, k)
    cells = core._cell_probs(theta, beta1, gamma, k, steps)
    assert cells.shape == (width + 1, len(rows))
    at = np.arange(len(rows))
    grade = np.broadcast_to(first, at.shape).astype(np.int64)
    for j in range(1, width):
        assert cells[j].tobytes() == full[at, grade + j].tobytes()
    low, high = grade == 0, grade + width == k - 1
    assert cells[0][low].tobytes() == full[low, 0].tobytes()
    assert cells[-1][high].tobytes() == full[high, -1].tobytes()


class TestKernelChecks:
    def test_non_finite_input_names_row(self):
        with pytest.raises(ValueError, match=r"beta1 inf is not finite \(row 1\)"):
            core.agrm_probs_batch([0.0, 0.0], [0.0, math.inf], [1.0, 1.0])

    def test_negative_spacing_rejected(self):
        with pytest.raises(ValueError, match=r"gamma -0.5 must be >= 0 \(row 0\)"):
            core.agrm_probs_batch([0.0], [0.0], [-0.5])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            core.agrm_probs_batch([0.0, 1.0], [0.0], [1.0])

    def test_too_few_grades_rejected(self):
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            core.agrm_probs_batch([0.0], [0.0], [1.0], k=1)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_no_rows_give_no_masses(self, k):
        empty = np.empty(0)
        assert core.agrm_probs_unchecked(empty, empty, empty, k=k).shape == (0, k)
        assert core.agrm_probs_batch(empty, empty, empty, k=k).shape == (0, k)

    def test_rows_are_normalized(self):
        rng = np.random.default_rng(0)
        p = core.agrm_probs_batch(rng.normal(size=500) * 20, rng.normal(size=500), rng.uniform(0, 3, 500))
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
        assert p.min() >= 0.0


# ---------------------------------------------------------------------------
# one mass rule: ProbVector and the batch kernel judge a row alike
# ---------------------------------------------------------------------------


def vector_refusal(row):
    """``ProbVector``'s refusal of ``row``, or None if it accepts it."""
    try:
        core.ProbVector(row)
    except ValueError as exc:
        return str(exc)
    return None


def batch_refusal(row):
    """``agrm_probs_batch``'s refusal when its kernel gives ``row`` as its
    one output row, or None if it accepts it."""
    with mock.patch.object(core, "agrm_probs_unchecked", lambda *args: row[None]):
        try:
            core.agrm_probs_batch([0.0], [0.0], [1.0], k=row.size)
        except ValueError as exc:
            return str(exc)
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=9),
    side=st.sampled_from([-1.0, 1.0]),
    ulps=st.integers(-8, 8),
)
# a correctly rounded sum and NumPy's row sum land on opposite sides of the
# slack here: one of them accepted and the other refused each row
@example(weights=[0.52, 0.85, 0.61, 0.71], side=1.0, ulps=-1)
@example(weights=[0.98, 0.58, 0.87, 0.82], side=-1.0, ulps=0)
def test_one_verdict_and_one_message_per_row(weights, side, ulps):
    """Rows whose sums sit within a few ulps of 1 -/+ 1e-12: ``ProbVector``
    refuses exactly the rows ``normalized_rows`` refuses, with the batch
    kernel's message less its row."""
    row = np.array(weights) / math.fsum(weights)
    row *= (1.0 + side * 1e-12 + ulps * 2.0**-52) / row.sum()
    accepted = core.normalized_rows(row[None])[0]
    got = vector_refusal(row)
    assert (got is None) == accepted
    assert batch_refusal(row) == (None if accepted else f"{got} (row 0)")


def test_scalar_kernel_accepts_the_batch_row_at_a_large_offset():
    """A row the batch kernel accepts is accepted by the scalar kernel too.
    The two need not agree bit for bit (``math.exp`` and NumPy's ``exp``
    round apart on about a fifth of rows); each is held to the bound both
    promise, 16 ulps of the exact masses of its z."""
    p = core.AgrmParams(theta=937777.0419334957, beta1=937774.753564766, gamma=1.4798332506309162)
    row = core.agrm_probs_batch([p.theta], [p.beta1], [p.gamma], k=p.k)[0]
    exact = exact_masses(kernel_z(p.theta, p.beta1, p.gamma, p.k))
    assert ulps_off(row, exact) <= 16
    assert ulps_off(core.agrm_probs(p), exact) <= 16


def test_entry_at_the_slack_is_in_range():
    rows = np.array([[-1e-15, 0.5, 0.5 + 1e-15], [-2e-15, 0.5, 0.5 + 2e-15]])
    assert core.normalized_rows(rows).tolist() == [True, False]
    assert vector_refusal(rows[1]) == "entry -2e-15 outside [0, 1]"
    assert batch_refusal(rows[1]) == "entry -2e-15 outside [0, 1] (row 0)"


@pytest.mark.parametrize(
    "row",
    [[-core._ENTRY_SLACK, 0.5, 0.6], [1.0 + core._ENTRY_SLACK, 0.5]],
    ids=["low", "high"],
)
def test_entry_at_the_slack_is_refused_for_its_sum(row):
    """An entry exactly at the slack is in range, so a bad sum is what is
    refused."""
    row = np.array(row)
    want = f"mass sums to {float(row.sum())!r}, not 1"
    assert vector_refusal(row) == want
    assert batch_refusal(row) == f"{want} (row 0)"


# ---------------------------------------------------------------------------
# the band kernel against the exact masses of its own z
# ---------------------------------------------------------------------------


def kernel_z(theta, beta1, gamma, k):
    """z at the k-1 thresholds by the kernel's own float operations, clamped
    as the kernel clamps it."""
    c, cap = core._SCALE, core._Z_CAP
    return [min(max(c * (theta - (beta1 + m * gamma)), -cap), cap) for m in range(k - 1)]


def exact_masses(z):
    """The k masses of the cumulative curves at ``z``, as Decimals to 330
    digits.  A difference of two curves keeps 40 of them for any mass of at
    least 1e-290."""
    with localcontext() as ctx:
        ctx.prec = 330

        def sigma(v):
            return 1 / (1 + (-v).exp())

        s = [sigma(Decimal(v)) for v in z]
        return [sigma(-Decimal(z[0])), *(a - b for a, b in zip(s, s[1:])), s[-1]]


def ulps_off(got, exact):
    """The largest error of ``got`` in ulps of the exact mass, over the
    masses of at least 1e-290."""
    errors = [
        abs(Decimal(g) - x) / Decimal(math.ulp(float(x)))
        for g, x in zip(got, exact)
        if x >= Decimal("1e-290")
    ]
    return max(errors, default=0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    k=st.integers(2, 9),
    g=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e4)),
    zj=st.floats(-800.0, 800.0),
    j=st.integers(0, 7),
    beta1=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e8, 1e8)),
)
@example(k=5, g=1.7 * 1.3, zj=0.34, j=0, beta1=1000000.1)  # an offset near 1e6
@example(k=9, g=1e4, zj=-660.0, j=3, beta1=0.0)  # a tail mass of about 5e-287
@example(k=3, g=1e-12, zj=5.0, j=1, beta1=0.0)  # a tiny gap, where 1 - e^gap needs expm1
def test_masses_are_within_16_ulps_of_the_exact_masses_of_their_z(k, g, zj, j, beta1):
    """The batch kernel and the scalar reference against exact masses from
    the kernel's own z: z_j is placed at ``zj``, the rest follow at
    ``g`` = d * alpha * gamma apart."""
    gamma = g / core._SCALE
    theta = beta1 + min(j, k - 2) * gamma + zj / core._SCALE
    exact = exact_masses(kernel_z(theta, beta1, gamma, k))
    batch = core.agrm_probs_batch([theta], [beta1], [gamma], k)[0]
    scalar = core.agrm_probs(core.AgrmParams(theta=theta, beta1=beta1, gamma=gamma, k=k))
    assert ulps_off(batch, exact) <= 16
    assert ulps_off(scalar, exact) <= 16


@pytest.mark.parametrize("offset", [1e5, 1e6, 1e8])
def test_no_row_is_refused_at_a_large_offset(offset):
    """z carries the rounding of theta, and the masses take their gaps from
    the z's themselves, so they still sum to 1."""
    rng = np.random.default_rng(19)
    n = 20000
    gamma = rng.uniform(0.82, 5.0, n)
    beta1 = offset + rng.uniform(-1.0, 1.0, n)
    theta = rng.uniform(beta1 - 3.0, beta1 + 3.0 * gamma + 3.0)
    with np.errstate(under="ignore"):
        probs = core.agrm_probs_unchecked(theta, beta1, gamma, 5)
    assert int(np.count_nonzero(~core.normalized_rows(probs))) == 0


@pytest.mark.parametrize("k", range(3, 10))
def test_zero_spacing_gives_positive_zero_middle_masses(k):
    theta = np.array([-40.0, -0.3, 0.0, 0.7, 40.0])
    beta1, gamma = np.full(5, 0.2), np.zeros(5)
    zeros = np.zeros(k - 2).tobytes()
    for i, row in enumerate(core.agrm_probs_batch(theta, beta1, gamma, k)):
        scalar = core.agrm_probs(core.AgrmParams(theta=theta[i], beta1=0.2, gamma=0.0, k=k))
        assert row[1:-1].tobytes() == zeros
        assert np.array(scalar)[1:-1].tobytes() == zeros


@pytest.mark.parametrize("k", [2, 5, 9])
@pytest.mark.parametrize(
    "theta, beta1, gamma, top",
    [(0.0, 1e308, 1e308, False), (1e308, -1e308, 0.0, True), (1e308, -1e308, 1.0, True)],
    ids=["thresholds-overflow", "ability-overflows", "ability-overflows-spaced"],
)
def test_an_overflowing_z_gives_an_edge_grade(k, theta, beta1, gamma, top):
    """Thresholds beyond the float range put all mass on grade 1, an ability
    beyond it all mass on grade k, with no invalid operation on the way."""
    want = [0.0] * (k - 1) + [1.0] if top else [1.0] + [0.0] * (k - 1)
    with np.errstate(over="ignore", invalid="raise"):
        got = core.agrm_probs_batch([theta], [beta1], [gamma], k)
    assert got.tolist() == [want]
    assert list(core.agrm_probs(core.AgrmParams(theta=theta, beta1=beta1, gamma=gamma, k=k))) == want


# ---------------------------------------------------------------------------
# the input screens against the exact checks they stand in front of
# ---------------------------------------------------------------------------


def input_refusal(theta, beta1, gamma):
    """The kernel's input checks, one vector at a time, with no screen: the
    message for the first bad entry, or None."""
    for name, arr in (("theta", theta), ("beta1", beta1), ("gamma", gamma)):
        bad = ~np.isfinite(arr)
        if bad.any():
            row = int(np.argmax(bad))
            return f"{name} {float(arr[row])!r} is not finite (row {row})"
    if gamma.min() < 0.0:
        row = int(np.argmax(gamma < 0.0))
        return f"gamma {float(gamma[row])!r} must be >= 0 (row {row})"
    return None


@pytest.mark.parametrize("name", ["theta", "beta1", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_each_non_finite_input_is_refused_as_without_the_screen(name, value, row):
    cols = {"theta": np.linspace(-2.0, 2.0, 5), "beta1": np.zeros(5), "gamma": np.ones(5)}
    cols[name][row] = value
    want = input_refusal(cols["theta"], cols["beta1"], cols["gamma"])
    with pytest.raises(ValueError) as info:
        core.agrm_probs_batch(cols["theta"], cols["beta1"], cols["gamma"])
    assert str(info.value) == want


special = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0, 0.0, 1e308, -1e308])
entry = st.one_of(st.floats(-5.0, 5.0), special)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=8))
def test_refusals_match_the_per_vector_checks(rows):
    """Any mix of faults, overflowing sums and negative spacings: when the
    per-vector checks refuse, the kernel refuses with their message."""
    theta, beta1, gamma = (np.array(col) for col in zip(*rows))
    want = input_refusal(theta, beta1, gamma)
    with np.errstate(all="ignore"):
        try:
            core.agrm_probs_batch(theta, beta1, gamma)
            got = None
        except ValueError as exc:
            got = str(exc)
    if want is not None:
        assert got == want
    else:  # past the input checks, only the output rows can be refused
        assert got is None or got.startswith(("mass sum", "entry"))


def test_overflowing_sums_are_no_refusal():
    """Finite inputs whose sums overflow pass the input checks, with the rows
    of the unchecked arithmetic and no floating-point warning."""
    theta = np.array([1e308, 1e308, -1e308])
    gamma = np.zeros(3)
    with np.errstate(all="raise"):
        got = core.agrm_probs_batch(theta, theta, gamma)
    assert got.tobytes() == core.agrm_probs_unchecked(theta, theta, gamma, 5).tobytes()
    assert got.tolist() == [[0.5, 0.0, 0.0, 0.0, 0.5]] * 3


# ---------------------------------------------------------------------------
# batch forward against one-row calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 16, 257])
@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_batch_rows_equal_one_row_calls_bitwise(cfg, n):
    hp = init_head(5, 7, cfg, seed=n)
    hp.agg_w *= 3.0
    rng = np.random.default_rng(1000 + n)
    pairs = [
        FeaturePair(f_i=2.0 * rng.standard_normal(5), f_t=2.0 * rng.standard_normal(7))
        for _ in range(n)
    ]
    batch = streamed(hp, pairs)
    for i, fp in enumerate(pairs):
        one = head_forward(hp, fp)
        row = (
            batch.theta[i], batch.beta1_prior[i], batch.gamma_prior[i], batch.tau[i],
            batch.beta1[i], batch.gamma[i], batch.q[i], batch.q_rescaled[i],
        )
        assert row == (
            one.theta, one.beta1_prior, one.gamma_prior, one.tau,
            one.beta1, one.gamma, one.q, one.q_rescaled,
        )
        assert batch.probs[i].tolist() == list(one.probs)


def test_matrix_and_pairs_give_the_same_batch():
    hp = init_head(3, 4, seed=5)
    rng = np.random.default_rng(5)
    pairs = [FeaturePair(f_i=rng.standard_normal(3), f_t=rng.standard_normal(4)) for _ in range(6)]
    x = feature_matrix(hp, pairs)
    assert x.shape == (6, 7)
    assert np.array_equal(x[2], np.concatenate([pairs[2].f_t, pairs[2].f_i]))
    assert np.array_equal(streamed(hp, x).q, streamed(hp, pairs).q)


@pytest.mark.parametrize("agg", AGG_MODES)
def test_head_forward_is_the_batch_row_in_every_field_bitwise(agg):
    hp = init_head(5, 7, HeadConfig(k=4, agg_mode=agg), seed=11)
    hp.agg_w *= 3.0
    rng = np.random.default_rng(11)
    pairs = [
        FeaturePair(f_i=2.0 * rng.standard_normal(5), f_t=2.0 * rng.standard_normal(7))
        for _ in range(5)
    ]
    batch = streamed(hp, pairs)
    for i, fp in enumerate(pairs):
        one = head_forward(hp, fp)
        assert type(one) is HeadBatch
        for name, got, rows in zip(HeadBatch._fields, one, batch):
            if rows is None:
                assert agg == "linear" and name in ("softmax_p", "logits") and got is None
                continue
            want = rows[i]
            assert type(got) is type(want), name  # NumPy scalars, (k,) arrays
            assert np.shape(got) == np.shape(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (i, name)
    assert one.probs.shape == (4,)
    assert (one.softmax_p is None) == (agg == "linear")


def test_fortran_ordered_features_give_the_one_row_forwards_bitwise():
    """A feature matrix in Fortran order scores each row as a one-row
    forward does; a strided last axis would sum in another order."""
    hp = init_head(16, 16, seed=0)
    x = np.random.default_rng(0).standard_normal((200, 32))
    batch = streamed(hp, np.asfortranarray(x))
    one_rows = [_forward(hp, x[i : i + 1]).q_rescaled[0] for i in range(x.shape[0])]
    assert batch.q_rescaled.tobytes() == np.array(one_rows).tobytes()
    assert batch.q_rescaled.tobytes() == streamed(hp, x).q_rescaled.tobytes()


def test_feature_matrix_rejects_wrong_widths():
    hp = init_head(3, 4, seed=5)
    with pytest.raises(ValueError, match="do not match head"):
        feature_matrix(hp, [FeaturePair(f_i=np.zeros(4), f_t=np.zeros(3))])
    ragged = [
        FeaturePair(f_i=np.zeros(3), f_t=np.zeros(4)),
        FeaturePair(f_i=np.zeros(2), f_t=np.zeros(4)),
    ]
    with pytest.raises(ValueError, match=r"^row 1: feature sizes \(2, 4\) != \(3, 4\) of row 0$"):
        feature_matrix(hp, ragged)
    with pytest.raises(ValueError, match="expected"):
        feature_matrix(hp, np.zeros((2, 6)))
    with pytest.raises(ValueError):
        feature_matrix(hp, [])


# ---------------------------------------------------------------------------
# the blocked forward against one unblocked pass, and its memory
# ---------------------------------------------------------------------------

# every activation, aggregation and ablation, at a k above the feature count
# under linear so the k masses set the block's width there
EVERY_CONFIG = [
    HeadConfig(k=4, activation=act, agg_mode=agg, ablation=abl)
    for act in ACTIVATIONS
    for agg in AGG_MODES
    for abl in ABLATIONS
]
BLOCK_BYTES = 8 * head.BLOCK_ELEMENTS


@pytest.mark.parametrize("n", [2, 13], ids=["one-block", "five-blocks"])
@pytest.mark.parametrize("cfg", EVERY_CONFIG, ids=config_id)
def test_blocked_forward_is_the_unblocked_forward_bitwise(cfg, n, monkeypatch):
    """Three rows a block: 2 rows fit in one, 13 take four full blocks and
    a partial one.  The blocks cover the rows in order, and concatenated
    they are one unblocked pass; ``batch_scores`` gives the same scores."""
    hp = init_head(1, 2, cfg, seed=n)
    hp.agg_w *= 3.0
    width = 3 * cfg.k if cfg.agg_mode == "softmax" else cfg.k
    monkeypatch.setattr(head, "BLOCK_ELEMENTS", 3 * width + 1)
    assert head._block_rows(hp) == 3
    x = 2.0 * np.random.default_rng(n).standard_normal((n, 3))
    blocks = list(forward_blocks(hp, x))
    assert [rows for rows, _ in blocks] == [slice(i, min(i + 3, n)) for i in range(0, n, 3)]
    for rows, batch in blocks:
        assert batch.pre_b.base is batch.pre_g.base
        assert batch.pre_b.base.shape == (2, rows.stop - rows.start)
        assert (batch.softmax_p is None) == (cfg.agg_mode == "linear")
    got = streamed(hp, x)
    with np.errstate(under="ignore"):
        want = _forward(hp, x)
    for name, g, w in zip(HeadBatch._fields, got, want):
        if w is None:
            assert g is None and name in ("softmax_p", "logits") and cfg.agg_mode == "linear"
        else:
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    assert batch_scores(hp, x).tobytes() == want.q_rescaled.tobytes()
    for i in range(n):
        one = head_forward(hp, FeaturePair(f_i=x[i, 2:], f_t=x[i, :2]))
        assert [np.asarray(f).tobytes() for f in one if f is not None] == [
            f[i].tobytes() for f in got if f is not None
        ]


def infinite_row(x, i, monkeypatch):
    """x with row i's features infinite, so its ability is not finite."""
    x = x.copy()
    x[i] = np.inf
    return x


def doubled_mass(x, i, monkeypatch):
    """x with row i's features at 1e3, and the band kernel doubling the
    masses of every row whose ability is that large, so the mass rule
    refuses it (a linear head's ability grows with its features)."""
    x = x.copy()
    x[i] = 1e3
    kernel = core.agrm_probs_unchecked

    def doubling(theta, beta1, gamma, k):
        out = kernel(theta, beta1, gamma, k)
        out[np.abs(theta) > 50.0] *= 2.0
        return out

    monkeypatch.setattr(core, "agrm_probs_unchecked", doubling)
    return x


@pytest.mark.parametrize(
    "agg, bad",
    [("linear", infinite_row), ("softmax", infinite_row), ("linear", doubled_mass)],
    ids=["linear-input", "softmax-input", "linear-masses"],
)
def test_blocked_refusal_names_the_row_of_the_whole_input(agg, bad, monkeypatch):
    """Row 10 sits in the fourth block of three rows; both blocked entries
    name it as row 10, as one pass over the whole input does, after
    yielding the three blocks before it."""
    hp = init_head(1, 2, HeadConfig(k=4, agg_mode=agg), seed=1)
    width = 3 * 4 if agg == "softmax" else 4
    monkeypatch.setattr(head, "BLOCK_ELEMENTS", 3 * width)
    x = bad(np.random.default_rng(1).standard_normal((13, 3)), 10, monkeypatch)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=r"\(row 10\)$") as whole:
            _forward(hp, x)
        for fn in (streamed, batch_scores):
            with pytest.raises(ValueError) as blocked:
                fn(hp, x)
            assert str(blocked.value) == str(whole.value)
        blocks = forward_blocks(hp, x)
        assert [rows.start for rows, _ in itertools.islice(blocks, 3)] == [0, 3, 6]
        with pytest.raises(ValueError, match=r"\(row 10\)$"):
            next(blocks)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def least_gamma(hp, x):
    """The least spacing over x, streamed: no N-sized output is kept."""
    return min(batch.gamma.min() for _, batch in forward_blocks(hp, x))


@pytest.mark.parametrize("score", [least_gamma, batch_scores], ids=["blocks", "scores"])
@pytest.mark.parametrize(
    "cfg, n",
    [(HeadConfig(k=9, agg_mode="softmax"), 5000), (HeadConfig(k=5), 50000)],
    ids=["softmax-k9", "linear-k5"],
)
def test_blocked_scoring_holds_its_outputs_and_a_few_blocks(cfg, n, score):
    """An unblocked pass holds the (N, k, 32) logit terms under softmax
    (11 MiB here) or the (N, 32) ability products under linear (12 MiB).
    A streamed pass that keeps a running reduction holds a few blocks,
    and ``batch_scores`` only the (N,) scores beside them."""
    hp = init_head(16, 16, cfg, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 32))
    assert n > 10 * head._block_rows(hp)
    out, peak = traced_peak(score, hp, x)
    outputs = out.nbytes if score is batch_scores else 0
    assert peak <= outputs + 4 * BLOCK_BYTES


def test_the_gradient_pass_holds_its_per_item_arrays_and_a_few_blocks():
    """The pass behind ``batch_loss_and_grads`` and ``fd_check``'s base
    forward, on 4000 rows of a 128 + 128 softmax k = 9 head: one unblocked
    forward holds the (N, k, 256) logit products, 70 MiB; blocked, the
    peak is the (N, k) arrays the backward reads, at most 10 (k + 1)
    entries per item, and two blocks of products (2.6 MiB here)."""
    n, k = 4000, 9
    hp = init_head(128, 128, HeadConfig(k=k, agg_mode="softmax"), seed=0)
    rng = np.random.default_rng(0)
    x, t = rng.standard_normal((n, 256)), rng.uniform(0.0, 5.0, n)
    _, peak = traced_peak(batch_loss_and_grads, hp, x, t)
    assert peak <= 8 * 10 * n * (k + 1) + 2 * BLOCK_BYTES


def test_draw_features_swaps_the_halves_in_place():
    """The result is the draw itself, with no second full-size copy, and
    the same bits as concatenating the swapped halves of the draw."""
    n, d_img, d_txt = 40000, 24, 8  # nine blocks of 4096 rows and a partial one
    x, peak = traced_peak(data.draw_features, np.random.default_rng(3), n, d_img, d_txt)
    assert x.shape == (n, d_txt + d_img) and x.flags.c_contiguous
    assert peak <= x.nbytes + 2 * BLOCK_BYTES
    feats = np.random.default_rng(3).standard_normal((n, d_img + d_txt))
    want = np.concatenate([feats[:, d_img:], feats[:, :d_img]], axis=1)
    assert x.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# heads moved in one weight against one forward per moved head
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 9),
    act=st.sampled_from(ACTIVATIONS),
    agg=st.sampled_from(AGG_MODES),
    abl=st.sampled_from(ABLATIONS),
    n=st.integers(1, 40),
    dims=st.tuples(st.integers(1, 80), st.integers(1, 80)),
    lam=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_moved_rows_equal_one_head_forwards_bitwise(seed, k, act, agg, abl, n, dims, lam):
    """Row r of ``_moved_scores`` is the forward of a copy of the head with
    flat weight coords[r] moved by deltas[r], and row r of
    ``total_loss_rows`` is ``total_loss`` of that row.

    The coordinates are a random sorted subset of the flat weights, each
    moved by a random step of either sign, repeats allowed.  Batches past 8
    items and rows past 128 features reach the blocked (pairwise) summation
    of NumPy's reductions.
    """
    if n == 1:
        lam = 0.0  # the correlation penalty needs two items
    rng = np.random.default_rng(seed)
    cfg = HeadConfig(k=k, activation=act, agg_mode=agg, ablation=abl)
    hp = init_head(*dims, cfg, seed=seed)
    hp.flat[:] += rng.standard_normal(hp.flat.size)
    x = 2.0 * rng.standard_normal((n, sum(dims)))
    t = rng.uniform(0.0, 5.0, n)
    coords = np.sort(rng.choice(hp.flat.size, size=rng.integers(1, 7)))
    deltas = 10.0 ** rng.uniform(-8.0, 0.0, coords.size) * rng.choice([-1.0, 1.0], coords.size)
    with np.errstate(under="ignore"):
        q = head._moved_scores(hp, x, _forward(hp, x), coords, deltas)
    rows = losses.total_loss_rows(q, t, lam)
    assert q.shape == (coords.size, n)
    for r, (c, d) in enumerate(zip(coords, deltas)):
        one = hp.copy()
        one.flat[c] = hp.flat[c] + d
        with np.errstate(under="ignore"):
            want = _forward(one, x).q_rescaled
        assert q[r].tobytes() == want.tobytes(), (r, c)
        batch = losses.ScoreBatch(predicted=want, target=t)
        assert rows[r].tobytes() == np.float64(losses.total_loss(batch, lam)).tobytes()


@pytest.mark.parametrize(
    "agg, bias, features, where",
    [
        # +step sends the ability or a logit past the float range
        ("linear", 0.0, 4.0, "agg_w[0] moved by +step: theta -inf is not finite (row 0)"),
        ("softmax", 0.0, 4.0, "agg_w[0, 0] moved by +step: theta nan is not finite (row 2)"),
        # -step sends the base-difficulty bias from -1e308 to -inf, and telu's
        # -inf * tanh(0) is nan; no weight before it overflows
        ("linear", -1e308, 0.5, "phi_beta_b moved by -step: beta1 nan is not finite (row 0)"),
        ("softmax", -1e308, 0.5, "phi_beta_b moved by -step: beta1 nan is not finite (row 0)"),
    ],
)
def test_an_overflowing_step_is_refused_naming_the_moved_weight(agg, bias, features, where):
    """A step that moves some head past the forward's checks is one
    ``ValueError`` naming the step, the moved weight and its sign, and the
    row of x, with no floating-point warning on the way (tier-1 fails any
    RuntimeWarning)."""
    hp = init_head(3, 4, HeadConfig(agg_mode=agg), seed=3)
    hp.phi_beta_b[()] = bias
    x = np.random.default_rng(3).uniform(-features, features, (3, 7))
    with pytest.raises(ValueError) as info:
        fd_check(hp, x, np.array([1.0, 2.0, 3.0]), step=1e308)
    assert str(info.value) == f"step 1e+308 with {where}"


# ---------------------------------------------------------------------------
# no floating-point warnings at the extremes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("agg", AGG_MODES)
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_no_floating_point_warnings_at_extremes(act, agg, monkeypatch):
    """telu inputs above 20, |z| above 30 and g above 700, all under raise.

    The forward streams three blocks of 8 rows: each block is computed with
    underflow ignored, while the caller's loop body between blocks keeps
    the caller's own rule."""
    # In softmax mode the ability stays in [0, lambda_s] = [0, 10] and a
    # sigmoid base difficulty in (0, 1), so there |z| passes 30 only at the
    # upper thresholds of a longer scale; elsewhere it does at the lowest.
    k, edge = (12, -1) if (act, agg) == ("sigmoid", "softmax") else (5, 0)
    cfg = HeadConfig(k=k, activation=act, agg_mode=agg)
    hp = init_head(3, 3, cfg, seed=2)
    hp.agg_w *= 40.0
    hp.phi_gamma_b[()] = 800.0  # spacing pre-activation far above 20
    monkeypatch.setattr(head, "BLOCK_ELEMENTS", 8 * 6 * (k if agg == "softmax" else 1))
    assert head._block_rows(hp) == 8
    rng = np.random.default_rng(2)
    x = 10.0 * rng.standard_normal((24, 6))
    blocks = []
    with np.errstate(all="raise"):
        for _, batch in forward_blocks(hp, x):
            blocks.append(batch)
            with pytest.raises(FloatingPointError, match="underflow"):
                np.exp(-1000.0)
        rep = batch_loss_and_grads(hp, x, np.linspace(0.0, 5.0, 24))
    assert len(blocks) == 3
    fw = assembled(blocks)
    assert np.all(np.isfinite(fw.q)) and math.isfinite(rep.loss)
    c = cfg.d * cfg.alpha
    assert fw.pre_g.min() > 20.0
    if act != "sigmoid":  # sigmoid caps the spacing at eta + 1
        assert (c * fw.gamma).min() > 700.0
    beta = fw.beta1[:, None] + np.arange(k - 1) * fw.gamma[:, None]  # the thresholds
    assert np.abs(c * (fw.theta[:, None] - beta))[:, edge].max() > 30.0


def test_kernel_has_no_floating_point_warnings_at_extremes():
    theta = np.array([-900.0, -40.0, 0.0, 35.0, 900.0])
    with np.errstate(all="raise"):
        p = core.agrm_probs_batch(theta, np.zeros(5), np.array([0.0, 500.0, 1000.0, 0.3, 2.0]), k=6)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# row-wise unimodality and boundary crossings against the scalar oracles
# ---------------------------------------------------------------------------

# a few repeated values make exact ties and plateaus likely; the tiny ones
# act as saturated tails, 0.2 + 1e-13 sits within the fixed 1e-12 slack of 0.2
# and 0.2 + 3e-12 just outside it
mass = st.one_of(
    st.sampled_from(
        [0.0, 5e-324, 1e-300, 5e-13, 1e-12, 0.1, 0.2, 0.2 + 1e-13, 0.2 + 3e-12, 0.5, 1.0]
    ),
    st.floats(0.0, 1.0),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    rows=st.integers(2, 9).flatmap(
        lambda k: st.lists(st.lists(mass, min_size=k, max_size=k), min_size=1, max_size=16)
    ),
)
@example(rows=[[0.1, 0.2, 0.2, 0.1], [0.1, 0.2, 0.2, 0.2], [0.2, 0.2, 0.1, 0.2]])
@example(rows=[[0.2, 0.2 + 1e-13, 0.2, 0.0, 0.0], [0.0, 0.0, 1.0, 5e-13, 1e-12]])
@example(rows=[[0.2, 0.2 + 3e-12, 0.2, 0.0], [0.5, 0.5 - 3e-12, 0.5, 0.0]])
@example(rows=[[0.5, 0.0, 0.5], [1e-300, 0.0, 1.0]])
def test_unimodal_rows_match_scalar_oracle(rows):
    got = core.is_unimodal_batch(np.array(rows))
    assert got.tolist() == [core.is_unimodal(row) for row in rows]


def test_unimodal_rows_reject_bad_input():
    with pytest.raises(ValueError):
        core.is_unimodal_batch(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        core.is_unimodal_batch(np.zeros(4))
    with pytest.raises(ValueError):
        core.is_unimodal_batch(np.zeros((2, 3, 4)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    # (beta1, spacing as a multiple of ln2 / (d * alpha)); within 1e-3 of 1 the
    # crossings are so ill-conditioned in gamma that an ulp in exp moves them
    # by more than 1e-12, in the scalar function as much as here
    rows=st.lists(
        st.tuples(st.floats(-50.0 * WIDE, 50.0 * WIDE), st.floats(1.001, 200.0)), min_size=1, max_size=12
    ),
    k=st.integers(3, 9),
)
@example(rows=[(0.0, 2.0 + 1e-9), (-3.0, 1.001)], k=5)
def test_boundary_rows_match_scalar_oracle(rows, k):
    beta1 = np.array([b for b, _ in rows])
    gamma = np.array([s for _, s in rows]) * math.log(2.0) / (core.D * core.ALPHA)
    with np.errstate(all="raise"):
        theta1, theta2 = core.boundary_thetas_batch(beta1, gamma, k)
    for i in range(len(rows)):
        want = core.boundary_thetas(core.AgrmParams(theta=0.0, beta1=beta1[i], gamma=gamma[i], k=k))
        assert abs(theta1[i] - want[0]) <= 1e-12
        assert abs(theta2[i] - want[1]) <= 1e-12


def test_boundary_rows_name_the_first_undefined_row():
    at_threshold = math.log(2.0) / 1.7
    with pytest.raises(ValueError, match=r"gamma .* is not above ln\(2\)/\(d\*alpha\) .*\(row 1\)"):
        core.boundary_thetas_batch([0.0, 0.0, 0.0], [1.0, at_threshold, 0.1])
    # the only bad row on the threshold itself, where fl(2 e^(-1.7 gamma)) is 1
    assert 2.0 * np.exp(-1.7 * np.array([at_threshold]))[0] == 1.0
    with pytest.raises(ValueError, match=r"gamma .* is not above ln\(2\)/\(d\*alpha\) .*\(row 1\)"):
        core.boundary_thetas_batch([0.0, 0.0], [1.0, at_threshold])
    with pytest.raises(ValueError, match="k >= 3"):
        core.boundary_thetas_batch([0.0], [1.0], k=2)


@pytest.mark.parametrize("theta", [58.0, 600.0, 1200.0])
def test_wide_spacing_band_keeps_its_last_digits(theta):
    # at g = d * alpha * gamma ~ 8200 the log-space band once cancelled terms
    # of size g and lost ~1e-12, enough for both paths to refuse theta = 58;
    # found at a scale of 2.65625, whose z and g the rescale below keeps
    beta1, unit = 49.23500367796403, 2.65625 / 1.7
    params = core.AgrmParams(theta=beta1 + (theta - beta1) * unit, beta1=beta1, gamma=3093.0 * unit, k=3)
    scalar = core.agrm_probs(params)
    batch = core.agrm_probs_batch([params.theta], [beta1], [params.gamma], 3)[0]
    for p in (list(scalar), batch):
        # far below the upper threshold the edge grades carry no cancellation,
        # so they fix the band
        assert abs(p[1] - (1.0 - p[0] - p[2])) <= 1e-15


@pytest.mark.parametrize("gamma", [1e5, 1e6, 1e8])
def test_wide_spacing_near_the_top_threshold_is_accepted(gamma):
    # with theta within a few units of beta1 + gamma, g - z at the last band
    # once lost its digits to cancellation, and both paths refused rows whose
    # sum then missed 1 by more than 1e-12
    rng = np.random.default_rng(0)
    theta = 0.3 + gamma + rng.uniform(-3.0, 3.0, size=200)
    beta1, spacing = np.full(200, 0.3), np.full(200, gamma)
    batch = core.agrm_probs_batch(theta, beta1, spacing, k=3)
    for i in range(theta.size):
        scalar = core.agrm_probs(core.AgrmParams(theta=theta[i], beta1=0.3, gamma=gamma, k=3))
        assert np.abs(batch[i] - np.array(list(scalar))).max() <= 1e-12
