"""Tests for the hand-derived gradients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrm import gradients, head, losses
from agrm.head import (
    ABLATIONS,
    ACTIVATIONS,
    AGG_MODES,
    PARAM_FIELDS,
    FeaturePair,
    HeadConfig,
    _forward,
    feature_matrix,
    head_forward,
    init_head,
)
from agrm.gradients import GradReport, batch_loss_and_grads, fd_check


def make_batch(rng, hp, n=8):
    """Random feature pairs with targets offset from the initial predictions.

    The offsets keep every |Q - T| well above the difference stencil so the
    absolute-error kink cannot sit inside it.
    """
    pairs = [
        FeaturePair(f_i=rng.standard_normal(hp.d_img), f_t=rng.standard_normal(hp.d_txt))
        for _ in range(n)
    ]
    q = np.array([head_forward(hp, p).q_rescaled for p in pairs])
    offs = rng.uniform(0.1, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return pairs, q + offs


# every activation x aggregation at k = 3 and 5, then the default head under
# each ablation other than "none" (already in the grid)
PERFECT_FIT_CONFIGS = [
    HeadConfig(k=k, activation=act, agg_mode=agg)
    for act in ACTIVATIONS
    for agg in AGG_MODES
    for k in (3, 5)
] + [HeadConfig(ablation=abl) for abl in ABLATIONS if abl != "none"]


def config_id(cfg):
    return f"{cfg.activation}-{cfg.agg_mode}-k{cfg.k}-{cfg.ablation}"


class TestBatchLossAndGrads:
    def test_loss_matches_direct_evaluation(self):
        from agrm.losses import ScoreBatch, total_loss

        hp = init_head(8, 8, seed=0)
        rng = np.random.default_rng(0)
        pairs, t = make_batch(rng, hp)
        rep = batch_loss_and_grads(hp, pairs, t)
        q = np.array([head_forward(hp, p).q_rescaled for p in pairs])
        assert rep.loss == pytest.approx(
            total_loss(ScoreBatch(predicted=q, target=t)), abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_item_losses_average_to_the_loss(self, lam):
        hp = init_head(8, 8, seed=0)
        rng = np.random.default_rng(3)
        pairs, t = make_batch(rng, hp)
        rep = batch_loss_and_grads(hp, pairs, t, lam=lam)
        q = np.array([head_forward(hp, p).q_rescaled for p in pairs])
        assert rep.item_losses.shape == (len(pairs),)
        assert rep.item_losses.mean() == pytest.approx(rep.loss, abs=1e-12)
        if lam == 0.0:
            assert np.array_equal(rep.item_losses, np.abs(t - q))

    def test_grad_shapes_mirror_params(self):
        hp = init_head(5, 7, HeadConfig(agg_mode="softmax"), seed=1)
        rng = np.random.default_rng(1)
        pairs, t = make_batch(rng, hp)
        rep = batch_loss_and_grads(hp, pairs, t)
        for name, g in rep.grads.items():
            assert g.shape == getattr(hp, name).shape

    @pytest.mark.parametrize("cfg", PERFECT_FIT_CONFIGS, ids=config_id)
    def test_perfect_fit_mae_only_has_zero_grads(self, cfg):
        """Subgradient 0 at exact ties: lam=0 and exact targets give zeros.

        The loss is exactly 0 only if training scores every item bit for bit
        as ``head_forward`` does, in every head configuration.
        """
        hp = init_head(6, 6, cfg, seed=2)
        rng = np.random.default_rng(2)
        pairs, _ = make_batch(rng, hp)
        q = np.array([head_forward(hp, p).q_rescaled for p in pairs])
        rep = batch_loss_and_grads(hp, pairs, q, lam=0.0)
        assert rep.loss == 0.0
        for g in rep.grads.values():
            assert np.all(g == 0.0)

    def test_no_temperature_grads_exactly_zero(self):
        """Weights that provably cannot affect the output get gradient 0."""
        hp = init_head(6, 6, HeadConfig(ablation="no_temperature"), seed=3)
        rng = np.random.default_rng(3)
        pairs, t = make_batch(rng, hp)
        rep = batch_loss_and_grads(hp, pairs, t)
        assert np.all(rep.grads["phi_i_w"] == 0.0)
        assert np.all(rep.grads["phi_i_b"] == 0.0)
        assert np.any(rep.grads["agg_w"] != 0.0)

    def test_rejects_single_item_with_correlation_penalty(self):
        hp = init_head(6, 6, seed=5)
        rng = np.random.default_rng(5)
        pairs, t = make_batch(rng, hp, n=1)
        with pytest.raises(ValueError):
            batch_loss_and_grads(hp, pairs, t, lam=1.0)
        rep = batch_loss_and_grads(hp, pairs, t, lam=0.0)
        assert isinstance(rep, GradReport)

    def test_rejects_target_length_mismatch(self):
        hp = init_head(6, 6, seed=6)
        rng = np.random.default_rng(6)
        pairs, _ = make_batch(rng, hp, n=4)
        with pytest.raises(ValueError):
            batch_loss_and_grads(hp, pairs, np.zeros(3))


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("agg_mode", AGG_MODES)
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_gradient_fields_are_views_of_one_flat_vector(activation, agg_mode, ablation):
    cfg = HeadConfig(k=4, activation=activation, agg_mode=agg_mode, ablation=ablation)
    hp = init_head(3, 5, cfg, seed=4)
    pairs, t = make_batch(np.random.default_rng(4), hp, n=6)
    rep = batch_loss_and_grads(hp, pairs, t)
    assert list(rep.grads) == list(PARAM_FIELDS)
    assert rep.flat.shape == hp.flat.shape and rep.flat.dtype == np.float64
    start = rep.flat.__array_interface__["data"][0]
    offset = 0
    for name in PARAM_FIELDS:
        g = rep.grads[name]
        assert g.shape == getattr(hp, name).shape, name
        assert np.shares_memory(g, rep.flat), name
        # each view starts at its field's offset in hp.flat's layout
        assert g.__array_interface__["data"][0] - start == offset * rep.flat.itemsize, name
        offset += g.size
    assert offset == rep.flat.size
    joined = np.concatenate([rep.grads[name].ravel() for name in PARAM_FIELDS])
    assert joined.tobytes() == rep.flat.tobytes()
    if ablation == "no_temperature":
        for name in ("phi_i_w", "phi_i_b"):
            assert rep.grads[name].tobytes() == np.zeros(rep.grads[name].shape).tobytes()
    checked = fd_check(hp, pairs, t)
    assert checked.flat.tobytes() == rep.flat.tobytes()


class TestFiniteDifferences:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("agg_mode", AGG_MODES)
    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_every_configuration(self, activation, agg_mode, k):
        """All activation/aggregation/scale combinations pass at 1e-4.

        Step 2e-5 keeps the central-difference truncation term well under
        the tolerance; the cancellation floor is still orders below it.
        """
        for seed in range(10):
            cfg = HeadConfig(k=k, activation=activation, agg_mode=agg_mode)
            hp = init_head(8, 8, cfg, seed=seed)
            rng = np.random.default_rng(10_000 + seed)
            pairs, t = make_batch(rng, hp)
            rep = fd_check(hp, pairs, t, step=2e-5)
            assert rep.failures == 0, (
                f"{activation}/{agg_mode}/k={k} seed={seed}: "
                f"max rel err {rep.max_rel_err:.3e}"
            )
            assert rep.max_rel_err < 1e-4

    def test_default_head_wide_features_tight(self):
        """16-dim features, batch of 8, step 1e-4: rel err below 1e-5."""
        for seed in range(3):
            hp = init_head(16, 16, seed=seed)
            rng = np.random.default_rng(30_000 + seed)
            pairs, t = make_batch(rng, hp)
            rep = fd_check(hp, pairs, t, step=1e-4)
            assert rep.failures == 0
            assert rep.max_rel_err < 1e-5

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_ablation_modes(self, ablation):
        cfg = HeadConfig(ablation=ablation)
        for seed in range(3):
            hp = init_head(6, 6, cfg, seed=seed)
            rng = np.random.default_rng(20_000 + seed)
            pairs, t = make_batch(rng, hp)
            rep = fd_check(hp, pairs, t)
            assert rep.max_rel_err < 1e-4

    def test_mae_only(self):
        hp = init_head(8, 8, seed=13)
        rng = np.random.default_rng(13)
        pairs, t = make_batch(rng, hp)
        rep = fd_check(hp, pairs, t, lam=0.0)
        assert rep.max_rel_err < 1e-4

    def test_relu_kink_coordinates_skipped(self):
        cfg = HeadConfig(activation="relu")
        hp = init_head(6, 6, cfg, seed=14)
        hp.phi_beta_w[:] = 0.0
        hp.phi_beta_b[()] = 0.0
        hp.phi_i_w[:] = 0.0
        hp.phi_i_b[()] = 0.0  # pre-activation of the base-difficulty map is 0
        rng = np.random.default_rng(14)
        pairs, t = make_batch(rng, hp)
        rep = fd_check(hp, pairs, t)
        assert rep.skipped > 0
        assert rep.max_rel_err < 1e-4

    def test_rejects_bad_step(self):
        hp = init_head(6, 6, seed=15)
        rng = np.random.default_rng(15)
        pairs, t = make_batch(rng, hp)
        with pytest.raises(ValueError):
            fd_check(hp, pairs, t, step=0.0)

    @pytest.mark.parametrize("name", ["step", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_step_and_tol_must_be_finite_and_positive(self, monkeypatch, name, value):
        hp = init_head(6, 6, seed=15)
        pairs, t = make_batch(np.random.default_rng(15), hp)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran before step and tol were checked")

        monkeypatch.setattr(gradients, "_forward", no_forward)
        monkeypatch.setattr(gradients, "batch_loss_and_grads", no_forward)
        with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {value!r}$"):
            fd_check(hp, pairs, t, **{name: value})


# ---------------------------------------------------------------------------
# the stacked finite differences against the per-coordinate loop
# ---------------------------------------------------------------------------


def fd_oracle(hp, pairs, targets, step=1e-4, tol=1e-4, lam=1.0):
    """The central-difference check one coordinate at a time.

    Each coordinate's weight is moved in place, and the perturbed head is
    scored by a one-head forward and ``losses.total_loss``.  Returns the
    report fields of ``fd_check`` and the checked coordinates with their
    (2, P) losses at +step and -step.
    """
    x = feature_matrix(hp, pairs)
    t = np.asarray(targets, dtype=np.float64)
    base = batch_loss_and_grads(hp, x, t, lam)
    skip = {name: False for name in PARAM_FIELDS}
    if hp.config.activation == "relu":
        fw = _forward(hp, x)
        near_b = bool(np.any(np.abs(fw.pre_b) < gradients.RELU_KINK_MARGIN))
        near_g = bool(np.any(np.abs(fw.pre_g) < gradients.RELU_KINK_MARGIN))
        skip["phi_beta_w"] = skip["phi_beta_b"] = near_b
        skip["phi_gamma_w"] = skip["phi_gamma_b"] = near_g
        skip["phi_i_w"] = skip["phi_i_b"] = near_b or near_g
    skipped_at = np.zeros(hp.flat.shape, dtype=bool)
    for name, view in hp.fields(skipped_at).items():
        view[...] = skip[name]

    def loss_only(work):
        q = _forward(work, x).q_rescaled
        return losses.total_loss(losses.ScoreBatch(predicted=q, target=t), lam)

    work = hp.copy()
    w = work.flat
    analytic = base.flat
    coords = np.flatnonzero(~skipped_at)
    perturbed = np.empty((2, coords.size))
    max_rel = 0.0
    failures = 0
    for j, i in enumerate(coords):
        orig = w[i]
        w[i] = orig + step
        hi = loss_only(work)
        w[i] = orig - step
        lo = loss_only(work)
        w[i] = orig
        perturbed[:, j] = hi, lo
        fd = (hi - lo) / (2.0 * step)
        rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-12)
        max_rel = max(max_rel, rel)
        if rel > tol:
            failures += 1
    fields = {
        "checked": int(coords.size),
        "skipped": int(skipped_at.sum()),
        "failures": failures,
        "max_rel_err": float(max_rel),
    }
    return fields, coords, perturbed


def report_fields(rep):
    return {
        "checked": rep.checked,
        "skipped": rep.skipped,
        "failures": rep.failures,
        "max_rel_err": rep.max_rel_err,
    }


def relu_kink_head():
    """A relu head whose base-difficulty pre-activation is exactly 0."""
    hp = init_head(6, 6, HeadConfig(activation="relu"), seed=14)
    hp.phi_beta_w[:] = 0.0
    hp.phi_beta_b[()] = 0.0
    hp.phi_i_w[:] = 0.0
    hp.phi_i_b[()] = 0.0
    return hp


def assert_matches_oracle(hp, pairs, t, lam=1.0, step=1e-4):
    want, coords, perturbed = fd_oracle(hp, pairs, t, step=step, lam=lam)
    x = feature_matrix(hp, pairs)
    base = _forward(hp, x)
    got = gradients._perturbed_losses(hp, x, np.asarray(t), lam, coords, step, base)
    assert got.tobytes() == perturbed.tobytes()
    assert report_fields(fd_check(hp, pairs, t, step=step, lam=lam)) == want
    return want


class TestStackedAgainstOracle:
    """Every perturbed loss of the moved-head pass, bit for bit, and the report."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("cfg", PERFECT_FIT_CONFIGS, ids=config_id)
    def test_configurations(self, cfg, seed):
        hp = init_head(8, 8, cfg, seed=seed)
        pairs, t = make_batch(np.random.default_rng(10_000 + seed), hp)
        assert_matches_oracle(hp, pairs, t)

    def test_mae_only_one_item(self):
        hp = init_head(6, 6, HeadConfig(agg_mode="softmax"), seed=21)
        pairs, t = make_batch(np.random.default_rng(21), hp, n=1)
        assert assert_matches_oracle(hp, pairs, t, lam=0.0)["checked"] > 0

    def test_relu_kink(self):
        hp = relu_kink_head()
        pairs, t = make_batch(np.random.default_rng(14), hp)
        want = assert_matches_oracle(hp, pairs, t)
        assert want["skipped"] > 0

    @pytest.mark.parametrize("pairs_per_chunk", [1, 15])
    def test_chunking_is_bitwise_neutral(self, monkeypatch, pairs_per_chunk):
        """One coordinate per chunk, and chunks of 15 of the 73 coordinates,
        the last one partial, each with one moved head per block of unit
        products, against the single chunk of the default budgets."""
        hp = init_head(6, 6, HeadConfig(k=4, agg_mode="softmax"), seed=22)
        pairs, t = make_batch(np.random.default_rng(22), hp)
        x = feature_matrix(hp, pairs)
        base = _forward(hp, x)
        coords = np.arange(hp.flat.size)
        head_elements = head._moved_elements(hp, x.shape[0])
        assert 2 * coords.size * head_elements <= gradients.FD_CHUNK_ELEMENTS
        whole = gradients._perturbed_losses(hp, x, t, 1.0, coords, 1e-4, base)
        rep = fd_check(hp, pairs, t)
        monkeypatch.setattr(gradients, "FD_CHUNK_ELEMENTS", 2 * pairs_per_chunk * head_elements)
        monkeypatch.setattr(head, "BLOCK_ELEMENTS", 1)  # one head per block of products
        chunked = gradients._perturbed_losses(hp, x, t, 1.0, coords, 1e-4, base)
        assert chunked.tobytes() == whole.tobytes()
        assert report_fields(fd_check(hp, pairs, t)) == report_fields(rep)

    @pytest.mark.parametrize("activation", ["telu", "relu"])
    def test_forward_is_run_once(self, monkeypatch, activation):
        """The base forward serves the loss, the gradient, the relu kink mask
        and every moved head; no other forward runs."""
        hp = init_head(6, 6, HeadConfig(activation=activation), seed=23)
        pairs, t = make_batch(np.random.default_rng(23), hp)
        calls = []

        def counting(hp, x, first_row=0):
            calls.append(x.shape)
            return _forward(hp, x, first_row)

        monkeypatch.setattr(gradients, "_forward", counting)
        monkeypatch.setattr(head, "_forward", counting)
        fd_check(hp, pairs, t)
        assert calls == [(len(pairs), 12)]

    def test_relu_head_keeps_the_bits_of_the_checked_entry(self):
        """On a relu head with skipped coordinates, the report is the
        oracle's, and its loss and gradient are ``batch_loss_and_grads``'s,
        bit for bit."""
        hp = relu_kink_head()
        pairs, t = make_batch(np.random.default_rng(14), hp)
        rep = fd_check(hp, pairs, t)
        want, _, _ = fd_oracle(hp, pairs, t)
        assert report_fields(rep) == want and want["skipped"] > 0
        base = batch_loss_and_grads(hp, pairs, t)
        assert np.float64(rep.loss).tobytes() == np.float64(base.loss).tobytes()
        assert rep.flat.tobytes() == base.flat.tobytes()
        for name, grad in base.grads.items():
            assert rep.grads[name].tobytes() == grad.tobytes(), name


def loss_and_upstream_oracle(q, t, lam):
    """``gradients._loss_and_upstream`` as it was written on the penalty's
    stacked statistics (the former ``losses.plcc_parts``), kept as the
    reference for the lean one."""
    n = q.shape[-1]
    abs_err = np.abs(t - q)
    loss = float(abs_err.sum() / n)
    u = np.sign(q - t) / n
    if lam == 0.0:
        return loss, u, abs_err
    dq = q - (q.sum(axis=-1) / n)[..., None]
    dt = t - t.sum() / n
    sd = np.sqrt((dq * dq).sum(axis=-1) / n)
    qhat = dq / (sd + losses.PLCC_EPSILON)[..., None]
    that = dt / (math.sqrt((dt * dt).sum() / n) + losses.PLCC_EPSILON)
    rho = (qhat * that).sum(axis=-1) / n
    resid = rho[..., None] * qhat - that
    value = (((qhat - that) ** 2).sum(axis=-1) + (resid**2).sum(axis=-1)) / n
    g = (2.0 / n) * ((qhat - that) + rho * resid + (that / n) * float(resid @ qhat))
    dplcc = (g - g.sum() / n) / (sd + losses.PLCC_EPSILON)
    if sd > 0.0:
        dplcc -= (float(qhat @ g) / (n * sd)) * qhat
    penalty = lam * value
    return loss + penalty, u + lam * dplcc, abs_err + penalty


SCORES = st.floats(0.0, 5.0, allow_subnormal=False)


@st.composite
def loss_batches(draw):
    """(q, t) of N in [2, 64] items: q free or constant, t free, equal to q,
    or equal to q at some items (exact ties)."""
    n = draw(st.integers(2, 64))
    if draw(st.booleans()):
        q = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    else:
        q = np.full(n, draw(SCORES))  # sd == 0
    t = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    ties = draw(st.sampled_from(["none", "some", "all"]))
    if ties == "all":
        t = q.copy()
    elif ties == "some":
        tied = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        t[tied] = q[tied]
    return q, t


def float_bits(v):
    return np.float64(v).tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(batch=loss_batches(), lam=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
@example(batch=(np.full(4, 2.5), np.array([1.0, 2.0, 3.0, 4.0])), lam=1.0)
@example(batch=(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 4.0])), lam=3.0)
@example(batch=(np.full(2, 3.0), np.full(2, 3.0)), lam=0.5)
def test_lean_loss_and_upstream_matches_the_stacked_oracle(batch, lam):
    """The lean loss keeps every bit of the oracle's loss, upstream gradient
    and per-item losses, and its loss is bitwise ``total_loss_rows``."""
    q, t = batch
    with np.errstate(all="raise", under="ignore"):
        loss, upstream, item_losses = losses._loss_and_upstream(q, t, lam)
        want_loss, want_upstream, want_items = loss_and_upstream_oracle(q, t, lam)
        rows = losses.total_loss_rows(q, t, lam)
    assert math.isfinite(loss)
    assert float_bits(loss) == float_bits(want_loss) == float_bits(rows)
    assert upstream.tobytes() == want_upstream.tobytes()
    assert item_losses.tobytes() == want_items.tobytes()
