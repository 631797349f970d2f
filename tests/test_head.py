"""Tests for the scoring head."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from agrm import core, losses
from agrm.gradients import _flat_name, batch_loss_and_grads
from agrm.head import (
    ABLATIONS,
    ACTIVATIONS,
    AGG_MODES,
    PARAM_FIELDS,
    TELU_ARGMIN,
    TELU_MIN,
    FeaturePair,
    HeadBatch,
    HeadConfig,
    HeadParams,
    _ACTIVATION_FUNCS,
    _activate,
    _forward,
    _moved_scores,
    _moved_units,
    _units,
    forward_blocks,
    grade_positions,
    head_forward,
    init_head,
    telu,
)


def random_pair(rng, d_img=8, d_txt=8):
    return FeaturePair(f_i=rng.standard_normal(d_img), f_t=rng.standard_normal(d_txt))


def argwhere_flat_name(hp, c):
    """Flat weight ``c`` by its field name and its index in the field, found
    by scanning every field's view of the flat indices: the oracle of
    ``gradients._flat_name``."""
    for name, at in hp.fields(np.arange(hp.flat.size)).items():
        index = np.argwhere(at == c)
        if len(index):
            return name + (f"[{', '.join(map(str, index[0]))}]" if at.ndim else "")


def difficulty(hp, fp):
    """(base difficulty, threshold spacing) of one feature pair."""
    out = head_forward(hp, fp)
    return out.beta1, out.gamma


# ---------------------------------------------------------------------------
# telu activation
# ---------------------------------------------------------------------------


class TestTelu:
    def test_known_values(self):
        assert telu(0.0) == 0.0
        assert telu(1.0) == pytest.approx(math.tanh(math.e), abs=1e-15)

    def test_large_inputs_are_identity(self):
        assert telu(25.0) == 25.0
        assert telu(1000.0) == 1000.0

    def test_very_negative_vanishes(self):
        assert telu(-800.0) == 0.0
        assert telu(-40.0) == pytest.approx(0.0, abs=1e-15)

    def test_global_minimum_matches_numeric_oracle(self):
        """1-d minimization confirms the frozen minimum constant."""
        res = scipy.optimize.minimize_scalar(
            telu, bounds=(-5.0, 2.0), method="bounded", options={"xatol": 1e-13}
        )
        assert res.x == pytest.approx(TELU_ARGMIN, abs=1e-7)
        assert res.fun == pytest.approx(TELU_MIN, abs=1e-13)
        assert telu(TELU_ARGMIN) == pytest.approx(TELU_MIN, abs=1e-15)

    def test_never_below_frozen_minimum(self):
        xs = np.linspace(-30, 30, 20001)
        assert min(telu(float(x)) for x in xs) >= TELU_MIN - 1e-15


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


# greatest lower bound of each activation over the reals
ACT_FLOORS = {"telu": TELU_MIN, "sigmoid": 0.0, "relu": 0.0, "softplus": 0.0}


class TestConfig:
    def test_defaults_carry_guarantee_margin(self):
        """eta plus every activation's floor clears the unimodality threshold."""
        assert set(ACT_FLOORS) == set(ACTIVATIONS)
        thr = core.gamma_threshold()
        xs = np.linspace(-60.0, 60.0, 24001)
        for act, floor in ACT_FLOORS.items():
            assert HeadConfig.eta + floor > thr, act
            assert _ACTIVATION_FUNCS[act][0](xs).min() >= floor - 1e-15, act

    def test_published_constants_are_fixed(self):
        assert [f.name for f in dataclasses.fields(HeadConfig)] == [
            "k", "activation", "agg_mode", "ablation",
        ]
        assert (HeadConfig.d, HeadConfig.alpha, HeadConfig.lambda_s, HeadConfig.eta) == (
            1.7, 1.0, 10.0, 1.2,
        )
        # the curve scale is the kernel's own
        assert (HeadConfig.d, HeadConfig.alpha) == (core.D, core.ALPHA)
        for name in ("d", "alpha", "lambda_s", "eta"):
            with pytest.raises(TypeError):
                HeadConfig(**{name: 1.0})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HeadConfig(k=1)
        with pytest.raises(ValueError):
            HeadConfig(activation="tanh")
        with pytest.raises(ValueError):
            HeadConfig(agg_mode="mean")
        with pytest.raises(ValueError):
            HeadConfig(ablation="both")


class TestFeaturePair:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeaturePair(f_i=[1.0, math.inf], f_t=[1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeaturePair(f_i=[], f_t=[1.0])


class TestHeadParams:
    def test_shape_validation(self):
        hp = init_head(4, 6)
        with pytest.raises(ValueError):
            HeadParams(
                config=hp.config,
                d_img=4,
                d_txt=6,
                agg_w=np.zeros(9),  # should be 10
                agg_b=np.zeros(()),
                phi_beta_w=np.zeros(6),
                phi_beta_b=np.zeros(()),
                phi_gamma_w=np.zeros(6),
                phi_gamma_b=np.zeros(()),
                phi_i_w=np.zeros(4),
                phi_i_b=np.zeros(()),
            )

    def test_copy_is_deep(self):
        hp = init_head(4, 6, seed=1)
        cp = hp.copy()
        cp.agg_w[0] += 1.0
        assert hp.agg_w[0] != cp.agg_w[0]

    def test_ablation_dims(self):
        img = init_head(4, 6, HeadConfig(ablation="image_only"))
        assert img.phi_beta_w.shape == (4,)
        assert img.phi_i_w.shape == (4,)
        txt = init_head(4, 6, HeadConfig(ablation="text_only"))
        assert txt.phi_beta_w.shape == (6,)
        assert txt.phi_i_w.shape == (6,)

    @pytest.mark.parametrize("agg", AGG_MODES)
    @pytest.mark.parametrize("abl", ABLATIONS)
    def test_fields_of_a_stack_are_the_fields_of_each_row(self, agg, abl):
        hp = init_head(4, 6, HeadConfig(k=3, agg_mode=agg, ablation=abl), seed=2)
        stack = np.random.default_rng(2).standard_normal((3, hp.flat.size))
        views = hp.fields(stack)
        assert list(views) == list(PARAM_FIELDS)
        for b, row in enumerate(stack):
            one = hp.copy()
            one.flat[:] = row
            for name in PARAM_FIELDS:
                assert views[name].shape == (3,) + getattr(one, name).shape
                assert np.shares_memory(views[name], stack)
                assert np.array_equal(views[name][b], getattr(one, name)), (b, name)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        k=st.integers(2, 12),
        agg=st.sampled_from(AGG_MODES),
        abl=st.sampled_from(ABLATIONS),
        d_img=st.integers(1, 9),
        d_txt=st.integers(1, 9),
    )
    def test_the_unit_table_is_the_one_layout_of_flat(self, k, agg, abl, d_img, d_txt):
        """The table's runs tile ``flat`` in ``PARAM_FIELDS`` order, and the
        fields, the views of a stack and the names of flat weights all
        read them."""
        hp = init_head(d_img, d_txt, HeadConfig(k=k, agg_mode=agg, ablation=abl), seed=0)
        size = hp.flat.size
        runs = [run for unit in hp._table for run in unit.runs()]
        assert [name for name, *_ in runs] == list(PARAM_FIELDS)
        assert [start for _, start, _, _ in runs] == [0] + [stop for _, _, stop, _ in runs[:-1]]
        assert runs[-1][2] == size
        index = np.arange(size)
        views = hp.fields(index)
        stack = np.zeros((3, size))
        stack_views = hp.fields(stack)
        for i, (name, start, stop, shape) in enumerate(runs):
            assert stop - start == math.prod(shape)
            assert views[name].shape == shape
            assert np.array_equal(views[name].ravel(), index[start:stop])
            assert np.array_equal(getattr(hp, name).ravel(), hp.flat[start:stop])
            assert np.shares_memory(getattr(hp, name), hp.flat)
            stack_views[name][...] = i + 1
            assert (stack[:, start:stop] == i + 1).all()
        assert stack.all()
        names = [_flat_name(hp, c) for c in range(size)]
        assert names == [argwhere_flat_name(hp, c) for c in range(size)]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


class TestInitHead:
    def test_deterministic_by_seed(self):
        a = init_head(8, 8, seed=42)
        b = init_head(8, 8, seed=42)
        for name in ("agg_w", "phi_beta_w", "phi_gamma_w", "phi_i_w"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = init_head(8, 8, seed=43)
        assert not np.array_equal(a.agg_w, c.agg_w)

    def test_fan_in_scaling(self):
        """Doubling the text width halves the squared weight scale."""
        rng = np.random.default_rng(0)
        small = [init_head(1, 8, seed=s).phi_beta_w for s in range(400)]
        big = [init_head(1, 16, seed=s).phi_beta_w for s in range(400)]
        var_small = np.var(np.concatenate(small))
        var_big = np.var(np.concatenate(big))
        # uniform(-s, s) has variance s^2 / 3 with s^2 = 1 / fan_in
        assert var_small == pytest.approx(1.0 / 8 / 3.0, rel=0.1)
        assert var_big == pytest.approx(1.0 / 16 / 3.0, rel=0.1)
        assert var_small / var_big == pytest.approx(2.0, rel=0.2)

    def test_biases_zero_except_spacing(self):
        """Every bias starts at zero; the spacing bias too, as eta clears the threshold."""
        for agg in AGG_MODES:
            hp = init_head(8, 8, HeadConfig(agg_mode=agg))
            for name in ("agg_b", "phi_beta_b", "phi_gamma_b", "phi_i_b"):
                assert np.all(getattr(hp, name) == 0.0)

    def test_fresh_heads_spacing_above_threshold(self):
        """Spot check: random heads on random inputs keep the guarantee."""
        thr = core.gamma_threshold()
        rng = np.random.default_rng(99)
        for seed in range(1000):
            hp = init_head(6, 6, seed=seed)
            assert head_forward(hp, random_pair(rng, 6, 6)).gamma > thr

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_head(0, 8)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


class TestAbilityForward:
    def test_linear_is_affine_in_features(self):
        rng = np.random.default_rng(7)
        hp = init_head(8, 8, seed=3)
        a = random_pair(rng)
        b = random_pair(rng)
        mid = FeaturePair(f_i=(a.f_i + b.f_i) / 2, f_t=(a.f_t + b.f_t) / 2)
        assert head_forward(hp, mid).theta == pytest.approx(
            (head_forward(hp, a).theta + head_forward(hp, b).theta) / 2.0, abs=1e-12
        )

    def test_softmax_uniform_logits_center(self):
        """Zero weights give uniform grades, so ability = lambda_s / 2."""
        cfg = HeadConfig(agg_mode="softmax")
        hp = init_head(8, 8, cfg, seed=0)
        hp.agg_w[:] = 0.0
        pair = random_pair(np.random.default_rng(1))
        assert head_forward(hp, pair).theta == pytest.approx(cfg.lambda_s / 2.0, abs=1e-12)

    def test_softmax_bounded_by_lambda_s(self):
        cfg = HeadConfig(agg_mode="softmax")
        rng = np.random.default_rng(11)
        for seed in range(50):
            hp = init_head(6, 6, cfg, seed=seed)
            th = head_forward(hp, random_pair(rng, 6, 6)).theta
            assert 0.0 <= th <= cfg.lambda_s

    def test_grade_positions(self):
        assert list(grade_positions(5)) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_independent_of_difficulty_weights(self):
        rng = np.random.default_rng(13)
        hp = init_head(8, 8, seed=5)
        pair = random_pair(rng)
        before = head_forward(hp, pair).theta
        hp.phi_beta_w[:] = rng.standard_normal(8)
        hp.phi_gamma_w[:] = rng.standard_normal(8)
        hp.phi_i_w[:] = rng.standard_normal(8)
        assert head_forward(hp, pair).theta == before


class TestDifficultyForward:
    def test_matches_manual_composition(self):
        rng = np.random.default_rng(17)
        hp = init_head(8, 8, seed=9)
        pair = random_pair(rng)
        b_prior = float(hp.phi_beta_w @ pair.f_t + hp.phi_beta_b)
        g_prior = float(hp.phi_gamma_w @ pair.f_t + hp.phi_gamma_b)
        tau = float(hp.phi_i_w @ pair.f_i + hp.phi_i_b)
        beta1, gamma = difficulty(hp, pair)
        assert beta1 == pytest.approx(telu(b_prior + tau), abs=1e-15)
        assert gamma == pytest.approx(telu(g_prior + tau) + 1.2, abs=1e-15)

    def test_independent_of_ability_weights(self):
        rng = np.random.default_rng(19)
        hp = init_head(8, 8, seed=21)
        pair = random_pair(rng)
        before = difficulty(hp, pair)
        hp.agg_w[:] = rng.standard_normal(16)
        assert difficulty(hp, pair) == before

    def test_telu_spacing_floor(self):
        """gamma can never fall below eta + min(telu), whatever the input."""
        rng = np.random.default_rng(23)
        cfg = HeadConfig()
        lo = cfg.eta + TELU_MIN
        for seed in range(200):
            hp = init_head(5, 5, seed=seed)
            f = FeaturePair(f_i=rng.standard_normal(5) * 10, f_t=rng.standard_normal(5) * 10)
            assert head_forward(hp, f).gamma >= lo - 1e-12

    def test_no_temperature_ablation_uses_priors_directly(self):
        cfg = HeadConfig(ablation="no_temperature")
        hp = init_head(8, 8, cfg, seed=31)
        pair = random_pair(np.random.default_rng(29))
        out = head_forward(hp, pair)
        assert out.tau == 0.0
        assert out.beta1 == pytest.approx(telu(out.beta1_prior), abs=1e-15)

    def test_image_only_ablation_ignores_text_in_priors(self):
        cfg = HeadConfig(ablation="image_only")
        hp = init_head(8, 8, cfg, seed=33)
        rng = np.random.default_rng(35)
        f_i = rng.standard_normal(8)
        a = FeaturePair(f_i=f_i, f_t=rng.standard_normal(8))
        b = FeaturePair(f_i=f_i, f_t=rng.standard_normal(8))
        assert difficulty(hp, a) == difficulty(hp, b)

    def test_text_only_ablation_ignores_image_in_temperature(self):
        cfg = HeadConfig(ablation="text_only")
        hp = init_head(8, 8, cfg, seed=37)
        rng = np.random.default_rng(39)
        f_t = rng.standard_normal(8)
        a = FeaturePair(f_i=rng.standard_normal(8), f_t=f_t)
        b = FeaturePair(f_i=rng.standard_normal(8), f_t=f_t)
        assert difficulty(hp, a) == difficulty(hp, b)

    @pytest.mark.parametrize("agg", AGG_MODES)
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_each_unit_reads_the_columns_its_ablation_names(self, ablation, agg):
        """At 3 image and 7 text features, where swapping the text and
        image columns, or the prior and temperature columns, changes the
        widths, each unit of the batch forward is its dot product written
        out over the columns the ablation names, plus its bias."""
        hp = init_head(3, 7, HeadConfig(k=4, agg_mode=agg, ablation=ablation), seed=61)
        hp.flat[...] = np.random.default_rng(62).standard_normal(hp.flat.size)
        x = np.random.default_rng(63).standard_normal((5, 10))
        f_t, f_i = x[:, :7], x[:, 7:]
        prior = f_i if ablation == "image_only" else f_t
        temp = f_t if ablation == "text_only" else f_i
        assert hp.phi_beta_w.shape == hp.phi_gamma_w.shape == (prior.shape[1],)
        assert hp.phi_i_w.shape == (temp.shape[1],)

        def dot(w, b, cols):
            return [math.fsum(c * v for c, v in zip(w, row)) + b for row in cols]

        out = _forward(hp, x)
        ability = out.theta if agg == "linear" else out.logits
        want = np.array(dot(hp.agg_w, hp.agg_b, x) if agg == "linear" else [
            dot(hp.agg_w[j], hp.agg_b[j], x) for j in range(4)
        ]).T
        assert ability == pytest.approx(want, rel=1e-12, abs=1e-12)
        tau = [0.0] * 5 if ablation == "no_temperature" else dot(hp.phi_i_w, hp.phi_i_b, temp)
        for unit, want in (
            (out.beta1_prior, dot(hp.phi_beta_w, hp.phi_beta_b, prior)),
            (out.gamma_prior, dot(hp.phi_gamma_w, hp.phi_gamma_b, prior)),
            (out.tau, tau),
        ):
            assert unit == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestHeadForward:
    def test_output_is_consistent(self):
        rng = np.random.default_rng(41)
        hp = init_head(8, 8, seed=43)
        pair = random_pair(rng)
        out = head_forward(hp, pair)
        x = np.concatenate([pair.f_t, pair.f_i])
        assert out.theta == pytest.approx(float(hp.agg_w @ x + hp.agg_b), abs=1e-12)
        assert (out.beta1, out.gamma) == difficulty(hp, pair)
        assert out.q == pytest.approx(core.expected_score(out.probs), abs=1e-15)
        assert out.q_rescaled == pytest.approx(core.rescale_score(out.q, 5), abs=1e-15)

    def test_probs_normalized_and_score_in_range(self):
        rng = np.random.default_rng(47)
        for seed in range(300):
            hp = init_head(6, 6, seed=seed)
            out = head_forward(hp, random_pair(rng, 6, 6))
            assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= out.q_rescaled <= 5.0

    def test_default_outputs_unimodal(self):
        rng = np.random.default_rng(53)
        for seed in range(300):
            hp = init_head(6, 6, seed=seed)
            out = head_forward(hp, random_pair(rng, 6, 6))
            assert out.gamma > core.gamma_threshold()
            assert core.is_unimodal(out.probs)

    def test_all_scale_sizes(self):
        rng = np.random.default_rng(59)
        for k in (3, 5, 7, 9):
            hp = init_head(6, 6, HeadConfig(k=k), seed=k)
            out = head_forward(hp, random_pair(rng, 6, 6))
            assert len(out.probs) == k
            assert 0.0 <= out.q_rescaled <= 5.0

    def test_mismatched_features_rejected(self):
        hp = init_head(8, 8)
        with pytest.raises(ValueError):
            head_forward(hp, FeaturePair(f_i=np.zeros(4), f_t=np.zeros(8)))

    def test_softmax_mode_end_to_end(self):
        cfg = HeadConfig(agg_mode="softmax")
        hp = init_head(8, 8, cfg, seed=71)
        out = head_forward(hp, random_pair(np.random.default_rng(73)))
        assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= out.theta <= cfg.lambda_s

    def test_every_ablation_and_activation_runs(self):
        rng = np.random.default_rng(79)
        for act in ACTIVATIONS:
            for abl in ABLATIONS:
                cfg = HeadConfig(activation=act, ablation=abl)
                hp = init_head(5, 7, cfg, seed=hash((act, abl)) % 2**31)
                out = head_forward(
                    hp, FeaturePair(f_i=rng.standard_normal(5), f_t=rng.standard_normal(7))
                )
                assert math.isfinite(out.q_rescaled)


# ---------------------------------------------------------------------------
# the spacing guarantee, for any weights and inputs
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    act=st.sampled_from(ACTIVATIONS),
    agg=st.sampled_from(AGG_MODES),
    abl=st.sampled_from(ABLATIONS),
    seed=st.integers(0, 2**32 - 1),
    w_scale=st.one_of(st.sampled_from([1e3, 0.0]), st.floats(0.0, 1e3)),
    x_scale=st.one_of(st.just(1e3), st.floats(0.0, 1e3)),
    # telu's minimum sits at TELU_ARGMIN; the all-zero row reaches it exactly
    gamma_bias=st.one_of(st.just(TELU_ARGMIN), st.floats(-1e3, 1e3)),
)
def test_every_spacing_clears_the_threshold(act, agg, abl, seed, w_scale, x_scale, gamma_bias):
    """The guarantee that replaces a runtime spacing check in the forward."""
    hp = init_head(4, 5, HeadConfig(activation=act, agg_mode=agg, ablation=abl), seed=seed)
    hp.flat[:] *= w_scale
    hp.phi_gamma_b[()] = gamma_bias
    x = x_scale * np.random.default_rng(seed).standard_normal((16, 9))
    x[0] = 0.0
    gamma = np.concatenate([batch.gamma for _, batch in forward_blocks(hp, x)])
    assert np.isfinite(gamma).all()
    assert gamma.min() > core.gamma_threshold()


# ---------------------------------------------------------------------------
# grade-first arrays against the tail written over a last grade axis
# ---------------------------------------------------------------------------


def _tail_over_last_axis(hp, agg, b_prior, g_prior, tau):
    """The forward's tail from its four units, with every per-grade array
    laid out (..., k) and each reduction over grades running along that
    contiguous last axis: (theta, beta1, gamma, probs, q, q_rescaled,
    softmax_p, pre)."""
    cfg = hp.config
    theta, p = agg, None
    if cfg.agg_mode == "softmax":
        e = np.exp(agg - agg.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        theta = cfg.lambda_s * np.add.reduce(p * grade_positions(cfg.k), axis=-1)
    pre, beta1, gamma = _activate(hp, b_prior, g_prior, tau)
    kernel = core.agrm_probs_unchecked(*(v.reshape(-1) for v in (theta, beta1, gamma)), cfg.k)
    probs = np.ascontiguousarray(kernel).reshape(theta.shape + (cfg.k,))
    terms = probs * np.arange(1.0, cfg.k + 1)
    run = terms.cumsum(axis=-1)
    s, t, x = run[..., :-1], run[..., 1:], terms[..., 1:]
    z = t - s
    q = run[..., -1] + ((s - (t - z)) + (x - z)).sum(axis=-1)
    q_rescaled = np.minimum(5.0, np.maximum(0.0, (q - 1.0) * 5.0 / (cfg.k - 1.0)))
    return theta, beta1, gamma, probs, q, q_rescaled, p, pre


def _grad_over_last_axis(hp, x, t, lam, probs, p, pre, q_rescaled):
    """The flat gradient from the tail's (N, k) outputs, the slopes
    (N, k-1) and the softmax adjoint (N, k) each reduced along its last
    axis."""
    cfg = hp.config
    upstream = losses._loss_and_upstream(q_rescaled, t, lam)[1]
    sp = probs[:, :-1].cumsum(axis=1) * probs[:, :0:-1].cumsum(axis=1)[:, ::-1]
    uqc = upstream * 5.0 / (cfg.k - 1) * core._SCALE
    theta_bar = uqc * np.add.reduce(sp, axis=1)
    gamma_bar = -uqc * (sp @ np.arange(float(cfg.k - 1)))
    db, dg = np.array((-theta_bar, gamma_bar)) * _ACTIVATION_FUNCS[cfg.activation][1](pre)
    ability_bar = theta_bar
    if cfg.agg_mode == "softmax":
        pbar = (theta_bar * cfg.lambda_s)[:, None] * grade_positions(cfg.k)
        ability_bar = p * (pbar - (pbar * p).sum(axis=1, keepdims=True))
    flat = np.zeros(hp.flat.size)
    grads = hp.fields(flat)
    for unit, bar in zip(hp._table, (ability_bar, db, dg, db + dg)):
        grads[unit.weight][...] = bar.T @ x[:, unit.columns]
        grads[unit.bias][...] = np.add.reduce(bar, axis=0)
    return flat


@pytest.mark.parametrize("k", [9, 16, 20])
@pytest.mark.parametrize("agg", AGG_MODES)
@pytest.mark.parametrize("n", [24, 300])
def test_grade_first_tail_matches_the_last_axis_tail_bitwise(k, agg, n):
    """Every ``HeadBatch`` field, the flat gradient and the rows of
    ``_moved_scores`` are byte for byte those of the tail recomputed over a
    last grade axis, at grade counts where NumPy's pairwise sum is not a
    sequential one.  A reduction over grades that leaves
    ``core._grade_sum``'s order changes some bit here."""
    rng = np.random.default_rng(100 * k + n)
    hp = init_head(3, 4, HeadConfig(k=k, agg_mode=agg, activation="softplus"), seed=k)
    hp.flat[:] += rng.normal(0.0, 0.5, hp.flat.size)
    x = 2.0 * rng.standard_normal((n, 7))
    t = rng.uniform(0.0, 5.0, n)
    coords = np.sort(rng.choice(hp.flat.size, size=min(24, hp.flat.size), replace=False))
    deltas = rng.normal(0.0, 0.3, coords.size)
    with np.errstate(under="ignore"):
        fw = _forward(hp, x)
        units = _units(hp, x)
        theta, beta1, gamma, probs, q, q_rescaled, p, pre = _tail_over_last_axis(hp, *units)
        logits = None if p is None else units[0]
        want = HeadBatch(theta, *units[1:], beta1, gamma, probs, q, q_rescaled, p, *pre, logits)
        for name, got, expect in zip(HeadBatch._fields, fw, want):
            assert (got is None) == (expect is None), name
            assert got is None or (got.shape, got.tobytes()) == (expect.shape, expect.tobytes()), name

        flat = batch_loss_and_grads(hp, x, t, 0.5).flat
        assert flat.tobytes() == _grad_over_last_axis(hp, x, t, 0.5, probs, p, pre, q_rescaled).tobytes()

        x = x[:24]
        base = _forward(hp, x)
        stack = [np.repeat(v[None], coords.size, 0) for v in _units(hp, x)]
        for u, lo, hi, out, values in _moved_units(hp, x, coords, deltas):
            stack[u].reshape(coords.size, len(x), -1)[np.arange(lo, hi), :, out] = values
        moved = _moved_scores(hp, x, base, coords, deltas)
        assert moved.tobytes() == _tail_over_last_axis(hp, *stack)[5].tobytes()
