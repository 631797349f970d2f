import math
import warnings

import numpy as np
import pytest

from agrm import losses, trainer
from agrm.core import gamma_threshold
from agrm.data import Records, SynthConfig, split, synth_generate
from agrm.gradients import batch_loss_and_grads
from agrm.head import PARAM_FIELDS, HeadConfig, forward_blocks, init_head
from agrm.trainer import (
    PRESET_NAMES,
    Checkpoint,
    EpochStats,
    TrainConfig,
    adamw_step,
    cosine_lr,
    evaluate,
    evaluate_by_dim,
    init_adam_state,
    load_checkpoint,
    preset,
    save_checkpoint,
    train,
)


def tiny_dataset(n=48, sigma=0.0, seed=0, d=6):
    recs, planted = synth_generate(
        SynthConfig(n=n, d_img=d, d_txt=d, noise_sigma=sigma, seed=seed)
    )
    return recs, planted


class TestTrainConfig:
    def test_defaults_are_reference_protocol(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-5
        assert cfg.weight_decay == 1e-3
        assert cfg.epochs == 100
        assert cfg.batch_size == 16
        assert cfg.t_max == 5
        assert cfg.lam == 1.0
        assert trainer.ADAM_BETAS == (0.9, 0.999)
        assert trainer.ADAM_EPS == 1e-8
        assert losses.PLCC_EPSILON == 1e-8

    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": -1e-5},
            {"weight_decay": -1.0},
            {"epochs": 0},
            {"batch_size": 1},
            {"t_max": 0},
            {"lam": -0.5},
            {"lr": float("nan")},
            {"weight_decay": float("inf")},
            {"epochs": 2.5},
            {"lam": float("nan")},
            # JSON's true and a quoted number are not numbers
            {"epochs": True},
            {"lr": True},
            {"seed": "x"},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_paper_preset_is_the_defaults(self):
        assert preset("paper") == TrainConfig()

    def test_recovery_preset_raises_lr(self):
        cfg = preset("recovery")
        assert cfg.lr == 1e-3
        assert cfg.epochs == 100

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            preset("fast")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_name_builds_its_config(self, name):
        assert isinstance(preset(name), TrainConfig)


class TestCosineLr:
    def test_starts_at_base(self):
        assert cosine_lr(0, 1e-3, 5) == 1e-3

    def test_half_period_is_half_rate(self):
        assert cosine_lr(3, 2.0, 6) == pytest.approx(1.0, rel=1e-15)

    def test_restart_returns_to_base(self):
        assert cosine_lr(5, 1e-3, 5) == 1e-3
        assert cosine_lr(10, 1e-3, 5) == 1e-3

    def test_periodic(self):
        for e in range(12):
            assert cosine_lr(e, 0.7, 4) == cosine_lr(e + 4, 0.7, 4)

    def test_monotone_within_period(self):
        vals = [cosine_lr(e, 1.0, 8) for e in range(8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 1e-3, 0)
        with pytest.raises(ValueError):
            cosine_lr(-1, 1e-3, 5)

    @pytest.mark.parametrize(
        "epoch, t_max, message",
        [
            (3, True, "t_max must be an integer >= 1, got True"),
            (0, 2.0, "t_max must be an integer >= 1, got 2.0"),
            (True, 5, "epoch must be an integer >= 0, got True"),
            (1.5, 5, "epoch must be an integer >= 0, got 1.5"),
        ],
    )
    def test_counts_follow_the_train_config_rule(self, epoch, t_max, message):
        # a bool or float count is refused with TrainConfig's own message
        with pytest.raises(ValueError) as info:
            cosine_lr(epoch, 1.0, t_max)
        assert str(info.value) == message
        if isinstance(t_max, (bool, float)):
            with pytest.raises(ValueError) as info:
                TrainConfig(t_max=t_max)
            assert str(info.value) == message


def ones_head(d=1):
    hp = init_head(d, d, seed=0)
    for name in PARAM_FIELDS:
        getattr(hp, name)[...] = 1.0
    return hp


def const_grads(hp, value):
    """The same gradient on every weight, flat like ``hp.flat``."""
    return np.full_like(hp.flat, value)


class TestAdamW:
    def test_zero_grads_zero_decay_is_identity(self):
        hp = ones_head()
        cfg = TrainConfig(weight_decay=0.0)
        adamw_step(hp, init_adam_state(hp), const_grads(hp, 0.0), 1e-3, cfg)
        for name in PARAM_FIELDS:
            assert np.all(getattr(hp, name) == 1.0)

    def test_zero_grads_decay_shrinks_multiplicatively(self):
        hp = ones_head()
        cfg = TrainConfig(weight_decay=1e-2)
        adamw_step(hp, init_adam_state(hp), const_grads(hp, 0.0), 1e-3, cfg)
        want = 1.0 - 1e-3 * 1e-2 * 1.0
        for name in PARAM_FIELDS:
            assert np.all(getattr(hp, name) == want)

    def test_single_step_hand_oracle(self):
        # from weight 1, gradient 0.5, lr 1e-3, wd 1e-3:
        #   decay:  w = 1 - 1e-3*1e-3 = 0.999999
        #   m=0.05, v=2.5e-4; bias-corrected mhat=0.5, vhat=0.25
        #   step = 1e-3 * 0.5/(0.5 + 1e-8)
        hp = ones_head()
        cfg = TrainConfig()
        adamw_step(hp, init_adam_state(hp), const_grads(hp, 0.5), 1e-3, cfg)
        expected = (1.0 - 1e-3 * 1e-3) - 1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(expected - 0.99899900002) < 1e-11
        for name in PARAM_FIELDS:
            assert np.all(np.abs(getattr(hp, name) - expected) < 1e-15)

    def test_step_counter_advances(self):
        hp = ones_head()
        st = init_adam_state(hp)
        for t in range(1, 4):
            adamw_step(hp, st, const_grads(hp, 0.1), 1e-4, TrainConfig())
            assert st.t == t

    def test_deterministic_across_instances(self):
        hp1, hp2 = ones_head(), ones_head()
        st1, st2 = init_adam_state(hp1), init_adam_state(hp2)
        g = const_grads(hp1, 0.3)
        for _ in range(5):
            adamw_step(hp1, st1, g, 1e-3, TrainConfig())
            adamw_step(hp2, st2, g, 1e-3, TrainConfig())
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(hp1, name), getattr(hp2, name))


class TestTrain:
    def test_zero_lr_is_a_no_op(self):
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        hp = init_head(6, 6, seed=1)
        cfg = TrainConfig(lr=0.0, epochs=4, batch_size=8, lam=0.0)
        ckpt = train(cfg, tr, te, hp)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(ckpt.head, name), getattr(hp, name))
        losses = [h.train_loss for h in ckpt.history]
        assert all(v == losses[0] for v in losses)
        assert all(h.eval_srcc == ckpt.history[0].eval_srcc for h in ckpt.history)

    def test_initial_head_not_mutated(self):
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        hp = init_head(6, 6, seed=2)
        before = hp.copy()
        train(TrainConfig(lr=1e-3, epochs=2, batch_size=8), tr, te, hp)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(hp, name), getattr(before, name))

    def test_history_shape_and_schedule(self):
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        cfg = TrainConfig(lr=1e-3, epochs=7, batch_size=8, t_max=3)
        ckpt = train(cfg, tr, te, init_head(6, 6, seed=3))
        assert [h.epoch for h in ckpt.history] == list(range(7))
        assert [h.lr for h in ckpt.history] == [cosine_lr(e, 1e-3, 3) for e in range(7)]
        assert ckpt.epochs_completed == 7

    def test_same_seed_identical_runs(self):
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=8, seed=5)
        a = train(cfg, tr, te, init_head(6, 6, seed=4))
        b = train(cfg, tr, te, init_head(6, 6, seed=4))
        assert a.history == b.history
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(a.head, name), getattr(b.head, name))

    def test_loss_improves_early(self):
        recs, _ = tiny_dataset(n=64)
        tr, te = split(recs, 0.75, seed=0)
        cfg = TrainConfig(lr=1e-3, epochs=10, batch_size=8)
        ckpt = train(cfg, tr, te, init_head(6, 6, seed=6))
        losses = [h.train_loss for h in ckpt.history]
        assert min(losses[1:]) < losses[0]

    def test_no_spacing_violations_under_default_head(self):
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        ckpt = train(TrainConfig(lr=1e-3, epochs=3, batch_size=8), tr, te, init_head(6, 6, seed=7))
        least = min(batch.gamma.min() for _, batch in forward_blocks(ckpt.head, recs))
        assert least > gamma_threshold()

    def test_single_record_remainder_batch_is_dropped(self):
        recs, _ = tiny_dataset(n=17)
        hp = init_head(6, 6, seed=8)
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=16)
        ckpt = train(cfg, recs, recs[:4], hp)  # 17 = 16 + 1 leftover
        assert len(ckpt.history) == 2

    @pytest.mark.parametrize(
        "poison, message",
        [(name, f"epoch 1, step 2: non-finite gradient in {name}") for name in PARAM_FIELDS]
        + [("loss", "epoch 1, step 2: non-finite loss nan")],
    )
    def test_non_finite_step_names_epoch_step_and_field(self, monkeypatch, poison, message):
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        exact = trainer._loss_and_grads
        steps = []

        def poisoned(hp, x, t, lam, grads):
            loss, item_losses = exact(hp, x, t, lam, grads)
            steps.append(None)
            if len(steps) == 8:  # 36 records, batches of 8: 5 steps per epoch
                if poison == "loss":
                    loss = float("nan")
                else:
                    grads[poison][...] += np.inf
            return loss, item_losses

        monkeypatch.setattr(trainer, "_loss_and_grads", poisoned)
        with pytest.raises(ValueError) as info:
            train(TrainConfig(lr=1e-3, epochs=3, batch_size=8), tr, te, init_head(6, 6, seed=9))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "field, message",
        [
            ("agg_w", "epoch 0, step 0: theta nan is not finite (row 0)"),
            ("phi_beta_w", "epoch 0, step 0: beta1 inf is not finite (row 0)"),
        ],
    )
    def test_forward_overflow_stops_with_the_kernels_message(self, field, message):
        """Huge but finite weights overflow inside the forward; the kernel's
        input checks stop the step, naming the first bad row, and no NumPy
        warning gets out."""
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        hp = init_head(6, 6, seed=4)
        getattr(hp, field)[...] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                train(TrainConfig(lr=1e-3, epochs=3, batch_size=8), tr, te, hp)
        assert str(info.value) == message

    def test_overflowing_second_moment_names_its_field(self):
        """Features near 1e160 against weights scaled down by as much keep
        the forward moderate, but the squared gradient overflows in the
        second moment, while the gradient and the weights stay finite."""
        recs, _ = tiny_dataset()
        tr, te = split(recs, 0.75, seed=0)
        huge = Records(x=tr.x * 1e160, d_img=6, mos=tr.mos, id=tr.id, dim=tr.dim)
        hp = init_head(6, 6, seed=4)
        hp.flat[:] /= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                train(TrainConfig(lr=1e-3, epochs=3, batch_size=8), huge, te, hp)
        assert str(info.value) == "epoch 0, step 0: non-finite second moment in agg_w"

    def test_overflowing_screen_sum_is_no_stop(self):
        """Finite second moments whose sum overflows fail the step's one-sum
        screen; the exact checks behind it pass them, and the step goes on."""
        recs, _ = tiny_dataset()
        hp = init_head(6, 6, seed=4)
        opt = init_adam_state(hp)
        opt.v[:] = 1e308
        grad = np.zeros(hp.flat.shape)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.concatenate((hp.flat, opt.v)).sum())
            trainer._train_step(
                hp, opt, grad, hp.fields(grad), recs.x[:8], recs.mos[:8], 1e-3, TrainConfig(lr=1e-3)
            )
        assert opt.t == 1 and np.isfinite(opt.v).all() and np.isfinite(hp.flat).all()

    def test_rejects_small_train_set(self):
        recs, _ = tiny_dataset(n=8)
        with pytest.raises(ValueError, match="batch_size"):
            train(TrainConfig(batch_size=16), recs, recs, init_head(6, 6))

    def test_rejects_empty_sets(self):
        recs, _ = tiny_dataset(n=16)
        with pytest.raises(ValueError):
            train(TrainConfig(), [], recs, init_head(6, 6))
        with pytest.raises(ValueError):
            train(TrainConfig(batch_size=8), recs, [], init_head(6, 6))

    def test_rejects_single_record_eval(self):
        recs, _ = tiny_dataset(n=16)
        with pytest.raises(ValueError, match="eval"):
            train(TrainConfig(batch_size=8), recs, recs[:1], init_head(6, 6))


def test_fortran_ordered_records_train_to_the_same_bytes(tmp_path):
    """A set built from a Fortran-ordered feature matrix trains to the
    checkpoint bytes of its C-ordered copy."""
    recs, _ = synth_generate(SynthConfig(n=256, seed=3))
    fortran = Records(
        x=np.asfortranarray(recs.x), d_img=recs.d_img, mos=recs.mos, id=recs.id, dim=recs.dim
    )
    cfg = TrainConfig(lr=1e-3, epochs=5)
    head = init_head(recs.d_img, recs.d_txt, seed=1)
    paths = tmp_path / "c.json", tmp_path / "f.json"
    for path, rs in zip(paths, (recs, fortran)):
        save_checkpoint(path, train(cfg, rs[:192], rs[192:], head))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def reference_train(cfg, train_set, eval_set, head_init):
    """``train`` as a loop over the public checked pieces: a fresh gradient
    from ``batch_loss_and_grads`` each step, ``adamw_step``, ``cosine_lr``
    and ``evaluate``, with the same shuffle and drop rule."""
    head = head_init.copy()
    opt = init_adam_state(head)
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.lr, cfg.t_max)
        perm = rng.permutation(len(train_set))
        item_losses = []
        for start in range(0, perm.size, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            rep = batch_loss_and_grads(head, train_set.x[idx], train_set.mos[idx], cfg.lam)
            adamw_step(head, opt, rep.flat, lr, cfg)
            item_losses.append(rep.item_losses)
        item_losses = np.concatenate(item_losses)
        eval_srcc, eval_plcc = evaluate(head, eval_set)
        history.append(
            EpochStats(epoch, lr, math.fsum(item_losses) / item_losses.size, eval_srcc, eval_plcc)
        )
    return head, history


# C9's data and its five head configurations checked for identical bytes
# whenever the training step changes
C9_HEADS = [
    HeadConfig(),
    HeadConfig(k=9, activation="relu", agg_mode="softmax"),
    HeadConfig(activation="sigmoid", ablation="no_temperature"),
    HeadConfig(k=3, activation="softplus", ablation="text_only"),
    HeadConfig(k=7, agg_mode="softmax", ablation="image_only"),
]


@pytest.mark.parametrize(
    "config", C9_HEADS, ids=lambda c: f"{c.activation}-{c.agg_mode}-k{c.k}-{c.ablation}"
)
def test_train_matches_a_loop_over_the_checked_step(monkeypatch, config):
    """``train`` reuses one gradient vector and skips the per-step input
    checks, yet its weights and history are bitwise those of the loop over
    the public pieces; the temperature map's gradient, which no_temperature
    never writes, reads exactly 0 at every step."""
    recs, _ = synth_generate(SynthConfig(n=512, noise_sigma=0.25, seed=11))
    tr, te = split(recs, 0.75, seed=1)
    hp = init_head(tr.d_img, tr.d_txt, config, seed=99)
    cfg = TrainConfig(lr=1e-3, epochs=6)  # one cosine restart at t_max 5
    exact = trainer._loss_and_grads
    temp_grads = []

    def spy(hp, x, t, lam, grads):
        out = exact(hp, x, t, lam, grads)
        temp_grads.append(np.append(grads["phi_i_w"], grads["phi_i_b"]))
        return out

    monkeypatch.setattr(trainer, "_loss_and_grads", spy)
    ckpt = train(cfg, tr, te, hp)
    head, history = reference_train(cfg, tr, te, hp)
    assert ckpt.head.flat.tobytes() == head.flat.tobytes()
    assert ckpt.history == history
    assert len(temp_grads) == cfg.epochs * len(tr) // cfg.batch_size
    if config.ablation == "no_temperature":
        assert all(not g.any() for g in temp_grads)
    else:
        assert all(g.any() for g in temp_grads)


class TestEvaluate:
    def test_planted_head_on_own_noiseless_data_is_perfect(self):
        recs, planted = tiny_dataset(n=40, seed=9)
        s, p = evaluate(planted, recs)
        assert s == 1.0
        assert p == 1.0

    def test_permutation_invariant(self):
        recs, planted = tiny_dataset(n=30, sigma=0.4, seed=10)
        s1, p1 = evaluate(planted, recs)
        shuffled = [recs[i] for i in np.random.default_rng(0).permutation(len(recs))]
        s2, p2 = evaluate(planted, shuffled)
        assert abs(s1 - s2) < 1e-12
        assert abs(p1 - p2) < 1e-12

    def test_rejects_single_record(self):
        recs, planted = tiny_dataset(n=20, seed=12)
        with pytest.raises(ValueError):
            evaluate(planted, recs[:1])

    def test_by_dim_matches_filtered_eval(self):
        recs, planted = tiny_dataset(n=30, sigma=0.2, seed=13)
        per_dim = evaluate_by_dim(planted, recs)
        for dim, got in per_dim.items():
            subset = [r for r in recs if r.dim == dim]
            assert got == evaluate(planted, subset)

    def test_by_dim_skips_tiny_groups(self):
        recs, planted = tiny_dataset(n=30, seed=14)
        only = [r for r in recs if r.dim == "quality"] + [
            r for r in recs if r.dim == "authenticity"
        ][:1]
        out = evaluate_by_dim(planted, only)
        assert "quality" in out
        assert "authenticity" not in out


class TestCheckpointIO:
    def make_ckpt(self):
        recs, _ = tiny_dataset(n=32, seed=15)
        tr, te = split(recs, 0.75, seed=0)
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=8, seed=2)
        return train(cfg, tr, te, init_head(6, 6, seed=16)), te

    def test_round_trip_exact(self, tmp_path):
        ckpt, te = self.make_ckpt()
        p = tmp_path / "ck.json"
        save_checkpoint(p, ckpt)
        back = load_checkpoint(p)
        assert back.config == ckpt.config
        assert back.history == ckpt.history
        assert back.seed == ckpt.seed
        assert back.epochs_completed == ckpt.epochs_completed
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(back.head, name), getattr(ckpt.head, name))
        assert evaluate(back.head, te) == evaluate(ckpt.head, te)

    def test_bytes_deterministic(self, tmp_path):
        ckpt, _ = self.make_ckpt()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, ckpt)
        save_checkpoint(b, ckpt)
        assert a.read_bytes() == b.read_bytes()

    def test_softmax_head_round_trip(self, tmp_path):
        hp = init_head(4, 4, HeadConfig(agg_mode="softmax", k=7), seed=17)
        ckpt = Checkpoint(head=hp, config=TrainConfig(), history=[], seed=0)
        p = tmp_path / "ck.json"
        save_checkpoint(p, ckpt)
        back = load_checkpoint(p)
        assert back.head.config == hp.config
        assert back.head.agg_w.shape == (7, 8)
        assert np.array_equal(back.head.agg_w, hp.agg_w)

    def test_rejects_unknown_version(self, tmp_path):
        ckpt, _ = self.make_ckpt()
        p = tmp_path / "ck.json"
        save_checkpoint(p, ckpt)
        doc = p.read_text().replace('"format_version":4', '"format_version":99')
        p.write_text(doc)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(p)

    def test_rejects_missing_fields(self, tmp_path):
        p = tmp_path / "ck.json"
        p.write_text('{"format_version":4,"train_config":{}}')
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_history_cannot_exceed_epochs(self):
        hp = init_head(4, 4, seed=18)
        rows = [
            EpochStats(epoch=i, lr=0.0, train_loss=0.0, eval_srcc=0.0, eval_plcc=0.0)
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="history"):
            Checkpoint(
                head=hp,
                config=TrainConfig(epochs=2),
                history=rows,
                seed=0,
            )
