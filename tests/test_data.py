import dataclasses
import gzip
import json

import numpy as np
import pytest

from agrm.data import (
    DIMS,
    FeatureRecord,
    SynthConfig,
    dim_counts,
    load_records,
    normalize_mos,
    save_records,
    split,
    synth_generate,
)
from agrm.head import FeaturePair, head_forward, init_head
from agrm.losses import srcc


def rec(i=0, mos=2.5, dim="quality", fi=(1.0, 2.0), ft=(3.0, 4.0)):
    return FeatureRecord(id=f"r{i}", f_i=np.array(fi), f_t=np.array(ft), mos=mos, dim=dim)


class TestFeatureRecord:
    def test_valid_construction(self):
        r = rec()
        assert r.id == "r0"
        assert r.mos == 2.5
        assert r.f_i.dtype == np.float64

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            rec(dim="sharpness")

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="id"):
            FeatureRecord(id="", f_i=[1.0], f_t=[1.0], mos=0.0, dim="quality")

    def test_rejects_nonfinite_mos(self):
        with pytest.raises(ValueError, match="mos"):
            rec(mos=float("nan"))

    def test_rejects_nonfinite_vector(self):
        with pytest.raises(ValueError):
            rec(fi=(1.0, float("inf")))

    def test_equality_is_exact(self):
        assert rec() == rec()
        assert rec() != rec(mos=2.5 + 1e-15)
        assert rec() != rec(fi=(1.0, 2.0 + 1e-15))
        assert rec() != "not a record"

    def test_pair_shares_vectors(self):
        r = rec()
        p = r.pair()
        assert np.array_equal(p.f_i, r.f_i)
        assert np.array_equal(p.f_t, r.f_t)

    def test_record_is_a_feature_pair(self):
        r = rec()
        assert isinstance(r, FeaturePair)
        assert r.pair() is r

    def test_scores_like_the_bare_pair(self):
        hp = init_head(2, 2, seed=0)
        r = rec()
        a = head_forward(hp, r)
        b = head_forward(hp, FeaturePair(f_i=r.f_i, f_t=r.f_t))
        # ProbVector compares by identity, so compare its entries
        assert dataclasses.replace(a, probs=tuple(a.probs)) == dataclasses.replace(
            b, probs=tuple(b.probs)
        )

    def test_metadata_is_keyword_only(self):
        with pytest.raises(TypeError):
            FeatureRecord([1.0], [1.0], "r0", 0.0, "quality")


class TestLoadSave:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_records(p) == []

    def test_single_record_round_trip(self, tmp_path):
        p = tmp_path / "one.jsonl"
        r = rec(mos=0.1)  # 0.1 is not dyadic; repr round trip must still hold
        save_records(p, [r])
        back = load_records(p)
        assert back == [r]

    def test_round_trip_many(self, tmp_path):
        rng = np.random.default_rng(5)
        recs = [
            FeatureRecord(
                id=f"r{i}",
                f_i=rng.normal(size=4),
                f_t=rng.normal(size=3),
                mos=rng.uniform(0, 5),
                dim=DIMS[i % 3],
            )
            for i in range(20)
        ]
        p = tmp_path / "many.jsonl"
        save_records(p, recs)
        assert load_records(p) == recs

    def test_gzip_round_trip(self, tmp_path):
        p = tmp_path / "z.jsonl.gz"
        recs = [rec(0), rec(1, mos=1.25)]
        save_records(p, recs)
        with gzip.open(p, "rt") as fh:
            assert len(fh.readlines()) == 2
        assert load_records(p) == recs

    def test_gzip_bytes_deterministic(self, tmp_path):
        recs = [rec(0)]
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        save_records(a, recs)
        save_records(b, recs)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality"})
        p.write_text(good + "\n{oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_records(p)

    def test_mismatched_vector_length_reports_line_number(self, tmp_path):
        p = tmp_path / "dims.jsonl"
        lines = [
            {"id": "a", "fi": [1.0, 2.0], "ft": [1.0], "mos": 1.0, "dim": "quality"},
            {"id": "b", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality"},
        ]
        p.write_text("".join(json.dumps(l) + "\n" for l in lines))
        with pytest.raises(ValueError, match="line 2"):
            load_records(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "miss.jsonl"
        p.write_text(json.dumps({"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0}) + "\n")
        with pytest.raises(ValueError, match="missing.*dim"):
            load_records(p)

    def test_unknown_field(self, tmp_path):
        p = tmp_path / "extra.jsonl"
        obj = {"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality", "x": 1}
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="unknown"):
            load_records(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.jsonl"
        good = json.dumps({"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality"})
        p.write_text("\n" + good + "\n\n")
        assert len(load_records(p)) == 1

    def test_dim_counts(self):
        recs = [rec(0, dim="quality"), rec(1, dim="quality"), rec(2, dim="authenticity")]
        assert dim_counts(recs) == {"quality": 2, "consistency": 0, "authenticity": 1}


class TestNormalizeMos:
    def test_full_range_unchanged(self):
        recs = [rec(i, mos=m) for i, m in enumerate([0.0, 2.5, 5.0])]
        out = normalize_mos(recs)
        assert [r.mos for r in out] == [0.0, 2.5, 5.0]

    def test_typical_opinion_scale(self):
        recs = [rec(i, mos=m) for i, m in enumerate([1.0, 3.0, 5.0])]
        out = normalize_mos(recs)
        assert [r.mos for r in out] == [0.0, 2.5, 5.0]

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        recs = [rec(i, mos=m) for i, m in enumerate(rng.uniform(1.3, 4.1, size=50))]
        out = normalize_mos(recs)
        lo, hi = min(r.mos for r in recs), max(r.mos for r in recs)
        for before, after in zip(recs, out):
            assert abs(lo + after.mos * (hi - lo) / 5.0 - before.mos) < 1e-12

    def test_transform_is_plain_affine(self):
        recs = [rec(i, mos=m) for i, m in enumerate([1.0, 3.0, 5.0, 2.0, 4.5])]
        assert [r.mos for r in normalize_mos(recs)] == [0.0, 2.5, 5.0, 1.25, 4.375]

    def test_constant_scores_rejected(self):
        recs = [rec(i, mos=3.0) for i in range(4)]
        with pytest.raises(ValueError, match="constant"):
            normalize_mos(recs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_mos([])


class TestSplit:
    def test_sizes(self):
        recs = [rec(i) for i in range(10)]
        tr, te = split(recs, 0.8, seed=0)
        assert (len(tr), len(te)) == (8, 2)

    def test_same_seed_same_split(self):
        recs = [rec(i) for i in range(25)]
        a = split(recs, 0.6, seed=9)
        b = split(recs, 0.6, seed=9)
        assert a == b

    def test_different_seed_usually_differs(self):
        recs = [rec(i) for i in range(25)]
        a = split(recs, 0.6, seed=1)
        b = split(recs, 0.6, seed=2)
        assert [r.id for r in a[0]] != [r.id for r in b[0]]

    def test_union_is_input_multiset(self):
        recs = [rec(i) for i in range(13)]
        tr, te = split(recs, 0.5, seed=4)
        assert sorted(r.id for r in tr + te) == sorted(r.id for r in recs)
        assert not {r.id for r in tr} & {r.id for r in te}

    def test_fraction_bounds(self):
        recs = [rec(i) for i in range(4)]
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(recs, frac)


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig(n=10)
        assert (cfg.d_img, cfg.d_txt) == (16, 16)
        assert cfg.noise_sigma == 0.0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            SynthConfig(n=1)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5, d_img=0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5, noise_sigma=-0.1)

    def test_rejects_bad_ability_scale(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5, ability_scale=0.0)


class TestSynthGenerate:
    def test_noiseless_scores_match_planted_head_exactly(self):
        recs, planted = synth_generate(SynthConfig(n=50, seed=3))
        for r in recs:
            assert r.mos == head_forward(planted, r.pair()).q_rescaled

    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(n=30, seed=8, noise_sigma=0.2)
        a, ha = synth_generate(cfg)
        b, hb = synth_generate(cfg)
        assert a == b
        assert all(
            np.array_equal(getattr(ha, f), getattr(hb, f))
            for f in ("agg_w", "phi_beta_w", "phi_gamma_w", "phi_i_w")
        )

    def test_noise_change_keeps_features(self):
        a, _ = synth_generate(SynthConfig(n=20, seed=5))
        b, _ = synth_generate(SynthConfig(n=20, seed=5, noise_sigma=0.3))
        for x, y in zip(a, b):
            assert np.array_equal(x.f_i, y.f_i)
            assert np.array_equal(x.f_t, y.f_t)
            assert x.mos != y.mos

    def test_sigma_band_holds_at_scale(self):
        recs, _ = synth_generate(SynthConfig(n=10_000, noise_sigma=0.1, seed=0))
        mos = np.array([r.mos for r in recs])
        assert mos.min() >= -0.4
        assert mos.max() <= 5.4

    def test_noiseless_rank_agreement_is_perfect(self):
        recs, planted = synth_generate(SynthConfig(n=100, seed=2))
        pred = [head_forward(planted, r.pair()).q_rescaled for r in recs]
        assert srcc(pred, [r.mos for r in recs]) == 1.0

    def test_dim_tags_cycle(self):
        recs, _ = synth_generate(SynthConfig(n=7, seed=1))
        assert [r.dim for r in recs[:4]] == [
            "quality",
            "consistency",
            "authenticity",
            "quality",
        ]

    def test_scores_spread_over_range(self):
        recs, _ = synth_generate(SynthConfig(n=500, seed=6))
        mos = np.array([r.mos for r in recs])
        assert mos.min() < 1.0 and mos.max() > 4.0
