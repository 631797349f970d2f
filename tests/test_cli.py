import copy
import dataclasses
import gzip
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agrm import cli, core
from agrm.cli import main
from agrm.data import (
    FeatureRecord,
    Records,
    SynthConfig,
    load_records,
    normalize_mos,
    synth_generate,
)
from agrm.head import PARAM_FIELDS
from agrm.trainer import TrainConfig, evaluate, load_checkpoint, preset


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestProbe:
    def test_basic_report(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--theta", "0.5", "--beta1", "0", "--gamma", "1"
        )
        assert code == 0
        assert "P_1 = " in out and "P_5 = " in out
        assert "modal_grade = 2" in out
        assert "unimodal: yes" in out
        assert "theta1 = 0.267475574" in out

    def test_probabilities_match_library(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "--theta", "1.2", "--beta1", "-0.3", "--gamma", "0.9",
            "--k", "7",
        )
        assert code == 0
        want = core.agrm_probs(
            core.AgrmParams(theta=1.2, beta1=-0.3, gamma=0.9, k=7)
        )
        assert doc["probs"] == pytest.approx(list(want), abs=0)
        assert math.fsum(doc["probs"]) == pytest.approx(1.0, abs=1e-12)

    def test_sub_threshold_verdict(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--theta", "0", "--beta1", "0", "--gamma", "0.1"
        )
        assert code == 0
        assert "unimodality not guaranteed" in out
        assert "boundary crossings: undefined" in out

    def test_overflowing_crossing_is_undefined(self, capsys):
        # theta2 = beta_{k-2} + ... overflows; the JSON stays strict
        argv = ["probe", "--theta", "0", "--beta1", "1e308", "--gamma", "1e308"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        # NaN and Infinity, which are not JSON, fail the parse
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in --json output"))
        assert doc["theta1"] is None and doc["theta2"] is None
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "boundary crossings: undefined (a crossing overflows: " in out

    def test_large_offset_is_accepted(self, capsys):
        # z carries the rounding of theta near 1e6; the masses still sum to 1
        code, doc, err = run_json(
            capsys, "probe", "--theta", "1000000.3", "--beta1", "1000000.1", "--gamma", "1.3"
        )
        assert code == 0 and err == ""
        assert abs(math.fsum(doc["probs"]) - 1.0) <= 1e-12

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(
            capsys, "probe", "--theta", "0", "--beta1", "0", "--gamma", "-1"
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--theta", "0", "--beta1", "0", "--gamma", "1", "--bogus"])
        assert exc.value.code == 2

    def test_report_names_only_settable_params(self, capsys):
        code, doc, _ = run_json(capsys, "probe", "--theta", "0", "--beta1", "0", "--gamma", "1")
        assert code == 0
        assert sorted(doc["params"]) == ["beta1", "gamma", "k", "theta"]
        _, out, _ = run(capsys, "probe", "--theta", "0", "--beta1", "0", "--gamma", "1")
        assert out.splitlines()[0] == "probe: theta=0 beta1=0 gamma=1 k=5"


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--theta", "0", "--beta1", "0", "--gamma", "1", "--d", "2"],
        ["curves", "--beta1", "0", "--gamma", "1", "--alpha", "2"],
    ],
    ids=["probe-d", "curves-alpha"],
)
def test_curve_scale_is_not_a_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: agrm ") and f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestCurves:
    def test_two_steps_two_rows(self, capsys):
        code, out, _ = run(
            capsys, "curves", "--beta1", "0", "--gamma", "1", "--steps", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,p1,p2,p3,p4,p5,q"
        assert len(lines) == 3

    def test_large_offset_is_accepted(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, out, err = run(
            capsys, "curves", "--beta1", "100000.1", "--gamma", "1.3", "--steps", "200",
            "--out", str(out_path),
        )
        assert (code, out, err) == (0, f"wrote 200 rows to {out_path}\n", "")

    def test_zero_spacing_prints_positive_zero_middle_masses(self, capsys):
        code, out, _ = run(
            capsys, "curves", "--beta1", "0", "--gamma", "0", "--steps", "3",
            "--theta-min", "-1", "--theta-max", "1", "--json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[2:5] for row in rows] == [[0.0] * 3] * 3
        assert "-0.0" not in out

    def test_rows_sum_to_one(self, capsys):
        code, doc, _ = run_json(
            capsys, "curves", "--beta1", "0.5", "--gamma", "2", "--steps", "64"
        )
        assert code == 0
        assert len(doc["rows"]) == 64
        for row in doc["rows"]:
            assert abs(math.fsum(row[1:-1]) - 1.0) < 1e-9

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, out, _ = run(
            capsys, "curves", "--beta1", "0", "--gamma", "1", "--steps", "5",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote 5 rows" in out
        assert out_path.read_text().count("\n") == 6

    def test_writes_file_with_json(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        argv = ["curves", "--beta1", "0", "--gamma", "1", "--steps", "5"]
        _, plain, _ = run(capsys, *argv)
        code, doc, _ = run_json(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == plain
        _, want, _ = run_json(capsys, *argv)
        assert doc == want

    def test_peak_spacing_tracks_gamma(self, capsys):
        gamma = 1.5
        code, doc, _ = run_json(
            capsys, "curves", "--beta1", "0", "--gamma", str(gamma),
            "--steps", "2001",
        )
        assert code == 0
        rows = np.array(doc["rows"])
        thetas = rows[:, 0]
        spacing = thetas[1] - thetas[0]
        peaks = [thetas[np.argmax(rows[:, col])] for col in (2, 3, 4)]  # p2..p4
        for a, b in zip(peaks, peaks[1:]):
            assert abs((b - a) - gamma) <= 2 * spacing

    @pytest.mark.parametrize(
        "beta1, gamma, k", [(0.0, 1.0, 5), (-2.5, 0.3, 9), (1.0, 12.0, 3), (0.5, 0.0, 2)]
    )
    def test_rows_match_the_scalar_path(self, capsys, beta1, gamma, k):
        """Each row against ``core.agrm_probs`` and ``core.expected_score`` of
        its theta: the same theta, masses and mean grade within 1e-15 relative."""
        code, doc, _ = run_json(
            capsys, "curves", "--beta1", str(beta1), "--gamma", str(gamma), "--k", str(k),
            "--theta-min", "-60", "--theta-max", "60", "--steps", "997",
        )
        assert code == 0
        rows = np.array(doc["rows"])
        assert rows.shape == (997, k + 2)
        assert rows[:, 0].tolist() == np.linspace(-60.0, 60.0, 997).tolist()
        for row in rows:
            probs = core.agrm_probs(core.AgrmParams(theta=row[0], beta1=beta1, gamma=gamma, k=k))
            want = np.array([*probs, core.expected_score(probs)])
            assert np.all(np.abs(row[1:] - want) <= 1e-15 * np.abs(want))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([-0.0, 0.0, 1.0, 5e-324, -2.5e-320, 2.2250738585072014e-308]),
                        st.floats(),
                    ),
                    min_size=width, max_size=width,
                ),
                min_size=1, max_size=4,
            )
        )
    )
    def test_row_format_matches_per_value_fmt(self, rows):
        want = "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
        assert cli._csv_rows(rows) == want

    def test_csv_bytes_match_per_value_fmt(self, capsys, tmp_path):
        """Abilities from -450 up to -0.0: the edge masses run through
        exactly 1, subnormals and zero."""
        out_path = tmp_path / "c.csv"
        argv = ["curves", "--beta1", "0", "--gamma", "0.9", "--k", "4",
                "--theta-min", "-450", "--theta-max", "-0.0", "--steps", "4001"]
        code, doc, _ = run_json(capsys, *argv, "--out", str(out_path))
        assert code == 0
        values = [v for row in doc["rows"] for v in row]
        assert math.copysign(1.0, doc["rows"][-1][0]) == -1.0 and 1.0 in values
        assert any(0.0 < v < 2.2250738585072014e-308 for v in values)
        want = ",".join(doc["header"]) + "\n" + "".join(
            ",".join(cli._fmt(v) for v in row) + "\n" for row in doc["rows"]
        )
        assert out_path.read_bytes() == want.encode()

    def test_bad_steps_exit_2(self, capsys):
        code, _, err = run(
            capsys, "curves", "--beta1", "0", "--gamma", "1", "--steps", "1"
        )
        assert code == 2
        assert "steps" in err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            # the default range beta1 -/+ 4 * gamma * k overflows
            (["--gamma", "1e307"], "[-inf, inf]"),
            # both ends finite, their distance not
            (["--gamma", "1", "--theta-min=-1e308", "--theta-max", "1e308"], "[-1e+308, 1e+308]"),
            (["--gamma", "1", "--theta-min", "1", "--theta-max", "1"], "[1.0, 1.0]"),
            (["--gamma", "1", "--theta-min", "nan"], "[nan, 20.0]"),
        ],
        ids=["default-range", "given-range", "empty", "nan"],
    )
    def test_range_without_finite_positive_width_exits_2(self, capsys, argv, shown):
        code, out, err = run(capsys, "curves", "--beta1", "0", "--steps", "3", *argv)
        assert code == 2 and out == ""
        assert err == f"error: theta range {shown} must have a finite width > 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gamma", "1", "--k", "0"], "k must be an integer >= 2, got 0"),
            (["--gamma", "1", "--k", "-3"], "k must be an integer >= 2, got -3"),
            (["--gamma", "-1"], "gamma must be finite and >= 0, got -1.0"),
            (["--gamma", "nan"], "gamma must be finite and >= 0, got nan"),
            (["--gamma", "1", "--beta1=nan"], "beta1 must be finite, got nan"),
            (["--gamma", "1", "--beta1=-inf"], "beta1 must be finite, got -inf"),
            # with a range given too, the refusal names the flag, not a kernel row
            (["--gamma", "-1", "--theta-min", "0", "--theta-max", "1"],
             "gamma must be finite and >= 0, got -1.0"),
        ],
        ids=["k-0", "k-negative", "gamma-negative", "gamma-nan", "beta1-nan", "beta1-inf",
             "given-range"],
    )
    def test_bad_flag_is_named_before_the_range(self, capsys, argv, message):
        code, out, err = run(capsys, "curves", "--beta1", "0", "--steps", "3", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_unwritable_path_exit_2(self, capsys):
        code, _, err = run(
            capsys, "curves", "--beta1", "0", "--gamma", "1",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 2


FAMILIES = ("unimodality", "normalization", "closed_form", "shift", "boundary")


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--samples", "3000", "--seed", "7")
        assert code == 0
        assert doc["pass"] is True
        assert all(v == 0 for v in doc["violations"].values())

    def test_header_reports_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "10", "--seed", "42")
        assert code == 0
        assert "seed=42" in out.splitlines()[0]

    def test_sub_threshold_mode_finds_and_tolerates(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--samples", "500", "--seed", "3",
            "--allow-sub-threshold",
        )
        assert code == 0
        assert doc["expected_nonunimodal"] > 0
        assert doc["pass"] is True

    def test_zero_samples_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "0")
        assert code == 0
        assert "vacuous" in out

    def test_negative_samples_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "-1")
        assert code == 2

    def test_bad_k_range_exit_2(self, capsys):
        # checked before the zero-sample early return too
        for samples in ("10", "0"):
            code, _, _ = run(capsys, "verify", "--samples", samples, "--k-min", "9", "--k-max", "3")
            assert code == 2

    # 1e308 makes 8 * gamma + 25 overflow at k-max 9
    @pytest.mark.parametrize("margin", ["nan", "inf", "0", "-5", "1e308"])
    def test_bad_gamma_margin_exit_2(self, capsys, margin):
        code, out, err = run(capsys, "verify", "--samples", "200", "--gamma-margin", margin)
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1
        assert "gamma-margin must be" in err
        assert "Traceback" not in err

    # abilities near 1e7 and 1e9 carry rounding far above an absolute 1e-9
    @pytest.mark.parametrize("margin", ["1e7", "1e9"])
    def test_large_margins_pass(self, capsys, margin):
        code, doc, err = run_json(
            capsys, "verify", "--samples", "20000", "--seed", "0", "--gamma-margin", margin
        )
        assert code == 0 and err == ""
        assert doc["violations"]["boundary"] == 0

    def test_moved_crossings_fail_at_the_default_margin(self, capsys, monkeypatch):
        exact = core.boundary_thetas_batch

        def moved(beta1, gamma, k=5):
            theta1, theta2 = exact(beta1, gamma, k)
            return theta1 + 1e-7, theta2 - 1e-7

        monkeypatch.setattr(core, "boundary_thetas_batch", moved)
        argv = ["verify", "--samples", "2000", "--seed", "3"]
        code, doc, _ = run_json(capsys, *argv)
        args = cli._build_parser().parse_args(argv)
        draws = cli._verify_draws(np.random.default_rng(3), 2000, args, core.gamma_threshold())
        assert code == 1
        assert doc["violations"]["boundary"] == int((draws["k"] >= 3).sum())

    def test_largest_accepted_margin_runs_without_warnings(self, capsys):
        largest = largest_accepted_margin(capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc, err = run_json(
                capsys, "verify", "--samples", "20000", "--seed", "0",
                "--gamma-margin", repr(largest),
            )
        assert code == 0 and err == "" and doc["pass"] is True

    def test_moved_crossing_fails_at_the_largest_accepted_margin(self, capsys, monkeypatch):
        # the boundary slack grows with the ulp of the abilities; the cap
        # keeps it below 1 there, where a 64-ulp move of theta2 still shows
        largest = largest_accepted_margin(capsys)
        assert 7e13 < largest < 1e14
        exact = core.boundary_thetas_batch

        def moved(beta1, gamma, k=5):
            theta1, theta2 = exact(beta1, gamma, k)
            return theta1, theta2 + 64 * np.spacing(theta2)

        monkeypatch.setattr(core, "boundary_thetas_batch", moved)
        argv = ["verify", "--samples", "2000", "--seed", "0", "--gamma-margin", repr(largest)]
        code, doc, _ = run_json(capsys, *argv)
        args = cli._build_parser().parse_args(argv)
        draws = cli._verify_draws(np.random.default_rng(0), 2000, args, core.gamma_threshold())
        assert code == 1
        assert doc["violations"]["boundary"] == int((draws["k"] >= 3).sum())

    @pytest.mark.parametrize(
        "argv",
        [
            ["--samples", "50", "--k-min", "40000", "--k-max", "40000"],
            ["--samples", "5", "--k-max", "100000"],
        ],
        ids=["k-40000", "k-to-100000"],
    )
    def test_many_grades_pass(self, capsys, argv):
        # abilities reach 1e5, where z carries their rounding
        code, doc, err = run_json(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        assert all(v == 0 for v in doc["violations"].values())

    def test_huge_margin_passes_when_abilities_do_not_grow(self, capsys):
        # at k-max 2 the abilities are beta1 -/+ 20 whatever gamma is
        code, out, err = run(
            capsys, "verify", "--samples", "10", "--gamma-margin", "1e308", "--k-max", "2"
        )
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "mode",
        [[], ["--allow-sub-threshold"], ["--gamma-margin", "1e-15"]],
        ids=["standard", "sub-threshold", "margin-1e-15"],
    )
    def test_sweep_matches_scalar_oracle(self, capsys, mode):
        # one full chunk and a partial one
        argv = ["verify", "--samples", str(cli.VERIFY_CHUNK + 37), "--seed", "5", *mode]
        code, doc, _ = run_json(capsys, *argv)
        counts, nonunimodal, _ = scalar_sweep(argv)
        assert doc["violations"] == counts
        assert doc["expected_nonunimodal"] == nonunimodal
        assert code == (0 if sum(counts.values()) == 0 else 1)
        if "--allow-sub-threshold" in mode:
            assert nonunimodal > 0
        else:
            # correct code passes even with gamma within rounding of the
            # threshold, where each handover point sits on its peak
            assert code == 0

    # a 1e-9 nudge sits at the boundary family's own 1e-9 tolerance, where
    # the kernel and the scalar path may round apart; 1e-8 clears it
    @pytest.mark.parametrize(
        "size, compared",
        [(1e-9, FAMILIES[:4]), (1e-8, FAMILIES)],
        ids=["1e-9", "1e-8"],
    )
    def test_checks_are_live(self, capsys, monkeypatch, size, compared):
        kernel = core.agrm_probs_unchecked

        def nudged_kernel(theta, beta1, gamma, k=5):
            return nudge(kernel(theta, beta1, gamma, k), size)

        monkeypatch.setattr(core, "agrm_probs_unchecked", nudged_kernel)
        argv = ["verify", "--samples", "400", "--seed", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and err == ""
        assert out.splitlines()[-1] == "FAIL"
        counts, _, first = scalar_sweep(argv, probs_of=lambda p: nudge(core.agrm_probs(p), size))
        assert counts["closed_form"] > 0 and counts["shift"] > 0
        reported = dict(line.split(": ", 1) for line in out.splitlines()[1:6])
        assert {f: reported[f] for f in compared} == {f: f"{counts[f]} violations" for f in compared}
        # each counterexample is the oracle's first failing draw, in draw order
        want = [
            f"counterexample [{family}]: theta={cli._fmt(p.theta)} "
            f"beta1={cli._fmt(p.beta1)} gamma={cli._fmt(p.gamma)} k={p.k}"
            for family, p in first.items()
            if family in compared
        ]
        got = [
            line for line in out.splitlines()
            if any(line.startswith(f"counterexample [{family}]") for family in compared)
        ]
        assert got == want

    def test_bad_rows_count_as_normalization(self, capsys, monkeypatch):
        kernel = core.agrm_probs_unchecked

        def leaky_kernel(theta, beta1, gamma, k=5):
            out = kernel(theta, beta1, gamma, k)
            out[theta > beta1 + 15.0, 0] += 1e-6  # the row sums to 1 + 1e-6
            return out

        monkeypatch.setattr(core, "agrm_probs_unchecked", leaky_kernel)
        code, doc, err = run_json(capsys, "verify", "--samples", "300", "--seed", "4")
        assert code == 1 and err == ""
        args = cli._build_parser().parse_args(["verify", "--samples", "300", "--seed", "4"])
        draws = cli._verify_draws(np.random.default_rng(4), 300, args, core.gamma_threshold())
        expected = int((draws["theta"] > draws["beta1"] + 15.0).sum())
        assert doc["violations"]["normalization"] == expected > 0

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_a_k_group_refused_whole_counts_as_normalization(self, monkeypatch, k):
        # the group's later checks then run the kernel on no rows at all
        normalized = core.normalized_rows

        def refuse_group(probs):
            ok = normalized(probs)
            return ok & (probs.shape[1] != k)

        monkeypatch.setattr(core, "normalized_rows", refuse_group)
        args = cli._build_parser().parse_args(["verify", "--samples", "300"])
        draws = cli._verify_draws(np.random.default_rng(0), 300, args, core.gamma_threshold())
        fails, nonunimodal, cf_theta = cli._verify_chunk(draws, standard=True)
        group = draws["k"] == k
        assert group.any()
        assert np.array_equal(fails["normalization"], group)
        assert not any(fails[name].any() for name in fails if name != "normalization")
        assert not nonunimodal.any() and np.isnan(cf_theta[group]).all()


def nudge(probs, size):
    """Move ``size`` of mass into grade 2 from the largest grade, for k >= 3:
    the rows stay normalized, but the middle band is off by ``size``."""
    out = np.array(probs, dtype=np.float64, ndmin=2)
    if out.shape[1] >= 3:
        at = np.arange(out.shape[0])
        peak = out.argmax(axis=1)
        out[:, 1] += size
        out[at, peak] -= size
    return out if np.ndim(probs) == 2 else core.ProbVector(out[0])


def scalar_sweep(argv, probs_of=core.agrm_probs):
    """``agrm verify`` as a loop of scalar checks per draw, over the same
    draws: (violation counts, expected non-unimodal count, first failing
    parameters per family)."""
    args = cli._build_parser().parse_args(argv)
    standard = not args.allow_sub_threshold
    rng = np.random.default_rng(args.seed)
    counts = dict.fromkeys(FAMILIES, 0)
    first = {}
    nonunimodal = 0

    def flag(family, params):
        counts[family] += 1
        first.setdefault(family, params)

    for start in range(0, args.samples, cli.VERIFY_CHUNK):
        n = min(cli.VERIFY_CHUNK, args.samples - start)
        draws = cli._verify_draws(rng, n, args, core.gamma_threshold())
        for i in range(n):
            p = core.AgrmParams(
                theta=float(draws["theta"][i]), beta1=float(draws["beta1"][i]),
                gamma=float(draws["gamma"][i]), k=int(draws["k"][i]),
            )
            c = core.D * core.ALPHA
            try:
                probs = probs_of(p)
            except ValueError:
                flag("normalization", p)
                continue
            if not core.is_unimodal(probs):
                if standard:
                    flag("unimodality", p)
                else:
                    nonunimodal += 1
            if p.k >= 3:
                m = int(draws["cf_m"][i])
                theta_cf = (p.beta1 + (m - 2) * p.gamma) + float(draws["cf_z"][i]) / c
                pcf = dataclasses.replace(p, theta=theta_cf)
                closed = probs_of(pcf)[m - 1]
                naive = core.category_probs(pcf.to_general())[m - 1]
                if abs(closed - naive) > 1e-12:
                    flag("closed_form", pcf)
            if p.k >= 4:
                m = int(draws["shift_m"][i])
                shifted = probs_of(dataclasses.replace(p, theta=p.theta - p.gamma))
                if abs(probs[m] - shifted[m - 1]) > 1e-12:
                    flag("shift", p)
            if p.k >= 3 and standard:
                theta1, theta2 = core.boundary_thetas(p)
                pv1 = probs_of(dataclasses.replace(p, theta=theta1))
                pv2 = probs_of(dataclasses.replace(p, theta=theta2))
                ok = (
                    abs(pv1[0] - pv1[1]) < 1e-9
                    and abs(pv2[p.k - 2] - pv2[p.k - 1]) < 1e-9
                    and theta1 < core.peak_ability(p, 2) + 1e-9
                    and theta2 > core.peak_ability(p, p.k - 1) - 1e-9
                )
                if not ok:
                    flag("boundary", p)
    return counts, nonunimodal, first


class TestSynth:
    def test_writes_loadable_records(self, capsys, tmp_path):
        out_path = tmp_path / "d.jsonl"
        code, out, _ = run(
            capsys, "synth", "--n", "24", "--seed", "5", "--out", str(out_path)
        )
        assert code == 0
        assert "seed=5" in out
        recs = load_records(out_path)
        assert len(recs) == 24

    def test_planted_head_scores_its_data_perfectly(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        planted = tmp_path / "planted.json"
        code, _, _ = run(
            capsys, "synth", "--n", "30", "--noise", "0", "--seed", "2",
            "--out", str(data), "--planted-out", str(planted),
        )
        assert code == 0
        code, out, _ = run(capsys, "eval", "--checkpoint", str(planted), "--data", str(data))
        assert code == 0
        assert "overall: SRCC=1 PLCC=1" in out

    def test_json_reports_counts(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "synth", "--n", "9", "--out", str(tmp_path / "d.jsonl")
        )
        assert code == 0
        assert doc["dim_counts"] == {"quality": 3, "consistency": 3, "authenticity": 3}

    def test_bad_n_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--n", "1", "--out", str(tmp_path / "d.jsonl")
        )
        assert code == 2


class TestTrainEval:
    def make_data(self, capsys, tmp_path, n=48, noise="0", seed="9"):
        data = tmp_path / "d.jsonl"
        code, _, _ = run(
            capsys, "synth", "--n", str(n), "--d-img", "6", "--d-txt", "6",
            "--noise", noise, "--seed", seed, "--out", str(data),
        )
        assert code == 0
        return data

    def test_train_writes_checkpoint_and_history(self, capsys, tmp_path):
        data = self.make_data(capsys, tmp_path)
        ck = tmp_path / "ck.json"
        code, out, _ = run(
            capsys, "train", "--data", str(data), "--preset", "recovery",
            "--epochs", "3", "--batch-size", "8", "--out", str(ck),
        )
        assert code == 0
        assert "final eval: SRCC=" in out
        ckpt = load_checkpoint(ck)
        assert ckpt.epochs_completed == 3
        history = (tmp_path / "ck.json.history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,eval_srcc,eval_plcc"
        assert len(history) == 4

    def test_train_deterministic(self, capsys, tmp_path):
        data = self.make_data(capsys, tmp_path)
        outs = []
        for name in ("a.json", "b.json"):
            ck = tmp_path / name
            code, out, _ = run(
                capsys, "train", "--data", str(data), "--preset", "recovery",
                "--epochs", "2", "--batch-size", "8", "--out", str(ck),
            )
            assert code == 0
            outs.append(out.replace(name, "CK"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert outs[0] == outs[1]

    def test_train_with_explicit_eval_set(self, capsys, tmp_path):
        data = self.make_data(capsys, tmp_path)
        eval_dir = tmp_path / "e"
        eval_dir.mkdir()
        eval_path = eval_dir / "d.jsonl"
        code, _, _ = run(
            capsys, "synth", "--n", "16", "--d-img", "6", "--d-txt", "6",
            "--seed", "10", "--out", str(eval_path),
        )
        assert code == 0
        ck = tmp_path / "ck.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--eval-data", str(eval_path),
            "--preset", "recovery", "--epochs", "2", "--batch-size", "8",
            "--out", str(ck),
        )
        assert code == 0

    def test_normalize_leaves_eval_correlations_unchanged(self, capsys, tmp_path):
        """--normalize maps the training scores only; mapping the raw eval
        scores too would move SRCC and PLCC by rounding at most."""
        data = self.make_data(capsys, tmp_path, noise="0.3")
        eval_path = tmp_path / "e.jsonl"
        code, _, _ = run(
            capsys, "synth", "--n", "16", "--d-img", "6", "--d-txt", "6",
            "--noise", "0.3", "--seed", "10", "--out", str(eval_path),
        )
        assert code == 0
        ck = tmp_path / "ck.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--eval-data", str(eval_path), "--normalize",
            "--preset", "recovery", "--epochs", "2", "--batch-size", "8", "--out", str(ck),
        )
        assert code == 0
        ckpt = load_checkpoint(ck)
        raw = load_records(eval_path)
        final = ckpt.history[-1]
        assert evaluate(ckpt.head, raw) == (final.eval_srcc, final.eval_plcc)
        mapped = evaluate(ckpt.head, normalize_mos(raw))
        assert mapped == pytest.approx((final.eval_srcc, final.eval_plcc), abs=1e-12)

    def test_eval_prints_per_dim(self, capsys, tmp_path):
        data = self.make_data(capsys, tmp_path, noise="0.3")
        planted = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "synth", "--n", "48", "--d-img", "6", "--d-txt", "6",
            "--noise", "0.3", "--seed", "9", "--out", str(data),
            "--planted-out", str(planted),
        )
        code, doc, _ = run_json(
            capsys, "eval", "--checkpoint", str(planted), "--data", str(data)
        )
        assert code == 0
        assert set(doc["by_dim"]) == {"quality", "consistency", "authenticity"}
        for entry in doc["by_dim"].values():
            assert -1.0 <= entry["srcc"] <= 1.0

    def test_every_train_config_field_has_a_flag(self):
        parser = cli._build_parser()
        base = ["train", "--data", "d.jsonl", "--out", "ck.json"]
        for field in dataclasses.fields(TrainConfig):
            value = field.default + 1  # a value no preset sets
            args = parser.parse_args([*base, "--" + field.name.replace("_", "-"), str(value)])
            want = dataclasses.replace(preset("paper"), **{field.name: value})
            assert cli._train_config(args) == want

    def test_missing_data_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "ck.json"),
        )
        assert code == 2

    def test_eval_missing_checkpoint_exit_2(self, capsys, tmp_path):
        data = self.make_data(capsys, tmp_path)
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "nope.json"),
            "--data", str(data),
        )
        assert code == 2


# rng values and history epochs must be integers >= 0; JSON's true is not one
BAD_COUNTS = ["x", "1", [1], None, True, -1, 2.5, {}]
GOOD_HISTORY_ROW = {"epoch": 0, "lr": 1e-3, "train_loss": 0.5, "eval_srcc": 0.9, "eval_plcc": 0.9}
BAD_HISTORY_ROWS = [
    {**GOOD_HISTORY_ROW, "epoch": bad} for bad in BAD_COUNTS
] + [
    {**GOOD_HISTORY_ROW, name: bad}
    for name in ("lr", "train_loss", "eval_srcc", "eval_plcc")
    for bad in ["0.5", [0.5], None, True, {}, float("nan")]
] + [
    {name: "x" for name in GOOD_HISTORY_ROW},
    {**GOOD_HISTORY_ROW, "gamma_violations": 0},  # a format 2 row
]


def _drop_rng(doc):
    del doc["rng"]


def _drop_head(doc):
    del doc["head"]


def _as_array(doc):
    return [doc]


def _nan_weight(doc):
    doc["head"]["params"]["agg_w"][0] = float("nan")


def _inf_weight(doc):
    doc["head"]["params"]["phi_gamma_b"] = float("inf")


def _zero_image_width(doc):
    # params sized to match, so only the width rule refuses it
    head = doc["head"]
    head["params"]["agg_w"] = head["params"]["agg_w"][: head["d_txt"]]
    head["params"]["phi_i_w"] = []
    head["d_img"] = 0


def _huge_image_width(doc):
    # params unchanged: the shapes are compared before the flat vector of
    # 2**40 + 6 weights would be allocated
    doc["head"]["d_img"] = 2**40


class TestMalformedCheckpoint:
    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (_drop_rng, "rng"),
            (_drop_head, "head"),
            (_as_array, "object"),
            (_nan_weight, "agg_w"),
            (_inf_weight, "phi_gamma_b"),
            (_zero_image_width, "feature dims must be >= 1, got (0, 3)"),
            (_huge_image_width, f"agg_w shape (6,), expected ({2**40 + 3},)"),
        ],
        ids=[
            "missing-rng", "missing-head", "top-level-array", "nan-weight", "inf-weight",
            "zero-image-width", "huge-image-width",
        ],
    )
    def test_eval_exits_2_with_one_error_line(self, capsys, tmp_path, corrupt, named):
        data, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        doc = corrupt(doc) or doc
        ckpt.write_text(json.dumps(doc))
        err = assert_clean_exit_2(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
        assert named in err


    def test_format_1_checkpoint_exits_2(self, capsys, tmp_path):
        data, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        # format 1 also stored these six training settings
        doc["format_version"] = 1
        doc["train_config"].update(
            epsilon=1e-8, beta1=0.9, beta2=0.999, adam_eps=1e-8, restarts=True, literal_target=False
        )
        ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
        assert code == 2 and out == ""
        assert err == "error: unrecognized checkpoint format version 1\n"

    def test_format_2_checkpoint_exits_2(self, capsys, tmp_path):
        data, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        # format 2 also stored the head's four constants
        doc["format_version"] = 2
        doc["head"]["config"].update(d=1.7, alpha=1.0, lambda_s=10.0, eta=1.2)
        ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
        assert code == 2 and out == ""
        assert err == "error: unrecognized checkpoint format version 2\n"

    def test_format_3_checkpoint_exits_2(self, capsys, tmp_path):
        data, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        # format 3 also stored the epoch count beside the seed
        doc["format_version"] = 3
        doc["rng"]["epochs_completed"] = 0
        ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
        assert code == 2 and out == ""
        assert err == "error: unrecognized checkpoint format version 3\n"

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("rng", "seed"), "x", "rng.seed"),
            (("history",), [{**GOOD_HISTORY_ROW, "epoch": [0]}], "history[0].epoch"),
            (("rng", "seed"), True, "rng.seed"),
            (("history",), [{name: "x" for name in GOOD_HISTORY_ROW}], "history[0].epoch"),
            (("history",), [{**GOOD_HISTORY_ROW, "lr": [1e-3]}], "history[0].lr"),
            (
                ("history",),
                [GOOD_HISTORY_ROW, {**GOOD_HISTORY_ROW, "epoch": 1, "eval_plcc": None}],
                "history[1].eval_plcc",
            ),
        ],
        ids=["string-seed", "list-epochs", "bool-seed", "string-row", "list-lr", "null-plcc"],
    )
    def test_mistyped_rng_or_history_exits_2(self, capsys, tmp_path, path, value, named):
        data, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        _at(doc, path[:-1])[path[-1]] = value
        ckpt.write_text(json.dumps(doc))
        err = assert_clean_exit_2(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
        assert named in err

    def test_well_typed_history_loads(self, capsys, tmp_path):
        _, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        doc["history"] = [GOOD_HISTORY_ROW, {**GOOD_HISTORY_ROW, "epoch": 1, "lr": 0}]
        ckpt.write_text(json.dumps(doc))
        loaded = load_checkpoint(ckpt)
        assert [row.epoch for row in loaded.history] == [0, 1]
        assert loaded.epochs_completed == 2

    def test_history_out_of_epoch_order_exits_2(self, capsys, tmp_path):
        data, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        doc["history"] = [GOOD_HISTORY_ROW, GOOD_HISTORY_ROW]
        ckpt.write_text(json.dumps(doc))
        err = assert_clean_exit_2(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
        assert err == "error: malformed checkpoint: history[1].epoch is 0, not 1\n"

    def test_deeply_nested_checkpoint_exits_2(self, capsys, tmp_path):
        data, ckpt = synth_planted(capsys, tmp_path)
        ckpt.write_text(DEEP)
        assert_clean_exit_2(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))

    @settings(
        derandomize=True, max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_checkpoint_exits_2(self, capsys, tmp_path, data):
        records, ckpt = synth_planted(capsys, tmp_path)
        doc = json.loads(ckpt.read_text())
        ckpt.write_text(data.draw(malformed_checkpoint(doc), label="checkpoint"))
        assert_clean_exit_2(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(records))


def largest_accepted_margin(capsys) -> float:
    """The largest --gamma-margin that verify accepts at the default k-max."""
    def accepted(margin):
        code, _, _ = run(capsys, "verify", "--samples", "0", "--gamma-margin", repr(margin))
        return code == 0

    # bisect on the bit patterns of positive floats, which order like the floats
    lo, hi = (int(np.float64(v).view(np.int64)) for v in (1.0, 1e308))
    assert accepted(1.0) and not accepted(1e308)
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        lo, hi = (mid, hi) if accepted(float(np.int64(mid).view(np.float64))) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


def synth_planted(capsys, tmp_path):
    """A 12-record file with 3 + 3 features and the planted head's checkpoint."""
    data, ckpt = tmp_path / "d.jsonl", tmp_path / "p.json"
    code, _, _ = run(
        capsys, "synth", "--n", "12", "--d-img", "3", "--d-txt", "3",
        "--out", str(data), "--planted-out", str(ckpt),
    )
    assert code == 0
    return data, ckpt


def assert_clean_exit_2(capsys, *argv):
    """Run the command and check it fails with one ``error:`` line; return it."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


# deep enough to exhaust the JSON parser's recursion
DEEP = "[" * 100_000


def valid_records():
    recs, _ = synth_generate(SynthConfig(n=12, d_img=3, d_txt=3))
    return [
        {"id": r.id, "fi": r.f_i.tolist(), "ft": r.f_t.tolist(), "mos": r.mos, "dim": r.dim}
        for r in recs
    ]


class TestMalformedRecords:
    def train_exits_2(self, capsys, tmp_path, path):
        assert_clean_exit_2(
            capsys, "train", "--data", str(path), "--out", str(tmp_path / "ck.json"),
            "--epochs", "1", "--batch-size", "4",
        )

    def gzipped(self, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        path.write_bytes(
            gzip.compress("".join(json.dumps(o) + "\n" for o in valid_records()).encode(), mtime=0)
        )
        return path

    def test_truncated_gzip_exits_2(self, capsys, tmp_path):
        path = self.gzipped(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        self.train_exits_2(capsys, tmp_path, path)

    def test_corrupt_gzip_exits_2(self, capsys, tmp_path):
        path = self.gzipped(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[12:40] = b"\xff" * 28  # deflate data, past the 10-byte header
        path.write_bytes(bytes(raw))
        self.train_exits_2(capsys, tmp_path, path)

    def test_deeply_nested_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(DEEP + "\n")
        self.train_exits_2(capsys, tmp_path, path)

    @pytest.mark.parametrize(
        "key, value",
        [("mos", "2.5"), ("mos", True), ("fi", ["2.5", 1.0, 1.0]), ("ft", [True, False, True]),
         ("ft", [1.0, True, 0.5])],
        ids=["quoted-mos", "bool-mos", "quoted-feature", "bool-features", "one-bool-feature"],
    )
    def test_non_number_exits_2(self, capsys, tmp_path, key, value):
        objs = valid_records()
        objs[5][key] = value
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        self.train_exits_2(capsys, tmp_path, path)

    @settings(
        derandomize=True, max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_line_exits_2(self, capsys, tmp_path, data):
        objs = valid_records()
        lines = [json.dumps(o) for o in objs]
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[at] = data.draw(malformed_record(objs[at]), label="mutated")
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        self.train_exits_2(capsys, tmp_path, path)

    @pytest.mark.parametrize("at", [0, 5])
    def test_every_bad_value_message_matches_the_row_reader(self, tmp_path, at):
        for key, values in BAD_RECORD_VALUES.items():
            for value in values:
                objs = valid_records()
                objs[at][key] = value
                path = tmp_path / "d.jsonl"
                path.write_text("".join(json.dumps(o) + "\n" for o in objs))
                with pytest.raises(ValueError) as info:
                    load_records(path)
                assert str(info.value) == row_reader_error(path), (key, value)

    @settings(
        derandomize=True, max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_line_message_matches_the_row_reader(self, tmp_path, data):
        """The columnar reader refuses a mutated line with the message of
        the reader that built one record per line, line number included."""
        objs = valid_records()
        lines = [json.dumps(o) for o in objs]
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[at] = data.draw(malformed_record(objs[at]), label="mutated")
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        want = row_reader_error(path)
        assert want is not None
        with pytest.raises(ValueError) as info:
            load_records(path)
        assert str(info.value) == want

    @pytest.mark.parametrize("at", [0, 5])
    def test_two_fault_message_matches_the_row_reader(self, tmp_path, at):
        """A line with bad values in two fields names the fault the row
        reader names first, for every pair of fields and values."""
        path = tmp_path / "d.jsonl"
        keys = sorted(BAD_RECORD_VALUES)
        for a, key_a in enumerate(keys):
            for key_b in keys[a + 1 :]:
                for value_a, value_b in itertools.product(
                    BAD_RECORD_VALUES[key_a], BAD_RECORD_VALUES[key_b]
                ):
                    objs = valid_records()
                    objs[at][key_a], objs[at][key_b] = value_a, value_b
                    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
                    with pytest.raises(ValueError) as info:
                        load_records(path)
                    want = row_reader_error(path)
                    assert str(info.value) == want, (key_a, value_a, key_b, value_b)

    @settings(
        derandomize=True, max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_a_refused_line_is_one_value_error(self, tmp_path, data):
        """Any field values: the reader loads the file or raises one
        ``ValueError`` with the row reader's message, never an
        ``AssertionError`` from a check stricter than the record rule."""
        objs = valid_records()
        at = data.draw(st.integers(0, len(objs) - 1), label="line")
        keys = data.draw(
            st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=3, unique=True), label="fields"
        )
        for key in keys:
            values = data.draw(st.sampled_from([FIELD_VALUES[key], JSON_VALUES]), label=f"{key} from")
            objs[at][key] = data.draw(values, label=key)
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        want = row_reader_error(path)
        try:
            load_records(path)
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_a_set_refuses_the_first_row_its_record_refuses(self, data):
        """``Records`` accepts exactly the columns whose every row makes a
        ``FeatureRecord``, and otherwise names the first row that does not
        with that record's message."""
        n = data.draw(st.integers(1, 5), label="n")
        d_img = data.draw(st.integers(1, 2), label="d_img")
        d_txt = data.draw(st.integers(1, 2), label="d_txt")
        finite = st.floats(-1e3, 1e3)
        width = d_img + d_txt
        x = data.draw(
            st.lists(st.lists(finite, min_size=width, max_size=width), min_size=n, max_size=n),
            label="x",
        )
        mos = data.draw(st.lists(finite, min_size=n, max_size=n), label="mos")
        ids, dims = [f"r{i}" for i in range(n)], ["quality"] * n
        faults = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1), st.sampled_from(ROW_FAULTS))
        for i, j, (column, value) in data.draw(st.lists(faults, max_size=3), label="faults"):
            if column == "x":
                x[i][j] = value
            else:
                {"mos": mos, "id": ids, "dim": dims}[column][i] = value
        want = None
        for i in range(n):
            try:
                FeatureRecord(
                    id=ids[i], f_i=x[i][d_txt:], f_t=x[i][:d_txt], mos=mos[i], dim=dims[i]
                )
            except ValueError as exc:
                want = f"row {i}: {exc}"
                break
        try:
            Records(x=x, d_img=d_img, mos=mos, id=ids, dim=dims)
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None

    @settings(
        derandomize=True, max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_gzip_exits_2(self, capsys, tmp_path, data):
        path = self.gzipped(tmp_path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(1, len(raw) - 1), label="cut")]
        else:
            # past the fixed header, whose timestamp and OS bytes are not checked
            raw[data.draw(st.integers(10, len(raw) - 1), label="at")] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        self.train_exits_2(capsys, tmp_path, path)


def row_reader_error(path):
    """The message of the first malformed line as the reader before record
    sets gave it, building one ``FeatureRecord`` per line; None if none."""
    ref = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                return f"line {lineno}: invalid record: {exc}"
            if not isinstance(obj, dict):
                return f"line {lineno}: expected an object, got {type(obj).__name__}"
            keys = ("id", "fi", "ft", "mos", "dim")
            missing = [k for k in keys if k not in obj]
            if missing:
                return f"line {lineno}: missing fields {missing}"
            unknown = [k for k in obj if k not in keys]
            if unknown:
                return f"line {lineno}: unknown fields {unknown}"
            if type(obj["mos"]) not in (int, float):
                return f"line {lineno}: mos must be a number, got {obj['mos']!r}"
            for key in ("fi", "ft"):
                if not isinstance(obj[key], list) or not {type(v) for v in obj[key]} <= {int, float}:
                    return f"line {lineno}: {key} must be an array of numbers"
            try:
                rec = FeatureRecord(
                    id=obj["id"], f_i=obj["fi"], f_t=obj["ft"], mos=obj["mos"], dim=obj["dim"]
                )
            except (TypeError, ValueError, OverflowError) as exc:
                return f"line {lineno}: {exc}"
            if ref is None:
                ref = rec
            for name, got, want in (("image", rec.f_i, ref.f_i), ("text", rec.f_t, ref.f_t)):
                if got.size != want.size:
                    return f"line {lineno}: {name} feature length {got.size} != {want.size} from line 1"
    return None


NOT_A_NUMBER = [None, "x", [], {}, float("nan"), float("inf"), 10**400]
BAD_RECORD_VALUES = {
    "id": [None, "", 5, [], {}],
    "fi": [None, "x", [], {}, [[0.5]], ["x"], [float("nan")], [10**400], [0.5] * 2, [0.5] * 4,
           ["2.5", 1.0, 1.0], [1.0, True, 0.5]],
    "ft": [None, "x", [], {}, [[0.5]], ["x"], [float("inf")], [10**400], [0.5] * 2, [0.5] * 4,
           [True, False, True], [0.5, 0.5, "0.5"]],
    "mos": [*NOT_A_NUMBER, "2.5", " 3 ", True, False],
    "dim": [None, "", "sharpness", 3, []],
}


# JSON numbers, with the non-finite, huge and float-overflowing ones
JSON_NUMBERS = st.one_of(
    st.floats(), st.integers(),
    st.sampled_from([1e308, -1e308, math.nan, math.inf, 10**400, -(10**400)]),
)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), JSON_NUMBERS, st.text(max_size=3),
    st.sampled_from(["quality", "true", "false"]),
)
# any value of a JSON field: scalars, and arrays and objects of them
JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(st.one_of(_JSON_SCALARS, st.lists(JSON_NUMBERS, max_size=1)), max_size=4),
    st.dictionaries(st.text(max_size=2), _JSON_SCALARS, max_size=2),
)


# (column, value) faults planted in a valid cell of a record set's columns
ROW_FAULTS = [
    ("x", math.nan), ("x", math.inf), ("x", -math.inf), ("mos", math.nan), ("mos", -math.inf),
    ("id", ""), ("id", 7), ("id", None), ("dim", ""), ("dim", "Quality"), ("dim", None),
]

# values of each field of the kind the record rule expects, valid or not
FIELD_VALUES = {
    "id": st.text(max_size=2),
    "fi": st.one_of(st.lists(JSON_NUMBERS, min_size=3, max_size=3), st.lists(JSON_NUMBERS, max_size=4)),
    "ft": st.one_of(st.lists(JSON_NUMBERS, min_size=3, max_size=3), st.lists(JSON_NUMBERS, max_size=4)),
    "mos": JSON_NUMBERS,
    "dim": st.sampled_from(["quality", "consistency", "authenticity", "", "Quality"]),
}


@st.composite
def malformed_record(draw, obj):
    """The JSON text of a record line that no reader may accept."""
    kind = draw(st.sampled_from(["truncate", "drop", "extra", "bad-value", "deep"]))
    text = json.dumps(obj)
    if kind == "truncate":
        return text[: draw(st.integers(1, len(text) - 1))]
    if kind == "deep":
        return DEEP + text
    obj = dict(obj)
    if kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "extra":
        obj[draw(st.text(min_size=1).filter(lambda key: key not in obj))] = 0
    else:
        key = draw(st.sampled_from(sorted(BAD_RECORD_VALUES)))
        obj[key] = draw(st.sampled_from(BAD_RECORD_VALUES[key]))
    return json.dumps(obj)


REQUIRED_PATHS = [
    ("format_version",), ("train_config",), ("history",), ("head",), ("rng",),
    ("head", "config"), ("head", "d_img"), ("head", "d_txt"), ("head", "params"),
    ("rng", "seed"),
] + [("head", "params", name) for name in PARAM_FIELDS]

BAD_CHECKPOINT_VALUES = [
    (("format_version",), [1, 2, 3, 5, "4", None, [4], 4.5, 4.0, True]),
    (("train_config",), [None, [], "x", 5]),
    (("history",), ["x", [1], [{}], None, 5, *([row] for row in BAD_HISTORY_ROWS)]),
    (("head",), [None, [], "x", {}]),
    (("rng",), [None, [], "x", 5, {}]),
    (("rng", "seed"), BAD_COUNTS),
    (("head", "config"), [None, [], "x"]),
    (("head", "config", "k"), [1, 0, 2.5, "x", None]),
    (("head", "d_img"), ["x", None, [], 0, -3, 4, 3.0, True]),
    (("head", "d_txt"), ["x", None, [], 0, -3, 4, 3.0, True]),
] + [
    (("train_config", name), [-1.0, *NOT_A_NUMBER]) for name in ("lr", "weight_decay", "lam")
] + [
    (("train_config", name), [0, -1, 2.5, "x", None]) for name in ("epochs", "t_max")
] + [
    (("train_config", "batch_size"), [1, 0, 2.5, "x", None]),
] + [
    (("train_config", "seed"), BAD_COUNTS),
] + [
    (("head", "config", name), ["nope", 3, None, []]) for name in ("activation", "agg_mode", "ablation")
] + [
    (("head", "params", name), ["x", None, {}, [], [[0.5]], [float("nan")], [10**400]])
    for name in PARAM_FIELDS
]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def malformed_checkpoint(draw, doc):
    """The JSON text of a checkpoint that ``load_checkpoint`` may not accept."""
    kind = draw(st.sampled_from(["truncate", "deep", "not-object", "drop", "extra", "bad-value"]))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "deep":
        return DEEP + text
    if kind == "not-object":
        return json.dumps(draw(st.sampled_from([[], "x", 1, None, [doc]])))
    doc = copy.deepcopy(doc)
    if kind == "drop":
        path = draw(st.sampled_from(REQUIRED_PATHS))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "extra":
        section = _at(doc, draw(st.sampled_from([("train_config",), ("head", "config")])))
        section[draw(st.text(min_size=1).filter(lambda key: key not in section))] = 0
    else:
        path, values = draw(st.sampled_from(BAD_CHECKPOINT_VALUES))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    return json.dumps(doc)


class TestEvalScoresOnce:
    def test_one_forward_per_eval(self, capsys, tmp_path, monkeypatch):
        """Overall and per-dimension metrics come from one batched forward."""
        from agrm import head

        data = tmp_path / "d.jsonl"
        planted = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "synth", "--n", "30", "--d-img", "4", "--d-txt", "4",
            "--noise", "0.2", "--out", str(data), "--planted-out", str(planted),
        )
        assert code == 0
        calls = []
        forward = head._forward

        def counting(hp, x):
            calls.append(x.shape[0])
            return forward(hp, x)

        monkeypatch.setattr(head, "_forward", counting)
        code, doc, _ = run_json(capsys, "eval", "--checkpoint", str(planted), "--data", str(data))
        assert code == 0
        assert calls == [30]
        assert set(doc["by_dim"]) == {"quality", "consistency", "authenticity"}


    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_records_rejected_before_any_forward(self, capsys, tmp_path, monkeypatch, n):
        from agrm import head

        data = tmp_path / "d.jsonl"
        planted = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "synth", "--n", "4", "--d-img", "4", "--d-txt", "4",
            "--out", str(data), "--planted-out", str(planted),
        )
        assert code == 0
        data.write_text("".join(data.read_text().splitlines(keepends=True)[:n]))
        calls = []
        monkeypatch.setattr(head, "_forward", lambda hp, x: calls.append(x) or None)
        code, out, err = run(capsys, "eval", "--checkpoint", str(planted), "--data", str(data))
        assert code == 2
        assert out == "" and calls == []
        assert err.strip() == f"error: evaluation needs >= 2 records, got {n}"


class TestNonFiniteTraining:
    def test_diverging_run_exits_2_without_checkpoint(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        code, _, _ = run(
            capsys, "synth", "--n", "48", "--d-img", "6", "--d-txt", "6", "--out", str(data)
        )
        assert code == 0
        ck = tmp_path / "ck.json"
        code, out, err = run(
            capsys, "train", "--data", str(data), "--preset", "recovery",
            "--epochs", "3", "--batch-size", "8", "--lr", "1e300", "--out", str(ck),
        )
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert "epoch 0, step 1: non-finite weight in agg_w" in err
        assert not ck.exists()
        assert not (tmp_path / "ck.json.history.csv").exists()


class TestFdCheck:
    def test_default_passes(self, capsys):
        code, doc, _ = run_json(capsys, "fd-check")
        assert code == 0
        assert doc["failures"] == 0
        assert doc["max_rel_err"] < 1e-4

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, doc, _ = run_json(capsys, "fd-check", "--tol", "1e-14")
        assert code == 1
        assert doc["failures"] > 0

    def test_softmax_variant(self, capsys):
        code, doc, _ = run_json(
            capsys, "fd-check", "--agg", "softmax", "--k", "3", "--seed", "4"
        )
        assert code == 0
        assert doc["pass"] is True

    @pytest.mark.parametrize("flag", ["--step", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_step_or_tol_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "fd-check", flag, value, "--json")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {flag[2:]} must be finite and > 0, got {float(value)!r}"
        ]

    @pytest.mark.parametrize("value", ["1", "0", "-1"])
    def test_batch_below_two_exits_2(self, capsys, value):
        err = assert_clean_exit_2(capsys, "fd-check", "--batch", value)
        assert err == f"error: batch must be an integer >= 2, got {value}\n"

    def test_seed_in_header(self, capsys):
        code, out, _ = run(capsys, "fd-check", "--seed", "13")
        assert code == 0
        assert "seed=13" in out.splitlines()[0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "--data", "d.jsonl", "--out", "ck.json", "--init-seed"], "init-seed"),
        (["train", "--data", "d.jsonl", "--out", "ck.json", "--split-seed"], "split-seed"),
        (["train", "--data", "d.jsonl", "--out", "ck.json", "--seed"], "seed"),
        (["synth", "--out", "d.jsonl", "--seed"], "seed"),
        (["verify", "--samples", "10", "--seed"], "seed"),
        (["fd-check", "--seed"], "seed"),
    ],
    ids=["train-init", "train-split", "train", "synth", "verify", "fd-check"],
)
def test_negative_seed_names_its_flag(capsys, argv, flag):
    # refused before any file is read or written
    err = assert_clean_exit_2(capsys, *argv, "-1")
    assert err == f"error: {flag} must be an integer >= 0, got -1\n"
