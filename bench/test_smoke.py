"""Smoke check of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric named in BENCHMARK.json comes out with its unit
in both modes, and that each workload's correctness gate counts failures.
It is not part of the package's own test suite.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from agrm.gradients import GradReport  # noqa: E402
from speed import SpeedMeter  # noqa: E402

TINY = {
    "recover": {"n": 48, "epochs": 2, "batch": 8},
    "score": {"n": 60},
    "verify": {"samples": 50},
    "gradcheck": {"dim": 3, "batch": 4},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_reported(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.01, trace=trace)
    result = run.run(args, sizes=TINY[workload])
    metrics = run.result_metrics(result, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert set(result["named"]) <= set(run.NAMED_UNITS)
    if trace:
        assert result["ops_traced"] >= 2 and (tmp_path / workload / "spans.npz").exists()
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_recover_gate_fails_on_changed_checkpoint():
    wl = workloads.Recover(0, None)
    doc = {"srcc": 0.99, "final_srcc": 0.99}
    history = {"history": [{"epoch": 0, "eval_srcc": 0.99}]}
    st = {"codes": [0, 0, 0], "eval_doc": doc, "train_doc": doc,
          "ckpt": json.dumps(history).encode()}
    assert wl.check(st).failed == 0
    assert wl.check({**st, "ckpt": b"{}"}).failed == 1
    assert wl.check({**st, "eval_doc": {"srcc": 0.5}, "train_doc": {"final_srcc": 0.5}}).failed == 1


def test_score_gate_fails_every_record_on_a_bad_round_trip(tmp_path):
    wl = workloads.Score(0, tmp_path, TINY["score"])
    with SpeedMeter() as meter:
        st = wl.op(run.make_phase(None, meter))
    n = TINY["score"]["n"]
    assert wl.check(st).failed == 0
    assert wl.check({**st, "loaded": st["loaded"][:-1]}).failed == n


def test_verify_gate_counts_violations():
    wl = workloads.Verify(0, None, TINY["verify"])
    doc = {"pass": True, "violations": {"unimodality": 0, "shift": 0}}
    assert wl.check({"code": 0, "doc": doc}).failed == 0
    bad = {"pass": False, "violations": {"unimodality": 2, "shift": 0}}
    assert wl.check({"code": 1, "doc": bad}).failed == TINY["verify"]["samples"]


def test_gradcheck_gate_counts_unfinished_checks():
    wl = workloads.Gradcheck(0, None, TINY["gradcheck"])
    wl.generate()
    ok = GradReport(loss=0.0, grads={}, max_rel_err=1e-9, checked=10, failures=0)
    nan = GradReport(loss=0.0, grads={}, max_rel_err=float("nan"), checked=10, failures=0)
    outcome = wl.check({"reports": [ok, nan]})
    assert (outcome.attempted, outcome.failed) == (20, 10)


def test_gradcheck_confirmation_clears_noise_and_catches_a_wrong_gradient(monkeypatch):
    # seed 204, configuration 3: fd_check flags one correct coordinate whose
    # gradient is 8e-4, at relative error 1.4e-4
    wl = workloads.Gradcheck(204, None)
    wl.generate()
    hp, pairs, targets = wl.cases[3]
    rep = workloads.gradients.fd_check(hp, pairs, targets, step=workloads.FD_STEP,
                                       tol=workloads.FD_TOL)
    assert rep.failures == 1
    assert workloads.confirmed_failures(hp, pairs, targets) == 0

    exact = workloads.gradients.batch_loss_and_grads

    def off_by_one_percent(*args, **kwargs):
        out = exact(*args, **kwargs)
        out.grads["phi_gamma_w"] = out.grads["phi_gamma_w"] * 1.01
        return out

    monkeypatch.setattr(workloads.gradients, "batch_loss_and_grads", off_by_one_percent)
    assert workloads.confirmed_failures(hp, pairs, targets) == hp.phi_gamma_w.size
