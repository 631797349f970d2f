"""The four benchmark workloads, each a closed loop in one process.

A workload builds its inputs from the run seed in ``generate`` (timed as
set-up), does one measured operation in ``op``, and checks that operation's
outputs in ``check``.  ``op`` runs inside named phases; each phase yields a
timer (``speed.Interval``), and the op returns the one its item rate is
taken over as ``"rate"``.  Per-item call counts are taken in the phase named
by ``count_phase``.  The runner keeps tracing off while ``check`` runs, so
checks never show up in layer counts.

Why these four: ``recover`` is the main user path (training, dominated by
``gradients``); ``score`` is a large-n data round trip through ``data``,
``head`` and ``losses`` with no training; ``verify`` exercises ``core`` alone;
``gradcheck`` is the only path through softmax aggregation, the ablation
activations and the forward-only loss passes of ``fd_check``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from agrm import cli, data, gradients, head, losses, trainer

# Correctness gates.  RECOVER_MIN_SRCC is the bound of acceptance check C9.
# SCORE_MIN_SRCC sits below the planted-head SRCC of every seed tried while
# the benchmark was set up (0.929 to 0.937 on seeds 0..11 at n = 20000,
# noise 0.25), so only a scoring defect trips it.
RECOVER_MIN_SRCC = 0.95
SCORE_MIN_SRCC = 0.90
FD_STEP = 1e-4
FD_TOL = 1e-4
# fd_check's relative test also flags correct gradients whose magnitude is
# near the finite-difference noise (52 of seeds 0..649 at FD_STEP; worst
# relative error 0.077, on a gradient of 2e-7).  A flagged configuration is
# re-checked at a step ten times smaller, where truncation and rounding
# errors both stayed near 1e-9, allowing CONFIRM_ABS on top of the relative
# tolerance; only coordinates that fail again count.
CONFIRM_STEP = 1e-5
CONFIRM_ABS = 1e-8


@dataclass
class Outcome:
    """What ``check`` found: operations attempted and failed, plus named values."""

    attempted: int
    failed: int
    values: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``agrm.cli.main`` in-process and capture what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # looked up on the module at call time, so a traced run sees its wrapper
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


class Recover:
    """C9 pipeline: synth, 75/25 split, train with the recovery preset, eval."""

    count_phase = "train"
    rate_name = "train_items_per_s"  # epochs x train items / train wall time
    sizes = {"n": 512, "epochs": 100, "batch": 16}

    def __init__(self, seed: int, workdir, sizes=None):
        self.seed = seed
        self.dir = workdir
        self.sizes = {**self.sizes, **(sizes or {})}
        self.first_ckpt: bytes | None = None

    def generate(self) -> None:
        """Nothing to build: the pipeline generates its own data, timed."""

    def op(self, phase) -> dict:
        s, d = self.seed, self.dir
        raw, tr_path, ho_path, ck = (
            d / "data.jsonl", d / "train.jsonl", d / "heldout.jsonl", d / "ck.json"
        )
        st = {"codes": []}
        with phase("synth"):
            code, _ = run_cli(
                ["synth", "--n", self.sizes["n"], "--noise", "0", "--seed", s, "--out", raw]
            )
            st["codes"].append(code)
        with phase("split"):
            train_recs, heldout_recs = data.split(data.load_records(raw), 0.75, seed=s)
            data.save_records(tr_path, train_recs)
            data.save_records(ho_path, heldout_recs)
        with phase("train") as timer:
            code, out = run_cli(
                ["train", "--data", tr_path, "--eval-data", ho_path, "--preset", "recovery",
                 "--epochs", self.sizes["epochs"], "--batch-size", self.sizes["batch"],
                 "--seed", s, "--init-seed", s, "--out", ck, "--json"]
            )
            st["codes"].append(code)
        st["train_doc"] = _json_or_none(out)
        with phase("eval"):
            code, out = run_cli(["eval", "--checkpoint", ck, "--data", ho_path, "--json"])
            st["codes"].append(code)
        st["eval_doc"] = _json_or_none(out)
        st["ckpt"] = ck.read_bytes() if ck.exists() else b""
        st["items"] = self.sizes["epochs"] * len(train_recs)
        st["rate"] = timer
        return st

    def check(self, st) -> Outcome:
        ev, tr = st["eval_doc"], st["train_doc"]
        ok = all(c == 0 for c in st["codes"]) and ev is not None and tr is not None
        srcc = ev["srcc"] if ok else float("nan")
        ok = ok and math.isfinite(srcc) and srcc >= RECOVER_MIN_SRCC
        ok = ok and srcc == tr["final_srcc"]
        if self.first_ckpt is None:
            self.first_ckpt = st["ckpt"]
        # same seed, same bytes (acceptance check C11)
        ok = ok and st["ckpt"] == self.first_ckpt
        values = {"heldout_srcc": srcc, "epochs_to_target": 0}
        if ok:
            history = json.loads(st["ckpt"])["history"]
            values["epochs_to_target"] = next(
                (row["epoch"] + 1 for row in history if row["eval_srcc"] >= RECOVER_MIN_SRCC),
                0,
            )
        return Outcome(attempted=1, failed=0 if ok else 1, values=values)


class Score:
    """Write 20000 synthetic records to .jsonl.gz, read them back and score them.

    The item rate is taken over the whole round trip, which gives a run
    three times the measured time of the read phase alone; the write and
    read rates are reported beside it.  Call counts are taken in the read
    phase.
    """

    count_phase = "read"
    rate_name = "roundtrip_records_per_s"
    sizes = {"n": 20000}

    def __init__(self, seed: int, workdir, sizes=None):
        self.seed = seed
        self.dir = workdir
        self.sizes = {**self.sizes, **(sizes or {})}

    def generate(self) -> None:
        """Nothing to build: generating the records is the timed write phase."""

    def op(self, phase) -> dict:
        path = self.dir / "records.jsonl.gz"
        cfg = data.SynthConfig(n=self.sizes["n"], noise_sigma=0.25, seed=self.seed)
        with phase("roundtrip") as timer:
            with phase("write") as write_timer:
                records, planted = data.synth_generate(cfg)
                data.save_records(path, records)
            with phase("read") as read_timer:
                loaded = data.load_records(path)
                overall = trainer.evaluate(planted, loaded)
                by_dim = trainer.evaluate_by_dim(planted, loaded)
        return {
            "records": records, "loaded": loaded, "planted": planted,
            "overall": overall, "by_dim": by_dim, "items": len(loaded),
            "rate": timer, "write": write_timer, "read": read_timer,
        }

    def check(self, st) -> Outcome:
        n = len(st["records"])
        failed = 0
        for rec in st["loaded"]:
            q = head.head_forward(st["planted"], rec.pair()).q_rescaled
            if not (math.isfinite(q) and 0.0 <= q <= 5.0):
                failed += 1
        srcc, plcc = st["overall"]
        dims_ok = sorted(st["by_dim"]) == sorted(data.DIMS) and all(
            math.isfinite(v) for pair in st["by_dim"].values() for v in pair
        )
        # a wrong round trip or a failed overall gate fails every record
        whole_ok = (
            st["loaded"] == st["records"]
            and math.isfinite(plcc)
            and math.isfinite(srcc)
            and srcc >= SCORE_MIN_SRCC
            and dims_ok
        )
        return Outcome(
            attempted=n,
            failed=failed if whole_ok else n,
            values={
                "planted_srcc": srcc,
                "write_records_per_s": n / st["write"].nominal,
                "score_records_per_s": n / st["read"].nominal,
            },
        )


class Verify:
    """``agrm verify``: default k range, standard mode, 20000 draws per call."""

    count_phase = "verify"
    rate_name = "verify_draws_per_s"
    sizes = {"samples": 20000}

    def __init__(self, seed: int, workdir, sizes=None):
        self.seed = seed
        self.dir = workdir
        self.sizes = {**self.sizes, **(sizes or {})}

    def generate(self) -> None:
        """Nothing to build: draws come from the seed inside the command."""

    def op(self, phase) -> dict:
        with phase("verify") as timer:
            code, out = run_cli(
                ["verify", "--samples", self.sizes["samples"], "--seed", self.seed, "--json"]
            )
        return {"code": code, "doc": _json_or_none(out),
                "items": self.sizes["samples"], "rate": timer}

    def check(self, st) -> Outcome:
        n = self.sizes["samples"]
        doc = st["doc"]
        if st["code"] != 0 or doc is None or doc.get("pass") is not True:
            return Outcome(attempted=n, failed=n)
        bad = sum(doc["violations"].values())
        return Outcome(attempted=n, failed=min(n, bad))


def gradcheck_configs() -> list[head.HeadConfig]:
    """The 16 head configurations of acceptance check C6, then the ablations.

    The ``none`` ablation is the default head, already among the 16, so the
    three others are added on top of it.
    """
    cfgs = [
        head.HeadConfig(k=k, activation=act, agg_mode=agg)
        for act in head.ACTIVATIONS
        for agg in head.AGG_MODES
        for k in (3, 5)
    ]
    cfgs += [head.HeadConfig(ablation=a) for a in head.ABLATIONS if a != "none"]
    return cfgs


def _loss(hp, pairs, targets) -> float:
    q = [head.head_forward(hp, fp).q_rescaled for fp in pairs]
    return losses.total_loss(losses.ScoreBatch(predicted=q, target=targets))


def confirmed_failures(hp, pairs, targets) -> int:
    """Coordinates whose analytic gradient misses a central difference at
    CONFIRM_STEP by more than FD_TOL relative plus CONFIRM_ABS."""
    grads = gradients.batch_loss_and_grads(hp, pairs, targets).grads
    work = hp.copy()
    bad = 0
    for name, analytic in grads.items():
        flat = getattr(work, name).reshape(-1)
        for i, a in enumerate(analytic.reshape(-1)):
            orig = flat[i]
            flat[i] = orig + CONFIRM_STEP
            hi = _loss(work, pairs, targets)
            flat[i] = orig - CONFIRM_STEP
            lo = _loss(work, pairs, targets)
            flat[i] = orig
            f = (hi - lo) / (2.0 * CONFIRM_STEP)
            if abs(a - f) > FD_TOL * max(abs(a), abs(f)) + CONFIRM_ABS:
                bad += 1
    return bad


class Gradcheck:
    """``gradients.fd_check`` over every head configuration, C6-sized heads."""

    count_phase = "fd_check"
    rate_name = "fd_coords_per_s"  # checked coordinates / fd_check wall time
    sizes = {"dim": 8, "batch": 8}

    def __init__(self, seed: int, workdir, sizes=None):
        self.seed = seed
        self.dir = workdir
        self.sizes = {**self.sizes, **(sizes or {})}
        self.cases = []

    def generate(self) -> None:
        dim, batch = self.sizes["dim"], self.sizes["batch"]
        self.cases = []
        for i, cfg in enumerate(gradcheck_configs()):
            init_seed, batch_seed = np.random.SeedSequence([self.seed, i]).spawn(2)
            hp = head.init_head(dim, dim, cfg, seed=init_seed)
            rng = np.random.default_rng(batch_seed)
            pairs = [
                head.FeaturePair(f_i=rng.standard_normal(dim), f_t=rng.standard_normal(dim))
                for _ in range(batch)
            ]
            preds = np.array([head.head_forward(hp, fp).q_rescaled for fp in pairs])
            # as in the fd-check command: keep the absolute-error kink off the stencil
            offsets = rng.uniform(0.1, 1.0, size=batch) * rng.choice([-1.0, 1.0], size=batch)
            self.cases.append((hp, pairs, preds + offsets))

    def op(self, phase) -> dict:
        with phase("fd_check") as timer:
            reports = [
                gradients.fd_check(hp, pairs, t, step=FD_STEP, tol=FD_TOL)
                for hp, pairs, t in self.cases
            ]
        return {"reports": reports, "items": sum(r.checked for r in reports),
                "rate": timer}

    def check(self, st) -> Outcome:
        attempted = failed = 0
        for (hp, pairs, t), rep in zip(self.cases, st["reports"]):
            attempted += rep.checked
            if rep.max_rel_err is None or not math.isfinite(rep.max_rel_err):
                failed += rep.checked
            elif rep.failures:
                failed += min(rep.failures, confirmed_failures(hp, pairs, t))
        return Outcome(attempted=attempted, failed=failed)


WORKLOADS = {w.__name__.lower(): w for w in (Recover, Score, Verify, Gradcheck)}
