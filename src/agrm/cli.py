"""Command-line surface: probing, curve dumps, sweeps, and the training loop.

Seven subcommands: ``probe`` (one parameter set, full report), ``curves``
(CSV of grade curves over an ability range), ``verify`` (randomized property
sweep), ``synth`` (generate a dataset with a planted head), ``train``,
``eval``, and ``fd-check`` (finite-difference gradient audit).

Exit codes: 0 success, 1 a check ran and failed, 2 bad usage or input.
Every command takes ``--json`` for machine-readable output.  Each report
command builds one document; ``--json`` prints it, and the human output is
its rendering by ``_render`` (one line per key, floats to 9 significant
digits), so every fact a user reads is also in the JSON.  ``curves`` writes
CSV instead.  Randomized commands report their seeds, so any report can be
reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import core
from .core import AgrmParams
from .data import (
    SynthConfig,
    dim_counts,
    draw_features,
    load_records,
    normalize_mos,
    save_records,
    split,
    synth_generate,
)
from .gradients import fd_check
from .head import ABLATIONS, ACTIVATIONS, AGG_MODES, HeadConfig, batch_scores, init_head
from .trainer import (
    PRESET_NAMES,
    Checkpoint,
    TrainConfig,
    evaluate,
    evaluate_by_dim,
    load_checkpoint,
    preset,
    save_checkpoint,
    train,
)


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _text(value) -> str:
    """One value of a report document as its human line writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if value is None:
        return "n/a"
    if isinstance(value, list):
        return " ".join(map(_text, value))
    if isinstance(value, dict):
        return " ".join(f"{key}={_text(v)}" for key, v in value.items())
    return str(value)


def _render(doc: dict, prefix: str = "") -> list[str]:
    """The human lines of a report document, whatever the command.

    Each key gives one ``key: value`` line, in the document's order.  An
    object is written ``key: k1=v1 k2=v2``, and a non-empty object of
    objects gives one such line per inner key, labelled ``key.inner``.
    """
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict) and value and all(isinstance(v, dict) for v in value.values()):
            lines += _render(value, f"{prefix}{key}.")
        else:
            text = _text(value)
            lines.append(f"{prefix}{key}: {text}" if text else f"{prefix}{key}:")
    return lines


def _emit(args, doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True) if args.json else "\n".join(_render(doc)))


# ---------------------------------------------------------------- probe

def cmd_probe(args) -> int:
    params = AgrmParams(theta=args.theta, beta1=args.beta1, gamma=args.gamma, k=args.k)
    probs = core.agrm_probs(params)
    q = core.expected_score(probs)
    threshold = core.gamma_threshold()
    doc = {
        "params": {
            "theta": params.theta, "beta1": params.beta1, "gamma": params.gamma, "k": params.k,
        },
        "probs": list(probs),
        "sum": sum(probs),
        "q": q,
        "q_rescaled": core.rescale_score(q, params.k),
        "modal_grade": core.modal_grade(probs),
        "gamma_threshold": threshold,
        "above_threshold": params.gamma > threshold,
        "theta1": None,
        "theta2": None,
        "crossings_undefined": None,
        "unimodal": core.is_unimodal(probs),
    }
    try:
        theta1, theta2 = core.boundary_thetas(params)
        if not (math.isfinite(theta1) and math.isfinite(theta2)):
            raise ValueError(f"a crossing overflows: theta1={theta1!r}, theta2={theta2!r}")
        doc.update(theta1=theta1, theta2=theta2)
    except ValueError as exc:
        doc["crossings_undefined"] = str(exc)
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------- curves

def _csv_rows(rows) -> str:
    """CSV lines of a non-empty list of equal-length number rows, each value
    as ``_fmt`` writes it, formatted by one ``%`` per row; an integer below
    10^9 is written as it is."""
    line = ",".join(["%.9g"] * len(rows[0])) + "\n"
    return "".join(line % tuple(row) for row in rows)


def cmd_curves(args) -> int:
    core._require_count("steps", args.steps, 2)
    # the flags first, so a refusal names the flag and not the range they give
    core._require_count("k", args.k, 2)
    core._require_finite("beta1", args.beta1)
    core._require_non_negative("gamma", args.gamma)
    span = 4.0 * args.gamma * args.k
    lo = args.theta_min if args.theta_min is not None else args.beta1 - span
    hi = args.theta_max if args.theta_max is not None else args.beta1 + span
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"theta range [{lo}, {hi}] must have a finite width > 0")
    thetas = np.linspace(lo, hi, args.steps)
    probs = core.agrm_probs_batch(
        thetas, np.full(thetas.size, args.beta1), np.full(thetas.size, args.gamma), args.k
    )
    rows = np.column_stack([thetas, probs, core.expected_score_batch(probs)]).tolist()

    header = ["theta"] + [f"p{m}" for m in range(1, args.k + 1)] + ["q"]
    text = ",".join(header) + "\n" + _csv_rows(rows)
    # --out takes the CSV in either mode; --json output still goes to stdout
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.json:
        print(json.dumps({"header": header, "rows": rows}, sort_keys=True))
    elif args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- verify

# Draws per chunk.  Memory stays flat in --samples, and each NumPy call is
# spread over enough rows that its fixed cost vanishes.
VERIFY_CHUNK = 8192
_VERIFY_FAMILIES = ("unimodality", "normalization", "closed_form", "shift", "boundary")
_VERIFY_TOL = 1e-12
_BOUNDARY_SLACK = 1e-9


def _verify_draws(rng, n, args, threshold) -> dict:
    """The parameter columns of n draws, taken column by column from ``rng``.

    ``cf_m``/``cf_z`` place the closed-form probe at middle grade m in
    [2, k-1], and ``shift_m`` is the middle grade in [2, k-2] the shift check
    compares; draws with too few grades for a probe ignore its column.
    """
    k = rng.integers(args.k_min, args.k_max + 1, size=n)
    if args.allow_sub_threshold:
        gamma = rng.uniform(0.05, threshold, size=n)
    else:
        # margin - U[0, margin) lands in (0, margin], keeping gamma strictly above
        gamma = threshold + (args.gamma_margin - rng.uniform(0.0, args.gamma_margin, size=n))
    beta1 = rng.uniform(-5.0, 5.0, size=n)
    theta = rng.uniform(beta1 - 20.0, beta1 + (k - 2) * gamma + 20.0)
    return {
        "k": k, "gamma": gamma, "beta1": beta1, "theta": theta,
        "cf_m": rng.integers(2, np.maximum(k, 3)),
        "cf_z": rng.uniform(-30.0, 30.0, size=n),
        "shift_m": rng.integers(2, np.maximum(k - 1, 3)),
    }


@np.errstate(under="ignore")
def _verify_chunk(draws, standard: bool):
    """Check one chunk of draws: (failure mask per family, non-unimodal mask,
    closed-form probe abilities), each aligned with the draws.

    Rows are checked in groups that share k, since the kernel takes one k.
    A row that fails ``core.normalized_rows`` counts under ``normalization``
    and is dropped from the other families.  Below the threshold
    (``standard`` false) non-unimodal rows are expected, not failures, and
    the boundary family is skipped.
    """
    c = core._SCALE
    n = draws["k"].size
    fails = {name: np.zeros(n, dtype=bool) for name in _VERIFY_FAMILIES}
    nonunimodal = np.zeros(n, dtype=bool)
    cf_theta = np.full(n, np.nan)
    # the narrowest dtype that holds every k: its stable sort is a radix
    # sort, with the same permutation as the int64 one
    ks = draws["k"]
    order = np.argsort(ks.astype(np.min_scalar_type(ks.max())), kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(ks[order])) + 1):
        k = int(ks[rows[0]])
        theta, beta1, gamma = (draws[name][rows] for name in ("theta", "beta1", "gamma"))
        probs = core.agrm_probs_unchecked(theta, beta1, gamma, k=k)
        ok = core.normalized_rows(probs)
        if not ok.all():
            fails["normalization"][rows] = ~ok
            rows, theta, beta1, gamma, probs = rows[ok], theta[ok], beta1[ok], gamma[ok], probs[ok]
        (fails["unimodality"] if standard else nonunimodal)[rows] = ~core.is_unimodal_batch(probs)
        at = np.arange(rows.size)

        # middle-band closed form against naive sigmoid differences, probed
        # where the naive route is itself trustworthy
        if k >= 3:
            m = draws["cf_m"][rows]
            lower = beta1 + (m - 2) * gamma
            theta_cf = lower + draws["cf_z"][rows] / c
            closed = core.agrm_probs_unchecked(theta_cf, beta1, gamma, k=k)[at, m - 1]
            naive = core.sigmoid_array(c * (theta_cf - lower)) - core.sigmoid_array(
                c * (theta_cf - (beta1 + (m - 1) * gamma))
            )
            fails["closed_form"][rows] = np.abs(closed - naive) > _VERIFY_TOL
            cf_theta[rows] = theta_cf

        # adjacent middle grades are translations of each other
        if k >= 4:
            m = draws["shift_m"][rows]
            shifted = core.agrm_probs_unchecked(theta - gamma, beta1, gamma, k=k)
            fails["shift"][rows] = np.abs(probs[at, m] - shifted[at, m - 1]) > _VERIFY_TOL

        # edge-grade handover points and their placement, both within
        # _BOUNDARY_SLACK plus the rounding a handover point carries: a mass
        # moves by at most c/4 per unit of theta, and theta is rounded to a
        # few ulp of its own size.  At gamma within rounding of the
        # threshold a handover point sits on its peak.
        if k >= 3 and standard:
            theta1, theta2 = core.boundary_thetas_batch(beta1, gamma, k=k)
            pv1 = core.agrm_probs_unchecked(theta1, beta1, gamma, k=k)
            pv2 = core.agrm_probs_unchecked(theta2, beta1, gamma, k=k)
            slack1, slack2 = (
                _BOUNDARY_SLACK + 8.0 * c * np.spacing(np.abs(t)) for t in (theta1, theta2)
            )
            ok = (
                (np.abs(pv1[:, 0] - pv1[:, 1]) < slack1)
                & (np.abs(pv2[:, k - 2] - pv2[:, k - 1]) < slack2)
                # core.peak_ability of grades 2 and k-1
                & (theta1 < beta1 + 0.5 * gamma + slack1)
                & (theta2 > beta1 + (k - 2.5) * gamma - slack2)
            )
            fails["boundary"][rows] = ~ok
    return fails, nonunimodal, cf_theta


def cmd_verify(args) -> int:
    """Randomized sweep of the unimodality guarantee and four sibling properties.

    Every flag is checked before any draw.  Draws come in chunks of
    ``VERIFY_CHUNK``, each drawn column-wise by ``_verify_draws`` and checked
    as arrays by ``_verify_chunk``, so a seed reproduces its own report.
    Each family's counterexample is its first failing draw in draw order.
    """
    core._require_count("samples", args.samples, 0)
    if not 2 <= args.k_min <= args.k_max:
        raise ValueError(f"need 2 <= k-min <= k-max, got [{args.k_min}, {args.k_max}]")
    standard = not args.allow_sub_threshold
    threshold = core.gamma_threshold()
    # the largest |theta| a check reaches is reach * gamma + 25: beta1 is
    # within 5 of 0, the abilities span (k - 2) gammas and 20 more past it,
    # and the shift check (k >= 4) moves them by one gamma more.  The
    # boundary family allows 8 * d * alpha ulps of a handover ability; once
    # that slack reaches 1 no mass difference can fail it, so the margin
    # stops below.  That also keeps the kernel's z far from overflow; the
    # slack is nan when the margin is nan or inf.
    reach = args.k_max - 2 + (args.k_max >= 4)
    slack = 8.0 * core._SCALE * np.spacing(reach * (threshold + args.gamma_margin) + 25.0)
    if standard and not (args.gamma_margin > 0.0 and slack < 1.0):
        raise ValueError(
            f"gamma-margin must be > 0 with 8 * d * alpha * spacing({reach} * gamma + 25) < 1 "
            f"at k-max {args.k_max}, got {args.gamma_margin!r}"
        )
    doc = {
        "samples": args.samples,
        "seed": args.seed,
        "k_min": args.k_min,
        "k_max": args.k_max,
        "mode": "standard" if standard else "sub-threshold",
    }
    if args.samples == 0:
        doc.update({"violations": {}, "warning": "0 samples, vacuous pass", "pass": True})
        _emit(args, doc)
        return 0

    rng = np.random.default_rng(args.seed)
    counts = dict.fromkeys(_VERIFY_FAMILIES, 0)
    first = {}
    expected_nonunimodal = 0
    for start in range(0, args.samples, VERIFY_CHUNK):
        draws = _verify_draws(rng, min(VERIFY_CHUNK, args.samples - start), args, threshold)
        fails, nonunimodal, cf_theta = _verify_chunk(draws, standard)
        expected_nonunimodal += int(nonunimodal.sum())
        found = []
        for order, (family, mask) in enumerate(fails.items()):
            counts[family] += int(mask.sum())
            if family not in first and mask.any():
                found.append((int(np.argmax(mask)), order, family))
        # families first failing in this chunk join in draw order
        for i, _, family in sorted(found):
            theta = cf_theta if family == "closed_form" else draws["theta"]
            first[family] = {
                "theta": float(theta[i]), "beta1": float(draws["beta1"][i]),
                "gamma": float(draws["gamma"][i]), "k": int(draws["k"][i]),
            }

    doc.update({
        "violations": counts,
        "expected_nonunimodal": expected_nonunimodal,
        "counterexamples": first,
        "pass": not any(counts.values()),
    })
    _emit(args, doc)
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------- synth

def _require_output_paths(*flag_paths) -> None:
    """Refuse an output path in a missing directory, or one that names a
    directory, before the command does any work, so a bad path costs
    nothing and writes nothing.  Takes (flag, path) pairs; a None path is
    an output not asked for."""
    for flag, path in flag_paths:
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} must name a file, not a directory, got {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} must be in an existing directory, got {path}")


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n=args.n, d_img=args.d_img, d_txt=args.d_txt,
        noise_sigma=args.noise, seed=args.seed,
    )
    _require_output_paths(("out", args.out), ("planted-out", args.planted_out))
    records, planted = synth_generate(cfg)
    save_records(args.out, records)
    if args.planted_out:
        ckpt = Checkpoint(head=planted, config=TrainConfig(), history=[], seed=args.seed)
        save_checkpoint(args.planted_out, ckpt)
    doc = {
        "n": cfg.n, "seed": cfg.seed, "noise_sigma": cfg.noise_sigma,
        "d_img": cfg.d_img, "d_txt": cfg.d_txt,
        "out": str(args.out), "planted_out": args.planted_out,
        "dim_counts": dim_counts(records),
    }
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------- train

def _train_config(args) -> TrainConfig:
    """The preset, with each ``TrainConfig`` field given by its flag replaced."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(TrainConfig)
        if getattr(args, f.name) is not None
    }
    return dataclasses.replace(preset(args.preset), **overrides)


def cmd_train(args) -> int:
    history_path = args.history_out or (str(args.out) + ".history.csv")
    _require_output_paths(("out", args.out), ("history-out", history_path))
    records = load_records(args.data)
    if args.normalize:
        records = normalize_mos(records)
    if args.eval_data:
        train_set = records
        eval_set = load_records(args.eval_data)
    else:
        # also refuses a fraction so small that 1 - val-fraction rounds to 1
        if not 0.0 < 1.0 - args.val_fraction < 1.0:
            raise ValueError(
                f"val-fraction must be in (0, 1) with 1 - val-fraction < 1, "
                f"got {args.val_fraction!r}"
            )
        train_set, eval_set = split(records, 1.0 - args.val_fraction, seed=args.split_seed)
    if not train_set:
        raise ValueError("train split is empty")
    cfg = _train_config(args)
    head = init_head(train_set.d_img, train_set.d_txt, seed=args.init_seed)
    ckpt = train(cfg, train_set, eval_set, head)
    save_checkpoint(args.out, ckpt)
    with open(history_path, "w", encoding="utf-8") as handle:
        handle.write("epoch,lr,train_loss,eval_srcc,eval_plcc\n")
        handle.write(_csv_rows([dataclasses.astuple(row) for row in ckpt.history]))
    final = ckpt.history[-1]
    doc = {
        "preset": args.preset,
        "seed": cfg.seed,
        "init_seed": args.init_seed,
        "epochs": cfg.epochs,
        "train_n": len(train_set),
        "eval_n": len(eval_set),
        "final_srcc": final.eval_srcc,
        "final_plcc": final.eval_plcc,
        "checkpoint": str(args.out),
        "history": history_path,
    }
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    records = load_records(args.data)
    if len(records) < 2:
        raise ValueError(f"evaluation needs >= 2 records, got {len(records)}")
    preds = batch_scores(ckpt.head, records)
    overall_srcc, overall_plcc = evaluate(ckpt.head, records, preds)
    per_dim = evaluate_by_dim(ckpt.head, records, preds)
    doc = {
        "checkpoint": str(args.checkpoint),
        "n": len(records),
        "srcc": overall_srcc,
        "plcc": overall_plcc,
        "by_dim": {d: {"srcc": s, "plcc": p} for d, (s, p) in sorted(per_dim.items())},
    }
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------- fd-check

def cmd_fd_check(args) -> int:
    head_cfg = HeadConfig(
        k=args.k, activation=args.activation, agg_mode=args.agg, ablation=args.ablation
    )
    core._require_count("batch", args.batch, 2)
    init_seed, batch_seed = np.random.SeedSequence(args.seed).spawn(2)
    head = init_head(args.d_img, args.d_txt, head_cfg, seed=init_seed)
    rng = np.random.default_rng(batch_seed)
    x = draw_features(rng, args.batch, args.d_img, args.d_txt)
    preds = batch_scores(head, x)
    # targets sit a finite distance from the predictions so the absolute-error
    # kink stays outside the difference stencil
    offsets = rng.uniform(0.1, 1.0, size=args.batch) * rng.choice([-1.0, 1.0], size=args.batch)
    targets = preds + offsets
    report = fd_check(head, x, targets, step=args.step, tol=args.tol)
    doc = {
        "seed": args.seed,
        "k": args.k,
        "activation": args.activation,
        "agg": args.agg,
        "ablation": args.ablation,
        "batch": args.batch,
        "d_img": args.d_img,
        "d_txt": args.d_txt,
        "step": args.step,
        "tol": args.tol,
        "checked": report.checked,
        "skipped": report.skipped,
        "failures": report.failures,
        "max_rel_err": report.max_rel_err,
        "pass": report.failures == 0,
    }
    _emit(args, doc)
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrm",
        description="Arithmetic graded-response quality scoring toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("probe", cmd_probe, "evaluate one parameter set and report everything")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k", type=int, default=5)

    p = add("curves", cmd_curves, "emit grade-probability curves as CSV")
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--theta-min", type=float, default=None)
    p.add_argument("--theta-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--out", default=None, help="write the CSV to this path, not stdout")

    p = add("verify", cmd_verify, "randomized sweep of the model's guarantees")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=9)
    p.add_argument("--gamma-margin", type=float, default=10.0)
    p.add_argument(
        "--allow-sub-threshold",
        action="store_true",
        help="draw spacings below the guarantee and report (not fail on) "
        "non-unimodal instances",
    )

    p = add("synth", cmd_synth, "generate a synthetic dataset with a planted head")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--d-img", type=int, default=16)
    p.add_argument("--d-txt", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--planted-out", default=None, help="also save the planted head")

    p = add("train", cmd_train, "train a head on a record file")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data", default=None)
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true", help="min-max scores to [0,5]")
    p.add_argument("--preset", choices=PRESET_NAMES, default="paper")
    # one flag per TrainConfig field, read back by _train_config
    for f in dataclasses.fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None)
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--history-out", default=None)

    p = add("eval", cmd_eval, "score a checkpoint against a record file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = add("fd-check", cmd_fd_check, "finite-difference audit of the gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-img", type=int, default=16)
    p.add_argument("--d-txt", type=int, default=16)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--activation", choices=ACTIVATIONS, default="telu")
    p.add_argument("--agg", choices=AGG_MODES, default="linear")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # every seed flag is a count; train's --seed is None unless given
        for name, value in vars(args).items():
            if name.endswith("seed") and value is not None:
                core._require_count(name.replace("_", "-"), value, 0)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # one line, even where the message quotes a line break from the input
        print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
