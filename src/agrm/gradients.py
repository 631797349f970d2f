"""Hand-derived reverse-mode gradients of the batch loss through the head.

The forward pass is the head's own, so training scores each item exactly as
``head_forward`` does.  The loss depends on each item's rescaled mean grade,
and the mean grade telescopes to 1 plus the sum of the k-1 cumulative curves,
so the per-item backward pass needs only each curve's logistic slope
s (1 - s).  Those slopes are read off the band masses the forward already
returned: s is the mass above a grade, 1 - s the mass at or below it, both
taken as cumulative sums of the masses.  The correlation penalty couples
items through the batch mean, batch deviation and the correlation
coefficient itself, and all three couplings are differentiated exactly.  The
absolute-error term uses subgradient 0 at an exact tie.

``fd_check`` validates the whole thing against central differences,
coordinate by coordinate.  Failures are reported in the result, not thrown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core, losses
from .head import (
    PARAM_FIELDS,
    FeaturePair,
    HeadParams,
    _act_deriv,
    _forward,
    grade_positions,
)

__all__ = ["GradReport", "batch_loss_and_grads", "fd_check"]

# Central differences across the relu kink measure a one-sided slope; any
# coordinate feeding a pre-activation this close to 0 is skipped.
RELU_KINK_MARGIN = 1e-3


@dataclass
class GradReport:
    """Loss, accumulated gradients, and bookkeeping from a batch pass.

    ``max_rel_err`` is populated by ``fd_check`` only.  ``gamma_violations``
    counts items whose spacing sat at or below the unimodality threshold.
    """

    loss: float
    grads: dict[str, np.ndarray]
    max_rel_err: float | None = None
    checked: int = 0
    skipped: int = 0
    failures: int = 0
    gamma_violations: int = 0


def _slopes(probs) -> np.ndarray:
    """Logistic slopes s_m (1 - s_m) of the k-1 cumulative curves.

    s_m is the mass above grade m and 1 - s_m the mass at or below it, each
    summed from the tail it covers so neither is a difference near 1.
    """
    p = np.fromiter(probs, dtype=np.float64, count=len(probs))
    below = np.cumsum(p[:-1])
    above = np.cumsum(p[:0:-1])[::-1]
    return below * above


def _zero_grads(hp: HeadParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(getattr(hp, name)) for name in PARAM_FIELDS}


def _loss_upstream(
    q: np.ndarray,
    t: np.ndarray,
    lam: float,
    epsilon: float,
    literal_target: bool,
) -> np.ndarray:
    """dL/dQ for the combined loss, exact through the batch statistics."""
    n = q.size
    u = np.sign(q - t) / n
    if lam == 0.0:
        return u
    mu, sd = q.mean(), q.std()
    qhat = (q - mu) / (sd + epsilon)
    that = (t - t.mean()) / (t.std() + epsilon)
    rho = float(np.mean(qhat * that))
    ref = t if literal_target else that
    r = rho * qhat - ref
    # adjoint w.r.t. the standardized predictions, including the rho coupling
    g = (2.0 / n) * ((qhat - that) + rho * r + (that / n) * float(r @ qhat))
    dplcc = (g - g.mean()) / (sd + epsilon)
    if sd > 0.0:
        # through the batch deviation itself
        dplcc -= (float(qhat @ g) / (n * sd)) * qhat
    return u + lam * dplcc


def batch_loss_and_grads(
    hp: HeadParams,
    pairs: Sequence[FeaturePair],
    targets,
    lam: float = 1.0,
    epsilon: float = 1e-8,
    literal_target: bool = False,
) -> GradReport:
    """Total loss over a batch and its gradient on every head parameter."""
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim != 1 or t.size != len(pairs):
        raise ValueError(f"targets shape {t.shape} does not match {len(pairs)} pairs")
    if lam > 0.0 and len(pairs) < 2:
        raise ValueError("the correlation penalty needs at least 2 items per batch")
    cfg = hp.config
    passes = [_forward(hp, fp) for fp in pairs]
    q = np.array([ps.out.q_rescaled for ps in passes])
    loss = losses.total_loss(losses.ScoreBatch(predicted=q, target=t), lam, epsilon, literal_target)
    upstream = _loss_upstream(q, t, lam, epsilon, literal_target)

    grads = _zero_grads(hp)
    c = cfg.d * cfg.alpha
    thr = core.gamma_threshold(cfg.d, cfg.alpha)
    violations = 0
    grade_idx = np.arange(cfg.k - 1, dtype=np.float64)  # d beta_m / d gamma
    pos = grade_positions(cfg.k)
    for ps, u in zip(passes, upstream):
        if ps.out.gamma <= thr:
            violations += 1
        sp = _slopes(ps.out.probs)
        uq = u * 5.0 / (cfg.k - 1)  # through the [1,k] -> [0,5] rescale
        total_slope = float(sp.sum())
        theta_bar = uq * c * total_slope
        beta1_bar = -uq * c * total_slope
        gamma_bar = -uq * c * float(grade_idx @ sp)

        db = beta1_bar * _act_deriv(cfg.activation, ps.pre_b)
        dg = gamma_bar * _act_deriv(cfg.activation, ps.pre_g)
        grads["phi_beta_w"] += db * ps.prior_in
        grads["phi_beta_b"] += db
        grads["phi_gamma_w"] += dg * ps.prior_in
        grads["phi_gamma_b"] += dg
        if cfg.ablation != "no_temperature":
            dtau = db + dg
            grads["phi_i_w"] += dtau * ps.temp_in
            grads["phi_i_b"] += dtau

        if cfg.agg_mode == "linear":
            grads["agg_w"] += theta_bar * ps.x
            grads["agg_b"] += theta_bar
        else:
            p = ps.softmax_p
            pbar = theta_bar * cfg.lambda_s * pos
            lbar = p * (pbar - float(pbar @ p))
            grads["agg_w"] += np.outer(lbar, ps.x)
            grads["agg_b"] += lbar

    return GradReport(loss=loss, grads=grads, gamma_violations=violations)


def _loss_only(
    hp: HeadParams,
    pairs: Sequence[FeaturePair],
    t: np.ndarray,
    lam: float,
    epsilon: float,
    literal_target: bool,
) -> float:
    q = np.array([_forward(hp, fp).out.q_rescaled for fp in pairs])
    return losses.total_loss(losses.ScoreBatch(predicted=q, target=t), lam, epsilon, literal_target)


def fd_check(
    hp: HeadParams,
    pairs: Sequence[FeaturePair],
    targets,
    step: float = 1e-4,
    tol: float = 1e-4,
    lam: float = 1.0,
    epsilon: float = 1e-8,
    literal_target: bool = False,
) -> GradReport:
    """Central-difference check of every gradient coordinate.

    Relative error per coordinate is |a - f| / max(|a|, |f|, 1e-12).  With the
    relu activation, coordinates feeding a pre-activation within
    ``RELU_KINK_MARGIN`` of the kink on any item are skipped rather than
    measured one-sided.  The returned report carries the analytic gradients,
    the worst relative error over checked coordinates, and how many
    coordinates were checked, skipped, and over ``tol``.
    """
    if step <= 0.0 or tol <= 0.0:
        raise ValueError("step and tol must be positive")
    t = np.asarray(targets, dtype=np.float64)
    base = batch_loss_and_grads(hp, pairs, t, lam, epsilon, literal_target)

    skip = {name: False for name in PARAM_FIELDS}
    if hp.config.activation == "relu":
        near_b = near_g = False
        for fp in pairs:
            ps = _forward(hp, fp)
            near_b = near_b or abs(ps.pre_b) < RELU_KINK_MARGIN
            near_g = near_g or abs(ps.pre_g) < RELU_KINK_MARGIN
        skip["phi_beta_w"] = skip["phi_beta_b"] = near_b
        skip["phi_gamma_w"] = skip["phi_gamma_b"] = near_g
        skip["phi_i_w"] = skip["phi_i_b"] = near_b or near_g

    work = hp.copy()
    max_rel = 0.0
    checked = skipped = failures = 0
    for name in PARAM_FIELDS:
        arr = getattr(work, name)
        flat = arr.reshape(-1)
        if skip[name]:
            skipped += flat.size
            continue
        analytic = base.grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = _loss_only(work, pairs, t, lam, epsilon, literal_target)
            flat[i] = orig - step
            lo = _loss_only(work, pairs, t, lam, epsilon, literal_target)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-12)
            max_rel = max(max_rel, rel)
            checked += 1
            if rel > tol:
                failures += 1

    return GradReport(
        loss=base.loss,
        grads=base.grads,
        max_rel_err=max_rel,
        checked=checked,
        skipped=skipped,
        failures=failures,
        gamma_violations=base.gamma_violations,
    )
