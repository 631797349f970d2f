"""Hand-derived reverse-mode gradients of the batch loss through the head.

The forward pass is the head's own batch forward, so training scores each
item exactly as ``head_forward`` does.  A batch is the (N, d) feature matrix
of ``head.feature_matrix``, one item per row, and the backward pass runs on
the same layout: every per-item quantity is an (N,) vector or an (N, k)
array, and each weight gradient is one reduction over the rows, such as
``theta_bar @ X`` for the linear ability map.  Each is written into its
field's view (``HeadParams.fields``) of one vector laid out like
``HeadParams.flat``, the vector the optimizer steps on and ``fd_check``
compares; no second copy of the layout exists.  ``batch_loss_and_grads`` is
the checked entry: it refuses bad features, targets and loss weights, then
runs ``_loss_and_grads``, the unchecked core, on a fresh zero vector.  The
trainer checks its inputs once per run and calls the core itself, with one
vector kept for the whole run.  Those reductions may go
through BLAS; only the forward needs row-by-row reductions (see
``head._rowdot``), because only its per-item results are compared bit for
bit.

The loss depends on each item's rescaled mean grade, and the mean grade
telescopes to 1 plus the sum of the k-1 cumulative curves, so the backward
pass needs only each curve's logistic slope s (1 - s).  Those slopes are read
off the band masses the forward already returned: s is the mass above a
grade, 1 - s the mass at or below it, both taken as cumulative sums of the
masses along each row.  The loss and its gradient with respect to each
item's score come from ``losses._loss_and_upstream``.

``fd_check`` validates the whole thing against central differences.  It
moves each checked weight by +step and by -step, stacks those 2P perturbed
weight vectors as rows of a (2P, F) array over the F flat weights, and
scores the whole stack through the forward and the loss alone, with no
Jacobian of the backward pass: ``head._forward`` takes the stack and gives a
(2P, N) grid of scores, and ``losses.total_loss_rows`` reduces it to 2P
losses.  Every reduction runs over the last axis, so each perturbed loss is
bitwise the loss of that one perturbed head.  The stack is built and scored
in chunks of at most ``FD_STACK_ELEMENTS`` (stack row, item, weight)
entries, which bounds memory for wide heads and large batches without
changing a bit.  Failures are reported in the result, not thrown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import losses
from .core import _SCALE, _finite_vector, _steps
from .head import (
    _ACTIVATION_FUNCS,
    FeaturePair,
    HeadParams,
    _difficulty,
    _forward,
    _inputs,
    feature_matrix,
    grade_positions,
)

__all__ = ["GradReport", "batch_loss_and_grads", "fd_check"]

# Central differences across the relu kink measure a one-sided slope; any
# coordinate feeding a pre-activation this close to 0 is skipped.
RELU_KINK_MARGIN = 1e-3

# Most (stack row, item, weight) triples fd_check scores in one stacked
# forward, so every temporary of a chunk, the softmax logits product
# (rows, N, k, d_txt + d_img) the largest, stays within this many float64
# entries (16 MiB) however wide the head or large the batch.  A chunk never
# holds less than one coordinate's two rows.
FD_STACK_ELEMENTS = 1 << 21


@dataclass
class GradReport:
    """Loss, accumulated gradients, and bookkeeping from a batch pass.

    ``flat`` is the gradient in the layout of ``HeadParams.flat``, and
    ``grads`` maps each field name to its view of ``flat`` (see
    ``HeadParams.fields``); ``fd_check`` reads ``flat``.  A
    change written into a ``grads`` entry in place reaches ``flat``, but an
    entry rebound to a new array does not.  ``flat`` is None in a report
    built without it.  ``max_rel_err``, ``checked``, ``skipped`` and
    ``failures`` are filled in by ``fd_check`` only.  ``item_losses`` (from
    ``batch_loss_and_grads``) are the per-item terms whose mean is ``loss``:
    each item's absolute error plus the batch's weighted correlation
    penalty.  Summed exactly, they give an epoch loss that does not depend
    on how the items were grouped into batches.  No spacing count is kept:
    with the head's fixed constants every spacing clears the unimodality
    threshold.
    """

    loss: float
    grads: dict[str, np.ndarray]
    max_rel_err: float | None = None
    checked: int = 0
    skipped: int = 0
    failures: int = 0
    item_losses: np.ndarray | None = None
    flat: np.ndarray | None = None


def _slopes(probs: np.ndarray) -> np.ndarray:
    """Logistic slopes s_m (1 - s_m) of the k-1 cumulative curves, (N, k-1).

    s_m is the mass above grade m and 1 - s_m the mass at or below it, each
    summed from the tail it covers so neither is a difference near 1.
    """
    below = probs[:, :-1].cumsum(axis=1)
    above = probs[:, :0:-1].cumsum(axis=1)[:, ::-1]
    return below * above


@np.errstate(under="ignore")
def batch_loss_and_grads(
    hp: HeadParams,
    pairs: Sequence[FeaturePair] | np.ndarray,
    targets,
    lam: float = 1.0,
) -> GradReport:
    """Total loss over a batch and its gradient on every head parameter.

    ``pairs`` is a sequence of feature pairs or their ``feature_matrix``.
    This is the checked entry: it refuses bad features, targets and ``lam``,
    then runs the unchecked ``_loss_and_grads`` with underflow ignored.
    The gradient is one zero vector shaped like ``hp.flat``, each field's
    gradient written into its ``hp.fields`` view; the report carries the
    vector as ``flat`` and the views as ``grads``.
    """
    x = feature_matrix(hp, pairs)
    n = x.shape[0]
    t = _finite_vector("targets", targets)
    if t.size != n:
        raise ValueError(f"targets shape {t.shape} does not match {n} pairs")
    losses._require_lam(lam, n)
    flat = np.zeros(hp.flat.shape)
    grads = hp.fields(flat)
    loss, item_losses = _loss_and_grads(hp, x, t, lam, grads)
    return GradReport(loss=loss, grads=grads, item_losses=item_losses, flat=flat)


def _loss_and_grads(
    hp: HeadParams, x: np.ndarray, t: np.ndarray, lam: float, grads: dict[str, np.ndarray]
) -> tuple[float, np.ndarray]:
    """The batch loss and per-item loss terms; the gradient goes into
    ``grads``, the ``hp.fields`` views of a vector shaped like ``hp.flat``.

    The unchecked core of ``batch_loss_and_grads``: ``x`` is an (N, d)
    feature matrix of the head's widths, ``t`` N finite targets, and ``lam``
    a loss weight the batch admits.  It runs under the caller's
    ``np.errstate``.  Each call overwrites every field's view in full,
    except the temperature map's under no_temperature, which it never
    writes; so a vector that starts at 0 can serve batch after batch.
    """
    cfg = hp.config
    fw = _forward(hp, x)
    loss, upstream, item_losses = losses._loss_and_upstream(fw.q_rescaled, t, lam)

    sp = _slopes(fw.probs)
    # through the [1,k] -> [0,5] rescale, then the curves' scale d * alpha
    uqc = upstream * 5.0 / (cfg.k - 1) * _SCALE
    theta_bar = uqc * np.add.reduce(sp, axis=1)
    beta1_bar = -theta_bar
    gamma_bar = -uqc * (sp @ _steps(cfg.k - 1))  # d beta_m / d gamma = m - 1

    # the derivative runs once on the forward's (2, N) stack [pre_b, pre_g]
    # (see HeadBatch), and one row-wise sum gives both bias gradients
    deriv = _ACTIVATION_FUNCS[cfg.activation][1](fw.pre_b.base)
    dbg = np.array((beta1_bar, gamma_bar)) * deriv
    db, dg = dbg
    prior_in, temp_in = _inputs(hp, x)
    grads["phi_beta_w"][...] = db @ prior_in
    grads["phi_gamma_w"][...] = dg @ prior_in
    grads["phi_beta_b"][...], grads["phi_gamma_b"][...] = np.add.reduce(dbg, axis=1)
    # without the temperature map its gradient stays 0
    if cfg.ablation != "no_temperature":
        dtau = db + dg
        grads["phi_i_w"][...] = dtau @ temp_in
        grads["phi_i_b"][...] = np.add.reduce(dtau)

    if cfg.agg_mode == "linear":
        grads["agg_w"][...] = theta_bar @ x
        grads["agg_b"][...] = np.add.reduce(theta_bar)
    else:
        p = fw.softmax_p
        pbar = (theta_bar * cfg.lambda_s)[:, None] * grade_positions(cfg.k)
        lbar = p * (pbar - (pbar * p).sum(axis=1, keepdims=True))
        grads["agg_w"][...] = lbar.T @ x
        grads["agg_b"][...] = lbar.sum(axis=0)

    return loss, item_losses


def _perturbed_losses(
    hp: HeadParams, x: np.ndarray, t: np.ndarray, lam: float, coords: np.ndarray, step: float
) -> np.ndarray:
    """Batch losses with flat weight ``coords[j]`` moved by +step (row 0, column
    j) or by -step (row 1), from stacked forwards of ``FD_STACK_ELEMENTS``
    entries at most; see the module docstring."""
    w = hp.flat
    per = max(1, FD_STACK_ELEMENTS // (2 * x.shape[0] * w.size))
    out = np.empty((2, coords.size))
    for start in range(0, coords.size, per):
        c = coords[start : start + per]
        r = np.arange(c.size)
        stack = np.tile(w, (2, c.size, 1))
        stack[0, r, c] = w[c] + step
        stack[1, r, c] = w[c] - step
        q = _forward(hp, x, stack.reshape(2 * c.size, w.size)).q_rescaled
        out[:, start : start + c.size] = losses.total_loss_rows(q, t, lam).reshape(2, c.size)
    return out


@np.errstate(under="ignore")
def fd_check(
    hp: HeadParams,
    pairs: Sequence[FeaturePair] | np.ndarray,
    targets,
    step: float = 1e-4,
    tol: float = 1e-4,
    lam: float = 1.0,
) -> GradReport:
    """Central-difference check of every gradient coordinate.

    Each coordinate's difference quotient comes from the loss with that one
    weight moved by +step and by -step, through the forward and the loss
    alone, never through the backward pass.  The 2P perturbed heads of the P
    checked coordinates are scored as one (2P, F) weight stack, in chunks of
    at most ``FD_STACK_ELEMENTS`` entries (``_perturbed_losses``).  Relative
    error per coordinate is |a - f| / max(|a|, |f|, 1e-12).  With the relu
    activation, coordinates feeding a pre-activation within
    ``RELU_KINK_MARGIN`` of the kink on any item are skipped rather than
    measured one-sided.  The returned report carries the analytic gradients,
    the worst relative error over checked coordinates, and how many
    coordinates were checked, skipped, and over ``tol``.  ``step`` and
    ``tol`` must be finite and positive.
    """
    for name, value in (("step", step), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    x = feature_matrix(hp, pairs)
    t = np.asarray(targets, dtype=np.float64)
    base = batch_loss_and_grads(hp, x, t, lam)

    skipped_at = np.zeros(hp.flat.shape, dtype=bool)
    if hp.config.activation == "relu":
        # the difficulty branch alone gives the pre-activations
        _, _, _, pre_b, pre_g, _, _ = _difficulty(hp, hp, x)
        near_b = bool(np.any(np.abs(pre_b) < RELU_KINK_MARGIN))
        near_g = bool(np.any(np.abs(pre_g) < RELU_KINK_MARGIN))
        skip = hp.fields(skipped_at)
        skip["phi_beta_w"][...] = skip["phi_beta_b"][...] = near_b
        skip["phi_gamma_w"][...] = skip["phi_gamma_b"][...] = near_g
        skip["phi_i_w"][...] = skip["phi_i_b"][...] = near_b or near_g

    coords = np.flatnonzero(~skipped_at)
    hi, lo = _perturbed_losses(hp, x, t, lam, coords, step)
    fd = (hi - lo) / (2.0 * step)
    a = base.flat[coords]
    rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-12)
    return GradReport(
        loss=base.loss,
        grads=base.grads,
        max_rel_err=float(rel.max(initial=0.0)),
        checked=int(coords.size),
        skipped=int(skipped_at.sum()),
        failures=int((rel > tol).sum()),
        flat=base.flat,
    )
