"""Hand-derived reverse-mode gradients of the batch loss through the head.

The forward pass is the head's own batch forward, so training scores each
item exactly as ``head_forward`` does.  A batch is the (N, d) feature matrix
of ``head.feature_matrix``, one item per row.  Every per-item quantity of
the backward pass is an (N,) vector or, like the head's tail, a grade-first
(k, N) array read through the ``.T`` of the forward's (N, k) views: the
slopes and the softmax adjoint take their sums over the grades in
``core._grade_sum``'s order, NumPy's own over a row.  Two reductions keep
a C-ordered (N, k-1) or (N, k) operand, because a transposed view changes
their bits: the slopes' product with the threshold steps, and the ability
unit's weight and bias gradients, which read its adjoint as C-ordered
(N, k).  The backward walks the head's unit table (``head._unit_table``)
and names no field: each unit gets its adjoint, (N,) or (N, k), and its
weight gradient is ``adjoint.T @ input`` over the columns the table names,
its bias gradient the adjoint summed over the rows; a unit the ablation
drops keeps a zero gradient.  Each unit's gradients are written into its
run (``head._Unit``) of one vector laid out like ``HeadParams.flat``, the
vector the optimizer steps on and ``fd_check`` compares; the table's runs
are the only record of the layout.  ``batch_loss_and_grads`` is
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
masses over the grades.  The loss and its gradient with respect to each
item's score come from ``losses._loss_and_upstream``.

``fd_check`` validates the whole thing against central differences.  It
runs the base forward once, for the loss, the gradient and the relu kink
mask, then moves each checked weight by +step and by -step and scores those
2P perturbed heads through the forward and the loss alone, with no
Jacobian of the backward pass.  A moved weight feeds one pre-activation
unit, so ``head._moved_scores`` starts each perturbed head from the base
forward's units and recomputes only that unit, giving a (2P, N) grid of
scores that ``losses.total_loss_rows`` reduces to 2P losses.  Every
reduction runs over the last axis, so each perturbed loss is bitwise the
loss of that one perturbed head.  The heads are scored in chunks of at most
``FD_CHUNK_ELEMENTS`` entries, and the base forward computes its units a
block of rows at a time (``head._units``), so memory stays bounded for wide
heads and large batches alike without changing a bit: beside the features,
the base pass holds the (N, k) arrays the backward reads, and a 128 + 128
softmax k = 9 check over 4000 items peaks at 19.7 MiB under
``tracemalloc``, against 79.4 MiB with an unblocked base forward.  Failures are reported in the result, not
thrown; a step so large that some perturbed head leaves the float range is
refused, naming the moved weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import losses
from .core import _SCALE, _finite_vector, _grade_sum, _steps
from .head import (
    _ACTIVATION_FUNCS,
    FeaturePair,
    HeadBatch,
    HeadParams,
    _forward,
    _moved_elements,
    _moved_scores,
    feature_matrix,
    grade_positions,
)

__all__ = ["GradReport", "batch_loss_and_grads", "fd_check"]

# Central differences across the relu kink measure a one-sided slope; any
# coordinate feeding a pre-activation this close to 0 is skipped.
RELU_KINK_MARGIN = 1e-3

# Most float64 entries (16 MiB) one chunk of fd_check's moved heads holds,
# however wide the head or large the batch: each head's moved weight row, its
# copy of the base units and the tail's temporaries, counted together
# (``head._moved_elements``), with one block of ``head.BLOCK_ELEMENTS`` unit
# products on top.  A chunk never holds less than one coordinate's two heads.
FD_CHUNK_ELEMENTS = 1 << 21


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
    """Logistic slopes s_m (1 - s_m) of the k-1 cumulative curves, (k-1, N),
    from the grade-first (k, N) masses.

    s_m is the mass above grade m and 1 - s_m the mass at or below it, each
    summed from the tail it covers so neither is a difference near 1.
    """
    below = probs[:-1].cumsum(axis=0)
    above = probs[:0:-1].cumsum(axis=0)[::-1]
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
    The gradient is one zero vector shaped like ``hp.flat``, each unit's
    gradient written into its run; the report carries the vector as
    ``flat`` and its ``hp.fields`` views as ``grads``.
    """
    return _checked_pass(hp, pairs, targets, lam)[-1]


def _checked_pass(
    hp: HeadParams, pairs, targets, lam: float
) -> tuple[np.ndarray, np.ndarray, HeadBatch, GradReport]:
    """``batch_loss_and_grads`` with what it computes on the way: the
    feature matrix, the targets and the forward, then the report."""
    x = feature_matrix(hp, pairs)
    n = x.shape[0]
    t = _finite_vector("targets", targets)
    if t.size != n:
        raise ValueError(f"targets shape {t.shape} does not match {n} pairs")
    losses._require_lam(lam, n)
    fw = _forward(hp, x)
    flat = np.zeros(hp.flat.shape)
    loss, item_losses = _loss_and_grads(hp, x, t, lam, flat, fw)
    report = GradReport(loss=loss, grads=hp.fields(flat), item_losses=item_losses, flat=flat)
    return x, t, fw, report


def _loss_and_grads(
    hp: HeadParams, x: np.ndarray, t: np.ndarray, lam: float, grad: np.ndarray,
    fw: HeadBatch | None = None,
) -> tuple[float, np.ndarray]:
    """The batch loss and per-item loss terms; the gradient goes into
    ``grad``, a vector shaped like ``hp.flat``, each unit's into its run.

    The unchecked core of ``batch_loss_and_grads``: ``x`` is an (N, d)
    feature matrix of the head's widths, ``t`` N finite targets, and ``lam``
    a loss weight the batch admits.  It runs under the caller's
    ``np.errstate``.  Each call overwrites every unit's run in full, except
    that of a unit the ablation drops (the temperature map under
    no_temperature), which it never writes; so a vector that starts at 0
    can serve batch after batch.
    ``fw`` is ``_forward(hp, x)`` when the caller has run it already.
    """
    cfg = hp.config
    if fw is None:
        fw = _forward(hp, x)
    loss, upstream, item_losses = losses._loss_and_upstream(fw.q_rescaled, t, lam)

    sp = _slopes(fw.probs.T)
    # through the [1,k] -> [0,5] rescale, then the curves' scale d * alpha
    uqc = upstream * 5.0 / (cfg.k - 1) * _SCALE
    theta_bar = uqc * _grade_sum(sp)
    beta1_bar = -theta_bar
    # d beta_m / d gamma = m - 1; the product keeps its (N, k-1) operand
    gamma_bar = -uqc * (np.ascontiguousarray(sp.T) @ _steps(cfg.k - 1))

    # the derivative runs once on the forward's (2, N) stack [pre_b, pre_g]
    # (see HeadBatch)
    deriv = _ACTIVATION_FUNCS[cfg.activation][1](fw.pre_b.base)
    db, dg = np.array((beta1_bar, gamma_bar)) * deriv
    # the ability unit's adjoint: theta's, or the grade logits' under softmax
    if cfg.agg_mode == "linear":
        ability_bar = theta_bar
    else:
        p = fw.softmax_p.T
        pbar = ((theta_bar * cfg.lambda_s)[:, None] * grade_positions(cfg.k)).T
        ability_bar = np.ascontiguousarray((p * (pbar - _grade_sum(pbar * p))).T)
    # each unit's adjoint, in the unit table's order: the shift feeds both
    # activation inputs; a dropped unit's gradient stays 0
    for unit, bar in zip(hp._table, (ability_bar, db, dg, db + dg)):
        if unit.columns is not None:
            grad[unit.start : unit.mid] = (bar.T @ x[:, unit.columns]).ravel()
            grad[unit.mid : unit.stop] = np.add.reduce(bar, axis=0)

    return loss, item_losses


def _flat_name(hp: HeadParams, c: int) -> str:
    """Flat weight ``c`` by its field name and its index in the field."""
    unit = next(u for u in hp._table if c < u.stop)
    name, start, _, shape = unit.runs()[0 if c < unit.mid else 1]
    index = np.unravel_index(c - start, shape)
    return name + (f"[{', '.join(map(str, index))}]" if shape else "")


def _perturbed_losses(
    hp: HeadParams, x: np.ndarray, t: np.ndarray, lam: float, coords: np.ndarray, step: float,
    base: HeadBatch,
) -> np.ndarray:
    """Batch losses with flat weight ``coords[j]`` moved by +step (row 0,
    column j) or by -step (row 1), for ascending ``coords``; ``base`` is
    ``_forward(hp, x)``.  The moved heads are scored by
    ``head._moved_scores`` in chunks of at most ``FD_CHUNK_ELEMENTS``
    entries; see the module docstring.  A moved head the forward refuses is
    refused here, naming the step and the moved weight."""
    per = max(1, FD_CHUNK_ELEMENTS // (2 * _moved_elements(hp, x.shape[0])))
    out = np.empty((coords.size, 2))
    for start in range(0, coords.size, per):
        # each coordinate's two heads side by side: +step, then -step
        c = np.repeat(coords[start : start + per], 2)
        d = np.empty(c.size)
        d[0::2], d[1::2] = step, -step
        try:
            q = _moved_scores(hp, x, base, c, d)
        except ValueError:
            # name the first moved head the forward refuses, with its row of x
            for r in range(c.size):
                try:
                    _moved_scores(hp, x, base, c[r : r + 1], d[r : r + 1])
                except ValueError as exc:
                    moved = f"{_flat_name(hp, c[r])} moved by {'+' if d[r] > 0.0 else '-'}step"
                    raise ValueError(f"step {step!r} with {moved}: {exc}") from None
            raise
        out[start : start + per] = losses.total_loss_rows(q, t, lam).reshape(-1, 2)
    return out.T


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
    alone, never through the backward pass.  The base forward runs once
    and serves the loss, the gradient, the relu kink mask and the 2P
    perturbed heads of the P checked coordinates, which recompute only the
    unit their weight feeds (``_perturbed_losses``).  Relative error per
    coordinate is |a - f| / max(|a|, |f|, 1e-12).  With the relu
    activation, coordinates feeding a pre-activation within
    ``RELU_KINK_MARGIN`` of the kink on any item are skipped rather than
    measured one-sided.  The returned report carries the analytic gradients,
    the worst relative error over checked coordinates, and how many
    coordinates were checked, skipped, and over ``tol``.  ``step`` and
    ``tol`` must be finite and positive, and a step that moves some head
    past the forward's checks is refused, naming the moved weight.
    """
    for name, value in (("step", step), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    x, t, fw, base = _checked_pass(hp, pairs, targets, lam)

    skipped_at = np.zeros(hp.flat.shape, dtype=bool)
    if hp.config.activation == "relu":
        near_b, near_g = np.any(np.abs(fw.pre_b.base) < RELU_KINK_MARGIN, axis=1)
        # a unit is skipped whole when an activation input it feeds is near
        # the kink: the ability unit feeds none, the shift both
        for unit, near in zip(hp._table, (False, near_b, near_g, near_b | near_g)):
            skipped_at[unit.start : unit.stop] = near

    coords = np.flatnonzero(~skipped_at)
    hi, lo = _perturbed_losses(hp, x, t, lam, coords, step, fw)
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
