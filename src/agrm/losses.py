"""Score-fitting losses and agreement metrics for batches of ratings.

The training objective is mean absolute error plus a correlation penalty
computed on batch-standardized scores; evaluation uses Pearson correlation on
raw scores and on mid-ranks (Spearman).  Correlations on a constant vector
are undefined; these functions warn and return 0 instead of dividing by zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _finite_vector, _require_non_negative

__all__ = [
    "ScoreBatch",
    "mae_loss",
    "plcc_loss",
    "total_loss",
    "total_loss_rows",
    "srcc",
    "plcc_metric",
    "midranks",
    "PLCC_EPSILON",
]

# added to each batch deviation so a constant batch standardizes to 0
PLCC_EPSILON = 1e-8


def _require_lam(lam: float, n: int) -> None:
    """The loss weight rule for a batch of n scores: lam finite and >= 0,
    and at least 2 scores when the correlation penalty is on (lam > 0)."""
    _require_non_negative("lam", lam)
    if lam > 0.0 and n < 2:
        raise ValueError(f"the correlation penalty needs at least 2 scores, got {n}")


@dataclass(frozen=True)
class ScoreBatch:
    """Predicted and target scores for one batch, aligned by position."""

    predicted: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "predicted", _finite_vector("predicted", self.predicted))
        object.__setattr__(self, "target", _finite_vector("target", self.target))
        n, m = self.predicted.size, self.target.size
        if n != m:
            raise ValueError(f"predicted and target lengths differ: {n} vs {m}")

    def __len__(self) -> int:
        return self.predicted.size


def mae_loss(batch: ScoreBatch) -> float:
    """Mean absolute error between target and predicted scores."""
    return float(total_loss_rows(batch.predicted, batch.target, 0.0))


def plcc_loss(batch: ScoreBatch) -> float:
    """Correlation-shaping penalty on batch-standardized scores.

    Both score vectors are standardized with their batch mean and population
    standard deviation (``PLCC_EPSILON`` added to the deviation so constant
    batches stay finite).  With rho the mean product of the standardized
    vectors, the penalty averages ||qhat - that||^2 + ||rho * qhat - that||^2
    over the batch, so both terms are on the same scale.
    """
    _require_lam(1.0, len(batch))  # the penalty at weight 1
    return float(_plcc_parts(batch.predicted, batch.target)[0])


def _plcc_parts(q: np.ndarray, t: np.ndarray) -> tuple:
    """``plcc_loss`` of each row of a (..., N) prediction stack against the
    (N,) targets ``t``, unchecked, with the statistics its gradient reads.

    Returns (penalty, sd, qhat, that, rho, resid, diff): the batch deviation
    sd, the standardized scores qhat and that, their correlation rho,
    resid = rho * qhat - that and diff = qhat - that.  Every statistic is a
    sum over the last axis, so a row's values are bitwise those of the row
    alone; for one row, sd and rho are NumPy scalars.  Means and deviations
    are spelled out as ``np.mean`` and ``np.std`` compute them (same
    values), without their per-call overhead.
    """
    n = q.shape[-1]
    # each row's statistics spread over its items; a single row keeps them
    # scalars, which broadcast faster than (1,) arrays
    spread = (..., None) if q.ndim > 1 else ()
    dq = q - (np.add.reduce(q, axis=-1) / n)[spread]
    dt = t - np.add.reduce(t) / n
    sd = np.sqrt(np.add.reduce(dq * dq, axis=-1) / n)
    qhat = dq / (sd + PLCC_EPSILON)[spread]
    that = dt / (math.sqrt(np.add.reduce(dt * dt) / n) + PLCC_EPSILON)
    rho = np.add.reduce(qhat * that, axis=-1) / n
    resid = rho[spread] * qhat - that
    diff = qhat - that
    penalty = (np.add.reduce(diff * diff, axis=-1) + np.add.reduce(resid * resid, axis=-1)) / n
    return penalty, sd, qhat, that, rho, resid, diff


def total_loss_rows(q: np.ndarray, t: np.ndarray, lam: float) -> np.ndarray:
    """``total_loss`` of each row of a (..., N) prediction stack against the
    (N,) targets ``t``, reduced over the last axis; unchecked."""
    loss = np.abs(t - q).sum(axis=-1) / q.shape[-1]
    if lam == 0.0:
        return loss
    return loss + lam * _plcc_parts(q, t)[0]


def _loss_and_upstream(
    q: np.ndarray, t: np.ndarray, lam: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """``total_loss`` of one batch of scores, dL/dq and the per-item loss
    terms whose mean is the loss: each item's absolute error plus the
    batch's weighted penalty; unchecked.

    The penalty couples items through the batch mean, the batch deviation
    and rho itself, and all three couplings are differentiated exactly, from
    the statistics ``_plcc_parts`` computes the penalty from, so the loss is
    bitwise ``total_loss_rows``.  The absolute-error term uses subgradient
    0 at an exact tie.
    """
    n = q.size
    err = q - t
    abs_err = np.abs(err)
    loss = float(np.add.reduce(abs_err)) / n
    u = np.sign(err) / n
    if lam == 0.0:
        return loss, u, abs_err
    value, sd, qhat, that, rho, resid, diff = _plcc_parts(q, t)
    penalty = lam * float(value)
    # adjoint w.r.t. the standardized predictions, including the rho coupling
    g = (2.0 / n) * (diff + rho * resid + (that / n) * float(resid @ qhat))
    dplcc = (g - float(np.add.reduce(g)) / n) / (sd + PLCC_EPSILON)
    if sd > 0.0:
        # through the batch deviation itself
        dplcc -= (float(qhat @ g) / (n * sd)) * qhat
    return loss + penalty, u + lam * dplcc, abs_err + penalty


def total_loss(batch: ScoreBatch, lam: float = 1.0) -> float:
    """mae_loss + lam * plcc_loss."""
    _require_lam(lam, len(batch))
    return float(total_loss_rows(batch.predicted, batch.target, lam))


def midranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions."""
    x = _finite_vector("values", values)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts_run = np.empty(x.size, dtype=bool)
    starts_run[0] = True
    np.not_equal(xs[1:], xs[:-1], out=starts_run[1:])
    first = np.flatnonzero(starts_run)  # 0-based first position of each tie run
    last = np.append(first[1:], x.size) - 1  # and its last
    ranks = np.empty(x.size, dtype=np.float64)
    # positions first..last share the value; mean 1-based rank
    ranks[order] = ((first + last) / 2.0 + 1.0)[np.cumsum(starts_run) - 1]
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray, what: str) -> float:
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt(np.dot(da, da)))
    nb = float(np.sqrt(np.dot(db, db)))
    if na == 0.0 or nb == 0.0:
        warnings.warn(
            f"constant input to {what}; correlation undefined, returning 0",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.0
    r = float(np.dot(da, db) / (na * nb))
    return max(-1.0, min(1.0, r))


def srcc(predicted, target) -> float:
    """Spearman rank correlation: Pearson on mid-ranks."""
    b = ScoreBatch(predicted, target)
    return _pearson(midranks(b.predicted), midranks(b.target), "srcc")


def plcc_metric(predicted, target) -> float:
    """Pearson linear correlation between raw scores."""
    b = ScoreBatch(predicted, target)
    return _pearson(b.predicted, b.target, "plcc")
