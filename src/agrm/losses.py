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
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScoreBatch",
    "mae_loss",
    "plcc_loss",
    "total_loss",
    "srcc",
    "plcc_metric",
    "midranks",
    "PlccParts",
    "plcc_parts",
    "PLCC_EPSILON",
]

# added to each batch deviation so a constant batch standardizes to 0
PLCC_EPSILON = 1e-8


def _as_score_array(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ScoreBatch:
    """Predicted and target scores for one batch, aligned by position."""

    predicted: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "predicted", _as_score_array("predicted", self.predicted))
        object.__setattr__(self, "target", _as_score_array("target", self.target))
        if self.predicted.shape != self.target.shape:
            raise ValueError(
                f"predicted and target lengths differ: "
                f"{self.predicted.size} vs {self.target.size}"
            )

    def __len__(self) -> int:
        return self.predicted.size


def mae_loss(batch: ScoreBatch) -> float:
    """Mean absolute error between target and predicted scores."""
    return float(np.mean(np.abs(batch.target - batch.predicted)))


def plcc_loss(batch: ScoreBatch) -> float:
    """Correlation-shaping penalty on batch-standardized scores.

    Both score vectors are standardized with their batch mean and population
    standard deviation (``PLCC_EPSILON`` added to the deviation so constant
    batches stay finite).  With rho the mean product of the standardized
    vectors, the penalty averages ||qhat - that||^2 + ||rho * qhat - that||^2
    over the batch, so both terms are on the same scale.
    """
    if len(batch) < 2:
        raise ValueError(f"correlation penalty needs at least 2 scores, got {len(batch)}")
    return plcc_parts(batch.predicted, batch.target).value


class PlccParts(NamedTuple):
    """The correlation penalty and the batch statistics it is built from."""

    value: float
    sd: float  # population deviation of the predictions, before PLCC_EPSILON
    qhat: np.ndarray
    that: np.ndarray
    rho: float
    resid: np.ndarray  # rho * qhat - that, the second term's residual


def plcc_parts(q: np.ndarray, t: np.ndarray) -> PlccParts:
    """``plcc_loss`` on checked arrays, with the statistics its gradient reuses.

    Means and deviations are spelled out as ``np.mean`` and ``np.std``
    compute them (same values), without their per-call overhead.
    """
    n = q.size
    dq = q - q.sum() / n
    dt = t - t.sum() / n
    sd = math.sqrt((dq * dq).sum() / n)
    qhat = dq / (sd + PLCC_EPSILON)
    that = dt / (math.sqrt((dt * dt).sum() / n) + PLCC_EPSILON)
    rho = float((qhat * that).sum() / n)
    resid = rho * qhat - that
    first = float(((qhat - that) ** 2).sum())
    second = float((resid**2).sum())
    return PlccParts((first + second) / n, sd, qhat, that, rho, resid)


def total_loss(batch: ScoreBatch, lam: float = 1.0) -> float:
    """mae_loss + lam * plcc_loss."""
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam!r}")
    if lam == 0.0:
        # pure-MAE runs must work on batches of one
        return mae_loss(batch)
    return mae_loss(batch) + lam * plcc_loss(batch)


def midranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions."""
    x = _as_score_array("values", values)
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
    p = _as_score_array("predicted", predicted)
    t = _as_score_array("target", target)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.size} vs {t.size}")
    return _pearson(midranks(p), midranks(t), "srcc")


def plcc_metric(predicted, target) -> float:
    """Pearson linear correlation between raw scores."""
    p = _as_score_array("predicted", predicted)
    t = _as_score_array("target", target)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.size} vs {t.size}")
    return _pearson(p, t, "plcc")
