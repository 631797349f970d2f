"""Mini-batch training with decoupled weight decay and cosine annealing.

Everything here is deterministic: the shuffle stream is seeded from the
config, optimizer updates walk the parameter fields in declaration order,
and checkpoints serialize to canonical JSON, so one (seed, config, dataset)
triple maps to one byte sequence on disk.

The default ``TrainConfig`` is the reference fine-tuning protocol (lr 1e-5,
weight decay 1e-3, 100 epochs, batch 16, cosine period 5).  That rate suits
a backbone-sized model; the standalone head trained here underfits badly at
1e-5, so the ``recovery`` preset raises it for the synthetic ground-truth
recovery runs.  The rest of the protocol is fixed: the loss is MAE plus
lam times the standardized-target correlation penalty, the optimizer is
AdamW with ``ADAM_BETAS`` and ``ADAM_EPS``, and the cosine schedule restarts
every ``t_max`` epochs (SGDR).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import _is_count, _is_real, _require_count, _require_non_negative
from .data import as_records
from .gradients import _loss_and_grads
from .head import (
    PARAM_FIELDS,
    HeadConfig,
    HeadParams,
    batch_scores,
    feature_matrix,
)
from .losses import plcc_metric, srcc

__all__ = [
    "ADAM_BETAS",
    "ADAM_EPS",
    "CHECKPOINT_VERSION",
    "PRESET_NAMES",
    "TrainConfig",
    "EpochStats",
    "Checkpoint",
    "AdamState",
    "preset",
    "cosine_lr",
    "init_adam_state",
    "adamw_step",
    "train",
    "evaluate",
    "evaluate_by_dim",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 4

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; defaults follow the reference protocol.

    Each field has an ``agrm train`` flag of the same name.
    """

    lr: float = 1e-5
    weight_decay: float = 1e-3
    epochs: int = 100
    batch_size: int = 16
    t_max: int = 5
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # lr 0 is allowed as an explicit no-op (useful for dry runs)
        for name in ("lr", "weight_decay", "lam"):
            _require_non_negative(name, getattr(self, name))
        for name, lo in (("epochs", 1), ("batch_size", 2), ("t_max", 1), ("seed", 0)):
            _require_count(name, getattr(self, name), lo)


# the named configurations: ``paper`` (reference protocol), ``recovery``
_PRESETS = {"paper": TrainConfig(), "recovery": TrainConfig(lr=1e-3)}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> TrainConfig:
    """The configuration named ``name``, one of ``PRESET_NAMES``."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return _PRESETS[name]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    eval_srcc: float
    eval_plcc: float


@dataclass
class Checkpoint:
    """Trained head, its training config and per-epoch history.

    No optimizer moments or shuffle state are saved: a checkpoint can be
    audited and evaluated, not resumed.  ``seed`` repeats ``config.seed``
    after ``train``; a planted head saved by ``synth`` records the synthesis
    seed and has no history.
    """

    head: HeadParams
    config: TrainConfig
    history: list[EpochStats]
    seed: int

    def __post_init__(self):
        if len(self.history) > self.config.epochs:
            raise ValueError(
                f"history has {len(self.history)} rows for "
                f"{self.config.epochs} configured epochs"
            )

    @property
    def epochs_completed(self) -> int:
        """One history row per epoch run: 0 for a planted head."""
        return len(self.history)


def cosine_lr(epoch: int, base_lr: float, t_max: int) -> float:
    """Cosine-annealed rate with floor 0; restarts every ``t_max`` epochs."""
    _require_count("epoch", epoch, 0)
    _require_count("t_max", t_max, 1)
    return base_lr * (1.0 + math.cos(math.pi * (epoch % t_max) / t_max)) / 2.0


@dataclass
class AdamState:
    """First/second moment accumulators, flat like ``HeadParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam_state(head: HeadParams) -> AdamState:
    return AdamState(m=np.zeros_like(head.flat), v=np.zeros_like(head.flat))


def adamw_step(
    head: HeadParams,
    state: AdamState,
    grads: np.ndarray,
    lr: float,
    cfg: TrainConfig,
) -> None:
    """One in-place update: decay the weights first, then the adaptive step.

    ``grads`` is flat like ``head.flat`` (a ``GradReport.flat``); the update
    runs once over the flat weights and moments.
    """
    state.t += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    w, m, v, g = head.flat, state.m, state.v, grads
    if cfg.weight_decay != 0.0:
        w -= lr * cfg.weight_decay * w
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    w -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _require_finite(what: str, flat: np.ndarray, head: HeadParams) -> None:
    """Raise naming the field of the first non-finite entry of a flat vector."""
    bad = ~np.isfinite(flat)
    if bad.any():
        # fields come in flat order, so the first with a bad entry holds the first
        name = next(name for name, view in head.fields(bad).items() if view.any())
        raise ValueError(f"non-finite {what} in {name}")


def _train_step(
    head: HeadParams, opt: AdamState, grad, grads, x, t, lr: float, cfg: TrainConfig
) -> np.ndarray:
    """One optimizer step that stops at the first non-finite value; returns
    the batch's per-item loss terms.

    ``grad`` is the gradient vector ``train`` keeps for the whole run and
    ``grads`` its ``head.fields`` views; the step calls the unchecked
    ``gradients._loss_and_grads``, because ``train`` has checked its inputs
    once per run.  The loss is checked first.  Then, after the update, one
    screen covers the gradient, the updated weights and the second moment
    (the first place a huge but finite gradient overflows): the sum of all
    three is finite only when every entry is.  Only when that screen fails
    do the exact checks run, in that order, to name the first non-finite
    field.  A sum that overflows from finite entries fails the screen, and
    the exact checks behind it then pass.
    ``train`` ignores NumPy's overflow, invalid and underflow warnings
    around its steps: these checks report what the first two would, and
    underflow to 0 is no fault.
    """
    loss, item_losses = _loss_and_grads(head, x, t, cfg.lam, grads)
    if not math.isfinite(loss):
        raise ValueError(f"non-finite loss {loss!r}")
    adamw_step(head, opt, grad, lr, cfg)
    if not math.isfinite(np.add.reduce(np.concatenate((grad, head.flat, opt.v)))):
        _require_finite("gradient", grad, head)
        _require_finite("weight", head.flat, head)
        _require_finite("second moment", opt.v, head)
    return item_losses


def train(cfg: TrainConfig, train_set, eval_set, head_init: HeadParams) -> Checkpoint:
    """Run the full loop and return a checkpoint with per-epoch history.

    Each set is a ``data.Records`` or a sequence of its rows.  The caller's
    ``head_init`` is left untouched; the checkpoint owns a trained copy.
    Mini-batches follow a seeded shuffle each epoch, and a trailing batch is
    dropped only when it has a single item (the correlation penalty needs
    batch variance).  Each step takes its rows of a set's feature matrix
    ``x``.  The inputs are checked once per run, not once per step: the
    sets' features and scores are finite when built, their widths are
    checked against the head here, ``cfg`` checks ``lam``, and no batch has
    fewer than 2 items.  A step that goes non-finite stops training with a
    ``ValueError`` naming the epoch, the step and the first non-finite
    field, before any checkpoint exists.
    """
    train_set, eval_set = as_records(train_set), as_records(eval_set)
    if not train_set or not eval_set:
        raise ValueError("train and eval sets must be non-empty")
    if len(train_set) < cfg.batch_size:
        raise ValueError(
            f"train set has {len(train_set)} records, batch_size is {cfg.batch_size}"
        )
    if len(eval_set) < 2:
        raise ValueError(f"eval set needs >= 2 records, got {len(eval_set)}")

    head = head_init.copy()
    x_train, t_train = feature_matrix(head, train_set), train_set.mos
    x_eval, t_eval = feature_matrix(head, eval_set), eval_set.mos
    opt = init_adam_state(head)
    # one gradient vector for the run; every step overwrites what it uses
    grad = np.zeros(head.flat.shape)
    grads = head.fields(grad)
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.lr, cfg.t_max)
        perm = rng.permutation(len(train_set))
        # per-item loss terms, summed exactly at the end, so the epoch loss
        # does not depend on how the shuffle grouped the items
        item_losses = []
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for step, start in enumerate(range(0, perm.size, cfg.batch_size)):
                idx = perm[start : start + cfg.batch_size]
                if idx.size < 2:
                    continue
                try:
                    item_losses.append(
                        _train_step(head, opt, grad, grads, x_train[idx], t_train[idx], lr, cfg)
                    )
                except ValueError as exc:
                    raise ValueError(f"epoch {epoch}, step {step}: {exc}") from exc
        eval_srcc, eval_plcc = _correlations(batch_scores(head, x_eval), t_eval)
        item_losses = np.concatenate(item_losses)
        history.append(
            EpochStats(
                epoch=epoch,
                lr=lr,
                train_loss=math.fsum(item_losses) / item_losses.size,
                eval_srcc=eval_srcc,
                eval_plcc=eval_plcc,
            )
        )
    return Checkpoint(
        head=head,
        config=cfg,
        history=history,
        seed=cfg.seed,
    )


def _correlations(preds: np.ndarray, mos: np.ndarray) -> tuple:
    return srcc(preds, mos), plcc_metric(preds, mos)


def evaluate(head: HeadParams, records, preds=None) -> tuple:
    """Rank and linear correlation of head scores against recorded scores.

    ``preds``, when given, are the records' ``head.batch_scores``, reused
    instead of running the forward again.
    """
    records = as_records(records)
    if len(records) < 2:
        raise ValueError(f"evaluation needs >= 2 records, got {len(records)}")
    if preds is None:
        preds = batch_scores(head, records)
    return _correlations(preds, records.mos)


def evaluate_by_dim(head: HeadParams, records, preds=None) -> dict:
    """Per-dimension metrics; dimensions with fewer than 2 records are skipped.

    Every record is scored once by ``head.batch_scores`` (or ``preds`` is
    reused, as in ``evaluate``) and the scores are grouped by dimension.
    """
    records = as_records(records)
    groups = {dim: records.dim == dim for dim in dict.fromkeys(records.dim.tolist())}
    groups = {dim: sel for dim, sel in groups.items() if np.count_nonzero(sel) >= 2}
    if not groups:
        return {}
    if preds is None:
        preds = batch_scores(head, records)
    return {dim: _correlations(preds[sel], records.mos[sel]) for dim, sel in groups.items()}


def _head_to_doc(head: HeadParams) -> dict:
    return {
        "config": dataclasses.asdict(head.config),
        "d_img": head.d_img,
        "d_txt": head.d_txt,
        "params": {name: getattr(head, name).tolist() for name in PARAM_FIELDS},
    }


def _head_from_doc(doc: dict) -> HeadParams:
    arrays = {
        name: np.asarray(doc["params"][name], dtype=np.float64)
        for name in PARAM_FIELDS
    }
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"malformed checkpoint: head.params.{name} has non-finite entries")
    return HeadParams(
        config=HeadConfig(**doc["config"]),
        d_img=doc["d_img"],
        d_txt=doc["d_txt"],
        **arrays,
    )


def _history_row(i: int, row) -> EpochStats:
    """History row i of a checkpoint: epoch i and finite numbers."""
    stats = EpochStats(**row)
    if not (_is_count(stats.epoch) and stats.epoch == i):
        raise ValueError(f"malformed checkpoint: history[{i}].epoch is {stats.epoch!r}, not {i}")
    for f in dataclasses.fields(EpochStats)[1:]:
        v = getattr(stats, f.name)
        if not _is_real(v):
            raise ValueError(f"malformed checkpoint: history[{i}].{f.name} is {v!r}, not a finite number")
    return stats


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Canonical JSON (sorted keys, no whitespace): equal runs, equal bytes."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "train_config": dataclasses.asdict(ckpt.config),
        "head": _head_to_doc(ckpt.head),
        "history": [dataclasses.asdict(row) for row in ckpt.history],
        "rng": {"seed": ckpt.seed},
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "wb") as handle:
        handle.write(payload.encode("utf-8"))


def load_checkpoint(path) -> Checkpoint:
    """Read a ``save_checkpoint`` file; anything malformed is a ``ValueError``."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"malformed checkpoint: expected an object, got {type(doc).__name__}")
        version = doc.get("format_version")
        if not _is_count(version) or version != CHECKPOINT_VERSION:
            raise ValueError(f"unrecognized checkpoint format version {version!r}")
        config = TrainConfig(**doc["train_config"])
        history = [_history_row(i, row) for i, row in enumerate(doc["history"])]
        head = _head_from_doc(doc["head"])
        seed = doc["rng"]["seed"]
        if not _is_count(seed):
            raise ValueError(f"malformed checkpoint: rng.seed is {seed!r}, not an integer >= 0")
    # a deeply nested document exhausts the parser's recursion, and an
    # integer too large for a float overflows the numeric checks
    except (KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    return Checkpoint(
        head=head,
        config=config,
        history=history,
        seed=seed,
    )
