"""Scoring head: image/text feature pairs to grade distributions and scores.

The head splits into two branches.  The ability branch aggregates the
concatenated text and image features into a scalar ability, either through a
plain affine map or through per-grade logits whose softmax expectation over
normalized grade positions is scaled by ``lambda_s``.  The difficulty branch
maps the text features to a base-difficulty prior and a spacing prior, maps
the image features to a shared temperature shift, adds the shift to both
priors, and pushes each sum through the configured activation; the spacing
additionally gets a constant offset ``eta``.  Ability and difficulty then
feed the arithmetic graded response model.

``d``, ``alpha``, ``lambda_s`` and ``eta`` are the published constants,
read from ``HeadConfig`` (the first two are ``core``'s).  With them the
spacing can never drop below ``eta`` plus the activation's greatest lower
bound: 1.2 - 0.3533 = 0.847 for telu and 1.2 for sigmoid, relu and softplus.  Both clear the unimodality
threshold ``2 ln2 / (d * alpha)`` = 0.815, so every input gets a unimodal
grade distribution and the forward needs no spacing check of its own.

The forward runs on a batch: an (N, d_txt + d_img) feature matrix whose row
i is item i's text features followed by its image features
(``feature_matrix``), giving (N,) vectors of abilities, priors and spacings
and the grade masses (``core.agrm_probs_batch``), gathered in a
``HeadBatch``.  The tail holds every per-grade array grade first, (k, N),
so each reduction over the grades (the softmax's sum and expectation, the
mass check, the mean grade) adds whole rows of N items below 8 grades, in
the order NumPy adds a row's k entries (``core._grade_sum``); ``HeadBatch``
shows the masses and the softmax as (N, k) transposed views.
``head_forward`` is the one-row case: it returns row 0 of every
``HeadBatch`` field.  Every per-row dot product is a
multiply and a sum over the row (``_rowdot``), not a BLAS matmul: BLAS
blocks its work by the number of rows, so a matmul can give a row a
different last bit in a different batch, while the row-wise sum cannot.
That keeps each item's score bitwise the same whether it is scored alone,
in a training batch or in an evaluation set.  The mean grade q is a
compensated row sum (``core.expected_score_batch``), within an ulp of the
correctly rounded ``core.expected_score``.

``forward_blocks`` streams its N rows in blocks of ``_block_rows`` rows, so
no temporary holds more than ``BLOCK_ELEMENTS`` = 2^17 entries (1 MiB of
float64) however large N is; the widest is the (rows, k, d_txt + d_img)
logit product under softmax.  It yields each block's rows with their
``HeadBatch``, and since every reduction stays within one item, the blocks
concatenated are the bits of one pass over the whole input.  A caller keeps
what it reads of each block and nothing more: ``batch_scores`` keeps the
rescaled scores, which is all the package's scoring callers read, and a
per-block reduction keeps no N-sized output at all.  At N = 100 000 with
16 + 16 features (``tracemalloc``, 2-core x86-64 VM, NumPy 2.4) a softmax
k = 9 head streamed with nothing kept peaks at 1.2 MiB, and ``batch_scores``
at 2.0 MiB for 0.8 MiB of scores, against 226.6 MiB for one unblocked pass;
under linear the two read 1.8 MiB and 2.5 MiB, against 27.5 MiB.  A
refusal names its row of the whole input, not of its block.  Training and
``gradients.fd_check`` call ``_forward`` directly on their whole batch,
whose units are bounded the same way (below).

The forward runs in two stages.  ``_units`` gives the four affine
pre-activation units, each a dot product over its feature columns plus a
bias: the ability (or the k grade logits under softmax), the
base-difficulty prior, the spacing prior and the temperature shift.  The
tail (``_ability``, ``_activate``, ``_grades``) turns units into scores:
the softmax, the activation, the band kernel, the mean grade and the
rescale.  The unit table (``_unit_table``, built once per ``HeadParams``) is
the one home of the mapping from units to fields and columns and of the
flat layout: each unit's weight and bias fields, the weight's shape, the
columns the head's ablation feeds it, and its run of ``flat``, the weight
at ``start:mid`` and the bias at ``mid:stop``.  ``HeadParams.fields``
reads the runs to view any array laid out like ``flat`` as the fields.
The forward, the backward (``gradients._loss_and_grads``, which writes each
unit's gradient into its run), the moved heads, ``fd_check``'s relu mask
and ``gradients._flat_name`` all walk it, unit by unit.  ``_units`` takes
its rows a block of ``_block_rows`` at a time, as ``forward_blocks`` does,
so a training or gradient-check batch of any size never holds its
(N, k, d_txt + d_img) logit products either.

A flat weight feeds exactly one unit, so ``_moved_scores`` scores R heads
that each differ from ``hp`` in one flat weight from the base forward's
units: each head starts from a copy of the four base units, takes in its
moved unit, recomputed as one dot product over that unit's columns, and
the forward's own tail runs over all R * N rows at once.  Under softmax a
moved weight then costs N * fan-in products, against
N * k * (d_txt + d_img) for a whole forward.  Every reduction stays within
one item, so row r is bitwise the forward of that one moved head.
``gradients.fd_check`` scores its perturbed heads this way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import core

__all__ = [
    "ACTIVATIONS",
    "AGG_MODES",
    "ABLATIONS",
    "TELU_MIN",
    "TELU_ARGMIN",
    "FeaturePair",
    "HeadConfig",
    "HeadParams",
    "telu",
    "head_forward",
    "forward_blocks",
    "batch_scores",
    "feature_matrix",
    "HeadBatch",
    "init_head",
]

AGG_MODES = ("linear", "softmax")
# "image_only" feeds the image features to the difficulty priors,
# "text_only" feeds the text features to the temperature map,
# "no_temperature" drops the temperature shift entirely.
ABLATIONS = ("none", "image_only", "text_only", "no_temperature")

# Global minimum of x * tanh(e^x), attained near x = -1.07886.
TELU_MIN = -0.35328577784821125
TELU_ARGMIN = -1.0788600584646242

# Most entries (1 MiB of float64) in any temporary of one block of
# ``forward_blocks`` or of ``_units``, in one block of
# ``data.draw_features``'s swap, and in one block of ``_moved_scores``'s
# unit products.
BLOCK_ELEMENTS = 1 << 17


def telu(x):
    """x * tanh(e^x); linear for large x, vanishing for very negative x.

    Works element-wise on arrays; scalars come back as NumPy scalars.
    Above x = 20 it is x itself: the exponent is capped there so e^x cannot
    overflow, and tanh(e^20) is exactly 1.0 in double precision.
    """
    x = np.asarray(x, dtype=np.float64)
    return (x * np.tanh(np.exp(np.minimum(x, 20.0))))[()]


def _telu_deriv(x: np.ndarray) -> np.ndarray:
    # above 20, t == 1.0 exactly, so this is exactly 1.0 as the slope of x
    e = np.exp(np.minimum(x, 20.0))
    t = np.tanh(e)
    return t + x * (1.0 - t * t) * e


def _sigmoid_deriv(x: np.ndarray) -> np.ndarray:
    s = core.sigmoid_array(x)
    return s * (1.0 - s)


# each activation's (value, derivative), both element-wise on arrays
_ACTIVATION_FUNCS = {
    "telu": (telu, _telu_deriv),
    "sigmoid": (core.sigmoid_array, _sigmoid_deriv),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0) * 1.0),
    "softplus": (core.softplus_array, core.sigmoid_array),
}
ACTIVATIONS = tuple(_ACTIVATION_FUNCS)


@dataclass(frozen=True)
class FeaturePair:
    """One item's image feature vector and text feature vector."""

    f_i: np.ndarray
    f_t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f_i", core._finite_vector("f_i", self.f_i))
        object.__setattr__(self, "f_t", core._finite_vector("f_t", self.f_t))


@dataclass(frozen=True)
class HeadConfig:
    """Architecture choices: grade count, activation, aggregation, ablation.

    The curve scale ``d`` and discrimination ``alpha`` (``core.D`` and
    ``core.ALPHA``), softmax ability scale ``lambda_s`` and spacing offset
    ``eta`` are the published constants, fixed rather than configured: with
    them every activation keeps the spacing above the unimodality threshold
    (see the module docstring).
    """

    d: ClassVar[float] = core.D
    alpha: ClassVar[float] = core.ALPHA
    lambda_s: ClassVar[float] = 10.0
    eta: ClassVar[float] = 1.2

    k: int = 5
    activation: str = "telu"
    agg_mode: str = "linear"
    ablation: str = "none"

    def __post_init__(self):
        core._require_count("k", self.k, 2)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.agg_mode not in AGG_MODES:
            raise ValueError(f"agg_mode must be one of {AGG_MODES}, got {self.agg_mode!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


def _require_dims(d_img, d_txt) -> None:
    """The feature width rule: the count rule at 1, for the image width and
    the text width."""
    if not (core._is_count(d_img, 1) and core._is_count(d_txt, 1)):
        raise ValueError(f"feature dims must be >= 1, got ({d_img!r}, {d_txt!r})")


# each pre-activation unit as its (weight field, bias field), in ``flat``'s
# order: the ability (or the k grade logits), the base-difficulty prior, the
# spacing prior and the temperature shift.  A unit's weight is followed by
# its bias, so each unit owns one run of ``flat``.
_UNITS = (
    ("agg_w", "agg_b"),
    ("phi_beta_w", "phi_beta_b"),
    ("phi_gamma_w", "phi_gamma_b"),
    ("phi_i_w", "phi_i_b"),
)
# the learnable fields in ``flat``'s order, the same for every configuration:
# the order of the initialization draws and of ``HeadParams.flat``
PARAM_FIELDS = sum(_UNITS, ())


class _Unit(NamedTuple):
    """One unit of the unit table: its weight and bias fields, the weight's
    shape (the unit's outputs, then its fan-in; the bias is the outputs),
    the feature columns the weight reads, None for a unit the ablation
    drops, whose output is 0, and the unit's run of ``flat``: the weight at
    ``start:mid``, the bias at ``mid:stop``."""

    weight: str
    bias: str
    shape: tuple[int, ...]
    columns: slice | None
    start: int
    mid: int
    stop: int

    def runs(self):
        """(field, run start, run stop, shape) of the weight, then the bias."""
        w, b = self.shape, self.shape[:-1]
        return (self.weight, self.start, self.mid, w), (self.bias, self.mid, self.stop, b)


def _unit_table(cfg: HeadConfig, d_img: int, d_txt: int) -> tuple[_Unit, ...]:
    """The units of ``_UNITS`` at the head's widths, under its ablation,
    their runs laid end to end in ``PARAM_FIELDS`` order.

    The ability unit reads every column of the feature matrix, the prior
    maps the text columns (the image columns under image_only) and the
    temperature map the image columns (the text columns under text_only);
    under no_temperature the temperature map is dropped, its weight keeping
    its width.  This is the one place the ablation's columns are chosen.
    """
    n = d_txt + d_img
    f_t, f_i = slice(0, d_txt), slice(d_txt, n)
    prior = f_i if cfg.ablation == "image_only" else f_t
    temp = f_t if cfg.ablation == "text_only" else f_i
    agg = (n,) if cfg.agg_mode == "linear" else (cfg.k, n)
    shapes = [agg] + [(c.stop - c.start,) for c in (prior, prior, temp)]
    columns = (slice(0, n), prior, prior, None if cfg.ablation == "no_temperature" else temp)
    table, start = [], 0
    for names, shape, c in zip(_UNITS, shapes, columns):
        mid = start + math.prod(shape)
        table.append(_Unit(*names, shape, c, start, mid, mid + math.prod(shape[:-1])))
        start = table[-1].stop
    return tuple(table)


@dataclass
class HeadParams:
    """All learnable weights plus the architecture they belong to.

    Shapes: with n = d_txt + d_img, ``agg_w`` is (n,) in linear mode and
    (k, n) in softmax mode, ``agg_b`` () or (k,); the widths of the prior
    and temperature maps follow the ablation (see ``_unit_table``).  The fields
    are views into one flat vector, ``flat``, each at its run in the unit
    table, the one home of the flat layout, so an in-place update of either
    is an update of both; never rebind a field.
    Instances are mutated only by the trainer; treat them as read-only
    elsewhere.
    """

    config: HeadConfig
    d_img: int
    d_txt: int
    agg_w: np.ndarray
    agg_b: np.ndarray
    phi_beta_w: np.ndarray
    phi_beta_b: np.ndarray
    phi_gamma_w: np.ndarray
    phi_gamma_b: np.ndarray
    phi_i_w: np.ndarray
    phi_i_b: np.ndarray

    def __post_init__(self):
        _require_dims(self.d_img, self.d_txt)
        # the unit table every forward and backward reads, built once
        self._table = _unit_table(self.config, self.d_img, self.d_txt)
        # every shape is compared before anything is allocated, so widths
        # that do not match the weights cannot ask for a huge flat vector
        parts = []
        for name, _, _, shape in (f for u in self._table for f in u.runs()):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape}, expected {shape}")
            parts.append(arr.ravel())
        self._flat = np.concatenate(parts)
        vars(self).update(self.fields(self._flat))

    @property
    def flat(self) -> np.ndarray:
        """Every weight in one vector, ``PARAM_FIELDS`` order; the fields view it."""
        return self._flat

    def fields(self, arr: np.ndarray) -> dict[str, np.ndarray]:
        """Views of ``arr``, whose last axis is laid out like ``flat``: one per
        field, in ``PARAM_FIELDS`` order, shaped ``arr.shape[:-1]`` followed by
        the field's own shape, at the field's run in the unit table, the one
        home of the layout.  Writing a field's view writes ``arr``."""
        return {
            name: arr[..., start:stop].reshape(arr.shape[:-1] + shape)
            for u in self._table
            for name, start, stop, shape in u.runs()
        }

    def copy(self) -> "HeadParams":
        # a new head copies the fields it is given into its own flat vector
        return HeadParams(self.config, self.d_img, self.d_txt, **self.fields(self._flat))


def _pairs_matrix(pairs) -> tuple[np.ndarray, int]:
    """A sequence of feature pairs as a ``feature_matrix`` and its image
    width; pairs whose sizes differ from the first pair's are refused, and
    no pairs give a (0, 0) matrix."""
    if not pairs:
        return np.empty((0, 0)), 0
    sizes = (pairs[0].f_i.size, pairs[0].f_t.size)
    for i, p in enumerate(pairs):
        if (p.f_i.size, p.f_t.size) != sizes:
            raise ValueError(
                f"row {i}: feature sizes ({p.f_i.size}, {p.f_t.size}) != {sizes} of row 0"
            )
    f_t = np.array([p.f_t for p in pairs])
    f_i = np.array([p.f_i for p in pairs])
    return np.concatenate([f_t, f_i], axis=1), sizes[0]


def feature_matrix(hp: HeadParams, items) -> np.ndarray:
    """The (N, d_txt + d_img) feature matrix the batch forward reads.

    Row i is item i's text features followed by its image features, the
    order of the ability input.  ``items`` is a sequence of feature pairs,
    a ``data.Records`` set, whose ``x`` is kept in this layout, or a matrix
    already in it; the last two are returned without a copy unless a matrix
    is not C-ordered float64, so each row is reduced as one contiguous run
    (see ``_rowdot``).
    """
    if isinstance(items, np.ndarray):
        n = hp.d_txt + hp.d_img
        if items.ndim != 2 or items.shape[1] != n:
            raise ValueError(f"feature matrix shape {items.shape}, expected (N, {n})")
        return np.ascontiguousarray(items, dtype=np.float64)
    if hasattr(items, "d_img"):  # a data.Records set
        x, d_img = items.x, items.d_img
    else:
        x, d_img = _pairs_matrix(list(items))
    if not len(x):
        raise ValueError("no feature pairs given")
    if (d_img, x.shape[1] - d_img) != (hp.d_img, hp.d_txt):
        raise ValueError(
            f"feature sizes ({d_img}, {x.shape[1] - d_img}) do not match head "
            f"({hp.d_img}, {hp.d_txt})"
        )
    return x


@functools.lru_cache(maxsize=16)
def grade_positions(k: int) -> np.ndarray:
    """Grades 1..k mapped onto [0, 1]: (m - 1) / (k - 1); read-only, shared."""
    pos = np.linspace(0.0, 1.0, k)
    pos.setflags(write=False)
    return pos


def _rowdot(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each row reduced on its own.

    ``a @ w`` goes through BLAS, whose blocking depends on the number of
    rows, so a row's result could change in the last bit with the batch it
    sits in.  A multiply and a sum over the last axis cannot, which keeps a
    one-row forward bitwise equal to the same row of any batch, and a row of
    a weight stack equal to the forward of that row's weights alone.
    """
    return np.add.reduce(a * w, axis=-1)


def _units(hp: HeadParams, x: np.ndarray) -> list[np.ndarray]:
    """The four affine pre-activation units of the rows of x, in ``_UNITS``
    order: the ability (N,) under linear or the k grade logits (N, k) under
    softmax, then the base-difficulty prior, the spacing prior and the
    temperature shift, each (N,).  Each is a dot product over the columns
    the unit table names plus its bias; a dropped unit is 0.  More rows
    than one block of ``_block_rows`` are taken a block at a time, so a
    large batch never holds its (N, k, d_txt + d_img) logit products; every
    reduction runs along a row, so the blocks give the bits of one pass."""
    step = _block_rows(hp)
    if len(x) > step:
        blocks = [_units(hp, x[start : start + step]) for start in range(0, len(x), step)]
        return [np.concatenate(unit) for unit in zip(*blocks)]
    units = []
    for unit in hp._table:
        b = getattr(hp, unit.bias)
        if unit.columns is None:
            units.append(np.zeros(x.shape[:1] + b.shape))
            continue
        w = getattr(hp, unit.weight)
        # each row meets every output's weight row
        rows = x[:, unit.columns] if w.ndim == 1 else x[:, None, unit.columns]
        units.append(_rowdot(rows, w) + b)
    return units


def _ability(hp: HeadParams, agg: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Abilities (M,) from the ability unit and, in softmax mode, the grade
    softmax (k, M) of the grade-first logits ``agg``, whose expectation over
    the grade positions, scaled by ``lambda_s``, is the ability.  Each
    reduction over the grades runs over whole grade rows."""
    cfg = hp.config
    if cfg.agg_mode == "linear":
        return agg, None
    e = np.exp(agg - agg.max(axis=0))
    p = e / core._grade_sum(e)
    return cfg.lambda_s * core._grade_sum(p * grade_positions(cfg.k)[:, None]), p


def _activate(
    hp: HeadParams, b_prior: np.ndarray, g_prior: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The (2, ...) activation inputs [pre_b, pre_g], each prior plus the
    shift, then beta1 and gamma: the activation runs once over both, and
    the spacing gets ``eta``."""
    # both activation inputs in one array, so the activation runs once; the
    # array owns its data, so it is the base of the pre_b and pre_g views
    pre = np.array((b_prior, g_prior))
    pre += tau
    act = _ACTIVATION_FUNCS[hp.config.activation][0](pre)
    return pre, act[0], act[1] + hp.config.eta


def _grades(
    hp: HeadParams, theta: np.ndarray, beta1: np.ndarray, gamma: np.ndarray, first_row: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grade masses (M, k), the transposed view of the kernel's grade-first
    array, then mean grades and rescaled scores (M,) of M abilities and
    difficulties.  The kernel checks them as one batch of rows, and a
    refusal names its row counted from ``first_row``."""
    k = hp.config.k
    probs = core._checked_probs(theta, beta1, gamma, k, first_row)
    q = core.expected_score_batch(probs)
    # core.rescale_score, element-wise
    q_rescaled = np.minimum(5.0, np.maximum(0.0, (q - 1.0) * 5.0 / (k - 1.0)))
    return probs, q, q_rescaled


class HeadBatch(NamedTuple):
    """One forward pass over N items, row i belonging to item i.

    Every field is an (N,) array except ``probs`` (N, k), and ``softmax_p``
    and ``logits`` ((N, k) in softmax mode, else None); ``probs`` and
    ``softmax_p`` are the transposed views of the tail's grade-first
    arrays, which the backward reads back through ``.T``.  ``softmax_p``,
    ``pre_b`` and ``pre_g`` (the activation inputs) are what the backward
    pass reads; ``pre_b`` and ``pre_g`` are rows 0 and 1 of one array, their
    ``base``, which the backward hands to the activation derivative whole.
    The four pre-activation units are ``theta`` (linear) or ``logits``
    (softmax), ``beta1_prior``, ``gamma_prior`` and ``tau``: what
    ``_moved_scores`` starts its moved heads from.
    """

    theta: np.ndarray
    beta1_prior: np.ndarray
    gamma_prior: np.ndarray
    tau: np.ndarray
    beta1: np.ndarray
    gamma: np.ndarray
    probs: np.ndarray
    q: np.ndarray
    q_rescaled: np.ndarray
    softmax_p: np.ndarray | None
    pre_b: np.ndarray
    pre_g: np.ndarray
    logits: np.ndarray | None


def _forward(hp: HeadParams, x: np.ndarray, first_row: int = 0) -> HeadBatch:
    """The head forward shared by scoring, training and the gradient check:
    the four pre-activation units (``_units``), then the tail that turns
    them into scores (``_ability``, ``_activate``, ``_grades``).

    It runs under the caller's ``np.errstate``: each public entry ignores
    underflow around its own calls of it.  A refusal names its row counted
    from ``first_row``, the input row of ``x[0]`` when ``x`` is one block of
    a longer input.
    """
    agg, b_prior, g_prior, tau = _units(hp, x)
    theta, p = _ability(hp, agg.T)
    pre, beta1, gamma = _activate(hp, b_prior, g_prior, tau)
    probs, q, q_rescaled = _grades(hp, theta, beta1, gamma, first_row)
    softmax_p, logits = (None, None) if p is None else (p.T, agg)
    return HeadBatch(
        theta, b_prior, g_prior, tau, beta1, gamma, probs, q, q_rescaled, softmax_p, pre[0],
        pre[1], logits,
    )


def _moved_elements(hp: HeadParams, n: int) -> int:
    """Most float64 entries ``_moved_scores`` holds for each moved head over
    n items: its moved weight row, at the widest fan-in (the ability
    unit's), and its copy of the base units and the tail's temporaries,
    counted together.  The unit products come on top, in blocks of at most
    ``BLOCK_ELEMENTS`` entries."""
    # the units, the softmax, then the kernel's and the mean grade's
    # temporaries, all grade first: tracemalloc reads at most 7.2 (k + 1)
    # per item under softmax and 7.7 (k + 1) under linear, k 2..20, 16
    # items and each weight of a 1 + 1 head moved once; 6.8 (k + 1) at
    # 256 heads
    return hp.d_txt + hp.d_img + 10 * n * (hp.config.k + 1)


def _moved_units(hp: HeadParams, x: np.ndarray, coords: np.ndarray, deltas: np.ndarray):
    """The moved unit of each head of ``_moved_scores``, unit by unit.

    Yields ``(u, lo, hi, out, values)`` for each block of heads ``lo:hi``
    that move unit ``_UNITS[u]``, each block's products at most
    ``BLOCK_ELEMENTS`` entries: ``out`` is the unit output each head moves
    (its logit under softmax, else 0), and ``values`` (hi - lo, N) that
    output recomputed as one dot product over the unit's columns plus its
    bias, with the head's weight or bias moved.  A dropped unit has nothing
    to move.
    """
    moved = hp.flat[coords] + deltas
    for u, unit in enumerate(hp._table):
        # the heads moving a weight of the unit, then those moving its bias
        lo, mid, hi = np.searchsorted(coords, (unit.start, unit.mid, unit.stop)).tolist()
        if lo == hi or unit.columns is None:
            continue
        unit_in = x[:, unit.columns]
        w = hp.flat[unit.start : unit.mid].reshape(-1, unit_in.shape[1])  # (outputs, fan-in)
        at_w = coords[lo:mid] - unit.start
        out = np.concatenate((at_w // w.shape[1], coords[mid:hi] - unit.mid))
        rows_w, rows_b = w[out], hp.flat[unit.mid : unit.stop][out]
        rows_w[np.arange(mid - lo), at_w % w.shape[1]] = moved[lo:mid]
        rows_b[mid - lo :] = moved[mid:hi]
        per = max(1, BLOCK_ELEMENTS // unit_in.size)
        for start in range(0, hi - lo, per):
            heads = slice(start, start + per)
            values = _rowdot(unit_in, rows_w[heads, None, :]) + rows_b[heads, None]
            yield u, lo + start, lo + start + len(values), out[heads], values


@np.errstate(over="ignore", invalid="ignore", under="ignore")
def _moved_scores(
    hp: HeadParams, x: np.ndarray, base: HeadBatch, coords: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Rescaled scores (R, N) of R heads over the N rows of x, head r being
    ``hp`` with flat weight ``coords[r]`` moved by ``deltas[r]``; ``coords``
    ascends and ``base`` is ``_forward(hp, x)``.

    Row r is bitwise the ``q_rescaled`` of ``_forward`` on a copy of ``hp``
    with that one weight moved.  A flat weight feeds one unit, so each head
    starts from a copy of ``base``'s four units, takes in the one unit
    ``_moved_units`` recomputes, and the forward's own tail (``_ability``,
    ``_activate``, ``_grades``) runs over all R * N items at once, head r's
    at entries r * N to (r + 1) * N - 1 of each unit.  Overflow
    and invalid operations are ignored: a non-finite unit reaches the
    kernel's checks, which refuse it, naming its row of the R * N, head by
    head.
    """
    agg = base.theta if base.logits is None else base.logits.T
    # each unit's R copies side by side, the logits grade first, (k, R * N)
    units = [
        np.repeat(v[..., None, :], coords.size, -2).reshape(v.shape[:-1] + (-1,))
        for v in (agg, base.beta1_prior, base.gamma_prior, base.tau)
    ]
    for u, lo, hi, out, values in _moved_units(hp, x, coords, deltas):
        # the unit's outputs on the first axis, one of them outside softmax
        units[u].reshape(-1, coords.size, len(x))[out, np.arange(lo, hi)] = values
    # the forward's tail; the logits are dropped once read, so the band
    # kernel runs beside no (k, R * N) array but its own
    theta = _ability(hp, units.pop(0))[0]
    _, beta1, gamma = _activate(hp, *units)
    return _grades(hp, theta, beta1, gamma, 0)[2].reshape(coords.size, len(x))


def _block_rows(hp: HeadParams) -> int:
    """Rows per scoring block: ``BLOCK_ELEMENTS`` over the widest
    per-item temporary of ``_forward``, the ability unit's products, one
    per entry of its weight (k * (d_txt + d_img) logit terms under softmax,
    d_txt + d_img under linear), and at least the k grade masses."""
    return max(1, BLOCK_ELEMENTS // max(hp.agg_w.size, hp.config.k))


def forward_blocks(hp: HeadParams, items):
    """The forward pass over N items, one block of rows at a time; see
    ``feature_matrix`` for ``items``.

    Yields ``(rows, batch)`` for each block of ``_block_rows`` rows in
    order: ``rows`` is the block's slice of the input rows and ``batch`` the
    block's ``HeadBatch``, bit for bit those rows of one unblocked pass.
    No temporary holds more than ``BLOCK_ELEMENTS`` entries, so a caller
    that keeps only what it reads of each block holds one block at a time,
    however large N is (see the module docstring).  A refusal names its row
    of the whole input.  Each block is computed with underflow ignored, and
    the caller's loop body runs under the caller's own ``np.errstate``.
    """
    x = feature_matrix(hp, items)
    step = _block_rows(hp)
    for start in range(0, len(x), step):
        rows = slice(start, min(start + step, len(x)))
        # not around the yield: the caller's code between blocks keeps its own
        with np.errstate(under="ignore"):
            batch = _forward(hp, x[rows], first_row=start)
        yield rows, batch


def batch_scores(hp: HeadParams, items) -> np.ndarray:
    """The rescaled scores of N items, in order; see ``feature_matrix`` for
    ``items``.

    The scores of each block of ``forward_blocks``, copied into one (N,)
    array; the block's other outputs are dropped, so the peak is the N
    scores plus one block, 2.0 MiB for 0.8 MiB of scores on 100 000 rows
    through a softmax k = 9 head of 16 + 16 features.  ``agrm eval``,
    ``trainer.evaluate`` and ``evaluate_by_dim``, the held-out scores of
    ``trainer.train``, ``data.synth_generate`` and ``agrm fd-check`` score
    through it.
    """
    x = feature_matrix(hp, items)
    q = np.empty(len(x))
    for rows, batch in forward_blocks(hp, x):
        q[rows] = batch.q_rescaled
    return q


@np.errstate(under="ignore")
def head_forward(hp: HeadParams, fp: FeaturePair) -> HeadBatch:
    """Full forward pass: features to grade distribution and rescaled score.

    Row 0 of ``_forward`` on the one-row feature matrix, the row
    ``forward_blocks`` gives the item in any batch: each field of the
    returned ``HeadBatch`` is a NumPy scalar, ``probs`` (and ``softmax_p`` and
    ``logits`` in softmax mode) a (k,) array.  ``core.agrm_probs_batch`` has
    already held the masses to ``core.normalized_rows``, the one mass rule
    (``ProbVector`` applies the same), and weights that have gone non-finite
    make it raise.
    """
    b = _forward(hp, feature_matrix(hp, [fp]))
    return HeadBatch(*(None if f is None else f[0] for f in b))


def init_head(
    d_img: int,
    d_txt: int,
    config: HeadConfig | None = None,
    seed=0,
) -> HeadParams:
    """Fresh head with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases start at zero.  Weights are drawn in ``PARAM_FIELDS`` order (agg,
    base-difficulty map, spacing map, temperature map), so a seed pins the
    whole head.
    """
    _require_dims(d_img, d_txt)
    cfg = config or HeadConfig()
    rng = np.random.default_rng(seed)
    fields = {}
    for unit in _unit_table(cfg, d_img, d_txt):
        s = 1.0 / math.sqrt(unit.shape[-1])
        fields[unit.weight] = rng.uniform(-s, s, size=unit.shape)
        fields[unit.bias] = np.zeros(unit.shape[:-1])
    return HeadParams(config=cfg, d_img=d_img, d_txt=d_txt, **fields)
