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

With the default ``telu`` activation and ``eta = 1.2`` the spacing can never
drop below ``eta`` plus telu's global minimum, which keeps it above the
unimodality threshold ``2 ln2 / (d * alpha)`` for every input.  The ablation
activations (sigmoid, relu, softplus) are applied as-is and only guarantee a
positive spacing; sub-threshold spacings there raise a warning, not an error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
    "HeadOutput",
    "telu",
    "ability_forward",
    "difficulty_forward",
    "head_forward",
    "init_head",
]

ACTIVATIONS = ("telu", "sigmoid", "relu", "softplus")
AGG_MODES = ("linear", "softmax")
# "image_only" feeds the image features to the difficulty priors,
# "text_only" feeds the text features to the temperature map,
# "no_temperature" drops the temperature shift entirely.
ABLATIONS = ("none", "image_only", "text_only", "no_temperature")

# Global minimum of x * tanh(e^x), attained near x = -1.07886.
TELU_MIN = -0.35328577784821125
TELU_ARGMIN = -1.0788600584646242


def telu(x: float) -> float:
    """x * tanh(e^x); linear for large x, vanishing for very negative x."""
    if x > 20.0:
        return x
    return x * math.tanh(math.exp(x))


def _telu_deriv(x: float) -> float:
    if x > 20.0:
        return 1.0
    t = math.tanh(math.exp(x))
    return t + x * (1.0 - t * t) * math.exp(x)


def _act_value(name: str, x: float) -> float:
    if name == "telu":
        return telu(x)
    if name == "sigmoid":
        return core.sigmoid(x)
    if name == "relu":
        return x if x > 0.0 else 0.0
    if name == "softplus":
        return core._softplus(x)
    raise ValueError(f"unknown activation {name!r}")


def _act_deriv(name: str, x: float) -> float:
    if name == "telu":
        return _telu_deriv(x)
    if name == "sigmoid":
        s = core.sigmoid(x)
        return s * (1.0 - s)
    if name == "relu":
        return 1.0 if x > 0.0 else 0.0
    if name == "softplus":
        return core.sigmoid(x)
    raise ValueError(f"unknown activation {name!r}")


def _act_floor(name: str) -> float:
    """Greatest lower bound of the activation over the reals."""
    return TELU_MIN if name == "telu" else 0.0


def _as_feature(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FeaturePair:
    """One item's image feature vector and text feature vector."""

    f_i: np.ndarray
    f_t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f_i", _as_feature("f_i", self.f_i))
        object.__setattr__(self, "f_t", _as_feature("f_t", self.f_t))


@dataclass(frozen=True)
class HeadConfig:
    """Architecture knobs; the defaults carry the unimodality guarantee."""

    k: int = 5
    d: float = 1.7
    alpha: float = 1.0
    lambda_s: float = 10.0
    eta: float = 1.2
    activation: str = "telu"
    agg_mode: str = "linear"
    ablation: str = "none"

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        for name in ("d", "alpha", "lambda_s", "eta"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.agg_mode not in AGG_MODES:
            raise ValueError(f"agg_mode must be one of {AGG_MODES}, got {self.agg_mode!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


# Learnable fields, in the fixed order used for initialization draws,
# gradient accumulation and optimizer state.
PARAM_FIELDS = (
    "agg_w",
    "agg_b",
    "phi_beta_w",
    "phi_beta_b",
    "phi_gamma_w",
    "phi_gamma_b",
    "phi_i_w",
    "phi_i_b",
)


@dataclass
class HeadParams:
    """All learnable weights plus the architecture they belong to.

    Shapes: with n = d_txt + d_img, ``agg_w`` is (n,) in linear mode and
    (k, n) in softmax mode, ``agg_b`` () or (k,).  The prior maps take the
    text features (image features under the image_only ablation) and the
    temperature map takes the image features (text features under text_only),
    so their widths follow the ablation.  Instances are mutated only by the
    trainer; treat them as read-only elsewhere.
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
        for name in PARAM_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = self.d_txt + self.d_img
        cfg = self.config
        agg_shape = (n,) if cfg.agg_mode == "linear" else (cfg.k, n)
        bias_shape = () if cfg.agg_mode == "linear" else (cfg.k,)
        if self.agg_w.shape != agg_shape:
            raise ValueError(f"agg_w shape {self.agg_w.shape}, expected {agg_shape}")
        if self.agg_b.shape != bias_shape:
            raise ValueError(f"agg_b shape {self.agg_b.shape}, expected {bias_shape}")
        pd, td = self.prior_dim, self.temp_dim
        for name, shape in (
            ("phi_beta_w", (pd,)),
            ("phi_beta_b", ()),
            ("phi_gamma_w", (pd,)),
            ("phi_gamma_b", ()),
            ("phi_i_w", (td,)),
            ("phi_i_b", ()),
        ):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} shape {got}, expected {shape}")

    @property
    def prior_dim(self) -> int:
        return self.d_img if self.config.ablation == "image_only" else self.d_txt

    @property
    def temp_dim(self) -> int:
        return self.d_txt if self.config.ablation == "text_only" else self.d_img

    def copy(self) -> "HeadParams":
        kwargs = {name: getattr(self, name).copy() for name in PARAM_FIELDS}
        return HeadParams(config=self.config, d_img=self.d_img, d_txt=self.d_txt, **kwargs)


@dataclass(frozen=True)
class HeadOutput:
    """Everything the head produces for one feature pair."""

    theta: float
    beta1_prior: float
    gamma_prior: float
    tau: float
    beta1: float
    gamma: float
    probs: core.ProbVector
    q: float
    q_rescaled: float


def _inputs(hp: HeadParams, fp: FeaturePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated ability input, difficulty-prior input, temperature input."""
    if fp.f_i.size != hp.d_img or fp.f_t.size != hp.d_txt:
        raise ValueError(
            f"feature sizes ({fp.f_i.size}, {fp.f_t.size}) do not match head "
            f"({hp.d_img}, {hp.d_txt})"
        )
    x = np.concatenate([fp.f_t, fp.f_i])
    prior_in = fp.f_i if hp.config.ablation == "image_only" else fp.f_t
    temp_in = fp.f_t if hp.config.ablation == "text_only" else fp.f_i
    return x, prior_in, temp_in


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def grade_positions(k: int) -> np.ndarray:
    """Grades 1..k mapped onto [0, 1]: (m - 1) / (k - 1)."""
    return np.linspace(0.0, 1.0, k)


def _ability_parts(hp: HeadParams, x: np.ndarray) -> tuple[float, np.ndarray | None]:
    cfg = hp.config
    if cfg.agg_mode == "linear":
        return float(hp.agg_w @ x + hp.agg_b), None
    p = _softmax(hp.agg_w @ x + hp.agg_b)
    return cfg.lambda_s * float(p @ grade_positions(cfg.k)), p


def _difficulty_parts(
    hp: HeadParams, prior_in: np.ndarray, temp_in: np.ndarray
) -> tuple[float, float, float, float, float, float, float]:
    """(beta1_prior, gamma_prior, tau, pre_b, pre_g, beta1, gamma)."""
    cfg = hp.config
    b_prior = float(hp.phi_beta_w @ prior_in + hp.phi_beta_b)
    g_prior = float(hp.phi_gamma_w @ prior_in + hp.phi_gamma_b)
    if cfg.ablation == "no_temperature":
        tau = 0.0
    else:
        tau = float(hp.phi_i_w @ temp_in + hp.phi_i_b)
    pre_b = b_prior + tau
    pre_g = g_prior + tau
    beta1 = _act_value(cfg.activation, pre_b)
    gamma = _act_value(cfg.activation, pre_g) + cfg.eta
    return b_prior, g_prior, tau, pre_b, pre_g, beta1, gamma


def ability_forward(hp: HeadParams, fp: FeaturePair) -> float:
    """Scalar ability for one feature pair."""
    x, _, _ = _inputs(hp, fp)
    return _ability_parts(hp, x)[0]


def difficulty_forward(hp: HeadParams, fp: FeaturePair) -> tuple[float, float]:
    """(base difficulty, threshold spacing) for one feature pair."""
    _, prior_in, temp_in = _inputs(hp, fp)
    parts = _difficulty_parts(hp, prior_in, temp_in)
    return parts[5], parts[6]


class _Pass(NamedTuple):
    """One forward pass plus the intermediates the backward pass reads."""

    out: HeadOutput
    x: np.ndarray
    prior_in: np.ndarray
    temp_in: np.ndarray
    softmax_p: np.ndarray | None
    pre_b: float
    pre_g: float


def _forward(hp: HeadParams, fp: FeaturePair) -> _Pass:
    """The head forward shared by scoring and training; raises on gamma <= 0."""
    cfg = hp.config
    x, prior_in, temp_in = _inputs(hp, fp)
    theta, softmax_p = _ability_parts(hp, x)
    b_prior, g_prior, tau, pre_b, pre_g, beta1, gamma = _difficulty_parts(hp, prior_in, temp_in)
    if gamma <= 0.0:
        raise ValueError(
            f"unimodality constraint violated: spacing gamma = {gamma!r} <= 0 "
            f"(activation {cfg.activation!r}, eta = {cfg.eta!r})"
        )
    probs = core.agrm_probs(
        core.AgrmParams(theta=theta, beta1=beta1, gamma=gamma, d=cfg.d, alpha=cfg.alpha, k=cfg.k)
    )
    q = core.expected_score(probs)
    out = HeadOutput(
        theta=theta,
        beta1_prior=b_prior,
        gamma_prior=g_prior,
        tau=tau,
        beta1=beta1,
        gamma=gamma,
        probs=probs,
        q=q,
        q_rescaled=core.rescale_score(q, cfg.k),
    )
    return _Pass(out, x, prior_in, temp_in, softmax_p, pre_b, pre_g)


def head_forward(hp: HeadParams, fp: FeaturePair) -> HeadOutput:
    """Full forward pass: features to grade distribution and rescaled score.

    A non-positive spacing means the grade bands have collapsed and no
    distribution exists; that raises.  A positive spacing at or below the
    unimodality threshold is computable but unguaranteed, so it only warns
    (the telu default cannot get there).
    """
    cfg = hp.config
    out = _forward(hp, fp).out
    threshold = core.gamma_threshold(cfg.d, cfg.alpha)
    if out.gamma <= threshold:
        warnings.warn(
            f"spacing gamma = {out.gamma:.6g} at or below the unimodality threshold "
            f"{threshold:.6g}; grade distribution may be multimodal",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def _solve_gamma_bias(activation: str, eta: float, d: float, alpha: float) -> float:
    """Spacing-map bias that starts gamma comfortably above the threshold.

    When eta alone clears the threshold even at the activation's floor the
    bias stays 0.  Otherwise bisect the activation on [0, 60] for a value
    whose output plus eta lands half a unit above the threshold (saturating
    activations get as close as they can).
    """
    thr = core.gamma_threshold(d, alpha)
    if eta + _act_floor(activation) > thr:
        return 0.0
    want = thr + 0.5 - eta
    lo, hi = 0.0, 60.0
    if _act_value(activation, hi) <= want:
        return hi
    if _act_value(activation, lo) >= want:
        return lo
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _act_value(activation, mid) < want:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def init_head(
    d_img: int,
    d_txt: int,
    config: HeadConfig | None = None,
    seed=0,
) -> HeadParams:
    """Fresh head with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases start at zero except the spacing-map bias, which is placed so the
    spacing starts above the unimodality threshold.  Weights are drawn in
    declaration order (agg, base-difficulty map, spacing map, temperature
    map), so a seed pins the whole head.
    """
    if d_img < 1 or d_txt < 1:
        raise ValueError(f"feature dims must be >= 1, got ({d_img}, {d_txt})")
    cfg = config or HeadConfig()
    rng = np.random.default_rng(seed)
    n = d_txt + d_img
    s = 1.0 / math.sqrt(n)
    if cfg.agg_mode == "linear":
        agg_w = rng.uniform(-s, s, size=n)
        agg_b = np.zeros(())
    else:
        agg_w = rng.uniform(-s, s, size=(cfg.k, n))
        agg_b = np.zeros(cfg.k)
    prior_dim = d_img if cfg.ablation == "image_only" else d_txt
    temp_dim = d_txt if cfg.ablation == "text_only" else d_img
    sp = 1.0 / math.sqrt(prior_dim)
    st = 1.0 / math.sqrt(temp_dim)
    return HeadParams(
        config=cfg,
        d_img=d_img,
        d_txt=d_txt,
        agg_w=agg_w,
        agg_b=agg_b,
        phi_beta_w=rng.uniform(-sp, sp, size=prior_dim),
        phi_beta_b=np.zeros(()),
        phi_gamma_w=rng.uniform(-sp, sp, size=prior_dim),
        phi_gamma_b=np.asarray(_solve_gamma_bias(cfg.activation, cfg.eta, cfg.d, cfg.alpha)),
        phi_i_w=rng.uniform(-st, st, size=temp_dim),
        phi_i_b=np.zeros(()),
    )
