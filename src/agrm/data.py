"""Feature records on disk, score normalization, splits, and synthetic data.

Records live in a line-delimited JSON format, one object per line with keys
``id``, ``fi``, ``ft``, ``mos``, ``dim``.  Vectors are plain decimal arrays,
so files diff and stream trivially, and Python's shortest-repr float encoding
makes save -> load an exact round trip.  A file is gzip-compressed exactly
when its name ends in ``.gz``; archives are written with a zeroed timestamp so
identical data produces identical bytes.

The synthetic generator plants a head drawn by ``init_head``, samples feature
pairs from a standard normal, and scores them in one batched forward with
the planted head, plus optional Gaussian noise.  It returns the planted head
alongside the records so a training run can be checked against the ground
truth that produced its data.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import logging
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .head import FeaturePair, batch_forward, init_head

__all__ = [
    "DIMS",
    "FeatureRecord",
    "SynthConfig",
    "dim_counts",
    "load_records",
    "save_records",
    "normalize_mos",
    "split",
    "synth_generate",
]

logger = logging.getLogger(__name__)

DIMS = ("quality", "consistency", "authenticity")

_FIELD_KEYS = ("id", "fi", "ft", "mos", "dim")

# the types json.loads gives a JSON number; a quoted number or a boolean,
# which float() would take, is refused
_NUMBER_TYPES = {int, float}


@dataclass(frozen=True, eq=False, kw_only=True)
class FeatureRecord(FeaturePair):
    """One annotated item: feature pair, mean opinion score, dimension tag.

    A record is a ``FeaturePair``, so its vectors are checked once, when the
    record is built, and it goes to the head as it is.
    """

    id: str
    mos: float
    dim: str

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        super().__post_init__()
        object.__setattr__(self, "mos", float(self.mos))
        if not math.isfinite(self.mos):
            raise ValueError(f"mos must be finite, got {self.mos!r}")
        if self.dim not in DIMS:
            raise ValueError(f"dim must be one of {DIMS}, got {self.dim!r}")

    def __eq__(self, other):
        if not isinstance(other, FeatureRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.dim == other.dim
            and self.mos == other.mos
            and np.array_equal(self.f_i, other.f_i)
            and np.array_equal(self.f_t, other.f_t)
        )

    def pair(self) -> FeaturePair:
        """The record itself, which is already a feature pair."""
        return self


def dim_counts(records) -> dict:
    counts = {d: 0 for d in DIMS}
    for r in records:
        counts[r.dim] += 1
    return counts


def _is_gzip(path) -> bool:
    return str(path).endswith(".gz")


def _parse_line(lineno: int, line: str) -> FeatureRecord:
    try:
        obj = json.loads(line)
    # a deeply nested line exhausts the parser's recursion
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"line {lineno}: invalid record: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"line {lineno}: expected an object, got {type(obj).__name__}")
    missing = [k for k in _FIELD_KEYS if k not in obj]
    if missing:
        raise ValueError(f"line {lineno}: missing fields {missing}")
    unknown = [k for k in obj if k not in _FIELD_KEYS]
    if unknown:
        raise ValueError(f"line {lineno}: unknown fields {unknown}")
    if type(obj["mos"]) not in _NUMBER_TYPES:
        raise ValueError(f"line {lineno}: mos must be a number, got {obj['mos']!r}")
    for key in ("fi", "ft"):
        if not isinstance(obj[key], list) or not {type(v) for v in obj[key]} <= _NUMBER_TYPES:
            raise ValueError(f"line {lineno}: {key} must be an array of numbers")
    try:
        return FeatureRecord(
            id=obj["id"], f_i=obj["fi"], f_t=obj["ft"], mos=obj["mos"], dim=obj["dim"]
        )
    # OverflowError: an integer too large for a float
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def load_records(path) -> list[FeatureRecord]:
    """Read records in file order, checking that feature lengths agree.

    A name ending in ``.gz`` is read as gzip; a truncated or corrupt archive
    is a ``ValueError``, like any other malformed file.
    """
    opener = gzip.open if _is_gzip(path) else open
    records: list[FeatureRecord] = []
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                rec = _parse_line(lineno, line)
                if records:
                    ref = records[0]
                    if rec.f_i.size != ref.f_i.size:
                        raise ValueError(
                            f"line {lineno}: image feature length {rec.f_i.size} "
                            f"!= {ref.f_i.size} from line 1"
                        )
                    if rec.f_t.size != ref.f_t.size:
                        raise ValueError(
                            f"line {lineno}: text feature length {rec.f_t.size} "
                            f"!= {ref.f_t.size} from line 1"
                        )
                records.append(rec)
    except (EOFError, zlib.error) as exc:
        raise ValueError(f"{path}: corrupt gzip data: {exc}") from exc
    counts = dim_counts(records)
    logger.info(
        "loaded %d records from %s (%s)",
        len(records),
        path,
        ", ".join(f"{d}={counts[d]}" for d in DIMS),
    )
    return records


def _encode(rec: FeatureRecord) -> str:
    return json.dumps(
        {
            "id": rec.id,
            "fi": [float(v) for v in rec.f_i],
            "ft": [float(v) for v in rec.f_t],
            "mos": rec.mos,
            "dim": rec.dim,
        },
        separators=(",", ":"),
    )


def save_records(path, records) -> None:
    """Write records one per line; ``load_records`` restores them exactly."""
    payload = "".join(_encode(r) + "\n" for r in records).encode("utf-8")
    with open(path, "wb") as handle:
        if _is_gzip(path):
            # fixed header (no name, zero mtime) so equal data -> equal bytes
            with gzip.GzipFile(filename="", mode="wb", fileobj=handle, mtime=0) as gz:
                gz.write(payload)
        else:
            handle.write(payload)


def normalize_mos(records) -> list[FeatureRecord]:
    """Min-max map the dataset's scores onto [0, 5], the rescaled prediction
    range, so normalized targets and head outputs are directly comparable.

    Returns new records.  The map is increasing and affine, so rank and
    linear correlations against the scores it maps are unchanged by it.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot normalize an empty dataset")
    mos = [r.mos for r in records]
    src_min, src_max = min(mos), max(mos)
    if src_min == src_max:
        raise ValueError(f"scores are constant ({src_min}); range is undefined")
    scale = 5.0 / (src_max - src_min)
    return [dataclasses.replace(r, mos=(r.mos - src_min) * scale) for r in records]


def split(records, train_fraction: float, seed: int = 0):
    """Deterministic shuffled split into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    records = list(records)
    order = np.random.default_rng(seed).permutation(len(records))
    n_train = round(train_fraction * len(records))
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    return train, test


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a generated dataset with a known ground-truth head."""

    n: int
    d_img: int = 16
    d_txt: int = 16
    noise_sigma: float = 0.0
    seed: int = 0
    # widens the freshly drawn ability map so scores cover the full range
    # instead of clustering mid-scale
    ability_scale: float = 4.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.d_img < 1 or self.d_txt < 1:
            raise ValueError(
                f"feature dims must be >= 1, got ({self.d_img}, {self.d_txt})"
            )
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if not math.isfinite(self.ability_scale) or self.ability_scale <= 0.0:
            raise ValueError(
                f"ability_scale must be positive, got {self.ability_scale!r}"
            )


def synth_generate(cfg: SynthConfig):
    """Generate (records, planted head); same config -> bit-identical output.

    Head init, feature draws, and noise draws use independently spawned
    streams, so the features do not move when ``noise_sigma`` changes.
    """
    head_seed, feat_seed, noise_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    planted = init_head(cfg.d_img, cfg.d_txt, seed=head_seed)
    planted.agg_w *= cfg.ability_scale
    rng_feat = np.random.default_rng(feat_seed)
    rng_noise = np.random.default_rng(noise_seed)

    # one row per item, image features then text features: the same stream
    # as drawing each item's f_i and then its f_t
    feats = rng_feat.standard_normal((cfg.n, cfg.d_img + cfg.d_txt))
    f_i, f_t = feats[:, : cfg.d_img], feats[:, cfg.d_img :]
    scores = batch_forward(planted, np.concatenate([f_t, f_i], axis=1)).q_rescaled
    mos = scores + cfg.noise_sigma * rng_noise.standard_normal(cfg.n)
    records = [
        FeatureRecord(
            id=f"synth-{i:05d}",
            f_i=f_i[i],
            f_t=f_t[i],
            mos=mos[i],
            dim=DIMS[i % len(DIMS)],
        )
        for i in range(cfg.n)
    ]
    return records, planted
