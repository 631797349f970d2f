"""Feature record sets on disk, score normalization, splits, and synthetic data.

A dataset is one columnar ``Records`` set: the (N, d_txt + d_img) feature
matrix ``x`` in the head's ``feature_matrix`` layout (row i is item i's text
features, then its image features), the (N,) scores ``mos``, and the item
``id`` and ``dim`` tags.  A set is validated once, when it is built or
loaded; splitting, slicing and scoring read its columns as they are.
Iterating a set yields its rows as ``FeatureRecord`` objects, and the public
functions here also take any sequence of those rows.

On disk, records live in a line-delimited JSON format, one object per line
with keys ``id``, ``fi``, ``ft``, ``mos``, ``dim``.  Vectors are plain
decimal arrays, so files diff and stream trivially, and Python's
shortest-repr float encoding makes save -> load an exact round trip.
``save_records`` encodes the lines in chunks of ``SAVE_CHUNK_ROWS`` on the
calling thread and, for a set of more than one chunk, hands each chunk to
one worker thread, which writes it (an archive's chunk after its CRC-32 and
deflate) while the next chunk is encoded; one chunk is in flight at a time,
and the file's bytes are those of writing the chunks one after another.
``load_records`` parses ``LOAD_BLOCK_BYTES`` of text at a time straight
into the columns, feature entries into one flat buffer, on the calling
thread alone, so neither holds more than one copy of the features.  A file
is gzip-compressed exactly when its name ends in ``.gz``.  An archive is
one gzip member with a fixed header (no name, zero mtime, so identical data
produces identical bytes) around a raw deflate body coded with Huffman
codes only: the digits of shortest-repr floats have almost no repeats for
LZ77 to find, and skipping the search compresses about 30% faster than
level 1 for a file 8% larger.  Archives written at any level load.

Every file, a pipe or an archive alike, is opened once and read
``LOAD_BLOCK_BYTES`` at a time, in runs of whole lines (``_line_runs``):
``\\n``, ``\\r\\n`` and ``\\r`` each end a line, and each run has its line
ends turned into ``\\n`` once, so a file with any of them takes the same
screened path, in runs of about a block.  Each run is parsed with one
``json.loads`` and its columns checked in bulk (``_read_blocks``); a run
that screen doubts is read line by line from its own bytes
(``_read_lines``), which words every refusal with its line number, and the
next run goes back to the screen.  ``FeatureRecord`` is the one rule for a
valid row and words every refusal; the per-line reader adds only the file
format's rules (objects with the five keys, JSON-number scores and entries,
feature lengths equal to the first record's).  The screen and the bulk
checks of ``Records`` only detect a bad row; the first one's
``FeatureRecord`` words the refusal.
Loaded ``dim`` tags are the ``DIMS`` strings themselves.

The synthetic generator plants a head drawn by ``init_head`` with its
ability map widened ``ABILITY_SCALE`` times, samples feature pairs from a
standard normal (``draw_features``), and scores them with the planted head
(``head.batch_scores``), plus optional Gaussian noise.  Past its N-sized
arrays (the feature draw, the noise and the record columns), it holds at
most a few blocks of ``head.BLOCK_ELEMENTS`` entries: the draw's halves are
swapped in place, and the scores are streamed from ``head.forward_blocks``
one block of rows at a time.  It returns the planted head alongside the
records so a training run can be checked against the ground truth that
produced its data.
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import operator
import zlib
from array import array
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import _float_array, _require_count, _require_non_negative
from .head import BLOCK_ELEMENTS, FeaturePair, _pairs_matrix, _require_dims, batch_scores, init_head

__all__ = [
    "DIMS",
    "FeatureRecord",
    "Records",
    "SynthConfig",
    "as_records",
    "dim_counts",
    "draw_features",
    "load_records",
    "save_records",
    "normalize_mos",
    "split",
    "synth_generate",
]

logger = logging.getLogger(__name__)

DIMS = ("quality", "consistency", "authenticity")

# lines encoded and written at a time
SAVE_CHUNK_ROWS = 2048
# decompressed bytes read, parsed and screened at a time
LOAD_BLOCK_BYTES = 1 << 16
# widens the planted head's freshly drawn ability map so synthetic scores
# cover the full range instead of clustering mid-scale
ABILITY_SCALE = 4.0

_FIELD_KEYS = ("id", "fi", "ft", "mos", "dim")
_KEY_SET = frozenset(_FIELD_KEYS)
# a parsed record object's values in _FIELD_KEYS order; a KeyError if one is missing
_FIELDS = operator.itemgetter(*_FIELD_KEYS)
# a tag -> its index in DIMS; a set's dim column indexes _DIM_TAGS, so a
# loaded set shares the three DIMS strings as a synthesized one does
_DIM_CODES = {d: i for i, d in enumerate(DIMS)}
_DIM_TAGS = np.array(DIMS, dtype=object)
# gzip member header (RFC 1952): deflate, no flags or name, zero mtime, XFL 4
# (fastest), OS 255 (unknown), as gzip.GzipFile writes it at level 1
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\xff"

# the types json.loads gives a JSON number; a quoted number or a boolean,
# which float() would take, is refused
_NUMBER_TYPES = {int, float}


@dataclass(frozen=True, eq=False, kw_only=True)
class FeatureRecord(FeaturePair):
    """One annotated item: feature pair, mean opinion score, dimension tag.

    A record is a ``FeaturePair``, so its vectors are checked once, when the
    record is built, and it goes to the head as it is.  Iterating a
    ``Records`` set yields its rows as records.
    """

    id: str
    mos: float
    dim: str

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        super().__post_init__()
        try:
            mos = float(self.mos)
        except OverflowError:
            raise ValueError("mos holds a number too large for a float") from None
        object.__setattr__(self, "mos", mos)
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


def _strings(values) -> np.ndarray:
    """A 1-d object array holding ``values`` as they are."""
    if not isinstance(values, list):
        values = list(values)
    return np.fromiter(values, dtype=object, count=len(values))


class Records:
    """N annotated items as columns, row i belonging to item i.

    ``x`` is the (N, d_txt + d_img) float64 feature matrix in
    ``head.feature_matrix`` layout, ``mos`` the (N,) float64 scores, and
    ``id`` and ``dim`` (N,) object arrays of strings.  The constructor takes
    the columns without copying them, except an ``x`` not in C order, and
    checks them once: every row must make a valid ``FeatureRecord``, and the
    first that does not is refused with that record's message.  A set is
    read-only by convention; nothing here writes to its columns.

    ``len`` counts the items, iterating yields each row as a
    ``FeatureRecord`` (its vectors are views of ``x``), an integer index
    gives one row, and a slice, index array or boolean mask gives a new set
    over those rows.  Two sets are equal when all four columns are.
    """

    __slots__ = ("x", "d_img", "mos", "id", "dim")

    def __init__(self, *, x, d_img: int, mos, id, dim):
        x, mos = _float_array("x", x), _float_array("mos", mos)
        id, dim = _strings(id), _strings(dim)
        if x.ndim != 2 or any(col.shape != (x.shape[0],) for col in (mos, id, dim)):
            raise ValueError(
                f"column shapes disagree: x {x.shape}, mos {mos.shape}, "
                f"id {id.shape}, dim {dim.shape}"
            )
        if x.shape[0]:
            _require_dims(d_img, x.shape[1] - d_img)
        # C order, so the forward reduces each row as one contiguous run
        x = np.ascontiguousarray(x)
        self.x, self.d_img, self.mos, self.id, self.dim = x, d_img, mos, id, dim
        # found in bulk; the first bad row's record words its refusal
        bad = np.fromiter(
            (not (isinstance(i, str) and i and t in DIMS) for i, t in zip(id, dim)),
            dtype=bool, count=len(id),
        )
        bad |= ~(np.isfinite(x).all(axis=1) & np.isfinite(mos))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i}: {_refusal(lambda: self[i])}")

    @classmethod
    def _checked(cls, x, d_img, mos, id, dim) -> "Records":
        """A set over columns already checked: rows of a set, or a parsed file."""
        rs = cls.__new__(cls)
        rs.x, rs.d_img, rs.mos, rs.id, rs.dim = x, d_img, mos, id, dim
        return rs

    @property
    def d_txt(self) -> int:
        return self.x.shape[1] - self.d_img

    def __len__(self) -> int:
        return self.mos.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            row = self.x[key]
            return FeatureRecord(
                id=self.id[key],
                f_i=row[self.d_txt :],
                f_t=row[: self.d_txt],
                mos=self.mos[key],
                dim=self.dim[key],
            )
        return Records._checked(
            self.x[key], self.d_img, self.mos[key], self.id[key], self.dim[key]
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return self.d_img == other.d_img and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("x", "mos", "id", "dim")
        )

    def __repr__(self) -> str:
        return f"Records(n={len(self)}, d_img={self.d_img}, d_txt={self.d_txt})"


def as_records(records) -> Records:
    """``records`` as one set: a ``Records`` as it is, or a sequence of
    ``FeatureRecord`` rows gathered into columns.  An empty sequence gives
    an empty set with no feature columns."""
    if isinstance(records, Records):
        return records
    rows = list(records)
    x, d_img = _pairs_matrix(rows)
    return Records(
        x=x,
        d_img=d_img,
        mos=[r.mos for r in rows],
        id=[r.id for r in rows],
        dim=[r.dim for r in rows],
    )


def dim_counts(records) -> dict:
    dim = as_records(records).dim
    return {d: int(np.count_nonzero(dim == d)) for d in DIMS}


def _is_gzip(path) -> bool:
    return str(path).endswith(".gz")


def _numbers(values) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


def _refusal(record) -> str:
    """The message with which ``record()``, building a ``FeatureRecord``,
    refuses a row that a cheap check found bad."""
    try:
        record()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("a row found bad makes a valid record")


def _read_line(line: str, feats: array):
    """Check one record line, append its text then image features to
    ``feats``, and return (id, mos, dim's index in DIMS, (text, image)
    feature lengths).

    The file format's rules come first: JSON, one object with exactly the
    five keys, a score and feature entries that are JSON numbers.  The
    line's ``FeatureRecord`` then judges the rest and words its refusal.
    """
    try:
        obj = json.loads(line)
    # a deeply nested line exhausts the parser's recursion
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid record: {exc}") from None
    if type(obj) is not dict:
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    if obj.keys() != _KEY_SET:
        missing = [k for k in _FIELD_KEYS if k not in obj]
        if missing:
            raise ValueError(f"missing fields {missing}")
        raise ValueError(f"unknown fields {[k for k in obj if k not in _KEY_SET]}")
    ident, fi, ft, score, dim = _FIELDS(obj)
    if type(score) not in _NUMBER_TYPES:
        raise ValueError(f"mos must be a number, got {score!r}")
    for key, values in (("fi", fi), ("ft", ft)):
        if type(values) is not list or not _numbers(values):
            raise ValueError(f"{key} must be an array of numbers")
    record = FeatureRecord(id=ident, f_i=fi, f_t=ft, mos=score, dim=dim)
    feats.extend(ft)
    feats.extend(fi)
    return ident, record.mos, _DIM_CODES[dim], (len(ft), len(fi))


def _read_lines(run: bytes, cols, lineno: int, first):
    """Read a run of whole record lines one line at a time into ``cols``,
    the (features, scores, ids, tag indices) columns of ``_read_blocks``,
    and return ``(lineno, first)`` after the run: the count of lines read,
    and the first record's line number and (text, image) feature lengths
    (None before any record).  The first bad line is a ``ValueError``
    naming its line number.

    The run's lines end in ``\\n`` (see ``_read_blocks``); each line
    decodes on its own.
    """
    feats, scores, ids, dims = cols
    for raw in run.splitlines(keepends=True):
        lineno += 1
        try:
            line = raw.decode("utf-8")
            if line.isspace():
                continue
            ident, score, dim, widths = _read_line(line, feats)
            first = first or (lineno, widths)
            for name, got, want in zip(("image", "text"), widths[::-1], first[1][::-1]):
                if got != want:
                    raise ValueError(f"{name} feature length {got} != {want} from line {first[0]}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        ids.append(ident)
        scores.append(score)
        dims.append(dim)
    return lineno, first


def _screen_run(run: bytes, cols, lineno: int, first):
    """``_read_lines(run, cols, lineno, first)`` for a run that passes the
    bulk screen of ``_read_blocks``, the columns found and checked in bulk;
    None, with ``cols`` left as they were, for a run the screen doubts."""
    try:
        text = run.decode("utf-8")
        # only a run holding the literals can hold a boolean
        literals = "true" in text or "false" in text
        doc = "[[" + text.replace("\n", "\n],[") + "]]"
        lines = json.loads(doc)
        # each separator adds 3 characters; one array per line, and one
        # more after the run's last newline
        newlines = (len(doc) - len(text) - 4) // 3
        if len(lines) != newlines + 1 or max(map(len, lines)) > 1:
            return None
        rows = list(chain.from_iterable(lines))
        if not rows:
            return lineno + newlines, first
        if set(map(len, rows)) != {len(_FIELD_KEYS)}:
            return None
        ident, fi, ft, mos, dim = zip(*map(_FIELDS, rows))
        widths = first[1] if first else (len(ft[0]), len(fi[0]))
        if (
            set(map(type, ident)) != {str} or "" in ident or 0 in widths
            or set(map(len, ft)) != {widths[0]} or set(map(len, fi)) != {widths[1]}
        ):
            return None
        if literals and not _numbers(chain(mos, *ft, *fi)):
            return None
        run_feats = array("d", chain.from_iterable(chain.from_iterable(zip(ft, fi))))
        run_scores = array("d", mos)
        if not all(np.isfinite(np.frombuffer(a)).all() for a in (run_feats, run_scores)):
            return None
        run_dims = array("b", map(_DIM_CODES.__getitem__, dim))
    # a JSON or UTF-8 error is a ValueError, a line that is no object or a
    # non-number a TypeError, an integer too large for a float an
    # OverflowError, a missing key or a tag not in DIMS a KeyError, a deeply
    # nested line a RecursionError
    except (ValueError, TypeError, OverflowError, KeyError, RecursionError):
        return None
    feats, scores, ids, dims = cols
    feats += run_feats
    scores += run_scores
    ids += ident
    dims += run_dims
    first = first or (lineno + 1 + next(i for i, line in enumerate(lines) if line), widths)
    return lineno + newlines, first


def _line_runs(handle):
    """The bytes of ``handle``, read ``LOAD_BLOCK_BYTES`` at a time, in runs
    of whole lines: each ends at the last ``\\n`` or ``\\r`` read so far,
    but a ``\\r`` that ends a block waits for the next, whose first byte may
    make it a ``\\r\\n``; a last line without an end is the last run.  A
    line end never falls inside a UTF-8 character or a ``\\r\\n``, so each
    run decodes and splits into lines on its own."""
    pieces, cr = [], b""
    while block := handle.read(LOAD_BLOCK_BYTES):
        block = cr + block
        cr = b"\r" if block.endswith(b"\r") else b""
        block = block[: len(block) - len(cr)]
        end = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if not end:
            pieces.append(block)
            continue
        pieces.append(block[:end])
        run, pieces = b"".join(pieces), [block[end:]]
        del block  # not held while the caller parses the run
        yield run
    if tail := b"".join(pieces) + cr:
        yield tail


def _read_blocks(handle) -> Records:
    """The set a record file holds, read from ``handle`` in runs of whole
    lines (``_line_runs``), each screened in bulk; a run the screen doubts
    is read line by line (``_read_lines``), and the next run goes back to
    the screen.

    The screen parses a run with one ``json.loads`` of its lines, each
    wrapped as its own array, ``[[line 1\\n],[line 2\\n],...]``.  The
    separator holds a raw newline, which no JSON string may, so it cannot
    hide in a string; and a run passes only when it parses to one array per
    line, each holding nothing (a blank line) or one object whose feature
    entries are numbers, so every separator closes and opens a line's
    array.  Each line is then the object it would parse to on its own.  The
    run's columns are checked in bulk against the per-line reader's rules:
    exactly the five keys, non-empty string ids, scores and feature entries
    that are numbers (``array("d")`` takes exactly the JSON numbers and
    booleans; the types are checked one by one only in a run holding
    ``true`` or ``false``) and finite, tags in ``DIMS``, and feature lengths
    equal to the first record's, which may lie in an earlier run.  A run
    that does not decode is doubted too.  Only what the screen doubts
    reaches the per-line reader, which words every refusal with its line
    number.
    """
    # per record: its text then image features, its score, its id and its
    # tag's index in DIMS
    cols = feats, scores, ids, dims = array("d"), array("d"), [], array("b")
    # lines read; the first record's line and (text, image) feature lengths
    state = 0, None
    for run in _line_runs(handle):
        # every line end as the "\n" that the screen and the per-line reader
        # split at, as text mode reads it
        run = run.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        state = _screen_run(run, cols, *state) or _read_lines(run, cols, *state)
    _, first = state
    d_txt, d_img = first[1] if first else (0, 0)
    x = np.frombuffer(feats, dtype=np.float64).reshape(len(scores), d_txt + d_img)
    return Records._checked(
        x, d_img, np.frombuffer(scores, dtype=np.float64), _strings(ids),
        _DIM_TAGS[np.frombuffer(dims, dtype=np.int8)],
    )


def load_records(path) -> Records:
    """Read a record file into one set, rows in file order.

    Every line is checked (keys, types, finite numbers, and feature lengths
    equal to the first record's); the first malformed line is a
    ``ValueError`` naming its line number.  A name ending in ``.gz`` is read
    as gzip; a truncated or corrupt archive (a bad deflate stream, CRC,
    length or magic number) is a ``ValueError`` naming the path too, raised
    by the read that meets the damage, before the lines of that read are
    checked.

    Any file, a pipe or an archive alike, is opened once, in binary, and
    read ``LOAD_BLOCK_BYTES`` at a time through ``_read_blocks``, which
    screens each run of whole lines in bulk and reads a run it doubts line
    by line.
    """
    opener = gzip.open if _is_gzip(path) else open
    try:
        with opener(path, "rb") as handle:
            records = _read_blocks(handle)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: corrupt gzip data: {exc}") from exc
    counts = dim_counts(records)
    logger.info(
        "loaded %d records from %s (%s)",
        len(records),
        path,
        ", ".join(f"{d}={counts[d]}" for d in DIMS),
    )
    return records


_LINE = '{"id":%s,"fi":%s,"ft":%s,"mos":%r,"dim":%s}\n'


def _encode_chunks(rs: Records):
    """The file's bytes, ``SAVE_CHUNK_ROWS`` lines at a time.

    Each line is what ``json.dumps`` with separators ``(",", ":")`` gives
    for the record's object: a float list's repr with its spaces dropped is
    that list's JSON, both writing each float as its shortest repr.
    """
    d = rs.d_txt
    for start in range(0, len(rs), SAVE_CHUNK_ROWS):
        part = rs[start : start + SAVE_CHUNK_ROWS]
        columns = (part.id, part.x[:, d:], part.x[:, :d], part.mos, part.dim)
        yield "".join(
            _LINE
            % (
                encode_basestring_ascii(ident),
                repr(fi).replace(" ", ""),
                repr(ft).replace(" ", ""),
                score,
                encode_basestring_ascii(dim),
            )
            for ident, fi, ft, score, dim in zip(*(c.tolist() for c in columns))
        ).encode("ascii")


def _write_in_turn(sink, chunks) -> None:
    """``sink(chunk)`` for each of ``chunks`` in order, on the calling thread."""
    for chunk in chunks:
        sink(chunk)


def _write_behind(sink, chunks) -> None:
    """``sink(chunk)`` for each of ``chunks`` in order, on one worker thread,
    while the calling thread produces the next chunk.

    A produced chunk is handed over once the worker is done with the one
    before, so one chunk is in flight at a time.  The worker has stopped
    when this returns or raises; an error in ``sink`` stops the production
    and is raised here.
    """
    # imported here: it would add about 1 ms to every import of the package
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for chunk in chunks:
            if pending is not None:
                pending.result()
            pending = worker.submit(sink, chunk)
        if pending is not None:
            pending.result()


def save_records(path, records) -> None:
    """Write records one per line; ``load_records`` restores them exactly.

    ``records`` is a ``Records`` set or a sequence of ``FeatureRecord``.
    The calling thread encodes ``SAVE_CHUNK_ROWS`` lines at a time.  With
    more than one chunk, one worker thread writes each chunk (for a ``.gz``
    name, after its CRC-32 and deflate, which release the interpreter lock)
    while the next is encoded, one chunk in flight; it is joined before
    this returns, and an error it meets is raised here.  The header, the
    deflate flush and the trailer are written on the calling thread, so the
    file's bytes are those of writing the chunks one after another.
    """
    rs = as_records(records)
    # a single chunk leaves nothing to encode while it is written
    write = _write_behind if len(rs) > SAVE_CHUNK_ROWS else _write_in_turn
    with open(path, "wb") as handle:
        if not _is_gzip(path):
            write(handle.write, _encode_chunks(rs))
            return
        # one gzip member: the fixed header (no name, zero mtime, so equal
        # data -> equal bytes), a raw Huffman-only deflate body, and the
        # CRC-32 and length of the text.  Huffman-only coding makes no LZ77
        # matches, which shortest-repr float digits hardly have, so levels 1
        # to 9 write the same body: 1 stands for any of them
        deflate = zlib.compressobj(1, zlib.DEFLATED, -zlib.MAX_WBITS, strategy=zlib.Z_HUFFMAN_ONLY)
        crc = size = 0

        def sink(chunk):
            nonlocal crc, size
            crc, size = zlib.crc32(chunk, crc), size + len(chunk)
            handle.write(deflate.compress(chunk))

        handle.write(_GZIP_HEADER)
        write(sink, _encode_chunks(rs))
        handle.write(deflate.flush())
        handle.write(crc.to_bytes(4, "little") + (size % 2**32).to_bytes(4, "little"))


def normalize_mos(records) -> Records:
    """Min-max map the dataset's scores onto [0, 5], the rescaled prediction
    range, so normalized targets and head outputs are directly comparable.

    Returns a new set sharing the other columns.  The map is increasing and
    affine, so rank and linear correlations against the scores it maps are
    unchanged by it.
    """
    rs = as_records(records)
    if not len(rs):
        raise ValueError("cannot normalize an empty dataset")
    src_min, src_max = float(rs.mos.min()), float(rs.mos.max())
    if src_min == src_max:
        raise ValueError(f"scores are constant ({src_min}); range is undefined")
    scale = 5.0 / (src_max - src_min)
    return Records(
        x=rs.x, d_img=rs.d_img, mos=(rs.mos - src_min) * scale, id=rs.id, dim=rs.dim
    )


def split(records, train_fraction: float, seed: int = 0):
    """Deterministic shuffled split into (train, test) sets."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rs = as_records(records)
    order = np.random.default_rng(seed).permutation(len(rs))
    n_train = round(train_fraction * len(rs))
    return rs[order[:n_train]], rs[order[n_train:]]


def draw_features(rng, n: int, d_img: int, d_txt: int) -> np.ndarray:
    """n standard normal feature pairs from ``rng`` as an (n, d_txt + d_img)
    matrix in ``head.feature_matrix`` layout, drawn as each item's f_i and
    then its f_t.

    The two halves of each row are swapped in place, ``head.BLOCK_ELEMENTS``
    entries at a time, so the draw is the only full-size array.
    """
    feats = rng.standard_normal((n, d_img + d_txt))
    rows = max(1, BLOCK_ELEMENTS // feats.shape[1])
    for start in range(0, n, rows):
        block = feats[start : start + rows]
        block[...] = np.concatenate([block[:, d_img:], block[:, :d_img]], axis=1)
    return feats


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a generated dataset with a known ground-truth head."""

    n: int
    d_img: int = 16
    d_txt: int = 16
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_count("n", self.n, 2)
        _require_count("seed", self.seed, 0)
        _require_dims(self.d_img, self.d_txt)
        _require_non_negative("noise_sigma", self.noise_sigma)


def synth_generate(cfg: SynthConfig):
    """Generate (record set, planted head); same config -> bit-identical output.

    Head init, feature draws, and noise draws use independently spawned
    streams, so the features do not move when ``noise_sigma`` changes.
    """
    head_seed, feat_seed, noise_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    planted = init_head(cfg.d_img, cfg.d_txt, seed=head_seed)
    planted.agg_w *= ABILITY_SCALE
    x = draw_features(np.random.default_rng(feat_seed), cfg.n, cfg.d_img, cfg.d_txt)
    noise = np.random.default_rng(noise_seed).standard_normal(cfg.n)
    records = Records(
        x=x,
        d_img=cfg.d_img,
        mos=batch_scores(planted, x) + cfg.noise_sigma * noise,
        id=[f"synth-{i:05d}" for i in range(cfg.n)],
        dim=_DIM_TAGS[np.arange(cfg.n) % len(DIMS)],
    )
    return records, planted
