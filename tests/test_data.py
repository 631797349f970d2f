import gzip
import io
import json
import os
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import agrm.data
from agrm.cli import main
from agrm.data import (
    DIMS,
    GZIP_LEVEL,
    LOAD_BLOCK_BYTES,
    FeatureRecord,
    Records,
    SynthConfig,
    as_records,
    dim_counts,
    load_records,
    normalize_mos,
    save_records,
    split,
    synth_generate,
    _read_blocks,
    _read_lines,
)
from agrm.head import FeaturePair, head_forward, init_head
from agrm.losses import srcc


def rec(i=0, mos=2.5, dim="quality", fi=(1.0, 2.0), ft=(3.0, 4.0)):
    return FeatureRecord(id=f"r{i}", f_i=np.array(fi), f_t=np.array(ft), mos=mos, dim=dim)


class TestFeatureRecord:
    def test_valid_construction(self):
        r = rec()
        assert r.id == "r0"
        assert r.mos == 2.5
        assert r.f_i.dtype == np.float64

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            rec(dim="sharpness")

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="id"):
            FeatureRecord(id="", f_i=[1.0], f_t=[1.0], mos=0.0, dim="quality")

    def test_rejects_nonfinite_mos(self):
        with pytest.raises(ValueError, match="mos"):
            rec(mos=float("nan"))

    def test_rejects_nonfinite_vector(self):
        with pytest.raises(ValueError):
            rec(fi=(1.0, float("inf")))

    @pytest.mark.parametrize("field", ["f_i", "f_t", "mos"])
    def test_integer_too_large_for_a_float_is_a_value_error(self, field):
        kwargs = {"id": "a", "f_i": [1.0], "f_t": [1.0], "mos": 1.0, "dim": "quality"}
        kwargs[field] = 10**400 if field == "mos" else [10**400]
        with pytest.raises(ValueError, match=f"^{field} holds a number too large for a float$"):
            FeatureRecord(**kwargs)

    def test_equality_is_exact(self):
        assert rec() == rec()
        assert rec() != rec(mos=2.5 + 1e-15)
        assert rec() != rec(fi=(1.0, 2.0 + 1e-15))
        assert rec() != "not a record"

    def test_pair_shares_vectors(self):
        r = rec()
        p = r.pair()
        assert np.array_equal(p.f_i, r.f_i)
        assert np.array_equal(p.f_t, r.f_t)

    def test_record_is_a_feature_pair(self):
        r = rec()
        assert isinstance(r, FeaturePair)
        assert r.pair() is r

    def test_scores_like_the_bare_pair(self):
        hp = init_head(2, 2, seed=0)
        r = rec()
        a = head_forward(hp, r)
        b = head_forward(hp, FeaturePair(f_i=r.f_i, f_t=r.f_t))
        for field, got, want in zip(a._fields, a, b):
            assert np.array_equal(got, want), field

    def test_metadata_is_keyword_only(self):
        with pytest.raises(TypeError):
            FeatureRecord([1.0], [1.0], "r0", 0.0, "quality")


class TestLoadSave:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_records(p) == as_records([])

    def test_single_record_round_trip(self, tmp_path):
        p = tmp_path / "one.jsonl"
        r = rec(mos=0.1)  # 0.1 is not dyadic; repr round trip must still hold
        save_records(p, [r])
        back = load_records(p)
        assert back == as_records([r])

    def test_round_trip_many(self, tmp_path):
        rng = np.random.default_rng(5)
        recs = [
            FeatureRecord(
                id=f"r{i}",
                f_i=rng.normal(size=4),
                f_t=rng.normal(size=3),
                mos=rng.uniform(0, 5),
                dim=DIMS[i % 3],
            )
            for i in range(20)
        ]
        p = tmp_path / "many.jsonl"
        save_records(p, recs)
        assert load_records(p) == as_records(recs)

    def test_gzip_round_trip(self, tmp_path):
        p = tmp_path / "z.jsonl.gz"
        recs = [rec(0), rec(1, mos=1.25)]
        save_records(p, recs)
        with gzip.open(p, "rt") as fh:
            assert len(fh.readlines()) == 2
        assert load_records(p) == as_records(recs)

    def test_gzip_bytes_deterministic(self, tmp_path):
        recs = [rec(0)]
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        save_records(a, recs)
        save_records(b, recs)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality"})
        p.write_text(good + "\n{oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_records(p)

    def test_mismatched_vector_length_reports_line_number(self, tmp_path):
        p = tmp_path / "dims.jsonl"
        lines = [
            {"id": "a", "fi": [1.0, 2.0], "ft": [1.0], "mos": 1.0, "dim": "quality"},
            {"id": "b", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality"},
        ]
        p.write_text("".join(json.dumps(l) + "\n" for l in lines))
        with pytest.raises(ValueError, match="line 2"):
            load_records(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "miss.jsonl"
        p.write_text(json.dumps({"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0}) + "\n")
        with pytest.raises(ValueError, match="missing.*dim"):
            load_records(p)

    def test_unknown_field(self, tmp_path):
        p = tmp_path / "extra.jsonl"
        obj = {"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality", "x": 1}
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="unknown"):
            load_records(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.jsonl"
        good = json.dumps({"id": "a", "fi": [1.0], "ft": [1.0], "mos": 1.0, "dim": "quality"})
        p.write_text("\n" + good + "\n\n")
        assert len(load_records(p)) == 1

    def test_dim_counts(self):
        recs = [rec(0, dim="quality"), rec(1, dim="quality"), rec(2, dim="authenticity")]
        assert dim_counts(recs) == {"quality": 2, "consistency": 0, "authenticity": 1}


def json_lines_oracle(records) -> bytes:
    """The record file as one ``json.dumps`` per record writes it."""
    return "".join(
        json.dumps(
            {
                "id": r.id,
                "fi": [float(v) for v in r.f_i],
                "ft": [float(v) for v in r.f_t],
                "mos": r.mos,
                "dim": r.dim,
            },
            separators=(",", ":"),
        )
        + "\n"
        for r in records
    ).encode("utf-8")


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 2.0**53, 1e16, 0.1]
ENTRIES = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
IDS = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "tab\tnew\nline", "caf\u00e9", "\u6f22\u5b57",
                     "\U0001f600", "nul\x00", "\u2028", "true", "falsetto"]),
    st.text(min_size=1),
)


@st.composite
def record_sets(draw):
    n = draw(st.integers(1, 5))
    d_img, d_txt = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(ENTRIES, min_size=d_img + d_txt, max_size=d_img + d_txt)
    return Records(
        x=draw(st.lists(row, min_size=n, max_size=n)),
        d_img=d_img,
        mos=draw(st.lists(ENTRIES, min_size=n, max_size=n)),
        id=draw(st.lists(IDS, min_size=n, max_size=n)),
        dim=draw(st.lists(st.sampled_from(DIMS), min_size=n, max_size=n)),
    )


class TestRecords:
    def test_columns_and_rows(self):
        rs = as_records([rec(0, fi=(1.0, 2.0, 3.0)), rec(1, mos=4.0, dim="authenticity", fi=(5.0, 6.0, 7.0))])
        assert (len(rs), rs.d_img, rs.d_txt) == (2, 3, 2)
        assert rs.x.tolist() == [[3.0, 4.0, 1.0, 2.0, 3.0], [3.0, 4.0, 5.0, 6.0, 7.0]]
        assert rs.mos.tolist() == [2.5, 4.0]
        assert rs.id.tolist() == ["r0", "r1"] and rs.dim.tolist() == ["quality", "authenticity"]
        assert rs[1] == rec(1, mos=4.0, dim="authenticity", fi=(5.0, 6.0, 7.0))
        assert list(rs) == [rs[0], rs[1]]
        assert rs[1:] == as_records([rs[1]])
        assert rs[np.array([1, 0])] == as_records([rs[1], rs[0]])
        assert rs[rs.dim == "quality"] == as_records([rs[0]])

    def test_rows_view_the_matrix(self):
        rs, _ = synth_generate(SynthConfig(n=4, d_img=3, d_txt=2, seed=1))
        r = rs[2]
        assert np.shares_memory(r.f_i, rs.x) and np.shares_memory(r.f_t, rs.x)
        assert r.pair() is r

    def test_as_records_keeps_a_set(self):
        rs, _ = synth_generate(SynthConfig(n=4, seed=1))
        assert as_records(rs) is rs

    def test_equality_is_exact(self):
        a = as_records([rec(0), rec(1)])
        assert a == as_records([rec(0), rec(1)])
        assert a != as_records([rec(0), rec(1, mos=2.5 + 1e-15)])
        assert a != as_records([rec(0), rec(2)])
        assert a != as_records([rec(0), rec(1, dim="consistency")])
        assert a != as_records([rec(0), rec(1, fi=(1.0, 2.0 + 1e-15))])
        assert a != as_records([rec(0)])
        assert a != [rec(0), rec(1)]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"x": [[1.0, float("nan")]]}, "row 0: f_i contains non-finite entries"),
            ({"mos": [float("inf")]}, "row 0: mos must be finite"),
            ({"id": [""]}, "row 0: id must be a non-empty string"),
            ({"id": [7]}, "row 0: id must be a non-empty string"),
            ({"dim": ["sharpness"]}, "row 0: dim must be one of"),
            ({"d_img": 2}, "feature dims must be >= 1"),
            ({"mos": [1.0, 2.0]}, "column shapes disagree"),
            ({"x": [1.0, 2.0]}, "column shapes disagree"),
        ],
    )
    def test_checked_once_when_built(self, change, message):
        cols = {"x": [[1.0, 2.0]], "d_img": 1, "mos": [1.0], "id": ["a"], "dim": ["quality"]}
        with pytest.raises(ValueError, match=message):
            Records(**{**cols, **change})

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from([0.5, -2.0, 1e308, -1e308, float("nan"), float("inf"), -float("inf")]),
                     min_size=3, max_size=3),
            min_size=1, max_size=6,
        ),
        mos=st.sampled_from([1.0, 1e308, float("nan")]),
    )
    def test_refusal_is_the_first_row_with_a_non_finite_entry(self, rows, mos):
        """Rows whose sums overflow are accepted; the first row with a
        non-finite entry or score is refused with its record's message."""
        x, scores = np.array(rows), np.full(len(rows), mos)
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(scores))
        cols = {"d_img": 1, "mos": scores, "id": ["a"] * len(rows), "dim": ["quality"] * len(rows)}
        if not bad.any():
            assert Records(x=x, **cols).x is x
            return
        i = int(np.argmax(bad))
        with pytest.raises(ValueError) as refusal:
            Records(x=x, **cols)
        with pytest.raises(ValueError) as record:
            FeatureRecord(id="a", f_i=x[i, 2:], f_t=x[i, :2], mos=mos, dim="quality")
        assert str(refusal.value) == f"row {i}: {record.value}"

    @pytest.mark.parametrize("column, value", [("x", [[10**400, 1.0]]), ("mos", [10**400])])
    def test_integer_too_large_for_a_float_is_a_value_error(self, column, value):
        cols = {"x": [[1.0, 2.0]], "d_img": 1, "mos": [1.0], "id": ["a"], "dim": ["quality"]}
        with pytest.raises(ValueError, match=f"^{column} holds a number too large for a float$"):
            Records(**{**cols, column: value})

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError, match="row 1: feature sizes"):
            as_records([rec(0), rec(1, fi=(1.0, 2.0, 3.0))])


class TestRoundTrip:
    """save -> load gives back the same set, bit for bit, in both formats."""

    @settings(
        derandomize=True, max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rs=record_sets())
    def test_round_trip_is_exact(self, tmp_path, rs):
        plain, packed = tmp_path / "r.jsonl", tmp_path / "r.jsonl.gz"
        save_records(plain, rs)
        save_records(packed, rs)
        assert plain.read_bytes() == json_lines_oracle(rs)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        for path in (plain, packed):
            back = load_records(path)
            assert back == rs
            # == takes -0.0 for 0.0; the bytes do not
            assert back.x.tobytes() == rs.x.tobytes()
            assert back.mos.tobytes() == rs.mos.tobytes()
            assert back.id.tolist() == rs.id.tolist()

    def test_synth_file_matches_the_per_record_encoder(self, tmp_path, capsys):
        """``agrm synth`` output, byte for byte, against one ``json.dumps``
        per record: the encoding of record files before record sets."""
        out = tmp_path / "d.jsonl"
        assert main(["synth", "--n", "300", "--noise", "0.3", "--seed", "4", "--out", str(out)]) == 0
        recs, _ = synth_generate(SynthConfig(n=300, noise_sigma=0.3, seed=4))
        assert out.read_bytes() == json_lines_oracle(recs)

    def test_archive_is_written_at_the_fixed_level(self, tmp_path):
        recs, _ = synth_generate(SynthConfig(n=50, seed=2))
        path = tmp_path / "d.jsonl.gz"
        save_records(path, recs)
        raw = path.read_bytes()
        # header: deflate, no flags or name, zero mtime, the extra-flags
        # byte of level 1 and OS 255, as gzip.GzipFile writes it
        assert raw[:10] == bytes.fromhex("1f8b08000000000004ff")
        assert GZIP_LEVEL == 1

    @pytest.mark.parametrize("chunk_rows", [agrm.data.SAVE_CHUNK_ROWS, 4])
    def test_archive_is_one_gzip_member_of_the_plain_bytes(self, tmp_path, monkeypatch, chunk_rows):
        """The header, one raw deflate stream of the plain file's bytes, and
        their CRC-32 and length; nothing else.  Small chunks make many
        hand-offs to the writer's worker thread."""
        recs, _ = synth_generate(SynthConfig(n=300, noise_sigma=0.2, seed=6))
        monkeypatch.setattr(agrm.data, "SAVE_CHUNK_ROWS", chunk_rows)
        plain, packed = tmp_path / "d.jsonl", tmp_path / "d.jsonl.gz"
        save_records(plain, recs)
        save_records(packed, recs)
        text, body = plain.read_bytes(), zlib.decompressobj(-zlib.MAX_WBITS)
        assert body.decompress(packed.read_bytes()[10:]) == text and body.eof
        assert body.unused_data == zlib.crc32(text).to_bytes(4, "little") + len(text).to_bytes(4, "little")
        assert load_records(packed) == recs

    def test_huffman_only_archive_is_at_most_a_tenth_larger_than_level_1(self, tmp_path):
        recs, _ = synth_generate(SynthConfig(n=2000, noise_sigma=0.25, seed=1))
        plain, packed = tmp_path / "d.jsonl", tmp_path / "d.jsonl.gz"
        save_records(plain, recs)
        save_records(packed, recs)
        level_1 = gzip.compress(plain.read_bytes(), compresslevel=1, mtime=0)
        assert len(packed.read_bytes()) <= 1.10 * len(level_1)

    def test_archives_of_any_level_load(self, tmp_path):
        recs, _ = synth_generate(SynthConfig(n=40, seed=3))
        plain = tmp_path / "d.jsonl"
        save_records(plain, recs)
        for level in (0, 6, 9):
            path = tmp_path / f"d{level}.jsonl.gz"
            path.write_bytes(gzip.compress(plain.read_bytes(), compresslevel=level, mtime=0))
            assert load_records(path) == recs

    def test_archives_of_gzip_file_load(self, tmp_path):
        """Archives written through ``gzip.GzipFile`` at level 1, as the
        writer made them before its body was Huffman-only, load the same."""
        recs, _ = synth_generate(SynthConfig(n=40, seed=3))
        plain = tmp_path / "d.jsonl"
        save_records(plain, recs)
        buffer = io.BytesIO()
        with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0, compresslevel=1) as out:
            out.write(plain.read_bytes())
        path = tmp_path / "old.jsonl.gz"
        path.write_bytes(buffer.getvalue())
        assert path.read_bytes()[:10] == bytes.fromhex("1f8b08000000000004ff")
        assert load_records(path) == recs

    def test_save_takes_rows_and_writes_in_chunks(self, tmp_path, monkeypatch):
        import agrm.data

        recs, _ = synth_generate(SynthConfig(n=25, seed=5))
        whole = tmp_path / "whole.jsonl"
        save_records(whole, recs)
        monkeypatch.setattr(agrm.data, "SAVE_CHUNK_ROWS", 4)
        chunked = tmp_path / "chunked.jsonl"
        save_records(chunked, list(recs))
        assert chunked.read_bytes() == whole.read_bytes()


class TestWriterPipeline:
    """``save_records`` encodes on the calling thread and writes a set of
    more than one chunk on one worker thread, joined before it returns."""

    @pytest.mark.parametrize("failing", [2, 7])
    @pytest.mark.parametrize("name", ["d.jsonl", "d.jsonl.gz"])
    def test_a_sink_error_is_raised_once_the_worker_has_stopped(
        self, tmp_path, monkeypatch, name, failing
    ):
        recs, _ = synth_generate(SynthConfig(n=25, seed=5))
        monkeypatch.setattr(agrm.data, "SAVE_CHUNK_ROWS", 4)  # 7 chunks
        error = OSError("disk full")
        caller = threading.current_thread()
        opened, encoded = [], []

        class FailingFile:
            """A file whose chunk write number ``failing`` off the calling
            thread raises."""

            def __init__(self, path, mode):
                self.file, self.chunks = open(path, mode), 0
                opened.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                if threading.current_thread() is not caller:
                    self.chunks += 1
                    if self.chunks == failing:
                        raise error
                return self.file.write(data)

        encode = agrm.data._encode_chunks

        def counted(rs):
            for chunk in encode(rs):
                encoded.append(chunk)
                yield chunk

        monkeypatch.setattr(agrm.data, "open", FailingFile, raising=False)
        monkeypatch.setattr(agrm.data, "_encode_chunks", counted)
        threads = threading.active_count()
        with pytest.raises(OSError) as raised:
            save_records(tmp_path / name, recs)
        assert raised.value is error
        assert threading.active_count() == threads
        [handle] = opened
        assert handle.file.closed and handle.chunks == failing
        # production stops with the chunk encoded while the failing one was written
        assert len(encoded) == min(failing + 1, 7)

    def test_only_a_set_of_more_than_one_chunk_starts_a_thread(self, tmp_path, monkeypatch):
        recs, _ = synth_generate(SynthConfig(n=5, seed=5))
        monkeypatch.setattr(agrm.data, "SAVE_CHUNK_ROWS", 4)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        for n, threads in ((1, 0), (4, 0), (5, 1)):
            for path in (tmp_path / f"{n}.jsonl", tmp_path / f"{n}.jsonl.gz"):
                started.clear()
                save_records(path, recs[:n])
                assert len(started) == threads
                assert load_records(path) == recs[:n]

    def test_an_empty_set_is_the_empty_member(self, tmp_path):
        path = tmp_path / "e.jsonl.gz"
        threads = threading.active_count()
        save_records(path, [])
        assert threading.active_count() == threads
        assert path.read_bytes() == bytes.fromhex("1f8b08000000000004ff0300") + bytes(8)
        assert len(load_records(path)) == 0

    def test_concurrent_saves_each_write_their_own_archive(self, tmp_path, monkeypatch):
        """Four saves at once, more than the cores of a small machine, with
        the interpreter switching threads as often as it can."""
        monkeypatch.setattr(agrm.data, "SAVE_CHUNK_ROWS", 8)
        sets = [synth_generate(SynthConfig(n=60 + 10 * i, seed=i))[0] for i in range(4)]
        plains = []
        for i, rs in enumerate(sets):
            save_records(tmp_path / f"{i}.jsonl", rs)
            plains.append((tmp_path / f"{i}.jsonl").read_bytes())
        errors = []

        def save(i):
            try:
                save_records(tmp_path / f"{i}.jsonl.gz", sets[i])
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=save, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for i, rs in enumerate(sets):
            path = tmp_path / f"{i}.jsonl.gz"
            assert gzip.decompress(path.read_bytes()) == plains[i]
            assert load_records(path) == rs


def per_line_load(path):
    """The set a record file holds as the per-line reader alone reads it:
    the oracle of the block reader, refusals worded the same."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            return _read_lines(handle)
    except (EOFError, zlib.error) as exc:
        raise ValueError(f"{path}: corrupt gzip data: {exc}") from exc


def outcome(load, path):
    """What ``load(path)`` gives: the set, or the refusal's type and message."""
    try:
        return load(path)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(path):
    got, want = outcome(load_records, path), outcome(per_line_load, path)
    if not isinstance(want, Records):
        assert got == want
        return
    assert_same_records(got, want)


def assert_same_records(got, want):
    """``got`` is the set ``want``, bit for bit."""
    assert isinstance(got, Records), got
    assert got.d_img == want.d_img and got.x.shape == want.x.shape
    assert got.x.tobytes() == want.x.tobytes()
    assert got.mos.tobytes() == want.mos.tobytes()
    assert got.id.tolist() == want.id.tolist()
    assert got.dim.tolist() == want.dim.tolist()
    assert all(d is DIMS[DIMS.index(d)] for d in got.dim)


def load_from_pipe(tmp_path, text):
    """``load_records`` of a named pipe that a writer thread fills with ``text``."""
    fifo = tmp_path / "pipe.jsonl"
    os.mkfifo(fifo)

    def feed():
        # one writer per open of the read end; a second read gets ""
        for chunk in (text, ""):
            with open(fifo, "w", newline="") as out:
                out.write(chunk)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    loaded = load_records(fifo)
    # release the writer waiting for a second reader
    os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    writer.join(timeout=10)
    return loaded


# block sizes from one byte, which splits every multi-byte character and
# every line, to the reader's own
BLOCK_SIZES = st.sampled_from([1, 2, 3, 5, 17, 64, 300, 4096, LOAD_BLOCK_BYTES])


@st.composite
def record_texts(draw):
    """The text of a valid record file, in the freedom the format leaves a
    writer: escaped or raw non-ASCII ids, integer entries and scores, LF,
    CRLF or bare-CR line ends, blank lines, and no newline at the end."""
    rs = draw(record_sets())
    parts = []
    for i, r in enumerate(rs):
        def number(v):
            return int(v) if v.is_integer() and draw(st.booleans()) else v
        obj = {
            "id": r.id, "fi": [number(v) for v in r.f_i.tolist()],
            "ft": [number(v) for v in r.f_t.tolist()], "mos": number(r.mos), "dim": r.dim,
        }
        parts.append(draw(st.sampled_from(["", "\n", "  \n", "\t\r\n"])))
        parts.append(json.dumps(obj, ensure_ascii=draw(st.booleans())))
        last = i == len(rs) - 1
        parts.append(draw(st.sampled_from(["\n", "\n", "\r\n", "\r"] + [""] * last)))
    return "".join(parts)


class TestBlockReader:
    """The block reader gives what the per-line reader gives, bit for bit,
    or refuses with its exact message; every doubt goes to it."""

    @settings(
        derandomize=True, max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=record_texts(), block=BLOCK_SIZES, packed=st.booleans())
    def test_valid_files_load_as_the_per_line_reader_reads_them(self, tmp_path, text, block, packed):
        raw = text.encode("utf-8")
        path = tmp_path / ("r.jsonl.gz" if packed else "r.jsonl")
        path.write_bytes(gzip.compress(raw, mtime=0) if packed else raw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agrm.data, "LOAD_BLOCK_BYTES", block)
            assert_same_outcome(path)
            # only a line end the per-line reader splits apart from "\n"
            # sends a valid file to it
            if "\r" not in text.replace("\r\n", ""):
                assert _read_blocks(io.BytesIO(raw)) is not None

    @settings(
        derandomize=True, max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rs=record_sets(), block=BLOCK_SIZES, data=st.data())
    def test_a_corrupted_line_is_refused_as_the_per_line_reader_refuses_it(
        self, tmp_path, rs, block, data
    ):
        lines = json_lines_oracle(rs).decode("utf-8").splitlines(keepends=True)
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        line = lines[at]
        i = data.draw(st.integers(0, len(line) - 1), label="at")
        kind = data.draw(st.sampled_from(["cut", "insert", "delete", "replace"]), label="kind")
        char = data.draw(st.sampled_from(list('[]{}",:\n\r 0.-eE\\tfx\u00e9')), label="char")
        lines[at] = {
            "cut": line[:i] + "\n",
            "insert": line[:i] + char + line[i:],
            "delete": line[:i] + line[i + 1 :],
            "replace": line[:i] + char + line[i + 1 :],
        }[kind]
        path = tmp_path / "r.jsonl"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agrm.data, "LOAD_BLOCK_BYTES", block)
            assert_same_outcome(path)

    @settings(
        derandomize=True, max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rs=record_sets(), data=st.data())
    def test_a_damaged_archive_is_refused_as_the_per_line_reader_refuses_it(self, tmp_path, rs, data):
        path = tmp_path / "r.jsonl.gz"
        save_records(path, rs)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(1, len(raw) - 1), label="cut")]
        else:
            raw[data.draw(st.integers(10, len(raw) - 1), label="at")] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agrm.data, "LOAD_BLOCK_BYTES", data.draw(BLOCK_SIZES, label="block"))
            assert_same_outcome(path)

    GOOD = '{"id":"a","fi":[1.0,2.0],"ft":[3.0],"mos":1.0,"dim":"quality"}'

    @pytest.mark.parametrize(
        "text, lineno",
        [
            # two objects on one line: a wrapper holding two objects, ...
            (GOOD + "\n" + GOOD + "," + GOOD + "\n", 2),
            # ... one more wrapper than lines, ...
            (GOOD + "\n" + GOOD + "],[" + GOOD + "\n", 2),
            # ... or none that parses
            (GOOD + "\n" + GOOD + GOOD + "\n", 2),
            # an fi array left open and continued on the next line, whose
            # wrapped block parses to one object for two lines
            ('{"id":"a","fi":[[1.0\n2.0]],"ft":[3.0],"mos":1.0,"dim":"quality"}\n', 1),
            ('{"id":"a","fi":[1.0,\n2.0],"ft":[3.0],"mos":1.0,"dim":"quality"}\n', 1),
            # a string left open and closed on the next line, alone or
            # with a second object that makes up the count of wrappers
            ('{"id":"a\nb","fi":[1.0,2.0],"ft":[3.0],"mos":1.0,"dim":"quality"}\n', 1),
            ('{"id":"a\nb","fi":[1.0,2.0],"ft":[3.0],"mos":1.0,"dim":"quality"}],[' + GOOD + "\n", 1),
            # a bare carriage return ends a line for the per-line reader
            ('{"id":"a","fi":[1.0,2.0],\r"ft":[3.0],"mos":1.0,"dim":"quality"}\n', 1),
        ],
        ids=["two-objects", "two-wrappers", "two-objects-unseparated", "open-fi-nested",
             "open-fi", "open-string", "open-string-two-wrappers", "bare-cr"],
    )
    def test_seams_between_lines_are_refused_with_the_line(self, tmp_path, text, lineno):
        path = tmp_path / "r.jsonl"
        path.write_bytes(text.encode())
        assert _read_blocks(io.BytesIO(text.encode())) is None
        with pytest.raises(ValueError) as refusal:
            load_records(path)
        assert str(refusal.value).startswith(f"line {lineno}: invalid record: ")
        assert_same_outcome(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"fi": []}, "f_i must be a non-empty 1-d vector"),
            ({"ft": []}, "f_t must be a non-empty 1-d vector"),
            ({"fi": [], "ft": []}, "f_i must be a non-empty 1-d vector"),
        ],
    )
    def test_empty_features_in_every_record_are_refused(self, tmp_path, fields, message):
        """Feature lengths all equal to the first record's, and 0."""
        obj = {**json.loads(self.GOOD), **fields}
        path = tmp_path / "r.jsonl"
        path.write_text((json.dumps(obj) + "\n") * 2)
        with pytest.raises(ValueError, match="^line 1: " + message):
            load_records(path)
        assert_same_outcome(path)

    @pytest.mark.parametrize("suffix", ["jsonl", "jsonl.gz"])
    def test_a_valid_file_never_reaches_the_per_line_reader(self, tmp_path, monkeypatch, suffix):
        """Blocks end mid-line and mid-file, and one record line is longer
        than a block; the block reader reads it all."""
        recs, _ = synth_generate(SynthConfig(n=600, noise_sigma=0.2, seed=7))
        wide, _ = synth_generate(SynthConfig(n=3, d_img=3000, d_txt=2000, seed=8))
        path = tmp_path / f"r.{suffix}"
        for rs in (recs, wide):
            save_records(path, rs)
            monkeypatch.setattr(agrm.data, "_read_lines", lambda lines: pytest.fail("per-line read"))
            loaded = load_records(path)
            monkeypatch.undo()
            assert loaded == rs and loaded.x.tobytes() == rs.x.tobytes()
        assert len(path.read_bytes() if suffix == "jsonl" else gzip.decompress(path.read_bytes())) > (
            3 * LOAD_BLOCK_BYTES
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_once(self, tmp_path):
        """A pipe cannot be read twice, so a file the screen would doubt (a
        bare carriage return) still loads whole from it."""
        loaded = load_from_pipe(tmp_path, self.GOOD + "\r" + self.GOOD + "\n")
        assert len(loaded) == 2 and loaded.id.tolist() == ["a", "a"]

    # integer entries that each fit a float but whose exact sum does not,
    # then a float, whose addition to that sum overflows
    OUTGROWN = '{"id":"a","fi":[1.0],"ft":[%d,%d,-0.0],"mos":1.0,"dim":"quality"}' % (
        (int(sys.float_info.max),) * 2
    )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_entries_whose_integer_sum_outgrows_a_float_load_on_every_path(self, tmp_path):
        text = self.OUTGROWN + "\n" + self.OUTGROWN + "\n"
        want = _read_blocks(io.BytesIO(text.encode()))
        assert want is not None and want.x[0].tolist() == [sys.float_info.max] * 2 + [-0.0, 1.0]
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        bare_cr = tmp_path / "cr.jsonl"
        bare_cr.write_text(text.replace("\n", "\r", 1), newline="")
        assert_same_records(load_records(path), want)
        assert_same_records(per_line_load(path), want)
        assert_same_records(load_records(bare_cr), want)
        assert_same_records(load_from_pipe(tmp_path, text), want)

    def test_loaded_tags_are_the_dims_strings(self, tmp_path):
        recs, _ = synth_generate(SynthConfig(n=30, seed=2))
        path = tmp_path / "r.jsonl"
        save_records(path, recs)
        # a blank line with a form feed sends the file to the per-line reader
        doubted = tmp_path / "doubted.jsonl"
        doubted.write_bytes(b"\x0c\n" + path.read_bytes())
        for p in (path, doubted):
            loaded = load_records(p)
            assert loaded == recs
            for i, d in enumerate(loaded.dim):
                assert d is DIMS[i % len(DIMS)]


class TestNormalizeMos:
    def test_full_range_unchanged(self):
        recs = [rec(i, mos=m) for i, m in enumerate([0.0, 2.5, 5.0])]
        out = normalize_mos(recs)
        assert [r.mos for r in out] == [0.0, 2.5, 5.0]

    def test_typical_opinion_scale(self):
        recs = [rec(i, mos=m) for i, m in enumerate([1.0, 3.0, 5.0])]
        out = normalize_mos(recs)
        assert [r.mos for r in out] == [0.0, 2.5, 5.0]

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        recs = [rec(i, mos=m) for i, m in enumerate(rng.uniform(1.3, 4.1, size=50))]
        out = normalize_mos(recs)
        lo, hi = min(r.mos for r in recs), max(r.mos for r in recs)
        for before, after in zip(recs, out):
            assert abs(lo + after.mos * (hi - lo) / 5.0 - before.mos) < 1e-12

    def test_transform_is_plain_affine(self):
        recs = [rec(i, mos=m) for i, m in enumerate([1.0, 3.0, 5.0, 2.0, 4.5])]
        assert [r.mos for r in normalize_mos(recs)] == [0.0, 2.5, 5.0, 1.25, 4.375]

    def test_constant_scores_rejected(self):
        recs = [rec(i, mos=3.0) for i in range(4)]
        with pytest.raises(ValueError, match="constant"):
            normalize_mos(recs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_mos([])


class TestSplit:
    def test_sizes(self):
        recs = [rec(i) for i in range(10)]
        tr, te = split(recs, 0.8, seed=0)
        assert (len(tr), len(te)) == (8, 2)

    def test_same_seed_same_split(self):
        recs = [rec(i) for i in range(25)]
        a = split(recs, 0.6, seed=9)
        b = split(recs, 0.6, seed=9)
        assert a == b

    def test_different_seed_usually_differs(self):
        recs = [rec(i) for i in range(25)]
        a = split(recs, 0.6, seed=1)
        b = split(recs, 0.6, seed=2)
        assert [r.id for r in a[0]] != [r.id for r in b[0]]

    def test_union_is_input_multiset(self):
        recs = [rec(i) for i in range(13)]
        tr, te = split(recs, 0.5, seed=4)
        assert sorted(r.id for r in list(tr) + list(te)) == sorted(r.id for r in recs)
        assert not {r.id for r in tr} & {r.id for r in te}

    def test_fraction_bounds(self):
        recs = [rec(i) for i in range(4)]
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(recs, frac)


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig(n=10)
        assert (cfg.d_img, cfg.d_txt) == (16, 16)
        assert cfg.noise_sigma == 0.0

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            SynthConfig(n=1)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5, d_img=0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5, noise_sigma=-0.1)


class TestSynthGenerate:
    def test_noiseless_scores_match_planted_head_exactly(self):
        recs, planted = synth_generate(SynthConfig(n=50, seed=3))
        for r in recs:
            assert r.mos == head_forward(planted, r.pair()).q_rescaled

    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(n=30, seed=8, noise_sigma=0.2)
        a, ha = synth_generate(cfg)
        b, hb = synth_generate(cfg)
        assert a == b
        assert all(
            np.array_equal(getattr(ha, f), getattr(hb, f))
            for f in ("agg_w", "phi_beta_w", "phi_gamma_w", "phi_i_w")
        )

    def test_noise_change_keeps_features(self):
        a, _ = synth_generate(SynthConfig(n=20, seed=5))
        b, _ = synth_generate(SynthConfig(n=20, seed=5, noise_sigma=0.3))
        for x, y in zip(a, b):
            assert np.array_equal(x.f_i, y.f_i)
            assert np.array_equal(x.f_t, y.f_t)
            assert x.mos != y.mos

    def test_sigma_band_holds_at_scale(self):
        recs, _ = synth_generate(SynthConfig(n=10_000, noise_sigma=0.1, seed=0))
        mos = np.array([r.mos for r in recs])
        assert mos.min() >= -0.4
        assert mos.max() <= 5.4

    def test_noiseless_rank_agreement_is_perfect(self):
        recs, planted = synth_generate(SynthConfig(n=100, seed=2))
        pred = [head_forward(planted, r.pair()).q_rescaled for r in recs]
        assert srcc(pred, [r.mos for r in recs]) == 1.0

    def test_dim_tags_cycle(self):
        recs, _ = synth_generate(SynthConfig(n=7, seed=1))
        assert [r.dim for r in recs[:4]] == [
            "quality",
            "consistency",
            "authenticity",
            "quality",
        ]

    def test_scores_spread_over_range(self):
        recs, _ = synth_generate(SynthConfig(n=500, seed=6))
        mos = np.array([r.mos for r in recs])
        assert mos.min() < 1.0 and mos.max() > 4.0
