"""SEMW/SEMF container round trips and corruption error kinds."""
import struct

import numpy as np
import pytest

from semcom import weights_io
from semcom.weights_io import (SEMW_MAGIC, ContainerFormatError,
                               ContainerTruncatedError, ContainerVersionError,
                               read_arrays, read_frames, write_arrays,
                               write_frames)


def f32_grid(arr):
    return np.asarray(arr).astype(np.float32).astype(np.float64)


def record_reads(monkeypatch):
    """Make weights_io open files through a wrapper that logs read sizes."""
    reads = []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def read(self, n=-1):
            reads.append(n)
            return self.fh.read(n)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(weights_io, "open",
                        lambda *args, **kw: Recording(open(*args, **kw)),
                        raising=False)
    return reads


@pytest.fixture
def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "conv.weights": f32_grid(rng.standard_normal((2, 3, 3, 3, 3))),
        "conv.bias": f32_grid(rng.standard_normal(2)),
        "meta": np.array([15.0, 25.0]),
    }


class TestSemwRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, sample_arrays):
        path = tmp_path / "w.semw"
        write_arrays(path, sample_arrays)
        back = read_arrays(path)
        assert list(back) == list(sample_arrays)
        for name in sample_arrays:
            np.testing.assert_array_equal(back[name], sample_arrays[name])
            assert back[name].dtype == np.float64

    def test_save_is_idempotent(self, tmp_path, sample_arrays):
        p1 = tmp_path / "a.semw"
        p2 = tmp_path / "b.semw"
        write_arrays(p1, sample_arrays)
        write_arrays(p2, read_arrays(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_float64_values_quantized_to_f32(self, tmp_path):
        path = tmp_path / "q.semw"
        value = np.array([1.0 + 1e-12])
        write_arrays(path, {"x": value})
        back = read_arrays(path)["x"]
        assert back[0] == float(np.float32(1.0 + 1e-12))

    def test_infinity_survives(self, tmp_path):
        path = tmp_path / "inf.semw"
        write_arrays(path, {"meta": np.array([np.inf, 0.0, -np.inf])})
        assert read_arrays(path)["meta"].tolist() == [np.inf, 0.0, -np.inf]

    def test_nan_refused_before_writing(self, tmp_path):
        path = tmp_path / "nan.semw"
        with pytest.raises(ValueError, match="'b' holds NaN"):
            write_arrays(path, {"a": np.ones(2), "b": np.array([0.5, np.nan])})
        assert not path.exists()

    @pytest.mark.parametrize("big", [1e300, -1e300, 3.5e38])
    def test_float32_overflow_refused_before_writing(self, tmp_path, big):
        path = tmp_path / "big.semw"
        with pytest.raises(ValueError, match="array 'x' overflows float32"):
            write_arrays(path, {"a": np.ones(2),
                                "x": np.array([np.inf, 0.5, big])})
        assert not path.exists()

    def test_float32_max_still_written(self, tmp_path):
        path = tmp_path / "max.semw"
        top = float(np.finfo(np.float32).max)
        write_arrays(path, {"x": np.array([top, -top, np.inf, -np.inf])})
        assert read_arrays(path)["x"].tolist() == [top, -top, np.inf, -np.inf]

    def test_unsupported_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rank"):
            write_arrays(tmp_path / "bad.semw", {"x": np.zeros((1,) * 6)})


class TestSemwErrors:
    def test_bad_magic(self, tmp_path, sample_arrays):
        path = tmp_path / "w.semw"
        write_arrays(path, sample_arrays)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="magic"):
            read_arrays(path)

    def test_bad_version(self, tmp_path, sample_arrays):
        path = tmp_path / "w.semw"
        write_arrays(path, sample_arrays)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerVersionError, match="version"):
            read_arrays(path)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFFC00001],
                             ids=["quiet", "signalling", "negative"])
    def test_nan_payload_rejected(self, tmp_path, bits):
        """Checked on the raw bits: casting a signalling NaN to float64
        would raise numpy's invalid-value warning first."""
        path = tmp_path / "w.semw"
        write_arrays(path, {"w": np.array([0.5, 0.25])})
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<I", bits)
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError, match="'w' holds NaN"):
            read_arrays(path)

    @pytest.mark.parametrize("keep", [2, 7, 10, 40])
    def test_truncation(self, tmp_path, sample_arrays, keep):
        path = tmp_path / "w.semw"
        write_arrays(path, sample_arrays)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ContainerTruncatedError):
            read_arrays(path)

    def test_truncated_payload(self, tmp_path, sample_arrays):
        path = tmp_path / "w.semw"
        write_arrays(path, sample_arrays)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ContainerTruncatedError):
            read_arrays(path)

    def test_huge_declared_dims_fail_before_reading(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "w.semw"
        path.write_bytes(SEMW_MAGIC + struct.pack("<II", 1, 1)
                         + struct.pack("<H", 1) + b"w" + struct.pack("<B", 3)
                         + struct.pack("<3I", 65535, 65535, 65535)
                         + b"\0" * 16)
        reads = record_reads(monkeypatch)
        with pytest.raises(ContainerTruncatedError, match="w payload"):
            read_arrays(path)
        assert max(reads) <= path.stat().st_size

    def test_trailing_garbage(self, tmp_path, sample_arrays):
        path = tmp_path / "w.semw"
        write_arrays(path, sample_arrays)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ContainerFormatError, match="trailing"):
            read_arrays(path)

    def test_magic_constant(self):
        assert SEMW_MAGIC == b"SEMW"


class TestSemf:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, (5, 8, 6, 3)).astype(np.uint8)
        path = tmp_path / "v.semf"
        write_frames(path, frames)
        np.testing.assert_array_equal(read_frames(path), frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.semf"
        write_frames(path, np.zeros((1, 2, 2, 3), dtype=np.uint8))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerFormatError):
            read_frames(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "v.semf"
        write_frames(path, np.zeros((2, 4, 4, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ContainerTruncatedError):
            read_frames(path)

    def test_huge_declared_frames_fail_before_reading(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "v.semf"
        path.write_bytes(b"SEMF" + struct.pack("<IIHH", 1, 2**32 - 1, 65535, 65535)
                         + b"\0" * 24)
        reads = record_reads(monkeypatch)
        with pytest.raises(ContainerTruncatedError, match="frame payload"):
            read_frames(path)
        assert max(reads) <= path.stat().st_size

    def test_dtype_validation(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_frames(tmp_path / "v.semf", np.zeros((1, 2, 2, 3)))
        assert not (tmp_path / "v.semf").exists()

    def test_streamed_frames_equal_the_array(self, tmp_path):
        """Frames written one at a time as a generator yields them give the
        bytes of the stacked array, which is never built."""
        rng = np.random.default_rng(2)
        frames = rng.integers(0, 256, (4, 3, 5, 3)).astype(np.uint8)
        whole, streamed = tmp_path / "whole.semf", tmp_path / "streamed.semf"
        write_frames(whole, frames)
        write_frames(streamed, (frame for frame in frames))
        assert streamed.read_bytes() == whole.read_bytes()
        assert whole.read_bytes()[4:16] == struct.pack("<IIHH", 1, 4, 3, 5)

    @pytest.mark.parametrize("bad", [np.zeros((3, 5, 3), dtype=np.uint8),
                                     np.zeros((2, 3, 5, 3), dtype=np.uint8),
                                     np.zeros((2, 2, 4), dtype=np.uint8),
                                     np.zeros((2, 2, 3), dtype=np.int16)])
    def test_refused_frame_leaves_no_file(self, tmp_path, bad):
        """A frame unlike the first (or not (H, W, 3) uint8) is refused
        mid-stream, and the partly written file is removed."""
        path = tmp_path / "v.semf"
        path.write_bytes(b"old")
        frames = [np.zeros((2, 2, 3), dtype=np.uint8)] * 3 + [bad]
        with pytest.raises(ValueError, match="frame 3 is"):
            write_frames(path, iter(frames))
        assert not path.exists()

    def test_failing_source_leaves_no_file(self, tmp_path):
        def frames():
            yield np.zeros((2, 2, 3), dtype=np.uint8)
            raise RuntimeError("render failed")

        path = tmp_path / "v.semf"
        with pytest.raises(RuntimeError, match="render failed"):
            write_frames(path, frames())
        assert not path.exists()


class TestCorruptFiles:
    """A cut or a flipped bit anywhere either reads or raises a
    ContainerError subclass; no other exception, and no warning (the suite
    makes warnings errors), escapes a reader."""

    @staticmethod
    def semw(tmp_path):
        path = tmp_path / "small.semw"
        write_arrays(path, {"gewicht-äω": np.array([1.5, np.inf]),
                            "b": np.array([[0.25, -2.0, 3.0]])})
        return path, read_arrays

    @staticmethod
    def semf(tmp_path):
        path = tmp_path / "small.semf"
        frames = np.arange(2 * 2 * 3 * 3, dtype=np.uint8).reshape(2, 2, 3, 3)
        write_frames(path, frames)
        return path, read_frames

    @staticmethod
    def corruptions(data):
        for cut in range(len(data)):
            yield data[:cut]
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield bytes(flipped)

    @pytest.mark.parametrize("make", ["semw", "semf"])
    def test_every_cut_and_bit_flip(self, tmp_path, make):
        path, read = getattr(self, make)(tmp_path)
        data = path.read_bytes()
        corrupt = tmp_path / "corrupt"
        refused = 0
        for case in self.corruptions(data):
            corrupt.write_bytes(case)
            try:
                got = read(corrupt)
            except weights_io.ContainerError:
                refused += 1
            else:
                if make == "semw":
                    assert not any(np.isnan(a).any() for a in got.values())
        assert refused >= len(data)    # every cut, at least
