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
        write_arrays(path, {"meta": np.array([np.inf, 0.0])})
        assert read_arrays(path)["meta"][0] == np.inf

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
