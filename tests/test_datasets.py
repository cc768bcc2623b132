"""IDX ingestion: round trips, malformed inputs, path resolution."""

import struct

import numpy as np
import pytest

from fosbo.errors import DataError, InvalidArgumentError, ParseError
from fosbo.problems import load_dataset, resolve_data_path, write_idx
from fosbo.problems.datasets import DATA_ROOT_ENV


class TestIdx:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx(path, imgs)
        feats, labels = load_dataset(path)
        assert labels is None
        assert feats.shape == (4, 784)
        assert feats.min() >= 0.0 and feats.max() <= 1.0
        assert np.array_equal(np.round(feats * 255).astype(np.uint8),
                              imgs.reshape(4, -1))

    def test_label_round_trip(self, tmp_path):
        labs = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        path = tmp_path / "labs.idx"
        write_idx(path, labs)
        feats, labels = load_dataset(path)
        assert feats is None
        assert labels.dtype == np.int64
        assert np.array_equal(labels, [3, 1, 4, 1, 5])

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">I", 0xDEADBEEF))
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.offset == 0
        assert "byte offset 0" in str(exc.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">I", 0x00000801) + b"\x00\x00")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.offset == 6

    def test_truncated_data_block(self, tmp_path):
        path = tmp_path / "cut.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 10) + b"\x01\x02\x03")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.offset == 8 + 3

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x01\x02\x03")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.offset == 10

    def test_writer_validation(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_idx(tmp_path / "x.idx", np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError):
            write_idx(tmp_path / "x.idx", np.array([300, 1]))
        with pytest.raises(InvalidArgumentError):
            write_idx(tmp_path / "x.idx", np.array([1.5, 2.0]))


class TestResolution:
    def test_env_root_applies_to_relative(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))
        labs = np.array([1, 2], dtype=np.uint8)
        write_idx("rel.idx", labs)
        assert (tmp_path / "rel.idx").exists()
        _, labels = load_dataset("rel.idx")
        assert np.array_equal(labels, [1, 2])
        assert resolve_data_path("rel.idx") == tmp_path / "rel.idx"

    def test_absolute_path_ignores_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_ROOT_ENV, "/nonexistent")
        p = tmp_path / "abs.idx"
        write_idx(p, np.array([7], dtype=np.uint8))
        _, labels = load_dataset(p)
        assert labels[0] == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "absent.idx")
