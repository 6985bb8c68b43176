import tracemalloc

import numpy as np
import pytest

from irlm import make_block_sparse, make_identity, make_random_sign
from irlm.errors import FormatError
from irlm.storage import HEADER, MAGIC, read_matrix, write_matrix


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_identity(4),
        lambda: make_random_sign(16, 8, 42),
        lambda: make_block_sparse(40, 36, 3, alpha=1.2, beta=2.0),
        lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0),
    ],
    ids=["identity", "random_sign", "block_sparse", "block_sparse_1024"],
)
def test_write_read_write_round_trip_is_bit_exact(build, tmp_path):
    mat = build()
    p1 = tmp_path / "a.irlm"
    p2 = tmp_path / "b.irlm"
    write_matrix(mat, p1)
    loaded = read_matrix(p1)
    write_matrix(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.left, mat.left)
    assert np.array_equal(loaded.right, mat.right)
    assert loaded.provenance.kind == mat.provenance.kind
    assert np.array_equal(loaded.dense(), mat.dense())


def test_read_and_write_hold_no_payload_copy(tmp_path):
    # the reader's factors are views of the file's bytes, and the writer
    # hands the factors to the file without a bytes copy
    mat = make_random_sign(1024, 64, 1)
    path = tmp_path / "rs.irlm"
    payload = 2 * 8 * 1024 * 64
    tracemalloc.start()
    try:
        write_matrix(mat, path)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded = read_matrix(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak < payload / 4
    assert read_peak < 1.25 * payload
    assert np.array_equal(loaded.left, mat.left) and not loaded.left.flags.writeable


def test_file_size_formula(tmp_path):
    path = tmp_path / "id.irlm"
    write_matrix(make_identity(4), path)
    assert path.stat().st_size == 40 + 2 * 4 * 4 * 8


def test_random_sign_loaded_matrix_materializes_identically(tmp_path):
    mat = make_random_sign(32, 8, 5)
    path = tmp_path / "rs.irlm"
    write_matrix(mat, path)
    loaded = read_matrix(path)
    assert np.array_equal(loaded.dense(), mat.dense())
    assert np.all(np.diagonal(loaded.dense()) == 1.0)


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.irlm"
    good = tmp_path / "good.irlm"
    write_matrix(make_identity(3), good)
    data = bytearray(good.read_bytes())
    data[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="magic"):
        read_matrix(path)


def test_reader_rejects_truncation_and_trailing_bytes(tmp_path):
    good = tmp_path / "good.irlm"
    write_matrix(make_identity(3), good)
    data = good.read_bytes()
    short = tmp_path / "short.irlm"
    short.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="expected"):
        read_matrix(short)
    long = tmp_path / "long.irlm"
    long.write_bytes(data + b"\x00" * 8)
    with pytest.raises(FormatError, match="expected"):
        read_matrix(long)
    stub = tmp_path / "stub.irlm"
    stub.write_bytes(data[:20])
    with pytest.raises(FormatError):
        read_matrix(stub)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("offset", [0, 16 * 8], ids=["left", "right"])
def test_reader_rejects_non_finite_entries(tmp_path, offset, bad):
    path = tmp_path / "nf.irlm"
    write_matrix(make_random_sign(16, 8, 1), path)
    data = bytearray(path.read_bytes())
    data[HEADER.size + 8 * offset : HEADER.size + 8 * offset + 8] = np.float64(bad).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="finite"):
        read_matrix(path)


def test_reader_rejects_factors_whose_product_may_overflow(tmp_path):
    path = tmp_path / "of.irlm"
    write_matrix(make_random_sign(16, 8, 1), path)
    data = bytearray(path.read_bytes())
    for offset in (0, 16 * 8):  # one entry of each factor
        data[HEADER.size + 8 * offset : HEADER.size + 8 * offset + 8] = np.float64(1e200).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="overflow"):
        read_matrix(path)


def test_header_layout():
    assert HEADER.size == 40
    assert MAGIC == b"IRLM0001"


def test_custom_kind_has_no_file_representation(tmp_path):
    from irlm import from_factors

    mat = from_factors(np.ones((3, 1)), np.ones((1, 3)), kind="custom")
    with pytest.raises(FormatError, match="no file representation"):
        write_matrix(mat, tmp_path / "x.irlm")
