import json
import struct
import tracemalloc

import numpy as np
import pytest

from irlm import from_factors, make_block_sparse, make_identity, make_random_sign
from irlm.cli import main
from irlm.errors import FormatError
from irlm.matrices import _lattice_scale
from irlm.storage import HEADER, MAGIC, MAGIC_V1, read_matrix, write_matrix
from oracles import write_matrix_v1

BUILDS = {
    "identity": lambda: make_identity(4),
    "random_sign": lambda: make_random_sign(16, 8, 42),
    "block_sparse": lambda: make_block_sparse(40, 36, 3, alpha=1.2, beta=2.0),
    "identity_blocks": lambda: make_block_sparse(6, 6, 0, alpha=1.5),
    "block_sparse_1024": lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
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


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_read_records_the_row_scales_the_lattice_defines(build, tmp_path):
    # the reader records w, so no pass rescans the factors; the recorded w
    # is what _lattice_scale detects from the same factors
    path = tmp_path / "a.irlm"
    write_matrix(build(), path)
    loaded = read_matrix(path)
    assert "_row_scale" in vars(loaded)
    detected = _lattice_scale(loaded.left, loaded.right)
    assert detected is not None and detected.dtype == loaded._row_scale.dtype
    assert np.array_equal(loaded._row_scale, detected)


def test_read_and_write_hold_no_payload_copy(tmp_path):
    # the reader holds the file's bytes (w and the int8 S') and builds no
    # float factor; the writer holds only the row scales as u64
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
    assert read_peak < payload / 4
    assert np.array_equal(loaded.left, mat.left) and not loaded.left.flags.writeable


def test_file_size_formula(tmp_path):
    # IRLM0001: the header and two float64 factors, still read
    path = tmp_path / "id.irlm"
    write_matrix_v1(make_identity(4), path)
    assert path.stat().st_size == 40 + 2 * 4 * 4 * 8
    assert np.array_equal(read_matrix(path).left, np.eye(4))


@pytest.mark.parametrize("build, size", [
    (lambda: make_identity(4), 88),
    (lambda: make_random_sign(4096, 128, 1), 557_096),
    (lambda: make_block_sparse(1024, 500, 1, alpha=4.0, beta=2.0), 520_232),
], ids=["identity", "random_sign", "block_sparse"])
def test_lattice_file_size_formula(tmp_path, build, size):
    # IRLM0002: the header, N u64 row scales and the n x N int8 S'
    path = tmp_path / "m.irlm"
    mat = build()
    write_matrix(mat, path)
    assert path.stat().st_size == 40 + 8 * mat.n_dim + mat.rank_budget * mat.n_dim == size


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
    write_matrix_v1(make_identity(3), good)
    data = bytearray(good.read_bytes())
    data[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="magic"):
        read_matrix(path)


def test_reader_rejects_truncation_and_trailing_bytes(tmp_path):
    good = tmp_path / "good.irlm"
    write_matrix_v1(make_identity(3), good)
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
    write_matrix_v1(make_random_sign(16, 8, 1), path)
    data = bytearray(path.read_bytes())
    data[HEADER.size + 8 * offset : HEADER.size + 8 * offset + 8] = np.float64(bad).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="finite"):
        read_matrix(path)


def test_reader_rejects_factors_whose_product_may_overflow(tmp_path):
    path = tmp_path / "of.irlm"
    write_matrix_v1(make_random_sign(16, 8, 1), path)
    data = bytearray(path.read_bytes())
    for offset in (0, 16 * 8):  # one entry of each factor
        data[HEADER.size + 8 * offset : HEADER.size + 8 * offset + 8] = np.float64(1e200).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="overflow"):
        read_matrix(path)


def test_header_layout():
    assert HEADER.size == 40
    assert MAGIC_V1 == b"IRLM0001"
    assert MAGIC == b"IRLM0002"


def test_custom_kind_has_no_file_representation(tmp_path):
    mat = from_factors(np.ones((3, 1)), np.ones((1, 3)), kind="custom")
    with pytest.raises(FormatError, match="no file representation"):
        write_matrix(mat, tmp_path / "x.irlm")


def test_off_lattice_factors_of_a_library_kind_are_refused(tmp_path):
    # a random_sign header over factors whose R is not sign(L)'
    a = make_random_sign(16, 8, 1)
    right = a.right.copy()
    right[0, 0] = 2.0
    path = tmp_path / "x.irlm"
    with pytest.raises(FormatError, match="off the sign lattice"):
        write_matrix(from_factors(a.left, right, kind="random_sign", seed=1), path)
    assert not path.exists()


def test_row_scale_2_53_is_on_the_lattice_and_round_trips(tmp_path):
    # the largest row scale a lattice holds, decided from float factors
    signs = make_random_sign(16, 8, 1).right.T
    a = from_factors(signs / 2**53, signs.T, kind="random_sign", seed=1)
    assert a._signs is not None and np.all(a._row_scale == 2.0**53)
    path = tmp_path / "x.irlm"
    write_matrix(a, path)
    loaded = read_matrix(path)
    assert np.array_equal(loaded._row_scale, a._row_scale)
    assert loaded.left.tobytes() == a.left.tobytes()
    assert loaded.dense().tobytes() == a.dense().tobytes()


@pytest.mark.parametrize("power", [54, 60])
def test_row_scale_above_2_53_is_held_as_float_factors(tmp_path, power):
    # off the lattice, so the writer refuses it, and its dense form is the
    # exact Gram over the power of two either way
    signs = make_random_sign(16, 8, 1).right.T
    a = from_factors(signs / 2**power, signs.T, kind="random_sign", seed=1)
    assert a._signs is None and a._row_scale is None
    assert a.dense().tobytes() == ((signs @ signs.T) / 2**power).tobytes()
    path = tmp_path / "x.irlm"
    with pytest.raises(FormatError, match="off the sign lattice"):
        write_matrix(a, path)
    assert not path.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_the_header_cannot_hold_is_refused_before_the_file_is_created(tmp_path, seed):
    # every constructor accepts such a seed (the draw masks it to 64 bits)
    path = tmp_path / "x.irlm"
    with pytest.raises(FormatError, match=f"seed {seed} "):
        write_matrix(make_random_sign(8, 2, seed), path)
    assert not path.exists()


# A 16 x 8 sign file: the header, 16 row scales (u64), then the 8 x 16 S'.
_SCALES = HEADER.size
_SIGNS = HEADER.size + 8 * 16


def _corrupt(path, offset: int, raw: bytes) -> None:
    data = bytearray(path.read_bytes())
    data[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(data))


def _zero_row_file(path, scale: int) -> None:
    # row 3 of S (column 3 of S') all zero, with the given row scale
    a = make_random_sign(16, 8, 1)
    left, right = a.left.copy(), a.right.copy()
    left[3], right[:, 3] = 0.0, 0.0
    write_matrix(from_factors(left, right, kind="random_sign", seed=1), path)
    _corrupt(path, _SCALES + 8 * 3, struct.pack("<Q", scale))


CORRUPTIONS = {
    "sign_2": (lambda p: _corrupt(p, _SIGNS + 5, struct.pack("<b", 2)), "sign entries"),
    "sign_minus_2": (lambda p: _corrupt(p, _SIGNS + 77, struct.pack("<b", -2)), "sign entries"),
    "sign_minus_128": (lambda p: _corrupt(p, _SIGNS, struct.pack("<b", -128)), "sign entries"),
    "scale_0": (lambda p: _corrupt(p, _SCALES + 8 * 7, struct.pack("<Q", 0)), "row scales"),
    "scale_above_2^53": (lambda p: _corrupt(p, _SCALES, struct.pack("<Q", 2**53 + 1)),
                         "row scales"),
    "zero_row_scale_8": (lambda p: _zero_row_file(p, 8), "all-zero row"),
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[:-1]), "expected"),
    "trailing": (lambda p: p.write_bytes(p.read_bytes() + b"\x01"), "expected"),
    "rank_above_2^24": (lambda p: _corrupt(p, 16, struct.pack("<Q", 2**24 + 1)), "2\\^24"),
    "kind_code_3": (lambda p: _corrupt(p, 24, struct.pack("<Q", 3)), "unknown kind code 3"),
    "N_0": (lambda p: _corrupt(p, 8, struct.pack("<Q", 0)), "N=0, n=8"),
    "n_0": (lambda p: _corrupt(p, 16, struct.pack("<Q", 0)), "N=16, n=0"),
}


@pytest.mark.parametrize("corrupt, message", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_reader_rejects_malformed_lattice_payloads(tmp_path, capsys, corrupt, message):
    path = tmp_path / "rs.irlm"
    write_matrix(make_random_sign(16, 8, 1), path)
    corrupt(path)
    with pytest.raises(FormatError, match=message):
        read_matrix(path)
    assert main(["analyze", "--matrix", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_zero_row_with_scale_one_is_read(tmp_path):
    path = tmp_path / "z.irlm"
    _zero_row_file(path, 1)
    loaded = read_matrix(path)
    assert loaded._row_scale[3] == 1.0 and not loaded.left[3].any()
    assert np.array_equal(loaded._row_scale, _lattice_scale(loaded.left, loaded.right))


@pytest.mark.parametrize("build", [
    lambda: make_identity(50),
    lambda: make_random_sign(256, 32, 3),
    lambda: make_block_sparse(160, 116, 2, alpha=1.0, beta=2.0),
], ids=["identity", "random_sign", "block_sparse"])
def test_v1_file_reads_like_its_v2_rewrite(tmp_path, capsys, build):
    # an IRLM0001 file on disk: held as its IRLM0002 rewrite is (S' and w,
    # no float factor kept), with the same factors and byte-identical
    # analyze JSON
    path = tmp_path / "m.irlm"
    write_matrix_v1(build(), path)
    old = read_matrix(path)
    assert main(["analyze", "--matrix", str(path)]) == 0
    v1_json = capsys.readouterr().out
    write_matrix(old, path)
    assert path.read_bytes()[:8] == MAGIC
    new = read_matrix(path)
    for mat in (old, new):
        assert set(vars(mat)) == {"n_dim", "rank_budget", "provenance", "_signs", "_row_scale"}
    assert old._signs.dtype == new._signs.dtype == np.int8
    assert np.array_equal(old._signs, new._signs)
    assert np.array_equal(old._row_scale, new._row_scale)
    assert np.array_equal(old.left, new.left) and np.array_equal(old.right, new.right)
    assert main(["analyze", "--matrix", str(path)]) == 0
    v2_json = capsys.readouterr().out
    assert v1_json == v2_json and json.loads(v2_json)["N"] == old.n_dim
