"""IRLM1 binary matrix files.

Layout: 40-byte header, then payload.
  bytes  0..7   magic "IRLM0001"
  bytes  8..15  u64 little-endian N (ambient size)
  bytes 16..23  u64 little-endian n (rank budget)
  bytes 24..31  u64 little-endian kind code (0 identity, 1 random_sign, 2 block_sparse)
  bytes 32..39  u64 little-endian seed
Payload: left factor (N x n) then right factor (n x N), little-endian
float64, row-major.  Readers reject wrong magic, any size mismatch and
non-finite factor entries.

A loaded matrix keeps the header's kind, block_sparse included.  The block
layout is not stored and not needed: every kind materializes through the
exact sign-lattice formula of ``irlm.matrices``, so a loaded matrix is
bit-identical to the one that was written.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .matrices import KIND_CODES, KIND_NAMES, FactoredMatrix, Provenance

MAGIC = b"IRLM0001"
HEADER = struct.Struct("<8sQQQQ")


def write_matrix(a: FactoredMatrix, path: str | Path) -> None:
    code = file_kind_code(a)
    seed = a.provenance.seed or 0
    header = HEADER.pack(MAGIC, a.n_dim, a.rank_budget, code, seed)
    left = np.ascontiguousarray(a.left, dtype="<f8")
    right = np.ascontiguousarray(a.right, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(left)
        fh.write(right)


def read_matrix(path: str | Path) -> FactoredMatrix:
    data = Path(path).read_bytes()
    if len(data) < HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, n_dim, rank, code, seed = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if code not in KIND_NAMES:
        raise FormatError(f"{path}: unknown kind code {code}")
    if n_dim < 1 or rank < 1:
        raise FormatError(f"{path}: invalid dimensions N={n_dim}, n={rank}")
    expected = HEADER.size + 2 * 8 * n_dim * rank
    if len(data) != expected:
        raise FormatError(f"{path}: payload is {len(data)} bytes, expected {expected}")
    # read-only views of `data`: FactoredMatrix converts them to float64
    # only where the byte order differs from the machine's
    body = np.frombuffer(data, dtype="<f8", offset=HEADER.size)
    left = body[: n_dim * rank].reshape(n_dim, rank)
    right = body[n_dim * rank :].reshape(rank, n_dim)
    provenance = Provenance(KIND_NAMES[code], int(seed))
    try:
        return FactoredMatrix(n_dim, rank, left, right, provenance)
    except ParameterError as exc:  # the header is checked, so: bad entries
        raise FormatError(f"{path}: {exc}") from exc


def file_kind_code(a: FactoredMatrix) -> int:
    """Kind code used in the header for this matrix."""
    code = KIND_CODES.get(a.provenance.kind)
    if code is None:
        raise FormatError(f"kind '{a.provenance.kind}' has no file representation")
    return code
