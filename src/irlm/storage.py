"""IRLM binary matrix files.

Every file starts with the same 40-byte header:
  bytes  0..7   magic "IRLM0002" ("IRLM0001" for files of the first format)
  bytes  8..15  u64 little-endian N (ambient size)
  bytes 16..23  u64 little-endian n (rank budget)
  bytes 24..31  u64 little-endian kind code (0 identity, 1 random_sign, 2 block_sparse)
  bytes 32..39  u64 little-endian seed

IRLM0002, the one format written, stores the sign lattice L = S / w[:, None],
R = S' (see ``irlm.matrices._lattice_scale``) that every library kind lies
on: the row scales w as N little-endian u64, then R = S' as an n x N int8
array, row-major.  The header is 40 bytes long, so w starts 8-aligned.
The file is 40 + 8 N + n N bytes, against 40 + 16 N n for IRLM0001.  The
reader rejects any length mismatch, a rank above 2^24, an entry of S'
outside {-1, 0, 1}, a row scale outside 1..2^53 and a scale other than 1 on
an all-zero row of S, so the w it reads is the one ``_lattice_scale``
defines.  The matrix read holds S' and w as the file stores them, as the
constructors hold them (see ``irlm.matrices.FactoredMatrix``): the reader
builds no float array, and no pass rescans anything for the lattice.  The
float factors, built on first access, are bit for bit the constructors'
(x / rank and x').  The writer writes S' as it is held.

IRLM0001 (read only, for files already on disk) stores the left factor
(N x n) then the right factor (n x N) as little-endian float64, row-major;
the reader rejects any length mismatch and non-finite factor entries.  The
lattice is decided once, when the matrix is built from those factors, so a
library kind's IRLM0001 file is held as S' and w, as its IRLM0002 file is.

A loaded matrix keeps the header's kind, block_sparse included.  The block
layout is not stored and not needed: every kind materializes through the
exact sign-lattice formula of ``irlm.matrices``, so a loaded matrix is
bit-identical to the one that was written.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .matrices import (
    _LATTICE_BOUND,
    _MAX_SCALE,
    KIND_CODES,
    KIND_NAMES,
    FactoredMatrix,
    Provenance,
    _lattice_matrix,
)

MAGIC = b"IRLM0002"
MAGIC_V1 = b"IRLM0001"
HEADER = struct.Struct("<8sQQQQ")


def write_matrix(a: FactoredMatrix, path: str | Path) -> None:
    """Write `a` as an IRLM0002 file: its row scales, then S' as it is held
    (int8), so no float factor is built.  Factors off the sign lattice have
    no file representation."""
    code = file_kind_code(a)
    scale = a._row_scale
    if scale is None:
        raise FormatError(f"kind '{a.provenance.kind}' factors off the sign lattice "
                          "have no file representation")
    # checked before the file is opened, so a refusal leaves no file behind
    seed = a.provenance.seed or 0
    if not 0 <= seed < 2**64:
        raise FormatError(f"seed {seed} does not fit the file header's u64 (0..2^64-1)")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, a.n_dim, a.rank_budget, code, seed))
        fh.write(scale.astype("<u8"))
        fh.write(a._signs)


def read_matrix(path: str | Path) -> FactoredMatrix:
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, n_dim, rank, code, seed = HEADER.unpack_from(head)
        if magic not in (MAGIC, MAGIC_V1):
            raise FormatError(f"{path}: bad magic {magic!r}")
        if code not in KIND_NAMES:
            raise FormatError(f"{path}: unknown kind code {code}")
        if n_dim < 1 or rank < 1:
            raise FormatError(f"{path}: invalid dimensions N={n_dim}, n={rank}")
        if magic == MAGIC and rank > _LATTICE_BOUND:
            raise FormatError(f"{path}: rank {rank} exceeds the sign lattice's 2^24")
        length = (8 + rank) * n_dim if magic == MAGIC else 16 * n_dim * rank
        # the length is checked before any buffer the header sizes is allocated
        size = os.fstat(fh.fileno()).st_size
        if size != HEADER.size + length:
            raise FormatError(f"{path}: file is {size} bytes, expected {HEADER.size + length}")
        provenance = Provenance(KIND_NAMES[code], int(seed))
        if magic == MAGIC:
            return _lattice_matrix(*_lattice_payload(path, fh, n_dim, rank), provenance)
        left, right = _float_payload(fh.read(), n_dim, rank)
    try:
        return FactoredMatrix(n_dim, rank, left, right, provenance)
    except ParameterError as exc:  # the header is checked, so: bad entries
        raise FormatError(f"{path}: {exc}") from exc


def _lattice_payload(path, fh, n_dim: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(S', w) of an IRLM0002 payload, validated: S' read straight into an
    int8 array, w into a u64 one, and no float factor built."""
    words = np.empty(n_dim, dtype="<u8")
    signs = np.empty((rank, n_dim), dtype=np.int8)
    if fh.readinto(words) != words.nbytes or fh.readinto(signs.reshape(-1)) != signs.nbytes:
        raise FormatError(f"{path}: the file changed while it was read")
    # min and max, not |S'|: the int8 -128 is its own absolute value
    if signs.min() < -1 or signs.max() > 1:
        raise FormatError(f"{path}: sign entries must be -1, 0 or 1")
    if words.min() < 1 or words.max() > _MAX_SCALE:
        raise FormatError(f"{path}: row scales must lie in 1..2^53")
    scale = words.astype(np.float64)
    if np.any(scale[~signs.any(axis=0)] != 1.0):
        raise FormatError(f"{path}: an all-zero row must have row scale 1")
    return signs, scale


def _float_payload(data: bytes, n_dim: int, rank: int):
    """(L, R) of an IRLM0001 payload: read-only views of `data`, which
    FactoredMatrix converts to float64 only where the byte order differs
    from the machine's."""
    body = np.frombuffer(data, dtype="<f8")
    return body[: n_dim * rank].reshape(n_dim, rank), body[n_dim * rank :].reshape(rank, n_dim)


def file_kind_code(a: FactoredMatrix) -> int:
    """Kind code used in the header for this matrix."""
    code = KIND_CODES.get(a.provenance.kind)
    if code is None:
        raise FormatError(f"kind '{a.provenance.kind}' has no file representation")
    return code
