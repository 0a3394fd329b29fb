"""CMAT binary matrix format.

Layout, all little-endian: magic b"CMAT", format version u16, element kind
u8 (0 = real64, 1 = complex128 with interleaved re/im), row count u64,
column count u64, then the row-major payload. Round-trips bit-exactly.
``write_atomic`` is the one atomic file writer of the harness.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from ..errors import FormatError

MAGIC = b"CMAT"
VERSION = 1
KIND_REAL64 = 0
KIND_COMPLEX128 = 1

_HEADER = struct.Struct("<4sHBQQ")  # magic, version, kind, rows, cols


def matrix_to_bytes(matrix: np.ndarray) -> bytes:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise FormatError(f"CMAT stores 2-D matrices, got ndim {matrix.ndim}", 0)
    if np.iscomplexobj(matrix):
        kind, payload = KIND_COMPLEX128, np.ascontiguousarray(matrix, dtype="<c16")
    else:
        kind, payload = KIND_REAL64, np.ascontiguousarray(matrix, dtype="<f8")
    header = _HEADER.pack(MAGIC, VERSION, kind, matrix.shape[0], matrix.shape[1])
    return header + payload.tobytes(order="C")


def matrix_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < _HEADER.size:
        raise FormatError("truncated header", len(blob))
    magic, version, kind, rows, cols = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if kind == KIND_REAL64:
        dtype, item = np.dtype("<f8"), 8
    elif kind == KIND_COMPLEX128:
        dtype, item = np.dtype("<c16"), 16
    else:
        raise FormatError(f"unknown element kind {kind}", 6)
    expected = _HEADER.size + rows * cols * item
    if len(blob) != expected:
        raise FormatError(
            f"payload length {len(blob) - _HEADER.size} != {rows}x{cols} elements",
            min(len(blob), expected),
        )
    data = np.frombuffer(blob, dtype=dtype, count=rows * cols, offset=_HEADER.size)
    return data.reshape(rows, cols).copy()


def write_atomic(path: str, blob: bytes) -> None:
    """Write bytes atomically: a temp file in the target directory, then a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def persist_matrix(matrix: np.ndarray, path: str) -> None:
    """Write a matrix atomically (temp file + rename)."""
    write_atomic(path, matrix_to_bytes(matrix))


def load_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        return matrix_from_bytes(handle.read())
