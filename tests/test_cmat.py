"""CMAT binary matrix format round-trips and error reporting."""

import os
import stat
import struct

import numpy as np
import pytest

from gprclutter import GeometryConfig, assemble_forward, build_default_geometry, get_scenario
from gprclutter.errors import FormatError
from gprclutter.harness.cmat import (
    load_matrix,
    matrix_from_bytes,
    matrix_to_bytes,
    persist_matrix,
    write_atomic,
)
from oracles import dense_entries


def test_complex_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    path = str(tmp_path / "m.cmat")
    persist_matrix(matrix, path)
    loaded = load_matrix(path)
    assert loaded.dtype == np.complex128
    assert np.array_equal(loaded, matrix)


def test_real_round_trip_is_bit_identical(tmp_path):
    matrix = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = str(tmp_path / "m.cmat")
    persist_matrix(matrix, path)
    loaded = load_matrix(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, matrix)


def test_forward_matrix_round_trip(tmp_path):
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=1))
    forward = assemble_forward(get_scenario("S2"), geometry)
    path = str(tmp_path / "forward.cmat")
    entries = dense_entries(forward)
    persist_matrix(entries, path)
    assert np.array_equal(load_matrix(path), entries)


def test_header_encodes_shape_and_kind():
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=1))
    forward = assemble_forward(get_scenario("S1"), geometry)
    blob = matrix_to_bytes(dense_entries(forward))
    magic, version, kind, rows, cols = struct.unpack_from("<4sHBQQ", blob, 0)
    assert magic == b"CMAT"
    assert version == 1
    assert kind == 1
    assert (rows, cols) == (4, 15)


def test_bad_magic_reports_offset_zero():
    blob = b"XMAT" + matrix_to_bytes(np.eye(2))[4:]
    with pytest.raises(FormatError) as err:
        matrix_from_bytes(blob)
    assert err.value.offset == 0


def test_truncation_is_an_error_not_a_partial_matrix():
    blob = matrix_to_bytes(np.eye(3))
    with pytest.raises(FormatError) as err:
        matrix_from_bytes(blob[:-8])
    assert err.value.offset == len(blob) - 8
    with pytest.raises(FormatError):
        matrix_from_bytes(blob[:10])


def test_trailing_garbage_rejected():
    blob = matrix_to_bytes(np.eye(2)) + b"extra"
    with pytest.raises(FormatError):
        matrix_from_bytes(blob)


def test_unknown_kind_rejected():
    blob = bytearray(matrix_to_bytes(np.eye(2)))
    blob[6] = 9
    with pytest.raises(FormatError) as err:
        matrix_from_bytes(bytes(blob))
    assert err.value.offset == 6


def test_unsupported_version_rejected():
    blob = bytearray(matrix_to_bytes(np.eye(2)))
    blob[4:6] = struct.pack("<H", 99)
    with pytest.raises(FormatError) as err:
        matrix_from_bytes(bytes(blob))
    assert err.value.offset == 4


def test_only_two_dimensional_payloads():
    with pytest.raises(FormatError):
        matrix_to_bytes(np.zeros(3))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # As open(path, "w") would, not mkstemp's 0o600.
    path = str(tmp_path / "table.csv")
    previous = os.umask(umask)
    try:
        write_atomic(path, b"a,b\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
