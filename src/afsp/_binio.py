"""Little-endian binary read/write helpers for the artifact file formats.

All multi-byte integers are little-endian; strings are u32 length-prefixed
UTF-8; float arrays are raw float32 little-endian.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .errors import VersionMismatch


def write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def write_u64(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF))


def write_str(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    write_u32(fh, len(data))
    fh.write(data)


def write_f32(fh: BinaryIO, value: float) -> None:
    fh.write(struct.pack("<f", value))


def write_f32_array(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_bytes(fh: BinaryIO, n: int, what: str = "bytes") -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise VersionMismatch(f"truncated file while reading {what}")
    return data


def read_u32(fh: BinaryIO, what: str = "u32") -> int:
    return struct.unpack("<I", read_bytes(fh, 4, what))[0]


def read_u64(fh: BinaryIO, what: str = "u64") -> int:
    return struct.unpack("<Q", read_bytes(fh, 8, what))[0]


def read_str(fh: BinaryIO, what: str = "string") -> str:
    length = read_u32(fh, what)
    try:
        return read_bytes(fh, length, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise VersionMismatch(f"corrupt UTF-8 while reading {what}: {exc}") from exc


def read_f32(fh: BinaryIO, what: str = "f32") -> float:
    return struct.unpack("<f", read_bytes(fh, 4, what))[0]


def read_f32_array(fh: BinaryIO, count: int, what: str = "f32 array") -> np.ndarray:
    data = read_bytes(fh, 4 * count, what)
    return np.frombuffer(data, dtype="<f4").copy()


def check_magic(fh: BinaryIO, expected: bytes) -> None:
    got = fh.read(len(expected))
    if got != expected:
        raise VersionMismatch(
            f"bad header: expected {expected!r}, found {got!r}"
        )
