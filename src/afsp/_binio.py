"""Little-endian binary read/write helpers for the artifact file formats.

All multi-byte integers are little-endian; float arrays are raw float32
little-endian. A format's fixed header fields are one ``struct.Struct`` of
its module, which its save packs and its load reads with
:meth:`Reader.unpack`. Single strings are u32 length-prefixed UTF-8; a
string column is ``count + 1`` u32 byte offsets (starting at 0) followed by
one UTF-8 blob holding every string back to back.

A loader reads its whole file in one call and parses it with a
:class:`Reader`, which checks every size against the bytes that are there
before it slices them, so a corrupt or truncated file raises
VersionMismatch and never IndexError, struct.error, UnicodeDecodeError or
an allocation sized by a corrupt count.

Every loaded file's bytes live in an anonymous memory map of their own
rather than on the malloc heap. Once the last array over a map is freed,
the map is kept as a spare and handed to the next file of exactly its
size. Reloading the same artifacts then
reuses the same pages, and a reload never depends on how the heap is
fragmented: on the heap, a small long-lived allocation that lands in the
hole a freed buffer left can push the next buffer of that size past the
top, growing the process by the buffer's whole size, depending on what ran
in between. A spare is only freed with the process.

A loader can have the arrays that follow some point of its file start at
an address that is a multiple of ``_ALIGN`` bytes, whatever length the
strings or arrays before them have (:meth:`Reader.align`), at up to two
points: numpy hands a matrix product to BLAS only if its operands' items
are aligned, and BLAS runs faster on rows that start on a cache line. The
unread bytes move up, in memory only, into room that the file's map has
past its end, enough for two such moves. The index aligns its dense
matrix and its multi-vector rows, the two operands of its float32
products.
"""

from __future__ import annotations

import mmap
import os
import struct
import weakref
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import VersionMismatch

U32 = struct.Struct("<I")

# a file's map has twice this many bytes past its end, room for two
# Reader.align calls to move the unread bytes to an address that is a
# multiple of it
_ALIGN = 64

# freed maps by size, each kept for the next buffer of that size
_spare_maps: dict[int, list[mmap.mmap]] = {}

# root arrays over mapped file bytes, which nothing writes once an array
# views them (see sealed() and Reader.align())
_sealed: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _map(nbytes: int) -> mmap.mmap:
    """A spare map of ``nbytes``, or a new one."""
    try:
        return _spare_maps[nbytes].pop()
    except (KeyError, IndexError):
        pass
    buf = mmap.mmap(-1, nbytes)
    if nbytes >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        # as numpy does for its own arrays this large
        buf.madvise(mmap.MADV_HUGEPAGE)
    return buf


def _map_array(buf: mmap.mmap, dtype) -> np.ndarray:
    """A 1-D array over all of ``buf`` that hands ``buf`` back as a spare
    once it and every view of it are freed."""
    root = np.frombuffer(buf, dtype=dtype)
    weakref.finalize(root, _spare_maps.setdefault(len(buf), []).append, buf).atexit = False
    return root


def sealed(arr: np.ndarray) -> bool:
    """True if ``arr`` views bytes that nothing can write: a file that a
    :class:`Reader` read into a memory map."""
    root = arr
    while isinstance(root, np.ndarray):
        if _sealed.get(id(root)) is root:
            return True
        root = root.base
    return False


def write_str(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    fh.write(U32.pack(len(data)))
    fh.write(data)


def write_array(fh: BinaryIO, arr: np.ndarray, dtype: str = "<f4") -> None:
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def encode_str_column(texts) -> tuple[np.ndarray, np.ndarray]:
    """The string column of ``texts`` as (u32 offsets, UTF-8 bytes)."""
    blobs = [t.encode("utf-8") for t in texts]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in blobs], out=offsets[1:])
    if offsets[-1] > 0xFFFFFFFF:
        raise ValueError("string column exceeds 4 GiB")
    return offsets.astype("<u4"), np.frombuffer(b"".join(blobs), dtype=np.uint8)


def write_str_column(fh: BinaryIO, column: tuple[np.ndarray, np.ndarray]) -> None:
    offsets, data = column
    write_array(fh, offsets, "<u4")
    fh.write(data)


class Reader:
    """Cursor over the bytes of one artifact file: ``data[:size]``."""

    def __init__(self, data: mmap.mmap, size: int):
        self.data = data
        self.size = size
        self.pos = 0
        self._root = _map_array(data, np.uint8)
        self._root.flags.writeable = False
        _sealed[id(self._root)] = self._root

    @classmethod
    def open(cls, path: str | Path, magic: bytes, hint: str = "") -> Reader:
        """Read the whole file and check its magic; ``hint`` is appended to
        the error for a wrong magic."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            buf = _map(size + 2 * _ALIGN)
            if fh.readinto(memoryview(buf)[:size]) != size or fh.read(1):
                raise VersionMismatch("file changed size while it was read")
            reader = cls(buf, size)
        got = reader.data[: len(magic)]
        if got != magic:
            raise VersionMismatch(
                f"bad header: expected {magic!r}, found {got!r}" + (f"; {hint}" if hint else "")
            )
        reader.pos = len(magic)
        return reader

    def align(self) -> None:
        """Move the unread bytes up, by less than ``_ALIGN``, to the next
        address that is a multiple of ``_ALIGN`` (see the module
        docstring). No array that the reader returned views them yet."""
        shift = -(self._root.ctypes.data + self.pos) % _ALIGN
        if not shift:
            return
        self.data.move(self.pos + shift, self.pos, self.size - self.pos)
        self.pos += shift
        self.size += shift

    def _skip(self, nbytes: int, what: str) -> int:
        """Move past the next ``nbytes`` and return where they start."""
        start = self.pos
        if start + nbytes > self.size:
            raise VersionMismatch(f"truncated file while reading {what}")
        self.pos = start + nbytes
        return start

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        """The fields of ``layout`` packed at the cursor."""
        return layout.unpack_from(self.data, self._skip(layout.size, what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """A read-only view of the next ``count`` items, no copy."""
        dt = np.dtype(dtype)
        start = self._skip(count * dt.itemsize, what)
        return self._root[start : self.pos].view(dt)

    def strs(self, count: int, what: str) -> list[str]:
        """``count`` u32 length-prefixed strings."""
        data, pos, end = self.data, self.pos, self.size
        out = []
        try:
            for _ in range(count):
                if pos + 4 > end:
                    raise VersionMismatch(f"truncated file while reading {what}")
                start = pos + 4
                pos = start + U32.unpack_from(data, pos)[0]
                if pos > end:
                    raise VersionMismatch(f"truncated file while reading {what}")
                out.append(data[start:pos].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise VersionMismatch(f"corrupt UTF-8 while reading {what}: {exc}") from exc
        self.pos = pos
        return out

    def str_column(self, count: int, what: str) -> tuple[np.ndarray, np.ndarray]:
        """One string column of ``count`` strings (see the module
        docstring) as read-only views (offsets, bytes), no copy; the bytes
        are not checked to be UTF-8."""
        offsets = self.array("<u4", count + 1, what)
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise VersionMismatch(f"{what}: string offsets are not monotone from 0")
        return offsets, self.array("u1", int(offsets[-1]), what)

    def end(self, what: str) -> None:
        """Raise VersionMismatch unless every byte has been read."""
        if self.pos != self.size:
            raise VersionMismatch(f"trailing bytes after {what}")
