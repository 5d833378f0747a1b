"""Parallel corpus loading, validation, persistence, and splitting.

The canonical interchange format is JSONL with one object per line:
``{"id": "0001", "src": "...", "tgt": "...", "src_lang": "zh", "tgt_lang": "en"}``.
TSV with 4-5 tab-separated columns (``[id] src tgt src_lang tgt_lang``) is
accepted for convenience. The binary format (magic ``AFSPCOR2``) is used for
fast reload between pipeline stages: a u32 pair count, then the pair table,
which the retrieval index stores too.

A :class:`Corpus` is columnar: it holds the pair table's five string
columns, each as u32 offsets and one UTF-8 blob, the layout the file has. A
loaded corpus views the loaded file's bytes, so loading makes no Python
object per pair; ``corpus[i]`` decodes one :class:`DemoPair` when it is
asked for. Every corpus, built from pairs or loaded, passes one vectorized
check of its columns when it is made.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import _binio
from .errors import (
    AfspError,
    DuplicateId,
    EmptyFile,
    InputNotUtf8,
    MalformedRecord,
    MixedLanguagePair,
    TestSizeTooLarge,
    VersionMismatch,
)

CORPUS_MAGIC = b"AFSPCOR2"

# the pair table's string columns, in file order
_PAIR_FIELDS = ("id", "src_text", "tgt_text", "src_lang", "tgt_lang")

# a string column: count + 1 u32 offsets from 0, and the UTF-8 bytes they cut
_Column = tuple[np.ndarray, np.ndarray]

# the UTF-8 bytes of each character that str.isspace() accepts, read as one
# big-endian integer
_SPACES = np.array([
    int.from_bytes(chr(c).encode("utf-8"), "big")
    for c in (*range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
              *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
])


@dataclass(frozen=True)
class DemoPair:
    """One aligned source/target sentence pair."""

    id: str
    src_text: str
    tgt_text: str
    src_lang: str
    tgt_lang: str

    def __post_init__(self):
        if not self.src_text.strip():
            raise ValueError(f"pair {self.id!r}: empty source text")
        if not self.tgt_text.strip():
            raise ValueError(f"pair {self.id!r}: empty target text")
        if not self.src_lang or not self.tgt_lang:
            raise ValueError(f"pair {self.id!r}: missing language code")
        if self.src_lang == self.tgt_lang:
            raise ValueError(
                f"pair {self.id!r}: src_lang and tgt_lang are both {self.src_lang!r}"
            )


class Corpus(Sequence[DemoPair]):
    """Immutable ordered collection of pairs sharing one language pair,
    stored as one string column per :class:`DemoPair` field (see the module
    docstring)."""

    def __init__(self, pairs: Sequence[DemoPair]):
        self._columns = {
            f: _binio.encode_str_column([getattr(p, f) for p in pairs]) for f in _PAIR_FIELDS
        }
        self.src_lang, self.tgt_lang = _check_columns(self._columns)

    @classmethod
    def _from_columns(cls, columns: dict[str, _Column]) -> Corpus:
        corpus = cls.__new__(cls)
        corpus._columns = columns
        corpus.src_lang, corpus.tgt_lang = _check_columns(columns)
        return corpus

    @property
    def pairs(self) -> Corpus:
        """The pairs as a sequence: the corpus itself."""
        return self

    def strings(self, field: str) -> list[str]:
        """Every pair's ``field`` (a :class:`DemoPair` field name), in order."""
        return _strings(self._columns[field])

    def __len__(self) -> int:
        return len(self._columns["id"][0]) - 1

    def __iter__(self) -> Iterator[DemoPair]:
        return map(DemoPair, *map(_strings, self._columns.values()))

    def __getitem__(self, i: int | slice) -> DemoPair | list[DemoPair]:
        if isinstance(i, slice):
            return [self[row] for row in range(len(self))[i]]
        row = range(len(self))[i]
        return DemoPair(*(_string(c, row) for c in self._columns.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Corpus) and all(
            np.array_equal(a, b)
            for ours, theirs in zip(self._columns.values(), other._columns.values())
            for a, b in zip(ours, theirs)
        )


def _strings(column: _Column) -> list[str]:
    offsets, data = column
    blob, bounds = data.tobytes(), offsets.tolist()
    return [blob[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]


def _string(column: _Column, row: int) -> str:
    offsets, data = column
    a, b = offsets[row : row + 2].tolist()
    return data[a:b].tobytes().decode("utf-8")


def _check_columns(columns: dict[str, _Column]) -> tuple[str, str]:
    """The corpus's (src_lang, tgt_lang). Raises unless the columns hold
    pairs that :class:`DemoPair` accepts and that make one corpus:
    ValueError for a column that is not UTF-8, a blank text or a bad
    language code, EmptyFile, MixedLanguagePair or DuplicateId."""
    ids = columns["id"]
    if len(ids[0]) == 1:
        raise EmptyFile("a corpus needs at least one pair")
    for field, (offsets, data) in columns.items():
        try:
            str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{field} column is not UTF-8: {exc}") from exc
        # ... and so is each string in it, if none starts on a continuation byte
        if np.any((data[offsets[offsets < len(data)]] & 0xC0) == 0x80):
            raise ValueError(f"{field} column: a string starts inside a UTF-8 character")
    for field, side in (("src_text", "source"), ("tgt_text", "target")):
        blank = np.flatnonzero(_blank(columns[field]))
        if len(blank):
            raise ValueError(f"pair {_string(ids, blank[0])!r}: empty {side} text")
    src, tgt = columns["src_lang"], columns["tgt_lang"]
    src_lang, tgt_lang = _string(src, 0), _string(tgt, 0)
    if not src_lang or not tgt_lang:
        raise ValueError(f"pair {_string(ids, 0)!r}: missing language code")
    if src_lang == tgt_lang:
        raise ValueError(f"pair {_string(ids, 0)!r}: src_lang and tgt_lang are both {src_lang!r}")
    # the first row after the first that repeats no earlier one is the
    # first that differs from the first
    mixed = np.flatnonzero(~(_repeats(src) & _repeats(tgt))[1:]) + 1
    if len(mixed):
        row = mixed[0]
        raise MixedLanguagePair(
            f"pair {_string(ids, row)!r} is {_string(src, row)}->{_string(tgt, row)}, "
            f"corpus is {src_lang}->{tgt_lang}"
        )
    repeats = np.flatnonzero(_repeats(ids))
    if len(repeats):
        raise DuplicateId(_string(ids, repeats[0]))
    return src_lang, tgt_lang


def _blank(column: _Column) -> np.ndarray:
    """Which strings ``str.strip()`` leaves empty. A string whose first
    character is not whitespace is not blank; only the rest are decoded
    and stripped."""
    offsets, data = column
    starts = offsets[:-1]
    nonempty = np.flatnonzero(offsets[1:] > starts)
    # the first three bytes of each string, shifted right to keep only its
    # first character's (a 4-byte character is never whitespace)
    head = data[np.minimum(starts[nonempty, None] + np.arange(3), len(data) - 1)].astype(np.uint32)
    size = 1 + (head[:, 0] >= 0xC0) + (head[:, 0] >= 0xE0)
    first = ((head[:, 0] << 16) | (head[:, 1] << 8) | head[:, 2]) >> (8 * (3 - size))
    maybe = np.ones(len(starts), dtype=bool)
    maybe[nonempty] = np.isin(first, _SPACES)
    blank = np.zeros(len(starts), dtype=bool)
    for row in np.flatnonzero(maybe):
        blank[row] = not _string(column, row).strip()
    return blank


def _repeats(column: _Column) -> np.ndarray:
    """Which strings repeat an earlier one. The strings of each length are
    zero-padded to 8-byte words and stably sorted as rows of words, so a
    repeat follows the row it equals."""
    offsets, data = column
    lengths = np.diff(offsets)
    repeats = np.zeros(len(lengths), dtype=bool)
    for width in np.unique(lengths):
        rows = np.flatnonzero(lengths == width)
        words = np.zeros((len(rows), max(1, -(-int(width) // 8)) * 8), dtype=np.uint8)
        words[:, :width] = data[offsets[rows, None] + np.arange(width)]
        words = words.view(np.uint64)
        order = np.lexsort(words.T)
        same = np.all(words[order[1:]] == words[order[:-1]], axis=1)
        repeats[rows[order[1:][same]]] = True
    return repeats


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, newlines kept: every text file the
    package reads is read through here, so input that is not UTF-8 raises
    InputNotUtf8 naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InputNotUtf8(path, exc) from exc


def _auto_id(index: int) -> str:
    return f"{index:06d}"


def _pair_from_record(rec: dict, line_no: int, auto_index: int) -> DemoPair:
    pair_id = str(rec["id"]) if rec.get("id") not in (None, "") else _auto_id(auto_index)
    try:
        return DemoPair(
            id=pair_id,
            src_text=str(rec["src"]),
            tgt_text=str(rec["tgt"]),
            src_lang=str(rec["src_lang"]),
            tgt_lang=str(rec["tgt_lang"]),
        )
    except KeyError as exc:
        raise MalformedRecord(line_no, f"missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise MalformedRecord(line_no, str(exc)) from exc


def ingest(path: str | Path, format: str = "jsonl") -> Corpus:
    """Load a corpus from a JSONL or TSV file.

    Record ids are taken from the file when present and auto-assigned as
    zero-padded row indices otherwise. Raises MalformedRecord (with the
    offending line number), DuplicateId, MixedLanguagePair, EmptyFile or
    InputNotUtf8.
    """
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format {format!r} (expected 'jsonl' or 'tsv')")
    pairs: list[DemoPair] = []
    row = 0
    with closing(read_lines(path)) as lines:
        for line_no, line in enumerate(lines, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if format == "jsonl":
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
                if not isinstance(rec, dict):
                    raise MalformedRecord(line_no, "record is not a JSON object")
            else:
                cols = line.split("\t")
                if len(cols) == 5:
                    rec = dict(zip(("id", "src", "tgt", "src_lang", "tgt_lang"), cols))
                elif len(cols) == 4:
                    rec = dict(zip(("src", "tgt", "src_lang", "tgt_lang"), cols))
                else:
                    raise MalformedRecord(
                        line_no, f"expected 4 or 5 tab-separated columns, got {len(cols)}"
                    )
            pairs.append(_pair_from_record(rec, line_no, auto_index=row))
            row += 1
    if not pairs:
        raise EmptyFile(f"{path}: no records")
    return Corpus(pairs)


def split(corpus: Corpus, test_size: int, seed: int) -> tuple[Corpus, Corpus]:
    """Partition a corpus into (demonstration, test) parts.

    The test part is drawn by seeded uniform sampling without replacement;
    both parts keep the original corpus order. The same seed always produces
    the same split.
    """
    if test_size < 1:
        raise ValueError("test_size must be >= 1")
    if test_size >= len(corpus):
        raise TestSizeTooLarge(
            f"test_size {test_size} leaves no demonstrations (corpus has {len(corpus)} pairs)"
        )
    picked = set(random.Random(seed).sample(range(len(corpus)), test_size))
    pairs = list(corpus)
    test = [p for i, p in enumerate(pairs) if i in picked]
    demo = [p for i, p in enumerate(pairs) if i not in picked]
    return Corpus(demo), Corpus(test)


def write_pair_table(fh: BinaryIO, pairs: Corpus | Sequence[DemoPair]) -> None:
    """Write the pair table: one string column per DemoPair field. A
    corpus writes the columns it stores."""
    for field in _PAIR_FIELDS:
        if isinstance(pairs, Corpus):
            column = pairs._columns[field]
        else:
            column = _binio.encode_str_column([getattr(p, field) for p in pairs])
        _binio.write_str_column(fh, column)


def read_pair_table(reader: _binio.Reader, count: int) -> Corpus:
    """Read a pair table of ``count`` pairs written by
    :func:`write_pair_table`; the corpus views the reader's bytes. Invalid
    pairs raise VersionMismatch."""
    columns = {f: reader.str_column(count, f"pair table {f}") for f in _PAIR_FIELDS}
    try:
        return Corpus._from_columns(columns)
    except (ValueError, AfspError) as exc:
        raise VersionMismatch(f"invalid pair table: {exc}") from exc


def save(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus in the binary format (magic ``AFSPCOR2``)."""
    with open(path, "wb") as fh:
        fh.write(CORPUS_MAGIC)
        _binio.write_u32(fh, len(corpus))
        write_pair_table(fh, corpus)


def load(path: str | Path) -> Corpus:
    """Read a corpus written by :func:`save`. Raises VersionMismatch on a
    bad header (an ``AFSPCOR1`` file included), a truncated or corrupt file,
    or trailing bytes."""
    reader = _binio.Reader.open(path, CORPUS_MAGIC, hint="rebuild with `afsp ingest`")
    corpus = read_pair_table(reader, reader.u32("pair count"))
    reader.end("the pair table")
    return corpus
