"""Parallel corpus loading, validation, persistence, and splitting.

The canonical interchange format is JSONL with one object per line:
``{"id": "0001", "src": "...", "tgt": "...", "src_lang": "zh", "tgt_lang": "en"}``.
TSV with 4-5 tab-separated columns (``[id] src tgt src_lang tgt_lang``) is
accepted for convenience. The binary format (magic ``AFSPCOR2``) is used for
fast reload between pipeline stages: a u32 pair count, then the pair table,
which the retrieval index stores too.
"""

from __future__ import annotations

import json
import random
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

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


class Corpus:
    """Immutable ordered collection of pairs sharing one language pair."""

    def __init__(self, pairs: list[DemoPair]):
        if not pairs:
            raise EmptyFile("a corpus needs at least one pair")
        src_lang, tgt_lang = pairs[0].src_lang, pairs[0].tgt_lang
        seen: set[str] = set()
        for p in pairs:
            if (p.src_lang, p.tgt_lang) != (src_lang, tgt_lang):
                raise MixedLanguagePair(
                    f"pair {p.id!r} is {p.src_lang}->{p.tgt_lang}, "
                    f"corpus is {src_lang}->{tgt_lang}"
                )
            if p.id in seen:
                raise DuplicateId(p.id)
            seen.add(p.id)
        self.pairs: tuple[DemoPair, ...] = tuple(pairs)
        self.src_lang = src_lang
        self.tgt_lang = tgt_lang

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i: int) -> DemoPair:
        return self.pairs[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Corpus) and self.pairs == other.pairs


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
    test = [p for i, p in enumerate(corpus) if i in picked]
    demo = [p for i, p in enumerate(corpus) if i not in picked]
    return Corpus(demo), Corpus(test)


def write_pair_table(fh: BinaryIO, pairs: Corpus | Sequence[DemoPair]) -> None:
    """Write the pair table: one string column per DemoPair field."""
    for field in _PAIR_FIELDS:
        _binio.write_str_column(fh, [getattr(p, field) for p in pairs])


def read_pair_table(reader: _binio.Reader, count: int) -> Corpus:
    """Read a pair table of ``count`` pairs written by
    :func:`write_pair_table`; invalid pairs raise VersionMismatch."""
    columns = [reader.str_column(count, f"pair table {field}") for field in _PAIR_FIELDS]
    try:
        return Corpus([DemoPair(*fields) for fields in zip(*columns)])
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
