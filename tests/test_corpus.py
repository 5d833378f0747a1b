import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afsp import _binio
from afsp.corpus import (
    CORPUS_MAGIC,
    Corpus,
    DemoPair,
    ingest,
    load,
    read_lines,
    save,
    split,
    write_pair_table,
)
from afsp.errors import (
    AfspError,
    DuplicateId,
    EmptyFile,
    InputNotUtf8,
    MalformedRecord,
    MixedLanguagePair,
    TestSizeTooLarge,
    VersionMismatch,
)
from helpers import draw_corruption, synthetic_corpus, synthetic_pairs, write_jsonl


def test_demo_pair_rejects_blank_text():
    with pytest.raises(ValueError):
        DemoPair("1", "  ", "hello", "zh", "en")
    with pytest.raises(ValueError):
        DemoPair("1", "你好", "\t", "zh", "en")


def test_demo_pair_rejects_same_language():
    with pytest.raises(ValueError):
        DemoPair("1", "hi", "hello", "en", "en")


def test_corpus_rejects_duplicate_and_mixed():
    a = DemoPair("1", "你好", "hello", "zh", "en")
    with pytest.raises(DuplicateId):
        Corpus([a, DemoPair("1", "再见", "bye", "zh", "en")])
    with pytest.raises(MixedLanguagePair):
        Corpus([a, DemoPair("2", "bonjour", "hello", "fr", "en")])


def test_ingest_jsonl_two_lines(tmp_path):
    path = tmp_path / "pairs.jsonl"
    write_jsonl(path, synthetic_pairs(2, seed=1))
    corpus = ingest(path, format="jsonl")
    assert len(corpus) == 2
    assert corpus.src_lang == "zh"
    assert corpus.tgt_lang == "en"


def test_ingest_jsonl_auto_ids(tmp_path):
    path = tmp_path / "pairs.jsonl"
    rec = {"src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n", encoding="utf-8")
    corpus = ingest(path)
    assert [p.id for p in corpus] == ["000000", "000001"]


def test_ingest_tsv_four_and_five_columns(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "a1\t你好\thello\tzh\ten\n你好吗\thow are you\tzh\ten\n", encoding="utf-8"
    )
    corpus = ingest(path, format="tsv")
    assert [p.id for p in corpus] == ["a1", "000001"]


def test_ingest_tsv_empty_target_is_malformed(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a1\t你好\t\tzh\ten\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        ingest(path, format="tsv")
    assert excinfo.value.line_no == 1


def test_ingest_reports_offending_line(tmp_path):
    path = tmp_path / "pairs.jsonl"
    good = {"id": "1", "src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}
    path.write_text(json.dumps(good) + "\nnot json\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        ingest(path)
    assert excinfo.value.line_no == 2


def test_ingest_missing_field(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"id": "1", "src": "你好"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        ingest(path)


def test_ingest_duplicate_ids(tmp_path):
    path = tmp_path / "pairs.jsonl"
    rec = {"id": "x", "src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DuplicateId):
        ingest(path)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyFile):
        ingest(path)


def test_read_lines_keeps_newlines_and_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_bytes("你好\r\nworld".encode("utf-8"))
    assert list(read_lines(path)) == ["你好\n", "world"]
    path.write_bytes("你好\n".encode("utf-8") + b"\xff\n")
    for fmt in ("jsonl", "tsv"):
        with pytest.raises(InputNotUtf8) as info:
            ingest(path, format=fmt)
        assert info.value.path == path and str(info.value).startswith(f"{path}: not UTF-8")


def test_ingest_bad_tsv_column_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("only\tthree\tcolumns\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        ingest(path, format="tsv")


def test_ingest_full_scale_count(tmp_path):
    path = tmp_path / "big.jsonl"
    write_jsonl(path, synthetic_pairs(5528, seed=2))
    assert len(ingest(path)) == 5528


def test_split_sizes_and_partition():
    corpus = synthetic_corpus(1000, seed=3)
    demo, test = split(corpus, test_size=500, seed=7)
    assert len(demo) == 500
    assert len(test) == 500
    demo_ids = {p.id for p in demo}
    test_ids = {p.id for p in test}
    assert demo_ids.isdisjoint(test_ids)
    assert demo_ids | test_ids == {p.id for p in corpus}


def test_split_rejects_zero_and_too_large():
    corpus = synthetic_corpus(10, seed=4)
    with pytest.raises(ValueError):
        split(corpus, test_size=0, seed=1)
    with pytest.raises(TestSizeTooLarge):
        split(corpus, test_size=10, seed=1)


def test_split_deterministic_and_seed_sensitive():
    corpus = synthetic_corpus(120, seed=5)
    first = split(corpus, test_size=40, seed=11)
    second = split(corpus, test_size=40, seed=11)
    assert first[0] == second[0]
    assert first[1] == second[1]
    other = split(corpus, test_size=40, seed=12)
    assert {p.id for p in other[1]} != {p.id for p in first[1]}


@pytest.mark.parametrize("test_size", [1, 3, 9])
def test_split_partition_property(test_size):
    corpus = synthetic_corpus(10, seed=6)
    demo, test = split(corpus, test_size=test_size, seed=2)
    assert len(demo) + len(test) == len(corpus)
    assert {p.id for p in demo}.isdisjoint({p.id for p in test})


def test_save_load_round_trip(tmp_path):
    corpus = Corpus(
        [
            DemoPair("1", "你好，世界", 'say "hello"', "zh", "en"),
            DemoPair("2", "再见", "goodbye\nfor now", "zh", "en"),
            DemoPair("3", "谢谢", "thanks", "zh", "en"),
        ]
    )
    path = tmp_path / "corpus.bin"
    save(corpus, path)
    assert load(path) == corpus


def test_save_load_full_scale(tmp_path):
    corpus = synthetic_corpus(5528, seed=8)
    path = tmp_path / "corpus.bin"
    save(corpus, path)
    assert len(load(path)) == 5528


def test_load_bad_magic(tmp_path):
    path = tmp_path / "corpus.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(VersionMismatch):
        load(path)


def test_load_truncated(tmp_path):
    corpus = synthetic_corpus(5, seed=9)
    path = tmp_path / "corpus.bin"
    save(corpus, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(VersionMismatch):
        load(path)


@pytest.mark.parametrize("field", ["id", "src_text", "tgt_text"])
def test_load_corrupt_string_is_version_mismatch(tmp_path, field):
    corpus = synthetic_corpus(5, seed=9)
    path = tmp_path / "corpus.bin"
    save(corpus, path)
    data = bytearray(path.read_bytes())
    stored = getattr(corpus[2], field).encode("utf-8")
    at = data.index(stored, data.index(corpus[2].id.encode("utf-8")))
    for offset in (0, len(stored) - 1):
        flipped = bytearray(data)
        flipped[at + offset] ^= 0x80
        path.write_bytes(bytes(flipped))
        with pytest.raises(VersionMismatch, match="UTF-8"):
            load(path)


def test_save_is_deterministic(tmp_path):
    corpus = synthetic_corpus(20, seed=10)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save(corpus, a)
    save(corpus, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_v1_file_asks_for_a_rebuild(tmp_path):
    path = tmp_path / "corpus.bin"
    save(synthetic_corpus(5, seed=9), path)
    path.write_bytes(b"AFSPCOR1" + path.read_bytes()[8:])
    with pytest.raises(VersionMismatch, match="rebuild with `afsp ingest`"):
        load(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "corpus.bin"
    save(synthetic_corpus(5, seed=9), path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(VersionMismatch, match="trailing"):
        load(path)


@pytest.mark.parametrize(
    "pairs",
    [
        [DemoPair("1", "你好", "hello", "zh", "en"), DemoPair("1", "再见", "bye", "zh", "en")],
        [DemoPair("1", "你好", "hello", "zh", "en"), DemoPair("2", "再见", "bye", "ja", "en")],
    ],
)
def test_load_rejects_an_invalid_pair_table(tmp_path, pairs):
    # a file holding pairs that Corpus would reject
    path = tmp_path / "corpus.bin"
    with open(path, "wb") as fh:
        fh.write(CORPUS_MAGIC)
        _binio.write_u32(fh, len(pairs))
        write_pair_table(fh, pairs)
    with pytest.raises(VersionMismatch, match="invalid pair table"):
        load(path)


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "corpus.bin"
    save(synthetic_corpus(4, seed=5), path)
    return path.read_bytes()


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupt_corpus_raises_only_afsp_errors(tmp_path, small_corpus_file, data):
    good = small_corpus_file
    bad = draw_corruption(data, good)
    path = tmp_path / "fuzz.bin"
    path.write_bytes(bad)
    try:
        load(path)
    except AfspError:
        pass


def test_load_rejects_non_monotone_string_offsets(tmp_path):
    # the id column's offsets follow the magic and the u32 count; a step
    # down would cut one id too long and the next one empty
    path = tmp_path / "corpus.bin"
    save(synthetic_corpus(3, seed=9), path)
    data = bytearray(path.read_bytes())
    third = struct.unpack_from("<I", data, 20)[0]
    struct.pack_into("<I", data, 16, third + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch, match="monotone"):
        load(path)
