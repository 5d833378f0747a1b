import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afsp import _binio
from afsp import corpus as corpus_mod
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
from afsp.embedding import init_projections
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
from afsp.retrieval import INDEX_MAGIC, build_index, load_index, save_index
from helpers import (
    corpus_table,
    draw_corruption,
    synthetic_corpus,
    synthetic_pairs,
    write_jsonl,
)


def test_demo_pair_rejects_blank_text():
    with pytest.raises(ValueError, match="^pair '1': empty source text$"):
        Corpus([DemoPair("1", "  ", "hello", "zh", "en")])
    with pytest.raises(ValueError, match="^pair '1': empty target text$"):
        Corpus([DemoPair("1", "你好", "\t", "zh", "en")])


def test_demo_pair_rejects_same_language():
    with pytest.raises(ValueError, match="^pair '1': src_lang and tgt_lang are both 'en'$"):
        Corpus([DemoPair("1", "hi", "hello", "en", "en")])


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


@pytest.mark.parametrize("field", ["id", "src", "tgt"])
def test_ingest_lone_surrogate_escape_is_malformed_on_its_line(tmp_path, field):
    path = tmp_path / "pairs.jsonl"
    rec = {"id": "1", "src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}
    bad = json.dumps({**rec, "id": "2", field: "\ud800x"})
    path.write_text(json.dumps(rec) + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="lone surrogate") as excinfo:
        ingest(path)
    assert excinfo.value.line_no == 3


def test_ingest_keeps_escaped_surrogate_pairs(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        r'{"src": "你好", "tgt": "a \ud83d\ude00 \\ud800", "src_lang": "zh", "tgt_lang": "en"}',
        encoding="utf-8",
    )
    assert ingest(path)[0].tgt_text == "a \U0001f600 \\ud800"


def test_ingest_missing_field(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"id": "1", "src": "你好"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        ingest(path)


@pytest.mark.parametrize(
    "field, value", [("src", None), ("tgt", ["hello"]), ("src_lang", 1), ("tgt_lang", True)]
)
def test_ingest_non_string_field_is_malformed(tmp_path, field, value):
    path = tmp_path / "pairs.jsonl"
    rec = {"id": "1", "src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}
    bad = {**rec, "id": "2", field: value}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=f"^line 2: {field} must be a string$"):
        ingest(path)


def hook_demo_pair(monkeypatch) -> list[DemoPair]:
    """Every DemoPair that afsp.corpus builds from now on, in order."""
    built = []
    def build(*args, **kwargs) -> DemoPair:
        built.append(DemoPair(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(corpus_mod, "DemoPair", build)
    return built


def test_ingest_builds_no_demo_pair(tmp_path, monkeypatch):
    path = tmp_path / "pairs.jsonl"
    write_jsonl(path, synthetic_pairs(5, seed=3))
    built = hook_demo_pair(monkeypatch)
    assert len(ingest(path)) == 5
    assert built == []


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


def test_saved_corpus_bytes_match_golden(tmp_path):
    # digest of the corpus file written when its pair count was written by
    # a one-field helper; a change here means the format moved
    pairs = synthetic_pairs(12, seed=4)
    pairs.append(DemoPair("x", "双方 mutual trust 2024", "both sides", "zh", "en"))
    path = tmp_path / "corpus.bin"
    save(Corpus(pairs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f20bcb39d6fe5dc1e39e4589042f4169676702154d46784db0c09f9ea34eea02"
    )


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
        {"id": ["1", "1"], "src_text": ["你好", "再见"], "tgt_text": ["hello", "bye"],
         "src_lang": ["zh", "zh"], "tgt_lang": ["en", "en"]},
        {"id": ["1", "2"], "src_text": ["你好", "再见"], "tgt_text": ["hello", "bye"],
         "src_lang": ["zh", "ja"], "tgt_lang": ["en", "en"]},
    ],
)
def test_load_rejects_an_invalid_pair_table(tmp_path, pairs):
    # a file holding pairs that Corpus would reject
    path = tmp_path / "corpus.bin"
    path.write_bytes(CORPUS_MAGIC + struct.pack("<I", 2) + pair_table_bytes(pairs))
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


# -- the columnar loader, through both files that hold a pair table --------

GOOD = {
    "id": ["a", "b", "c"],
    "src_text": ["你好", "世界", "再见"],
    "tgt_text": ["hello", "world", "bye"],
    "src_lang": ["zh"] * 3,
    "tgt_lang": ["en"] * 3,
}
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.fixture(scope="module")
def index_parts(tmp_path_factory):
    """For 1-5 entries: an index file's bytes before and after its pair
    table, so that any pair table of that length can go in between."""
    table = corpus_table(dim=8)
    proj = init_projections(8, seed=3)
    path = tmp_path_factory.mktemp("parts") / "index.bin"
    parts = {}
    for n in range(1, 6):
        index = build_index(synthetic_corpus(n, seed=n), table, proj)
        save_index(index, path)
        data = path.read_bytes()
        head = len(INDEX_MAGIC) + 32 + 20
        parts[n] = data[:head], data[head + len(pair_table_bytes(index.corpus)) :]
    return parts


def pair_table_bytes(table) -> bytes:
    """A pair table from a Corpus or a dict of one column per field, each
    a list of strings or an (offsets, bytes) pair."""
    fh = io.BytesIO()
    if isinstance(table, dict):
        for field in GOOD:
            column = table[field]
            if isinstance(column, list):
                column = _binio.encode_str_column(column)
            _binio.write_str_column(fh, column)
    else:
        write_pair_table(fh, table)
    return fh.getvalue()


@pytest.fixture(params=["corpus", "index"])
def load_table(request, tmp_path, index_parts):
    """Write a file holding the given pair table of n pairs, in the corpus
    or the index format, and load it; returns the loaded corpus."""

    def write_and_load(table, n: int) -> Corpus:
        path = tmp_path / f"{request.param}.bin"
        if request.param == "corpus":
            path.write_bytes(CORPUS_MAGIC + struct.pack("<I", n) + pair_table_bytes(table))
            return load(path)
        head, tail = index_parts[n]
        path.write_bytes(head + pair_table_bytes(table) + tail)
        return load_index(path).corpus

    return write_and_load


def test_offset_inside_a_character_is_version_mismatch(load_table):
    # the blob is valid UTF-8, but the second text starts at byte 4 of 好
    offsets, data = _binio.encode_str_column(GOOD["src_text"])
    offsets = offsets.copy()
    offsets[1] = 4
    with pytest.raises(VersionMismatch, match="UTF-8"):
        load_table({**GOOD, "src_text": (offsets, data)}, 3)


@pytest.mark.parametrize("field", ["src_text", "tgt_text"])
def test_all_whitespace_text_is_rejected(load_table, field):
    for space in WHITESPACE + [" \t\u3000\u00a0\n"]:
        texts = list(GOOD[field])
        texts[1] = space
        with pytest.raises(VersionMismatch, match="invalid pair table: pair 'b': empty"):
            load_table({**GOOD, field: texts}, 3)


def test_text_starting_with_whitespace_or_a_lead_byte_of_one_loads(load_table):
    # each starts with a byte that also starts a whitespace character
    texts = ["\u3000你好", "、世界", "\u00a0x"]
    assert load_table({**GOOD, "src_text": texts}, 3).strings("src_text") == texts


@pytest.mark.parametrize(
    "field, texts, message",
    [
        ("id", ["a", "b", "a"], "duplicate pair id 'a'"),
        ("id", ["", "b", ""], "duplicate pair id ''"),
        ("src_lang", ["zh", "zh", "ja"], "pair 'c' is ja->en, corpus is zh->en"),
        ("tgt_lang", ["en", "", "en"], "pair 'b' is zh->, corpus is zh->en"),
        ("src_lang", ["", "", ""], "missing language code"),
        ("tgt_lang", ["zh", "zh", "zh"], "src_lang and tgt_lang are both 'zh'"),
    ],
    ids=["duplicate-id", "duplicate-empty-id", "mixed", "one-empty-code", "empty-code", "same-lang"],
)
def test_invalid_pair_table_is_version_mismatch(load_table, field, texts, message):
    with pytest.raises(VersionMismatch, match=f"invalid pair table: .*{message}"):
        load_table({**GOOD, field: texts}, 3)


# one bad pair per case: the field it changes, the column it gets, the row
# whose line an ingested file names (None if the error names no line), the
# error a built corpus raises and the reason every path gives
PAIR_FAULTS = {
    "blank-source": ("src_text", ["你好", " \u3000", "再见"], 1, ValueError, "pair 'b': empty source text"),
    "blank-target": ("tgt_text", ["hello", "world", "\t"], 2, ValueError, "pair 'c': empty target text"),
    "missing-code": ("src_lang", ["", "", ""], 0, ValueError, "pair 'a': missing language code"),
    "equal-codes": ("tgt_lang", ["zh"] * 3, 0, ValueError, "pair 'a': src_lang and tgt_lang are both 'zh'"),
    "mixed": ("src_lang", ["zh", "zh", "ja"], None, MixedLanguagePair, "pair 'c' is ja->en, corpus is zh->en"),
    "mixed-empty-code": ("tgt_lang", ["en", "", "en"], None, MixedLanguagePair, "pair 'b' is zh->, corpus is zh->en"),
    "duplicate-id": ("id", ["a", "b", "a"], None, DuplicateId, "duplicate pair id 'a'"),
}


@pytest.mark.parametrize("fault", PAIR_FAULTS.values(), ids=PAIR_FAULTS)
def test_a_bad_pair_gives_one_reason_built_ingested_and_loaded(load_table, tmp_path, fault):
    field, texts, row, error, reason = fault
    table = {**GOOD, field: texts}
    with pytest.raises(error) as built:
        Corpus([DemoPair(*fields) for fields in zip(*table.values())])
    assert str(built.value) == reason
    # the three records are on lines 2, 4 and 5
    path = tmp_path / "pairs.jsonl"
    keys = ("id", "src", "tgt", "src_lang", "tgt_lang")
    records = [json.dumps(dict(zip(keys, fields))) for fields in zip(*table.values())]
    path.write_text("\n{}\n\n{}\n{}\n".format(*records), encoding="utf-8")
    with pytest.raises(error if row is None else MalformedRecord) as ingested:
        ingest(path)
    if row is None:
        assert str(ingested.value) == reason
    else:
        assert (ingested.value.line_no, ingested.value.reason) == ([2, 4, 5][row], reason)
    with pytest.raises(VersionMismatch) as loaded:
        load_table(table, 3)
    assert str(loaded.value) == f"invalid pair table: {reason}"


def test_loading_builds_no_demo_pair(load_table, monkeypatch):
    pairs = synthetic_pairs(5, seed=3)
    built = hook_demo_pair(monkeypatch)
    corpus = load_table(Corpus(pairs), 5)
    assert built == []
    # the columns are read-only views of the loaded file's bytes
    assert all(_binio.sealed(a) for column in corpus._columns.values() for a in column)
    assert corpus[3] == pairs[3]
    assert built == [pairs[3]]


@st.composite
def unicode_corpora(draw) -> Corpus:
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    text = st.text(min_size=1, max_size=12).filter(str.strip)
    code = st.text(min_size=1, max_size=3)
    src_lang = draw(code)
    tgt_lang = draw(code.filter(lambda c: c != src_lang))
    return Corpus([DemoPair(i, draw(text), draw(text), src_lang, tgt_lang) for i in ids])


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus=unicode_corpora())
def test_unicode_corpus_round_trips(load_table, corpus):
    loaded = load_table(corpus, len(corpus))
    assert loaded == corpus
    assert list(loaded) == list(corpus)
    assert loaded[:] == list(corpus) and loaded.pairs[-1] == corpus[len(corpus) - 1]


def test_loading_checks_utf8_without_a_copy_of_a_column(tmp_path):
    # a 1.2 MB target column of 3-byte characters, which straddle the
    # check's 64 KiB slices: its peak stays under half the column's size
    texts = [f"译文{i:05d}" + "好" * 380 for i in range(1050)]
    pairs = [DemoPair(f"{i:05d}", f"source {i}", t, "en", "zh") for i, t in enumerate(texts)]
    path = tmp_path / "c.bin"
    save(Corpus(pairs), path)
    assert path.stat().st_size > 1_200_000
    load(path)  # the loader's buffer pool is warm
    tracemalloc.start()
    try:
        loaded = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.strings("tgt_text") == texts
    assert peak < 600_000


def test_the_column_check_imports_no_numpy_ma():
    # np.unique and np.isin import numpy.ma at their first call (numpy 2),
    # which raised a loading process's peak memory by about 1 MB
    script = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from afsp.corpus import Corpus, DemoPair\n"
        "Corpus([DemoPair('a', ' x', 'y', 'en', 'zh'), DemoPair('b', 'z', '　w', 'en', 'zh')])\n"
        "print(eager, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(corpus_mod.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    eager, imported = run.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy")
    assert imported == "False"
