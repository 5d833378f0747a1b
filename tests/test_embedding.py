import hashlib
import math
import mmap
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afsp.embedding import (
    _CJK_RE,
    OOV_ID_SPACE,
    EmbeddingTable,
    ProjectionSet,
    TextEmbeddings,
    dense_embed,
    embed_tokens,
    init_projections,
    load_table,
    multi_embed,
    save_table,
    segment,
    sparse_embed,
    synthetic_table,
)
from afsp.errors import AfspError, EmptyText, VersionMismatch, ZeroVector
from afsp.retrieval import table_fingerprint
from helpers import corpus_table, draw_corruption, en_sentence, zh_sentence

import random


def make_table(rows, vocab, oov_seed=0):
    return EmbeddingTable(
        vocab=tuple(vocab), matrix=np.array(rows, dtype=np.float32), oov_seed=oov_seed
    )


def test_segment_words():
    assert segment("Hello, world") == ["hello", "world"]


def test_segment_cjk_per_character():
    assert segment("你好世界") == ["你", "好", "世", "界"]


def test_segment_mixed_scripts():
    assert segment("GDP增长了3%") == ["gdp", "增", "长", "了", "3"]


def test_tokenize_in_vocab_and_oov():
    table = make_table([[1.0, 0.0], [0.0, 1.0]], ["hello", "world"])
    assert embed_tokens(table, "hello world").tokens == (0, 1)
    oov = embed_tokens(table, "stranger").tokens[0]
    assert 2 <= oov < 2 + OOV_ID_SPACE
    assert embed_tokens(table, "stranger").tokens[0] == oov


def test_tokenize_empty_raises():
    table = make_table([[1.0, 0.0]], ["hello"])
    with pytest.raises(EmptyText):
        embed_tokens(table, "   ")
    with pytest.raises(EmptyText):
        embed_tokens(table, "!!!")


def test_embed_tokens_uses_table_rows():
    table = make_table([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])
    emb = embed_tokens(table, "a")
    assert emb.vectors.shape == (1, 2)
    np.testing.assert_array_equal(emb.vectors[0], table.matrix[0])


def test_embed_tokens_deterministic():
    table = corpus_table(dim=16)
    text = "双方同意加强合作 with new words"
    first = embed_tokens(table, text)
    second = embed_tokens(table, text)
    assert first.tokens == second.tokens
    assert first.vectors.tobytes() == second.vectors.tobytes()


def test_embed_tokens_shape():
    table = synthetic_table([f"w{i}" for i in range(10)], 64, seed=1)
    emb = embed_tokens(table, "w0 w1 w2 w3 w4")
    assert emb.vectors.shape == (5, 64)


def test_oov_rows_unit_norm_and_keyed_by_token():
    table = make_table([[1.0, 0.0, 0.0]], ["known"], oov_seed=9)
    emb = embed_tokens(table, "alpha beta alpha")
    norms = np.linalg.norm(emb.vectors, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    np.testing.assert_array_equal(emb.vectors[0], emb.vectors[2])
    assert not np.array_equal(emb.vectors[0], emb.vectors[1])


def test_oov_rows_depend_on_seed():
    a = make_table([[1.0, 0.0]], ["known"], oov_seed=1)
    b = make_table([[1.0, 0.0]], ["known"], oov_seed=2)
    va = embed_tokens(a, "mystery").vectors[0]
    vb = embed_tokens(b, "mystery").vectors[0]
    assert not np.array_equal(va, vb)


def test_dense_embed_hand_cases():
    emb = TextEmbeddings(tokens=(0, 1), vectors=np.array([[1, 0], [0, 1]], dtype=np.float32))
    np.testing.assert_allclose(dense_embed(emb).values, [0.7071, 0.7071], atol=1e-4)

    emb = TextEmbeddings(tokens=(0, 1), vectors=np.array([[3, 4], [-3, -4]], dtype=np.float32))
    np.testing.assert_allclose(dense_embed(emb).values, [0.6, 0.8], atol=1e-6)


def test_dense_embed_single_token_is_normalized_row():
    row = np.array([[3.0, 4.0]], dtype=np.float32)
    emb = TextEmbeddings(tokens=(0,), vectors=row)
    np.testing.assert_allclose(dense_embed(emb).values, [0.6, 0.8], atol=1e-6)


def test_dense_embed_zero_vector():
    emb = TextEmbeddings(tokens=(0,), vectors=np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(ZeroVector):
        dense_embed(emb)


def sparse_proj(w):
    dim = len(w)
    return ProjectionSet(
        w_sparse=np.array(w, dtype=np.float32),
        w_multi=np.eye(dim, dtype=np.float32),
        seed=0,
    )


def test_sparse_embed_dot_and_relu():
    emb = TextEmbeddings(tokens=(7,), vectors=np.array([[2.0, 5.0]], dtype=np.float32))
    weights = sparse_embed(emb, sparse_proj([1.0, 0.0])).weights
    assert weights == {7: pytest.approx(2.0)}

    emb = TextEmbeddings(tokens=(7,), vectors=np.array([[-2.0, 5.0]], dtype=np.float32))
    assert sparse_embed(emb, sparse_proj([1.0, 0.0])).weights == {}


def test_sparse_embed_repeated_token_keeps_max():
    emb = TextEmbeddings(
        tokens=(7, 7),
        vectors=np.array([[0.3, 0.0], [0.7, 0.0]], dtype=np.float32),
    )
    weights = sparse_embed(emb, sparse_proj([1.0, 0.0])).weights
    assert weights == {7: pytest.approx(0.7)}


def test_multi_embed_identity_projection_normalizes_rows():
    rows = np.array([[3.0, 4.0], [0.0, 2.0], [1.0, 0.0]], dtype=np.float32)
    emb = TextEmbeddings(tokens=(0, 1, 2), vectors=rows)
    proj = ProjectionSet(
        w_sparse=np.zeros(2, dtype=np.float32),
        w_multi=np.eye(2, dtype=np.float32),
        seed=0,
    )
    out = multi_embed(emb, proj)
    np.testing.assert_allclose(out.rows[0], [0.6, 0.8], atol=1e-6)
    np.testing.assert_allclose(np.linalg.norm(out.rows, axis=1), 1.0, atol=1e-6)


def test_multi_embed_identity_on_unit_rows_is_identity():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((4, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows.astype(np.float32)
    emb = TextEmbeddings(tokens=tuple(range(4)), vectors=rows)
    proj = ProjectionSet(
        w_sparse=np.zeros(8, dtype=np.float32),
        w_multi=np.eye(8, dtype=np.float32),
        seed=0,
    )
    np.testing.assert_allclose(multi_embed(emb, proj).rows, rows, atol=1e-6)


def test_multi_embed_deterministic_bytes():
    table = synthetic_table(["a", "b"], 8, seed=3)
    proj = init_projections(8, seed=4)
    first = multi_embed(embed_tokens(table, "a b"), proj)
    second = multi_embed(embed_tokens(table, "a b"), proj)
    assert first.rows.tobytes() == second.rows.tobytes()


def test_multi_embed_zero_row():
    emb = TextEmbeddings(
        tokens=(0, 1),
        vectors=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
    )
    proj = ProjectionSet(
        w_sparse=np.zeros(2, dtype=np.float32),
        w_multi=np.zeros((2, 2), dtype=np.float32),
        seed=0,
    )
    with pytest.raises(ZeroVector):
        multi_embed(emb, proj)


def test_init_projections_deterministic():
    a = init_projections(4, seed=1)
    b = init_projections(4, seed=1)
    assert a.w_sparse.tobytes() == b.w_sparse.tobytes()
    assert a.w_multi.tobytes() == b.w_multi.tobytes()
    c = init_projections(4, seed=2)
    assert a.w_multi.tobytes() != c.w_multi.tobytes()


def test_init_projections_gaussian_scale():
    proj = init_projections(256, seed=3)
    # mean of H^2 iid N(0, 1/H) entries: sigma_mean = (1/sqrt(H)) / H
    sigma_mean = (1.0 / 16.0) / 256.0
    assert abs(float(proj.w_multi.mean())) < 3.0 * sigma_mean
    assert float(proj.w_multi.std()) == pytest.approx(1.0 / 16.0, rel=0.05)


def test_init_projections_rejects_negative_seed():
    with pytest.raises(ValueError, match="projection seed must be >= 0, got -1"):
        init_projections(4, seed=-1)


def test_init_projections_boundary_dim():
    proj = init_projections(1, seed=5)
    assert proj.w_sparse.shape == (1,)
    assert proj.w_multi.shape == (1, 1)
    with pytest.raises(ValueError):
        init_projections(0, seed=5)


def test_dense_unit_norm_on_random_texts():
    table = corpus_table(dim=32)
    rng = random.Random(17)
    for i in range(25):
        text = zh_sentence(rng) if i % 2 else en_sentence(rng)
        vec = dense_embed(embed_tokens(table, text)).values
        assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-6)


def test_table_round_trip(tmp_path):
    table = corpus_table(dim=16)
    path = tmp_path / "table.bin"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.vocab == table.vocab
    assert loaded.oov_seed == table.oov_seed
    assert loaded.matrix.tobytes() == table.matrix.tobytes()


def test_loaded_table_matrix_is_a_view_of_the_file_bytes(tmp_path):
    path = tmp_path / "table.bin"
    save_table(corpus_table(dim=16), path)
    data = path.read_bytes()
    matrix = load_table(path).matrix
    root = matrix
    while isinstance(root, np.ndarray):
        root = root.base
    # the map a loader reads its file into, with room past the end to align
    root = root.obj if isinstance(root, memoryview) else root
    assert isinstance(root, mmap.mmap) and root[: len(data)] == data
    assert not matrix.flags.writeable


def test_table_copies_and_freezes_a_caller_array():
    rows = np.ones((2, 3), dtype=np.float32)
    read_only_view = rows.view()
    read_only_view.flags.writeable = False
    for matrix in (rows, read_only_view):
        table = EmbeddingTable(vocab=("a", "b"), matrix=matrix, oov_seed=0)
        assert not np.shares_memory(table.matrix, rows)
        assert not table.matrix.flags.writeable
    rows[0, 0] = 5.0
    assert table.matrix[0, 0] == 1.0


def test_table_save_deterministic(tmp_path):
    table = corpus_table(dim=16)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_table(table, a)
    save_table(table, b)
    assert a.read_bytes() == b.read_bytes()


def test_saved_table_bytes_match_golden(tmp_path):
    # digest of the table file written when each header field was written
    # on its own; a change here means the format moved
    path = tmp_path / "table.bin"
    save_table(corpus_table(dim=8, oov_seed=2**64 - 3), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "35082daeffad305badff0e31815d162682836a3e9dcd0c0eded8026799d837a7"
    )


def test_table_fingerprint_of_largest_seeds_matches_golden():
    table = corpus_table(dim=8, oov_seed=2**64 - 3)
    assert table_fingerprint(table, init_projections(8, seed=2**64 - 1)).hex() == (
        "369ede4f0ef5d245c7ea522648a14b90f710e82a1cd02d0cf813f25116885b3a"
    )


@pytest.mark.parametrize("oov_seed", [0, 2**64 - 1])
def test_table_oov_seed_survives_save_and_load(tmp_path, oov_seed):
    table = corpus_table(dim=8, oov_seed=oov_seed)
    path = tmp_path / "table.bin"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.oov_seed == oov_seed
    assert np.array_equal(loaded.oov_vector("zzz"), table.oov_vector("zzz"))
    proj = init_projections(8, seed=1)
    assert table_fingerprint(loaded, proj) == table_fingerprint(table, proj)


@pytest.mark.parametrize(
    "seed, message", [(-1, "must be >= 0, got -1"), (2**64, r"must be < 2\*\*64")]
)
def test_seeds_outside_u64_are_rejected(seed, message):
    with pytest.raises(ValueError, match="oov seed " + message):
        corpus_table(dim=8, oov_seed=seed)
    with pytest.raises(ValueError, match="projection seed " + message):
        init_projections(4, seed=seed)
    w = np.ones(4, dtype=np.float32)
    with pytest.raises(ValueError, match="projection seed " + message):
        ProjectionSet(w_sparse=w, w_multi=np.eye(4, dtype=np.float32), seed=seed)


def test_table_bad_magic(tmp_path):
    path = tmp_path / "table.bin"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
    with pytest.raises(VersionMismatch):
        load_table(path)


def test_table_truncated(tmp_path):
    table = corpus_table(dim=16)
    path = tmp_path / "table.bin"
    save_table(table, path)
    path.write_bytes(path.read_bytes()[:-64])
    with pytest.raises(VersionMismatch):
        load_table(path)


def test_table_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "table.bin"
    save_table(corpus_table(dim=16), path)
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(VersionMismatch, match="trailing"):
        load_table(path)


def test_table_rejects_duplicate_vocab():
    with pytest.raises(ValueError):
        make_table([[1.0], [2.0]], ["dup", "dup"])


@pytest.mark.parametrize("entry", [1e300, -1e39, np.nan])
def test_table_checks_its_entries_as_stored_in_float32(entry):
    # a float64 entry beyond float32's range would be stored, and saved, as
    # inf; it is rejected when built, and without an overflow warning
    with pytest.raises(ValueError, match="non-finite entries as float32"):
        EmbeddingTable(("a",), np.array([[entry, 0.0]]), 0)
    assert make_table([[np.finfo(np.float32).max, 0.0]], ["a"]).matrix[0, 0] < np.inf


def test_table_file_with_repeated_token_is_version_mismatch(tmp_path):
    path = tmp_path / "table.bin"
    save_table(make_table([[1.0], [2.0]], ["a", "b"]), path)
    data = path.read_bytes()
    at = data.rindex(b"b")  # the second token's only byte
    path.write_bytes(data[:at] + b"a" + data[at + 1 :])
    with pytest.raises(VersionMismatch, match="unique"):
        load_table(path)


def test_table_file_with_nan_is_version_mismatch(tmp_path):
    path = tmp_path / "table.bin"
    save_table(make_table([[1.0], [2.0]], ["a", "b"]), path)
    data = path.read_bytes()
    path.write_bytes(data[:-4] + np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(VersionMismatch, match="non-finite"):
        load_table(path)


def reference_segment(text):
    """The per-character segmentation that ``segment``'s one regex replaced."""
    tokens, buf = [], []
    for ch in text.lower():
        if _CJK_RE.match(ch):
            tokens.extend(re.findall(r"\w+", "".join(buf)))
            buf.clear()
            tokens.append(ch)
        else:
            buf.append(ch)
    tokens.extend(re.findall(r"\w+", "".join(buf)))
    return tokens


def test_segment_matches_per_character_reference():
    for cp in range(0x10000):
        if 0xD800 <= cp < 0xE000:
            continue
        text = f"a{chr(cp)}b中{chr(cp)}{chr(cp)} "
        assert segment(text) == reference_segment(text), hex(cp)
    pool = [chr(c) for r in ((0x20, 0x250), (0x2FF0, 0x3110), (0x4DB0, 0x4E10),
                             (0x9FF0, 0xA010), (0xF8F0, 0xFB10), (0x400, 0x460)) for c in range(*r)]
    pool += ["İ", "ẞ", "　", " ", "\U00020000"]
    rng = random.Random(5)
    for _ in range(5000):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
        assert segment(text) == reference_segment(text), repr(text)


@pytest.fixture(scope="module")
def small_table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "table.bin"
    save_table(synthetic_table(["a", "bb", "好"], dim=3, seed=4), path)
    return path.read_bytes()


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupt_table_raises_only_afsp_errors(tmp_path, small_table_file, data):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(draw_corruption(data, small_table_file))
    try:
        load_table(path)
    except AfspError:
        pass


def test_loading_a_table_allocates_no_temporary_the_size_of_its_matrix(tmp_path):
    # the matrix stays a view of the file's map, and the finiteness check
    # runs over blocks of rows: a V x H bool temporary would be 8x the bound
    v, h = 512, 4096
    path = tmp_path / "table.bin"
    save_table(make_table(np.ones((v, h)), [f"t{i}" for i in range(v)]), path)
    tracemalloc.start()
    try:
        load_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < v * h / 8
