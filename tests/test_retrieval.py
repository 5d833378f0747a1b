import math
import random
import struct
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import afsp.retrieval
from afsp.corpus import Corpus, DemoPair
from afsp.embedding import (
    DenseVec,
    MultiVec,
    SparseWeights,
    dense_embed,
    embed_tokens,
    init_projections,
    multi_embed,
    sparse_embed,
)
from afsp.errors import (
    AfspError,
    DimensionMismatch,
    EmptyQuery,
    EmptyText,
    FingerprintMismatch,
    VersionMismatch,
)
from afsp.retrieval import (
    RetrievalIndex,
    Weights,
    build_index,
    load_index,
    retrieve_many,
    retrieve_topk,
    save_index,
    score_dense,
    score_hybrid,
    score_multi,
    score_sparse,
    table_fingerprint,
)
from helpers import (
    corpus_table,
    draw_corruption,
    corpus_vocab,
    en_sentence,
    per_row_scan,
    synthetic_corpus,
    zh_sentence,
)


def unit(values):
    arr = np.array(values, dtype=np.float32)
    return DenseVec(values=arr / np.linalg.norm(arr))


def unit_rows(rows):
    arr = np.array(rows, dtype=np.float64)
    arr /= np.linalg.norm(arr, axis=1, keepdims=True)
    return MultiVec(rows=arr.astype(np.float32))


def test_score_dense_cases():
    q = unit([0.6, 0.8])
    assert score_dense(q, q) == pytest.approx(1.0, abs=1e-6)
    assert score_dense(unit([1, 0]), unit([0, 1])) == pytest.approx(0.0, abs=1e-7)
    assert score_dense(unit([0.6, 0.8]), unit([0.8, 0.6])) == pytest.approx(0.96, abs=1e-6)


def test_score_dense_symmetric_and_dim_checked():
    a, b = unit([0.3, 0.7]), unit([0.9, 0.1])
    assert score_dense(a, b) == score_dense(b, a)
    with pytest.raises(DimensionMismatch):
        score_dense(unit([1, 0]), unit([1, 0, 0]))


def test_score_sparse_cases():
    assert score_sparse(SparseWeights({1: 1.0}), SparseWeights({2: 1.0})) == 0.0
    assert score_sparse(SparseWeights({5: 0.5}), SparseWeights({5: 0.4})) == pytest.approx(0.2)
    q = SparseWeights({1: 1.0, 2: 2.0})
    p = SparseWeights({2: 3.0, 3: 1.0})
    assert score_sparse(q, p) == pytest.approx(6.0)
    assert score_sparse(p, q) == score_sparse(q, p)


def test_score_sparse_bitwise_symmetric_for_equal_sizes():
    # equal-size maps exercise the canonical summation order; symmetry must
    # hold exactly, not just within tolerance
    rng = random.Random(3)
    for _ in range(50):
        ids = rng.sample(range(1000), 40)
        q = SparseWeights({t: rng.random() for t in ids[:25]})
        p = SparseWeights({t: rng.random() for t in ids[10:35]})
        assert score_sparse(q, p) == score_sparse(p, q)


def test_score_multi_cases():
    q = unit_rows([[1, 0], [0, 1]])
    assert score_multi(q, q) == pytest.approx(1.0, abs=1e-6)

    a = unit_rows([[1.0, 0.0]])
    cos03 = unit_rows([[0.3, math.sqrt(1 - 0.09)]])
    assert score_multi(a, cos03) == pytest.approx(0.3, abs=1e-6)

    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8])
    q = unit_rows([u, v])
    p = unit_rows([u])
    assert score_multi(q, p) == pytest.approx((1.0 + float(u @ v)) / 2.0, abs=1e-6)
    # not symmetric: every row of p matches itself in q
    assert score_multi(p, q) == pytest.approx(1.0, abs=1e-6)

    with pytest.raises(DimensionMismatch):
        score_multi(unit_rows([[1, 0]]), unit_rows([[1, 0, 0]]))


def test_score_hybrid_cases():
    w = Weights(0.4, 0.4, 0.2)
    assert score_hybrid(0.9, 2.5, 0.8, w) == 1.52
    assert score_hybrid(0.0, 0.0, 0.0, w) == 0.0
    assert score_hybrid(0.7, 99.0, -5.0, Weights(1, 0, 0)) == 0.7


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        Weights(0.0, 0.0, 0.0)
    Weights(0.0, 0.0, 1.0)
    for bad in (True, "0.5", float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="alphas must be a finite number"):
            Weights(bad, 0, 0)


@pytest.fixture(scope="module")
def stack():
    corpus = synthetic_corpus(60, seed=21, unique_src=True)
    table = corpus_table(dim=32)
    proj = init_projections(32, seed=13)
    index = build_index(corpus, table, proj)
    return corpus, table, proj, index


def test_build_index_order_and_fingerprint(stack):
    corpus, table, proj, index = stack
    assert len(index) == len(corpus)
    assert index.corpus == corpus
    assert index.fingerprint == table_fingerprint(table, proj)


def test_build_index_reports_offending_pair():
    bad = Corpus(
        [
            DemoPair("ok", "你好", "hello", "zh", "en"),
            DemoPair("bad", "!!!", "hello again", "zh", "en"),
        ]
    )
    table = corpus_table(dim=8)
    proj = init_projections(8, seed=1)
    with pytest.raises(EmptyText, match="bad"):
        build_index(bad, table, proj)


ARRAYS = (
    "dense",
    "sparse_indptr",
    "sparse_ids",
    "sparse_weights",
    "multi_rows",
    "multi_offsets",
    "multi_row_ids",
)


def test_index_round_trip_and_determinism(tmp_path, stack):
    _, table, proj, index = stack
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, a)
    save_index(index, b)
    assert a.read_bytes() == b.read_bytes()

    loaded = load_index(a)
    assert loaded.fingerprint == index.fingerprint
    assert len(loaded) == len(index)
    assert loaded.corpus == index.corpus
    for name in ARRAYS:
        orig, back = getattr(index, name), getattr(loaded, name)
        assert orig.shape == back.shape
        assert orig.tobytes() == back.tobytes(), name


def test_index_stores_each_distinct_row_once(stack):
    corpus, table, proj, index = stack
    assert index.dense.dtype == index.multi_rows.dtype == np.float32
    assert len({row.tobytes() for row in index.multi_rows}) == len(index.multi_rows)
    seen = []
    for i, pair in enumerate(corpus):
        emb = embed_tokens(table, pair.src_text)
        assert index.dense[i].tobytes() == dense_embed(emb).values.tobytes()
        a, b = index.sparse_indptr[i : i + 2]
        want = sorted(sparse_embed(emb, proj).weights.items())
        assert list(zip(index.sparse_ids[a:b].tolist(), index.sparse_weights[a:b].tolist())) == want
        # the entry's distinct rows, in order of first appearance
        rows = [r.tobytes() for r in multi_embed(emb, proj).rows]
        a, b = index.multi_offsets[i : i + 2]
        got = [index.multi_rows[j].tobytes() for j in index.multi_row_ids[a:b]]
        assert got == list(dict.fromkeys(rows))
        seen.extend(r for r in rows if r not in seen)
    # distinct rows in order of first appearance over the corpus
    assert [r.tobytes() for r in index.multi_rows] == seen


def test_index_bad_magic_and_truncation(tmp_path, stack):
    *_, index = stack
    path = tmp_path / "x.idx"
    save_index(index, path)
    data = path.read_bytes()
    path.write_bytes(b"BADMAGIC" + data[8:])
    with pytest.raises(VersionMismatch):
        load_index(path)
    path.write_bytes(data[: len(data) - 100])
    with pytest.raises(VersionMismatch):
        load_index(path)


def test_index_v1_file_asks_for_a_rebuild(tmp_path, stack):
    *_, index = stack
    path = tmp_path / "x.idx"
    save_index(index, path)
    path.write_bytes(b"AFSPIDX1" + path.read_bytes()[8:])
    with pytest.raises(VersionMismatch, match="rebuild with `afsp index`"):
        load_index(path)


def save_variant(index, path, **arrays):
    """Save ``index`` with some of its arrays replaced, without building
    the scan arrays from them."""
    fields = {name: getattr(index, name) for name in ARRAYS}
    fields.update(arrays)
    save_index(SimpleNamespace(corpus=index.corpus, fingerprint=index.fingerprint, **fields), path)


def test_index_rejects_entry_without_multi_rows(tmp_path, stack):
    *_, index = stack
    offsets = index.multi_offsets.copy()
    ids = np.delete(index.multi_row_ids, np.arange(offsets[0], offsets[1]))
    offsets[1:] -= offsets[1]
    path = tmp_path / "hollow.idx"
    save_variant(index, path, multi_offsets=offsets, multi_row_ids=ids)
    with pytest.raises(VersionMismatch, match="entry 0"):
        load_index(path)


def test_index_rejects_row_id_out_of_range(tmp_path, stack):
    *_, index = stack
    ids = index.multi_row_ids.copy()
    ids[7] = len(index.multi_rows)
    path = tmp_path / "x.idx"
    save_variant(index, path, multi_row_ids=ids)
    with pytest.raises(VersionMismatch, match="row id"):
        load_index(path)


@pytest.mark.parametrize("name", ["multi_offsets", "sparse_indptr"])
def test_index_rejects_non_monotone_offsets(tmp_path, stack, name):
    *_, index = stack
    offsets = getattr(index, name).copy()
    offsets[3], offsets[4] = offsets[4], offsets[3]
    path = tmp_path / "x.idx"
    save_variant(index, path, **{name: offsets})
    with pytest.raises(VersionMismatch, match="monotone"):
        load_index(path)


@pytest.mark.parametrize("name", ["dense", "multi_rows"])
@pytest.mark.parametrize("scale", [0.5, 1.01, np.nan])
def test_index_rejects_non_unit_rows(tmp_path, stack, name, scale):
    *_, index = stack
    rows = getattr(index, name).copy()
    rows[2] *= scale
    path = tmp_path / "x.idx"
    save_variant(index, path, **{name: rows})
    with pytest.raises(VersionMismatch, match="unit norm"):
        load_index(path)


@pytest.mark.parametrize("fault", ["unsorted", "duplicate"])
def test_index_rejects_bad_sparse_ids(tmp_path, stack, fault):
    *_, index = stack
    a, b = index.sparse_indptr[5:7]
    assert b - a >= 2
    ids = index.sparse_ids.copy()
    if fault == "unsorted":
        ids[a], ids[a + 1] = ids[a + 1], ids[a]
    else:
        ids[a + 1] = ids[a]
    path = tmp_path / "x.idx"
    save_variant(index, path, sparse_ids=ids)
    with pytest.raises(VersionMismatch, match="ascending"):
        load_index(path)


def test_index_allows_sparse_ids_to_restart_per_entry(tmp_path):
    # entries with no sparse weights at the start, middle and end, and ids
    # that fall back where a new entry starts
    pairs = [DemoPair(f"p{i}", t, "x", "zh", "en") for i, t in enumerate(["你好", "世界", "你好世界"])]
    table = corpus_table(dim=8)
    proj = init_projections(8, seed=1)
    index = build_index(Corpus(pairs), table, proj)
    path = tmp_path / "x.idx"
    for indptr, ids in (
        ([0, 0, 2, 2], [9, 10]),
        ([0, 1, 2, 2], [10, 9]),
        ([0, 1, 1, 2], [10, 10]),
    ):
        save_variant(
            index,
            path,
            sparse_indptr=np.array(indptr, dtype=np.uint32),
            sparse_ids=np.array(ids, dtype=np.uint32),
            sparse_weights=np.ones(len(ids), dtype=np.float32),
        )
        assert len(load_index(path)) == 3


def test_index_rejects_non_positive_sparse_weights(tmp_path, stack):
    *_, index = stack
    for bad in (0.0, -1.0, np.inf):
        weights = index.sparse_weights.copy()
        weights[4] = bad
        path = tmp_path / "x.idx"
        save_variant(index, path, sparse_weights=weights)
        with pytest.raises(VersionMismatch, match="sparse weights"):
            load_index(path)


# the five u32 counts after the 8-byte magic and the 32-byte fingerprint
COUNT_AT = {name: 40 + 4 * i for i, name in enumerate(("n", "dim", "rows", "nnz", "ids"))}


@pytest.mark.parametrize("name", list(COUNT_AT))
def test_index_rejects_counts_larger_than_the_file(tmp_path, stack, name):
    *_, index = stack
    path = tmp_path / "x.idx"
    save_index(index, path)
    data = path.read_bytes()
    at = COUNT_AT[name]
    for value in (0xFFFFFFFF, len(data), struct.unpack_from("<I", data, at)[0] + 1):
        path.write_bytes(data[:at] + struct.pack("<I", value) + data[at + 4 :])
        with pytest.raises(VersionMismatch):
            load_index(path)


def test_index_rejects_trailing_bytes(tmp_path, stack):
    *_, index = stack
    path = tmp_path / "x.idx"
    save_index(index, path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(VersionMismatch, match="trailing"):
        load_index(path)


def test_index_corrupt_string_is_version_mismatch(tmp_path, stack):
    *_, index = stack
    path = tmp_path / "x.idx"
    save_index(index, path)
    data = bytearray(path.read_bytes())
    pair = index.corpus[5]
    for text in (pair.id, pair.src_text, pair.tgt_text):
        flipped = bytearray(data)
        flipped[data.index(text.encode("utf-8"))] ^= 0x80
        path.write_bytes(bytes(flipped))
        with pytest.raises(VersionMismatch, match="UTF-8"):
            load_index(path)


@pytest.fixture(scope="module")
def small_index_file(tmp_path_factory):
    corpus = synthetic_corpus(6, seed=2)
    table = corpus_table(dim=8)
    proj = init_projections(8, seed=3)
    path = tmp_path_factory.mktemp("fuzz") / "small.idx"
    save_index(build_index(corpus, table, proj), path)
    return path.read_bytes(), table, proj


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupt_index_raises_only_afsp_errors(tmp_path, small_index_file, data):
    good, table, proj = small_index_file
    bad = draw_corruption(data, good)
    path = tmp_path / "fuzz.idx"
    path.write_bytes(bad)
    try:
        index = load_index(path)
        # what loads must also serve without a non-package error
        retrieve_topk("双方同意加强合作", index, table, proj, Weights(), k=2)
    except AfspError:
        pass


def test_retrieve_identical_source_ranks_first(stack):
    corpus, table, proj, index = stack
    w = Weights()
    for pair in list(corpus)[::7]:
        top = retrieve_topk(pair.src_text, index, table, proj, w, k=3)
        assert top[0].pair.id == pair.id


def test_retrieve_k_and_short_corpus(stack):
    corpus, table, proj, index = stack
    w = Weights()
    assert len(retrieve_topk("双方同意加强合作", index, table, proj, w, k=3)) == 3
    assert len(retrieve_topk("双方同意加强合作", index, table, proj, w, k=500)) == len(corpus)
    with pytest.raises(ValueError):
        retrieve_topk("双方", index, table, proj, w, k=0)


def test_retrieve_tie_breaks_by_corpus_order():
    pairs = [
        DemoPair("first", "你好世界", "hello world", "zh", "en"),
        DemoPair("clone", "你好世界", "hello world again", "zh", "en"),
        DemoPair("other", "完全不同的句子内容", "something else", "zh", "en"),
    ]
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=2)
    index = build_index(Corpus(pairs), table, proj)
    top = retrieve_topk("你好世界", index, table, proj, Weights(), k=2)
    assert [s.pair.id for s in top] == ["first", "clone"]
    assert top[0].s_rank == top[1].s_rank


@pytest.mark.parametrize("normalize", [False, True])
def test_byte_identical_dense_rows_tie_exactly(normalize):
    # a BLAS product scored the three "上" rows 0.9999999457642182, ...182
    # and ...181, by their position in the matrix
    texts = ["上", "发区", "上", "区发", "上", "中"]
    corpus = Corpus([DemoPair(f"e{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(texts)])
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    # "发区" and "区发" pool to the same dense row and tie too
    assert index.dense[0].tobytes() == index.dense[2].tobytes() == index.dense[4].tobytes()
    assert index.dense[1].tobytes() == index.dense[3].tobytes()
    full = retrieve_topk("上", index, table, proj, Weights(), k=len(corpus), normalize_scores=normalize)
    assert [g.pair.id for g in full] == ["e0", "e2", "e4", "e5", "e1", "e3"]
    assert len({(g.s_dense, g.s_sparse, g.s_multi, g.s_rank) for g in full[:3]}) == 1
    assert (full[4].s_dense, full[4].s_rank) == (full[5].s_dense, full[5].s_rank)
    for k in range(1, len(corpus) + 2):
        top = retrieve_topk("上", index, table, proj, Weights(), k=k, normalize_scores=normalize)
        assert top == full[:k]


@pytest.mark.parametrize("normalize", [False, True])
def test_partial_top_k_keeps_ties_at_the_cut(normalize):
    # 40 entries over 5 source texts: every cut falls in or next to a block
    # of exact ties, which must come out in corpus order as in a full sort
    rng = random.Random(12)
    sources = ["你好世界", "双方同意加强合作", "完全不同的句子内容", "世界", "合作"]
    pairs = [
        DemoPair(f"t{i:02d}", rng.choice(sources), f"text {i}", "zh", "en") for i in range(40)
    ]
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=2)
    index = build_index(Corpus(pairs), table, proj)
    w = Weights()
    for query in ("你好", "双方合作", "世界的内容"):
        full = retrieve_topk(query, index, table, proj, w, k=len(pairs), normalize_scores=normalize)
        keys = [(-s.s_rank, s.pair.id) for s in full]
        assert keys == sorted(keys)
        assert len({s.s_rank for s in full}) <= len(sources)
        for k in range(1, len(pairs)):
            top = retrieve_topk(query, index, table, proj, w, k=k, normalize_scores=normalize)
            assert [(s.pair.id, s.s_rank) for s in top] == [(s.pair.id, s.s_rank) for s in full[:k]]


def test_top_k_stable_equals_full_stable_sort():
    rng = np.random.default_rng(4)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        scores = rng.integers(-3, 4, size=n).astype(np.float64)
        scores[rng.random(n) < 0.2] = -0.0
        if trial % 4 == 0:
            scores[rng.random(n) < 0.2] = np.nan
        for k in range(1, n + 2):
            want = np.argsort(-scores, kind="stable")[:k]
            assert afsp.retrieval._top_k_stable(scores, k).tolist() == want.tolist()


def test_retrieve_fingerprint_mismatch(stack):
    _, table, proj, index = stack
    other = init_projections(32, seed=99)
    with pytest.raises(FingerprintMismatch):
        retrieve_topk("你好", index, table, other, Weights(), k=1)


def test_retrieve_empty_query(stack):
    _, table, proj, index = stack
    with pytest.raises(EmptyQuery):
        retrieve_topk("   ", index, table, proj, Weights(), k=1)


def brute_force(query, corpus, table, proj, weights, normalize=False):
    """Independent exhaustive scorer over representations recomputed from
    the corpus text, in raw numpy."""
    emb = embed_tokens(table, query)
    qd = dense_embed(emb).values.astype(np.float64)
    qs = sparse_embed(emb, proj).weights
    qm = multi_embed(emb, proj).rows.astype(np.float64)
    rows = []
    for pos, pair in enumerate(corpus):
        p_emb = embed_tokens(table, pair.src_text)
        p_sparse = sparse_embed(p_emb, proj).weights
        sd = float(qd @ dense_embed(p_emb).values.astype(np.float64))
        ss = 0.0
        for tid, w in qs.items():
            if tid in p_sparse:
                ss += w * p_sparse[tid]
        sims = qm @ multi_embed(p_emb, proj).rows.astype(np.float64).T
        sm = float(np.mean(np.max(sims, axis=1)))
        rows.append([pos, sd, ss, sm])
    if normalize:
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            lo, hi = min(vals), max(vals)
            for r in rows:
                r[col] = 0.0 if hi - lo < 1e-12 else (r[col] - lo) / (hi - lo)
    scored = [
        (pos, sd, ss, sm, weights.alpha1 * sd + weights.alpha2 * ss + weights.alpha3 * sm)
        for pos, sd, ss, sm in rows
    ]
    scored.sort(key=lambda r: (-r[4], r[0]))
    return scored


def test_retrieve_matches_brute_force_oracle(stack):
    corpus, table, proj, index = stack
    rng = random.Random(31)
    w = Weights()
    for i in range(20):
        query = zh_sentence(rng) if i % 3 else en_sentence(rng)
        got = retrieve_topk(query, index, table, proj, w, k=5)
        want = brute_force(query, corpus, table, proj, w)[:5]
        assert [g.pair.id for g in got] == [corpus[r[0]].id for r in want]
        for g, r in zip(got, want):
            assert g.s_dense == pytest.approx(r[1], abs=1e-6)
            assert g.s_sparse == pytest.approx(r[2], abs=1e-6)
            assert g.s_multi == pytest.approx(r[3], abs=1e-6)
            assert g.s_rank == pytest.approx(r[4], abs=1e-6)


def test_retrieve_normalized_matches_oracle(stack):
    corpus, table, proj, index = stack
    w = Weights()
    query = "双方同意加强双边合作"
    got = retrieve_topk(query, index, table, proj, w, k=4, normalize_scores=True)
    want = brute_force(query, corpus, table, proj, w, normalize=True)[:4]
    assert [g.pair.id for g in got] == [corpus[r[0]].id for r in want]
    for g, r in zip(got, want):
        assert g.s_rank == pytest.approx(r[4], abs=1e-6)
        assert g.s_rank == pytest.approx(
            w.alpha1 * g.s_dense + w.alpha2 * g.s_sparse + w.alpha3 * g.s_multi, abs=1e-9
        )


def test_scores_equal_per_row_scan_bit_for_bit(stack):
    corpus, table, proj, index = stack
    rng = random.Random(8)
    w = Weights()
    for i in range(10):
        query = zh_sentence(rng) if i % 2 else en_sentence(rng) + " 好好 中方"
        sd, ss, sm = per_row_scan(query, corpus, table, proj)
        got = retrieve_topk(query, index, table, proj, w, k=len(corpus))
        pos = {p.id: i for i, p in enumerate(corpus)}
        for g in got:
            p = pos[g.pair.id]
            assert (g.s_dense, g.s_sparse, g.s_multi) == (sd[p], ss[p], sm[p])
            assert g.s_rank == w.alpha1 * sd[p] + w.alpha2 * ss[p] + w.alpha3 * sm[p]


# CJK characters are one token each; the last three are not in the table
ZH_CHARS = [t for t in corpus_vocab() if not t.isascii()] + list("鑫淼犇")


@st.composite
def jagged_corpora(draw):
    """Texts whose distinct-token counts take the shapes that stress the
    diagonal layout: all 1, all equal, one far longer, many ties, or free."""
    n = draw(st.integers(1, 12), label="entries")
    shape = draw(st.sampled_from(["single", "equal", "one_long", "ties", "free"]), label="shape")
    if shape == "single":
        lengths = [1] * n
    elif shape == "equal":
        lengths = [draw(st.integers(1, 6), label="length")] * n
    elif shape == "one_long":
        lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="lengths")
        lengths[draw(st.integers(0, n - 1), label="long")] = draw(st.integers(15, 40), label="max")
    elif shape == "ties":
        lengths = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n), label="lengths")
    else:
        lengths = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n), label="lengths")
    texts = []
    for size in lengths:
        chars = draw(st.lists(st.sampled_from(ZH_CHARS), min_size=size, max_size=size, unique=True))
        repeats = draw(st.lists(st.sampled_from(chars), max_size=3))
        texts.append("".join(draw(st.permutations(chars + repeats))))
    return Corpus([DemoPair(f"j{i}", text, f"text {i}", "zh", "en") for i, text in enumerate(texts)])


queries = st.one_of(
    st.sampled_from(ZH_CHARS),
    st.builds(lambda c, n, rest: c * n + rest, st.sampled_from(ZH_CHARS), st.integers(2, 6),
              st.text(st.sampled_from(ZH_CHARS), max_size=4)),
    st.text(st.sampled_from(ZH_CHARS), min_size=1, max_size=12),
)


def minmax(scores):
    lo, hi = scores.min(), scores.max()
    return np.zeros_like(scores) if hi - lo < 1e-12 else (scores - lo) / (hi - lo)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(corpus=jagged_corpora(), query=queries)
def test_diagonal_scan_equals_per_row_scan_on_jagged_corpora(tmp_path, corpus, query):
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    built = build_index(corpus, table, proj)
    save_index(built, tmp_path / "jagged.idx")
    reloaded = load_index(tmp_path / "jagged.idx")
    raw = per_row_scan(query, corpus, table, proj)
    w = Weights()
    pos = {p.id: i for i, p in enumerate(corpus)}
    for index in (built, reloaded):
        for normalize, want in ((False, raw), (True, [minmax(s) for s in raw])):
            sd, ss, sm = want
            got = retrieve_topk(query, index, table, proj, w, k=len(corpus), normalize_scores=normalize)
            assert len(got) == len(corpus)
            for g in got:
                p = pos[g.pair.id]
                assert (g.s_dense, g.s_sparse, g.s_multi) == (sd[p], ss[p], sm[p])
                assert g.s_rank == w.alpha1 * sd[p] + w.alpha2 * ss[p] + w.alpha3 * sm[p]


def assert_same_top(got, want):
    """Each entry's four scores equal to its per-query ones, and the
    per-query order, except that entries whose fused scores tie exactly may
    swap places: every exact score comes from a kernel whose bits depend on
    the two rows alone, wherever they sit in a block."""
    assert len(got) == len(want)
    by_id = {w.pair.id: w for w in want}
    for g, w in zip(got, want):
        mine = by_id[g.pair.id]
        assert (g.s_dense, g.s_sparse, g.s_multi, g.s_rank) == (
            mine.s_dense, mine.s_sparse, mine.s_multi, mine.s_rank
        )
        assert g.pair.id == w.pair.id or g.s_rank == w.s_rank


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(corpus=jagged_corpora(), block=st.lists(queries, min_size=1, max_size=20))
def test_retrieve_many_equals_per_query_retrieve_topk(corpus, block):
    # blocks of up to 20 queries of up to 12 rows put several queries in one
    # multi-vector product, where a query's rows sit at other columns than
    # when it is scored alone
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    w = Weights()
    for normalize in (False, True):
        got = retrieve_many(block, index, table, proj, w, k=len(corpus), normalize_scores=normalize)
        assert len(got) == len(block)
        for query, top in zip(block, got):
            want = retrieve_topk(query, index, table, proj, w, k=len(corpus), normalize_scores=normalize)
            assert_same_top(top, want)


def test_retrieve_many_scores_a_long_query_in_the_block_product(stack, monkeypatch):
    corpus, table, proj, index = stack
    rng = random.Random(9)
    long = "".join(zh_sentence(rng) for _ in range(5))
    assert len(multi_embed(embed_tokens(table, long), proj).rows) > 64
    block = [zh_sentence(rng), en_sentence(rng), long, zh_sentence(rng), long[:40]]
    w = Weights()
    want = [retrieve_topk(query, index, table, proj, w, k=len(corpus)) for query in block]
    groups = spy_groups(monkeypatch)
    got = retrieve_many(block, index, table, proj, w, k=len(corpus))
    # the long query shares the block's one product
    assert len(groups) == 1 and len(groups[0][1]) == len(block)
    for top, alone in zip(got, want):
        assert [g.pair.id for g in top] == [a.pair.id for a in alone]
        assert_same_top(top, alone)


def test_retrieve_many_holds_failed_lines_and_scores_the_rest(stack):
    corpus, table, proj, index = stack
    w = Weights()
    # "鑫淼犇" and "xyzzy plugh" have only tokens outside the table
    block = ["双方同意加强合作", "   ", "鑫淼犇", "", "xyzzy plugh", corpus[3].src_text]
    got = retrieve_many(block, index, table, proj, w, k=3)
    assert [type(g) for g in got[1:4:2]] == [EmptyQuery, EmptyQuery]
    assert str(got[1]) == "no tokens in '   '"
    for i in (0, 2, 4, 5):
        want = retrieve_topk(block[i], index, table, proj, w, k=3)
        assert [g.pair.id for g in got[i]] == [a.pair.id for a in want]
        assert_same_top(got[i], want)
    assert got[5][0].pair.id == corpus[3].id
    assert retrieve_many([], index, table, proj, w, k=3) == []


def test_retrieve_many_fingerprint_mismatch_fails_the_block(stack):
    _, table, proj, index = stack
    other = init_projections(32, seed=99)
    with pytest.raises(FingerprintMismatch):
        retrieve_many(["你好", "双方同意加强合作"], index, table, other, Weights(), k=1)
    with pytest.raises(ValueError):
        retrieve_many(["你好"], index, table, proj, Weights(), k=0)


def test_wide_corpus_scores_equal_per_row_scan_bit_for_bit():
    # 301 distinct rows and queries of 12 or more rows: from 193 rows up,
    # at counts not a multiple of 8, OpenBLAS on x86-64 rounds some
    # similarities against the last rows differently in rows @ q.T than in
    # q @ rows.T. Entries made of one of those rows alone take them as
    # their max, so this catches a scan that multiplies the other way round.
    chars = [chr(0x4E00 + i) for i in range(301)]
    rng = random.Random(5)
    texts = ["".join(chars)] + chars[-8:]
    texts += ["".join(rng.sample(chars, rng.randint(2, 30))) for _ in range(40)]
    corpus = Corpus([DemoPair(f"w{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(texts)])
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    assert len(index.multi_rows) == 301
    pos = {p.id: i for i, p in enumerate(corpus)}
    for n in (12, 17, 30):
        query = "".join(rng.choice(chars) for _ in range(n))
        _, _, sm = per_row_scan(query, corpus, table, proj)
        got = retrieve_topk(query, index, table, proj, Weights(), k=len(corpus))
        assert [g.s_multi for g in got] == [sm[pos[g.pair.id]] for g in got]


def test_diagonal_columns_cover_every_entry_row_once(stack):
    texts = ["好" * 3, "你好世界", "双方同意加强双边合作", "好", "世界你好", "合作"]
    pairs = [DemoPair(f"d{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(texts)]
    table = corpus_table(dim=16)
    small = build_index(Corpus(pairs), table, init_projections(16, seed=3))
    for index in (stack[3], small):
        counts = np.diff(index.multi_offsets.astype(np.intp))
        lengths = [len(col) for col in index._columns]
        assert len(lengths) == counts.max()
        assert lengths[0] == len(index)
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))
        assert sum(lengths) == len(index.multi_row_ids)
        # sorted position p lists entry by_len[p]'s row ids, in entry order
        assert sorted(index._by_len.tolist()) == list(range(len(index)))
        for p, entry in enumerate(index._by_len.tolist()):
            a, b = index.multi_offsets[entry : entry + 2]
            got = [col[p] for col in index._columns if p < len(col)]
            assert got == index.multi_row_ids[a:b].tolist()


TILES = (1, 2, 3, 7)


def comparable(results):
    """retrieve_many's results with each held error as (type, message), so
    that two runs compare with ==."""
    return [(type(r), str(r)) if isinstance(r, AfspError) else r for r in results]


def test_tiled_scan_equals_per_row_scan_bit_for_bit(stack):
    # tiles of a few entries split every column of both corpora, and the
    # last tile of a column is a part of it
    corpus, table, proj, index = stack
    wide_chars = [chr(0x4E00 + i) for i in range(301)]
    rng = random.Random(12)
    wide_texts = ["".join(wide_chars)] + wide_chars[-8:]
    wide_texts += ["".join(rng.sample(wide_chars, rng.randint(2, 30))) for _ in range(40)]
    wide = Corpus([DemoPair(f"w{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(wide_texts)])
    wide_table, wide_proj = corpus_table(dim=16), init_projections(16, seed=3)
    cases = [
        (corpus, table, proj, index, [zh_sentence(rng), en_sentence(rng) + " 好好 中方"]),
        (wide, wide_table, wide_proj, build_index(wide, wide_table, wide_proj),
         ["".join(rng.choice(wide_chars) for _ in range(n)) for n in (12, 17, 30)]),
    ]
    for corp, tab, prj, idx, texts in cases:
        pos = {p.id: i for i, p in enumerate(corp)}
        default = [retrieve_topk(t, idx, tab, prj, Weights(), k=len(corp)) for t in texts]
        for tile in TILES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(afsp.retrieval, "_TILE", tile)
                for text, want in zip(texts, default):
                    _, _, sm = per_row_scan(text, corp, tab, prj)
                    got = retrieve_topk(text, idx, tab, prj, Weights(), k=len(corp))
                    assert got == want
                    assert [g.s_multi for g in got] == [sm[pos[g.pair.id]] for g in got]


def test_tiled_block_with_long_and_failed_lines_equals_per_query(stack):
    corpus, table, proj, index = stack
    rng = random.Random(13)
    long = "".join(zh_sentence(rng) for _ in range(5))
    assert len(multi_embed(embed_tokens(table, long), proj).rows) > 64
    # the long query shares the block's product with the short ones; the
    # blank lines fail, and "鑫淼犇" and "xyzzy plugh", which have only
    # tokens outside the table, are scored
    block = [zh_sentence(rng), "   ", en_sentence(rng), "鑫淼犇", long, "", zh_sentence(rng),
             "xyzzy plugh", corpus[5].src_text, long[:40]]
    w = Weights()
    default = comparable(retrieve_many(block, index, table, proj, w, k=len(corpus)))
    for tile in TILES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(afsp.retrieval, "_TILE", tile)
            groups = spy_groups(mp)
            got = retrieve_many(block, index, table, proj, w, k=len(corpus))
            assert comparable(got) == default
            # one product, with columns for the eight embedded lines
            assert len(groups) == 1 and len(groups[0][1]) == len(block) - 2
            for query, top in zip(block, got):
                if isinstance(top, AfspError):
                    with pytest.raises(type(top), match=str(top)):
                        retrieve_topk(query, index, table, proj, w, k=len(corpus))
                    continue
                want = retrieve_topk(query, index, table, proj, w, k=len(corpus))
                assert [g.pair.id for g in top] == [a.pair.id for a in want]
                assert_same_top(top, want)
    assert [i for i, r in enumerate(default) if isinstance(r, tuple)] == [1, 5]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    corpus=jagged_corpora(),
    block=st.lists(queries, min_size=1, max_size=12),
    tile=st.integers(1, 13),
)
def test_any_tile_scores_jagged_corpora_as_the_default_tile(corpus, block, tile):
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    pos = {p.id: i for i, p in enumerate(corpus)}
    w = Weights()
    default = retrieve_many(block, index, table, proj, w, k=len(corpus))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(afsp.retrieval, "_TILE", tile)
        assert retrieve_many(block, index, table, proj, w, k=len(corpus)) == default
        query = block[0]
        _, _, sm = per_row_scan(query, corpus, table, proj)
        got = retrieve_topk(query, index, table, proj, w, k=len(corpus))
        assert [g.s_multi for g in got] == [sm[pos[g.pair.id]] for g in got]


def spy_groups(monkeypatch):
    """Record each multi-vector product as (product columns, cols)."""
    groups = []
    block = afsp.retrieval._Block

    def spy(sims, rows, margins, cols):
        groups.append((sims.shape[1], cols))
        return block(sims, rows, margins, cols)

    monkeypatch.setattr(afsp.retrieval, "_Block", spy)
    return groups


def test_copies_of_a_query_share_one_product(stack, monkeypatch):
    corpus, table, proj, index = stack
    # 10 rows, "好" twice; 20 copies hold 200 query rows
    query = "好好双方同意加强合作"
    assert len(multi_embed(embed_tokens(table, query), proj).rows) == 10
    w = Weights()
    alone = retrieve_topk(query, index, table, proj, w, k=len(corpus))
    groups = spy_groups(monkeypatch)
    got = retrieve_many([query] * 20, index, table, proj, w, k=len(corpus))
    assert len(groups) == 1
    size, cols = groups[0]
    # the first copy's distinct rows are the product, its repeat at the
    # column of its first "好"; every copy has that layout
    assert size == 9 and len(cols) == 20
    assert cols[0] == [0, 0] + list(range(1, 9))
    assert all(c == cols[0] for c in cols[1:])
    assert got[0] == alone
    assert all(top == got[0] for top in got[1:])


def test_a_blocks_product_holds_each_distinct_row_once(stack, monkeypatch):
    corpus, table, proj, index = stack
    query = "好好双方同意加强合作"
    groups = spy_groups(monkeypatch)
    assert retrieve_topk(query, index, table, proj, Weights(), k=3)
    # 10 query rows, 9 distinct: the repeated "好" is one column
    ((size, (cs,)),) = groups
    assert size == 9 and cs == [0, 0] + list(range(1, 9))
    groups.clear()
    retrieve_many([query] * 20, index, table, proj, Weights(), k=3)
    ((size, cols),) = groups
    assert size == 9 and len(cols) == 20 and all(c == cs for c in cols)


def test_rows_seen_earlier_in_the_group_add_no_product_rows(stack, monkeypatch):
    corpus, table, proj, index = stack
    w = Weights()
    block = ["双方同意加强合作", "合作双方", "合作合作"]
    want = [retrieve_topk(q, index, table, proj, w, k=len(corpus)) for q in block]
    groups = spy_groups(monkeypatch)
    assert retrieve_topk("好", index, table, proj, w, k=3)
    assert groups == [(1, [[0]])]
    groups.clear()
    got = retrieve_many(block, index, table, proj, w, k=len(corpus))
    assert groups == [(8, [list(range(8)), [6, 7, 0, 1], [6, 7, 6, 7]])]
    for top, alone in zip(got, want):
        assert_same_top(top, alone)


# six characters, so that the queries of a block share most of their rows
# and repeat them; "鑫" is not in the table
SHARED_CHARS = ZH_CHARS[:5] + ["鑫"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    corpus=jagged_corpora(),
    block=st.lists(
        st.one_of(
            st.text(st.sampled_from(SHARED_CHARS), min_size=1, max_size=12),
            st.text(st.sampled_from(SHARED_CHARS), min_size=65, max_size=70),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_shared_rows_score_as_per_query_retrieve_topk(corpus, block):
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    w = Weights()
    want = [retrieve_topk(q, index, table, proj, w, k=len(corpus)) for q in block]
    for tile in TILES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(afsp.retrieval, "_TILE", tile)
            groups = spy_groups(mp)
            got = retrieve_many(block, index, table, proj, w, k=len(corpus))
        for top, alone in zip(got, want):
            assert_same_top(top, alone)
        # one product for the block, with each query's own columns of it
        assert len(groups) == 1
        size, cols = groups[0]
        assert len(cols) == len(block)
        rows = [len(multi_embed(embed_tokens(table, q), proj).rows) for q in block]
        assert [len(c) for c in cols] == rows
        assert sorted({c for cs in cols for c in cs}) == list(range(size))


# fusion weights the pruning must be exact under: the default, a zero
# multi-vector weight (the bound then adds nothing) and multi-vector alone
PRUNING_WEIGHTS = (Weights(), Weights(0.5, 0.5, 0.0), Weights(0.0, 0.0, 1.0))


def top_ks(n):
    """The k that the pruned top k must handle: the smallest, the cut next
    to the corpus size, and past it (which scans every entry)."""
    return sorted({k for k in (1, 2, 3, n - 1, n, n + 5) if k >= 1})


def as_tuples(top):
    return [(g.pair.id, g.s_dense, g.s_sparse, g.s_multi, g.s_rank) for g in top]


def full_sort_top(scores, corpus, w, k):
    """The first k of a full stable argsort of the fused scan scores."""
    sd, ss, sm = scores
    fused = w.alpha1 * sd + w.alpha2 * ss + w.alpha3 * sm
    order = np.argsort(-fused, kind="stable")[:k]
    return [(corpus[j].id, sd[j], ss[j], sm[j], fused[j]) for j in order]


@st.composite
def corpora_with_repeats(draw):
    """jagged_corpora with some source texts repeated, so that exact ties
    fall at the cut."""
    texts = [p.src_text for p in draw(jagged_corpora())]
    texts += draw(st.lists(st.sampled_from(texts), max_size=6), label="repeats")
    texts = draw(st.permutations(texts), label="order")
    return Corpus([DemoPair(f"r{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(texts)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(corpus=corpora_with_repeats(), query=queries, w=st.sampled_from(PRUNING_WEIGHTS))
def test_pruned_top_k_equals_a_full_stable_sort(corpus, query, w):
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    scores = per_row_scan(query, corpus, table, proj)
    for k in top_ks(len(corpus)):
        got = retrieve_topk(query, index, table, proj, w, k=k)
        assert as_tuples(got) == full_sort_top(scores, corpus, w, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    corpus=corpora_with_repeats(),
    block=st.lists(queries, min_size=1, max_size=20),
    w=st.sampled_from(PRUNING_WEIGHTS),
)
def test_pruned_blocks_equal_a_full_scan_of_the_block(corpus, block, w):
    # a block is held to its own full scan, which k = len(corpus) runs,
    # and a block of one to per_row_scan
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    full = [as_tuples(top) for top in retrieve_many(block, index, table, proj, w, k=len(corpus))]
    for k in top_ks(len(corpus)):
        got = retrieve_many(block, index, table, proj, w, k=k)
        assert [as_tuples(top) for top in got] == [top[:k] for top in full]
        (alone,) = retrieve_many(block[:1], index, table, proj, w, k=k)
        scores = per_row_scan(block[0], corpus, table, proj)
        assert as_tuples(alone) == full_sort_top(scores, corpus, w, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    corpus=corpora_with_repeats(),
    block=st.lists(queries, min_size=1, max_size=20),
    w=st.sampled_from(PRUNING_WEIGHTS),
    normalize=st.booleans(),
    dim=st.sampled_from([5, 16]),
)
def test_a_block_of_n_queries_equals_n_lone_queries(corpus, block, w, normalize, dim):
    # every exact score comes from a kernel whose bits depend on the two
    # rows alone, so a query's rows score the same at any column of a
    # block's product, pruned or scanned in full
    table = corpus_table(dim=dim)
    proj = init_projections(dim, seed=3)
    index = build_index(corpus, table, proj)
    for k in top_ks(len(corpus)):
        got = retrieve_many(block, index, table, proj, w, k=k, normalize_scores=normalize)
        alone = [retrieve_topk(q, index, table, proj, w, k=k, normalize_scores=normalize) for q in block]
        assert [as_tuples(top) for top in got] == [as_tuples(top) for top in alone]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    corpus=corpora_with_repeats(),
    block=st.lists(queries, min_size=1, max_size=20),
    w=st.sampled_from(PRUNING_WEIGHTS),
)
def test_blocks_give_each_query_its_lone_dense_scores(corpus, block, w):
    # the block's dense product only bounds; the exact dense scores come
    # from a kernel whose bits depend on the two rows alone
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    alone = [
        {g.pair.id: g.s_dense for g in retrieve_topk(q, index, table, proj, w, k=len(corpus))}
        for q in block
    ]
    for k in (1, 3, len(corpus)):
        for normalize in (False, True):
            got = retrieve_many(block, index, table, proj, w, k=k, normalize_scores=normalize)
            for top, mine, query in zip(got, alone, block):
                if normalize:
                    full = retrieve_topk(query, index, table, proj, w, k=len(corpus), normalize_scores=True)
                    mine = {g.pair.id: g.s_dense for g in full}
                assert [g.s_dense for g in top] == [mine[g.pair.id] for g in top]


@pytest.fixture(scope="module")
def large_stack():
    # 1,200 entries; the phrase generator repeats sources, so some tie
    corpus = synthetic_corpus(1200, seed=33)
    table = corpus_table(dim=32)
    proj = init_projections(32, seed=13)
    return corpus, table, proj, build_index(corpus, table, proj)


def test_pruned_top_k_equals_a_full_stable_sort_on_a_large_corpus(large_stack):
    corpus, table, proj, index = large_stack
    counts = Counter(p.src_text for p in corpus)
    repeated = [text for text, n in counts.most_common(2)]
    assert all(counts[text] >= 3 for text in repeated)
    rng = random.Random(17)
    texts = [zh_sentence(rng) for _ in range(4)] + [en_sentence(rng) + " 好好 中方"] + repeated
    for text in texts:
        scores = per_row_scan(text, corpus, table, proj)
        for w in PRUNING_WEIGHTS:
            for k in top_ks(len(corpus)):
                got = retrieve_topk(text, index, table, proj, w, k=k)
                assert as_tuples(got) == full_sort_top(scores, corpus, w, k)


def test_pruned_blocks_equal_a_full_scan_on_a_large_corpus(large_stack):
    corpus, table, proj, index = large_stack
    rng = random.Random(18)
    repeated = [text for text, _ in Counter(p.src_text for p in corpus).most_common(3)]
    lines = [zh_sentence(rng) for _ in range(50)] + repeated + [en_sentence(rng) for _ in range(5)]
    rng.shuffle(lines)
    start = 0
    while start < len(lines):
        block = lines[start : start + rng.randint(1, 20)]
        start += len(block)
        for w in PRUNING_WEIGHTS:
            full = retrieve_many(block, index, table, proj, w, k=len(corpus))
            for k in (1, 3, len(corpus) - 1):
                got = retrieve_many(block, index, table, proj, w, k=k)
                assert [as_tuples(top) for top in got] == [as_tuples(top[:k]) for top in full]


def test_one_distinct_row_ties_at_every_cut():
    char = ZH_CHARS[0]
    texts = [char * n for n in (1, 3, 2, 1, 4, 2, 1)]
    corpus = Corpus([DemoPair(f"o{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(texts)])
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    assert len(index.multi_rows) == 1
    for query in (char, char * 2 + ZH_CHARS[1], ZH_CHARS[1], "鑫"):
        scores = per_row_scan(query, corpus, table, proj)
        for w in PRUNING_WEIGHTS:
            for k in top_ks(len(corpus)):
                got = retrieve_topk(query, index, table, proj, w, k=k)
                assert as_tuples(got) == full_sort_top(scores, corpus, w, k)


def unit_f32(values):
    values = np.asarray(values, dtype=np.float64)
    return (values / np.linalg.norm(values)).astype(np.float32)


def nudged(row, rng):
    """``row`` with some components moved one float32 ulp up or down."""
    away = np.where(rng.random(len(row)) < 0.5, np.inf, -np.inf).astype(np.float32)
    return np.where(rng.random(len(row)) < 0.5, np.nextafter(row, away), row).astype(np.float32)


def cancelling(q):
    """A row with q's magnitudes and signs chosen, largest first, so that
    its products with q nearly cancel: the true dot product is tiny and
    float32 rounding large against it."""
    signs = np.empty(len(q))
    total = 0.0
    for j in np.argsort(-np.abs(q)):
        signs[j] = -1.0 if total > 0 else 1.0
        total += signs[j] * float(q[j]) ** 2
    return (q * signs).astype(np.float32)


@st.composite
def near_tie_cases(draw):
    """One to three unit float32 queries and rows that stress the dense
    bound: exact copies, copies one float32 ulp apart in some components,
    rows that nearly cancel against the first query, and free rows."""
    dim = draw(st.sampled_from([1, 2, 16, 64, 256]), label="dim")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    q = unit_f32(rng.standard_normal(dim))
    kinds = draw(
        st.lists(st.sampled_from(["copy", "ulp", "cancel", "free"]), min_size=1, max_size=30),
        label="rows",
    )
    rows, last = [], q
    for kind in kinds:
        if kind == "copy":
            row = last
        elif kind == "ulp":
            row = nudged(last, rng)
        elif kind == "cancel":
            row = cancelling(q) if rng.random() < 0.5 else nudged(cancelling(q), rng)
        else:
            row = unit_f32(rng.standard_normal(dim))
        rows.append(row)
        last = row
    qs = [q, nudged(q, rng), unit_f32(rng.standard_normal(dim))]
    return np.stack(qs[: draw(st.integers(1, 3), label="queries")]), np.stack(rows)


def dense_index(dense):
    """An index over the given dense rows, with no sparse weights and each
    entry's dense row as its one multi-vector row."""
    n = len(dense)
    seen: dict[bytes, int] = {}
    ids = [seen.setdefault(row.tobytes(), len(seen)) for row in dense]
    corpus = Corpus([DemoPair(f"n{i}", f"src {i}", f"tgt {i}", "zh", "en") for i in range(n)])
    return RetrievalIndex(
        corpus,
        bytes(32),
        dense=dense,
        sparse_indptr=np.zeros(n + 1, dtype=np.uint32),
        sparse_ids=np.zeros(0, dtype=np.uint32),
        sparse_weights=np.zeros(0, dtype=np.float32),
        multi_rows=np.frombuffer(b"".join(seen), dtype=np.float32).reshape(len(seen), -1),
        multi_offsets=np.arange(n + 1, dtype=np.uint32),
        multi_row_ids=np.array(ids, dtype=np.uint32),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=near_tie_cases())
def test_dense_bound_is_at_least_the_kernel_on_near_ties(case):
    qs, dense = case
    index = dense_index(dense)
    q64 = qs.astype(np.float64)

    def dots(ids):
        # each query's exact dense score of the entries ids, one row per query
        return afsp.retrieval._dots(index.dense, ids, q64).T

    exact = dots(np.arange(len(index)))
    # an entry's exact score is its own, wherever its row is scored
    for i in range(len(index)):
        assert dots(np.array([i]))[:, 0].tolist() == exact[:, i].tolist()
    # a block's product and a lone query's
    assert np.all(index._dense_bounds(qs) >= exact)
    for i in range(len(qs)):
        assert np.all(index._dense_bounds(qs[i : i + 1]) >= exact[i])
    queries = [(DenseVec(q), SparseWeights({}), MultiVec(q[None])) for q in qs]
    for w in PRUNING_WEIGHTS + (Weights(1.0, 0.0, 0.0),):
        # k = len(index) scores every entry; the pruned top k is the first
        # k of a full stable sort of those scores
        full = index._top(queries, w, len(index), False)
        for k in top_ks(len(index)):
            for got, (ids, sd, ss, sm, fused) in zip(index._top(queries, w, k, False), full):
                by_entry = np.empty(len(index))
                by_entry[ids] = fused
                order = np.argsort(-by_entry, kind="stable")[:k]
                assert got[0].tolist() == order.tolist()
                want = (ids[:k], sd[:k], ss[:k], sm[:k], fused[:k])
                assert [a.tolist() for a in got] == [a.tolist() for a in want]


def spy_bounds(monkeypatch):
    """Record, for each query of each group whose bounds are taken, its
    bound and its exact multi score of every entry, in corpus order."""
    pairs = []
    bounds = afsp.retrieval.RetrievalIndex._upper_bounds

    def spy(self, block):
        got = bounds(self, block)
        for ub, sm in zip(got, self._scan(block)):
            pairs.append((ub.copy(), sm))
        return got

    monkeypatch.setattr(afsp.retrieval.RetrievalIndex, "_upper_bounds", spy)
    return pairs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    corpus=corpora_with_repeats(),
    block=st.lists(st.text(st.sampled_from(SHARED_CHARS), min_size=1, max_size=12), min_size=1, max_size=20),
)
def test_bound_is_at_least_the_exact_multi_score(corpus, block):
    # the queries of a block share most of their product rows
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(corpus, table, proj)
    with pytest.MonkeyPatch.context() as mp:
        pairs = spy_bounds(mp)
        retrieve_many(block, index, table, proj, Weights(), k=1)
    assert len(pairs) == (len(block) if len(corpus) > 1 else 0)
    for ub, sm in pairs:
        assert np.all(ub >= sm)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=near_tie_cases())
def test_multi_margin_holds_the_kernel_on_near_ties(case):
    # the multi bounds add delta_c to the float32 product, and _multi drops
    # the rows more than 2 delta_c below an entry's best: both need every
    # (query row, distinct row) pair's kernel value within delta_c of it
    qs, rows = case
    index = dense_index(rows)
    block = index._block([MultiVec(qs), MultiVec(rows[:3])])
    n, m = block.sims.shape
    exact = index._kernel(np.repeat(np.arange(n), m), np.tile(block.rows, (n, 1))).reshape(n, m)
    assert np.all(block.sims + block.margins >= exact)
    assert np.all(block.sims - block.margins <= exact)


def test_bound_is_at_least_the_exact_multi_score_on_a_large_corpus(large_stack, monkeypatch):
    corpus, table, proj, index = large_stack
    rng = random.Random(19)
    block = [zh_sentence(rng) for _ in range(16)] + [corpus[3].src_text, en_sentence(rng)]
    pairs = spy_bounds(monkeypatch)
    retrieve_many(block, index, table, proj, Weights(), k=3)
    assert len(pairs) == len(block)
    # the bound is within twice the margin of the exact score where an
    # entry holds each row's best match (query rows have unit norm)
    delta = index._multi_margin * (1 + 1e-6)
    for ub, sm in pairs:
        assert np.all(ub >= sm)
        assert np.any(ub - sm <= 2 * delta)


def test_bound_leaves_few_entries_to_score_exactly(monkeypatch):
    # a silent fallback to full scans fails here, not only in the benchmark
    corpus = synthetic_corpus(2000, seed=31)
    table = corpus_table(dim=32)
    proj = init_projections(32, seed=13)
    index = build_index(corpus, table, proj)
    # entries sent to the late-interaction scan and to the dense kernel
    sent, dense_sent = [], []
    multi = afsp.retrieval.RetrievalIndex._multi
    dense = afsp.retrieval.RetrievalIndex._dense

    def spy(self, block, ids):
        sent.append(len(ids))
        return multi(self, block, ids)

    def spy_dense(self, qs, ids):
        dense_sent.append(len(ids))
        return dense(self, qs, ids)

    monkeypatch.setattr(afsp.retrieval.RetrievalIndex, "_multi", spy)
    monkeypatch.setattr(afsp.retrieval.RetrievalIndex, "_dense", spy_dense)
    rng = random.Random(20)
    lines = [zh_sentence(rng) if i % 2 else en_sentence(rng) for i in range(32)]
    per_query, dense_per_query = [], []
    for line in lines:
        sent.clear()
        dense_sent.clear()
        retrieve_topk(line, index, table, proj, Weights(), k=3)
        per_query.append(sum(sent))
        dense_per_query.append(sum(dense_sent))
    assert np.median(per_query) < len(corpus) / 2
    assert np.median(dense_per_query) < len(corpus) / 2
    sent.clear()
    dense_sent.clear()
    for start in range(0, len(lines), 16):
        retrieve_many(lines[start : start + 16], index, table, proj, Weights(), k=3)
    assert np.median(sent) < len(corpus) / 2
    assert np.median(dense_sent) < len(corpus) / 2


def test_alpha_scaling_preserves_order(stack):
    _, table, proj, index = stack
    rng = random.Random(7)
    query = "中方重申致力于地区和平与稳定"
    base = retrieve_topk(query, index, table, proj, Weights(0.4, 0.4, 0.2), k=10)
    for _ in range(5):
        c = rng.uniform(0.1, 9.0)
        scaled = retrieve_topk(
            query, index, table, proj, Weights(0.4 * c, 0.4 * c, 0.2 * c), k=10
        )
        assert [s.pair.id for s in scaled] == [s.pair.id for s in base]
        for a, b in zip(scaled, base):
            assert a.s_rank == pytest.approx(b.s_rank * c, rel=1e-9)


def test_adding_pair_keeps_relative_order(stack):
    corpus, table, proj, _ = stack
    w = Weights()
    query = "代表团欢迎对话与交流"
    small = build_index(Corpus(list(corpus)[:30]), table, proj)
    extended = build_index(
        Corpus(list(corpus)[:30] + [DemoPair("extra", "新增的一句话", "a new sentence", "zh", "en")]),
        table,
        proj,
    )
    order_small = [s.pair.id for s in retrieve_topk(query, small, table, proj, w, k=30)]
    order_big = [
        s.pair.id
        for s in retrieve_topk(query, extended, table, proj, w, k=31)
        if s.pair.id != "extra"
    ]
    assert order_big == order_small


def test_self_similarity_on_random_texts(stack):
    _, table, proj, _ = stack
    rng = random.Random(41)
    for i in range(10):
        text = en_sentence(rng) if i % 2 else zh_sentence(rng)
        emb = embed_tokens(table, text)
        d = dense_embed(emb)
        m = multi_embed(emb, proj)
        assert score_dense(d, d) == pytest.approx(1.0, abs=1e-6)
        assert score_multi(m, m) == pytest.approx(1.0, abs=1e-6)


def test_fingerprint_checked_once_per_pair(monkeypatch):
    corpus = synthetic_corpus(20, seed=4)
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=8)
    index = build_index(corpus, table, proj)
    calls = []
    real = afsp.retrieval.table_fingerprint
    monkeypatch.setattr(
        afsp.retrieval, "table_fingerprint", lambda *a: calls.append(a) or real(*a)
    )
    # an equal pair of other objects than the build's is hashed once
    equal = init_projections(16, seed=8)
    for pair in list(corpus)[:8]:
        retrieve_topk(pair.src_text, index, table, equal, Weights(), k=2)
    assert len(calls) == 1


def test_a_built_index_is_bound_to_the_pair_it_hashed(monkeypatch):
    calls = []
    real = afsp.retrieval.table_fingerprint
    monkeypatch.setattr(
        afsp.retrieval, "table_fingerprint", lambda *a: calls.append(a) or real(*a)
    )
    corpus = synthetic_corpus(20, seed=4)
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=8)
    index = build_index(corpus, table, proj)
    assert retrieve_topk(corpus[0].src_text, index, table, proj, Weights(), k=2)
    # the build hashes the pair, and the first query does not again
    assert len(calls) == 1


def test_fingerprint_mismatch_after_successful_queries(stack):
    _, table, proj, index = stack
    retrieve_topk("双方同意加强合作", index, table, proj, Weights(), k=2)
    retrieve_topk("双方同意加强合作", index, table, proj, Weights(), k=2)
    other = init_projections(32, seed=99)
    with pytest.raises(FingerprintMismatch):
        retrieve_topk("双方同意加强合作", index, table, other, Weights(), k=2)
    with pytest.raises(FingerprintMismatch):
        retrieve_topk("双方同意加强合作", index, corpus_table(dim=32, seed=6), proj, Weights(), k=2)
    # a rebuilt but equal pair passes the check again
    same = init_projections(32, seed=13)
    assert retrieve_topk("双方同意加强合作", index, table, same, Weights(), k=2)


def test_table_and_projection_arrays_are_read_only(stack):
    _, table, proj, _ = stack
    with pytest.raises(ValueError):
        table.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        proj.w_multi[0] += 1.0
    with pytest.raises(ValueError):
        proj.w_sparse[:] = 0.0


@pytest.mark.parametrize("normalize", [False, True])
def test_repeated_tokens_match_oracle(normalize):
    texts = ["好" * 40, "好好好", "你好" * 15, "好", "世界你好好好", "合作" * 7 + "好"]
    pairs = [DemoPair(f"r{i}", t, f"text {i}", "zh", "en") for i, t in enumerate(texts)]
    table = corpus_table(dim=16)
    proj = init_projections(16, seed=3)
    index = build_index(Corpus(pairs), table, proj)
    # 6 distinct characters; each entry lists its distinct ones once
    assert len(index.multi_rows) == 6
    assert len(index.multi_row_ids) == sum(len(set(t)) for t in texts) == 12
    w = Weights()
    for query in ("好好", "你好世界", "合作好", "好" * 9):
        got = retrieve_topk(query, index, table, proj, w, k=len(pairs), normalize_scores=normalize)
        want = brute_force(query, index.corpus, table, proj, w, normalize=normalize)
        # texts that repeat one character tie exactly, so ids may swap
        # places only where the oracle's scores tie too
        by_id = {pairs[r[0]].id: r for r in want}
        for g, r in zip(got, want):
            assert g.s_rank == pytest.approx(r[4], abs=1e-6)
            mine = by_id[g.pair.id]
            assert (g.s_dense, g.s_sparse, g.s_multi, g.s_rank) == pytest.approx(
                mine[1:], abs=1e-6
            )


def test_binding_check_holds_under_concurrent_queries():
    corpus = synthetic_corpus(20, seed=4)
    table = corpus_table(dim=16)
    good = init_projections(16, seed=8)
    equal = init_projections(16, seed=8)
    wrong = init_projections(16, seed=9)
    index = build_index(corpus, table, good)

    def answers_correctly(i):
        proj = (good, equal, wrong)[i % 3]
        try:
            retrieve_topk("双方同意加强合作", index, table, proj, Weights(), k=1)
        except FingerprintMismatch:
            return proj is wrong
        return proj is not wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(answers_correctly, range(300), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 300 and all(results)
