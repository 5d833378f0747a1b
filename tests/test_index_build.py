"""build_index against the per-pair reference build: same bytes, same errors."""

import hashlib
import itertools
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsp.retrieval
from afsp.corpus import Corpus, DemoPair
from afsp.embedding import EmbeddingTable, ProjectionSet, init_projections, segment, synthetic_table
from afsp.errors import EmptyText, ZeroVector
from afsp.retrieval import build_index, save_index
from helpers import corpus_table, reference_build_index, synthetic_pairs


def index_bytes(index) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        save_index(index, path)
        return path.read_bytes()


def assert_same_build(corpus, table, proj):
    """build_index writes the reference build's bytes; returns the index."""
    index = build_index(corpus, table, proj)
    assert index_bytes(index) == index_bytes(reference_build_index(corpus, table, proj))
    return index


def pairs_of(*texts, prefix="p"):
    return Corpus([DemoPair(f"{prefix}{i}", t, "x", "zh", "en") for i, t in enumerate(texts)])


def colliding_oov_tokens(table, proj, count=1):
    """``count`` pairs of OOV tokens that hash to one id, both with positive
    sparse weights that differ."""
    found, by_id = [], {}
    for i in itertools.count():
        token = f"q{i}"
        tid = table.token_id(token)
        other = by_id.setdefault(tid, token)
        if other != token:
            weights = [
                float(np.float32(table.oov_vector(t).astype(np.float64) @ proj.w_sparse.astype(np.float64)))
                for t in (other, token)
            ]
            if min(weights) > 0 and weights[0] != weights[1]:
                found.append((other, token) if weights[0] < weights[1] else (token, other))
                if len(found) == count:
                    return found


@pytest.fixture(scope="module")
def small():
    vocab = ["alpha", "beta", "gamma", "中", "国", "合", "作"]
    return synthetic_table(vocab, 8, seed=3, oov_seed=4), init_projections(8, seed=5)


def test_repeated_tokens(small):
    table, proj = small
    corpus = pairs_of("alpha alpha beta alpha", "beta beta beta", "中中国中 中", "gamma alpha gamma")
    assert_same_build(corpus, table, proj)


def test_mixed_cjk_latin_and_oov(small):
    table, proj = small
    corpus = pairs_of(
        "Alpha中国beta 合作!",
        "unknown 中 Words 作作 alpha",
        "ＡＢＣ ｄｅｆ 國際 合作 gamma2 _x_",
        "alpha",
        "全新的字 brand-new tokens",
    )
    assert_same_build(corpus, table, proj)


def test_tokens_with_identical_rows_share_one_row(small):
    _, proj = small
    vocab = ["a", "b", "c", "d"]
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((4, 8)).astype(np.float32)
    matrix[2] = matrix[0]  # "c" embeds exactly like "a"
    table = EmbeddingTable(vocab=tuple(vocab), matrix=matrix, oov_seed=0)
    corpus = pairs_of("a b", "c d a", "c c")
    index = assert_same_build(corpus, table, proj)
    assert len(index.multi_rows) == 3  # four distinct tokens
    a, b = index.multi_offsets[1:3]
    assert index.multi_row_ids[a:b].tolist() == [0, 2]  # "c d a": c is a's row


def test_colliding_oov_tokens_keep_the_larger_weight(small):
    table, proj = small
    (low, high), (low2, high2) = colliding_oov_tokens(table, proj, count=2)
    tid = table.token_id(low)
    assert table.token_id(high) == tid and low not in table.vocab and high not in table.vocab
    corpus = pairs_of(f"{low} alpha {high}", f"{high} {low}", low, f"{low2} {high2} {low}")
    index = assert_same_build(corpus, table, proj)
    w = {t: table.oov_vector(t).astype(np.float64) @ proj.w_sparse.astype(np.float64) for t in (low, high)}
    for entry, want in ((0, high), (1, high), (2, low)):
        a, b = index.sparse_indptr[entry : entry + 2]
        ids = index.sparse_ids[a:b].tolist()
        assert index.sparse_weights[a + ids.index(tid)] == np.float32(w[want])


TOKENS = ["alpha", "beta", "gamma", "中", "国", "合", "作", "zeta", "eta", "字", "q", "Ω"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(TOKENS + [" ", " ", ",", "!"]), max_size=12).map(
            lambda parts: "".join(["中"] + parts)  # never blank
        ),
        min_size=1,
        max_size=12,
    ),
    dim=st.sampled_from([1, 2, 3, 8]),
    seed=st.integers(0, 2**16),
    twins=st.booleans(),
)
def test_random_corpora_match_the_reference(texts, dim, seed, twins):
    vocab = ["alpha", "beta", "gamma", "中", "国"]
    table = synthetic_table(vocab, dim, seed=seed, oov_seed=seed + 1)
    if twins:  # "beta" and "国" embed exactly like "alpha"
        matrix = np.array(table.matrix)
        matrix[[1, 4]] = matrix[0]
        table = EmbeddingTable(vocab=table.vocab, matrix=matrix, oov_seed=table.oov_seed)
    proj = init_projections(dim, seed=seed + 2)
    assert_same_build(pairs_of(*texts), table, proj)


def test_blank_pair_raises_with_its_id(small):
    table, proj = small
    corpus = pairs_of("alpha", "中国", " ,!? ", "beta")
    with pytest.raises(EmptyText, match=r"^pair 'p2': no tokens in ' ,!\? '$"):
        build_index(corpus, table, proj)


def test_zero_pooled_pair_raises_with_its_id():
    # "z" has an all-zero row, so a pair of only "z" pools to zero
    matrix = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=np.float32)
    table = EmbeddingTable(vocab=("a", "z"), matrix=matrix, oov_seed=0)
    proj = init_projections(2, seed=1)
    corpus = pairs_of("a", "z z", "a z")
    with pytest.raises(ZeroVector, match=r"^pair 'p1': dense pooling") as got:
        build_index(corpus, table, proj)
    with pytest.raises(ZeroVector) as want:
        reference_build_index(corpus, table, proj)
    assert str(got.value) == str(want.value)


def test_zero_projected_token_names_the_first_pair_with_it():
    # "n" has a non-zero row that w_multi maps to zero
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    table = EmbeddingTable(vocab=("a", "n"), matrix=matrix, oov_seed=0)
    proj = ProjectionSet(
        w_sparse=np.array([1.0, 1.0], dtype=np.float32),
        w_multi=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32),
        seed=0,
    )
    corpus = pairs_of("a a", "a n", "n")
    with pytest.raises(ZeroVector, match=r"^pair 'p1': token projection") as got:
        build_index(corpus, table, proj)
    with pytest.raises(ZeroVector) as want:
        reference_build_index(corpus, table, proj)
    assert str(got.value) == str(want.value)


def golden_corpus() -> Corpus:
    pairs = synthetic_pairs(40, seed=8)
    texts = [
        "The spokesperson 发言人 said: both sides agreed agreed to 加强合作合作.",
        "Zyxw 未知字 mutual trust 相互信任 2024",
        "双方双方双方",
        "regional peace and stability",
    ]
    pairs += [DemoPair(f"extra{i}", t, "x", "zh", "en") for i, t in enumerate(texts)]
    return Corpus(pairs)


def test_saved_index_bytes_match_golden():
    # digest of the index file the per-pair build wrote for this corpus; a
    # change here means some entry's bytes moved
    corpus = golden_corpus()
    assert any(t not in corpus_table().vocab for p in corpus for t in segment(p.src_text))
    index = build_index(corpus, corpus_table(dim=32), init_projections(32, seed=13))
    assert hashlib.sha256(index_bytes(index)).hexdigest() == (
        "afdbe79c61a59389c85b45fe2740af3fd5345f6d4a0134f3a2349bcefef509c8"
    )


def test_build_joins_its_hash_thread_and_reraises_its_error(monkeypatch):
    # the fingerprint is hashed on a second thread: the build still writes
    # the golden bytes, and the thread is gone when the build returns or
    # raises
    before = threading.active_count()
    test_saved_index_bytes_match_golden()
    assert threading.active_count() == before

    def fail(*args):
        raise RuntimeError("hash failed")

    monkeypatch.setattr(afsp.retrieval, "table_fingerprint", fail)
    with pytest.raises(RuntimeError, match="hash failed"):
        build_index(golden_corpus(), corpus_table(dim=32), init_projections(32, seed=13))
    assert threading.active_count() == before
