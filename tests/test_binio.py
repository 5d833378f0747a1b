"""Loaded files in memory maps of their own, recycled by size
(afsp._binio)."""

import gc
import mmap
import random

import numpy as np
import pytest

from afsp import _binio
from afsp.corpus import Corpus, DemoPair
from afsp.embedding import EmbeddingTable, init_projections, load_table, save_table
from afsp.retrieval import (
    RetrievalIndex,
    Weights,
    build_index,
    load_index,
    retrieve_many,
    retrieve_topk,
    save_index,
)
from helpers import corpus_table, en_sentence, synthetic_corpus, zh_sentence


@pytest.fixture
def no_spares(monkeypatch):
    """Start with no spare maps."""
    monkeypatch.setattr(_binio, "_spare_maps", {})


def _root(arr):
    """The object at the end of arr's base chain (a map's, past numpy's
    memoryview over it)."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_large_file_is_read_into_a_map_the_table_keeps_uncopied(tmp_path, no_spares):
    table = corpus_table(dim=16)
    path = tmp_path / "table.bin"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.matrix.tobytes() == table.matrix.tobytes()
    assert isinstance(_root(loaded.matrix), mmap.mmap)
    assert _binio.sealed(loaded.matrix)
    assert not loaded.matrix.flags.writeable


def test_small_file_is_read_into_a_sealed_aligned_map(tmp_path, no_spares):
    # a few kilobytes: a file of any size takes the one path
    path = tmp_path / "index.bin"
    index = build_index(synthetic_corpus(5, seed=2), corpus_table(dim=8), init_projections(8, seed=1))
    save_index(index, path)
    assert path.stat().st_size < 1 << 16
    loaded = load_index(path)
    for arr in (loaded.dense, loaded.multi_rows, loaded.sparse_weights):
        assert isinstance(_root(arr), mmap.mmap)
        assert _binio.sealed(arr) and not arr.flags.writeable
    assert loaded.dense.ctypes.data % _binio._ALIGN == 0


def test_freed_file_map_is_reused_by_the_next_load(tmp_path, no_spares):
    path = tmp_path / "table.bin"
    save_table(corpus_table(dim=16), path)
    matrix = load_table(path).matrix
    address = matrix.ctypes.data
    del matrix
    gc.collect()
    # a file's map has room past its end to align arrays twice (Reader.align)
    assert len(_binio._spare_maps[path.stat().st_size + 2 * _binio._ALIGN]) == 1
    assert load_table(path).matrix.ctypes.data == address


def test_a_callers_read_only_view_of_a_map_is_not_sealed():
    buf = mmap.mmap(-1, 2 * 3 * 4)
    rows = np.frombuffer(buf, dtype=np.float32).reshape(2, 3)
    rows.flags.writeable = False
    assert not _binio.sealed(rows)
    table = EmbeddingTable(vocab=("a", "b"), matrix=rows, oov_seed=0)
    assert not np.shares_memory(table.matrix, rows)


def test_mapped_index_scores_equal_the_built_index_bit_for_bit(tmp_path, no_spares):
    corpus = synthetic_corpus(40, seed=8, unique_src=True)
    table = corpus_table(dim=32)
    proj = init_projections(32, seed=13)
    index = build_index(corpus, table, proj)
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert isinstance(_root(loaded.dense), mmap.mmap)
    assert isinstance(_root(loaded.multi_rows), mmap.mmap)
    assert loaded.dense.ctypes.data % _binio._ALIGN == 0
    rng = random.Random(4)
    for query in [en_sentence(rng) for _ in range(12)]:
        got = retrieve_topk(query, loaded, table, proj, Weights(), 5)
        want = retrieve_topk(query, index, table, proj, Weights(), 5)
        assert [(s.pair.id, s.s_dense, s.s_sparse, s.s_multi, s.s_rank) for s in got] == [
            (s.pair.id, s.s_dense, s.s_sparse, s.s_multi, s.s_rank) for s in want
        ]


def test_a_loaded_index_holds_no_float64_copy_of_its_multi_vector_rows(tmp_path):
    # the float32 rows serve the bounds and the exact kernel alike, and
    # are aligned for the float32 product
    index = build_index(synthetic_corpus(40, seed=8), corpus_table(dim=32), init_projections(32, seed=13))
    save_index(index, tmp_path / "index.bin")
    loaded = load_index(tmp_path / "index.bin")
    assert loaded.multi_rows.dtype == np.float32
    assert loaded.multi_rows.ctypes.data % _binio._ALIGN == 0
    arrays = [v for v in vars(loaded).values() if isinstance(v, np.ndarray)]
    arrays += [a for v in vars(loaded).values() if isinstance(v, list) for a in v]
    assert not [a for a in arrays if a.dtype == np.float64 and a.size == loaded.multi_rows.size]


def scored(results):
    return [
        [(s.pair.id, s.s_dense, s.s_sparse, s.s_multi, s.s_rank) for s in top] for top in results
    ]


@pytest.mark.parametrize("entries, dim", [(1100, 256), (30, 16)])
def test_loaded_dense_rows_are_aligned_whatever_the_pair_table_length(tmp_path, entries, dim):
    # 1,100 x 256 float32 rows make a file of about 1.5 MB, 30 x 16 one of a
    # few kilobytes; both are read into a map. Padding one pair's target by
    # 0-63 bytes puts the dense block at every offset modulo 64 in the file.
    corpus = synthetic_corpus(entries, seed=6)
    table = corpus_table(dim=dim)
    proj = init_projections(dim, seed=13)
    built = build_index(corpus, table, proj)
    rng = random.Random(7)
    block = [zh_sentence(rng), en_sentence(rng)]
    offsets = set()
    for pad in range(64):
        pairs = list(corpus)
        p = pairs[1]
        pairs[1] = DemoPair(p.id, p.src_text, p.tgt_text + " " * pad + ".", p.src_lang, p.tgt_lang)
        arrays = {name: getattr(built, name) for name in (
            "dense", "sparse_indptr", "sparse_ids", "sparse_weights",
            "multi_rows", "multi_offsets", "multi_row_ids",
        )}
        index = RetrievalIndex(Corpus(pairs), built.fingerprint, **arrays)
        path = tmp_path / f"index{pad}.bin"
        save_index(index, path)
        data = path.read_bytes()
        offsets.add((data.index(built.dense.tobytes()[:64])) % 64)
        loaded = load_index(path)
        assert isinstance(_root(loaded.dense), mmap.mmap)
        assert loaded.dense.ctypes.data % _binio._ALIGN == 0
        assert loaded.multi_rows.ctypes.data % _binio._ALIGN == 0
        assert loaded.dense.tobytes() == built.dense.tobytes()
        # the file's bytes are unchanged, and so are the ones saved again
        assert path.read_bytes() == data
        save_index(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == data
        for k in (3, 40):
            got = retrieve_many(block, loaded, table, proj, Weights(), k)
            assert scored(got) == scored(retrieve_many(block, index, table, proj, Weights(), k))
    assert len(offsets) == 64
