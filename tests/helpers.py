"""Shared test data builders: seeded synthetic zh->en corpora and tables."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from afsp.corpus import Corpus, DemoPair
from afsp.embedding import (
    EmbeddingTable,
    dense_embed,
    embed_tokens,
    multi_embed,
    sparse_embed,
    synthetic_table,
)
from afsp.errors import AfspError
from afsp.retrieval import RetrievalIndex, table_fingerprint

# A small recurring phrase inventory: diplomatic-register chunks compose
# into sentences whose n-gram statistics are stable across the corpus, the
# way real domain corpora repeat phrasing.
EN_SUBJECTS = ["the two sides", "the government", "the spokesperson", "both parties"]
EN_VERBS = [
    "agreed to strengthen",
    "will continue to promote",
    "expressed concern about",
    "called for",
]
EN_OBJECTS = [
    "bilateral cooperation",
    "regional peace and stability",
    "dialogue and exchange",
    "mutual trust",
]
EN_TAILS = ["in the coming years", "at the meeting today", "through diplomatic channels", ""]
ZH_SUBJECTS = ["双方", "中方", "外交部发言人", "两国政府"]
ZH_VERBS = ["同意加强", "将继续推动", "对此表示关切", "呼吁各方维护"]
ZH_OBJECTS = ["双边合作", "地区和平与稳定", "对话与交流", "相互信任"]
ZH_TAILS = ["在未来几年", "在今天的会议上", "通过外交渠道", ""]


def en_sentence(rng: random.Random) -> str:
    parts = [rng.choice(EN_SUBJECTS), rng.choice(EN_VERBS), rng.choice(EN_OBJECTS)]
    parts += ["and", rng.choice(EN_VERBS), rng.choice(EN_OBJECTS)]
    tail = rng.choice(EN_TAILS)
    if tail:
        parts.append(tail)
    text = " ".join(parts)
    return text[0].upper() + text[1:] + "."


def zh_sentence(rng: random.Random) -> str:
    parts = [rng.choice(ZH_SUBJECTS), rng.choice(ZH_VERBS), rng.choice(ZH_OBJECTS)]
    parts += ["，并", rng.choice(ZH_VERBS), rng.choice(ZH_OBJECTS)]
    tail = rng.choice(ZH_TAILS)
    if tail:
        parts.append(tail)
    return "".join(parts) + "。"


def synthetic_pairs(
    count: int, seed: int, id_prefix: str = "", unique_src: bool = False
) -> list[DemoPair]:
    rng = random.Random(seed)
    pairs = []
    seen: set[str] = set()
    for i in range(count):
        src = zh_sentence(rng)
        if unique_src:
            attempts = 0
            while src in seen:
                src = zh_sentence(rng)
                attempts += 1
                if attempts > 10000:
                    raise RuntimeError("cannot draw enough distinct source sentences")
            seen.add(src)
        pairs.append(
            DemoPair(
                id=f"{id_prefix}{i:05d}",
                src_text=src,
                tgt_text=en_sentence(rng),
                src_lang="zh",
                tgt_lang="en",
            )
        )
    return pairs


def synthetic_corpus(
    count: int, seed: int, id_prefix: str = "", unique_src: bool = False
) -> Corpus:
    return Corpus(synthetic_pairs(count, seed, id_prefix, unique_src=unique_src))


def corpus_vocab() -> list[str]:
    words = sorted(
        {w for s in EN_SUBJECTS + EN_VERBS + EN_OBJECTS + EN_TAILS for w in s.split()}
    )
    chars = sorted(
        {c for s in ZH_SUBJECTS + ZH_VERBS + ZH_OBJECTS + ZH_TAILS for c in s}
    )
    return words + chars


def corpus_table(dim: int = 64, seed: int = 5, oov_seed: int = 1) -> EmbeddingTable:
    return synthetic_table(corpus_vocab(), dim, seed=seed, oov_seed=oov_seed)


def write_jsonl(path, pairs: list[DemoPair]) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                json.dumps(
                    {
                        "id": p.id,
                        "src": p.src_text,
                        "tgt": p.tgt_text,
                        "src_lang": p.src_lang,
                        "tgt_lang": p.tgt_lang,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def reference_build_index(corpus, table, proj) -> RetrievalIndex:
    """The per-pair index build that ``build_index`` replaced: each pair's
    text is embedded on its own, and multi-vector rows are deduped by their
    float32 bytes as they come."""
    dense, sparse, entry_ids = [], [], []
    # dict order is first appearance, both over the corpus (seen) and
    # within an entry (fromkeys)
    seen: dict[bytes, int] = {}
    row_bytes = np.dtype((np.void, 4 * table.dim))
    for pair in corpus:
        try:
            emb = embed_tokens(table, pair.src_text)
            dense.append(dense_embed(emb).values)
            sparse.append(sorted(sparse_embed(emb, proj).weights.items()))
            rows = multi_embed(emb, proj).rows
        except AfspError as exc:
            raise exc.__class__(f"pair {pair.id!r}: {exc}") from exc
        keys = rows.view(row_bytes).ravel().tolist()
        entry_ids.append(list(dict.fromkeys([seen.setdefault(k, len(seen)) for k in keys])))
    sparse_pairs = [p for pairs in sparse for p in pairs]

    def offsets(lists):
        return np.concatenate(([0], np.cumsum([len(x) for x in lists]))).astype(np.uint32)

    return RetrievalIndex(
        corpus,
        table_fingerprint(table, proj),
        dense=np.stack(dense),
        sparse_indptr=offsets(sparse),
        sparse_ids=np.array([t for t, _ in sparse_pairs], dtype=np.uint32),
        sparse_weights=np.array([w for _, w in sparse_pairs], dtype=np.float32),
        multi_rows=np.frombuffer(b"".join(seen), dtype=np.float32).reshape(len(seen), -1),
        multi_offsets=offsets(entry_ids),
        multi_row_ids=np.array([i for ids in entry_ids for i in ids], dtype=np.uint32),
    )


def per_row_scan(query, corpus, table, proj):
    """Float64 scores from a scan over every token row of every entry, with
    rows deduped over the corpus only: the scan the columnar index replaced,
    whose values it must keep bit for bit. Dense scores and multi-vector
    similarities are einsum row dots, whose bits depend on the two rows
    alone, as the index's exact scores are; a BLAS product may round a row
    apart by its position."""
    emb = embed_tokens(table, query)
    qd, qs, qm = dense_embed(emb), sparse_embed(emb, proj), multi_embed(emb, proj)
    reps = [embed_tokens(table, p.src_text) for p in corpus]
    dense = np.stack([dense_embed(e).values for e in reps]).astype(np.float64)
    sparse = [sparse_embed(e, proj).weights for e in reps]
    blocks = [multi_embed(e, proj).rows for e in reps]
    seen = {}
    row_ids = np.array([seen.setdefault(r.tobytes(), len(seen)) for b in blocks for r in b])
    uniq = np.frombuffer(b"".join(seen), dtype=np.float32).reshape(len(seen), -1)
    starts = np.concatenate(([0], np.cumsum([len(b) for b in blocks])[:-1]))
    sd = np.einsum("ij,j->i", dense, qd.values.astype(np.float64))
    ss = np.zeros(len(corpus))
    for tid, w in qs.weights.items():
        for pos, weights in enumerate(sparse):
            if tid in weights:
                ss[pos] += w * weights[tid]
    rows64 = uniq.astype(np.float64)
    sims = np.stack([np.einsum("ij,j->i", rows64, q) for q in qm.rows.astype(np.float64)])
    sm = np.stack([np.maximum.reduceat(s[row_ids], starts) for s in sims]).mean(axis=0)
    return sd, ss, sm


def draw_corruption(data, good: bytes) -> bytes:
    """A truncation of ``good`` or one to four byte flips, drawn by hypothesis."""
    if data.draw(st.booleans(), label="truncate"):
        return good[: data.draw(st.integers(0, len(good) - 1), label="length")]
    flips = data.draw(
        st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255)), min_size=1, max_size=4),
        label="flips",
    )
    buf = bytearray(good)
    for at, mask in flips:
        buf[at] ^= mask
    return bytes(buf)
