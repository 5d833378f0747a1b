"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json
import math
import random
import statistics
import time

import numpy as np
import pytest

from afsp.cli import main
from afsp.corpus import Corpus
from afsp.degeneration import (
    CANONICAL_ORDER,
    DegenerationOp,
    MockBackTranslator,
    OpCombination,
    _apply_combination,
    _Resources,
    apply_op,
    enumerate_combinations,
    generate_dataset,
    save_examples,
    score_of,
)
from afsp.embedding import (
    _stable_hash64,
    dense_embed,
    embed_tokens,
    init_projections,
    multi_embed,
    save_table,
    sparse_embed,
)
from afsp.errors import NoOpPerturbation
from afsp.llm_client import GenerationConfig, MockClient, fingerprint
from afsp.metrics import bleu4, chrf, rouge, sentence_bleu4
from afsp.pipeline import PipelineConfig, TranslationPipeline
from afsp.prompting import render_prompt
from afsp.reranker import train
from afsp.retrieval import (
    Weights,
    build_index,
    retrieve_topk,
    score_dense,
    score_hybrid,
    score_multi,
    score_sparse,
)
from helpers import (
    corpus_table,
    en_sentence,
    synthetic_corpus,
    synthetic_pairs,
    write_jsonl,
    zh_sentence,
)

from test_prompting import GOLDEN, K3_REQUEST


def ok(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS")


@pytest.fixture(scope="module")
def retrieval_stack():
    corpus = synthetic_corpus(1000, seed=101)
    table = corpus_table(dim=64)
    proj = init_projections(64, seed=7)
    started = time.monotonic()
    index = build_index(corpus, table, proj)
    return corpus, table, proj, index, started


@pytest.fixture(scope="module")
def reranker_stack():
    """400 training pairs, 100 held-out pairs, scorer trained at defaults."""
    train_corpus = synthetic_corpus(400, seed=111, id_prefix="t")
    held_pairs = synthetic_pairs(100, seed=112, id_prefix="h", unique_src=True)
    table = corpus_table(dim=64)
    dataset = generate_dataset(train_corpus, max_size=2, seed=9, table=table)
    started = time.monotonic()
    model, report = train(dataset, epochs=20, learning_rate=0.1, seed=4)
    elapsed = time.monotonic() - started
    return train_corpus, held_pairs, table, dataset, model, report, elapsed


def test_criterion_1_retrieval_oracle_equivalence(retrieval_stack):
    corpus, table, proj, index, started = retrieval_stack
    weights = Weights(0.4, 0.4, 0.2)
    rng = random.Random(55)
    queries = [zh_sentence(rng) for _ in range(100)]

    results = [retrieve_topk(q, index, table, proj, weights, k=3) for q in queries]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"index build + 100 retrievals took {elapsed:.2f}s"

    # the oracle recomputes every pair's representations from its text
    reps = []
    for pair in corpus:
        emb = embed_tokens(table, pair.src_text)
        reps.append(
            (
                dense_embed(emb).values.astype(np.float64),
                sparse_embed(emb, proj).weights,
                multi_embed(emb, proj).rows.astype(np.float64),
            )
        )
    for query, got in zip(queries, results):
        emb = embed_tokens(table, query)
        qd = dense_embed(emb).values.astype(np.float64)
        qs = sparse_embed(emb, proj).weights
        qm = multi_embed(emb, proj).rows.astype(np.float64)
        scored = []
        for pos, (dense, sparse, multi) in enumerate(reps):
            sd = float(qd @ dense)
            ss = sum(w * sparse[t] for t, w in qs.items() if t in sparse)
            sims = qm @ multi.T
            sm = float(np.mean(np.max(sims, axis=1)))
            scored.append((pos, 0.4 * sd + 0.4 * ss + 0.2 * sm))
        scored.sort(key=lambda r: (-r[1], r[0]))
        want = scored[:3]
        assert [g.pair.id for g in got] == [corpus[p].id for p, _ in want]
        for g, (_, s_rank) in zip(got, want):
            assert g.s_rank == pytest.approx(s_rank, abs=1e-6)
    ok(1, "retrieval oracle equivalence, <5s")


def test_criterion_2_fusion_fidelity_and_argmax_invariance():
    assert score_hybrid(0.9, 2.5, 0.8, Weights(0.4, 0.4, 0.2)) == 1.52

    rng = random.Random(77)
    triples = [
        (rng.uniform(-1, 1), rng.uniform(0, 5), rng.uniform(-1, 1)) for _ in range(100)
    ]
    base_w = Weights(0.4, 0.4, 0.2)
    base_scores = [score_hybrid(*t, base_w) for t in triples]
    base_argmax = base_scores.index(max(base_scores))
    base_order = sorted(range(100), key=lambda i: (-base_scores[i], i))
    for _ in range(20):
        c = rng.uniform(0.01, 50.0)
        w = Weights(0.4 * c, 0.4 * c, 0.2 * c)
        scores = [score_hybrid(*t, w) for t in triples]
        assert scores.index(max(scores)) == base_argmax
        assert sorted(range(100), key=lambda i: (-scores[i], i)) == base_order
        for s, b in zip(scores, base_scores):
            assert s == pytest.approx(b * c, rel=1e-9, abs=1e-12)
    ok(2, "fusion fidelity and argmax invariance")


def test_criterion_3_self_similarity_and_sparse_symmetry():
    table = corpus_table(dim=48)
    proj = init_projections(48, seed=29)
    rng = random.Random(91)
    texts = [zh_sentence(rng) if i % 2 else en_sentence(rng) for i in range(50)]
    embs = [embed_tokens(table, t) for t in texts]
    for emb in embs:
        d = dense_embed(emb)
        m = multi_embed(emb, proj)
        assert score_dense(d, d) == pytest.approx(1.0, abs=1e-6)
        assert score_multi(m, m) == pytest.approx(1.0, abs=1e-6)
    for i in range(0, 48, 2):
        a = sparse_embed(embs[i], proj)
        b = sparse_embed(embs[i + 1], proj)
        assert score_sparse(a, b) == score_sparse(b, a)
    ok(3, "self-similarity 1.0, sparse symmetry")


def test_criterion_4_degeneration_accounting(tmp_path):
    corpus = synthetic_corpus(100, seed=121)
    table = corpus_table(dim=32)
    examples = generate_dataset(corpus, max_size=2, seed=13, table=table)
    combos = enumerate_combinations(2)
    assert len(corpus) * len(combos) == 2200

    produced = {(ex.pair_id, ex.ops) for ex in examples}
    assert len(produced) == len(examples)
    skipped = []
    for pair in corpus:
        for combo in combos:
            key = (pair.id, tuple(op.value for op in combo.ops))
            if key not in produced:
                skipped.append((pair, combo))
    assert len(examples) == 2200 - len(skipped)
    # every skip is a genuine no-op perturbation, reproducible from the seed
    translator = MockBackTranslator(13)
    for pair, combo in skipped:
        with pytest.raises(NoOpPerturbation):
            rng = random.Random(_stable_hash64(str(13), pair.id, combo.key()))
            _apply_combination(combo, pair, rng, _Resources(translator, table, None))

    assert {ex.score for ex in examples} <= {1.0, 0.8, 0.6}

    again = generate_dataset(corpus, max_size=2, seed=13, table=table)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_examples(examples, a)
    save_examples(again, b)
    assert a.read_bytes() == b.read_bytes()
    ok(4, f"degeneration accounting (2200 - {len(skipped)} skips), byte-identical regen")


def test_criterion_5_score_clamp_sequence():
    combos = [OpCombination(ops=CANONICAL_ORDER[:size]) for size in range(7)]
    scores = tuple(score_of(c) for c in combos)
    assert scores == (1.0, 0.8, 0.6, 0.4, 0.2, 0.0, 0.0)
    ok(5, "quality score clamp over |b|=0..6")


def test_criterion_6_reranker_separation(reranker_stack):
    _, held_pairs, table, _, model, report, elapsed = reranker_stack
    assert elapsed < 60.0, f"training took {elapsed:.1f}s"
    assert report.epoch_mse[-1] < report.epoch_mse[0]

    held_dataset = generate_dataset(Corpus(held_pairs), max_size=2, seed=10, table=table)
    clean = [ex for ex in held_dataset if not ex.ops]
    deg2 = [ex for ex in held_dataset if len(ex.ops) == 2]
    assert len(clean) == 100
    mean_clean = statistics.mean(model.score(ex.text) for ex in clean)
    mean_deg2 = statistics.mean(model.score(ex.text) for ex in deg2)
    separation = mean_clean - mean_deg2
    assert separation >= 0.15, f"separation {separation:.3f} < 0.15"
    ok(6, f"reranker separation {separation:.3f} >= 0.15, MSE down, {elapsed:.1f}s")


def test_criterion_7_end_to_end_selection(reranker_stack):
    train_corpus, held_pairs, table, _, model, _, _ = reranker_stack
    proj = init_projections(64, seed=7)
    index = build_index(train_corpus, table, proj)
    config = PipelineConfig(
        projection_seed=7, k=3, generation=GenerationConfig(n_candidates=3)
    )
    pipeline = TranslationPipeline(
        index=index,
        table=table,
        projections=proj,
        config=config,
        client=None,
        scorer=model,
    )

    script = {}
    expected = {}
    for i, pair in enumerate(held_pairs):
        rng = random.Random(1000 + i)
        corrupted = apply_op(DegenerationOp.INSERT, pair, pair.tgt_text, rng)
        try:
            corrupted = apply_op(DegenerationOp.SE, pair, corrupted, rng)
        except NoOpPerturbation:
            pass
        prompt = pipeline.build_prompt(pair.src_text)
        script[fingerprint(prompt)] = [pair.tgt_text, pair.src_text, corrupted]
        expected[pair.src_text] = pair.tgt_text
    pipeline.client = MockClient(script)

    wins = 0
    for pair in held_pairs:
        result = pipeline.translate(pair.src_text)
        wins += result.best == expected[pair.src_text]
    assert wins >= 95, f"clean reference selected on only {wins}/100 sentences"
    ok(7, f"end-to-end selection {wins}/100 >= 95")


def test_criterion_8_prompt_golden():
    rendered = render_prompt(K3_REQUEST)
    assert rendered.encode("utf-8") == GOLDEN.read_bytes()
    assert "You are a professional translator" in rendered
    assert len(K3_REQUEST.demos) == 3
    ok(8, "prompt golden file byte-for-byte")


def test_criterion_9_metrics_sanity():
    texts = ["the two sides agreed to strengthen cooperation", "hello world out there"]
    assert bleu4(texts, texts) == pytest.approx(100.0, abs=1e-9)
    assert chrf(texts, texts) == pytest.approx(100.0, abs=1e-9)
    assert rouge(texts, texts, "RL") == pytest.approx(1.0, abs=1e-9)

    # pinned toy oracles (enumerated by hand/bruteforce in test_metrics)
    assert chrf(["abcd"], ["abce"]) == pytest.approx(
        100.0 * (3 / 4 + 2 / 3 + 1 / 2 + 0.0) / 4, abs=1e-6
    )
    assert bleu4(["the the the cat"], ["the cat"], tokenize="word") == 0.0
    hyp_toks, ref_toks = "the the the cat".split(), "the cat".split()
    log_sum = (
        math.log(2 / 4)
        + math.log(1 / 3)
        + math.log(1e-9 / 2)
        + math.log(1e-9 / 1)
    )
    want_sentence = 100.0 * math.exp(log_sum / 4)  # bp = 1 (hyp longer)
    assert sentence_bleu4("the the the cat", "the cat", tokenize="word") == pytest.approx(
        want_sentence, abs=1e-9
    )
    ok(9, "metrics sanity and pinned oracles")


def test_criterion_10_determinism_sweep(tmp_path):
    pairs = synthetic_pairs(60, seed=131, unique_src=True)
    table = corpus_table(dim=16)
    inputs = [p.src_text for p in pairs[:10]]

    def run(run_dir):
        run_dir.mkdir()
        write_jsonl(run_dir / "pairs.jsonl", pairs)
        save_table(table, run_dir / "table.bin")
        assert main([
            "ingest", "--input", str(run_dir / "pairs.jsonl"),
            "--out", str(run_dir / "corpus.bin"),
        ]) == 0
        assert main([
            "index", "--corpus", str(run_dir / "corpus.bin"),
            "--embeddings", str(run_dir / "table.bin"), "--seed", "17",
            "--out", str(run_dir / "index.bin"),
        ]) == 0
        assert main([
            "degrade", "--corpus", str(run_dir / "corpus.bin"),
            "--embeddings", str(run_dir / "table.bin"),
            "--max-ops", "2", "--seed", "7", "--out", str(run_dir / "degraded.jsonl"),
        ]) == 0
        assert main([
            "train-reranker", "--data", str(run_dir / "degraded.jsonl"),
            "--epochs", "8", "--seed", "3", "--feature-dim", str(1 << 14),
            "--out", str(run_dir / "model.bin"),
        ]) == 0

        config = PipelineConfig(
            table_path=str(run_dir / "table.bin"),
            index_path=str(run_dir / "index.bin"),
            reranker_path=str(run_dir / "model.bin"),
            projection_seed=17,
            k=3,
            generation=GenerationConfig(n_candidates=2),
        )
        pipeline = TranslationPipeline.from_config(config, client=MockClient({}))
        script = {}
        for pair in pairs[:10]:
            prompt = pipeline.build_prompt(pair.src_text)
            script[fingerprint(prompt)] = [pair.tgt_text, pair.src_text]
        (run_dir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        (run_dir / "in.txt").write_text("\n".join(inputs) + "\n", encoding="utf-8")
        assert main([
            "translate",
            "--index", str(run_dir / "index.bin"),
            "--embeddings", str(run_dir / "table.bin"),
            "--reranker", str(run_dir / "model.bin"),
            "--seed", "17", "--k", "3", "--n-candidates", "2",
            "--input", str(run_dir / "in.txt"), "--out", str(run_dir / "out.txt"),
            "--audit", str(run_dir / "audit.jsonl"),
            "--mock-script", str(run_dir / "script.json"),
        ]) == 0

    run(tmp_path / "run_a")
    run(tmp_path / "run_b")
    artifacts = [
        "corpus.bin", "index.bin", "degraded.jsonl", "model.bin",
        "out.txt", "audit.jsonl",
    ]
    for name in artifacts:
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    translations = (tmp_path / "run_a" / "out.txt").read_text(encoding="utf-8").splitlines()
    assert len(translations) == 10
    assert all(t for t in translations)
    ok(10, "two identical seeded runs produce byte-identical artifacts")
