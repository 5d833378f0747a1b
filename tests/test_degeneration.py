import itertools
import json
import random

import pytest

from afsp.corpus import DemoPair
from afsp.degeneration import (
    CANONICAL_ORDER,
    DegenerationOp,
    MockBackTranslator,
    OpCombination,
    RerankerExample,
    apply_op,
    enumerate_combinations,
    generate_dataset,
    load_examples,
    load_synonyms,
    save_examples,
    score_of,
)
from afsp.errors import MalformedRecord, MissingEmbeddingTable, MissingTranslator, NoOpPerturbation
from helpers import corpus_table, synthetic_corpus

PAIR = DemoPair("p1", "猫坐了下来", "the cat sat", "zh", "en")


def test_combination_normalizes_to_canonical_order():
    combo = OpCombination(ops=(DegenerationOp.SE, DegenerationOp.PARALLEL))
    assert combo.ops == (DegenerationOp.PARALLEL, DegenerationOp.SE)
    with pytest.raises(ValueError):
        OpCombination(ops=(DegenerationOp.SE, DegenerationOp.SE))


def test_enumerate_counts():
    assert len(enumerate_combinations(6)) == 64
    assert len(enumerate_combinations(2)) == 22
    assert len(enumerate_combinations(0)) == 1
    with pytest.raises(ValueError):
        enumerate_combinations(7)


def test_enumerate_order_is_size_then_canonical():
    combos = enumerate_combinations(6)
    sizes = [c.size for c in combos]
    assert sizes == sorted(sizes)
    singles = [c.ops[0] for c in combos if c.size == 1]
    assert tuple(singles) == CANONICAL_ORDER
    assert [op.value for op in CANONICAL_ORDER] == ["Parallel", "Back", "Replace", "Insert", "Ret", "Se"]
    assert CANONICAL_ORDER == tuple(DegenerationOp)
    expected_pairs = list(itertools.combinations(CANONICAL_ORDER, 2))
    assert [c.ops for c in combos if c.size == 2] == expected_pairs


def test_score_of_clamped_sequence():
    by_size = {}
    for combo in enumerate_combinations(6):
        by_size.setdefault(combo.size, score_of(combo))
    assert tuple(by_size[i] for i in range(7)) == (1.0, 0.8, 0.6, 0.4, 0.2, 0.0, 0.0)


def test_score_of_non_increasing():
    scores = [score_of(OpCombination(ops=CANONICAL_ORDER[:n])) for n in range(7)]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_parallel_replaces_target_with_source():
    out = apply_op(DegenerationOp.PARALLEL, PAIR, PAIR.tgt_text, random.Random(0))
    assert out == PAIR.src_text


def test_parallel_on_source_text_cannot_change():
    with pytest.raises(NoOpPerturbation):
        apply_op(DegenerationOp.PARALLEL, PAIR, PAIR.src_text, random.Random(0))


def test_ret_seeded_golden():
    out = apply_op(DegenerationOp.RET, PAIR, "the cat sat", random.Random(4))
    assert out == "the cat cat sat"


def test_se_seeded_goldens():
    hello_pair = DemoPair("p2", "你好", "hello", "zh", "en")
    assert apply_op(DegenerationOp.SE, hello_pair, "hello", random.Random(31)) == "helol"
    long_pair = DemoPair("p3", "源文本", "the quick brown fox jumps over the lazy dog", "zh", "en")
    out = apply_op(DegenerationOp.SE, long_pair, long_pair.tgt_text, random.Random(3))
    assert out == "the quick brown fox jumps oevr the lazy dog"


def test_back_requires_translator():
    with pytest.raises(MissingTranslator):
        apply_op(DegenerationOp.BACK, PAIR, PAIR.tgt_text, random.Random(0))


def test_back_with_mock_is_deterministic():
    translator = MockBackTranslator(seed=5)
    a = apply_op(DegenerationOp.BACK, PAIR, PAIR.tgt_text, random.Random(1), translator=translator)
    b = apply_op(DegenerationOp.BACK, PAIR, PAIR.tgt_text, random.Random(1), translator=translator)
    assert a == b
    assert a != PAIR.tgt_text


def test_mock_translator_is_pure_function_of_inputs():
    translator = MockBackTranslator(seed=5)
    text = "the government will continue to promote dialogue"
    assert translator(text, "en", "zh") == translator(text, "en", "zh")
    assert translator(text, "en", "zh") != translator(text, "zh", "en") or True  # langs key the stream


def test_insert_adds_source_tokens():
    long_src = DemoPair("p4", "外交部发言人今天发表了重要讲话", "short target here", "zh", "en")
    out = apply_op(DegenerationOp.INSERT, long_src, long_src.tgt_text, random.Random(2))
    assert out != long_src.tgt_text
    assert any(ch in out for ch in long_src.src_text)


def test_replace_needs_table_or_synonyms():
    with pytest.raises(MissingEmbeddingTable):
        apply_op(DegenerationOp.REPLACE, PAIR, "the cat sat", random.Random(0))


def test_replace_with_table_swaps_a_token():
    table = corpus_table(dim=16)
    text = "the government will promote dialogue"
    out = apply_op(DegenerationOp.REPLACE, PAIR, text, random.Random(6), table=table)
    assert out != text
    assert len(out.split()) == len(text.split())
    changed = [(a, b) for a, b in zip(text.split(), out.split()) if a != b]
    assert changed
    for _, replacement in changed:
        assert replacement in table.vocab


def test_replace_synonym_override():
    synonyms = {"cat": ["feline"]}
    out = apply_op(
        DegenerationOp.REPLACE,
        PAIR,
        "cat",
        random.Random(0),
        synonyms=synonyms,
    )
    assert out == "feline"


def test_replace_without_a_table_draws_only_tokens_the_map_covers():
    synonyms = {"cat": ["feline"]}
    for seed in range(20):
        out = apply_op(DegenerationOp.REPLACE, PAIR, "the cat sat", random.Random(seed), synonyms=synonyms)
        assert out == "the feline sat"


def test_replace_without_a_table_leaves_a_text_the_map_does_not_cover():
    with pytest.raises(NoOpPerturbation):
        apply_op(DegenerationOp.REPLACE, PAIR, "the cat sat", random.Random(0), synonyms={"dog": ["pup"]})


def test_load_synonyms_skips_lines_without_synonyms(tmp_path):
    path = tmp_path / "synonyms.tsv"
    path.write_text("hello\t\t\nCat\t\tfeline\t\ndog\n\tpup\n", encoding="utf-8")
    assert load_synonyms(path) == {"cat": ["feline"]}


def test_same_seed_same_combination_output():
    table = corpus_table(dim=16)
    translator = MockBackTranslator(seed=3)
    combo_rng = lambda: random.Random(1)
    for kind in (DegenerationOp.RET, DegenerationOp.SE, DegenerationOp.INSERT):
        a = apply_op(kind, PAIR, PAIR.tgt_text, combo_rng(), translator=translator, table=table)
        b = apply_op(kind, PAIR, PAIR.tgt_text, combo_rng(), translator=translator, table=table)
        assert a == b


@pytest.fixture(scope="module")
def dataset_100():
    corpus = synthetic_corpus(100, seed=33)
    table = corpus_table(dim=32)
    return corpus, generate_dataset(corpus, max_size=2, seed=7, table=table)


def test_generate_dataset_accounting(dataset_100):
    corpus, examples = dataset_100
    combos = enumerate_combinations(2)
    total = len(corpus) * len(combos)
    assert total == 2200
    assert len(examples) <= total
    # provenance is unique and complete up to skips
    seen = {(ex.pair_id, ex.ops) for ex in examples}
    assert len(seen) == len(examples)
    valid_ops = {tuple(op.value for op in c.ops) for c in combos}
    assert {ex.ops for ex in examples} <= valid_ops
    skipped = total - len(examples)
    assert 0 <= skipped < total


def test_generate_dataset_scores_and_null_combos(dataset_100):
    corpus, examples = dataset_100
    assert {ex.score for ex in examples} <= {1.0, 0.8, 0.6}
    originals = {p.id: p.tgt_text for p in corpus}
    for ex in examples:
        if not ex.ops:
            assert ex.score == 1.0
            assert ex.text == originals[ex.pair_id]
        else:
            assert ex.text != originals[ex.pair_id]


def test_generate_dataset_deterministic(dataset_100, tmp_path):
    corpus, examples = dataset_100
    table = corpus_table(dim=32)
    again = generate_dataset(corpus, max_size=2, seed=7, table=table)
    assert examples == again
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_examples(examples, a)
    save_examples(again, b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_dataset_seed_changes_output(dataset_100):
    corpus, examples = dataset_100
    table = corpus_table(dim=32)
    other = generate_dataset(corpus, max_size=2, seed=8, table=table)
    assert other != examples


def test_generate_dataset_propagates_missing_translator():
    corpus = synthetic_corpus(2, seed=1)
    with pytest.raises(MissingTranslator):
        generate_dataset(corpus, max_size=1, seed=0, translator=None, table=corpus_table(dim=8))


def test_examples_round_trip(tmp_path, dataset_100):
    _, examples = dataset_100
    path = tmp_path / "examples.jsonl"
    save_examples(examples[:50], path)
    assert load_examples(path) == examples[:50]


@pytest.mark.parametrize("escape", [r"\ud800", r"\uDFFF"])
def test_load_examples_lone_surrogate_escape_is_malformed_on_its_line(tmp_path, escape):
    path = tmp_path / "examples.jsonl"
    rec = {"text": "a b", "score": 0.5, "pair_id": "p1", "ops": []}
    bad = json.dumps(rec).replace("a b", escape + "x")
    path.write_text(json.dumps(rec) + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match="lone surrogate") as excinfo:
        load_examples(path)
    assert excinfo.value.line_no == 3


def test_load_examples_keeps_escaped_surrogate_pairs(tmp_path):
    path = tmp_path / "examples.jsonl"
    path.write_text(r'{"text": "a \ud83d\ude00", "score": 1, "pair_id": "p1", "ops": []}', encoding="utf-8")
    assert load_examples(path) == [RerankerExample("a \U0001f600", 1.0, "p1", ())]
