import hashlib
import random
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afsp.degeneration import RerankerExample
from afsp.embedding import _CJK_RE, segment
from afsp.errors import (
    AfspError,
    DegenerateDataset,
    EmptyCandidateList,
    EmptyText,
    NonFiniteLoss,
    VersionMismatch,
)
import afsp.reranker
from afsp.reranker import (
    _BIAS,
    _MODEL_HEAD,
    DEFAULT_FEATURE_DIM,
    MODEL_MAGIC,
    NGramRegressor,
    featurize,
    load_model,
    rank,
    rank_many,
    save_model,
    train,
)
from helpers import draw_corruption, en_sentence, synthetic_corpus, zh_sentence

FEATURE_DIM = 1 << 12  # small hash space keeps unit tests fast


def small_dataset():
    """Clean English (score 1.0) vs untranslated Chinese (score 0.8)."""
    corpus = synthetic_corpus(30, seed=51)
    examples = []
    for p in corpus:
        examples.append(RerankerExample(p.tgt_text, 1.0, p.id, ()))
        examples.append(RerankerExample(p.src_text, 0.8, p.id, ("Parallel",)))
    return examples


def rows(texts, feature_dim=FEATURE_DIM, hash_seed=0):
    """Each text's (indices, values) row of one featurize call."""
    indptr, indices, values = featurize(texts, feature_dim, hash_seed)
    assert len(indptr) == len(texts) + 1 and indptr[0] == 0
    bounds = indptr.tolist()
    return [(indices[a:b], values[a:b]) for a, b in zip(bounds, bounds[1:])]


def test_featurize_identical_texts_identical_vectors():
    (a_idx, a_val), (b_idx, b_val) = rows(["some translated text", "some translated text"])
    assert a_idx.tolist() == b_idx.tolist()
    assert a_val.tolist() == b_val.tolist()


def test_featurize_dense_slots():
    (indices, values), (_, values_en) = rows(["你好", "plain english"])
    assert indices[-2] == FEATURE_DIM
    assert indices[-1] == FEATURE_DIM + 1
    assert values[-1] == 1.0  # all characters are CJK
    assert values[-2] == pytest.approx(2 / 100)
    assert values_en[-1] == 0.0


def test_featurize_two_char_text_per_order_norms():
    ((_, values),) = rows(["ab"])
    # unigrams a, b normalized together; the bigram block is a single gram
    gram_values = sorted(values[:-2].tolist())
    assert gram_values == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2), 1.0])


def test_featurize_length_cap():
    ((_, values),) = rows(["word " * 300])
    assert values[-2] == 1.0


def test_featurize_empty_raises():
    with pytest.raises(EmptyText):
        featurize(["   "], FEATURE_DIM)


def test_featurize_rejects_one_str():
    # a str is a sequence of characters, which would featurize one text per
    # character
    for text in ("text", ""):
        with pytest.raises(TypeError):
            featurize(text, FEATURE_DIM)


def test_featurize_hash_seed_changes_indices():
    ((a, _),) = rows(["hello there"], hash_seed=0)
    ((b, _),) = rows(["hello there"], hash_seed=1)
    assert a[:-2].tolist() != b[:-2].tolist()


def test_score_zero_model_is_half():
    model = NGramRegressor(
        feature_dim=FEATURE_DIM,
        hash_seed=0,
        weights=np.zeros(FEATURE_DIM + 2, dtype=np.float32),
        bias=0.0,
    )
    assert model.score("anything at all") == 0.5


def test_score_saturates_strictly_inside_unit_interval():
    model = NGramRegressor(
        feature_dim=FEATURE_DIM,
        hash_seed=0,
        weights=np.zeros(FEATURE_DIM + 2, dtype=np.float32),
        bias=1e6,
    )
    value = model.score("text")
    assert 0.99 < value < 1.0
    low = NGramRegressor(
        feature_dim=FEATURE_DIM,
        hash_seed=0,
        weights=np.zeros(FEATURE_DIM + 2, dtype=np.float32),
        bias=-1e6,
    )
    assert 0.0 < low.score("text") < 0.01


def test_train_reduces_mse_and_scores_in_range():
    examples = small_dataset()
    model, report = train(examples, epochs=20, seed=2, feature_dim=FEATURE_DIM)
    assert len(report.epoch_mse) == 20
    assert report.epoch_mse[-1] < report.epoch_mse[0]
    assert report.fingerprint
    for ex in examples[:5]:
        assert 0.0 < model.score(ex.text) < 1.0


def test_train_deterministic():
    examples = small_dataset()
    model_a, _ = train(examples, epochs=5, seed=3, feature_dim=FEATURE_DIM)
    model_b, _ = train(examples, epochs=5, seed=3, feature_dim=FEATURE_DIM)
    assert model_a.weights.tobytes() == model_b.weights.tobytes()
    assert model_a.bias == model_b.bias
    model_c, _ = train(examples, epochs=5, seed=4, feature_dim=FEATURE_DIM)
    assert model_c.weights.tobytes() != model_a.weights.tobytes()


def test_train_rejects_degenerate_data():
    flat = [RerankerExample(f"text number {i}", 0.8, str(i), ()) for i in range(20)]
    with pytest.raises(DegenerateDataset):
        train(flat, feature_dim=FEATURE_DIM)
    with pytest.raises(DegenerateDataset):
        train(small_dataset()[:4], feature_dim=FEATURE_DIM)


@pytest.mark.parametrize("learning_rate", [float("inf"), float("nan"), 0.0, -1.0])
def test_train_rejects_a_learning_rate_that_is_not_finite_and_positive(learning_rate):
    with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
        train(small_dataset()[:20], epochs=1, learning_rate=learning_rate, feature_dim=FEATURE_DIM)


def test_train_raises_when_a_weight_does_not_fit_float32():
    with pytest.raises(NonFiniteLoss, match="float32"):
        train(small_dataset()[:20], epochs=1, learning_rate=1e300, feature_dim=FEATURE_DIM)


def test_trained_model_separates_parallel_from_clean():
    examples = small_dataset()
    model, _ = train(examples, epochs=20, seed=2, feature_dim=FEATURE_DIM)
    probe = synthetic_corpus(10, seed=77)
    clean = float(np.mean([model.score(p.tgt_text) for p in probe]))
    parallel = float(np.mean([model.score(p.src_text) for p in probe]))
    assert clean > parallel


def test_rank_orders_and_breaks_ties_by_index():
    zero = NGramRegressor(
        feature_dim=FEATURE_DIM,
        hash_seed=0,
        weights=np.zeros(FEATURE_DIM + 2, dtype=np.float32),
        bias=0.0,
    )
    ranked = rank(zero, ["b text", "a text", "c text"])
    assert [i for i, _ in ranked] == [0, 1, 2]

    single = rank(zero, ["only"])
    assert single == [(0, 0.5)]

    with pytest.raises(EmptyCandidateList):
        rank(zero, [])


def test_rank_is_permutation_and_idempotent():
    examples = small_dataset()
    model, _ = train(examples, epochs=10, seed=6, feature_dim=FEATURE_DIM)
    candidates = [examples[i].text for i in range(6)]
    ranked = rank(model, candidates)
    assert sorted(i for i, _ in ranked) == list(range(6))
    reordered = [candidates[i] for i, _ in ranked]
    again = rank(model, reordered)
    assert [i for i, _ in again] == list(range(6))


def test_rank_prefers_clean_over_parallel_degeneration():
    examples = small_dataset()
    model, _ = train(examples, epochs=20, seed=2, feature_dim=FEATURE_DIM)
    probe = synthetic_corpus(8, seed=88)
    for p in probe:
        ranked = rank(model, [p.tgt_text, p.src_text])
        assert ranked[0][0] == 0


def test_model_round_trip_identical_scores(tmp_path):
    model, _ = train(small_dataset(), epochs=8, seed=9, feature_dim=FEATURE_DIM, hash_seed=123)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.feature_dim == FEATURE_DIM
    assert loaded.hash_seed == 123
    probe = ["clean english sentence", "外交部发言人表示欢迎", "hel lo wor ld"]
    for text in probe:
        assert loaded.score(text) == model.score(text)


def test_model_save_deterministic(tmp_path):
    model, _ = train(small_dataset(), epochs=4, seed=9, feature_dim=FEATURE_DIM)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_model_truncated_file(tmp_path):
    model, _ = train(small_dataset(), epochs=4, seed=9, feature_dim=FEATURE_DIM)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(VersionMismatch):
        load_model(path)
    path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_model_rejects_trailing_bytes(tmp_path):
    model, _ = train(small_dataset(), epochs=4, seed=9, feature_dim=FEATURE_DIM)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(VersionMismatch, match="trailing"):
        load_model(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["weight", "bias"])
def test_model_rejects_non_finite_weights(tmp_path, bad, where):
    model, _ = train(small_dataset(), epochs=4, seed=9, feature_dim=FEATURE_DIM)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    # the bias is the last four bytes; the first weight follows the
    # magic, the u32 feature dim and the u64 hash seed
    at = len(data) - 4 if where == "bias" else 8 + 4 + 8
    data[at : at + 4] = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch, match="non-finite"):
        load_model(path)


def test_model_rejects_zero_feature_dim(tmp_path):
    path = tmp_path / "model.bin"
    weights = np.zeros(2, dtype="<f4").tobytes()
    path.write_bytes(MODEL_MAGIC + _MODEL_HEAD.pack(0, 0) + weights + _BIAS.pack(0.0))
    with pytest.raises(VersionMismatch, match="feature dim"):
        load_model(path)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"feature_dim": 0, "weights": np.zeros(2)}, "feature dim must be >= 1"),
        ({"weights": np.zeros(4)}, "need feature dim \\+ 2 weights"),
        ({"weights": np.zeros((5, 2))}, "need feature dim \\+ 2 weights"),
        ({"weights": np.array([np.nan] + [0.0] * 9)}, "non-finite"),
        ({"bias": np.inf}, "non-finite"),
        ({"hash_seed": -1}, "hash seed must be >= 0"),
        ({"hash_seed": 2**64}, "hash seed must be < 2"),
        ({"hash_seed": 1.0}, "hash seed must be an integer"),
        # beyond float32's range: save_model would write inf or overflow
        ({"weights": np.array([0.0] * 9 + [1e300])}, "beyond float32's range"),
        ({"bias": -1e300}, "beyond float32's range"),
        # beyond the model file's u32 feature dim, checked before the weights
        ({"feature_dim": 1 << 32, "weights": np.zeros(2)}, "feature dim must be <= 4294967295"),
    ],
)
def test_model_checks_its_fields_when_built(kwargs, message):
    fields = dict(feature_dim=8, hash_seed=0, weights=np.zeros(10), bias=0.0) | kwargs
    with pytest.raises(ValueError, match=message):
        NGramRegressor(**fields)


@pytest.mark.parametrize(
    "hash_seed, fingerprint",
    [
        (0, "76c42e277f9dd2dab6017589a5d5b5568fdf433d68fc8bd4ec5a137ddb4ec9a0"),
        (2**64 - 1, "785ca5bad625b9cbde5d7fcf4376649ff1448ea6df28b9d28a7825ea6e33dfff"),
    ],
)
def test_model_hash_seed_survives_save_and_load(tmp_path, hash_seed, fingerprint):
    # fingerprints of the models trained when each seed was masked to u64
    model, report = train(
        small_dataset(), epochs=2, seed=9, feature_dim=FEATURE_DIM, hash_seed=hash_seed
    )
    assert report.fingerprint == fingerprint
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hash_seed == hash_seed
    assert loaded.score_many(["some text", "其他"]) == model.score_many(["some text", "其他"])


@pytest.mark.parametrize("hash_seed", [-1, 2**64])
def test_hash_seed_outside_u64_is_rejected(hash_seed):
    with pytest.raises(ValueError, match="hash seed"):
        train(small_dataset(), epochs=1, feature_dim=FEATURE_DIM, hash_seed=hash_seed)
    with pytest.raises(ValueError, match="hash seed"):
        featurize(["text"], FEATURE_DIM, hash_seed)


@pytest.fixture(scope="module")
def small_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    model = NGramRegressor(
        feature_dim=5, hash_seed=3, weights=np.linspace(-1, 1, 7, dtype=np.float32), bias=0.5
    )
    save_model(model, path)
    return path.read_bytes()


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupt_model_raises_only_afsp_errors(tmp_path, small_model_file, data):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(draw_corruption(data, small_model_file))
    try:
        model = load_model(path)
        # what loads must also score without a non-package error
        assert 0.0 < model.score("ok 好") < 1.0
    except AfspError:
        pass


def test_default_feature_dim_is_power_of_two():
    assert DEFAULT_FEATURE_DIM == 2**18


def _gram_index(gram, feature_dim, key):
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % feature_dim


def featurize_per_position(text, feature_dim, hash_seed):
    """Reference: one hash per gram position, counts merged per bucket."""
    key = struct.pack("<Q", hash_seed & 0xFFFFFFFFFFFFFFFF)
    lowered = text.lower()
    index_parts, value_parts = [], []
    for n in range(1, 5):
        counts = {}
        for i in range(len(lowered) - n + 1):
            idx = _gram_index(lowered[i : i + n], feature_dim, key)
            counts[idx] = counts.get(idx, 0.0) + 1.0
        if not counts:
            continue
        values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        values /= np.linalg.norm(values)
        index_parts.append(np.fromiter(counts.keys(), dtype=np.int64, count=len(counts)))
        value_parts.append(values)
    token_count = len(segment(text))
    chars = [c for c in text if not c.isspace()]
    cjk_fraction = sum(1 for c in chars if _CJK_RE.match(c)) / len(chars) if chars else 0.0
    index_parts.append(np.array([feature_dim, feature_dim + 1], dtype=np.int64))
    value_parts.append(np.array([min(token_count / 100.0, 1.0), cjk_fraction]))
    return np.concatenate(index_parts), np.concatenate(value_parts)


def random_texts(seed, count=40):
    """Latin, CJK and mixed texts, with case, odd whitespace and repeats."""
    rng = random.Random(seed)
    pieces = ["İstanbul", "ÀÉÎ", "　", "\t", " \n ", "ー・", "123", "x" * 5, "。", "好好好"]
    texts = []
    for i in range(count):
        kind = i % 3
        parts = []
        for _ in range(rng.randint(1, 6)):
            if kind == 0:
                parts.append(en_sentence(rng))
            elif kind == 1:
                parts.append(zh_sentence(rng))
            else:
                parts.append(rng.choice([en_sentence(rng), zh_sentence(rng), rng.choice(pieces)]))
        texts.append(rng.choice(["", " ", "\u3000"]).join(parts))
    texts += ["a", "ab", "İ", "Ａｂ好", " 好 ", "word " * 300]
    return texts


def assert_rows_match_reference(texts, feature_dim, hash_seed):
    got = rows(texts, feature_dim, hash_seed)
    assert len(got) == len(texts)
    for text, (indices, values) in zip(texts, got):
        want_indices, want_values = featurize_per_position(text, feature_dim, hash_seed)
        assert indices.tobytes() == want_indices.tobytes()
        assert values.tobytes() == want_values.tobytes()


@pytest.mark.parametrize("feature_dim,hash_seed", [(FEATURE_DIM, 0), (7, 0), (7, 2**64 - 5), (DEFAULT_FEATURE_DIM, 99)])
def test_featurize_many_matches_per_position_reference(feature_dim, hash_seed):
    texts = random_texts(seed=feature_dim + hash_seed % 1000)
    assert_rows_match_reference(texts, feature_dim, hash_seed)
    # a text's row does not depend on the texts that share its call
    for text in texts[:5]:
        assert_rows_match_reference([text], feature_dim, hash_seed)


def test_featurize_many_blank_text_anywhere_raises():
    for batch in (["   "], ["ok", "\t\n"], ["ok", "fine", "\u3000"], ["", "ok"]):
        with pytest.raises(EmptyText):
            featurize(batch, FEATURE_DIM)
    indptr, indices, values = featurize([], FEATURE_DIM)
    assert indptr.tolist() == [0] and len(indices) == len(values) == 0


def test_rank_scores_equal_single_text_scores_and_ties_keep_order():
    model, _ = train(small_dataset(), epochs=8, seed=5, feature_dim=FEATURE_DIM, hash_seed=7)
    texts = random_texts(seed=3, count=24)
    candidates = texts + texts[:6]  # six exact ties, later copies rank after earlier
    # the same candidates ranked alone and pooled with other lines' texts
    lines = [candidates[:10], texts[6:9], candidates, candidates[20:]]
    for ranked in [rank(model, candidates), rank_many(model, lines)[2]]:
        assert model.score_many(candidates) == [model.score(t) for t in candidates]
        by_index = dict(ranked)
        assert [by_index[i] for i in range(len(candidates))] == [model.score(t) for t in candidates]
        assert ranked == sorted(by_index.items(), key=lambda pair: (-pair[1], pair[0]))
        for i in range(6):
            order = [j for j, _ in ranked]
            assert order.index(i) < order.index(len(texts) + i)
    for line, ranked in zip(lines, rank_many(model, lines), strict=True):
        assert dict(ranked) == {i: model.score(t) for i, t in enumerate(line)}


def test_saved_model_bytes_match_golden(tmp_path):
    # digest of the model file written before featurization was batched;
    # a change here means training no longer sees the same feature vectors
    model, _ = train(small_dataset(), epochs=8, seed=9, feature_dim=FEATURE_DIM, hash_seed=123)
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1cd5e2b3018fed6a673f77850b52932452d745eb24e6c582579a293f9a9d51c2"
    )


# pieces whose lowercase changes length (İ, ẞ), astral-plane characters,
# CJK, final-sigma context and whitespace-only separators
_PIECES = ["a", "Ab", "İ", "ẞ", "ß", "ΑΣ", "ς", "好", "語", "ー", "𝔘", "😀", "\U00020000", "x1_", "。"]
_SEPARATORS = [" ", "\t", "\n", "\u3000", "\u00a0", "  \u2028 "]
_texts = st.one_of(
    st.lists(st.sampled_from(_PIECES + _SEPARATORS), min_size=1, max_size=12).map("".join),
    st.sampled_from(_PIECES),
    st.text(min_size=1, max_size=30),
).filter(str.strip)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    texts=st.lists(_texts, min_size=1, max_size=40),
    feature_dim=st.sampled_from([1, 7, FEATURE_DIM]),
    hash_seed=st.integers(0, 2**64 - 1),
)
def test_featurize_many_matches_reference_on_drawn_batches(texts, feature_dim, hash_seed):
    assert_rows_match_reference(texts, feature_dim, hash_seed)


def test_featurize_many_with_more_distinct_characters_than_fit_in_16_bits():
    # four orders of 70,000 distinct ids would overflow int64 without the
    # per-order re-densification
    chars = [chr(c) for c in range(0x4E00, 0x30000) if chr(c).isprintable() and not chr(c).isspace()]
    chars = chars[:70_000]
    rng = random.Random(4)
    texts = ["".join(chars[i : i + 700]) for i in range(0, len(chars), 700)]
    texts += ["".join(rng.choices(chars, k=300)) + " " + texts[0][:50] for _ in range(5)]
    assert len(set("".join(texts))) > 65_536
    assert_rows_match_reference(texts, DEFAULT_FEATURE_DIM, 11)


def test_lowercasing_keeps_every_code_points_whitespace_and_cjk_count():
    # the dense slots classify characters of the lowercased text
    for code in range(0x110000):
        char = chr(code)
        lowered = char.lower()
        if lowered != char:
            assert sum(map(str.isspace, lowered)) == char.isspace(), hex(code)
            assert len(_CJK_RE.findall(lowered)) == len(_CJK_RE.findall(char)), hex(code)


class CountingScorer:
    """A scorer that records the texts of each score_many call."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def score_many(self, texts):
        self.calls.append(list(texts))
        return self.model.score_many(texts)


@pytest.fixture(scope="module")
def ranking_model():
    model, _ = train(small_dataset(), epochs=8, seed=5, feature_dim=FEATURE_DIM, hash_seed=7)
    return model


def assert_same_as_rank_per_line(model, lists, results):
    """Each list's rank_many result equals rank of the list alone, or holds
    the error rank raises for it."""
    assert len(results) == len(lists)
    for candidates, got in zip(lists, results):
        try:
            want = rank(model, candidates)
        except AfspError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert got == want


def test_rank_many_chunks_by_characters_and_a_long_line_is_alone(ranking_model, monkeypatch):
    monkeypatch.setattr(afsp.reranker, "_RANK_CHARS", 25)
    lists = [["a" * 10], ["b" * 6, "c" * 4], ["d" * 30], ["e" * 5, "f" * 5], ["g" * 15]]
    scorer = CountingScorer(ranking_model)
    results = rank_many(scorer, lists)
    # 10 + 10 fit; 30 is past the cap and alone; 10 + 15 fit
    assert scorer.calls == [lists[0] + lists[1], lists[2], lists[3] + lists[4]]
    assert_same_as_rank_per_line(ranking_model, lists, results)


def test_rank_many_holds_each_lines_error_in_its_place(ranking_model):
    lists = [["fine text"], [], ["ok", "  \t"], ["clean english sentence", "another one"], ["\u3000"]]
    scorer = CountingScorer(ranking_model)
    results = rank_many(scorer, lists)
    assert isinstance(results[1], EmptyCandidateList)
    assert isinstance(results[2], EmptyText) and isinstance(results[4], EmptyText)
    assert_same_as_rank_per_line(ranking_model, lists, results)
    # the chunk's pass failed on the blank texts, so each half was ranked in
    # turn, down to the lines that raise
    assert scorer.calls[1:] == [
        lists[0] + lists[1], lists[2] + lists[3] + lists[4], lists[2], lists[3] + lists[4],
        lists[3], lists[4],
    ]
    with pytest.raises(EmptyText):
        rank(ranking_model, lists[2])
    assert rank_many(ranking_model, []) == []


def test_one_blank_line_in_a_block_costs_a_call_per_halving(ranking_model):
    rng = random.Random(15)
    lists = [[en_sentence(rng) for _ in range(4)] for _ in range(16)]
    lists[11][2] = "  "
    assert sum(len(text) for candidates in lists for text in candidates) <= afsp.reranker._RANK_CHARS
    scorer = CountingScorer(ranking_model)
    results = rank_many(scorer, lists)
    assert isinstance(results[11], EmptyText)
    assert_same_as_rank_per_line(ranking_model, lists, results)
    # the block, then both halves 8, 4, 2 and 1 lines long, splitting the
    # one that holds line 11; scoring each line alone would take 17 calls
    assert len(scorer.calls) == 9
    assert lists[11] in scorer.calls


def test_featurize_is_looked_up_once_per_scorer_call(ranking_model, monkeypatch):
    # a wrapper set on afsp.reranker.featurize, as a tracer sets one, sees
    # every featurization: one per score_many call, so one per rank_many chunk
    calls = []

    def spy(texts, *args):
        calls.append(list(texts))
        return featurize(texts, *args)

    monkeypatch.setattr(afsp.reranker, "featurize", spy)
    ranking_model.score_many(["one text", "another"])
    assert calls == [["one text", "another"]]
    monkeypatch.setattr(afsp.reranker, "_RANK_CHARS", 25)
    lists = [["a" * 10], ["b" * 6, "c" * 4], ["d" * 30], ["e" * 5, "f" * 5], ["g" * 15]]
    scorer = CountingScorer(ranking_model)
    calls.clear()
    rank_many(scorer, lists)
    assert calls == scorer.calls and len(calls) == 3


_candidate_lists = st.lists(
    st.lists(st.one_of(_texts, st.sampled_from(["", " ", "\t\u3000"])), max_size=6), max_size=8
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lists=_candidate_lists, cap=st.one_of(st.just(1), st.just(None), st.integers(0, 8)))
def test_rank_many_equals_rank_per_line_at_any_cap(ranking_model, lists, cap):
    # cap: 1 ranks each line alone, None keeps the default, an integer k
    # closes a chunk after the first k lines' characters
    if cap is None:
        cap = afsp.reranker._RANK_CHARS
    elif cap > 1:
        cap = sum(len(text) for candidates in lists[:cap] for text in candidates)
    with mock.patch.object(afsp.reranker, "_RANK_CHARS", cap):
        assert_same_as_rank_per_line(ranking_model, lists, rank_many(ranking_model, lists))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_many_peak_memory_stays_near_one_line():
    # 8 lines of 30 ~240-character candidates: an uncapped pass would hold
    # all 8 lines' featurizer arrays at once
    rng = random.Random(8)
    lists = [
        [" ".join(en_sentence(rng) for _ in range(3))[:240] for _ in range(30)] for _ in range(8)
    ]
    model = NGramRegressor(
        feature_dim=DEFAULT_FEATURE_DIM,
        hash_seed=0,
        weights=np.zeros(DEFAULT_FEATURE_DIM + 2, dtype=np.float32),
        bias=0.0,
    )
    largest = max(lists, key=lambda candidates: sum(map(len, candidates)))
    alone = _traced_peak(lambda: rank(model, largest))
    batched = _traced_peak(lambda: rank_many(model, lists))
    assert batched <= 1.5 * alone
