import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsp.metrics
from afsp.embedding import _CJK_RE
from afsp.errors import EmptyCorpus, LengthMismatch
from afsp.metrics import (
    EvalReport,
    bleu4,
    chrf,
    detect_mode,
    evaluate,
    rouge,
    sentence_bleu4,
    sentence_chrf,
)
from afsp.metrics import _tokens as tokens
from helpers import en_sentence


# --- independent oracles (plain enumeration, no shared code paths) ----------

def oracle_ngrams(seq, n):
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def oracle_corpus_bleu(pairs):
    """Direct transcription of corpus BLEU from modified-precision counts."""
    clipped = [0] * 4
    total = [0] * 4
    c = r = 0
    for hyp, ref in pairs:
        c += len(hyp)
        r += len(ref)
        for n in range(1, 5):
            hc = oracle_ngrams(hyp, n)
            rc = oracle_ngrams(ref, n)
            total[n - 1] += sum(hc.values())
            clipped[n - 1] += sum(min(v, rc[g]) for g, v in hc.items())
    if c == 0 or any(t == 0 for t in total) or any(x == 0 for x in clipped):
        return 0.0
    geo = math.exp(sum(math.log(x / t) for x, t in zip(clipped, total)) / 4)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return 100.0 * bp * geo


def oracle_sentence_bleu(hyp, ref, eps=1e-9):
    log_sum, orders = 0.0, 0
    for n in range(1, 5):
        hc = oracle_ngrams(hyp, n)
        total = sum(hc.values())
        if total == 0:
            continue
        rc = oracle_ngrams(ref, n)
        match = sum(min(v, rc[g]) for g, v in hc.items())
        log_sum += math.log((match or eps) / total)
        orders += 1
    if orders == 0 or not hyp or not ref:
        return 0.0
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1 - len(ref) / len(hyp))
    return 100.0 * bp * math.exp(log_sum / orders)


def oracle_chrf(pairs, beta=2.0):
    precisions, recalls = [], []
    for n in range(1, 7):
        match = hyp_total = ref_total = 0
        for hyp, ref in pairs:
            h = "".join(hyp.split())
            r = "".join(ref.split())
            hc = Counter(h[i : i + n] for i in range(len(h) - n + 1))
            rc = Counter(r[i : i + n] for i in range(len(r) - n + 1))
            hyp_total += sum(hc.values())
            ref_total += sum(rc.values())
            match += sum(min(v, rc[g]) for g, v in hc.items())
        if hyp_total == 0 and ref_total == 0:
            continue
        precisions.append(match / hyp_total if hyp_total else 0.0)
        recalls.append(match / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p == 0 and r == 0:
        return 0.0
    return 100.0 * (1 + beta**2) * p * r / (beta**2 * p + r)


# --- BLEU -------------------------------------------------------------------

def test_bleu_perfect_match_is_100():
    hyps = ["the cat sat on the mat today", "a quick brown fox jumps over it"]
    assert bleu4(hyps, hyps) == pytest.approx(100.0, abs=1e-9)


def test_bleu_no_shared_4gram_is_zero():
    assert bleu4(["a b c d e"], ["a x c y e"], tokenize="word") == 0.0


def test_bleu_clipped_counts_match_oracle():
    hyp = "the the the cat"
    ref = "the cat"
    got = bleu4([hyp], [ref], tokenize="word")
    want = oracle_corpus_bleu([(hyp.split(), ref.split())])
    assert got == pytest.approx(want, abs=1e-6)
    assert got == 0.0  # no 3-gram overlap, unsmoothed

    smoothed = sentence_bleu4(hyp, ref, tokenize="word")
    assert smoothed == pytest.approx(oracle_sentence_bleu(hyp.split(), ref.split()), abs=1e-9)
    assert 0.0 < smoothed < 1.0


def test_bleu_matches_oracle_on_random_corpus():
    rng = random.Random(5)
    hyps, refs = [], []
    for _ in range(30):
        ref = en_sentence(rng)
        hyp_tokens = tokens(ref, "word")
        if rng.random() < 0.7 and len(hyp_tokens) > 3:
            hyp_tokens = hyp_tokens[:-2]
        hyps.append(" ".join(hyp_tokens))
        refs.append(ref)
    got = bleu4(hyps, refs, tokenize="word")
    want = oracle_corpus_bleu(
        [(tokens(h, "word"), tokens(r, "word")) for h, r in zip(hyps, refs)]
    )
    assert got == pytest.approx(want, abs=1e-9)


def test_bleu_brevity_penalty_never_rewards_padding():
    hyps = ["the two sides agreed to strengthen cooperation"]
    refs = ["the two sides agreed to strengthen cooperation"]
    base = bleu4(hyps, refs)
    padded_refs = [refs[0] + " in the years ahead"]
    assert bleu4(hyps, padded_refs) <= base


def test_bleu_validation_errors():
    with pytest.raises(LengthMismatch):
        bleu4(["a"], ["a", "b"])
    with pytest.raises(EmptyCorpus):
        bleu4([], [])


# --- chrF --------------------------------------------------------------------

def test_chrf_identity_and_disjoint():
    texts = ["abcdef ghij", "你好世界", "xy"]
    assert chrf(texts, texts) == pytest.approx(100.0, abs=1e-9)
    assert chrf(["aaaa"], ["bbbb"]) == 0.0


def test_chrf_pinned_toy_case():
    # hyp "abcd" vs ref "abce": per-order P=R -> F = P
    # orders 1..4 give 3/4, 2/3, 1/2, 0; orders 5,6 absent from both sides
    want = 100.0 * (3 / 4 + 2 / 3 + 1 / 2 + 0.0) / 4
    got = chrf(["abcd"], ["abce"])
    assert got == pytest.approx(want, abs=1e-6)
    assert got == pytest.approx(oracle_chrf([("abcd", "abce")]), abs=1e-9)


def test_chrf_matches_oracle_on_random_corpus():
    rng = random.Random(9)
    pairs = []
    for _ in range(20):
        ref = en_sentence(rng)
        hyp = ref.replace("the", "a") if rng.random() < 0.5 else ref[: len(ref) // 2]
        pairs.append((hyp, ref))
    got = chrf([h for h, _ in pairs], [r for _, r in pairs])
    assert got == pytest.approx(oracle_chrf(pairs), abs=1e-9)


def test_chrf_whitespace_insensitive_within_tokens():
    assert sentence_chrf("ab cd", "abcd") == pytest.approx(100.0, abs=1e-9)


# --- ROUGE -------------------------------------------------------------------

def test_rouge_identity():
    texts = ["the cat sat on the mat", "dialogue and exchange matter"]
    for variant in ("R1", "R2", "RL"):
        assert rouge(texts, texts, variant) == pytest.approx(1.0, abs=1e-9)


def test_rouge_l_hand_case():
    # LCS("a b c", "a x c") = 2 -> P = R = 2/3 -> F1 = 2/3
    assert rouge(["a b c"], ["a x c"], "RL", tokenize="word") == pytest.approx(2 / 3)


def test_rouge_2_disjoint_bigrams():
    assert rouge(["a b c"], ["x a y b"], "R2", tokenize="word") == 0.0


def test_rouge_1_hand_case():
    # overlap {a, b} -> P = 2/3, R = 2/4, F1 = 2PR/(P+R)
    p, r = 2 / 3, 2 / 4
    want = 2 * p * r / (p + r)
    assert rouge(["a b z"], ["a b c d"], "R1", tokenize="word") == pytest.approx(want)


def test_rouge_l_symmetric_under_f1():
    a, b = "the two sides agreed", "the sides two agreed today"
    assert rouge([a], [b], "RL", tokenize="word") == pytest.approx(
        rouge([b], [a], "RL", tokenize="word")
    )


def test_rouge_unknown_variant():
    with pytest.raises(ValueError):
        rouge(["a"], ["a"], "R3")


def test_evaluate_needs_a_metric():
    with pytest.raises(ValueError, match="no metrics requested"):
        evaluate(["a"], ["a"], metrics=())


# --- tokenization and report --------------------------------------------------

def test_detect_mode():
    assert detect_mode(["你好世界", "外交部"]) == "char"
    assert detect_mode(["hello world"]) == "word"
    assert detect_mode(["你好 hello world wide web"]) == "word"


def reference_detect_mode(texts):
    """The per-character loop that ``detect_mode``'s two regexes replaced."""
    cjk = other = 0
    for text in texts:
        for ch in text:
            if _CJK_RE.match(ch):
                cjk += 1
            elif ch.isalnum():
                other += 1
    return "char" if cjk > other else "word"


def test_detect_mode_matches_per_character_reference():
    # a CJK character turns both probes to "char", an other alphanumeric
    # character turns both to "word", any other character only the second
    for cp in range(0x10000):
        ch = chr(cp)
        for text in (f"{ch}{ch}a", f"{ch}中", f" {ch}x{ch}字 "):
            assert detect_mode([text]) == reference_detect_mode([text]), hex(cp)
    pool = [chr(c) for r in ((0x20, 0x250), (0x2FF0, 0x3110), (0x4DB0, 0x4E10), (0x9FF0, 0xA010),
                             (0xF8F0, 0xFB10), (0x400, 0x460), (0x660, 0x670)) for c in range(*r)]
    pool += ["_", "²", "½", "Ⅻ", "　", "\U00020000", "\U0001D7CE"]
    rng = random.Random(11)
    for _ in range(5000):
        texts = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 12))) for _ in range(3)]
        assert detect_mode(texts) == reference_detect_mode(texts), repr(texts)


def test_tokens_modes():
    assert tokens("Hello, World", "word") == ["hello", "world"]
    assert tokens("你好 世界", "char") == ["你", "好", "世", "界"]


def test_corpus_scores_invariant_under_joint_permutation():
    rng = random.Random(13)
    refs = [en_sentence(rng) for _ in range(12)]
    hyps = [r.replace("the", "a") for r in refs]
    pairs = list(zip(hyps, refs))
    shuffled = pairs[::-1]
    for metric, kwargs in ((bleu4, {}), (chrf, {})):
        assert metric([h for h, _ in pairs], [r for _, r in pairs], **kwargs) == pytest.approx(
            metric([h for h, _ in shuffled], [r for _, r in shuffled], **kwargs)
        )
    assert rouge([h for h, _ in pairs], [r for _, r in pairs], "RL") == pytest.approx(
        rouge([h for h, _ in shuffled], [r for _, r in shuffled], "RL")
    )


def test_evaluate_report_shape():
    hyps = ["the cat sat", "hello world"]
    refs = ["the cat sat down", "hello there world"]
    report = evaluate(hyps, refs)
    assert isinstance(report, EvalReport)
    assert set(report.corpus) == {"bleu", "chrf", "rouge1", "rouge2", "rougeL"}
    for values in report.per_sentence.values():
        assert len(values) == 2
    assert report.tokenize_mode == "word"
    assert 0 <= report.corpus["bleu"] <= 100
    assert 0 <= report.corpus["chrf"] <= 100
    assert 0 <= report.corpus["rougeL"] <= 1


def test_evaluate_subset_and_unknown_metric():
    report = evaluate(["a b"], ["a b"], metrics=("bleu",))
    assert set(report.corpus) == {"bleu"}
    with pytest.raises(ValueError):
        evaluate(["a"], ["a"], metrics=("meteor",))


def test_evaluate_tokenizes_words_only_for_word_metrics(monkeypatch):
    hyps, refs = ["你好世界", "the cat sat"], ["你好 世界", "a cat sat"]
    full = evaluate(hyps, refs)
    calls = []
    token_pairs = afsp.metrics._token_pairs

    def spy(*args):
        calls.append(args)
        return token_pairs(*args)

    monkeypatch.setattr(afsp.metrics, "_token_pairs", spy)
    report = evaluate(hyps, refs, metrics=("chrf",))
    assert calls == []
    assert report.tokenize_mode == full.tokenize_mode
    assert report.corpus == {"chrf": full.corpus["chrf"]}
    assert report.per_sentence == {"chrf": full.per_sentence["chrf"]}
    for name in ("bleu", "rouge1", "rouge2", "rougeL"):
        report = evaluate(hyps, refs, metrics=(name,))
        assert len(calls) == 1
        calls.clear()
        assert report.corpus == {name: full.corpus[name]}


def test_evaluate_char_mode_for_cjk():
    report = evaluate(["你好世界"], ["你好世界"], metrics=("bleu", "chrf", "rougeL"))
    assert report.tokenize_mode == "char"
    assert report.corpus["bleu"] == pytest.approx(100.0, abs=1e-9)
    assert report.corpus["chrf"] == pytest.approx(100.0, abs=1e-9)
    assert report.corpus["rougeL"] == pytest.approx(1.0, abs=1e-9)


# --- properties over short zh/en strings --------------------------------------

# words and characters that share n-grams often, with spaces and punctuation
short_texts = st.lists(
    st.sampled_from(["the", "cat", "sat", "a", "mat", "双", "方", "合", "作", "，", "。", "!", " "]),
    max_size=10,
).map("".join)
nonblank_texts = short_texts.filter(lambda text: text.strip())
text_pairs = st.lists(st.tuples(short_texts, short_texts), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs=text_pairs, tokenize=st.sampled_from(["auto", "word", "char"]))
def test_bleu_and_chrf_lie_in_0_to_100(pairs, tokenize):
    hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
    assert 0.0 <= bleu4(hyps, refs, tokenize=tokenize) <= 100.0
    assert 0.0 <= chrf(hyps, refs) <= 100.0
    for h, r in pairs:
        assert 0.0 <= sentence_bleu4(h, r, tokenize=tokenize) <= 100.0
        assert 0.0 <= sentence_chrf(h, r) <= 100.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs=text_pairs, tokenize=st.sampled_from(["word", "char"]))
def test_rouge_1_and_2_are_symmetric(pairs, tokenize):
    hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
    for variant in ("R1", "R2"):
        assert rouge(hyps, refs, variant, tokenize=tokenize) == rouge(
            refs, hyps, variant, tokenize=tokenize
        )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=nonblank_texts)
def test_sentence_scored_against_itself_has_chrf_100(text):
    assert sentence_chrf(text, text) == 100.0
    assert chrf([text], [text]) == 100.0
