"""Every score from the shared n-gram statistics equals, bit for bit, the
earlier implementation that counted n-grams separately for each metric.

The reference functions below are that implementation, kept verbatim apart
from names: corpus and sentence BLEU, chrF, and ROUGE each build their own
n-gram counters, and `evaluate` calls them one metric at a time.
"""

import math
import random
from collections import Counter

import pytest

from afsp.metrics import (
    bleu4,
    chrf,
    detect_mode,
    evaluate,
    rouge,
    sentence_bleu4,
    sentence_chrf,
    tokens,
)

# --- reference implementation -------------------------------------------------

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0
SENT_BLEU_EPS = 1e-9


def ref_resolve_mode(tokenize, hyps, refs):
    return detect_mode(hyps + refs) if tokenize == "auto" else tokenize


def ref_ngram_counts(toks, n):
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


def ref_bleu4(hypotheses, references, tokenize="auto"):
    mode = ref_resolve_mode(tokenize, hypotheses, references)
    clipped = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        ht = tokens(hyp, mode)
        rt = tokens(ref, mode)
        hyp_len += len(ht)
        ref_len += len(rt)
        for n in range(1, BLEU_ORDER + 1):
            hc = ref_ngram_counts(ht, n)
            rc = ref_ngram_counts(rt, n)
            totals[n - 1] += sum(hc.values())
            clipped[n - 1] += sum(min(count, rc[gram]) for gram, count in hc.items())
    if hyp_len == 0:
        return 0.0
    if any(c == 0 for c in clipped) or any(t == 0 for t in totals):
        return 0.0
    log_precision = sum(math.log(c / t) for c, t in zip(clipped, totals)) / BLEU_ORDER
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def ref_sentence_bleu4(hypothesis, reference, tokenize="auto"):
    mode = ref_resolve_mode(tokenize, [hypothesis], [reference])
    ht = tokens(hypothesis, mode)
    rt = tokens(reference, mode)
    if not ht or not rt:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_ORDER + 1):
        hc = ref_ngram_counts(ht, n)
        total = sum(hc.values())
        if total == 0:
            continue
        rc = ref_ngram_counts(rt, n)
        match = sum(min(count, rc[gram]) for gram, count in hc.items())
        log_sum += math.log((match + SENT_BLEU_EPS) / total)
        orders += 1
    if orders == 0:
        return 0.0
    bp = 1.0 if len(ht) > len(rt) else math.exp(1.0 - len(rt) / len(ht))
    return 100.0 * bp * math.exp(log_sum / orders)


def ref_char_ngrams(text, n):
    chars = "".join(text.split())
    return Counter(chars[i : i + n] for i in range(len(chars) - n + 1))


def ref_chrf_from_pairs(pairs):
    precisions = []
    recalls = []
    for n in range(1, CHRF_ORDER + 1):
        match = 0
        hyp_total = 0
        ref_total = 0
        for hyp, ref in pairs:
            hc = ref_char_ngrams(hyp, n)
            rc = ref_char_ngrams(ref, n)
            hyp_total += sum(hc.values())
            ref_total += sum(rc.values())
            match += sum(min(count, rc[gram]) for gram, count in hc.items())
        if hyp_total == 0 and ref_total == 0:
            continue
        precisions.append(match / hyp_total if hyp_total else 0.0)
        recalls.append(match / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    beta_sq = CHRF_BETA**2
    if avg_p == 0.0 and avg_r == 0.0:
        return 0.0
    if beta_sq * avg_p + avg_r == 0.0:
        return 0.0
    return 100.0 * (1 + beta_sq) * avg_p * avg_r / (beta_sq * avg_p + avg_r)


def ref_f1(match, hyp_total, ref_total, beta=1.0):
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    p = match / hyp_total
    r = match / ref_total
    if p == 0.0 and r == 0.0:
        return 0.0
    beta_sq = beta**2
    return (1 + beta_sq) * p * r / (beta_sq * p + r)


def ref_lcs_length(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def ref_sentence_rouge(hypothesis, reference, variant, tokenize="auto"):
    mode = ref_resolve_mode(tokenize, [hypothesis], [reference])
    ht = tokens(hypothesis, mode)
    rt = tokens(reference, mode)
    if variant == "RL":
        return ref_f1(ref_lcs_length(ht, rt), len(ht), len(rt))
    n = 1 if variant == "R1" else 2
    hc = ref_ngram_counts(ht, n)
    rc = ref_ngram_counts(rt, n)
    match = sum(min(count, rc[gram]) for gram, count in hc.items())
    return ref_f1(match, sum(hc.values()), sum(rc.values()))


def ref_evaluate(hypotheses, references, tokenize="auto"):
    """(mode, corpus, per_sentence) with every metric."""
    mode = ref_resolve_mode(tokenize, hypotheses, references)
    pairs = list(zip(hypotheses, references))
    corpus = {
        "bleu": ref_bleu4(hypotheses, references, tokenize=mode),
        "chrf": ref_chrf_from_pairs(pairs),
    }
    per_sentence = {
        "bleu": [ref_sentence_bleu4(h, r, tokenize=mode) for h, r in pairs],
        "chrf": [ref_chrf_from_pairs([(h, r)]) for h, r in pairs],
    }
    for name, variant in (("rouge1", "R1"), ("rouge2", "R2"), ("rougeL", "RL")):
        per = [ref_sentence_rouge(h, r, variant, tokenize=mode) for h, r in pairs]
        corpus[name] = sum(per) / len(per)
        per_sentence[name] = per
    return mode, corpus, per_sentence


# --- random corpora -----------------------------------------------------------

_WORDS = ["the", "cat", "sat", "on", "a", "mat", "Dog", "runs", "fast", "x", "über", "café"]
_PUNCT = [".", ",", "!", "?", "...", "--", "«", "»", ";"]
_CJK = list("我们今天去学校他在家吃饭书很好看中文本日は雨です")
_SPACES = [" ", "  ", "\t", "　"]


def _sentence(rng: random.Random) -> str:
    shape = rng.random()
    if shape < 0.06:
        return rng.choice(["", " ", "\t "])
    if shape < 0.12:
        return rng.choice(_PUNCT) + rng.choice(["", " ", " " + rng.choice(_PUNCT)])
    if shape < 0.2:
        return rng.choice(_WORDS + _CJK)
    pools = rng.choice([(_WORDS,), (_CJK,), (_WORDS, _CJK), (_WORDS, _PUNCT), (_WORDS, _CJK, _PUNCT)])
    pieces = [rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 9))]
    if pools == (_CJK,) and rng.random() < 0.7:
        return "".join(pieces)
    return "".join(p + rng.choice(_SPACES if rng.random() < 0.2 else [" "]) for p in pieces).strip()


def _hypothesis(rng: random.Random, reference: str) -> str:
    if rng.random() < 0.2:
        return _sentence(rng)
    units = reference.split() if " " in reference else list(reference)
    out = []
    for unit in units:
        roll = rng.random()
        if roll < 0.1:
            continue
        out.append(rng.choice(_WORDS + _CJK + _PUNCT) if roll < 0.25 else unit)
        if roll > 0.95:
            out.append(unit)
    return (" " if " " in reference else "").join(out)


def _corpus(rng: random.Random) -> tuple[list[str], list[str]]:
    refs = [_sentence(rng) for _ in range(rng.randint(1, 4))]
    hyps = [_hypothesis(rng, r) for r in refs]
    return hyps, refs


@pytest.mark.parametrize("tokenize", ["auto", "word", "char"])
def test_scores_equal_reference_implementation(tokenize):
    rng = random.Random(f"metrics-{tokenize}")
    for _ in range(1000):
        hyps, refs = _corpus(rng)
        mode, corpus, per_sentence = ref_evaluate(hyps, refs, tokenize)
        report = evaluate(hyps, refs, tokenize=tokenize)
        assert report.tokenize_mode == mode
        assert report.corpus == corpus, (hyps, refs)
        assert report.per_sentence == per_sentence, (hyps, refs)
        assert bleu4(hyps, refs, tokenize=tokenize) == corpus["bleu"]
        assert chrf(hyps, refs) == corpus["chrf"]
        for name, variant in (("rouge1", "R1"), ("rouge2", "R2"), ("rougeL", "RL")):
            assert rouge(hyps, refs, variant, tokenize=tokenize) == corpus[name]
        for h, r in zip(hyps, refs):
            assert sentence_bleu4(h, r, tokenize=tokenize) == ref_sentence_bleu4(h, r, tokenize)
            assert sentence_chrf(h, r) == ref_chrf_from_pairs([(h, r)])


def test_random_corpora_reach_every_edge_case():
    """The generator above covers what the equality test promises."""
    rng = random.Random("metrics-auto")
    seen = Counter()
    for _ in range(1000):
        hyps, refs = _corpus(rng)
        scores = evaluate(hyps, refs)
        seen["nonzero corpus bleu"] += scores.corpus["bleu"] > 0
        for text in hyps + refs:
            words = tokens(text, "word")
            seen["no word tokens"] += not words
            seen["one token"] += len(words) == 1
            seen["punctuation only"] += bool(text.strip()) and not any(c.isalnum() for c in text)
            seen["cjk"] += any(c in _CJK for c in text)
            seen["mixed script"] += any(c in _CJK for c in text) and any(c.isascii() and c.isalpha() for c in text)
    for case in ("nonzero corpus bleu", "no word tokens", "one token", "punctuation only", "cjk", "mixed script"):
        assert seen[case] >= 20, (case, seen)
