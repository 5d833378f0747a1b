"""Reference-based translation metrics: corpus BLEU-4, chrF, ROUGE-1/2/L.

Tokenization is whitespace+punctuation word splitting with lowercasing for
alphabetic targets and character-level for CJK targets; "auto" picks by the
majority script of the data. BLEU and chrF are reported on a 0-100 scale,
ROUGE on 0-1 (the CLI multiplies ROUGE by 100 for display).

Corpus BLEU is unsmoothed; per-sentence BLEU values in reports use
add-epsilon (1e-9) smoothing on zero n-gram matches over the orders the
sentence actually has. chrF uses character n-grams of order 1-6 with beta=2,
aggregated over the corpus by total counts; orders absent from both sides
are excluded from the average. ROUGE corpus scores are the mean of
per-sentence F1.

METEOR and COMET-style metrics are not implemented here; they need external
lexical resources or pretrained models.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .embedding import _CJK, _CJK_RE, _WORD_RE
from .errors import EmptyCorpus, LengthMismatch

# one character for which str.isalnum() holds, outside the CJK ranges: \w
# matches exactly the alphanumeric characters and "_"
_ALNUM_RE = re.compile(rf"[^\W_{_CJK}]")

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0
SENT_BLEU_EPS = 1e-9

ROUGE_VARIANTS = ("R1", "R2", "RL")


@dataclass
class EvalReport:
    corpus: dict[str, float] = field(default_factory=dict)
    per_sentence: dict[str, list[float]] = field(default_factory=dict)
    tokenize_mode: str = "word"
    notes: tuple[str, ...] = ()


def detect_mode(texts: list[str]) -> str:
    """'char' when CJK characters outnumber other alphanumeric characters."""
    cjk = sum(len(_CJK_RE.findall(text)) for text in texts)
    other = sum(len(_ALNUM_RE.findall(text)) for text in texts)
    return "char" if cjk > other else "word"


def _resolve_mode(tokenize: str, hyps: list[str], refs: list[str]) -> str:
    if tokenize == "auto":
        return detect_mode(hyps + refs)
    if tokenize not in ("word", "char"):
        raise ValueError(f"unknown tokenize mode {tokenize!r}")
    return tokenize


def tokens(text: str, mode: str) -> list[str]:
    if mode == "char":
        return [c for c in text if not c.isspace()]
    return _WORD_RE.findall(text.lower())


def _check(hyps: list[str], refs: list[str]) -> None:
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("no sentence pairs to score")


def _ngram_counts(toks: list[str], n: int) -> Counter:
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


def bleu4(hypotheses: list[str], references: list[str], tokenize: str = "auto") -> float:
    """Corpus BLEU with orders 1-4, geometric mean, brevity penalty,
    no smoothing. Range 0-100."""
    _check(hypotheses, references)
    mode = _resolve_mode(tokenize, hypotheses, references)
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
            hc = _ngram_counts(ht, n)
            rc = _ngram_counts(rt, n)
            totals[n - 1] += sum(hc.values())
            clipped[n - 1] += sum(min(count, rc[gram]) for gram, count in hc.items())
    if hyp_len == 0:
        return 0.0
    if any(c == 0 for c in clipped) or any(t == 0 for t in totals):
        return 0.0
    log_precision = sum(math.log(c / t) for c, t in zip(clipped, totals)) / BLEU_ORDER
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def sentence_bleu4(hypothesis: str, reference: str, tokenize: str = "auto") -> float:
    """Smoothed single-sentence BLEU for per-sentence reporting.

    Zero-match orders get an epsilon numerator; orders longer than the
    hypothesis are skipped.
    """
    mode = _resolve_mode(tokenize, [hypothesis], [reference])
    ht = tokens(hypothesis, mode)
    rt = tokens(reference, mode)
    if not ht or not rt:
        return 0.0
    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_ORDER + 1):
        hc = _ngram_counts(ht, n)
        total = sum(hc.values())
        if total == 0:
            continue
        rc = _ngram_counts(rt, n)
        match = sum(min(count, rc[gram]) for gram, count in hc.items())
        log_sum += math.log((match + SENT_BLEU_EPS) / total)
        orders += 1
    if orders == 0:
        return 0.0
    bp = 1.0 if len(ht) > len(rt) else math.exp(1.0 - len(rt) / len(ht))
    return 100.0 * bp * math.exp(log_sum / orders)


def _char_ngrams(text: str, n: int) -> Counter:
    chars = "".join(text.split())
    return Counter(chars[i : i + n] for i in range(len(chars) - n + 1))


def _chrf_from_pairs(pairs: list[tuple[str, str]]) -> float:
    precisions = []
    recalls = []
    for n in range(1, CHRF_ORDER + 1):
        match = 0
        hyp_total = 0
        ref_total = 0
        for hyp, ref in pairs:
            hc = _char_ngrams(hyp, n)
            rc = _char_ngrams(ref, n)
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


def chrf(hypotheses: list[str], references: list[str]) -> float:
    """Character n-gram F-score (orders 1-6, beta=2), corpus-aggregated by
    total counts. Range 0-100."""
    _check(hypotheses, references)
    return _chrf_from_pairs(list(zip(hypotheses, references)))


def sentence_chrf(hypothesis: str, reference: str) -> float:
    return _chrf_from_pairs([(hypothesis, reference)])


def _f1(match: float, hyp_total: float, ref_total: float, beta: float = 1.0) -> float:
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    p = match / hyp_total
    r = match / ref_total
    if p == 0.0 and r == 0.0:
        return 0.0
    beta_sq = beta**2
    return (1 + beta_sq) * p * r / (beta_sq * p + r)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def sentence_rouge(hypothesis: str, reference: str, variant: str, tokenize: str = "auto") -> float:
    mode = _resolve_mode(tokenize, [hypothesis], [reference])
    ht = tokens(hypothesis, mode)
    rt = tokens(reference, mode)
    if variant == "RL":
        return _f1(_lcs_length(ht, rt), len(ht), len(rt))
    n = 1 if variant == "R1" else 2
    hc = _ngram_counts(ht, n)
    rc = _ngram_counts(rt, n)
    match = sum(min(count, rc[gram]) for gram, count in hc.items())
    return _f1(match, sum(hc.values()), sum(rc.values()))


def rouge(
    hypotheses: list[str],
    references: list[str],
    variant: str,
    tokenize: str = "auto",
) -> float:
    """Mean per-sentence F1: unigram (R1), bigram (R2), or LCS (RL).
    Range 0-1."""
    if variant not in ROUGE_VARIANTS:
        raise ValueError(f"variant must be one of {ROUGE_VARIANTS}, got {variant!r}")
    _check(hypotheses, references)
    mode = _resolve_mode(tokenize, hypotheses, references)
    scores = [
        sentence_rouge(h, r, variant, tokenize=mode)
        for h, r in zip(hypotheses, references)
    ]
    return sum(scores) / len(scores)


_METRIC_NAMES = ("bleu", "chrf", "rouge1", "rouge2", "rougeL")


def evaluate(
    hypotheses: list[str],
    references: list[str],
    metrics: tuple[str, ...] = _METRIC_NAMES,
    tokenize: str = "auto",
) -> EvalReport:
    """Corpus and per-sentence values for the requested metrics."""
    _check(hypotheses, references)
    for name in metrics:
        if name not in _METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r} (choose from {_METRIC_NAMES})")
    mode = _resolve_mode(tokenize, hypotheses, references)
    report = EvalReport(
        tokenize_mode=mode,
        notes=(
            "per-sentence bleu uses add-epsilon smoothing; corpus bleu is unsmoothed",
            "meteor and comet-style metrics are not implemented (external resources)",
        ),
    )
    pairs = list(zip(hypotheses, references))
    if "bleu" in metrics:
        report.corpus["bleu"] = bleu4(hypotheses, references, tokenize=mode)
        report.per_sentence["bleu"] = [
            sentence_bleu4(h, r, tokenize=mode) for h, r in pairs
        ]
    if "chrf" in metrics:
        report.corpus["chrf"] = chrf(hypotheses, references)
        report.per_sentence["chrf"] = [sentence_chrf(h, r) for h, r in pairs]
    for name, variant in (("rouge1", "R1"), ("rouge2", "R2"), ("rougeL", "RL")):
        if name in metrics:
            per = [sentence_rouge(h, r, variant, tokenize=mode) for h, r in pairs]
            report.corpus[name] = sum(per) / len(per)
            report.per_sentence[name] = per
    return report
