"""Command-line interface: every pipeline stage as a subcommand.

Settings resolve as flags > config file > defaults. Exit codes: 0 success,
2 validation error, 3 external-service failure. A command whose output
path names one of its inputs exits 2 before it writes, and so does one
asked for more memory than the machine has.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import corpus as corpus_mod
from . import degeneration, metrics, reranker
from . import retrieval as retrieval_mod
from .embedding import init_projections, load_table
from .errors import (
    AfspError,
    AllCandidatesEmpty,
    MalformedResponse,
    NetworkFailure,
    RateLimited,
    ScriptMiss,
    StageError,
    check_outputs,
)
from .llm_client import ChatCompletionsClient, EndpointTranslator, GenerationConfig, MockClient
from .pipeline import (
    PipelineConfig,
    TranslationPipeline,
    apply_sections,
    audit_record,
    load_config,
    load_retrieval_stack,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SERVICE = 3

_SERVICE_ERRORS = (NetworkFailure, RateLimited, MalformedResponse, AllCandidatesEmpty, ScriptMiss)


def _parse_alphas(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _base_config(args) -> PipelineConfig:
    """The config file (or the defaults) with the flags given applied as
    settings sections, all checked before any artifact loads."""
    flags = vars(args)
    given = {
        "paths": {"index": args.index, "table": args.embeddings, "reranker": flags.get("reranker")},
        "seeds": {"projection": args.seed},
        "retrieval": {"k": args.k, "alphas": args.alphas, "normalize_scores": args.normalize_scores},
        "generation": {key: flags.get(key) for key in ("endpoint", "model", "n_candidates")},
    }
    sections = {n: {k: v for k, v in s.items() if v is not None} for n, s in given.items()}
    return apply_sections(load_config(args.config) if args.config else PipelineConfig(), sections)


def cmd_ingest(args) -> int:
    check_outputs({"--input": args.input}, {"--out": args.out})
    loaded = corpus_mod.ingest(args.input, format=args.format)
    corpus_mod.save(loaded, args.out)
    print(
        json.dumps(
            {
                "pairs": len(loaded),
                "src_lang": loaded.src_lang,
                "tgt_lang": loaded.tgt_lang,
                "out": str(args.out),
            }
        )
    )
    return EXIT_OK


def cmd_index(args) -> int:
    check_outputs({"--corpus": args.corpus, "--embeddings": args.embeddings}, {"--out": args.out})
    loaded = corpus_mod.load(args.corpus)
    table = load_table(args.embeddings)
    proj = init_projections(table.dim, args.seed)
    index = retrieval_mod.build_index(loaded, table, proj)
    retrieval_mod.save_index(index, args.out)
    print(json.dumps({"entries": len(index), "out": str(args.out)}))
    return EXIT_OK


def cmd_retrieve(args) -> int:
    cfg = _base_config(args)
    index, table, proj = load_retrieval_stack(cfg)
    scored = retrieval_mod.retrieve_topk(
        args.query, index, table, proj, cfg.weights, cfg.k,
        normalize_scores=cfg.normalize_scores,
    )
    print(
        json.dumps(
            [
                {
                    "id": s.pair.id,
                    "src": s.pair.src_text,
                    "tgt": s.pair.tgt_text,
                    "s_dense": s.s_dense,
                    "s_sparse": s.s_sparse,
                    "s_multi": s.s_multi,
                    "s_rank": s.s_rank,
                }
                for s in scored
            ],
            ensure_ascii=False,
            allow_nan=False,
        )
    )
    return EXIT_OK


def cmd_prompt(args) -> int:
    cfg = _base_config(args)
    pipeline = TranslationPipeline(*load_retrieval_stack(cfg), config=cfg, client=None)
    print(pipeline.build_prompt(args.query))
    return EXIT_OK


def cmd_degrade(args) -> int:
    inputs = {"--corpus": args.corpus, "--embeddings": args.embeddings, "--synonyms": args.synonyms}
    check_outputs(inputs, {"--out": args.out})
    loaded = corpus_mod.load(args.corpus)
    table = load_table(args.embeddings) if args.embeddings else None
    synonyms = degeneration.load_synonyms(args.synonyms) if args.synonyms else None
    with ChatCompletionsClient() as client:
        if args.translator_endpoint:
            translator = EndpointTranslator(
                GenerationConfig(endpoint=args.translator_endpoint, model=args.model or "default"),
                client,
            )
        else:
            translator = degeneration.MockBackTranslator(args.seed)
        examples = degeneration.generate_dataset(
            loaded,
            max_size=args.max_ops,
            seed=args.seed,
            translator=translator,
            table=table,
            synonyms=synonyms,
        )
    degeneration.save_examples(examples, args.out)
    print(json.dumps({"examples": len(examples), "out": str(args.out)}))
    return EXIT_OK


def cmd_train_reranker(args) -> int:
    check_outputs({"--data": args.data}, {"--out": args.out})
    dataset = degeneration.load_examples(args.data)
    model, report = reranker.train(
        dataset,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        feature_dim=args.feature_dim,
        hash_seed=args.hash_seed,
    )
    reranker.save_model(model, args.out)
    print(
        json.dumps(
            {
                "examples": len(dataset),
                "initial_mse": report.epoch_mse[0],
                "final_mse": report.epoch_mse[-1],
                "fingerprint": report.fingerprint,
                "out": str(args.out),
            }
        )
    )
    return EXIT_OK


def _mock_script(path: str) -> dict[str, list[str]]:
    """The --mock-script file: a JSON object mapping prompt fingerprints to
    lists of candidate strings."""
    try:
        script = json.loads("".join(corpus_mod.read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(script, dict) or not all(
        isinstance(c, list) and all(isinstance(t, str) for t in c) for c in script.values()
    ):
        raise ValueError(f"{path}: a mock script maps prompt fingerprints to lists of strings")
    return script


def cmd_translate(args) -> int:
    cfg = _base_config(args)
    if args.text is None and not (args.input and args.out):
        raise ValueError("translate needs --text, or both --input and --out")
    inputs = {
        "--config": args.config,
        "the index": cfg.index_path,
        "the embedding table": cfg.table_path,
        "the reranker": cfg.reranker_path,
        "--mock-script": args.mock_script,
        "--input": args.input,
    }
    check_outputs(inputs, {"--out": args.out, "--audit": args.audit})
    client = None
    if args.mock_script:
        client = MockClient(_mock_script(args.mock_script))
    with TranslationPipeline.from_config(cfg, client=client) as pipeline:
        if args.text is not None:
            result = pipeline.translate(args.text)
            print(result.best)
            if args.audit:
                with open(args.audit, "w", encoding="utf-8") as fh:
                    fh.write(audit_record(args.text, result))
            return EXIT_OK
        summary = pipeline.translate_file(args.input, args.out, audit_path=args.audit)
    print(
        json.dumps(
            {
                "count": summary.count,
                "failures": summary.failures,
                "wall_time": round(summary.wall_time, 3),
                "out": str(args.out),
            }
        )
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    hyps, refs = (
        [line.rstrip("\n") for line in corpus_mod.read_lines(path)] for path in (args.hyp, args.ref)
    )
    requested = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    report = metrics.evaluate(hyps, refs, metrics=requested, tokenize=args.tokenize)
    # ROUGE is computed on [0, 1] and displayed x100 like the other metrics
    display = {
        name: value * 100.0 if name.startswith("rouge") else value
        for name, value in report.corpus.items()
    }
    print(
        json.dumps(
            {
                "sentences": len(hyps),
                "tokenize": report.tokenize_mode,
                "corpus": display,
                "notes": list(report.notes),
            }
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afsp",
        description="Adaptive few-shot translation prompting pipeline",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a parallel corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="precompute demonstration representations")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--seed", type=int, default=0, help="projection seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    def add_config_flags(p):
        p.add_argument("--config")
        p.add_argument("--index")
        p.add_argument("--embeddings")
        p.add_argument("--seed", type=int, default=None, help="projection seed")
        p.add_argument("--k", type=int, default=None)
        p.add_argument(
            "--alphas", type=_parse_alphas, help="comma-separated fusion weights, e.g. 0.4,0.4,0.2"
        )
        p.add_argument("--normalize-scores", action="store_true", default=None)

    p = sub.add_parser("retrieve", help="top-k demonstrations for a query")
    add_config_flags(p)
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("prompt", help="print the rendered prompt for a query")
    add_config_flags(p)
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("degrade", help="build the reranker training set")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", help="embedding table for token replacement")
    p.add_argument("--max-ops", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--translator-endpoint", help="chat endpoint for real back-translation")
    p.add_argument("--model", help="model name for --translator-endpoint")
    p.add_argument("--synonyms", help="token TAB synonym... TSV overriding Replace")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("train-reranker", help="train the quality scorer")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-dim", type=int, default=reranker.DEFAULT_FEATURE_DIM)
    p.add_argument("--hash-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_reranker)

    p = sub.add_parser("translate", help="translate a sentence or a file")
    add_config_flags(p)
    p.add_argument("--text", help="translate one sentence to stdout")
    p.add_argument("--input", help="file with one source sentence per line")
    p.add_argument("--out", help="output file, one translation per line")
    p.add_argument("--audit", help="write per-line audit JSONL here")
    p.add_argument("--reranker")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--n-candidates", type=int, default=None)
    p.add_argument("--mock-script", help="JSON {prompt fingerprint: [candidates]}")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metrics", default="bleu,chrf,rouge1,rouge2,rougeL")
    p.add_argument("--tokenize", choices=("auto", "word", "char"), default="auto")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, _SERVICE_ERRORS):
            return EXIT_SERVICE
        return EXIT_VALIDATION
    except _SERVICE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except (AfspError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # a size asked for that this machine cannot hold, such as a huge
        # --feature-dim
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
