"""End-to-end translation flow: retrieve -> prompt -> generate -> rerank.

A loaded pipeline holds read-only artifacts (retrieval index, embedding
table, projections, reranker model) plus a candidate-generation client, and
translates one sentence or a file of sentences. Configuration comes from a
YAML file with flat per-module sections; CLI flags override file values,
which override defaults.

Any error a stage raises is wrapped in StageError with a stage label
(retrieval / prompt / generation / rerank) so batch runs stay debuggable; in
a batch it fails its own line only. A file is translated block by block,
one stage per thread: the calling thread retrieves each block in one scoring
pass and reranks it in one ``rank_many`` pass, while a pool of workers only
prompts and generates, one task per line, each handing its result back
through its future. With everything seeded and a mock client, a translation
run is fully deterministic.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import yaml

from . import retrieval
from .corpus import read_lines
from .embedding import EmbeddingTable, ProjectionSet, init_projections, load_table
from .errors import AfspError, StageError, check_outputs, check_seed, check_type
from .llm_client import ChatCompletionsClient, GenerationConfig
from .prompting import lang_display_name, render_prompt
from .reranker import QualityScorer, load_model, rank, rank_many
from .retrieval import (
    RetrievalIndex,
    ScoredDemo,
    Weights,
    load_index,
    retrieve_many,
    retrieve_topk,
)

logger = logging.getLogger(__name__)

# lines per retrieval block of translate_file, shared among the workers: the
# one block-size decision, as a block is one multi-vector product
_BLOCK_LINES = 16

# a line break in a completion: translate_file writes each as one space
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class PipelineConfig:
    """Artifact paths plus per-stage settings, each checked for its type and
    range when built; defaults follow the standard setup (fusion weights
    0.4/0.4/0.2, three demonstrations). ``k = 0`` renders a zero-shot
    prompt."""

    table_path: str | os.PathLike | None = None
    index_path: str | os.PathLike | None = None
    reranker_path: str | os.PathLike | None = None
    weights: Weights = Weights()
    k: int = 3
    normalize_scores: bool = False
    projection_seed: int = 0
    lang_names: dict[str, str] = field(default_factory=dict)
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self):
        for name in ("table_path", "index_path", "reranker_path"):
            check_type(getattr(self, name), name, "a path or None", str, os.PathLike, type(None))
        check_type(self.weights, "weights", "a Weights", Weights)
        check_type(self.k, "k", "an integer", int)
        check_type(self.normalize_scores, "normalize_scores", "true or false", bool)
        check_type(self.projection_seed, "projection_seed", "an integer", int)
        check_type(self.generation, "generation", "a GenerationConfig", GenerationConfig)
        check_type(self.lang_names, "lang_names", "a mapping", dict)
        for code, name in self.lang_names.items():
            check_type(code, "a lang_names code", 'a string (quote a code such as "no")', str)
            check_type(name, f"lang_names.{code}", "a string", str)
        if self.k < 0:
            raise ValueError(f"k must be >= 0 (0 is zero-shot), got {self.k}")
        check_seed(self.projection_seed, "projection seed")


# the keys each config section accepts; None accepts any key
_SECTION_KEYS = {
    "paths": {"table", "index", "reranker"},
    "retrieval": {"alphas", "k", "normalize_scores"},
    "seeds": {"projection"},
    "lang_names": None,
    "generation": {f.name for f in fields(GenerationConfig)},
}


def _section_fields(config: PipelineConfig, name: str, section: dict) -> dict:
    """The PipelineConfig fields one settings section sets; the config
    objects check the values."""
    if name == "paths":
        return {f"{key}_path": value for key, value in section.items()}
    if name == "retrieval":
        out = dict(section)
        if "alphas" in out:
            alphas = out.pop("alphas")
            if not isinstance(alphas, list) or len(alphas) != 3:
                raise ValueError("alphas must be a list of exactly 3 numbers")
            out["weights"] = Weights(*alphas)
        return out
    if name == "seeds":
        return {"projection_seed": section["projection"]} if section else {}
    if name == "lang_names":
        return {"lang_names": section}
    return {"generation": replace(config.generation, **section)}


def apply_sections(config: PipelineConfig, sections: dict) -> PipelineConfig:
    """``config`` with the config file's sections applied, as the file and
    the CLI flags give them. An unknown section or key, or a value of the
    wrong type or range, raises ValueError naming its section."""
    unknown = set(sections) - set(_SECTION_KEYS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown, key=str)}")
    for name, section in sections.items():
        known = _SECTION_KEYS[name]
        section = {} if section is None else section
        if not isinstance(section, dict):
            raise ValueError(f"config section {name} must be a mapping")
        unknown = set(section) - known if known is not None else set()
        if unknown:
            raise ValueError(f"unknown {name} settings: {sorted(unknown, key=str)}")
        # each section is applied on its own, so the config's own checks
        # name the section that failed them
        try:
            config = replace(config, **_section_fields(config, name, section))
        except ValueError as exc:
            raise ValueError(f"config section {name}: {exc}") from exc
    return config


def load_config(path: str | Path) -> PipelineConfig:
    """The defaults with a YAML file's sections (paths, retrieval, seeds,
    lang_names, generation) applied. Invalid YAML or settings raise
    ValueError; a file that is not UTF-8 raises InputNotUtf8."""
    try:
        raw = yaml.safe_load("".join(read_lines(path)))
    except yaml.YAMLError as exc:
        raise ValueError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, (dict, type(None))):
        raise ValueError(f"config {path} must be a mapping of sections")
    return apply_sections(PipelineConfig(), raw or {})


@dataclass(frozen=True)
class TranslationResult:
    best: str
    candidates: tuple[tuple[str, float | None], ...]
    demos_used: tuple[str, ...]


@dataclass
class BatchSummary:
    count: int = 0
    failures: int = 0
    wall_time: float = 0.0


def load_retrieval_stack(
    config: PipelineConfig,
) -> tuple[RetrievalIndex, EmbeddingTable, ProjectionSet]:
    """The index, table and projections named in the config, the index
    bound to the pair (:meth:`RetrievalIndex.bind`): a table or projection
    seed other than the index's raises FingerprintMismatch here, not at the
    first query. The pair is hashed on a second thread while the index
    loads, as hashlib releases the GIL while it hashes."""
    if not config.table_path or not config.index_path:
        raise ValueError("config must name an embedding table and an index")
    table = load_table(config.table_path)
    projections = init_projections(table.dim, config.projection_seed)
    with ThreadPoolExecutor(max_workers=1) as pool:
        # looked up on its module, so a wrapper put there sees the call
        fingerprint = pool.submit(retrieval.table_fingerprint, table, projections)
        index = load_index(config.index_path)
        index.bind(table, projections, fingerprint.result())
    return index, table, projections


class TranslationPipeline:
    """Translate with retrieved demonstrations and reranked candidates.

    A pipeline built by :meth:`from_config` without a client opens its own
    and closes it in ``close()``, which ``with`` calls on exit; a client
    passed in stays the caller's to close.
    """

    def __init__(
        self,
        index: RetrievalIndex,
        table: EmbeddingTable,
        projections: ProjectionSet,
        config: PipelineConfig,
        client,
        scorer: QualityScorer | None = None,
    ):
        self.index = index
        self.table = table
        self.projections = projections
        self.config = config
        self.client = client
        self.scorer = scorer
        self.src_lang_name = lang_display_name(index.corpus.src_lang, config.lang_names)
        self.tgt_lang_name = lang_display_name(index.corpus.tgt_lang, config.lang_names)
        self._owned_client: ChatCompletionsClient | None = None

    @classmethod
    def from_config(cls, config: PipelineConfig, client=None) -> "TranslationPipeline":
        """Load all artifacts named in the config from disk."""
        index, table, projections = load_retrieval_stack(config)
        scorer = load_model(config.reranker_path) if config.reranker_path else None
        owned = client is None
        pipeline = cls(
            index=index,
            table=table,
            projections=projections,
            config=config,
            client=ChatCompletionsClient() if owned else client,
            scorer=scorer,
        )
        if owned:
            pipeline._owned_client = pipeline.client
        return pipeline

    def close(self) -> None:
        if self._owned_client is not None:
            self._owned_client.close()

    def __enter__(self) -> "TranslationPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _retrieve(self, text: str) -> tuple[tuple[tuple[str, str], ...], tuple[str, ...]]:
        if self.config.k < 1:
            return (), ()
        with _stage("retrieval"):
            scored = retrieve_topk(
                text,
                self.index,
                self.table,
                self.projections,
                self.config.weights,
                self.config.k,
                normalize_scores=self.config.normalize_scores,
            )
        return _demos(scored)

    def _retrieve_block(self, lines: list[str]) -> list[tuple | StageError]:
        """Each line's demos and demo ids, or its retrieval failure; an
        error that fails the whole block fails each of its lines."""
        if self.config.k < 1:
            return [((), ())] * len(lines)
        try:
            results = retrieve_many(
                lines,
                self.index,
                self.table,
                self.projections,
                self.config.weights,
                self.config.k,
                normalize_scores=self.config.normalize_scores,
            )
        except Exception as exc:
            logger.exception("retrieval failed for a block of %d lines", len(lines))
            return [StageError("retrieval", exc) for _ in lines]
        return [
            StageError("retrieval", r) if isinstance(r, AfspError) else _demos(r)
            for r in results
        ]

    def build_prompt(self, text: str) -> str:
        """The exact prompt translate() would send for this input."""
        demos, _ = self._retrieve(text)
        return self._render(text, demos)

    def _render(self, text: str, demos: tuple[tuple[str, str], ...]) -> str:
        with _stage("prompt"):
            return render_prompt(self.src_lang_name, self.tgt_lang_name, text, demos)

    def translate(self, text: str) -> TranslationResult:
        """Best candidate plus the full scored list and demo provenance.

        With n_candidates == 1 the reranker is bypassed and the sole
        candidate is returned directly (its score slot is None). Any error
        is raised as a StageError labelled with the stage that failed.
        """
        self._check_scorer()
        demos, demo_ids = self._retrieve(text)
        generated = self._generate(text, demos, demo_ids)
        if isinstance(generated, TranslationResult):
            return generated
        with _stage("rerank"):
            return _ranked(generated, rank(self.scorer, generated), demo_ids)

    def _generate(
        self, text: str, demos: tuple[tuple[str, str], ...], demo_ids: tuple[str, ...]
    ) -> TranslationResult | list[str]:
        """Prompt and generate for one input whose demos are retrieved: the
        candidates to rank, or with n_candidates == 1 the result."""
        prompt = self._render(text, demos)
        with _stage("generation"):
            candidate_set = self.client.generate_candidates(prompt, self.config.generation)
            candidates = list(candidate_set.candidates)
            if self.config.generation.n_candidates == 1:
                return TranslationResult(
                    best=candidates[0],
                    candidates=((candidates[0], None),),
                    demos_used=demo_ids,
                )
            return candidates

    def _check_scorer(self) -> None:
        """Ranking candidates needs a scorer: checked before any work."""
        if self.scorer is None and self.config.generation.n_candidates > 1:
            with _stage("rerank"):
                raise ValueError("no reranker model configured; set n_candidates=1 to skip reranking")

    def _rank_block(
        self, generated: list[TranslationResult | list[str] | StageError], retrieved: list
    ) -> list[TranslationResult | StageError]:
        """Each line's result from its generation: the block's candidate
        lists are ranked in one :func:`rank_many` pass, and a list that
        cannot be ranked fails its line alone in the rerank stage."""
        to_rank = [i for i, g in enumerate(generated) if isinstance(g, list)]
        ranked = rank_many(self.scorer, [generated[i] for i in to_rank])
        results = list(generated)
        for i, r in zip(to_rank, ranked):
            results[i] = (
                StageError("rerank", r)
                if isinstance(r, Exception)
                else _ranked(generated[i], r, retrieved[i][1])
            )
        return results

    def _generate_line(
        self, line: str, retrieved: tuple | StageError
    ) -> TranslationResult | list[str] | StageError:
        """A worker's task: prompt and generate for one retrieved line, and
        return its candidates, its result or the StageError that failed it."""
        if isinstance(retrieved, StageError):
            return retrieved
        try:
            return self._generate(line, *retrieved)
        except StageError as exc:
            return exc

    def translate_file(
        self,
        input_path: str | Path,
        output_path: str | Path,
        audit_path: str | Path | None = None,
    ) -> BatchSummary:
        """One translation per input line, order preserved; a line that
        fails in any stage gives an empty output line and an audit error
        record, counts as a failure, and the batch carries on.

        The input is read in blocks of ``max(1, 16 // max_in_flight)``
        lines. The calling thread retrieves a block in one pass
        (:func:`retrieve_many`) and submits each line's prompt and
        generation to ``max_in_flight`` workers as one task, whose future
        holds the line's candidates or the error that failed it. When it
        comes to write a block, it waits for the block's futures and ranks
        the block in one :func:`rank_many` pass while the workers generate
        the next block. At most two blocks are in flight, and a worker hands
        back its line's result only through the future.

        Each line break in a completion (CR LF, CR or LF) is written as one
        space, so output line n translates input line n; the audit record
        keeps the text as generated.

        A run that needs a scorer and has none, input that is not UTF-8, or
        two of the input, output and audit paths that name one file, raises
        before any output file is opened.
        """
        started = time.monotonic()
        outputs = {"the output": output_path, "the audit": audit_path}
        check_outputs({"the input": input_path}, outputs)
        self._check_scorer()
        # input that is not UTF-8 fails here, before any output is touched
        for _ in read_lines(input_path):
            pass
        workers = self.config.generation.max_in_flight
        block = max(1, _BLOCK_LINES // workers)
        summary = BatchSummary()
        pending: deque[tuple[list[str], list, list[Future]]] = deque()
        audit = open(audit_path, "w", encoding="utf-8") if audit_path else nullcontext()
        with (
            closing(read_lines(input_path)) as in_lines,
            audit as audit_fh,
            open(output_path, "w", encoding="utf-8") as out_fh,
            ThreadPoolExecutor(max_workers=workers) as pool,
        ):

            def write_next() -> None:
                lines, retrieved, futures = pending.popleft()
                generated = [future.result() for future in futures]
                for line, result in zip(lines, self._rank_block(generated, retrieved)):
                    summary.count += 1
                    if isinstance(result, StageError):
                        summary.failures += 1
                        logger.error("line failed: %s", result)
                        out_fh.write("\n")
                    else:
                        out_fh.write(_LINE_BREAK.sub(" ", result.best) + "\n")
                    if audit_fh:
                        audit_fh.write(audit_record(line, result))
                        audit_fh.flush()
                    out_fh.flush()

            while lines := [line.rstrip("\n") for line in islice(in_lines, block)]:
                retrieved = self._retrieve_block(lines)
                futures = [pool.submit(self._generate_line, *args) for args in zip(lines, retrieved)]
                pending.append((lines, retrieved, futures))
                while len(pending) > 1:
                    write_next()
            while pending:
                write_next()
        summary.wall_time = time.monotonic() - started
        return summary


@contextmanager
def _stage(name: str):
    """Raise any error from the block as a StageError labelled ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def _ranked(
    candidates: list[str], ranked: list[tuple[int, float]], demo_ids: tuple[str, ...]
) -> TranslationResult:
    ordered = tuple((candidates[i], score) for i, score in ranked)
    return TranslationResult(best=ordered[0][0], candidates=ordered, demos_used=demo_ids)


def _demos(scored: list[ScoredDemo]) -> tuple[tuple[tuple[str, str], ...], tuple[str, ...]]:
    """The (source, target) demonstrations and their pair ids."""
    demos = tuple((s.pair.src_text, s.pair.tgt_text) for s in scored)
    return demos, tuple(s.pair.id for s in scored)


def audit_record(line: str, result: TranslationResult | StageError) -> str:
    """The audit JSON line for one input: its demos, scored candidates and
    pick, or the error that failed it."""
    if isinstance(result, StageError):
        record = {"input": line, "error": str(result)}
    else:
        record = {
            "input": line,
            "demos": list(result.demos_used),
            "candidates": [{"text": t, "score": s} for t, s in result.candidates],
            "best": result.best,
        }
    return json.dumps(record, ensure_ascii=False) + "\n"
