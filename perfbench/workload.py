"""One run of one workload, in a process of its own.

    python3 perfbench/workload.py gen --workload W --seed S --work DIR
    python3 perfbench/workload.py offline --workload W --seed S --work DIR \\
        --index-reps A --model-reps B [--trace 0|1]
    python3 perfbench/workload.py run --workload W --seed S --seconds T \\
        --trace 0|1 --work DIR --workers N [--endpoint URL]

``gen`` writes the seeded inputs. ``offline`` rebuilds the program-made
artifacts from them, checks that they reload intact and prints its spans
and checks as one JSON line, then repeats the index stages
on request from stdin. ``run`` starts ``offline`` as a child, serves,
checks the outputs and prints one JSON object as its last line; the offline
stages run in a process of their own so that the serving process's peak
memory is that of loading and serving alone. All expect ``src`` of the
checkout on ``sys.path``; they are started by ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import urllib.request
from itertools import zip_longest
from pathlib import Path

from inputs import CORE_QUERIES, WorkloadInputs, generate
from spans import Recorder, Span, totals
from workloads import WORKLOADS

PROJECTION_SEED = 17
DEGRADE_SEED = 7  # with the seed-independent training pairs, every run trains the same reranker
DEGRADE_MAX_OPS = 2
DEGRADE_PAIRS = 20  # the first corpus pairs, fixed across seeds, feed the reranker
TRAIN_SEED = 3
K = 3
SETUP_REPS = 5
CHUNK = 10  # lines per single-caller chunk
BATCH = 16  # lines per translate_file batch
LATENCY_SAMPLES = 100  # at least, so that 10 lie beyond p90
LATENCY_SHARE = 0.5  # of the serving time; the rest goes to batch passes
ORACLE_ABS = 1e-6
OFFLINE_TIMEOUT_S = 150.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM, which exec resets)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "malloc_env": {k: os.environ.get(k) for k in ("MALLOC_MMAP_MAX_", "MALLOC_TRIM_THRESHOLD_")},
    }


class Checks:
    """Counts operations; a wrong answer is a failed operation, never a number."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"][: 20 - len(self.errors)]


def oracle_sample(files: WorkloadInputs, size: int) -> list[int]:
    """size core queries for the oracle gates: near duplicates, queries with
    out-of-vocabulary characters and plain queries in turn."""
    with open(files.candidates, encoding="utf-8") as fh:
        kinds = [json.loads(line)["kind"] for line, _ in zip(fh, range(CORE_QUERIES))]
    groups = [[i for i, k in enumerate(kinds) if k == kind] for kind in ("near", "oov", "plain")]
    in_turn = [i for row in zip_longest(*groups) for i in row if i is not None]
    return sorted(in_turn[:size])


class Endpoint:
    """The candidate source a pipeline talks to, plus its request counts."""

    def __init__(self, workload, files: WorkloadInputs, url: str | None):
        from afsp.llm_client import ChatCompletionsClient

        from endpoints import InProcessEndpoint, load_candidates

        self.url = url
        if workload.endpoint == "http":
            self.client = ChatCompletionsClient()
            self._inproc = None
        else:
            self._inproc = InProcessEndpoint(load_candidates(files.candidates))
            self.client = self._inproc

    def stats(self) -> dict:
        if self._inproc is not None:
            return self._inproc.stats()
        with urllib.request.urlopen(self.url.rsplit("/v1", 1)[0] + "/stats", timeout=10) as resp:
            return json.load(resp)


# --- offline stages -----------------------------------------------------------


def build_artifacts(files: WorkloadInputs, work: Path, rec: Recorder, reps: int):
    """ingest -> corpus save/load -> build_index + save_index, reps times.
    Returns the last in-memory corpus and index."""
    import afsp.corpus as corpus_mod
    from afsp.embedding import init_projections, load_table
    from afsp.retrieval import build_index, save_index

    table = load_table(files.table)
    proj = init_projections(table.dim, PROJECTION_SEED)
    corpus = index = None
    for _ in range(reps):
        corpus = index = None
        gc.collect()
        with rec.span("corpus.ingest"):
            corpus = corpus_mod.ingest(files.corpus_jsonl)
        with rec.span("corpus.save"):
            corpus_mod.save(corpus, work / "corpus.bin")
        with rec.span("corpus.load"):
            corpus = corpus_mod.load(work / "corpus.bin")
        with rec.span("retrieval.build_index"):
            index = build_index(corpus, table, proj)
        with rec.span("retrieval.save_index"):
            save_index(index, work / "index.bin")
    return corpus, index


def build_model(workload, files: WorkloadInputs, work: Path, subset, rec: Recorder, trace: bool, reps: int):
    """generate_dataset on subset -> train + save_model -> evaluate, reps
    times. Returns the last in-memory model."""
    from afsp.degeneration import enumerate_combinations, generate_dataset
    from afsp.embedding import load_table
    from afsp.metrics import evaluate
    from afsp.reranker import save_model, train

    table = load_table(files.table)
    hyps = files.eval_hyp.read_text(encoding="utf-8").splitlines()
    refs = files.eval_ref.read_text(encoding="utf-8").splitlines()
    model = None
    for _ in range(reps):
        with rec.span("degeneration.generate_dataset") as span:
            examples = generate_dataset(subset, max_size=DEGRADE_MAX_OPS, seed=DEGRADE_SEED, table=table)
        span.attrs["examples"] = len(examples)
        span.attrs["combinations"] = len(subset) * len(enumerate_combinations(DEGRADE_MAX_OPS))
        with rec.span("reranker.train"):
            model, _ = train(examples, epochs=workload.train_epochs, seed=TRAIN_SEED)
        with rec.span("reranker.save_model"):
            save_model(model, work / "model.bin")
        with rec.span("metrics.evaluate"):
            evaluate(hyps, refs)
        if trace:
            for name, names in (("bleu", ("bleu",)), ("chrf", ("chrf",)), ("rouge", ("rouge1", "rouge2", "rougeL"))):
                with rec.span(f"metrics.{name}"):
                    evaluate(hyps, refs, metrics=names)
    return model


class OfflineWorker:
    """The offline stages in a child process of its own. The child stays up
    after the first build, so that later index repetitions run in a warm
    process, as the first ones do."""

    def __init__(self, args, index_reps: int, model_reps: int, checks: Checks, trace: bool):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "offline", "--workload", args.workload,
            "--seed", str(args.seed), "--work", args.work, "--index-reps", str(index_reps),
            "--model-reps", str(model_reps), "--trace", str(int(trace)),
        ]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.checks = checks
        self.spans: list[Span] = []
        self._collect()

    def _collect(self) -> None:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"offline stages exited with {self.proc.wait()}")
        out = json.loads(line)
        self.checks.merge(out["checks"])
        self.spans += [Span(name, None, 0, ns, attrs=attrs) for name, ns, attrs in out["spans"]]

    def index_rep(self) -> None:
        """One more ingest, corpus save/load and index build/save."""
        self.proc.stdin.write("1\n")
        self.proc.stdin.flush()
        self._collect()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OFFLINE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# --- serving ------------------------------------------------------------------


def pipeline_config(workload, work: Path, files: WorkloadInputs, endpoint: Endpoint, workers: int):
    from afsp.llm_client import GenerationConfig
    from afsp.pipeline import PipelineConfig

    return PipelineConfig(
        table_path=str(files.table),
        index_path=str(work / "index.bin"),
        reranker_path=str(work / "model.bin"),
        projection_seed=PROJECTION_SEED,
        k=K,
        generation=GenerationConfig(
            endpoint=endpoint.url or "http://127.0.0.1:9/v1",
            n_candidates=workload.shape.candidates,
            timeout=10.0,
            retries=2,
            max_in_flight=workers,
        ),
    )


def install_wraps(rec: Recorder, endpoint: Endpoint, pipe=None) -> None:
    """Wrap each layer's public functions where the pipeline looks them up."""
    import afsp.pipeline
    import afsp.reranker
    import afsp.retrieval

    def count(key, fn):
        def on_result(span, args, result):
            span.attrs[key] = fn(args, result)

        return on_result

    rec.wrap(afsp.pipeline, "load_table", "embedding.load_table")
    rec.wrap(afsp.pipeline, "load_index", "retrieval.load_index")
    rec.wrap(afsp.pipeline, "load_model", "reranker.load_model")
    rec.wrap(afsp.pipeline, "retrieve_topk", "retrieval.retrieve_topk")
    rec.wrap(afsp.pipeline, "render_prompt", "prompting.render_prompt", count("chars", lambda a, r: len(r)))
    rec.wrap(afsp.pipeline, "rank", "reranker.rank", count("chars", lambda a, r: sum(map(len, a[1]))))
    rec.wrap(afsp.retrieval, "table_fingerprint", "retrieval.table_fingerprint")
    rec.wrap(afsp.retrieval, "embed_tokens", "embedding.embed_tokens", count("tokens", lambda a, r: len(r.tokens)))
    rec.wrap(afsp.reranker, "featurize", "reranker.featurize")
    rec.wrap(endpoint.client, "generate_candidates", "llm_client.generate", count("candidates", lambda a, r: len(r.candidates)))
    if pipe is not None:
        rec.wrap(pipe, "translate", "pipeline.translate")


class Serving:
    """Setup, single-caller and batch passes over one workload's queries."""

    def __init__(self, workload, files, work, endpoint, checks: Checks, workers: int):
        self.files = files
        self.work = work
        self.endpoint = endpoint
        self.checks = checks
        self.config = pipeline_config(workload, work, files, endpoint, workers)
        self.queries = files.queries.read_text(encoding="utf-8").splitlines()
        self.references = files.references.read_text(encoding="utf-8").splitlines()[:CORE_QUERIES]
        with open(files.candidates, encoding="utf-8") as fh:
            self.candidates = [set(json.loads(line)["candidates"]) for line in fh]
        # per query: (selected output, demo ids) of its first translation
        self.expected: list[tuple[str, tuple[str, ...]] | None] = [None] * len(self.queries)
        self.pipe = None
        self.setup_times: list[float] = []

    def _accept(self, i: int, best: str, demos, where: str) -> None:
        """Gate one output: one of its line's candidates and, with its demo
        ids, equal to every earlier output for the same line."""
        got = (best, tuple(demos))
        ok = best in self.candidates[i]
        if ok and self.expected[i] is None:
            self.expected[i] = got
        ok = ok and got == self.expected[i]
        self.checks.check(ok, f"{where}: line {i} output not a candidate or differs from an earlier pass")

    def core_outputs(self) -> list[str] | None:
        """Selected outputs of the core queries, None unless all were served."""
        core = self.expected[:CORE_QUERIES]
        return None if None in core else [best for best, _ in core]

    def setup(self, rec: Recorder, rep: int) -> None:
        """from_config until the first translation of query rep (one of the
        first SETUP_REPS, which only set-ups serve) returns; the new pipeline
        serves from then on."""
        from afsp.pipeline import TranslationPipeline

        self.pipe = None  # the previous pipeline is freed before the next loads
        gc.collect()
        with rec.span("pipeline.setup") as span:
            pipe = TranslationPipeline.from_config(self.config, client=self.endpoint.client)
            result = pipe.translate(self.queries[rep])
        self.setup_times.append(span.ms / 1000.0)
        self._accept(rep, result.best, result.demos_used, "setup")
        self.pipe = pipe

    def single_pass(self, lines: range) -> list[float]:
        """Closed loop, one caller: per-line latency in ms."""
        latencies = []
        translate = self.pipe.translate
        for i in lines:
            started = time.perf_counter_ns()
            try:
                result = translate(self.queries[i])
            except Exception as exc:  # a failed line is counted, not fatal
                latencies.append((time.perf_counter_ns() - started) / 1e6)
                self.checks.check(False, f"single: line {i} raised {exc!r}")
                continue
            latencies.append((time.perf_counter_ns() - started) / 1e6)
            self._accept(i, result.best, result.demos_used, "single")
        return latencies

    def batch_pass(self, start: int) -> float:
        """translate_file over BATCH queries from start, with an audit
        file for the demo ids; wall seconds."""
        lines = range(start, start + BATCH)
        src = self.work / "batch.src.txt"
        out = self.work / "batch.out.txt"
        audit = self.work / "batch.audit.jsonl"
        src.write_text("".join(self.queries[i] + "\n" for i in lines), encoding="utf-8")
        started = time.perf_counter()
        summary = self.pipe.translate_file(src, out, audit_path=audit)
        wall = time.perf_counter() - started
        outputs = out.read_text(encoding="utf-8").split("\n")
        with open(audit, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        self.checks.check(
            summary.failures == 0 and summary.count == len(records) == len(lines),
            f"batch: {summary.failures} of {summary.count} lines failed",
        )
        for i, best, record in zip(lines, outputs, records):
            same = record.get("input") == self.queries[i] and record.get("best") == best
            self.checks.check(same, f"batch: audit record of line {i} does not match its input and output")
            self._accept(i, best, record.get("demos", ()), "batch")
        return wall


def spread(*groups: list) -> list:
    """The items of all groups in one list, each group spread evenly over it."""
    placed = [((i + 1) / (len(g) + 1), item) for g in groups for i, item in enumerate(g)]
    return [item for _, item in sorted(placed, key=lambda p: p[0])]


def serve(serving: Serving, seconds: float, reps: list) -> tuple[list[float], list[float], int]:
    """Single-caller chunks of CHUNK lines and batch passes, alternated by
    the time each has used, until the single caller has LATENCY_SAMPLES
    samples and LATENCY_SHARE of seconds, and the batches at least one pass
    and the rest. Each chunk or batch takes the next queries not sent yet,
    so no query is translated twice; the loop ends early if they run out.
    The reps callables (set-ups, offline repetitions) run spread evenly
    between them, so that their medians span the whole run rather than one
    stretch of it. Returns per-line latencies (ms), per-batch wall times (s)
    and the number of queries served."""
    share = (seconds * LATENCY_SHARE, seconds * (1.0 - LATENCY_SHARE))
    latencies: list[float] = []
    walls: list[float] = []
    lat_s = batch_s = 0.0
    cursor = SETUP_REPS  # the set-ups served the queries before it
    done = 0
    while True:
        lat_needed = len(latencies) < LATENCY_SAMPLES or lat_s < share[0]
        batch_needed = not walls or batch_s < share[1]
        if not (lat_needed or batch_needed):
            break
        single = lat_needed and (lat_s <= batch_s or not batch_needed)
        size = CHUNK if single else BATCH
        if cursor + size > len(serving.queries):
            break
        started = time.perf_counter()
        if single:
            latencies += serving.single_pass(range(cursor, cursor + size))
            lat_s += time.perf_counter() - started
        else:
            walls.append(serving.batch_pass(cursor))
            batch_s += time.perf_counter() - started
        cursor += size
        progress = (min(len(latencies) / LATENCY_SAMPLES, lat_s / share[0], 1.0) + min(batch_s / share[1], 1.0)) / 2
        while done < len(reps) and progress >= (done + 1) / (len(reps) + 1):
            reps[done]()
            done += 1
    for rep in reps[done:]:
        rep()
    return latencies, walls, cursor


# --- correctness gates ------------------------------------------------------------


def oracle_gate(serving: Serving, checks: Checks, sample: list[int]) -> int:
    """Top-k ids and scores of the serving pipeline against a brute-force
    oracle over representations recomputed from corpus text with the public
    scalar scorers. Returns the corpus's multi-vector row count."""
    from afsp.corpus import ingest
    from afsp.embedding import dense_embed, embed_tokens, init_projections, load_table, multi_embed, sparse_embed
    from afsp.retrieval import retrieve_topk, score_dense, score_hybrid, score_multi, score_sparse

    pipe = serving.pipe
    weights = serving.config.weights
    got = {i: retrieve_topk(serving.queries[i], pipe.index, pipe.table, pipe.projections, weights, K) for i in sample}
    serving.pipe = pipe = None
    gc.collect()

    table = load_table(serving.files.table)
    proj = init_projections(table.dim, PROJECTION_SEED)
    reps = []
    ids = []
    for pair in ingest(serving.files.corpus_jsonl):
        emb = embed_tokens(table, pair.src_text)
        reps.append((dense_embed(emb), sparse_embed(emb, proj), multi_embed(emb, proj)))
        ids.append(pair.id)
    for i in sample:
        emb = embed_tokens(table, serving.queries[i])
        qd, qs, qm = dense_embed(emb), sparse_embed(emb, proj), multi_embed(emb, proj)
        scores = [
            score_hybrid(score_dense(qd, d), score_sparse(qs, s), score_multi(qm, m), weights)
            for d, s, m in reps
        ]
        want = sorted(range(len(scores)), key=lambda p: (-scores[p], p))[:K]
        by_id = dict(zip(ids, scores))
        top = got[i]
        served = serving.expected[i]
        ok = len(top) == len(want) and served is not None and tuple(r.pair.id for r in top) == served[1]
        for r, p in zip(top, want):
            # a different id is accepted only where the oracle itself ties
            ok = ok and abs(r.s_rank - scores[p]) <= ORACLE_ABS
            ok = ok and (r.pair.id == ids[p] or abs(by_id[r.pair.id] - scores[p]) <= ORACLE_ABS)
        checks.check(ok, f"oracle: query {i} top-{K} differs from the brute-force oracle")
    return sum(m.rows.shape[0] for _, _, m in reps)


def artifact_gate(files: WorkloadInputs, work: Path, index, model, checks: Checks, sample: list[int]) -> None:
    """The reloaded index and model answer exactly as the in-memory ones."""
    from afsp.embedding import init_projections, load_table
    from afsp.reranker import load_model
    from afsp.retrieval import Weights, load_index, retrieve_topk

    table = load_table(files.table)
    proj = init_projections(table.dim, PROJECTION_SEED)
    loaded = load_index(work / "index.bin")
    queries = files.queries.read_text(encoding="utf-8").splitlines()
    for i in sample:
        a = retrieve_topk(queries[i], index, table, proj, Weights(), K)
        b = retrieve_topk(queries[i], loaded, table, proj, Weights(), K)
        same = [(r.pair.id, r.s_rank) for r in a] == [(r.pair.id, r.s_rank) for r in b]
        checks.check(same, f"artifacts: loaded index answers query {i} differently")
    loaded_model = load_model(work / "model.bin")
    with open(files.candidates, encoding="utf-8") as fh:
        records = [json.loads(line) for line, _ in zip(fh, range(max(sample) + 1))]
    texts = [t for i in sample for t in records[i]["candidates"]]
    checks.check(
        [model.score(t) for t in texts] == [loaded_model.score(t) for t in texts],
        "artifacts: loaded model scores differ from the in-memory model",
    )


# --- metrics ------------------------------------------------------------------------


def _median_ms(spans, name: str) -> float:
    return statistics.median(s.ms for s in spans if s.name == name)


def clean_ratio(outputs: list[str], references: list[str]) -> float:
    """Share of lines whose selected output is the uncorrupted reference."""
    return sum(o == r for o, r in zip(outputs, references)) / len(references)


def end_to_end_metrics(offline_spans, setup_times, latencies, batch_walls, serving, outputs, rss) -> dict:
    from afsp.metrics import chrf

    med = lambda *names: sum(_median_ms(offline_spans, n) for n in names) / 1000.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "lines_per_s": (statistics.median(BATCH / w for w in batch_walls), "1/s"),
        "line_p50_ms": (_percentile(latencies, 0.5), "ms"),
        "line_p90_ms": (_percentile(latencies, 0.9), "ms"),
        "quality_chrf": (chrf(outputs, serving.references), "chrF"),
        "peak_rss_mb": (rss, "MB"),
        "index_build_s": (med("retrieval.build_index", "retrieval.save_index"), "s"),
    }


def per_layer_metrics(workload, outputs, references, offline_spans, setup_spans, single_spans, batch_spans, server, overhead, corpus_rows, workers, batch_wall, absent) -> dict:
    per_iter = lambda name: _median_ms(offline_spans, name)
    setup = totals(setup_spans)
    reps = max(1, setup["pipeline.setup"].calls)
    t = totals(single_spans)
    first_query = sum(s.ms for s in setup_spans if s.name == "retrieval.retrieve_topk")
    translate = t["pipeline.translate"]
    child_ms = sum(s.ms for s in single_spans if s.parent is not None and s.parent.name == "pipeline.translate")
    gen = t["llm_client.generate"]
    status = server["status"]
    requests = server["requests"]
    query_tokens = t["embedding.embed_tokens"].attrs["tokens"]
    busy = sum(s.ms for s in batch_spans if s.name == "pipeline.translate")
    degrade = next(s for s in offline_spans if s.name == "degeneration.generate_dataset")
    metrics = {
        "embedding.embed_tokens.calls": (t["embedding.embed_tokens"].calls, "count"),
        "embedding.embed_tokens.ms": (t["embedding.embed_tokens"].ms, "ms"),
        "embedding.query_tokens": (query_tokens, "count"),
        "embedding.load_table.ms": (setup["embedding.load_table"].ms / reps, "ms"),
        "retrieval.table_fingerprint.calls": (t["retrieval.table_fingerprint"].calls, "count"),
        "retrieval.table_fingerprint.ms": (t["retrieval.table_fingerprint"].ms, "ms"),
        "retrieval.retrieve_topk.calls": (t["retrieval.retrieve_topk"].calls, "count"),
        "retrieval.retrieve_topk.ms": (t["retrieval.retrieve_topk"].ms, "ms"),
        "retrieval.retrieve_topk.self_ms": (t["retrieval.retrieve_topk"].self_ms, "ms"),
        "retrieval.multi_gflop": (query_tokens * corpus_rows * workload.shape.dim * 2 / 1e9, "GFLOP"),
        "retrieval.first_query.ms": (first_query / reps, "ms"),
        "retrieval.build_index.ms": (per_iter("retrieval.build_index"), "ms"),
        "retrieval.save_index.ms": (per_iter("retrieval.save_index"), "ms"),
        "retrieval.load_index.ms": (setup["retrieval.load_index"].ms / reps, "ms"),
        "prompting.render_prompt.ms": (t["prompting.render_prompt"].ms, "ms"),
        "prompting.prompt_chars": (t["prompting.render_prompt"].attrs["chars"], "count"),
        "llm_client.generate.ms": (gen.ms, "ms"),
        "llm_client.server_busy.ms": (server["busy_ms"], "ms"),
        "llm_client.idle.ms": (gen.ms - server["busy_ms"], "ms"),
        "llm_client.requests": (requests, "count"),
        "llm_client.status_429": (status.get("429", 0), "count"),
        "llm_client.status_4xx": (sum(v for k, v in status.items() if k.startswith("4") and k != "429"), "count"),
        "llm_client.status_5xx": (sum(v for k, v in status.items() if k.startswith("5")), "count"),
        "llm_client.retries": (requests - gen.calls, "count"),
        "llm_client.success_ratio": (status.get("200", 0) / requests if requests else 0.0, "ratio"),
        "llm_client.candidates_returned": (gen.attrs["candidates"], "count"),
        "reranker.rank.calls": (t["reranker.rank"].calls, "count"),
        "reranker.rank.ms": (t["reranker.rank"].ms, "ms"),
        "reranker.rank.self_ms": (t["reranker.rank"].self_ms, "ms"),
        "reranker.featurize.calls": (t["reranker.featurize"].calls, "count"),
        "reranker.featurize.ms": (t["reranker.featurize"].ms, "ms"),
        "reranker.candidate_chars": (t["reranker.rank"].attrs["chars"], "count"),
        "reranker.selected_clean_ratio": (clean_ratio(outputs, references), "ratio"),
        "reranker.train.ms": (per_iter("reranker.train"), "ms"),
        "reranker.train.epoch_ms": (per_iter("reranker.train") / workload.train_epochs, "ms"),
        "reranker.save_model.ms": (per_iter("reranker.save_model"), "ms"),
        "reranker.load_model.ms": (setup["reranker.load_model"].ms / reps, "ms"),
        "degeneration.generate_dataset.ms": (per_iter("degeneration.generate_dataset"), "ms"),
        "degeneration.examples": (degrade.attrs["examples"], "count"),
        "degeneration.kept_ratio": (degrade.attrs["examples"] / degrade.attrs["combinations"], "ratio"),
        "corpus.ingest.ms": (per_iter("corpus.ingest"), "ms"),
        "corpus.save.ms": (per_iter("corpus.save"), "ms"),
        "corpus.load.ms": (per_iter("corpus.load"), "ms"),
        "metrics.evaluate.ms": (per_iter("metrics.evaluate"), "ms"),
        "metrics.bleu.ms": (per_iter("metrics.bleu"), "ms"),
        "metrics.chrf.ms": (per_iter("metrics.chrf"), "ms"),
        "metrics.rouge.ms": (per_iter("metrics.rouge"), "ms"),
        "pipeline.translate.ms": (translate.ms, "ms"),
        "pipeline.translate.self_ms": (translate.self_ms, "ms"),
        "pipeline.worker_busy_ratio": (busy / (batch_wall * 1000.0 * workers), "ratio"),
        "pipeline.span_coverage": (child_ms / translate.ms if translate.ms else 0.0, "ratio"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }
    # a metric whose wrapped function no longer exists is absent, not zero
    derived = {
        "embedding.load_table": ("embedding.load_table.ms",),
        "retrieval.load_index": ("retrieval.load_index.ms",),
        "reranker.load_model": ("reranker.load_model.ms",),
        "retrieval.retrieve_topk": ("retrieval.retrieve_topk.", "retrieval.first_query.ms"),
        "prompting.render_prompt": ("prompting.",),
        "reranker.rank": ("reranker.rank.", "reranker.candidate_chars"),
        "retrieval.table_fingerprint": ("retrieval.table_fingerprint.",),
        "embedding.embed_tokens": ("embedding.embed_tokens.", "embedding.query_tokens", "retrieval.multi_gflop"),
        "reranker.featurize": ("reranker.featurize.",),
        "llm_client.generate": ("llm_client.generate.ms", "llm_client.idle.ms", "llm_client.retries", "llm_client.candidates_returned"),
        "pipeline.translate": ("pipeline.",),
    }
    for name in absent:
        for prefix in derived.get(name, ()):
            for key in [k for k in metrics if k.startswith(prefix)]:
                del metrics[key]
    return metrics


# --- entry points -------------------------------------------------------------------


def cmd_gen(args) -> int:
    workload = WORKLOADS[args.workload]
    generate(workload.shape, args.seed, Path(args.work), fixed_pairs=DEGRADE_PAIRS)
    return 0


def cmd_offline(args) -> int:
    """The offline stages, then one more index build per line "N" (N
    repetitions) on stdin until it closes; spans go to stdout, one JSON
    line per request."""
    import afsp.corpus as corpus_mod

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    files = WorkloadInputs.in_dir(work)
    rec = Recorder()
    checks = Checks()

    def emit() -> None:
        spans = [[s.name, s.end_ns - s.start_ns, s.attrs] for s in rec.take()]
        print(json.dumps({"spans": spans, "checks": checks.as_dict()}), flush=True)

    corpus, index = build_artifacts(files, work, rec, args.index_reps)
    subset = corpus_mod.Corpus(list(corpus.pairs[:DEGRADE_PAIRS]))
    model = build_model(workload, files, work, subset, rec, bool(args.trace), args.model_reps)
    artifact_gate(files, work, index, model, checks, oracle_sample(files, workload.oracle_queries))
    emit()
    corpus = index = model = subset = None  # freed before the next build
    checks = Checks()
    for line in sys.stdin:
        build_artifacts(files, work, rec, int(line))
        emit()
    return 0


def cmd_run(args) -> int:
    import afsp

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    files = WorkloadInputs.in_dir(work)
    trace = bool(args.trace)
    workers = args.workers
    checks = Checks()
    rec = Recorder()
    report = {"machine": machine_facts(), "afsp": afsp.__file__, "workers": workers}

    phase_started = time.perf_counter()
    phases = report["phase_s"] = {}
    # a traced run repeats every offline stage up front; an untraced run
    # builds everything once, as the model stages feed only per-layer
    # metrics, and repeats the index stages in between serving
    if trace:
        offline = OfflineWorker(args, workload.index_reps, workload.model_reps, checks, trace=True)
        offline.close()
    else:
        offline = OfflineWorker(args, 1, 1, checks, trace=False)
    phases["offline"] = time.perf_counter() - phase_started
    endpoint = Endpoint(workload, files, args.endpoint)
    serving = Serving(workload, files, work, endpoint, checks, workers)

    if trace:
        install_wraps(rec, endpoint)
        for rep in range(SETUP_REPS):
            serving.setup(rec, rep)
        setup_spans = rec.take()
        # untraced first half, traced whole, untraced second half: the
        # untraced passes cover the same queries as the traced one, and a
        # drift over the run weighs on both sides alike
        rec.unwrap_all()
        half = CORE_QUERIES // 2
        started = time.perf_counter()
        serving.single_pass(range(half))
        untraced = time.perf_counter() - started
        install_wraps(rec, endpoint, serving.pipe)
        before = endpoint.stats()
        started = time.perf_counter()
        latencies = serving.single_pass(range(CORE_QUERIES))
        traced = time.perf_counter() - started
        after = endpoint.stats()
        single_spans = rec.take()
        rec.unwrap_all()
        started = time.perf_counter()
        serving.single_pass(range(half, CORE_QUERIES))
        untraced += time.perf_counter() - started
        install_wraps(rec, endpoint, serving.pipe)
        batch_wall = serving.batch_pass(CORE_QUERIES)
        batch_spans = rec.take()
        rec.unwrap_all()
        served = CORE_QUERIES + BATCH
        server = {
            "requests": after["requests"] - before["requests"],
            "status": {k: v - before["status"].get(k, 0) for k, v in after["status"].items()},
            "busy_ms": after["busy_ms"] - before["busy_ms"],
        }
    else:
        serving.setup(rec, 0)
        reps = spread(
            [lambda rep=rep: serving.setup(rec, rep) for rep in range(1, SETUP_REPS)],
            [offline.index_rep] * (workload.index_reps - 1),
        )
        latencies, batch_walls, served = serve(serving, args.seconds, reps)
        offline.close()
        checks.check(
            len(latencies) >= LATENCY_SAMPLES and bool(batch_walls),
            f"queries ran out after {len(latencies)} single-caller samples and {len(batch_walls)} batches",
        )
    rss = peak_rss_mb()
    phases["serving"] = time.perf_counter() - phase_started - phases["offline"]
    outputs = serving.core_outputs()
    complete = checks.check(outputs is not None, "not every core query produced an output")
    report["latency_samples"] = len(latencies)
    report["queries_served"] = f"{served} of {len(serving.queries)}"
    report["output_digest"] = _digest([f"{e[0]}\t{' '.join(e[1])}" for e in serving.expected[:CORE_QUERIES] if e])
    report["setup_times_s"] = serving.setup_times
    report["selected_clean_ratio"] = clean_ratio(outputs, serving.references) if complete else None
    corpus_rows = oracle_gate(serving, checks, oracle_sample(files, workload.oracle_queries))
    phases["oracle"] = time.perf_counter() - phase_started - phases["offline"] - phases["serving"]

    metrics = {}
    if trace:
        report["absent"] = sorted(rec.absent)
    if checks.failed:
        pass  # a wrong answer gives no numbers
    elif trace:
        metrics = per_layer_metrics(
            workload, outputs, serving.references, offline.spans, setup_spans, single_spans, batch_spans,
            server, traced / untraced - 1.0, corpus_rows, workers, batch_wall, rec.absent,
        )
    else:
        metrics = end_to_end_metrics(offline.spans, serving.setup_times, latencies, batch_walls, serving, outputs, rss)
    report["checks"] = checks.as_dict()
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("gen", "offline", "run"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--work", required=True)
        if name != "gen":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        if name == "offline":
            p.add_argument("--index-reps", type=int, required=True)
            p.add_argument("--model-reps", type=int, required=True)
        if name == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--workers", type=int, required=True)
            p.add_argument("--endpoint")
    args = parser.parse_args(argv)
    return {"gen": cmd_gen, "offline": cmd_offline, "run": cmd_run}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
