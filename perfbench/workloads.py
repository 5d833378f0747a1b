"""The benchmark's workloads and why each one was chosen."""

from __future__ import annotations

from dataclasses import dataclass

from inputs import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    endpoint: str  # "inproc": answers at once in-process; "http": loopback stub
    max_workers: int  # translate_file's max_in_flight, capped at nproc
    train_epochs: int
    oracle_queries: int
    index_reps: int  # times ingest, corpus save/load and index build/save run
    model_reps: int  # times degrade, train/save and evaluate run in a traced run (once otherwise)
    latency_ms: float = 0.0  # stub service time per successful request


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large-corpus",
            why=(
                "20k demos with V=32k, H=256 and 4 short candidates answered in-process: "
                "retrieval is nearly all of line time, so index and scan changes show"
            ),
            shape=Shape(
                demos=20_000, src_chars=6_000, tgt_words=26_000, dim=256,
                sentences_per_text=1, candidates=4, eval_lines=800,
                src_len_median=8.0,
            ),
            endpoint="inproc",
            # one scan at a time: two concurrent scans of the ~330 MB float64
            # corpus matrix measure the host's memory bus, which neighbours share
            max_workers=1,
            train_epochs=40,
            oracle_queries=3,
            index_reps=3,
            model_reps=3,
        ),
        Workload(
            name="many-candidates-http",
            why=(
                "1k demos, 30 multi-sentence candidates over loopback HTTP with 429/503 faults: "
                "the reranker dominates CPU and client retries run for real"
            ),
            shape=Shape(
                demos=1_000, src_chars=3_000, tgt_words=5_000, dim=128,
                sentences_per_text=3, candidates=30, eval_lines=100,
            ),
            endpoint="http",
            max_workers=4,
            train_epochs=10,
            oracle_queries=12,
            index_reps=15,
            model_reps=5,
            latency_ms=40.0,
        ),
    )
}
