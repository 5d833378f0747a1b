"""Print a digest of the retrieval results of a source tree on perfbench's
seeded inputs: the ids and the bits of the four scores of each query's top
k, per workload, with raw and normalized fusion, each query alone and in
blocks of 16.

Two source trees that print the same lines retrieve the same results bit
for bit, which every change to retrieval must keep. The inputs come from
this checkout's ``perfbench/inputs.py``, whatever tree is digested, so two
trees are compared on the same inputs:

    python tools/retrieval_digest.py --src src > change.txt
    git worktree add --detach ../parent HEAD~1
    python tools/retrieval_digest.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

    python tools/retrieval_digest.py [--src DIR] [--queries N] [--seed S]

Only numpy and the standard library are used.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_BLOCK = 16


def digest(workload: str, seed: int, queries: int, work: Path) -> list[str]:
    """One line per (fusion, blocking) of the workload: its name, the
    fusion and blocking, and the first 16 hex digits of a SHA-256 over each
    query's top k, id and the four scores' float64 bits."""
    from afsp.corpus import ingest
    from afsp.embedding import init_projections, load_table
    from afsp.retrieval import Weights, build_index, retrieve_many
    from inputs import generate
    from workload import DEGRADE_PAIRS, K, PROJECTION_SEED
    from workloads import WORKLOADS

    files = generate(WORKLOADS[workload].shape, seed, work, fixed_pairs=DEGRADE_PAIRS)
    table = load_table(files.table)
    proj = init_projections(table.dim, PROJECTION_SEED)
    index = build_index(ingest(files.corpus_jsonl), table, proj)
    texts = files.queries.read_text(encoding="utf-8").splitlines()[:queries]
    lines = []
    for fusion, normalize in (("raw", False), ("normalized", True)):
        for blocking, step in (("lone", 1), (f"blocks-of-{_BLOCK}", _BLOCK)):
            h = hashlib.sha256()
            for a in range(0, len(texts), step):
                for top in retrieve_many(texts[a : a + step], index, table, proj, Weights(), K, normalize):
                    # a query that cannot be embedded holds its error
                    for d in top if isinstance(top, list) else ():
                        scores = (d.s_dense, d.s_sparse, d.s_multi, d.s_rank)
                        h.update(" ".join([d.pair.id] + [s.hex() for s in scores]).encode() + b"\n")
                    h.update(f"{type(top).__name__}\n".encode())
            lines.append(f"{workload} {fusion} {blocking} {len(texts)} {h.hexdigest()[:16]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(_ROOT / "src"), help="the source tree to digest")
    parser.add_argument("--queries", type=int, default=400, help="queries per workload")
    parser.add_argument("--seed", type=int, default=1, help="perfbench's input seed")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(_ROOT / "perfbench")]
    import afsp

    if not Path(afsp.__file__).resolve().is_relative_to(src):
        print(f"afsp was imported from {afsp.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    for workload in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as work:
            for line in digest(workload, args.seed, args.queries, Path(work)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
