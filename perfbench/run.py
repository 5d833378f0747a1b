"""afsp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is imported
from ``src/`` of that checkout and nowhere else. The run generates seeded
inputs, rebuilds every artifact with the code under test, measures, checks
the outputs, prints a readable report and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. It exits 1 if
any correctness gate fails and 2 if the checkout holds no program.
Workloads, metrics and predictions are listed in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    """Pin BLAS to one thread per worker, so that BLAS threads x workers <=
    nproc, and keep freed memory in the process's own heap (glibc: no mmap,
    no trim), so that a repeated set-up reuses it instead of faulting fresh
    pages in, whose cost on a VM follows the host's load rather than the
    program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["MALLOC_MMAP_MAX_"] = "0"
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    return env


def start_stub(candidates: Path, latency_ms: float, env: dict) -> tuple[subprocess.Popen, str]:
    stub = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "endpoints.py"), "--candidates", str(candidates), "--latency-ms", str(latency_ms)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = stub.stdout.readline()
    if not line.startswith("PORT "):
        stub.kill()
        stub.wait()
        raise RuntimeError("stub endpoint did not start")
    return stub, f"http://127.0.0.1:{int(line.split()[1])}/v1"


def run_group(cmd: list[str], env: dict, timeout: float, stdout=None) -> subprocess.CompletedProcess:
    """Run cmd in a process group of its own; if it times out or this process
    is interrupted, end the whole group, the workload's own children too."""
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def stop(proc: subprocess.Popen | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def print_report(workload, args, report: dict, result: dict) -> None:
    m = report["machine"]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"  why: {workload.why}")
    print(
        f"machine: nproc {m['nproc']} (affinity {m['affinity']}), python {m['python']}, "
        f"numpy {m['numpy']}, blas {m['blas']}, workers {report['workers']}, "
        f"thread env {m['thread_env']}, malloc env {m['malloc_env']}"
    )
    print(f"program: {report['afsp']}")
    checks = report["checks"]
    ratio = checks["failed"] / checks["attempted"] if checks["attempted"] else 0.0
    print(f"checks: {checks['attempted']} attempted, {checks['failed']} failed (failed_ratio {ratio:.4f})")
    for error in checks["errors"]:
        print(f"  FAILED {error}")
    print(
        f"latency samples: {report['latency_samples']}; queries served {report['queries_served']}; "
        f"output digest {report['output_digest']}; "
        f"selected_clean_ratio {report['selected_clean_ratio']}"
    )
    print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in report['setup_times_s'])}")
    print(f"phase wall times (s): {', '.join(f'{k} {v:.1f}' for k, v in report['phase_s'].items())}")
    if report.get("absent"):
        print(f"absent (not wrapped, not reported): {', '.join(report['absent'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afsp" / "__init__.py").is_file():
        print(f"no afsp sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    remaining = lambda: max(1.0, TIME_LIMIT_S - (time.monotonic() - started))
    workload = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    workers = max(1, min(workload.max_workers, nproc))
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    script = str(BENCH_DIR / "workload.py")
    common = ["--workload", workload.name, "--seed", str(args.seed), "--work", str(work)]
    stub = None
    try:
        gen = run_group([sys.executable, script, "gen", *common], env, remaining())
        if gen.returncode != 0:
            raise RuntimeError(f"input generator exited with {gen.returncode}")
        cmd = [
            sys.executable, script, "run", *common,
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workers", str(workers),
        ]
        if workload.endpoint == "http":
            stub, url = start_stub(work / "candidates.jsonl", workload.latency_ms, env)
            cmd += ["--endpoint", url]
        proc = run_group(cmd, env, remaining(), stdout=subprocess.PIPE)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop(stub)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # other runs still use it
            pass

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stdout, end="")
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    print_report(workload, args, report, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
