"""Stand-in candidate endpoints.

Both stand-ins key candidate lists by the input sentence parsed out of the
prompt they receive, so the benchmark never renders a prompt itself (which
would warm any prompt or query cache the program may grow).

- :class:`InProcessEndpoint` answers at once through ``MockClient``.
- ``python3 perfbench/endpoints.py --candidates FILE --latency-ms N`` serves
  ``POST /v1/chat/completions`` on 127.0.0.1 with a fixed service latency and
  a deterministic fault schedule, and ``GET /stats`` with its request counts
  by status and its summed service time. It prints ``PORT <n>`` once ready.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# One query in every FAULT_EVERY faults on its first attempt; the retry
# always succeeds, so no line fails. The share (4%) stays far below 10% so
# faulted lines sit beyond the p90 latency.
FAULT_EVERY = 25


def input_sentence(prompt: str) -> str:
    """The input sentence of a rendered prompt: the template ends with
    ``<src> text: <input>`` followed by one ``<tgt> translation:`` line."""
    lines = prompt.rsplit("\n", 2)
    if len(lines) < 3 or " text: " not in lines[-2]:
        raise ValueError("prompt does not end with an input line")
    return lines[-2].split(" text: ", 1)[1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fault_schedule(inputs: list[str]) -> dict[str, int]:
    """In each block of FAULT_EVERY consecutive queries, the one whose input
    sentence hashes lowest faults: 429 in even blocks, 503 in odd ones. Any
    run of 100 queries thus meets exactly two of each."""
    blocks = [inputs[i : i + FAULT_EVERY] for i in range(0, len(inputs), FAULT_EVERY)]
    return {min(block, key=_sha): 503 if b % 2 else 429 for b, block in enumerate(blocks)}


def load_candidates(path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as fh:
        return {rec["input"]: rec["candidates"] for rec in map(json.loads, fh)}


class InProcessEndpoint:
    """Answers instantly; counts requests and its own service time."""

    def __init__(self, candidates: dict[str, list[str]]):
        self.candidates = candidates
        self._lock = threading.Lock()
        self.requests = 0
        self.busy_ns = 0

    def generate_candidates(self, prompt, cfg):
        from afsp.errors import ScriptMiss
        from afsp.llm_client import MockClient, fingerprint

        started = time.perf_counter_ns()
        try:
            found = self.candidates.get(input_sentence(prompt))
        except ValueError:
            found = None
        with self._lock:
            self.requests += 1
            self.busy_ns += time.perf_counter_ns() - started
        if found is None:
            raise ScriptMiss("stand-in endpoint has no candidates for this input")
        return MockClient({fingerprint(prompt): found}).generate_candidates(prompt, cfg)

    def stats(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "status": {"200": self.requests}, "busy_ms": self.busy_ns / 1e6}


class _Stub:
    def __init__(self, candidates: dict[str, list[str]], latency_s: float):
        self.candidates = candidates
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.faults = fault_schedule(list(candidates))
        self.retry_due: set[str] = set()
        self.status: dict[str, int] = {}
        self.busy_ns = 0

    def fault(self, text: str, prompt: str) -> int | None:
        """429, 503 or None for a request of input sentence text. A
        scheduled input's first attempt faults and its retry succeeds, so
        every pass over the same prompts meets the same faults."""
        code = self.faults.get(text)
        key = _sha(prompt)
        with self.lock:
            if key in self.retry_due:
                self.retry_due.discard(key)
                return None
            if code is not None:
                self.retry_due.add(key)
            return code

    def record(self, code: int, started_ns: int) -> None:
        with self.lock:
            self.status[str(code)] = self.status.get(str(code), 0) + 1
            self.busy_ns += time.perf_counter_ns() - started_ns

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": sum(self.status.values()),
                "status": dict(self.status),
                "busy_ms": self.busy_ns / 1e6,
            }


def _handler(stub: _Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def _send(self, code: int, payload: dict, headers=()):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, stub.stats())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            started = time.perf_counter_ns()
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            prompt = body["messages"][-1]["content"]
            try:
                text = input_sentence(prompt)
            except ValueError:
                text = None
            found = stub.candidates.get(text)
            code = 400 if found is None else stub.fault(text, prompt) or 200
            if code == 200:
                time.sleep(stub.latency_s)
                choices = [
                    {"index": i, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
                    for i, text in enumerate(found[: int(body.get("n", 1))])
                ]
                self._send(200, {"choices": choices})
            elif code == 429:
                self._send(429, {"error": "rate limited"}, headers=[("Retry-After", "0")])
            else:
                self._send(code, {"error": "stub fault" if code == 503 else "unknown input"})
            stub.record(code, started)

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--candidates", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)
    stub = _Stub(load_candidates(args.candidates), args.latency_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(stub))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
