import gc
import json
import threading
import warnings
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from afsp.cli import main
from afsp.corpus import save
from afsp.embedding import save_table
from afsp.errors import (
    AllCandidatesEmpty,
    MalformedResponse,
    NetworkFailure,
    RateLimited,
    ScriptMiss,
)
from afsp.llm_client import (
    ChatCompletionsClient,
    EndpointTranslator,
    GenerationConfig,
    MockClient,
    fingerprint,
)
from afsp.prompting import render_prompt
from helpers import corpus_table, synthetic_corpus


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers /chat/completions from the server's queue of behaviours."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        behaviour = (
            self.server.behaviours.pop(0)
            if self.server.behaviours
            else {"kind": "echo"}
        )
        kind = behaviour.get("kind", "echo")
        if kind == "status":
            self.send_response(behaviour["code"])
            for name, value in behaviour.get("headers", {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(behaviour.get("body", b""))
            return
        if kind == "raw":
            payload = behaviour["payload"]
        else:
            n = body.get("n", 1)
            contents = behaviour.get("contents") or [
                f"candidate {i}" for i in range(n)
            ]
            payload = {
                "choices": [
                    {"index": i, "message": {"role": "assistant", "content": c}}
                    for i, c in enumerate(contents)
                ]
            }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    httpd.requests = []
    httpd.behaviours = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        thread.join()
        httpd.server_close()


def endpoint(httpd) -> str:
    return f"http://127.0.0.1:{httpd.server_address[1]}/v1"


def cfg(httpd, **kwargs) -> GenerationConfig:
    defaults = dict(endpoint=endpoint(httpd), model="test", timeout=5.0, retries=1)
    defaults.update(kwargs)
    return GenerationConfig(**defaults)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(n_candidates=0)
    with pytest.raises(ValueError):
        GenerationConfig(temperature=-1)
    with pytest.raises(ValueError):
        GenerationConfig(top_p=0.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("retries", -1, "retries must be >= 0"),
        ("timeout", 0.0, "timeout must be > 0"),
        ("timeout", -5.0, "timeout must be > 0"),
        ("timeout", float("nan"), "timeout must be > 0"),
        ("max_tokens", 0, "max_tokens must be >= 1"),
        ("max_in_flight", 0, "max_in_flight must be >= 1"),
        ("timeout", float("inf"), "timeout must be > 0 and finite"),
        ("timeout", True, "timeout must be a finite number"),
        ("temperature", True, "temperature must be a finite number"),
        ("temperature", float("inf"), "temperature must be a finite number"),
        ("top_p", "0.9", "top_p must be a finite number"),
        ("n_candidates", "3", "n_candidates must be an integer"),
        ("n_candidates", 2.0, "n_candidates must be an integer"),
        ("top_k", True, "top_k must be an integer"),
        ("endpoint", 5, "endpoint must be a string"),
        ("model", None, "model must be a string"),
    ],
)
def test_generation_config_rejects_bad_limits(field, value, message):
    with pytest.raises(ValueError, match=message):
        GenerationConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        replace(GenerationConfig(), **{field: value})


def test_generation_config_accepts_smallest_limits():
    config = GenerationConfig(retries=0, timeout=0.01, max_tokens=1, max_in_flight=1)
    assert (config.retries, config.max_tokens, config.max_in_flight) == (0, 1, 1)


def test_multi_choice_single_request(server):
    config = cfg(server, n_candidates=30)
    result = ChatCompletionsClient().generate_candidates("translate this", config)
    assert len(result.candidates) == 30
    assert len(server.requests) == 1
    body = server.requests[0]["body"]
    assert body["n"] == 30
    assert body["messages"] == [{"role": "user", "content": "translate this"}]
    assert body["temperature"] == config.temperature
    assert body["top_p"] == config.top_p
    assert server.requests[0]["path"].endswith("/chat/completions")


def test_whitespace_choice_dropped(server):
    server.behaviours.append({"kind": "echo", "contents": ["one", "   ", "three"]})
    result = ChatCompletionsClient().generate_candidates(
        "p", cfg(server, n_candidates=3)
    )
    assert result.candidates == ("one", "three")


def test_extraction_applied_to_choices(server):
    server.behaviours.append(
        {"kind": "echo", "contents": ['English translation: "Hello."']}
    )
    result = ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=1))
    assert result.candidates == ("Hello.",)


def test_all_empty_raises(server):
    server.behaviours.append({"kind": "echo", "contents": ["  ", "\t"]})
    with pytest.raises(AllCandidatesEmpty):
        ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=2))


def test_retry_after_server_error(server):
    server.behaviours.append({"kind": "status", "code": 500})
    server.behaviours.append({"kind": "echo", "contents": ["recovered"]})
    result = ChatCompletionsClient().generate_candidates(
        "p", cfg(server, n_candidates=1, retries=2)
    )
    assert result.candidates == ("recovered",)
    assert len(server.requests) == 2


def test_network_failure_after_retries(server):
    for _ in range(3):
        server.behaviours.append({"kind": "status", "code": 500})
    with pytest.raises(NetworkFailure):
        ChatCompletionsClient().generate_candidates(
            "p", cfg(server, n_candidates=1, retries=2)
        )
    assert len(server.requests) == 3


def test_rate_limited_honours_retry_after(server):
    server.behaviours.append(
        {"kind": "status", "code": 429, "headers": {"Retry-After": "0.05"}}
    )
    server.behaviours.append({"kind": "status", "code": 429})
    with pytest.raises(RateLimited) as excinfo:
        ChatCompletionsClient().generate_candidates(
            "p", cfg(server, n_candidates=1, retries=1)
        )
    assert excinfo.value.retry_after in (0.05, None)
    assert len(server.requests) == 2


def test_multi_choice_rejection_falls_back_to_sequential(server):
    server.behaviours.append({"kind": "status", "code": 400, "body": b"n unsupported"})
    for i in range(3):
        server.behaviours.append({"kind": "echo", "contents": [f"seq {i}"]})
    result = ChatCompletionsClient().generate_candidates(
        "p", cfg(server, n_candidates=3)
    )
    assert result.candidates == ("seq 0", "seq 1", "seq 2")
    assert len(server.requests) == 4
    assert server.requests[0]["body"]["n"] == 3
    assert all(r["body"]["n"] == 1 for r in server.requests[1:])


def test_single_choice_rejection_is_failure(server):
    server.behaviours.append({"kind": "status", "code": 400, "body": b"bad request"})
    with pytest.raises(NetworkFailure):
        ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=1))


def test_malformed_response(server):
    server.behaviours.append({"kind": "raw", "payload": {"unexpected": "shape"}})
    with pytest.raises(MalformedResponse):
        ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=1))


def test_bearer_token_from_env(server, monkeypatch):
    monkeypatch.setenv("AFSP_API_KEY", "secret-token")
    ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=1))
    assert server.requests[0]["auth"] == "Bearer secret-token"
    monkeypatch.delenv("AFSP_API_KEY")
    server.requests.clear()
    ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=1))
    assert server.requests[0]["auth"] is None


def test_top_k_passthrough(server):
    ChatCompletionsClient().generate_candidates(
        "p", cfg(server, n_candidates=1, top_k=30)
    )
    assert server.requests[0]["body"]["top_k"] == 30
    server.requests.clear()
    ChatCompletionsClient().generate_candidates("p", cfg(server, n_candidates=1))
    assert "top_k" not in server.requests[0]["body"]


def test_result_carries_prompt_fingerprint(server):
    with ChatCompletionsClient() as client:
        result = client.generate_candidates("some prompt", cfg(server, n_candidates=2))
    assert len(result.candidates) == 2
    assert result.prompt_fingerprint == fingerprint("some prompt")


def test_with_block_closes_the_clients_session(server, monkeypatch):
    closed = []
    close = requests.Session.close
    monkeypatch.setattr(requests.Session, "close", lambda self: (closed.append(self), close(self)))
    gc.collect()  # sockets other tests left open are not this call's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ChatCompletionsClient() as client:
            client.generate_candidates("some prompt", cfg(server, n_candidates=2))
        gc.collect()
    assert len(closed) == 1
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_endpoint_translator_round_trip(server):
    server.behaviours.append({"kind": "echo", "contents": ["pivot text"]})
    server.behaviours.append({"kind": "echo", "contents": ["round tripped"]})
    config = cfg(server, max_in_flight=2, top_k=5)
    with ChatCompletionsClient() as client:
        translator = EndpointTranslator(config, client)
        assert translator.cfg == replace(config, n_candidates=1)
        assert translator("original", "en", "zh") == "pivot text"
        assert translator("pivot text", "zh", "en") == "round tripped"
    assert server.requests[0]["body"]["n"] == 1
    assert [r["body"]["messages"] for r in server.requests] == [
        [{"role": "user", "content": render_prompt("English", "Chinese", "original")}],
        [{"role": "user", "content": render_prompt("Chinese", "English", "pivot text")}],
    ]


def test_degrade_with_a_translator_endpoint_closes_its_session(server, monkeypatch, tmp_path):
    closed = []
    close = requests.Session.close
    monkeypatch.setattr(requests.Session, "close", lambda self: (closed.append(self), close(self)))
    save(synthetic_corpus(2, seed=3), tmp_path / "corpus.bin")
    save_table(corpus_table(dim=8), tmp_path / "table.bin")
    gc.collect()  # sockets other tests left open are not this call's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([
            "degrade", "--corpus", str(tmp_path / "corpus.bin"),
            "--embeddings", str(tmp_path / "table.bin"), "--max-ops", "1",
            "--translator-endpoint", endpoint(server), "--out", str(tmp_path / "d.jsonl"),
        ]) == 0
        gc.collect()
    assert server.requests
    assert len(closed) == 1
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_mock_client_passthrough_and_miss():
    prompt = "scripted prompt"
    client = MockClient({fingerprint(prompt): ["a", "b", "c", "d", "e"]})
    config = GenerationConfig(n_candidates=5)
    result = client.generate_candidates(prompt, config)
    assert result.candidates == ("a", "b", "c", "d", "e")
    assert result.prompt_fingerprint == fingerprint(prompt)
    again = client.generate_candidates(prompt, config)
    assert again.candidates == result.candidates
    with pytest.raises(ScriptMiss):
        client.generate_candidates("unknown prompt", config)


def test_mock_client_truncates_to_n_candidates():
    client = MockClient({fingerprint("p"): ["a", "b", "c"]})
    result = client.generate_candidates("p", GenerationConfig(n_candidates=2))
    assert result.candidates == ("a", "b")


# a JSON "\\ud800" escape decodes to a lone surrogate, which has no UTF-8
LONE_SURROGATE = json.loads('"ok \\ud800 text"')


def test_mock_client_drops_completions_without_utf8():
    client = MockClient({fingerprint("p"): [LONE_SURROGATE, "fine", "\udfff"]})
    assert client.generate_candidates("p", GenerationConfig(n_candidates=3)).candidates == ("fine",)
    client = MockClient({fingerprint("p"): [LONE_SURROGATE, "  "]})
    with pytest.raises(AllCandidatesEmpty, match="empty or not valid UTF-8"):
        client.generate_candidates("p", GenerationConfig(n_candidates=2))


def test_fingerprint_is_stable_and_distinct():
    assert fingerprint("x") == fingerprint("x")
    assert fingerprint("x") != fingerprint("y")
    assert len(fingerprint("x")) == 64


class StubResponse:
    def __init__(self, status_code, headers=None, payload=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.text = ""
        self._payload = payload

    def json(self):
        return self._payload


class StubSession:
    """Answers post() from a queue of responses; an empty queue echoes n
    choices."""

    def __init__(self, responses=()):
        self.responses = list(responses)
        self.bodies = []

    def post(self, url, json, headers, timeout):
        self.bodies.append(json)
        if self.responses:
            return self.responses.pop(0)
        choices = [{"message": {"content": f"c{i}"}} for i in range(json["n"])]
        return StubResponse(200, payload={"choices": choices})


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr("afsp.llm_client.time.sleep", recorded.append)
    return recorded


def stub_cfg(**kwargs):
    return GenerationConfig(**{"timeout": 5.0, "retries": 2, **kwargs})


def test_retry_after_replaces_backoff(sleeps):
    session = StubSession([StubResponse(429, {"Retry-After": "0.05"})])
    result = ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=1))
    assert result.candidates == ("c0",)
    assert sleeps == [pytest.approx(0.05)]


def test_429_without_retry_after_backs_off(sleeps):
    session = StubSession([StubResponse(429)])
    ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=1))
    assert len(sleeps) == 1 and 0.25 <= sleeps[0] <= 0.35


def test_retry_after_applies_to_its_next_attempt_only(sleeps):
    session = StubSession(
        [StubResponse(429, {"Retry-After": "0"}), StubResponse(503)]
    )
    ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=1))
    assert len(session.bodies) == 3
    # no sleep for Retry-After: 0, then the second backoff step after the 503
    assert len(sleeps) == 1 and 0.5 <= sleeps[0] <= 0.6


@pytest.mark.parametrize("code", [401, 403, 404])
def test_non_body_4xx_fails_without_fallback(code, sleeps):
    session = StubSession([StubResponse(code)])
    with pytest.raises(NetworkFailure, match=str(code)):
        ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=5))
    assert len(session.bodies) == 1
    assert sleeps == []


def test_422_falls_back_to_single_choice(sleeps):
    session = StubSession([StubResponse(422)])
    result = ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=3))
    assert result.candidates == ("c0", "c0", "c0")
    assert [b["n"] for b in session.bodies] == [3, 1, 1, 1]


class DeadlineSession(StubSession):
    """Each request takes 1e6 s of a fake monotonic clock: the first one
    uses up any deadline."""

    def __init__(self, monkeypatch, responses=()):
        super().__init__(responses)
        self.now = 0.0
        monkeypatch.setattr("afsp.llm_client.time.monotonic", lambda: self.now)

    def post(self, url, json, headers, timeout):
        self.now += 1e6
        return super().post(url, json, headers, timeout)


def test_fallback_after_the_shared_deadline_says_no_request_was_sent(monkeypatch, sleeps):
    session = DeadlineSession(monkeypatch, [StubResponse(400)])
    with pytest.raises(NetworkFailure, match="deadline passed before a request was sent"):
        ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=3))
    assert [b["n"] for b in session.bodies] == [3]


def test_failure_counts_only_the_attempts_sent(monkeypatch, sleeps):
    session = DeadlineSession(monkeypatch, [StubResponse(503)])
    with pytest.raises(NetworkFailure, match=r"after 1 attempt\(s\): HTTP 503"):
        ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=1))
    assert len(session.bodies) == 1


def test_client_closes_only_the_session_it_opened():
    class ClosingSession(StubSession):
        closed = False

        def close(self):
            self.closed = True

    given = ClosingSession()
    with ChatCompletionsClient(given) as client:
        client.generate_candidates("p", stub_cfg(n_candidates=1))
    assert not given.closed

    owned = ChatCompletionsClient()
    owned._session = ClosingSession()
    owned.close()
    assert owned._session.closed


def test_client_drops_completions_without_utf8():
    choices = [{"message": {"content": c}} for c in (LONE_SURROGATE, "kept")]
    session = StubSession([StubResponse(200, payload={"choices": choices})])
    result = ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=2))
    assert result.candidates == ("kept",)
    session = StubSession([StubResponse(200, payload={"choices": choices[:1]})])
    with pytest.raises(AllCandidatesEmpty):
        ChatCompletionsClient(session).generate_candidates("p", stub_cfg(n_candidates=1))
