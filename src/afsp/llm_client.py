"""Chat-completions client for sampling candidate translations.

Speaks the widely implemented JSON shape: POST ``{endpoint}/chat/completions``
with ``model``/``messages``/``temperature``/``top_p``/``n``/``max_tokens``,
reading ``choices[*].message.content``. A bearer token is taken from the
``AFSP_API_KEY`` environment variable when present.

Candidates are requested in one multi-choice call; endpoints that reject
``n > 1`` (HTTP 400 or 422) are retried as n sequential single-completion
calls, which yields an identical CandidateSet; other 4xx fail at once. Every
raw completion passes through ``extract_translation``; completions that come
back empty or null, or that cannot be encoded as UTF-8 (a lone surrogate),
are dropped.

Transient failures (timeouts, connection errors, HTTP 5xx) are retried with
exponential backoff and jitter inside a total budget of
``(retries + 1) * timeout`` seconds, so an attempt waits at most the time
left. HTTP 429 honours Retry-After, which then replaces the backoff before
the next attempt.

For offline runs and tests, :class:`MockClient` serves scripted candidate
lists keyed by prompt fingerprint through the same interface.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, replace

import requests

from .errors import (
    AllCandidatesEmpty,
    EmptyOutput,
    MalformedResponse,
    NetworkFailure,
    RateLimited,
    ScriptMiss,
    check_type,
)
from .prompting import extract_translation, lang_display_name, render_prompt

API_KEY_ENV = "AFSP_API_KEY"

# statuses with which an endpoint refuses the request body, e.g. n > 1;
# any other 4xx (401, 404, ...) would fail a single-choice retry the same way
_MULTI_CHOICE_REJECTIONS = (400, 422)


@dataclass(frozen=True)
class GenerationConfig:
    endpoint: str = "http://localhost:8000/v1"
    model: str = "default"
    n_candidates: int = 30
    temperature: float = 0.8
    top_p: float = 0.95
    max_tokens: int = 256
    timeout: float = 30.0
    retries: int = 2
    top_k: int | None = None
    max_in_flight: int = 4

    def __post_init__(self):
        for name in ("endpoint", "model"):
            check_type(getattr(self, name), name, "a string", str)
        for name in ("n_candidates", "max_tokens", "retries", "max_in_flight"):
            check_type(getattr(self, name), name, "an integer", int)
        check_type(self.top_k, "top_k", "an integer or None", int, type(None))
        for name in ("temperature", "top_p", "timeout"):
            check_type(getattr(self, name), name, "a finite number", int, float)
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature!r}")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be > 0 and finite, got {self.timeout!r}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class CandidateSet:
    prompt_fingerprint: str
    candidates: tuple[str, ...]


def fingerprint(prompt: str) -> str:
    """Hex digest identifying a prompt; keys mock scripts and audit logs."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _finalize(prompt: str, raw_texts: list[str]) -> CandidateSet:
    """Apply extraction, drop empties and completions that are not valid
    text (a lone surrogate, which a JSON ``\\ud800`` escape decodes to, has
    no UTF-8 encoding), enforce the at-least-one contract."""
    candidates = []
    for text in raw_texts:
        try:
            candidate = extract_translation(text)
            candidate.encode("utf-8")
        except (EmptyOutput, UnicodeEncodeError):
            continue
        candidates.append(candidate)
    if not candidates:
        raise AllCandidatesEmpty(
            f"all {len(raw_texts)} completions were empty or not valid UTF-8 after extraction"
        )
    return CandidateSet(prompt_fingerprint=fingerprint(prompt), candidates=tuple(candidates))


class ChatCompletionsClient:
    """HTTP client for a chat-completions endpoint.

    A client built without a session opens its own and closes it in
    ``close()``, which ``with`` calls on exit; a session passed in stays the
    caller's to close.
    """

    def __init__(self, session: requests.Session | None = None):
        self._owns_session = session is None
        self._session = session or requests.Session()

    def close(self) -> None:
        if self._owns_session:
            self._session.close()

    def __enter__(self) -> "ChatCompletionsClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def generate_candidates(self, prompt: str, cfg: GenerationConfig) -> CandidateSet:
        """Sample cfg.n_candidates completions for one prompt."""
        if not prompt.strip():
            raise ValueError("prompt must be non-empty")
        deadline = time.monotonic() + (cfg.retries + 1) * cfg.timeout
        try:
            texts = self._request(prompt, cfg, n=cfg.n_candidates, deadline=deadline)
        except _MultiChoiceRejected:
            texts = [
                text
                for _ in range(cfg.n_candidates)
                for text in self._request(prompt, cfg, n=1, deadline=deadline)
            ]
        return _finalize(prompt, texts)

    def _request(
        self, prompt: str, cfg: GenerationConfig, n: int, deadline: float
    ) -> list[str]:
        body = {
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "top_p": cfg.top_p,
            "n": n,
            "max_tokens": cfg.max_tokens,
        }
        if cfg.top_k is not None:
            body["top_k"] = cfg.top_k
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        url = cfg.endpoint.rstrip("/") + "/chat/completions"

        last_error: Exception | None = None
        retry_after: float | None = None
        sent = 0
        for attempt in range(cfg.retries + 1):
            if attempt > 0:
                # a 429's Retry-After replaces the backoff, it does not add to it
                delay = retry_after
                if delay is None:
                    delay = min(0.25 * (2 ** (attempt - 1)) + random.uniform(0, 0.1), cfg.timeout)
                delay = min(delay, max(0.0, deadline - time.monotonic()))
                if delay > 0:
                    time.sleep(delay)
                retry_after = None
            left = deadline - time.monotonic()
            if left <= 0:
                break
            sent += 1
            try:
                resp = self._session.post(
                    url, json=body, headers=headers, timeout=min(cfg.timeout, left)
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 429:
                retry_after = _parse_retry_after(resp.headers.get("Retry-After"))
                last_error = RateLimited("endpoint returned 429", retry_after)
                continue
            if resp.status_code >= 500:
                last_error = NetworkFailure(f"HTTP {resp.status_code}: {resp.text[:200]}")
                continue
            if resp.status_code >= 400:
                if n > 1 and resp.status_code in _MULTI_CHOICE_REJECTIONS:
                    raise _MultiChoiceRejected()
                raise NetworkFailure(
                    f"endpoint rejected request: HTTP {resp.status_code}: {resp.text[:200]}"
                )
            return _parse_choices(resp)
        if isinstance(last_error, RateLimited):
            raise last_error
        if not sent:
            # the n x single-choice fallback shares the first request's deadline
            raise NetworkFailure("the request deadline passed before a request was sent")
        raise NetworkFailure(f"request failed after {sent} attempt(s): {last_error}")


class _MultiChoiceRejected(Exception):
    """Internal: endpoint refused a request with n > 1."""


def _parse_retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


def _parse_choices(resp: requests.Response) -> list[str]:
    try:
        contents = [choice["message"]["content"] for choice in resp.json()["choices"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResponse(f"cannot parse chat-completions response: {exc}") from exc
    if not all(isinstance(content, (str, type(None))) for content in contents):
        raise MalformedResponse("a completion's content is not a string or null")
    return [content or "" for content in contents]


class MockClient:
    """Deterministic client serving scripted candidates by prompt fingerprint."""

    def __init__(self, script: dict[str, list[str]]):
        self.script = dict(script)

    def generate_candidates(self, prompt: str, cfg: GenerationConfig) -> CandidateSet:
        fp = fingerprint(prompt)
        if fp not in self.script:
            raise ScriptMiss(f"no scripted candidates for prompt fingerprint {fp[:12]}...")
        return _finalize(prompt, list(self.script[fp][: cfg.n_candidates]))


class EndpointTranslator:
    """Translator over a chat-completions endpoint, single candidate: it
    sends the pipeline's prompt with no demonstrations, as a run with
    ``k = 0`` does.

    Satisfies the degeneration module's translator contract for real
    back-translation round trips. The client stays the caller's to close.
    """

    def __init__(self, cfg: GenerationConfig, client: ChatCompletionsClient):
        self.cfg = replace(cfg, n_candidates=1)
        self.client = client

    def __call__(self, text: str, from_lang: str, to_lang: str) -> str:
        prompt = render_prompt(lang_display_name(from_lang), lang_display_name(to_lang), text)
        return self.client.generate_candidates(prompt, self.cfg).candidates[0]
