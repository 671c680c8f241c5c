"""Chat-completion providers: a live HTTP client with retries and rate
limiting, a deterministic mock for offline runs, and extraction of tagged
JSON answers from free-form model output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence
from urllib.parse import urlsplit

import requests

from . import semantic_model as sm
from .errors import (
    AuthError,
    NoAnswerError,
    ProviderError,
    ProviderTimeoutError,
    RateLimitExhaustedError,
    encode_text,
    require_types,
)

STAGE_CHAIN1 = "chain1"
STAGE_CHAIN2 = "chain2"
STAGE_COMBINED = "combined"
ALL_STAGES = frozenset({STAGE_CHAIN1, STAGE_CHAIN2, STAGE_COMBINED})

_INJECTED_CLASS = "PhantomNode"
_INJECTED_PROPERTY = "phantom_link"
_RENAME_SUFFIX = "_renamed"
_MOCK_REASONING = "Working through the attributes against the ontology, one at a time, gives:"


def naive_token_count(text: str) -> int:
    """Whitespace token count; used wherever a provider reports no usage."""
    return len(text.split())


def _naive_usage(system: str, turns: Sequence[Message], text: str) -> TokenUsage:
    prompt_tokens = naive_token_count(system) + sum(naive_token_count(t.content) for t in turns)
    return TokenUsage(prompt_tokens, naive_token_count(text))


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int
    output_tokens: int

    @property
    def total(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True)
class Completion:
    """One provider reply: assistant text plus usage."""

    text: str
    usage: TokenUsage


@dataclass(frozen=True)
class ChatExchange:
    """A full request/response snapshot, ending with the assistant reply."""

    system: str
    turns: tuple[Message, ...]
    usage: TokenUsage
    latency_ms: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "turns", tuple(self.turns))
        for i, turn in enumerate(self.turns):
            expected = "user" if i % 2 == 0 else "assistant"
            if turn.role != expected:
                raise ValueError(
                    f"turn {i} must have role {expected!r}, got {turn.role!r}"
                )


@dataclass(frozen=True)
class ProviderConfig:
    """Connection settings for a live chat-completion endpoint."""

    base_url: str
    model_name: str
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout: float = 60.0
    max_retries: int = 3
    requests_per_minute: int = 60

    def __post_init__(self) -> None:
        require_types(self, ("base_url", "model_name", "api_key_env"), str)
        require_types(self, ("max_tokens", "max_retries", "requests_per_minute"), int)
        require_types(self, ("temperature", "timeout"), (int, float))
        try:
            url = urlsplit(self.base_url)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http or https URL with a host, got {self.base_url!r}")
        for name in ("temperature", "timeout"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.requests_per_minute < 1:
            raise ValueError("requests_per_minute must be >= 1")


class Provider(Protocol):
    def complete(
        self,
        system: str,
        turns: Sequence[Message],
        *,
        tags: Mapping[str, str] | None = None,
    ) -> Completion: ...


class RateLimiter:
    """Sliding-window limiter: at most `rate` grants in any 60 s window.

    Grant bookkeeping is serialized under one lock; waiting happens outside
    it so concurrent callers cannot deadlock each other.
    """

    WINDOW_SECONDS = 60.0

    def __init__(
        self,
        rate: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate < 1:
            raise ValueError("rate must be >= 1")
        self._rate = rate
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._grants: deque[float] = deque()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                while self._grants and now - self._grants[0] >= self.WINDOW_SECONDS:
                    self._grants.popleft()
                if len(self._grants) < self._rate:
                    self._grants.append(now)
                    return
                wait = self.WINDOW_SECONDS - (now - self._grants[0])
            self._sleep(max(wait, 0.0))


class HttpProvider:
    """OpenAI-style chat-completions client.

    The API key is read from the environment once, when the provider is
    built, so an unset key fails before any request. Transient failures
    (timeouts, connection and other transport errors, 429, 5xx) are retried
    with exponential backoff up to max_retries; one shared rate limiter
    paces all threads using this provider.
    """

    def __init__(
        self,
        config: ProviderConfig,
        session=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self._api_key = os.environ.get(config.api_key_env, "")
        if not self._api_key:
            raise AuthError(f"environment variable {config.api_key_env!r} is not set")
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep
        self._limiter = RateLimiter(config.requests_per_minute, clock, sleep)

    def complete(
        self,
        system: str,
        turns: Sequence[Message],
        *,
        tags: Mapping[str, str] | None = None,
    ) -> Completion:
        del tags  # only the mock keys on them; transcripts are written upstream
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "system", "content": system}]
            + [{"role": t.role, "content": t.content} for t in turns],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {self._api_key}"}
        # Seconds the server asked to wait before the next attempt, if it did.
        retry_after: int | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(min(2.0 ** (attempt - 1) if retry_after is None else retry_after, 30.0))
            retry_after = None
            self._limiter.acquire()
            try:
                response = self._session.post(url, json=body, headers=headers, timeout=self.config.timeout)
                status = response.status_code
                if status in (401, 403):
                    raise AuthError(f"provider rejected credentials: HTTP {status}")
                if status in (429, 503):
                    retry_after = _delay_seconds(response.headers.get("Retry-After"))
                if status == 429:
                    error = RateLimitExhaustedError(f"still rate limited after retries: {response.text[:500]}")
                    continue
                if status >= 500:
                    error = ProviderError(
                        f"transient server failures exhausted retries: HTTP {status}: {response.text[:500]}"
                    )
                    continue
                if not 200 <= status < 300:
                    raise ProviderError(f"HTTP {status}: {response.text[:500]}")
                return self._parse_response(response, system, turns)
            except requests.Timeout as exc:
                error = ProviderTimeoutError(f"no reply within {self.config.timeout}s after retries: {exc}")
            except requests.RequestException as exc:
                # Anything else on the wire or in the body read: connection,
                # chunked encoding, content decoding, redirects.
                error = ProviderError(
                    f"transient transport failures exhausted retries: {type(exc).__name__}: {exc}"
                )
        # max_retries >= 0, so at least one attempt set `error`.
        raise error

    def _parse_response(self, response, system: str, turns: Sequence[Message]) -> Completion:
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from None
        if not isinstance(text, str):
            raise ProviderError(f"malformed provider response: content is {type(text).__name__}, not text")
        usage = data.get("usage")
        counts = (usage.get("prompt_tokens"), usage.get("completion_tokens")) if isinstance(usage, dict) else ()
        if counts and all(type(n) is int for n in counts):
            return Completion(text, TokenUsage(*counts))
        return Completion(text, _naive_usage(system, turns, text))


def _delay_seconds(retry_after: str | None) -> int | None:
    """A `Retry-After` header's delay-seconds (RFC 9110 §10.2.3: one or more
    ASCII digits), or None for an absent header, an HTTP-date or anything else."""
    value = (retry_after or "").strip()
    return int(value) if value.isascii() and value.isdigit() else None


# --- deterministic mock -------------------------------------------------------


@dataclass(frozen=True)
class CorruptionSpec:
    """Deterministic damage applied to scripted answers.

    drop_triples removes triples, rename_properties rewrites property names,
    and inject_instances adds a chain of fresh instances that connect to no
    attribute (so pruning has something real to remove). Everything is a pure
    function of (seed, source_id, stage).
    """

    drop_triples: int = 0
    inject_instances: int = 0
    rename_properties: int = 0
    seed: int = 0
    stages: frozenset[str] = ALL_STAGES

    def __post_init__(self) -> None:
        require_types(self, ("drop_triples", "inject_instances", "rename_properties", "seed"), int)
        if isinstance(self.stages, str):
            raise TypeError(f"stages must be a collection of stage names, got {self.stages!r}")
        object.__setattr__(self, "stages", frozenset(self.stages))
        for name in ("drop_triples", "inject_instances", "rename_properties"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.inject_instances == 1:
            raise ValueError("cannot inject a single instance: a link needs two endpoints")
        unknown = self.stages - ALL_STAGES
        if unknown:
            raise ValueError(f"unknown stages {sorted(unknown)}")

    @property
    def active(self) -> bool:
        return bool(self.drop_triples or self.inject_instances or self.rename_properties)


@dataclass(frozen=True)
class MockScript:
    """Finished replies keyed by (source_id, stage)."""

    responses: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", dict(self.responses))

    @classmethod
    def from_gold(
        cls,
        golds: Mapping[str, sm.SemanticModel],
        corruption: CorruptionSpec | None = None,
    ) -> "MockScript":
        """Script each gold model as its source's replies.

        `corruption` damages the replies of the stages it names here, once,
        with an RNG seeded from (seed, source_id, stage); in a combined reply
        Step1 draws from it before Step2.
        """

        def step(tag: str, doc: dict, rng: random.Random | None) -> str:
            if rng is not None:
                doc = _corrupt_doc(doc, corruption, rng)
            body = json.dumps(doc, indent=2, ensure_ascii=False)
            return f"{_MOCK_REASONING}\n<{tag}>\n{body}\n</{tag}>"

        responses: dict[tuple[str, str], str] = {}
        for source_id, gold in golds.items():
            labels = ("Step1", sm.model_doc(gold, links=False))
            model = ("Step2", sm.model_doc(gold))
            stage_steps = {STAGE_CHAIN1: (labels,), STAGE_CHAIN2: (model,), STAGE_COMBINED: (labels, model)}
            for stage, steps in stage_steps.items():
                rng = None
                if corruption and corruption.active and stage in corruption.stages:
                    digest = hashlib.sha256(encode_text(f"{corruption.seed}|{source_id}|{stage}")).digest()
                    rng = random.Random(int.from_bytes(digest[:8], "big"))
                responses[(source_id, stage)] = "\n".join(step(tag, body, rng) for tag, body in steps)
        return cls(responses)


class MockProvider:
    """Offline provider that replays a script; bitwise-reproducible."""

    def __init__(self, script: MockScript) -> None:
        self.script = script
        self.calls: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def complete(
        self,
        system: str,
        turns: Sequence[Message],
        *,
        tags: Mapping[str, str] | None = None,
    ) -> Completion:
        tags = tags or {}
        source_id = tags.get("source_id")
        stage = tags.get("stage")
        if source_id is None or stage is None:
            raise ProviderError("mock provider needs source_id and stage tags")
        with self._lock:
            self.calls.append((source_id, stage))
        text = self.script.responses.get((source_id, stage))
        if text is None:
            raise ProviderError(f"no scripted response for {(source_id, stage)!r}")
        return Completion(text, _naive_usage(system, turns, text))


def _corrupt_doc(doc: dict, spec: CorruptionSpec, rng: random.Random) -> dict:
    sems = [tuple(t) for t in doc.get(sm.SEMANTIC_TRIPLES_KEY, [])]
    links = [tuple(t) for t in doc.get(sm.INTERNAL_LINK_TRIPLES_KEY, [])]
    pool = sorted([("sem", t) for t in sems] + [("link", t) for t in links])
    for _ in range(min(spec.drop_triples, len(pool))):
        pool.remove(rng.choice(pool))
    for i in sorted(rng.sample(range(len(pool)), min(spec.rename_properties, len(pool)))):
        kind, (a, p, b) = pool[i]
        pool[i] = (kind, (a, p + _RENAME_SUFFIX, b))
    sems = [list(t) for kind, t in pool if kind == "sem"]
    links = [list(t) for kind, t in pool if kind == "link"]
    if sm.INTERNAL_LINK_TRIPLES_KEY in doc and spec.inject_instances >= 2:
        for i in range(1, spec.inject_instances):
            links.append(
                [f"{_INJECTED_CLASS}{i}", _INJECTED_PROPERTY, f"{_INJECTED_CLASS}{i + 1}"]
            )
    out = dict(doc)
    if sm.SEMANTIC_TRIPLES_KEY in out:
        out[sm.SEMANTIC_TRIPLES_KEY] = sorted(sems)
    if sm.INTERNAL_LINK_TRIPLES_KEY in out:
        out[sm.INTERNAL_LINK_TRIPLES_KEY] = sorted(links)
    return out


# --- answer extraction ----------------------------------------------------------


def extract_tagged_json(response: str, tag: str) -> tuple[str, object]:
    """Pull the machine-readable answer out of a free-form reply.

    Returns the answer text and its decoded JSON value. The answer is the
    content of the last well-formed <tag>...</tag> region that parses as
    JSON, code fences trimmed. Without usable tags, falls back to the last
    balanced JSON object anywhere in the response.
    """
    try:
        for region in reversed(_tagged_regions(response, tag)):
            candidate = _strip_fences(region.strip())
            try:
                return candidate, json.loads(candidate)
            except ValueError:
                continue
        last = _last_balanced_object(response)
    except RecursionError:
        # Too deep fails at once: retrying from the next "{" would rescan the nesting.
        raise NoAnswerError(f"<{tag}> answer nested too deeply to parse") from None
    if last is not None:
        return last
    raise NoAnswerError(f"no parseable <{tag}> answer (and no bare JSON object) in the response")


def _tagged_regions(text: str, tag: str) -> list[str]:
    """The contents of the non-overlapping <tag>...</tag> regions, in order; the
    scan ends at the first opening tag that no closing tag follows."""
    opening, closing = f"<{tag}>", f"</{tag}>"
    regions = []
    start = text.find(opening)
    while start >= 0:
        end = text.find(closing, start + len(opening))
        if end < 0:
            break
        regions.append(text[start + len(opening):end])
        start = text.find(opening, end + len(closing))
    return regions


def _strip_fences(text: str) -> str:
    lines = text.splitlines()
    if lines and lines[0].lstrip().startswith("```"):
        lines = lines[1:]
    if lines and lines[-1].strip().startswith("```"):
        lines = lines[:-1]
    return "\n".join(lines).strip()


def _last_balanced_object(text: str) -> tuple[str, object] | None:
    decoder = json.JSONDecoder()
    last = None
    pos = 0
    while True:
        start = text.find("{", pos)
        if start < 0:
            return last
        try:
            value, end = decoder.raw_decode(text, start)
        except ValueError:
            pos = start + 1
            continue
        last = text[start:end], value
        pos = end
