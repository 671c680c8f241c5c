"""Chat-completion providers: a live HTTP client with retries and rate
limiting, a deterministic mock for offline runs, and extraction of tagged
JSON answers from free-form model output."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import requests

from . import semantic_model as sm
from .errors import (
    AuthError,
    NoAnswerError,
    ProviderError,
    ProviderTimeoutError,
    RateLimitExhaustedError,
)

STAGE_CHAIN1 = "chain1"
STAGE_CHAIN2 = "chain2"
STAGE_COMBINED = "combined"
ALL_STAGES = frozenset({STAGE_CHAIN1, STAGE_CHAIN2, STAGE_COMBINED})

_INJECTED_CLASS = "PhantomNode"
_INJECTED_PROPERTY = "phantom_link"
_RENAME_SUFFIX = "_renamed"


def naive_token_count(text: str) -> int:
    """Whitespace token count; used wherever a provider reports no usage."""
    return len(text.split())


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
    """One provider reply: assistant text plus usage and wall time."""

    text: str
    usage: TokenUsage
    latency_ms: float


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
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
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

    Transient failures (timeouts, connection and other transport errors,
    429, 5xx) are retried with exponential backoff up to max_retries; one
    shared rate limiter paces all threads using this provider.
    """

    def __init__(
        self,
        config: ProviderConfig,
        session=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self._session = session if session is not None else requests.Session()
        self._clock = clock
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
        api_key = os.environ.get(self.config.api_key_env, "")
        if not api_key:
            raise AuthError(f"environment variable {self.config.api_key_env!r} is not set")
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "system", "content": system}]
            + [{"role": t.role, "content": t.content} for t in turns],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {api_key}"}
        started = self._clock()
        failure: tuple[str, str] | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(min(2.0 ** (attempt - 1), 30.0))
            self._limiter.acquire()
            try:
                response = self._session.post(url, json=body, headers=headers, timeout=self.config.timeout)
                status = response.status_code
                if status in (401, 403):
                    raise AuthError(f"provider rejected credentials: HTTP {status}")
                if status == 429:
                    failure = ("rate", response.text[:500])
                    continue
                if status >= 500:
                    failure = ("server", f"HTTP {status}: {response.text[:500]}")
                    continue
                if not 200 <= status < 300:
                    raise ProviderError(f"HTTP {status}: {response.text[:500]}")
                return self._parse_response(response, system, turns, started)
            except requests.Timeout as exc:
                failure = ("timeout", str(exc))
            except requests.ConnectionError as exc:
                failure = ("connection", str(exc))
            except requests.RequestException as exc:
                # Anything else on the wire or in the body read: chunked
                # encoding, content decoding, redirects.
                failure = ("transport", f"{type(exc).__name__}: {exc}")
        kind, detail = failure if failure else ("unknown", "no attempt made")
        if kind == "timeout":
            raise ProviderTimeoutError(f"no reply within {self.config.timeout}s after retries: {detail}")
        if kind == "rate":
            raise RateLimitExhaustedError(f"still rate limited after retries: {detail}")
        raise ProviderError(f"transient {kind} failures exhausted retries: {detail}")

    def _parse_response(self, response, system: str, turns: Sequence[Message], started: float) -> Completion:
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from None
        usage = data.get("usage") or {}
        prompt_tokens = usage.get("prompt_tokens")
        completion_tokens = usage.get("completion_tokens")
        if prompt_tokens is None or completion_tokens is None:
            prompt_tokens = naive_token_count(system) + sum(naive_token_count(t.content) for t in turns)
            completion_tokens = naive_token_count(text)
        latency_ms = (self._clock() - started) * 1000.0
        return Completion(text, TokenUsage(int(prompt_tokens), int(completion_tokens)), latency_ms)


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
    """Canned responses keyed by (source_id, stage), plus optional corruption."""

    responses: Mapping[tuple[str, str], str]
    corruption: CorruptionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", dict(self.responses))

    @classmethod
    def from_gold(
        cls,
        golds: Mapping[str, sm.SemanticModel],
        corruption: CorruptionSpec | None = None,
        reasoning: str = "Working through the attributes against the ontology, one at a time, gives:",
    ) -> "MockScript":
        responses: dict[tuple[str, str], str] = {}
        for source_id, gold in golds.items():
            labels = sm.serialize_labels(gold)
            model = sm.serialize_model(gold)
            responses[(source_id, STAGE_CHAIN1)] = f"{reasoning}\n<Step1>\n{labels}\n</Step1>"
            responses[(source_id, STAGE_CHAIN2)] = f"{reasoning}\n<Step2>\n{model}\n</Step2>"
            responses[(source_id, STAGE_COMBINED)] = (
                f"{reasoning}\n<Step1>\n{labels}\n</Step1>\n"
                f"{reasoning}\n<Step2>\n{model}\n</Step2>"
            )
        return cls(responses, corruption)


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
        key = (source_id, stage)
        if key not in self.script.responses:
            raise ProviderError(f"no scripted response for {key!r}")
        text = self.script.responses[key]
        corruption = self.script.corruption
        if corruption and corruption.active and stage in corruption.stages:
            text = _corrupt_response(text, corruption, source_id, stage)
        prompt_tokens = naive_token_count(system) + sum(naive_token_count(t.content) for t in turns)
        return Completion(text, TokenUsage(prompt_tokens, naive_token_count(text)), 0.0)


def _corrupt_response(text: str, spec: CorruptionSpec, source_id: str, stage: str) -> str:
    digest = hashlib.sha256(f"{spec.seed}|{source_id}|{stage}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))

    def patch(match: re.Match) -> str:
        tag, body = match.group(1), match.group(2)
        try:
            doc = json.loads(body)
        except ValueError:
            return match.group(0)
        return f"<{tag}>\n{json.dumps(_corrupt_doc(doc, spec, rng), indent=2, ensure_ascii=False)}\n</{tag}>"

    return re.sub(r"<(Step[12])>(.*?)</\1>", patch, text, flags=re.DOTALL)


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


def extract_tagged_json(response: str, tag: str) -> str:
    """Pull the machine-readable answer out of a free-form reply.

    Returns the content of the last well-formed <tag>...</tag> region that
    parses as JSON, code fences trimmed. Without usable tags, falls back to
    the last balanced JSON object anywhere in the response.
    """
    regions = re.findall(rf"<{re.escape(tag)}>(.*?)</{re.escape(tag)}>", response, re.DOTALL)
    for region in reversed(regions):
        candidate = _strip_fences(region.strip())
        if _parses(candidate):
            return candidate
    last = _last_balanced_object(response)
    if last is not None:
        return last
    raise NoAnswerError(f"no parseable <{tag}> answer (and no bare JSON object) in the response")


def _strip_fences(text: str) -> str:
    lines = text.splitlines()
    if lines and lines[0].lstrip().startswith("```"):
        lines = lines[1:]
    if lines and lines[-1].strip().startswith("```"):
        lines = lines[:-1]
    return "\n".join(lines).strip()


def _parses(text: str) -> bool:
    if not text:
        return False
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _last_balanced_object(text: str) -> str | None:
    decoder = json.JSONDecoder()
    last = None
    pos = 0
    while True:
        start = text.find("{", pos)
        if start < 0:
            return last
        try:
            _, end = decoder.raw_decode(text, start)
        except ValueError:
            pos = start + 1
            continue
        last = text[start:end]
        pos = end
