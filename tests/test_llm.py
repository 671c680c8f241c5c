from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from semchain import (
    ChatExchange,
    CorruptionSpec,
    HttpProvider,
    Message,
    MockProvider,
    MockScript,
    ProviderConfig,
    RateLimiter,
    TokenUsage,
    extract_tagged_json,
    parse_model,
)
from semchain.errors import (
    AuthError,
    NoAnswerError,
    ProviderError,
    ProviderTimeoutError,
    RateLimitExhaustedError,
)
from helpers import bfs_connected_instances


class TestExtraction:
    def test_tagged_answer(self):
        text = 'thinking...\n<Step1>{"semantic_triples": []}</Step1>'
        assert json.loads(extract_tagged_json(text, "Step1")) == {"semantic_triples": []}

    def test_last_tagged_block_wins(self):
        text = (
            '<Step2>{"semantic_triples": [], "internal_link_triples": []}</Step2>\n'
            'wait, correcting myself:\n'
            '<Step2>{"semantic_triples": [["A1", "p", "x"]], "internal_link_triples": []}</Step2>'
        )
        extracted = json.loads(extract_tagged_json(text, "Step2"))
        assert extracted["semantic_triples"] == [["A1", "p", "x"]]

    def test_fenced_json_inside_tags(self):
        text = '<Step1>\n```json\n{"semantic_triples": []}\n```\n</Step1>'
        assert json.loads(extract_tagged_json(text, "Step1")) == {"semantic_triples": []}

    def test_untagged_fenced_fallback(self):
        text = 'Here are the labels:\n```json\n{"semantic_triples": [["A1", "p", "x"]]}\n```\n'
        assert json.loads(extract_tagged_json(text, "Step1")) == {
            "semantic_triples": [["A1", "p", "x"]]
        }

    def test_fallback_takes_last_object_not_inner_one(self):
        text = '{"first": 1} and later {"outer": {"inner": 2}}'
        assert json.loads(extract_tagged_json(text, "Step1")) == {"outer": {"inner": 2}}

    def test_malformed_tag_content_falls_back(self):
        text = '<Step1>not json</Step1> trailing {"semantic_triples": []}'
        assert json.loads(extract_tagged_json(text, "Step1")) == {"semantic_triples": []}

    def test_no_answer_raises(self):
        with pytest.raises(NoAnswerError):
            extract_tagged_json("no json anywhere", "Step1")

    def test_extraction_result_always_parses(self):
        import random
        import string

        rng = random.Random(6)
        pieces = [
            "prose and more prose",
            '{"semantic_triples": []}',
            "<Step1>",
            "</Step1>",
            "{broken",
            "```json",
            "```",
            '{"a": {"b": [1, 2]}}',
        ]
        for _ in range(300):
            text = "\n".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
            text += "".join(rng.choices(string.printable[:70], k=rng.randint(0, 20)))
            try:
                extracted = extract_tagged_json(text, "Step1")
            except NoAnswerError:
                continue
            json.loads(extracted)


class TestMockProvider:
    def test_scripted_identity(self, toy_golds):
        provider = MockProvider(MockScript.from_gold(toy_golds))
        reply = provider.complete(
            "sys", [Message("user", "u")], tags={"source_id": "artists", "stage": "chain2"}
        )
        model = parse_model(extract_tagged_json(reply.text, "Step2"))
        assert model == toy_golds["artists"]
        assert provider.calls == [("artists", "chain2")]

    def test_missing_script_entry(self, toy_golds):
        provider = MockProvider(MockScript.from_gold(toy_golds))
        with pytest.raises(ProviderError):
            provider.complete("s", [], tags={"source_id": "ghost", "stage": "chain1"})
        with pytest.raises(ProviderError):
            provider.complete("s", [], tags={})

    def test_corruption_is_deterministic(self, toy_golds):
        spec = CorruptionSpec(drop_triples=1, seed=2023)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        tags = {"source_id": "artworks", "stage": "chain2"}
        replies = {provider.complete("s", [], tags=tags).text for _ in range(10)}
        assert len(replies) == 1

    def test_drop_removes_exactly_k_triples(self, toy_golds):
        gold = toy_golds["artworks"]
        spec = CorruptionSpec(drop_triples=2, seed=7)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        reply = provider.complete(
            "s", [], tags={"source_id": "artworks", "stage": "chain2"}
        )
        model = parse_model(extract_tagged_json(reply.text, "Step2"))
        assert model.size() == gold.size() - 2
        assert model.semantic_triples <= gold.semantic_triples
        assert model.internal_link_triples <= gold.internal_link_triples

    def test_injected_instances_are_disconnected(self, toy_golds, toy_tables):
        spec = CorruptionSpec(inject_instances=2, seed=1)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        reply = provider.complete(
            "s", [], tags={"source_id": "artists", "stage": "chain2"}
        )
        model = parse_model(extract_tagged_json(reply.text, "Step2"))
        gold = toy_golds["artists"]
        assert len(model.instances()) == len(gold.instances()) + 2
        attrs = set(toy_tables["artists"].attributes)
        connected = bfs_connected_instances(model, attrs)
        injected = {i.render() for i in model.instances()} - {i.render() for i in gold.instances()}
        assert len(injected) == 2
        assert injected.isdisjoint(connected)

    def test_rename_changes_properties(self, toy_golds):
        spec = CorruptionSpec(rename_properties=1, seed=5)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        reply = provider.complete("s", [], tags={"source_id": "collection", "stage": "chain1"})
        labels = json.loads(extract_tagged_json(reply.text, "Step1"))
        renamed = [t for t in labels["semantic_triples"] if t[1].endswith("_renamed")]
        assert len(renamed) == 1

    def test_corruption_can_target_one_stage(self, toy_golds):
        spec = CorruptionSpec(drop_triples=1, stages=frozenset({"combined"}), seed=3)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        clean = provider.complete("s", [], tags={"source_id": "artists", "stage": "chain2"})
        model = parse_model(extract_tagged_json(clean.text, "Step2"))
        assert model == toy_golds["artists"]

    def test_single_instance_injection_rejected(self):
        with pytest.raises(ValueError):
            CorruptionSpec(inject_instances=1)


class TestRateLimiter:
    def test_concurrent_callers_are_paced(self):
        import threading

        lock = threading.Lock()
        now = [0.0]

        def clock():
            with lock:
                return now[0]

        def sleep(seconds):
            with lock:
                now[0] += seconds

        limiter = RateLimiter(60, clock=clock, sleep=sleep)

        def worker():
            for _ in range(30):
                limiter.acquire()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        # 120 grants at 60/min need a second window, so >= 60 virtual seconds
        # must have elapsed; anything far beyond two windows means over-waiting.
        assert 60.0 <= now[0] <= 180.0

    def test_window_property_under_virtual_clock(self):
        now = [0.0]
        grants = []

        def clock():
            return now[0]

        def sleep(seconds):
            now[0] += seconds

        limiter = RateLimiter(60, clock=clock, sleep=sleep)
        for _ in range(150):
            limiter.acquire()
            grants.append(now[0])
        for i, start in enumerate(grants):
            in_window = [g for g in grants if start <= g < start + 60.0]
            assert len(in_window) <= 60
        assert now[0] > 0  # the limiter actually had to wait


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


@dataclass
class _FakeSession:
    responses: list
    posts: int = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok_response(content="hello", usage=True):
    payload = {"choices": [{"message": {"content": content}}]}
    if usage:
        payload["usage"] = {"prompt_tokens": 10, "completion_tokens": 5}
    return _FakeResponse(200, payload)


def _config(**overrides):
    params = dict(
        base_url="https://example.test/v1",
        model_name="test-model",
        api_key_env="SEMCHAIN_TEST_KEY",
        max_retries=2,
        timeout=1.0,
    )
    params.update(overrides)
    return ProviderConfig(**params)


@pytest.fixture(autouse=True)
def _api_key(monkeypatch):
    monkeypatch.setenv("SEMCHAIN_TEST_KEY", "k")


def _provider(responses, **overrides):
    clockbox = [0.0]

    def clock():
        clockbox[0] += 0.001
        return clockbox[0]

    return HttpProvider(_config(**overrides), session=_FakeSession(responses), clock=clock, sleep=lambda s: None)


class TestHttpProvider:
    def test_success_parses_text_and_usage(self):
        provider = _provider([_ok_response()])
        completion = provider.complete("sys", [Message("user", "hi")])
        assert completion.text == "hello"
        assert completion.usage == TokenUsage(10, 5)

    def test_missing_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("SEMCHAIN_TEST_KEY")
        with pytest.raises(AuthError):
            _provider([_ok_response()]).complete("s", [])

    def test_unauthorized_is_auth_error(self):
        with pytest.raises(AuthError):
            _provider([_FakeResponse(401, text="nope")]).complete("s", [])

    def test_server_errors_retry_then_succeed(self):
        provider = _provider([_FakeResponse(500, text="boom"), _ok_response()])
        assert provider.complete("s", []).text == "hello"

    def test_rate_limit_exhaustion(self):
        responses = [_FakeResponse(429, text="slow down")] * 3
        with pytest.raises(RateLimitExhaustedError):
            _provider(responses).complete("s", [])

    def test_timeouts_exhaust_into_timeout_error(self):
        import requests

        responses = [requests.Timeout("t")] * 3
        with pytest.raises(ProviderTimeoutError):
            _provider(responses).complete("s", [])

    def test_transport_errors_retry_then_exhaust_into_provider_error(self):
        import requests

        provider = _provider([requests.exceptions.ChunkedEncodingError("cut"), _ok_response()])
        assert provider.complete("s", []).text == "hello"

        responses = [requests.exceptions.ChunkedEncodingError("cut")] * 3
        provider = _provider(responses)
        with pytest.raises(ProviderError, match="transport") as caught:
            provider.complete("s", [])
        assert type(caught.value) is ProviderError
        assert provider._session.posts == 3

    def test_transport_error_while_reading_the_body_is_retried(self):
        import requests

        class _CutResponse(_FakeResponse):
            def json(self):
                raise requests.exceptions.ChunkedEncodingError("body cut")

        provider = _provider([_CutResponse(200), _ok_response()])
        assert provider.complete("s", []).text == "hello"
        assert provider._session.posts == 2

    def test_non_2xx_fails_fast(self):
        provider = _provider([_FakeResponse(404, text="missing")])
        with pytest.raises(ProviderError):
            provider.complete("s", [])
        assert provider._session.posts == 1


def test_chat_exchange_validates_alternation():
    ChatExchange("s", (Message("user", "u"), Message("assistant", "a")), TokenUsage(1, 1), 0.0)
    with pytest.raises(ValueError):
        ChatExchange("s", (Message("assistant", "a"),), TokenUsage(1, 1), 0.0)
    with pytest.raises(ValueError):
        ChatExchange(
            "s", (Message("user", "u"), Message("user", "u")), TokenUsage(1, 1), 0.0
        )


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(base_url="x", model_name="m", temperature=-0.1)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="x", model_name="m", timeout=0)
