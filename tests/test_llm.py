from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import urllib.error
from dataclasses import dataclass
from pathlib import Path

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
    TransportError,
)
from semchain.llm import _tagged_regions
from helpers import bfs_connected_instances


def _extracted(text: str, tag: str):
    """The decoded answer, checked against a decode of the answer text."""
    answer, value = extract_tagged_json(text, tag)
    assert json.loads(answer) == value
    return value


class TestExtraction:
    def test_tagged_answer(self):
        text = 'thinking...\n<Step1>{"semantic_triples": []}</Step1>'
        assert _extracted(text, "Step1") == {"semantic_triples": []}

    def test_last_tagged_block_wins(self):
        text = (
            '<Step2>{"semantic_triples": [], "internal_link_triples": []}</Step2>\n'
            'wait, correcting myself:\n'
            '<Step2>{"semantic_triples": [["A1", "p", "x"]], "internal_link_triples": []}</Step2>'
        )
        extracted = _extracted(text, "Step2")
        assert extracted["semantic_triples"] == [["A1", "p", "x"]]

    def test_fenced_json_inside_tags(self):
        text = '<Step1>\n```json\n{"semantic_triples": []}\n```\n</Step1>'
        assert _extracted(text, "Step1") == {"semantic_triples": []}

    def test_untagged_fenced_fallback(self):
        text = 'Here are the labels:\n```json\n{"semantic_triples": [["A1", "p", "x"]]}\n```\n'
        assert _extracted(text, "Step1") == {
            "semantic_triples": [["A1", "p", "x"]]
        }

    def test_fallback_takes_last_object_not_inner_one(self):
        text = '{"first": 1} and later {"outer": {"inner": 2}}'
        assert _extracted(text, "Step1") == {"outer": {"inner": 2}}

    def test_malformed_tag_content_falls_back(self):
        text = '<Step1>not json</Step1> trailing {"semantic_triples": []}'
        assert _extracted(text, "Step1") == {"semantic_triples": []}

    def test_no_answer_raises(self):
        with pytest.raises(NoAnswerError):
            extract_tagged_json("no json anywhere", "Step1")

    @pytest.mark.parametrize(
        "reply",
        [
            "<Step1>" + "[" * 100_000 + "]" * 100_000 + "</Step1>",
            "prose " + '{"a": ' * 100_000 + "1" + "}" * 100_000,
        ],
        ids=["tagged", "bare"],
    )
    def test_a_reply_nested_too_deeply_is_one_no_answer_error(self, reply):
        # Retrying from each "{" of a 600 KB reply took seconds.
        started = time.perf_counter()
        with pytest.raises(NoAnswerError, match="<Step1> answer nested too deeply"):
            extract_tagged_json(reply, "Step1")
        assert time.perf_counter() - started < 1.0

    def test_unclosed_tags_are_scanned_in_linear_time(self):
        # The lazy regex rescanned the rest of the reply from each opening tag.
        started = time.perf_counter()
        with pytest.raises(NoAnswerError):
            extract_tagged_json("<Step2>" * 20_000, "Step2")
        assert time.perf_counter() - started < 1.0

    def test_tag_scan_agrees_with_the_lazy_regex(self):
        def by_regex(text, tag):
            return re.findall(rf"<{re.escape(tag)}>(.*?)</{re.escape(tag)}>", text, re.DOTALL)

        pieces = [
            "<Step1>", "</Step1>", "<Step2>", "</Step2>", "<Step1", "Step1>", "</Step", "<",
            "```json", "```", '{"semantic_triples": []}', '{"a": [1, 2]}', "{broken", "prose", "\n",
        ]
        rng = random.Random(12)
        for _ in range(5000):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 14)))
            for tag in ("Step1", "Step2"):
                assert _tagged_regions(text, tag) == by_regex(text, tag), (text, tag)

    def test_extraction_result_always_parses(self):
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
                _extracted(text, "Step1")
            except NoAnswerError:
                continue


class TestMockProvider:
    def test_scripted_identity(self, toy_golds):
        provider = MockProvider(MockScript.from_gold(toy_golds))
        reply = provider.complete(
            "sys", [Message("user", "u")], tags={"source_id": "artists", "stage": "chain2"}
        )
        model = parse_model(extract_tagged_json(reply.text, "Step2")[0])
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
        model = parse_model(extract_tagged_json(reply.text, "Step2")[0])
        assert model.size() == gold.size() - 2
        assert model.semantic_triples <= gold.semantic_triples
        assert model.internal_link_triples <= gold.internal_link_triples

    def test_injected_instances_are_disconnected(self, toy_golds, toy_tables):
        spec = CorruptionSpec(inject_instances=2, seed=1)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        reply = provider.complete(
            "s", [], tags={"source_id": "artists", "stage": "chain2"}
        )
        model = parse_model(extract_tagged_json(reply.text, "Step2")[0])
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
        labels = _extracted(reply.text, "Step1")
        renamed = [t for t in labels["semantic_triples"] if t[1].endswith("_renamed")]
        assert len(renamed) == 1

    def test_corruption_can_target_one_stage(self, toy_golds):
        spec = CorruptionSpec(drop_triples=1, stages=frozenset({"combined"}), seed=3)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        clean = provider.complete("s", [], tags={"source_id": "artists", "stage": "chain2"})
        model = parse_model(extract_tagged_json(clean.text, "Step2")[0])
        assert model == toy_golds["artists"]

    def test_a_sources_replies_do_not_depend_on_the_other_golds(self, toy_golds):
        spec = CorruptionSpec(drop_triples=1, inject_instances=2, rename_properties=1, seed=5)
        everyone = MockScript.from_gold(toy_golds, spec).responses
        for sid, gold in toy_golds.items():
            alone = MockScript.from_gold({sid: gold}, spec).responses
            assert alone == {key: text for key, text in everyone.items() if key[0] == sid}
            assert len(alone) == 3

    def test_two_builds_are_equal(self, toy_golds):
        spec = CorruptionSpec(drop_triples=2, inject_instances=3, rename_properties=2, seed=11)
        assert MockScript.from_gold(toy_golds, spec) == MockScript.from_gold(toy_golds, spec)

    def test_corrupted_replies_match_their_pinned_digest(self, toy_golds):
        # Pins the seeding, the damage, its rendering and, in a combined
        # reply, Step1 drawing from the stage's RNG before Step2.
        spec = CorruptionSpec(drop_triples=1, inject_instances=2, rename_properties=1, seed=5)
        provider = MockProvider(MockScript.from_gold(toy_golds, spec))
        texts = [
            provider.complete("s", [], tags={"source_id": sid, "stage": stage}).text
            for sid in sorted(toy_golds)
            for stage in ("chain1", "chain2", "combined")
        ]
        digest = hashlib.sha256(json.dumps(texts).encode("utf-8")).hexdigest()
        assert digest == "9b708498e832fa72f584015e454d92014414c9f24fc6f0d16a6619b3eaa4d252"

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
    """A reply as an opener hands it over: a status, headers and a body to read."""

    def __init__(self, status, payload=None, text="", headers=None):
        self.status = status
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def read(self):
        return (self.text if self._payload is None else json.dumps(self._payload)).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


@dataclass
class _FakeOpener:
    responses: list
    posts: int = 0

    def open(self, request, timeout=None):
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


def _provider(responses, sleep=lambda s: None, **overrides):
    clockbox = [0.0]

    def clock():
        clockbox[0] += 0.001
        return clockbox[0]

    return HttpProvider(_config(**overrides), opener=_FakeOpener(responses), clock=clock, sleep=sleep)


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

    def test_key_is_read_once_when_the_provider_is_built(self, monkeypatch):
        provider = _provider([_ok_response()])
        monkeypatch.delenv("SEMCHAIN_TEST_KEY")
        assert provider.complete("s", []).text == "hello"

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
        # A timeout while reading, and one while connecting, which urllib wraps.
        for timeout in (TimeoutError("t"), urllib.error.URLError(TimeoutError("t"))):
            with pytest.raises(ProviderTimeoutError):
                _provider([timeout] * 3).complete("s", [])

    def test_transport_errors_retry_then_exhaust_into_provider_error(self):
        for failure, name in (
            (http.client.IncompleteRead(b"cut"), "IncompleteRead"),
            (ConnectionResetError("reset"), "ConnectionResetError"),
            (urllib.error.URLError(ConnectionRefusedError("refused")), "ConnectionRefusedError"),
        ):
            provider = _provider([failure, _ok_response()])
            assert provider.complete("s", []).text == "hello"

            provider = _provider([failure] * 3)
            with pytest.raises(ProviderError, match=f"transport failures .*{name}") as caught:
                provider.complete("s", [])
            assert type(caught.value) is TransportError
            assert provider._opener.posts == 3

    def test_transport_error_while_reading_the_body_is_retried(self):
        class _CutResponse(_FakeResponse):
            def read(self):
                raise http.client.IncompleteRead(b"body", 10)

        provider = _provider([_CutResponse(200), _ok_response()])
        assert provider.complete("s", []).text == "hello"
        assert provider._opener.posts == 2

    @pytest.mark.parametrize(
        "body", ['{"choices": [', "[" * 100_000 + "]" * 100_000], ids=["malformed", "nested"]
    )
    def test_a_body_that_cannot_be_decoded_is_a_provider_error(self, body):
        provider = _provider([_FakeResponse(200, text=body)])
        with pytest.raises(ProviderError, match="malformed provider response"):
            provider.complete("s", [])
        assert provider._opener.posts == 1

    @pytest.mark.parametrize("content", [None, 7, ["hello"], {"text": "hello"}])
    def test_content_that_is_not_text_is_a_provider_error(self, content):
        with pytest.raises(ProviderError, match="malformed provider response"):
            _provider([_ok_response(content=content)]).complete("s", [])

    @pytest.mark.parametrize(
        "usage",
        [
            "lots",
            ["10", "5"],
            {"prompt_tokens": "many", "completion_tokens": 5},
            {"prompt_tokens": 10, "completion_tokens": 2.5},
            {"prompt_tokens": 10, "completion_tokens": True},
            {"prompt_tokens": 10},
            {"prompt_tokens": -5, "completion_tokens": 5},
        ],
    )
    def test_usage_without_integer_counts_falls_back_to_the_whitespace_count(self, usage):
        response = _ok_response(content="two words", usage=False)
        response._payload["usage"] = usage
        completion = _provider([response]).complete("the system", [Message("user", "hi there you")])
        assert completion.usage == TokenUsage(5, 2)

    @pytest.mark.parametrize(
        "failures, waits",
        [
            ([(429, "7"), (503, "7")], [7, 7]),
            ([(429, "0"), (503, None)], [0, 2.0]),
            ([(503, " 120 "), (429, "30")], [30.0, 30]),
            ([(429, None), (503, None)], [1.0, 2.0]),
            ([(429, "Wed, 21 Oct 2015 25:61:00 GMT"), (503, "1.5")], [1.0, 2.0]),
            ([(429, "Sun, 21 Oct 1990 07:28:00 GMT"), (503, "Sunday, 21-Oct-90 07:28:00 GMT")], [0, 0]),
            ([(503, "Fri, 01 Jan 2100 00:00:00 GMT"), (429, "Fri Jan  1 00:00:00 2100")], [30, 30]),
            ([(429, "-1"), (503, "\N{SUPERSCRIPT TWO}")], [1.0, 2.0]),
            ([(500, "7"), (502, "7")], [1.0, 2.0]),
            ([(429, "9" * 5000)], [30]),
        ],
        ids=[
            "present",
            "zero-then-absent",
            "capped",
            "absent",
            "date-or-fraction",
            "past-date",
            "future-date",
            "signed-or-not-ascii",
            "other-5xx",
            "over-4300-digits",
        ],
    )
    def test_retry_after_delay_seconds_replace_the_backoff_step(self, failures, waits):
        slept = []
        responses = [
            _FakeResponse(status, text="busy", headers={} if header is None else {"Retry-After": header})
            for status, header in failures
        ]
        provider = _provider(responses + [_ok_response()], sleep=slept.append)
        assert provider.complete("s", []).text == "hello"
        assert slept == waits

    def test_non_2xx_fails_fast(self):
        provider = _provider([_FakeResponse(404, text="missing")])
        with pytest.raises(ProviderError):
            provider.complete("s", [])
        assert provider._opener.posts == 1


class TestHttpStackIsImportedOnlyForHttp:
    """Fresh interpreters, because this test process has loaded the HTTP stack already."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def _loaded_http_stack(self, code: str, tmp_path: Path) -> str:
        """Which of `http.client` and `urllib.request` running `code` loads."""
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        code += "\nprint(sorted({'http.client', 'urllib.request'} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_importing_the_package_leaves_the_http_stack_unloaded(self, tmp_path):
        assert self._loaded_http_stack("import sys, semchain", tmp_path) == "[]"

    def test_an_offline_experiment_leaves_the_http_stack_unloaded(self, toy_dir, tmp_path):
        config = {
            "sources_dir": str(toy_dir / "sources"),
            "ontology_path": str(toy_dir / "ontology.json"),
            "gold_dir": str(toy_dir / "gold"),
            "out_dir": str(tmp_path / "out"),
            "provider": {"kind": "mock"},
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = (
            "import runpy, sys\n"
            "sys.argv = ['semchain', 'experiment', '--config', 'config.json']\n"
            "try:\n"
            "    runpy.run_module('semchain', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0, done.code"
        )
        assert self._loaded_http_stack(code, tmp_path) == "[]"
        assert (tmp_path / "out" / "report.csv").is_file()

    def test_building_an_http_provider_loads_the_http_stack(self, tmp_path):
        code = (
            "import sys\n"
            "from semchain import HttpProvider, ProviderConfig\n"
            "assert 'urllib.request' not in sys.modules\n"
            "HttpProvider(ProviderConfig(base_url='http://127.0.0.1:9/v1', model_name='m', api_key_env='SEMCHAIN_TEST_KEY'))"
        )
        assert self._loaded_http_stack(code, tmp_path) == "['http.client', 'urllib.request']"


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
        ProviderConfig(base_url="http://localhost", model_name="m", temperature=-0.1)
    with pytest.raises(ValueError):
        ProviderConfig(base_url="http://localhost", model_name="m", timeout=0)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"max_tokens": 0}, "max_tokens must be >= 1"),
        ({"temperature": math.inf}, "temperature must be a finite number, got inf"),
        ({"temperature": math.nan}, "temperature must be a finite number, got nan"),
        ({"timeout": math.nan}, "timeout must be a finite number, got nan"),
        ({"timeout": math.inf}, "timeout must be a finite number, got inf"),
    ],
    ids=["max-tokens-zero", "temperature-infinity", "temperature-nan", "timeout-nan", "timeout-infinity"],
)
def test_provider_config_rejects_unusable_numbers(setting, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProviderConfig(base_url="http://localhost", model_name="m", **setting)


@pytest.mark.parametrize(
    "base_url", ["x", "api.example.com/v1", "ftp://example.com", "http://", "https://:443/v1", "http://[::1"]
)
def test_base_url_must_be_an_http_url_with_a_host(base_url):
    with pytest.raises(ValueError, match="^base_url must be an http or https URL with a host"):
        ProviderConfig(base_url=base_url, model_name="m")


@pytest.mark.parametrize(
    "base_url, bad",
    [
        ("http://127.0.0.1:9/v 1", " "),
        ("http://127.0.0.1:9/v1\t", "\t"),
        ("http://127.0.0.1:9/v1\n", "\n"),
        ("http://127.0.0.1:9/v\x7f1", "\x7f"),
        ("http://127.0.0.1:9/v\u00a01", "\u00a0"),
        ("http://127.0.0.1:9/v\u00e9", "\u00e9"),
    ],
    ids=["space", "tab", "newline", "delete", "no-break-space", "non-ascii"],
)
def test_base_url_must_be_printable_ascii_with_no_space(base_url, bad):
    with pytest.raises(ValueError, match=re.escape(f"base_url must be printable ASCII with no space, got {bad!r}")):
        ProviderConfig(base_url=base_url, model_name="m")


@pytest.mark.parametrize("base_url", ["http://localhost:8000", "HTTPS://api.example.com/v1/", "http://[::1]/v1"])
def test_http_urls_with_a_host_are_accepted(base_url):
    assert ProviderConfig(base_url=base_url, model_name="m").base_url == base_url
