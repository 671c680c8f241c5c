"""HttpProvider against a chat-completions endpoint on 127.0.0.1.

Unlike the `_FakeSession` tests, these go through `requests` for real: it
encodes each body, a real socket carries it, timeouts are real and
`response.json()` reads real bytes. The endpoint replays the gold answers of
the toy fixture, so a run through it scores as a run through the mock does.
"""

from __future__ import annotations

import dataclasses
import http.server
import json
import threading

import pytest
import requests

import semchain as sc
from semchain.errors import ProviderError, ProviderTimeoutError, TransportError
from semchain.llm import STAGE_CHAIN1, STAGE_CHAIN2, STAGE_COMBINED

# A reply that comes only after the client's timeout, a body cut short of its
# Content-Length, a 200 whose body is not JSON, and a reply whose content ends
# in a lone surrogate (JSON's escape \ud800); any other fault is a (status,
# headers) pair.
SLOW = "slow"
SHORT = "short"
NOT_JSON = "not json"
SURROGATE = "surrogate"


class _Endpoint(http.server.ThreadingHTTPServer):
    """Serves a MockScript as chat completions, one fault per request while
    any are queued. A request is routed by the serialized table in its first
    user turn and by its number of turns; a first turn that is the combined
    prompt asks for the single-prompt answer."""

    daemon_threads = True

    def __init__(self, script: sc.MockScript, tables: dict[str, str], faults) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script = script
        self.tables = tables
        self.faults = list(faults)
        self.posts = 0
        self.handlers: list[threading.Thread] = []
        # Set when the test ends; a SLOW reply waits for it.
        self.released = threading.Event()
        self._lock = threading.Lock()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def process_request_thread(self, request, client_address):
        with self._lock:
            self.handlers.append(threading.current_thread())
        super().process_request_thread(request, client_address)

    def next_fault(self):
        with self._lock:
            self.posts += 1
            return self.faults.pop(0) if self.faults else None

    def reply(self, messages: list[dict]) -> str:
        turns = messages[1:]
        (source_id,) = [sid for sid, text in self.tables.items() if text in turns[0]["content"]]
        stage = {1: STAGE_CHAIN1, 3: STAGE_CHAIN2}[len(turns)]
        combined = sc.build_combined_prompt(sc.SerializedTable(self.tables[source_id], 0))
        if turns[0]["content"] == combined:
            stage = STAGE_COMBINED
        return self.script.responses[(source_id, stage)]


class _Handler(http.server.BaseHTTPRequestHandler):
    server: _Endpoint

    def do_POST(self) -> None:
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        fault = self.server.next_fault()
        if fault == SLOW:
            self.server.released.wait()
            return
        if fault == NOT_JSON:
            self._send(200, b"<html>busy</html>", {"Content-Type": "text/html"})
            return
        if fault not in (None, SHORT, SURROGATE):
            status, headers = fault
            self._send(status, b"busy", headers)
            return
        content = self.server.reply(request["messages"]) + ("\ud800" if fault == SURROGATE else "")
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()
        self._send(200, body, {"Content-Type": "application/json"}, cut=fault == SHORT)

    def _send(self, status: int, body: bytes, headers, cut: bool = False) -> None:
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(body))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body[: len(body) // 2] if cut else body)

    def log_message(self, format, *args) -> None:
        pass


@pytest.fixture
def endpoint(toy_golds, toy_tables):
    """Starts endpoints with the given faults; each is shut down, closed and
    its handler threads joined when the test ends."""
    started = []

    def start(*faults) -> _Endpoint:
        tables = {sid: sc.serialize_table(table).text for sid, table in toy_tables.items()}
        server = _Endpoint(sc.MockScript.from_gold(toy_golds), tables, faults)
        # A short poll, because shutdown() waits for the next one.
        serving = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        serving.start()
        started.append((server, serving))
        return server

    yield start
    for server, serving in started:
        server.released.set()
        server.shutdown()
        serving.join()
        server.server_close()
        for handler in server.handlers:
            handler.join(timeout=10)
        assert not any(handler.is_alive() for handler in server.handlers)


@pytest.fixture
def session():
    # No proxy variable may reroute loopback traffic.
    with requests.Session() as session:
        session.trust_env = False
        yield session


@pytest.fixture(autouse=True)
def _api_key(monkeypatch):
    monkeypatch.setenv("SEMCHAIN_TEST_KEY", "k")


def _provider(server: _Endpoint, session, sleep=lambda s: None, **overrides) -> sc.HttpProvider:
    params = dict(base_url=server.base_url, model_name="toy", api_key_env="SEMCHAIN_TEST_KEY", timeout=10.0)
    params.update(overrides)
    return sc.HttpProvider(sc.ProviderConfig(**params), session=session, sleep=sleep)


def _ask(provider: sc.HttpProvider, toy_tables) -> sc.Completion:
    turn = sc.Message("user", sc.serialize_table(toy_tables["artists"]).text)
    return provider.complete("system", [turn])


def test_a_toy_experiment_over_http_scores_as_over_the_mock(endpoint, session, toy_config, tmp_path):
    server = endpoint()
    over_http = sc.run_experiment(toy_config(out_dir=tmp_path / "http"), _provider(server, session))
    over_mock = sc.run_experiment(toy_config(out_dir=tmp_path / "mock"))

    def scores(report):
        return [dataclasses.replace(row, latency_ms=0.0) for row in report.rows]

    assert scores(over_http) == scores(over_mock)
    assert over_http.aggregates == over_mock.aggregates
    assert not over_http.has_failures()
    assert server.posts == 2 * len({row.source_id for row in over_http.rows})


def test_a_429_with_retry_after_zero_waits_zero_seconds(endpoint, session, toy_tables):
    slept = []
    server = endpoint((429, {"Retry-After": "0"}))
    completion = _ask(_provider(server, session, sleep=slept.append), toy_tables)
    assert slept == [0]
    assert server.posts == 2
    assert completion.text == server.script.responses[("artists", STAGE_CHAIN1)]


def test_a_5xx_on_every_attempt_is_a_provider_error(endpoint, session, toy_tables):
    server = endpoint(*[(500, {})] * 3)
    with pytest.raises(ProviderError, match="HTTP 500: busy"):
        _ask(_provider(server, session, max_retries=2), toy_tables)
    assert server.posts == 3


def test_a_reply_slower_than_the_timeout_is_a_timeout_error(endpoint, session, toy_tables):
    server = endpoint(SLOW)
    with pytest.raises(ProviderTimeoutError):
        _ask(_provider(server, session, max_retries=0, timeout=0.2), toy_tables)
    assert server.posts == 1


def test_a_body_shorter_than_its_content_length_is_a_transport_error(endpoint, session, toy_tables):
    server = endpoint(SHORT, SHORT)
    with pytest.raises(TransportError, match="ChunkedEncodingError"):
        _ask(_provider(server, session, max_retries=1), toy_tables)
    assert server.posts == 2

    server = endpoint(SHORT)
    completion = _ask(_provider(server, session), toy_tables)
    assert completion.text == server.script.responses[("artists", STAGE_CHAIN1)]
    assert server.posts == 2


def test_a_200_whose_body_is_not_json_fails_only_its_source(endpoint, session, toy_config, toy_tables):
    server = endpoint(NOT_JSON)
    with pytest.raises(ProviderError, match="^malformed provider response: "):
        _ask(_provider(server, session), toy_tables)
    assert server.posts == 1

    server = endpoint(NOT_JSON)
    report = sc.run_experiment(toy_config(), _provider(server, session))
    failed = {row.source_id for row in report.rows if row.error}
    assert len(failed) == 1
    assert all(row.error.startswith("ProviderError: malformed provider response: ") for row in report.rows if row.error)
    assert {row.source_id for row in report.rows} - failed
    # The failed source asked once and never reached chain2.
    assert server.posts == 2 * len({row.source_id for row in report.rows}) - 1


def test_a_reply_holding_a_lone_surrogate_is_written_as_its_escape(endpoint, session, toy_config):
    server = endpoint(SURROGATE)
    config = toy_config(max_workers=1)
    report = sc.run_experiment(config, _provider(server, session))
    assert not report.has_failures()
    transcripts = {path.parent.name: path.read_bytes() for path in config.out_dir.glob("sources/*/transcript.jsonl")}
    ((sid, raw),) = [(sid, raw) for sid, raw in transcripts.items() if b"\\ud800" in raw]
    replies = [json.loads(line)["turns"][-1]["content"] for line in raw.decode("utf-8").splitlines()]
    assert replies[0].endswith("\ud800")
    assert replies[0][:-1] == server.script.responses[(sid, STAGE_CHAIN1)]


def test_a_live_ablation_builds_one_provider_and_one_rate_limiter(endpoint, monkeypatch, toy_config, tmp_path):
    from semchain import harness, llm

    # The provider run_ablation builds opens its own session, which no proxy
    # variable may reroute.
    for name in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    built = {"providers": [], "limiters": 0}

    class Provider(sc.HttpProvider):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["providers"].append(self)

    class Limiter(sc.RateLimiter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["limiters"] += 1

    monkeypatch.setattr(harness, "HttpProvider", Provider)
    monkeypatch.setattr(llm, "RateLimiter", Limiter)
    server = endpoint()
    spec = {"kind": "http", "base_url": server.base_url, "model_name": "toy", "api_key_env": "SEMCHAIN_TEST_KEY"}
    try:
        over_http = sc.run_ablation(toy_config(out_dir=tmp_path / "http", provider=spec))
    finally:
        for provider in built["providers"]:
            provider._session.close()
    over_mock = sc.run_ablation(toy_config(out_dir=tmp_path / "mock"))
    assert (len(built["providers"]), built["limiters"]) == (1, 1)
    assert over_http == over_mock
    assert (tmp_path / "http" / "ablation.csv").read_bytes() == (tmp_path / "mock" / "ablation.csv").read_bytes()
