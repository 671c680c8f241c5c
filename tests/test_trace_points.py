"""The benchmark in perfbench/ traces the program by patching names on its
modules; a refactor that drops one of those names breaks the benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from semchain import MockProvider, MockScript, chain, harness  # noqa: E402


class _StubProvider:
    def complete(self, system, turns, *, tags=None):
        raise AssertionError("not called")

    def wait(self, seconds):
        pass


def test_every_benchmark_trace_point_exists_and_is_restored():
    originals = (harness.run_chain, harness.parse_source, chain.serialize_table, chain.extract_tagged_json)
    tracer = spans.Tracer()
    try:
        run._install_trace_points(tracer, _StubProvider())
        assert harness.run_chain is not originals[0]
    finally:
        tracer.restore()
    assert (harness.run_chain, harness.parse_source, chain.serialize_table, chain.extract_tagged_json) == originals


def test_ablation_enters_run_experiment_once_before_any_provider_call(monkeypatch, toy_config, toy_golds):
    # perfbench starts its set-up clock on each entry to harness.run_experiment
    # and stops it at the next provider call: an ablation call times one set-up.
    inner = harness.run_experiment
    events = []

    def counted(*args, **kwargs):
        events.append(args[0].out_dir.name)
        return inner(*args, **kwargs)

    class _Logged(MockProvider):
        def complete(self, system, turns, *, tags=None):
            events.append("provider call")
            return super().complete(system, turns, tags=tags)

    monkeypatch.setattr(harness, "run_experiment", counted)
    harness.run_ablation(toy_config(), _Logged(MockScript.from_gold(toy_golds)))
    assert [event for event in events if event != "provider call"] == ["single-prompt"]
    assert events[0] == "single-prompt"


def test_prepare_experiment_parses_through_the_harness_trace_point(monkeypatch, toy_config, toy_dir):
    inner = harness.parse_source
    parsed = []

    def counted(raw_bytes, fmt, source_id, record_cap=None):
        parsed.append(source_id)
        return inner(raw_bytes, fmt, source_id, record_cap)

    monkeypatch.setattr(harness, "parse_source", counted)
    harness.prepare_experiment(toy_config())
    assert sorted(parsed) == sorted(p.stem for p in (toy_dir / "sources").iterdir())
