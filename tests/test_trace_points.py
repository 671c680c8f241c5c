"""The benchmark in perfbench/ traces the program by patching names on its
modules; a refactor that drops one of those names breaks the benchmark."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from semchain import chain, harness  # noqa: E402


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
