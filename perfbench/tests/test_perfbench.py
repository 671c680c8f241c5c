"""Tests for the benchmark itself: generator, checker, providers and tracer."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import datagen  # noqa: E402
import providers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import semchain as sc  # noqa: E402

SMALL = datagen.Shape(sources=6, attributes=6, rows=4, nesting=2, instances_per_class=(2, 2, 1))


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    datagen.write_dataset(tmp_path / "a", SMALL, 7)
    datagen.write_dataset(tmp_path / "b", SMALL, 7)
    datagen.write_dataset(tmp_path / "c", SMALL, 8)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_generated_golds_are_acyclic_and_pass_lint_l1(tmp_path):
    shape = datagen.Shape(sources=4, attributes=10, rows=3, instance_overrides={1: (4, 3, 2)})
    datagen.write_dataset(tmp_path, shape, 3)
    tables = sc.load_tables(tmp_path / "sources")
    golds = sc.load_gold_models(tmp_path / "gold")
    sc.parse_ontology((tmp_path / "ontology.json").read_text(encoding="utf-8"))
    assert {t.format.value for t in tables.values()} == set(datagen.FORMATS)
    for sid, gold in golds.items():
        assert not [d for d in sc.lint_gold(gold, tables[sid]).diagnostics if d.rule == "L1"]
        assert sc.depth(gold) >= 1  # raises CyclicModelError on a cycle
        assert len(tables[sid].records) == 3
    assert {i.class_name for i in golds["s0001"].instances()} == {
        datagen.class_name(k) for k in range(1, 4)
    }


def _experiment(tmp_path, models):
    config = sc.ExperimentConfig(
        sources_dir=tmp_path / "sources",
        ontology_path=tmp_path / "ontology.json",
        gold_dir=tmp_path / "gold",
        out_dir=tmp_path / "out",
        random_state=5,
        max_workers=1,
    )
    sc.run_experiment(config, providers.BenchProvider(sc.MockScript.from_gold(models)))
    return config.out_dir


def test_checker_passes_gold_replay_and_flags_an_underscored_source(tmp_path):
    datagen.write_dataset(tmp_path, SMALL, 1)
    golds = sc.load_gold_models(tmp_path / "gold")
    assert checks.check_experiment(_experiment(tmp_path, golds)).failed == 0

    test = sc.split_dataset(sorted(golds), 5, 0.5, "half").test
    victim = golds[test[0]]
    damaged = sc.SemanticModel(sorted(victim.semantic_triples)[1:], victim.internal_link_triples)
    result = checks.check_experiment(_experiment(tmp_path, {**golds, test[0]: damaged}))
    assert (result.attempted, result.failed) == (len(test), 1)
    assert test[0] in result.problems[0]


def test_checker_holds_exact_sources_to_the_planted_bound(tmp_path):
    datagen.write_dataset(tmp_path, SMALL, 2)
    answers, bounds = providers.planted_answers(providers.load_gold_docs(tmp_path / "gold"), 2, 0.2)
    models = {sid: sc.parse_model(json.dumps(a)) for sid, a in answers.items()}
    out = _experiment(tmp_path, models)
    assert checks.check_experiment(out, bounds).failed == 0

    test = json.loads((out / "split.json").read_text())["test"]
    raised = {sid: {step: n + (sid == test[0]) for step, n in b.items()} for sid, b in bounds.items()}
    assert checks.check_experiment(out, raised).failed == 1
    inexact = {sid: sid != test[0] for sid in bounds}
    result = checks.check_experiment(out, raised, inexact)
    assert (result.failed, result.shortfall) == (0, 1)


def test_planted_answer_is_a_permuted_gold_with_drops():
    gold = {
        "semantic_triples": [["C1", "p", "a"], ["C2", "p", "b"], ["C2", "q", "c"], ["D1", "p", "d"]],
        "internal_link_triples": [["D1", "r", "C1"], ["D1", "r", "C2"]],
    }
    answers, bounds = providers.planted_answers({"s": gold}, 4, 0.34)
    answer = answers["s"]
    assert len(answer["semantic_triples"]) + len(answer["internal_link_triples"]) == 4
    assert {s for s, _, _ in answer["semantic_triples"]} == {"C1", "C2", "D1"}
    best, _ = sc.match_triples(sc.parse_model(json.dumps(gold)), sc.parse_model(json.dumps(answer)))
    assert bounds["s"]["modeling"] == best == 4


def _span(span_id, start, end, parent=None, thread=1, name="harness.x"):
    return spans.Span(span_id, name, start, end, parent, 0, thread)


def test_self_times_subtract_the_union_of_children_across_threads():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),  # same thread as the root
        _span(3, 2.0, 6.0, parent=1, thread=2),  # pool workers overlap each other
        _span(4, 5.0, 8.0, parent=1, thread=3),
        _span(5, 3.0, 4.5, parent=3, thread=2),
        _span(6, 9.5, 11.0, parent=1),  # clipped to the parent's interval
    ]
    assert spans.self_times(tree) == pytest.approx({1: 2.5, 2: 3.0, 3: 2.5, 4: 3.0, 5: 1.5, 6: 1.5})


class _Owner:
    @classmethod
    def make(cls, x):
        return ("made", x)

    def call(self, x):
        return x + 1


def test_tracer_records_spans_with_parents_and_restores_names():
    owner, instance = _Owner, _Owner()
    original_make = vars(_Owner)["make"]
    tracer = spans.Tracer()
    tracer.wrap(owner, "make", "ingest.make", lambda a, k, r: {"x": a[0]})
    tracer.wrap(instance, "call", "llm.call")
    with tracer.root("harness.call", 3):
        assert _Owner.make(2) == ("made", 2)
        worker = threading.Thread(target=instance.call, args=(1,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.restore()
    assert vars(_Owner)["make"] is original_make and "call" not in vars(instance)
    by_name = {s.name: s for s in tracer.spans}
    root = by_name["harness.call"]
    assert by_name["ingest.make"].parent == root.span_id and by_name["ingest.make"].attrs == {"x": 2}
    assert by_name["llm.call"].parent == root.span_id
    assert by_name["llm.call"].thread != root.thread
    assert {s.run for s in tracer.spans} == {3}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
