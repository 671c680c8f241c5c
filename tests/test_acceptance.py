"""The gating acceptance suite; one printed PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

import semchain as sc
from semchain.evaluation import LABELING, MODELING
from helpers import (
    CLASS_POOL,
    best_intersection_bruteforce,
    bfs_connected_instances,
    legal_triples_by_enumeration,
    perturbed_copy,
    random_model,
)

SHOTS = ("one", "quarter", "half")
SEEDS = (2023, 2024)


def _passed(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_acceptance_1_gold_oracle_end_to_end(toy_config, tmp_path):
    started = time.perf_counter()
    for shot in SHOTS:
        for seed in SEEDS:
            config = toy_config(
                shot=shot, random_state=seed, out_dir=tmp_path / f"{shot}-{seed}"
            )
            report = sc.run_experiment(config)
            for step in (LABELING, MODELING):
                precision, recall = report.aggregates[step]
                assert precision == 1.0, (shot, seed, step)
                assert recall == 1.0, (shot, seed, step)
            assert not report.has_failures()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(1, f"gold-scripted mock scores 1.000/1.000 on both steps for "
               f"{len(SHOTS)} shots x {len(SEEDS)} seeds in {elapsed:.2f}s")


def test_acceptance_2_metric_matches_bruteforce():
    rng = random.Random(2024)
    started = time.perf_counter()
    pool = CLASS_POOL[:3]
    for i in range(500):
        gold = random_model(rng, max_instances_per_class=3, max_sem=5, max_links=4, class_pool=pool)
        if i % 2:
            predicted = perturbed_copy(gold, rng)
        else:
            predicted = random_model(rng, 3, 5, 4, class_pool=pool)
        intersection, _ = sc.match_triples(gold, predicted)
        assert intersection == best_intersection_bruteforce(gold, predicted)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(2, f"match_triples equals exhaustive permutation search on 500 pairs in {elapsed:.2f}s")


def test_acceptance_3_pruning_soundness():
    rng = random.Random(7)
    attributes = {"name", "date", "title"}
    for _ in range(500):
        model = random_model(rng)
        pruned = sc.prune(model, attributes)
        survivors = bfs_connected_instances(pruned, attributes)
        for instance in pruned.instances():
            assert instance.render() in survivors
        assert sc.prune(pruned, attributes) == pruned
        assert pruned.semantic_triples <= model.semantic_triples
        assert pruned.internal_link_triples <= model.internal_link_triples
    _passed(3, "prune is sound (BFS-connected), idempotent, and monotone on 500 random models")


def test_acceptance_4_pruning_effectiveness(toy_config, tmp_path):
    provider_spec = {
        "kind": "mock",
        "corruption": {"inject_instances": 2, "seed": 2023, "stages": ["chain2"]},
    }
    on = sc.run_experiment(
        toy_config(
            provider=provider_spec,
            chain=sc.ChainConfig(pruning_enabled=True),
            out_dir=tmp_path / "on",
        )
    )
    off = sc.run_experiment(
        toy_config(
            provider=provider_spec,
            chain=sc.ChainConfig(pruning_enabled=False),
            out_dir=tmp_path / "off",
        )
    )
    on_rows = {r.source_id: r.precision for r in on.rows if r.step == MODELING}
    off_rows = {r.source_id: r.precision for r in off.rows if r.step == MODELING}
    assert on_rows and set(on_rows) == set(off_rows)
    for sid, precision in on_rows.items():
        assert precision > off_rows[sid], sid
    assert on.aggregates[MODELING][0] > off.aggregates[MODELING][0]
    _passed(4, "with 2 injected hallucinated instances per source, pruning-on precision "
               "strictly beats pruning-off on every source")


def test_acceptance_5_ablation_shape(toy_config, tmp_path):
    config = toy_config(
        provider={
            "kind": "mock",
            "corruption": {"drop_triples": 2, "seed": 11, "stages": ["combined"]},
        },
        out_dir=tmp_path / "ablation",
    )
    rows = sc.run_ablation(config)
    assert len(rows) == 3
    assert [r["configuration"] for r in rows] == ["single-prompt", "chaining", "chaining+prune"]
    assert rows[1]["precision"] >= rows[0]["precision"]
    assert rows[2]["precision"] >= rows[1]["precision"]
    ablation_csv = Path(config.out_dir) / "ablation.csv"
    assert ablation_csv.exists()
    assert len(ablation_csv.read_text().strip().splitlines()) == 4  # header + 3 rows
    _passed(5, "ablation emits exactly three configurations with chaining >= single-prompt precision")


def test_acceptance_6_serialization_fidelity(toy_tables, golden_dir, toy_dir):
    rng = random.Random(123)

    for _ in range(100):
        model = random_model(rng)
        assert sc.parse_model(sc.serialize_model(model)) == model

    for _ in range(100):
        parent: dict[str, str | None] = {}
        names = [f"C{i}" for i in range(rng.randint(2, 8))]
        for i, name in enumerate(names):
            parent[name] = rng.choice(names[:i]) if i and rng.random() < 0.6 else None
        props = {f"p{i}": None for i in range(rng.randint(1, 4))}
        triples = frozenset(
            sc.PotentialTriple(rng.choice(names), rng.choice(sorted(props)), rng.choice(names))
            for _ in range(rng.randint(0, 4))
        )
        onto = sc.Ontology(parent, props, triples)
        assert sc.parse_ontology(sc.serialize_ontology(onto)) == onto

    for _ in range(100):
        sid = rng.choice(sorted(toy_tables))
        table = toy_tables[sid]
        cap = rng.randint(1, 5)
        serialized = sc.serialize_table(table, cap)
        back = sc.parse_source(serialized.text.encode(), sc.SourceFormat.JSON, sid)
        assert back.attributes == table.attributes
        assert back.records == table.records[:cap]

    cap3 = sc.serialize_table(toy_tables["artists"], 3).text + "\n"
    assert cap3.encode() == (golden_dir / "artists_cap3.json").read_bytes()
    sentinel = sc.serialize_table(toy_tables["collection"], 3).text + "\n"
    assert sentinel.encode() == (golden_dir / "collection_cap3.json").read_bytes()
    assert "<Empty>" in sentinel
    onto = sc.parse_ontology((toy_dir / "ontology.json").read_text())
    assert (sc.serialize_ontology(onto) + "\n").encode() == (
        golden_dir / "ontology_canonical.json"
    ).read_bytes()
    gold = sc.load_gold_models(toy_dir / "gold")["artists"]
    assert (sc.serialize_model(gold) + "\n").encode() == (
        golden_dir / "artists_model_canonical.json"
    ).read_bytes()
    _passed(6, "table/ontology/model round-trips hold on 100 random instances each; "
               "record cap and <Empty> sentinel match the golden bytes")


def test_acceptance_7_refinement_reasoning():
    toy = sc.parse_ontology(
        json.dumps(
            {
                "Nodes": ["Event", "Activity -> Event", "Actor"],
                "Properties": ["had_participant"],
                "Potential triples": [["Event", "had_participant", "Actor"]],
            }
        )
    )
    assert sc.triple_is_legal(toy, "Activity", "had_participant", "Actor")
    assert not sc.triple_is_legal(toy, "Event", "had_participant", "Activity")

    rng = random.Random(77)
    checked = 0
    for _ in range(10):
        size = rng.randint(2, 10)
        names = [f"C{i}" for i in range(size)]
        parent = {
            name: (rng.choice(names[:i]) if i and rng.random() < 0.7 else None)
            for i, name in enumerate(names)
        }
        props = {f"p{i}": None for i in range(rng.randint(1, 3))}
        declared = {
            (rng.choice(names), rng.choice(sorted(props)), rng.choice(names))
            for _ in range(rng.randint(1, 4))
        }
        onto = sc.Ontology(parent, props, frozenset(sc.PotentialTriple(*t) for t in declared))
        legal = legal_triples_by_enumeration(parent, props, sorted(declared))
        for s in names:
            for p in sorted(props):
                for o in names:
                    assert sc.triple_is_legal(onto, s, p, o) == ((s, p, o) in legal)
                    checked += 1
    _passed(7, f"a subclass refines a potential triple; triple_is_legal agrees with an "
               f"enumeration of every narrowed triple on {checked} candidate triples")


def test_acceptance_8_split_determinism(golden_dir):
    ids = [f"s{i:02d}" for i in range(28)]
    texts = set()
    for _ in range(10):
        split = sc.split_dataset(ids, 2023, 0.5, "half")
        assert len(split.test) == 14
        assert len(split.known) == 14
        texts.add(split.to_json(ids, 2023, 0.5, "half") + "\n")
    assert len(texts) == 1
    assert texts.pop().encode() == (golden_dir / "split_28_2023_half.json").read_bytes()
    _passed(8, "split(28 ids, 2023, 0.5, half) = 14/14, byte-identical over 10 runs "
               "and against the frozen golden file")


# Published reference scores for the museum datasets (half-shot), printed next
# to live results for manual comparison only.
REFERENCE_SCORES = {
    "ds_crm": (0.878, 0.876),
    "ds_edm": (0.904, 0.929),
    "ds_schema": (0.866, 0.866),
}

_LIVE_DIR = os.environ.get("SEMCHAIN_LIVE_DATASET_DIR", "")


@pytest.mark.skipif(
    not _LIVE_DIR,
    reason="live mode is opt-in: set SEMCHAIN_LIVE_DATASET_DIR (plus SEMCHAIN_LIVE_BASE_URL, "
    "SEMCHAIN_LIVE_MODEL, and the API key env) to exercise a real provider",
)
def test_acceptance_9_live_mode_non_gating(tmp_path):
    dataset = Path(_LIVE_DIR)
    config = sc.ExperimentConfig(
        sources_dir=dataset / "sources",
        ontology_path=dataset / "ontology.json",
        gold_dir=dataset / "gold",
        out_dir=tmp_path / "live",
        shot="half",
        provider={
            "kind": "http",
            "base_url": os.environ["SEMCHAIN_LIVE_BASE_URL"],
            "model_name": os.environ["SEMCHAIN_LIVE_MODEL"],
            "api_key_env": os.environ.get("SEMCHAIN_LIVE_API_KEY_ENV", "OPENAI_API_KEY"),
        },
    )
    report = sc.run_experiment(config)
    latencies = [row.latency_ms for row in report.rows if row.step == MODELING]
    mean_latency = sum(latencies) / len(latencies) / 1000.0
    reference = REFERENCE_SCORES.get(dataset.name, ("n/a", "n/a"))
    precision, recall = report.aggregates[MODELING]
    print(
        f"live {dataset.name}: precision {precision:.3f} recall {recall:.3f} "
        f"(reference {reference[0]}/{reference[1]}), mean per-source latency {mean_latency:.1f}s"
    )
    assert report.rows  # completion only; scores are for manual comparison
    _passed(9, "live half-shot run completed and latencies were recorded")
