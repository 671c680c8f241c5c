from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from semchain import (
    ExperimentConfig,
    MockProvider,
    MockScript,
    run_ablation,
    run_experiment,
    shot_count,
    split_dataset,
)
from semchain.errors import ShotTooLargeError
from semchain.evaluation import LABELING, MODELING

IDS_28 = [f"s{i:02d}" for i in range(28)]


class TestSplits:
    def test_half_shot_on_28_sources(self):
        split = split_dataset(IDS_28, 2023, 0.5, "half")
        assert len(split.test) == 14
        assert len(split.known) == 14
        assert set(split.known).isdisjoint(split.test)
        assert set(split.known) | set(split.test) == set(IDS_28)

    def test_one_and_quarter_shots(self):
        assert len(split_dataset(IDS_28, 2023, 0.5, "one").known) == 1
        assert len(split_dataset(IDS_28, 2023, 0.5, "quarter").known) == 7
        assert shot_count("quarter", 6) == 2
        assert shot_count("half", 7) == 3
        assert shot_count(5, 100) == 5

    def test_split_is_deterministic(self):
        runs = {split_dataset(IDS_28, 2023, 0.5, "half") for _ in range(10)}
        assert len(runs) == 1

    def test_different_seeds_differ(self):
        assert split_dataset(IDS_28, 2023, 0.5, "half") != split_dataset(IDS_28, 2024, 0.5, "half")

    def test_shot_too_large(self):
        with pytest.raises(ShotTooLargeError):
            split_dataset(IDS_28, 2023, 0.5, 15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            split_dataset([], 1, 0.5, "one")
        with pytest.raises(ValueError):
            split_dataset(["a", "a"], 1, 0.5, "one")
        with pytest.raises(ValueError):
            split_dataset(IDS_28, 1, 1.5, "one")
        with pytest.raises(ValueError):
            shot_count("tenth", 28)

    def test_persisted_split_is_byte_stable(self, tmp_path):
        texts = set()
        for _ in range(10):
            split = split_dataset(IDS_28, 2023, 0.5, "half")
            texts.add(split.to_json(IDS_28, 2023, 0.5, "half"))
        assert len(texts) == 1


class TestExperiment:
    def test_gold_script_scores_perfectly(self, toy_config):
        report = run_experiment(toy_config(shot="half", random_state=2023))
        assert report.aggregates[LABELING] == (1.0, 1.0)
        assert report.aggregates[MODELING] == (1.0, 1.0)
        assert not report.has_failures()

    def test_row_count_is_two_per_test_source(self, toy_config):
        report = run_experiment(toy_config(shot="one", random_state=2024))
        split_test = {row.source_id for row in report.rows}
        assert len(report.rows) == 2 * len(split_test) == 6

    def test_artifacts_exist(self, toy_config, tmp_path):
        config = toy_config(out_dir=tmp_path / "artifacts")
        report = run_experiment(config)
        out = Path(config.out_dir)
        for name in ("split.json", "system_prompt.txt", "run_meta.json", "report.csv",
                     "aggregate.json", "depth_buckets.csv"):
            assert (out / name).exists(), name
        test_ids = {row.source_id for row in report.rows}
        for sid in test_ids:
            for artifact in ("labels.json", "raw_model.json", "final_model.json", "transcript.jsonl"):
                assert (out / "sources" / sid / artifact).exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert "lcg64" in meta["prng"]
        assert meta["template_sha256"]

    def test_split_file_identical_across_runs(self, toy_config, tmp_path):
        first = toy_config(out_dir=tmp_path / "a")
        second = toy_config(out_dir=tmp_path / "b")
        run_experiment(first)
        run_experiment(second)
        a = (Path(first.out_dir) / "split.json").read_bytes()
        b = (Path(second.out_dir) / "split.json").read_bytes()
        assert a == b

    def test_failures_become_zero_rows(self, toy_config, toy_golds):
        # A script with one source missing makes that source fail while the
        # run still completes with a full report.
        golds = dict(toy_golds)
        script = MockScript.from_gold(golds)
        responses = {k: v for k, v in script.responses.items() if k[0] != "artists"}
        provider = MockProvider(MockScript(responses))
        config = toy_config(shot="one", random_state=2023)
        report = run_experiment(config, provider)
        assert len(report.rows) == 6
        failed = [row for row in report.rows if row.source_id == "artists"]
        if failed:  # only if artists landed in the test split for this seed
            assert all(row.precision == 0.0 and row.error for row in failed)

    def test_cyclic_gold_fails_only_its_source(self, toy_config, toy_dir, tmp_path):
        gold_dir = tmp_path / "gold"
        shutil.copytree(toy_dir / "gold", gold_dir)
        docs = {path.stem: json.loads(path.read_text()) for path in gold_dir.glob("*.json")}
        test = split_dataset(sorted(docs), 2023, 0.5, "half").test
        cyclic = next(sid for sid in test if docs[sid]["internal_link_triples"])
        doc = docs[cyclic]
        subject, prop, obj = doc["internal_link_triples"][0]
        doc["internal_link_triples"].append([obj, prop, subject])
        (gold_dir / f"{cyclic}.json").write_text(json.dumps(doc))

        config = toy_config(gold_dir=gold_dir, shot="half", random_state=2023)
        report = run_experiment(config)
        failed = [row for row in report.rows if row.error]
        assert {row.source_id for row in failed} == {cyclic}
        assert [row.step for row in failed] == [LABELING, MODELING]
        assert all(row.depth == 0 and row.precision == row.recall == 0.0 for row in failed)
        assert "CyclicModelError" in failed[0].error
        out = Path(config.out_dir)
        assert (out / "sources" / cyclic / "error.txt").exists()
        assert (out / "depth_buckets.csv").exists()
        for row in report.rows:
            if row.source_id != cyclic:
                assert (row.precision, row.recall) == (1.0, 1.0)

    def test_pruning_on_beats_pruning_off_under_injection(self, toy_config, tmp_path):
        from semchain import ChainConfig

        corruption = {"inject_instances": 2, "seed": 2023, "stages": ["chain2"]}
        base = {"kind": "mock", "corruption": corruption}
        on = run_experiment(
            toy_config(
                out_dir=tmp_path / "prune-on",
                provider=base,
                chain=ChainConfig(pruning_enabled=True),
            )
        )
        off = run_experiment(
            toy_config(
                out_dir=tmp_path / "prune-off",
                provider=base,
                chain=ChainConfig(pruning_enabled=False),
            )
        )
        on_rows = {r.source_id: r for r in on.rows if r.step == MODELING}
        off_rows = {r.source_id: r for r in off.rows if r.step == MODELING}
        assert set(on_rows) == set(off_rows)
        for sid in on_rows:
            assert on_rows[sid].precision > off_rows[sid].precision
        assert on.aggregates[MODELING][0] > off.aggregates[MODELING][0]

    def test_report_rows_match_rescoring_the_persisted_artifacts(self, toy_config, tmp_path, toy_golds):
        import semchain as sc

        config = toy_config(
            out_dir=tmp_path / "differential",
            provider={
                "kind": "mock",
                "corruption": {"drop_triples": 1, "rename_properties": 1, "seed": 99},
            },
        )
        report = run_experiment(config)
        out = Path(config.out_dir)
        for row in report.rows:
            gold = toy_golds[row.source_id]
            if row.step == MODELING:
                predicted = sc.parse_model(
                    (out / "sources" / row.source_id / "final_model.json").read_text()
                )
            else:
                predicted = sc.parse_labels(
                    (out / "sources" / row.source_id / "labels.json").read_text()
                )
            precision, recall = sc.score(gold, predicted, row.step)
            assert precision == pytest.approx(row.precision)
            assert recall == pytest.approx(row.recall)

    def test_ablation_shape_and_ordering(self, toy_config, tmp_path):
        corruption = {"drop_triples": 2, "seed": 41, "stages": ["combined"]}
        config = toy_config(
            out_dir=tmp_path / "ablation-run",
            provider={"kind": "mock", "corruption": corruption},
        )
        rows = run_ablation(config)
        assert [row["configuration"] for row in rows] == [
            "single-prompt",
            "chaining",
            "chaining+prune",
        ]
        assert rows[1]["precision"] >= rows[0]["precision"]
        assert rows[2]["precision"] >= rows[1]["precision"]
        with (Path(config.out_dir) / "ablation.csv").open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 3
        assert parsed[0]["configuration"] == "single-prompt"

    def test_config_from_file_with_relative_paths(self, toy_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "sources_dir": str(toy_dir / "sources"),
                    "ontology_path": str(toy_dir / "ontology.json"),
                    "gold_dir": str(toy_dir / "gold"),
                    "out_dir": "out",
                    "shot": "one",
                    "chain": {"pruning_enabled": False},
                }
            )
        )
        config = ExperimentConfig.from_file(config_path)
        assert config.out_dir == tmp_path / "out"
        assert config.chain.pruning_enabled is False
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sources_dir": "x", "surprise": 1}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(bad)

    def test_missing_gold_is_a_config_error(self, toy_dir, tmp_path):
        only_sources = tmp_path / "gold-empty"
        only_sources.mkdir()
        (only_sources / "artists.json").write_text(
            '{"semantic_triples": [], "internal_link_triples": []}'
        )
        config = ExperimentConfig(
            sources_dir=toy_dir / "sources",
            ontology_path=toy_dir / "ontology.json",
            gold_dir=only_sources,
            out_dir=tmp_path / "run",
        )
        with pytest.raises(ValueError, match="without gold"):
            run_experiment(config)
