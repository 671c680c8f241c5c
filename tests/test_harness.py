from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import random
import re
import shutil
from pathlib import Path

import pytest

from semchain import (
    ChainConfig,
    Completion,
    CorruptionSpec,
    ExperimentConfig,
    MockProvider,
    MockScript,
    ProviderConfig,
    Table,
    load_gold_models,
    load_tables,
    run_ablation,
    run_experiment,
    serialize_labels,
    serialize_model,
    shot_count,
    split_dataset,
)
from semchain import harness
from semchain.errors import FormatError, ProviderError, ShotTooLargeError
from semchain.evaluation import LABELING, MODELING
from semchain.llm import STAGE_CHAIN1, STAGE_CHAIN2, STAGE_COMBINED

from helpers import DEEPLY_NESTED, mutated_reply

IDS_28 = [f"s{i:02d}" for i in range(28)]
TOY_CORRUPTION = {"drop_triples": 1, "inject_instances": 2, "rename_properties": 1, "seed": 7}
CLEAN_TOY_DIGEST = "d1c23afaf06f80dbef63df79360658ceffbfd1b785d82c21131e9d0113077e3d"
CORRUPTED_TOY_DIGEST = "92222b7fd4cb5f0f2536fe2af502b192fbc3a514ef2455df6149f0d755847679"


def _without_latency(path: Path):
    """File content with the wall-clock fields removed."""
    if path.name == "report.csv":
        with path.open(newline="", encoding="utf-8") as handle:
            return [{k: v for k, v in row.items() if k != "latency_ms"} for row in csv.DictReader(handle)]
    if path.suffix == ".jsonl":
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return [{k: v for k, v in line.items() if k != "latency_ms"} for line in lines]
    return path.read_bytes()


def _artifact_digest(root: Path) -> str:
    """sha256 over the path and latency-free content of every file under `root`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        content = _without_latency(path)
        if not isinstance(content, bytes):
            content = json.dumps(content, ensure_ascii=False).encode("utf-8")
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(content)}\0".encode("utf-8") + content)
    return digest.hexdigest()


class _ReplacedReply:
    """The toy mock, with one (source, stage) answered by `text` instead."""

    def __init__(self, golds, key, text):
        self.inner = MockProvider(MockScript.from_gold(golds))
        self.key = key
        self.text = text

    def complete(self, system, turns, *, tags=None):
        reply = self.inner.complete(system, turns, tags=tags)
        if (tags["source_id"], tags["stage"]) == self.key:
            return Completion(self.text, reply.usage)
        return reply


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

    @pytest.mark.parametrize("record_cap", [1, 3])
    def test_capped_load_writes_the_same_artifacts(self, toy_config, tmp_path, monkeypatch, record_cap):
        from semchain import harness

        kept = []
        parse_source = harness.parse_source

        def spy(*args):
            table = parse_source(*args)
            kept.append(len(table.records))
            return table

        monkeypatch.setattr(harness, "parse_source", spy)
        capped = toy_config(out_dir=tmp_path / "capped", record_cap=record_cap)
        run_experiment(capped)
        assert kept and max(kept) <= record_cap

        read_table = harness.read_table
        monkeypatch.setattr(harness, "read_table", lambda path, record_cap=None: read_table(path))
        full = toy_config(out_dir=tmp_path / "full", record_cap=record_cap)
        run_experiment(full)
        assert max(kept) == 4  # the uncapped load kept whole 4-record sources

        a, b = Path(capped.out_dir), Path(full.out_dir)
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for name in files:
            assert _without_latency(a / name) == _without_latency(b / name), name

    @pytest.mark.parametrize(
        "answer, error",
        [
            ("[1, 2]", "SchemaError: Step2 answer is not a JSON object"),
            ('{"semantic_triples": []}', "SchemaError: model JSON misses the field 'internal_link_triples'"),
            ("{}", "SchemaError: model JSON misses the field 'internal_link_triples'"),
        ],
        ids=["array", "no-links", "no-fields"],
    )
    def test_a_bad_step2_answer_fails_only_its_source(self, answer, error, toy_config, toy_golds):
        config = toy_config()
        provider = _ReplacedReply(toy_golds, ("artists", "chain2"), f"<Step2>{answer}</Step2>")
        report = run_experiment(config, provider)
        assert {row.source_id: row.error for row in report.rows if row.error} == {"artists": error}
        assert all(row.precision == 1.0 for row in report.rows if not row.error)
        sources = Path(config.out_dir) / "sources"
        assert (sources / "artists" / "error.txt").read_text(encoding="utf-8") == error + "\n"

    @pytest.mark.parametrize(
        "corruption, max_workers, expected",
        [
            (None, 4, CLEAN_TOY_DIGEST),
            (TOY_CORRUPTION, 4, CORRUPTED_TOY_DIGEST),
            (None, 1, CLEAN_TOY_DIGEST),
            (TOY_CORRUPTION, 1, CORRUPTED_TOY_DIGEST),
            (None, 3, CLEAN_TOY_DIGEST),
            (TOY_CORRUPTION, 3, CORRUPTED_TOY_DIGEST),
        ],
        ids=["clean", "corrupted", "clean-1-worker", "corrupted-1-worker", "clean-3-workers", "corrupted-3-workers"],
    )
    def test_toy_artifacts_match_their_pinned_digest(self, corruption, max_workers, expected, toy_config, tmp_path):
        # Pins every file an experiment and an ablation write, bar wall-clock
        # fields, whatever the worker count.
        provider = {"kind": "mock", "corruption": corruption} if corruption else {"kind": "mock"}
        for run, out_dir in ((run_experiment, "experiment"), (run_ablation, "ablation")):
            run(toy_config(out_dir=tmp_path / "pinned" / out_dir, provider=provider, max_workers=max_workers))
        assert _artifact_digest(tmp_path / "pinned") == expected

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

    def test_unparsable_test_source_fails_only_itself(self, toy_config, toy_dir, toy_golds, tmp_path):
        from semchain import depth

        sources = tmp_path / "sources"
        shutil.copytree(toy_dir / "sources", sources)
        split = split_dataset(sorted(p.stem for p in sources.iterdir()), 2023, 0.5, "half")
        bad = next(sid for sid in split.test if (sources / f"{sid}.csv").exists())
        path = sources / f"{bad}.csv"
        path.write_text(path.read_text() + ",".join(["x"] * 50) + "\n")

        config = toy_config(sources_dir=sources, shot="half", random_state=2023)
        report = run_experiment(config)
        out = Path(config.out_dir)
        assert json.loads((out / "split.json").read_text())["test"] == list(split.test)
        failed = [row for row in report.rows if row.error]
        assert {row.source_id for row in failed} == {bad}
        assert [row.step for row in failed] == [LABELING, MODELING]
        assert all(row.depth == depth(toy_golds[bad]) for row in failed)
        assert "FormatError" in failed[0].error and "more cells than the header" in failed[0].error
        assert (out / "sources" / bad / "error.txt").exists()
        assert not (out / "sources" / bad / "transcript.jsonl").exists()
        for row in report.rows:
            if row.source_id != bad:
                assert (row.precision, row.recall) == (1.0, 1.0)

    def test_deeply_nested_test_source_fails_only_itself(self, toy_config, toy_dir, tmp_path):
        sources = tmp_path / "sources"
        shutil.copytree(toy_dir / "sources", sources)
        split = split_dataset(sorted(p.stem for p in sources.iterdir()), 2023, 0.5, "half")
        bad = next(sid for sid in split.test if (sources / f"{sid}.json").exists())
        (sources / f"{bad}.json").write_bytes(DEEPLY_NESTED["objects.json"])

        report = run_experiment(toy_config(sources_dir=sources, shot="half", random_state=2023))
        failed = [row for row in report.rows if row.error]
        assert {row.source_id for row in failed} == {bad}
        assert "FormatError" in failed[0].error and "nested too deeply" in failed[0].error
        for row in report.rows:
            if row.source_id != bad:
                assert (row.precision, row.recall) == (1.0, 1.0)

    def test_a_rerun_leaves_only_its_own_source_files(self, toy_config, toy_dir, tmp_path):
        # The output directory is the dataset itself, so its sources/ holds
        # the input files next to the per-source result directories.
        dataset = tmp_path / "dataset"
        shutil.copytree(toy_dir, dataset)
        sources = dataset / "sources"
        intact = (sources / "artists.csv").read_text()
        (sources / "artists.csv").write_text(intact + ",".join(["x"] * 50) + "\n")
        inputs = {p.name: p.read_bytes() for p in sources.iterdir()}
        config = toy_config(sources_dir=sources, gold_dir=dataset / "gold", out_dir=dataset)
        first = split_dataset(sorted(Path(name).stem for name in inputs), 2023, 0.5, "half")
        assert run_experiment(config).has_failures()
        assert (sources / "artists" / "error.txt").exists()
        (sources / "donations" / "keep.txt").write_text("mine")
        (sources / "donations" / "labels.json.bak").write_text("mine")
        (sources / "donations" / "drafts").mkdir()

        (sources / "artists.csv").write_text(intact)
        inputs["artists.csv"] = intact.encode()
        second = split_dataset(sorted(first.known + first.test), 2, 0.5, "half")
        assert "artists" in first.test and "artists" in second.test
        assert "donations" in first.test and "donations" not in second.test
        assert not run_experiment(dataclasses.replace(config, random_state=2)).has_failures()

        results = {"labels.json", "raw_model.json", "final_model.json", "transcript.jsonl"}
        for sid in set(first.test) | set(second.test):
            names = {p.name for p in (sources / sid).iterdir()}
            if sid == "donations":
                assert names == {"keep.txt", "labels.json.bak", "drafts"}
            else:
                assert names == results, sid
        assert {p.name: p.read_bytes() for p in sources.iterdir() if p.is_file()} == inputs

    def test_load_tables_maps_a_bad_file_to_its_error(self, toy_dir, tmp_path):
        sources = tmp_path / "sources"
        shutil.copytree(toy_dir / "sources", sources)
        path = sources / "artists.csv"
        path.write_text(path.read_text() + ",".join(["x"] * 50) + "\n")
        tables = load_tables(sources)
        assert sorted(tables) == sorted(p.stem for p in sources.iterdir())
        assert isinstance(tables["artists"], FormatError)
        assert "more cells than the header" in str(tables["artists"])
        assert all(isinstance(table, Table) for sid, table in tables.items() if sid != "artists")

    def test_unparsable_known_source_raises(self, toy_config, toy_dir, tmp_path):
        from semchain.errors import FormatError

        sources = tmp_path / "sources"
        shutil.copytree(toy_dir / "sources", sources)
        split = split_dataset(sorted(p.stem for p in sources.iterdir()), 2023, 0.5, "half")
        bad = next(sid for sid in split.known if (sources / f"{sid}.csv").exists())
        path = sources / f"{bad}.csv"
        path.write_text(path.read_text() + ",".join(["x"] * 50) + "\n")
        with pytest.raises(FormatError, match=bad):
            run_experiment(toy_config(sources_dir=sources, shot="half", random_state=2023))

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

    def test_ablation_asks_each_chained_request_once(self, toy_config, toy_golds, tmp_path):
        provider = MockProvider(MockScript.from_gold(toy_golds))
        config = toy_config(out_dir=tmp_path / "ablation-run")
        run_ablation(config, provider)
        split = json.loads((Path(config.out_dir) / "ablation" / "chaining" / "split.json").read_text())
        assert len(provider.calls) == 3 * len(split["test"])
        assert sorted(provider.calls) == sorted(
            (sid, stage) for sid in split["test"] for stage in ("combined", "chain1", "chain2")
        )

    def test_ablation_models_each_source_once_per_prompting_mode(self, monkeypatch, toy_config):
        from semchain import harness

        chained, setups = [], []
        run_chain, prepare = harness.run_chain, harness.prepare_experiment

        def counted_chain(system_prompt, table, config, provider, **kwargs):
            chained.append((table.source_id, config.chaining_enabled))
            return run_chain(system_prompt, table, config, provider, **kwargs)

        def counted_prepare(config):
            setups.append(config.out_dir.name)
            return prepare(config)

        monkeypatch.setattr(harness, "run_chain", counted_chain)
        monkeypatch.setattr(harness, "prepare_experiment", counted_prepare)
        config = toy_config()
        run_ablation(config)
        test = json.loads((Path(config.out_dir) / "ablation" / "chaining" / "split.json").read_text())["test"]
        assert sorted(chained) == sorted((sid, chaining) for sid in test for chaining in (False, True))
        assert setups == ["single-prompt", "chaining"]

    @pytest.mark.parametrize(
        "corruption", [None, {"inject_instances": 2, "seed": 7, "stages": ["chain2"]}], ids=["gold", "injected"]
    )
    def test_ablation_scores_a_pruned_outcome_only_when_pruning_changed_it(self, corruption, monkeypatch, toy_config):
        scored = []
        score_detail = harness.ev.score_detail

        def counted(gold, predicted, step):
            scored.append(step)
            return score_detail(gold, predicted, step)

        monkeypatch.setattr(harness.ev, "score_detail", counted)
        provider = {"kind": "mock"} if corruption is None else {"kind": "mock", "corruption": corruption}
        config = toy_config(provider=provider)
        run_ablation(config)
        ablation = Path(config.out_dir) / "ablation"
        test = json.loads((ablation / "chaining" / "split.json").read_text())["test"]
        changed = [
            sid
            for sid in test
            if any(
                (ablation / "chaining" / "sources" / sid / name).read_bytes()
                != (ablation / "chaining+prune" / "sources" / sid / name).read_bytes()
                for name in ("labels.json", "final_model.json")
            )
        ]
        assert bool(changed) == (corruption is not None)
        # Two steps for the single prompt and for the chain, and again for each pruned change.
        assert len(scored) == 2 * (2 * len(test) + len(changed))
        if not changed:
            assert (ablation / "chaining" / "report.csv").read_bytes() == (
                ablation / "chaining+prune" / "report.csv"
            ).read_bytes()

    def test_chained_arms_share_failed_requests(self, toy_config, toy_golds, tmp_path):
        class _FailsChain2Once:
            def __init__(self):
                self.inner = MockProvider(MockScript.from_gold(toy_golds))
                self.failed = set()

            def complete(self, system, turns, *, tags=None):
                key = (tags["source_id"], tags["stage"])
                if tags["stage"] == "chain2" and key not in self.failed:
                    self.failed.add(key)
                    raise ProviderError(f"outage on {key[0]}")
                return self.inner.complete(system, turns, tags=tags)

        provider = _FailsChain2Once()
        config = toy_config(out_dir=tmp_path / "ablation-run")
        rows = run_ablation(config, provider)
        ablation = Path(config.out_dir) / "ablation"
        test = json.loads((ablation / "chaining" / "split.json").read_text())["test"]
        assert sorted(provider.inner.calls) == sorted(
            (sid, stage) for sid in test for stage in ("combined", "chain1")
        )
        assert provider.failed == {(sid, "chain2") for sid in test}
        assert [row["has_failures"] for row in rows] == [False, True, True]
        for name in ("chaining", "chaining+prune"):
            aggregate = json.loads((ablation / name / "aggregate.json").read_text())
            assert aggregate["failed_sources"] == sorted(test)
            for sid in test:
                error = (ablation / name / "sources" / sid / "error.txt").read_text()
                assert error == f"ProviderError: outage on {sid}\n"

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_ablation_configurations_equal_standalone_runs(self, strict, toy_config, toy_dir, tmp_path):
        # Two test sources with the same table send the same prompts; each
        # must still be scored on its own reply.
        sources = tmp_path / "sources"
        shutil.copytree(toy_dir / "sources", sources)
        shutil.copy(sources / "artists.csv", sources / "donations.csv")
        split = split_dataset(sorted(p.stem for p in sources.iterdir()), 2023, 0.5, "half")
        assert {"artists", "donations"} <= set(split.test)
        corruption = {"inject_instances": 2, "drop_triples": 1, "seed": 7}
        config = toy_config(
            sources_dir=sources,
            out_dir=tmp_path / "ablation-run",
            provider={"kind": "mock", "corruption": corruption},
            chain=ChainConfig(strict_ontology_validation=strict),
        )
        run_ablation(config)
        ablation = Path(config.out_dir) / "ablation"
        assert any(  # pruning removed something from the shared answers
            (ablation / "chaining" / "sources" / sid / "final_model.json").read_bytes()
            != (ablation / "chaining+prune" / "sources" / sid / "final_model.json").read_bytes()
            for sid in split.test
        )
        arms = {"single-prompt": (False, False), "chaining": (True, False), "chaining+prune": (True, True)}
        for name, (chaining, pruning) in arms.items():
            chain = dataclasses.replace(config.chain, chaining_enabled=chaining, pruning_enabled=pruning)
            alone = dataclasses.replace(config, chain=chain, out_dir=tmp_path / "alone" / name)
            run_experiment(alone)
            a, b = ablation / name, Path(alone.out_dir)
            files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
            for rel in files:
                if rel.name == "run_meta.json":
                    meta = json.loads((a / rel).read_text())
                    assert ("replies" in meta) == (name == "chaining+prune")
                    meta.pop("replies", None)
                    assert meta["chain"]["strict_ontology_validation"] is strict
                    assert meta == json.loads((b / rel).read_text())
                else:
                    assert _without_latency(a / rel) == _without_latency(b / rel), (name, rel)

    def test_a_chain_mapping_runs_as_the_equal_chain_config(self, toy_config, tmp_path):
        flags = {"chaining_enabled": False, "strict_ontology_validation": True}
        mapped = toy_config(out_dir=tmp_path / "mapping", chain=flags)
        built = toy_config(out_dir=tmp_path / "built", chain=ChainConfig(**flags))
        assert mapped.chain == built.chain
        run_experiment(mapped)
        run_experiment(built)
        assert _artifact_digest(mapped.out_dir) == _artifact_digest(built.out_dir)

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

    def test_a_bad_gold_file_is_named_in_its_error(self, toy_dir, tmp_path):
        gold_dir = tmp_path / "gold"
        gold_dir.mkdir()
        shutil.copy(toy_dir / "gold" / "artists.json", gold_dir)
        (gold_dir / "bad.json").write_text('{"semantic_triples": [')
        with pytest.raises(FormatError, match=r"^bad\.json: model: not JSON: "):
            load_gold_models(gold_dir)

    def test_a_missing_gold_directory_is_a_config_error(self, toy_config, tmp_path):
        with pytest.raises(ValueError, match="^no gold models found in "):
            run_experiment(toy_config(gold_dir=tmp_path / "no-such-gold"))
        assert not (tmp_path / "run").exists()


class TestSourceListing:
    def _sources(self, tmp_path, *names):
        sources = tmp_path / "sources"
        sources.mkdir()
        for name in names:
            (sources / name).write_text("a,b\n1,2\n", encoding="utf-8")
        return sources

    def test_suffixes_match_regardless_of_case(self, tmp_path):
        tables = load_tables(self._sources(tmp_path, "upper.CSV", "mixed.Csv", "lower.csv"))
        assert sorted(tables) == ["lower", "mixed", "upper"]
        assert all(isinstance(table, Table) for table in tables.values())

    def test_directories_and_other_suffixes_are_skipped(self, tmp_path):
        sources = self._sources(tmp_path, "kept.csv", "notes.txt", "kept.csv.bak", "README")
        (sources / "folder.csv").mkdir()
        (sources / "kept").mkdir()
        assert list(load_tables(sources)) == ["kept"]

    def test_two_files_with_one_stem_are_a_duplicate_source_id(self, tmp_path):
        sources = self._sources(tmp_path, "artists.csv", "other.csv")
        (sources / "artists.json").write_text('[{"a": 1}]', encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate source id 'artists'"):
            load_tables(sources)

    def test_an_empty_directory_has_no_source_files(self, tmp_path):
        with pytest.raises(ValueError, match="no source files found"):
            load_tables(self._sources(tmp_path))

    def test_a_missing_directory_has_no_source_files(self, tmp_path):
        with pytest.raises(ValueError, match="^no source files found in "):
            load_tables(tmp_path / "no-such-sources")

    def _golds(self, toy_dir, tmp_path):
        gold = tmp_path / "gold"
        shutil.copytree(toy_dir / "gold", gold)
        return gold

    def test_gold_suffixes_match_regardless_of_case(self, toy_dir, toy_golds, tmp_path):
        gold = self._golds(toy_dir, tmp_path)
        (gold / "artists.json").rename(gold / "artists.JSON")
        assert load_gold_models(gold) == toy_golds

    def test_a_gold_file_in_two_cases_is_a_duplicate_source_id(self, toy_dir, tmp_path):
        gold = self._golds(toy_dir, tmp_path)
        shutil.copy(gold / "artists.json", gold / "artists.JSON")
        with pytest.raises(ValueError, match="duplicate source id 'artists'"):
            load_gold_models(gold)

    def test_a_directory_named_like_a_gold_file_is_skipped(self, toy_dir, toy_golds, tmp_path):
        gold = self._golds(toy_dir, tmp_path)
        (gold / "x.json").mkdir()
        assert load_gold_models(gold) == toy_golds


class TestSetupReadsOnlyTheSplit:
    """With shot one the toy split has three test sources, one known and
    two that the run never uses."""

    UNPARSABLE = {".csv": b"a,a\n1,2\n", ".json": b"{not json", ".xml": b"<unclosed>"}

    def _dataset(self, toy_dir, tmp_path):
        dataset = tmp_path / "dataset"
        shutil.copytree(toy_dir, dataset)
        paths = {p.stem: p for p in (dataset / "sources").iterdir()}
        split = split_dataset(sorted(paths), 2023, 0.5, "one")
        unused = sorted(set(paths) - set(split.known) - set(split.test))
        assert (len(split.test), len(split.known), len(unused)) == (3, 1, 2)
        return dataset, paths, split, unused

    def _config(self, toy_config, dataset):
        return toy_config(sources_dir=dataset / "sources", gold_dir=dataset / "gold", shot="one", random_state=2023)

    def test_unused_files_are_never_read(self, monkeypatch, toy_config, toy_dir, tmp_path):
        from semchain import harness

        dataset, paths, split, unused = self._dataset(toy_dir, tmp_path)
        for sid in unused:
            paths[sid].write_bytes(self.UNPARSABLE[paths[sid].suffix])
            (dataset / "gold" / f"{sid}.json").write_text("{not json", encoding="utf-8")
        parse_source, read_model_file = harness.parse_source, harness.read_model_file
        parsed, read = [], []

        def counted_parse(raw_bytes, fmt, source_id, record_cap=None):
            parsed.append(source_id)
            return parse_source(raw_bytes, fmt, source_id, record_cap)

        def counted_read(path, **kwargs):
            read.append(Path(path).stem)
            return read_model_file(path, **kwargs)

        monkeypatch.setattr(harness, "parse_source", counted_parse)
        monkeypatch.setattr(harness, "read_model_file", counted_read)
        config = self._config(toy_config, dataset)
        report = run_experiment(config)

        assert not report.has_failures()
        assert {row.source_id for row in report.rows} == set(split.test)
        assert all((row.precision, row.recall) == (1.0, 1.0) for row in report.rows)
        assert json.loads((config.out_dir / "split.json").read_text())["source_ids"] == sorted(paths)
        assert sorted(parsed) == sorted(read) == sorted(split.known + split.test)

    def test_each_source_is_parsed_from_a_view_of_its_file(self, monkeypatch, toy_config, toy_dir):
        from semchain import ingest

        parse_source = harness.parse_source
        sizes = {}

        def spy(raw_bytes, fmt, source_id, record_cap=None):
            assert isinstance(raw_bytes, ingest.FileBytes)
            sizes[source_id] = len(raw_bytes)
            return parse_source(raw_bytes, fmt, source_id, record_cap)

        monkeypatch.setattr(harness, "parse_source", spy)
        experiment = harness.prepare_experiment(toy_config())
        assert sizes.keys() == experiment.tables.keys()
        for sid, size in sizes.items():
            assert size == next((toy_dir / "sources").glob(f"{sid}.*")).stat().st_size

    def test_setup_opens_and_parses_only_the_known_sources(self, monkeypatch, toy_config, toy_dir, tmp_path):
        dataset, paths, split, _ = self._dataset(toy_dir, tmp_path)
        parse_source = harness.parse_source
        opened, parsed = [], []

        def counted_open(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        def counted_parse(raw_bytes, fmt, source_id, record_cap=None):
            parsed.append(source_id)
            return parse_source(raw_bytes, fmt, source_id, record_cap)

        monkeypatch.setattr(harness, "open", counted_open, raising=False)
        monkeypatch.setattr(harness, "parse_source", counted_parse)
        experiment = harness.prepare_experiment(self._config(toy_config, dataset))
        assert opened == [paths[sid] for sid in split.known]
        assert parsed == list(split.known) == list(experiment.tables)
        assert experiment.test_files == {sid: paths[sid] for sid in split.test}

    @pytest.mark.parametrize("error", [PermissionError, FileNotFoundError])
    def test_a_test_source_that_cannot_be_opened_fails_only_that_source(
        self, error, monkeypatch, toy_config, toy_dir, tmp_path
    ):
        dataset, paths, split, _ = self._dataset(toy_dir, tmp_path)
        bad = split.test[1]
        read_table = harness.read_table

        def refusing(path, record_cap=None):
            if Path(path).stem == bad:
                raise error(13, "refused", str(path))
            return read_table(path, record_cap=record_cap)

        monkeypatch.setattr(harness, "read_table", refusing)
        config = self._config(toy_config, dataset)
        report = run_experiment(config)

        text = f"{error.__name__}: [Errno 13] refused: {str(paths[bad])!r}"
        assert [(row.source_id, row.error) for row in report.rows if row.error] == [(bad, text)] * 2
        assert all((row.precision, row.recall) == (0.0, 0.0) for row in report.rows if row.error)
        assert all((row.precision, row.recall) == (1.0, 1.0) for row in report.rows if not row.error)
        assert (config.out_dir / "sources" / bad / "error.txt").read_text(encoding="utf-8") == text + "\n"

    def test_an_os_error_from_the_provider_still_stops_the_run(self, toy_config, toy_dir, tmp_path):
        dataset, _, _, _ = self._dataset(toy_dir, tmp_path)

        class _Refused(MockProvider):
            def complete(self, system, turns, *, tags=None):
                raise ConnectionRefusedError(111, "refused")

        with pytest.raises(ConnectionRefusedError):
            run_experiment(self._config(toy_config, dataset), _Refused(MockScript({})))

    def test_a_known_source_that_cannot_be_opened_stops_the_run(self, monkeypatch, toy_config, toy_dir, tmp_path):
        dataset, _, split, _ = self._dataset(toy_dir, tmp_path)
        read_table = harness.read_table

        def refusing(path, record_cap=None):
            if Path(path).stem in split.known:
                raise PermissionError(13, "refused", str(path))
            return read_table(path, record_cap=record_cap)

        monkeypatch.setattr(harness, "read_table", refusing)
        provider = MockProvider(MockScript({}))
        with pytest.raises(PermissionError, match="refused"):
            run_experiment(self._config(toy_config, dataset), provider)
        assert provider.calls == []

    def test_a_bad_gold_file_of_a_test_source_stops_the_run(self, toy_config, toy_dir, tmp_path):
        dataset, _, split, _ = self._dataset(toy_dir, tmp_path)
        bad = split.test[0]
        (dataset / "gold" / f"{bad}.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^{bad}\.json: model: not JSON: "):
            run_experiment(self._config(toy_config, dataset))

    def test_an_unused_source_without_gold_is_a_config_error(self, toy_config, toy_dir, tmp_path):
        dataset, _, _, unused = self._dataset(toy_dir, tmp_path)
        (dataset / "gold" / f"{unused[0]}.json").unlink()
        with pytest.raises(ValueError, match=rf"without gold models: \['{unused[0]}'\]"):
            run_experiment(self._config(toy_config, dataset))


@pytest.mark.parametrize(
    "field, value",
    [("random_state", "7"), ("record_cap", True), ("max_workers", 2.5), ("test_size", "0.5"), ("test_size", True)],
)
def test_ill_typed_config_values_raise_type_error(field, value, toy_config):
    with pytest.raises(TypeError, match=field):
        toy_config(**{field: value})


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (ProviderConfig, "base_url", 5),
        (ProviderConfig, "model_name", None),
        (ProviderConfig, "api_key_env", ["KEY"]),
        (ProviderConfig, "max_tokens", 4096.0),
        (ProviderConfig, "max_retries", 1.5),
        (ProviderConfig, "requests_per_minute", True),
        (ProviderConfig, "temperature", "0"),
        (ProviderConfig, "timeout", False),
        (CorruptionSpec, "drop_triples", 2.5),
        (CorruptionSpec, "inject_instances", True),
        (CorruptionSpec, "rename_properties", 1.5),
        (CorruptionSpec, "seed", "7"),
        (CorruptionSpec, "stages", "chain1"),
    ],
)
def test_ill_typed_provider_settings_raise_type_error(cls, field, value):
    params = {"base_url": "http://localhost", "model_name": "m"} if cls is ProviderConfig else {}
    with pytest.raises(TypeError, match=field):
        cls(**{**params, field: value})


@pytest.mark.parametrize("field", ["chaining_enabled", "pruning_enabled", "strict_ontology_validation"])
def test_chain_flags_must_be_bool(field):
    with pytest.raises(TypeError, match=field):
        ChainConfig(**{field: "false"})


def test_an_empty_corruption_mapping_leaves_the_mock_replies_unchanged(toy_golds):
    from semchain.harness import make_provider

    plain = make_provider({"kind": "mock"}, toy_golds).script.responses
    assert make_provider({"kind": "mock", "corruption": {}}, toy_golds).script.responses == plain
    assert make_provider({"corruption": None}, toy_golds).script.responses == plain


def _surrogates_joined(text: str) -> str:
    """`text` with each high surrogate that directly precedes a low one joined
    into the character the pair encodes, as JSON reads their two escapes."""
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def test_damaged_replies_fail_only_their_source_and_their_artifacts_read_back(toy_config, tmp_path):
    # A seeded fuzz of about 2,000 damaged mock replies, lone surrogates among
    # them. `_run_one_source` turns a SemchainError into the source's error
    # text, so any other exception fails the test.
    config = toy_config()
    experiment = harness.prepare_experiment(config)
    tables = load_tables(config.sources_dir, config.record_cap)
    script = MockScript.from_gold(experiment.golds)
    rng = random.Random(6)
    surrogates_written = 0
    for _ in range(1200):
        sid = rng.choice(sorted(tables))
        chain = ChainConfig(chaining_enabled=rng.random() < 0.6, strict_ontology_validation=rng.random() < 0.3)
        responses = dict(script.responses)
        for stage in (STAGE_CHAIN1, STAGE_CHAIN2) if chain.chaining_enabled else (STAGE_COMBINED,):
            responses[(sid, stage)] = mutated_reply(responses[(sid, stage)], rng)
        provider = MockProvider(MockScript(responses))
        scored = harness._run_one_source(
            sid, tables[sid], experiment, dataclasses.replace(config, chain=chain), provider, [False, True]
        )
        for _, outcome in scored:
            directory = tmp_path / sid
            harness.write_source_artifacts(directory, sid, outcome)
            if isinstance(outcome, str):
                assert (directory / "error.txt").read_text(encoding="utf-8") == outcome + "\n"
                continue
            for name, text in [
                ("labels.json", serialize_labels(outcome.labels)),
                ("raw_model.json", serialize_model(outcome.raw_model)),
                ("final_model.json", serialize_model(outcome.final_model)),
            ]:
                surrogates_written += bool(re.search("[\ud800-\udfff]", text))
                assert json.loads((directory / name).read_text(encoding="utf-8")) == json.loads(
                    _surrogates_joined(text)
                )
            lines = (directory / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
            assert len(lines) == len(outcome.transcripts)
            for line, exchange in zip(lines, outcome.transcripts.values()):
                contents = [turn["content"] for turn in json.loads(line)["turns"]]
                assert contents == [_surrogates_joined(turn.content) for turn in exchange.turns]
    assert surrogates_written
