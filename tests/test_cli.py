from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import pytest

import semchain
from semchain import Completion, PromptTemplate, load_rules, split_dataset
from semchain.cli import main

from helpers import DEEPLY_NESTED


@pytest.fixture
def capout(capsys):
    def read():
        return capsys.readouterr()

    return read


def _write_config(toy_dir: Path, tmp_path: Path, **extra) -> Path:
    config = {
        "sources_dir": str(toy_dir / "sources"),
        "ontology_path": str(toy_dir / "ontology.json"),
        "gold_dir": str(toy_dir / "gold"),
        "out_dir": str(tmp_path / "out"),
        "shot": "half",
        "random_state": 2023,
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _broken_sources(toy_dir: Path, tmp_path: Path) -> Path:
    """A copy of the toy sources whose artists.csv, a test source at seed
    2023 and shot half, has a row wider than its header."""
    sources = tmp_path / "sources"
    shutil.copytree(toy_dir / "sources", sources)
    assert "artists" in split_dataset(sorted(p.stem for p in sources.iterdir()), 2023, 0.5, "half").test
    path = sources / "artists.csv"
    path.write_text(path.read_text() + ",".join(["x"] * 50) + "\n")
    return sources


def _transcript_without_latency(path: Path):
    return [
        {k: v for k, v in json.loads(line).items() if k != "latency_ms"}
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def test_eval_identical_files_prints_perfect_scores(toy_dir, capout):
    gold = toy_dir / "gold" / "artists.json"
    code = main(["eval", "--gold", str(gold), "--pred", str(gold), "--step", "modeling"])
    out = capout().out
    assert code == 0
    assert "precision 1.000" in out
    assert "recall 1.000" in out


def test_eval_rejects_a_model_with_malformed_links(toy_dir, tmp_path, capout):
    gold = toy_dir / "gold" / "artists.json"
    doc = json.loads(gold.read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "internal_link_triples": "oops"}), encoding="utf-8")
    assert main(["eval", "--gold", str(bad), "--pred", str(gold), "--step", "modeling"]) == 1
    out = capout()
    assert out.out == ""
    assert out.err == "error: bad.json: 'internal_link_triples' must be an array\n"
    # A labels-only file, which has no links field, is still read.
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"semantic_triples": doc["semantic_triples"]}), encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(labels), "--step", "labeling"]) == 0
    assert "precision 1.000" in capout().out


@pytest.mark.parametrize("command", ["eval-gold", "eval-pred", "run", "lint-gold"])
def test_a_bad_model_file_is_named_in_its_error(command, toy_dir, tmp_path, capout):
    bad = tmp_path / "bad.json"
    bad.write_text('{"semantic_triples": [', encoding="utf-8")
    gold = str(toy_dir / "gold" / "artists.json")
    source = str(toy_dir / "sources" / "artists.csv")
    prompt = tmp_path / "system.txt"
    prompt.write_text("system", encoding="utf-8")
    argv = {
        "eval-gold": ["eval", "--gold", str(bad), "--pred", gold],
        "eval-pred": ["eval", "--gold", gold, "--pred", str(bad)],
        "run": ["run", "--system-prompt", str(prompt), "--source", source, "--mock-gold", str(bad),
                "--out", str(tmp_path / "run")],
        "lint-gold": ["lint-gold", "--model", str(bad), "--source", source],
    }[command]
    assert main(argv) == 1
    out = capout()
    assert out.out == ""
    assert out.err.startswith("error: bad.json: model: not JSON: ")
    assert out.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ["[]", "3", '"semantic_triples"', "null"])
def test_eval_rejects_a_file_that_is_no_object(text, toy_dir, tmp_path, capout):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    gold = str(toy_dir / "gold" / "artists.json")
    for argv in (["--gold", str(bad), "--pred", gold], ["--gold", gold, "--pred", str(bad)]):
        assert main(["eval", *argv]) == 1
        out = capout()
        assert (out.out, out.err) == ("", "error: bad.json: model JSON must be an object\n")


def test_experiment_with_mock_provider_completes_offline(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    code = main(["experiment", "--config", str(config)])
    out = capout().out
    assert code == 0
    assert "labeling: precision 1.000 recall 1.000" in out
    assert "modeling: precision 1.000 recall 1.000" in out
    assert (tmp_path / "out" / "report.csv").exists()


def test_experiment_seed_pair_writes_per_seed_dirs(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    code = main(["experiment", "--config", str(config), "--seeds", "2023,2024", "--shot", "one"])
    assert code == 0
    assert (tmp_path / "out" / "seed-2023" / "aggregate.json").exists()
    assert (tmp_path / "out" / "seed-2024" / "aggregate.json").exists()


def test_experiment_ablation_prints_three_rows(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    code = main(["experiment", "--config", str(config), "--ablation"])
    out = capout().out
    assert code == 0
    for name in ("single-prompt", "chaining", "chaining+prune"):
        assert name in out
    assert (tmp_path / "out" / "ablation.csv").exists()


def test_experiment_ablation_exits_two_when_sources_fail(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, sources_dir=str(_broken_sources(toy_dir, tmp_path)))
    assert main(["experiment", "--config", str(config), "--ablation"]) == 2
    with (tmp_path / "out" / "ablation.csv").open(encoding="utf-8") as handle:
        assert handle.readline().strip() == "configuration,precision,recall"


def test_lint_gold_reports_dangling_leaf(toy_dir, tmp_path, capout):
    model = {
        "semantic_triples": [["crm:E39_Actor1", "crm:P3_has_note", "not_a_header"]],
        "internal_link_triples": [],
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    code = main(
        ["lint-gold", "--model", str(model_path), "--source", str(toy_dir / "sources" / "artists.csv")]
    )
    out = capout().out
    assert code == 0
    assert out.count("L1") == 1


def test_lint_gold_clean_fixture(toy_dir, capout):
    code = main(
        [
            "lint-gold",
            "--model",
            str(toy_dir / "gold" / "artists.json"),
            "--source",
            str(toy_dir / "sources" / "artists.csv"),
        ]
    )
    assert code == 0
    assert "clean" in capout().out


def test_ingest_emits_unified_json(toy_dir, capout):
    code = main(["ingest", str(toy_dir / "sources" / "artists.csv")])
    out = capout().out
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[3]["death_date"] == "<Empty>"


def test_ingest_cap_option(toy_dir, capout):
    code = main(["ingest", str(toy_dir / "sources" / "artists.csv"), "--cap", "2"])
    assert code == 0
    assert len(json.loads(capout().out)) == 2


def test_ingest_reads_the_file_a_slice_at_a_time_with_its_options(monkeypatch, tmp_path, capout):
    from semchain import cli, ingest

    records = [{"id": i, "title": f"T{i} " + "lorem ipsum " * 10} for i in range(2000)]
    source = tmp_path / "data.txt"
    source.write_text(json.dumps(records), encoding="utf-8")
    parse_source = cli.parse_source
    views = []

    def spy(raw_bytes, fmt, source_id, record_cap=None):
        views.append((type(raw_bytes), len(raw_bytes)))
        return parse_source(raw_bytes, fmt, source_id, record_cap)

    monkeypatch.setattr(cli, "parse_source", spy)
    assert main(["ingest", str(source), "--format", "json", "--source-id", "titles", "--cap", "2"]) == 0
    assert views == [(ingest.FileBytes, source.stat().st_size)]
    assert source.stat().st_size > 2 * ingest._SLICE
    table = parse_source(source.read_bytes(), semchain.SourceFormat.JSON, "titles", 2)
    assert capout().out == semchain.serialize_table(table, 2).text + "\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_ingest_reads_a_source_that_is_no_regular_file_whole(capout):
    read, write = os.pipe()
    try:
        os.write(write, b"a,b\n1,2\n")
        os.close(write)
        assert main(["ingest", f"/dev/fd/{read}", "--format", "csv"]) == 0
    finally:
        os.close(read)
    assert json.loads(capout().out) == [{"a": "1", "b": "2"}]


def test_ingest_of_a_bad_csv_prints_an_error_and_exits_one(tmp_path, capout):
    source = tmp_path / "huge.csv"
    source.write_text("a,b\n" + "x" * 140_000 + ",1\n", encoding="utf-8")
    assert main(["ingest", str(source)]) == 1
    err = capout().err
    assert err.startswith("error: huge: bad CSV at line 2")
    assert "Traceback" not in err


def test_ingest_of_a_deeply_nested_source_prints_an_error_and_exits_one(tmp_path, capout):
    source = tmp_path / "elements.xml"
    source.write_bytes(DEEPLY_NESTED["elements.xml"])
    assert main(["ingest", str(source)]) == 1
    err = capout().err
    assert err.startswith("error: elements: nested too deeply")
    assert "Traceback" not in err


def test_ingest_of_an_unknown_suffix_without_format_exits_one(tmp_path, capout):
    source = tmp_path / "data.txt"
    source.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["ingest", str(source)]) == 1
    assert capout().err == "error: no parser for file suffix '.txt'\n"


def test_serialize_ontology_round_trip(toy_dir, tmp_path, capout):
    out_path = tmp_path / "onto.json"
    code = main(["serialize-ontology", str(toy_dir / "ontology.json"), "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert list(doc) == ["Nodes", "Properties", "Potential triples"]


def test_build_prompt_emits_sections(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, shot="one")
    code = main(["build-prompt", "--config", str(config)])
    out = capout().out
    assert code == 0
    assert "<Ontology>" in out and "<Examples>" in out
    assert out.count("<Table>") == 1


def test_build_prompt_random_state_option_overrides_the_config(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    assert main(["build-prompt", "--config", str(config), "--random-state", "7"]) == 0
    overridden = capout().out
    assert main(["build-prompt", "--config", str(config)]) == 0
    assert capout().out != overridden
    config = _write_config(toy_dir, tmp_path, random_state=7)
    assert main(["build-prompt", "--config", str(config)]) == 0
    assert capout().out == overridden


def test_run_single_source(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, shot="one")
    prompt_path = tmp_path / "system.txt"
    code = main(["build-prompt", "--config", str(config), "--out", str(prompt_path)])
    assert code == 0
    out_dir = tmp_path / "single"
    code = main(
        [
            "run",
            "--system-prompt", str(prompt_path),
            "--source", str(toy_dir / "sources" / "donations.csv"),
            "--mock-gold", str(toy_dir / "gold" / "donations.json"),
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    final = json.loads((out_dir / "final_model.json").read_text())
    gold = json.loads((toy_dir / "gold" / "donations.json").read_text())
    assert sorted(map(tuple, final["internal_link_triples"])) == sorted(
        map(tuple, gold["internal_link_triples"])
    )


def test_run_strict_drops_an_illegal_link_and_says_so(toy_dir, tmp_path, capout):
    gold = json.loads((toy_dir / "gold" / "artists.json").read_text(encoding="utf-8"))
    # Nothing in the toy ontology lets a person bring a birth into life.
    illegal = ["crm:E21_Person1", "crm:P98_brought_into_life", "crm:E67_Birth1"]
    mock_gold = tmp_path / "artists.json"
    mock_gold.write_text(
        json.dumps({**gold, "internal_link_triples": gold["internal_link_triples"] + [illegal]}),
        encoding="utf-8",
    )
    prompt = tmp_path / "system.txt"
    prompt.write_text("system", encoding="utf-8")
    out_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--system-prompt", str(prompt),
            "--source", str(toy_dir / "sources" / "artists.csv"),
            "--mock-gold", str(mock_gold),
            "--ontology", str(toy_dir / "ontology.json"),
            "--strict",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert capout().out == f"artists: 3 labels, 4 links -> {out_dir}\n"
    raw = json.loads((out_dir / "raw_model.json").read_text(encoding="utf-8"))
    final = json.loads((out_dir / "final_model.json").read_text(encoding="utf-8"))
    assert illegal in raw["internal_link_triples"]
    assert sorted(final["internal_link_triples"]) == sorted(gold["internal_link_triples"])
    assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "strict validation dropped 1 internal link(s)\n"


def test_template_and_rule_dirs_resolve_against_the_config_file(toy_dir, tmp_path, capout):
    templates = PromptTemplate.load()
    (tmp_path / "tpl").mkdir()
    for part in ("system", "example", "chain1", "chain2", "combined"):
        text = getattr(templates, part) + ("\nHouse style: be brief.\n" if part == "system" else "")
        (tmp_path / "tpl" / f"{part}.txt").write_text(text, encoding="utf-8")
    rules = (load_rules()[0] + "\nRule zero: name every attribute.\n", load_rules()[1])
    (tmp_path / "rules").mkdir()
    for name, text in zip(("rules_step1.txt", "rules_step2.txt"), rules):
        (tmp_path / "rules" / name).write_text(text, encoding="utf-8")
    config = _write_config(toy_dir, tmp_path, templates_dir="tpl", rules_dir="rules")
    assert main(["experiment", "--config", str(config)]) == 0
    out = tmp_path / "out"
    prompt = (out / "system_prompt.txt").read_text(encoding="utf-8")
    assert "House style: be brief." in prompt
    assert "Rule zero: name every attribute." in prompt
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    system_text = (tmp_path / "tpl" / "system.txt").read_text(encoding="utf-8")
    assert meta["template_sha256"]["system"] == hashlib.sha256(system_text.encode("utf-8")).hexdigest()
    assert meta["rules_sha256"] == [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in rules]


def test_run_writes_the_experiment_source_files(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config)]) == 0
    experiment = tmp_path / "out"
    test = json.loads((experiment / "split.json").read_text())["test"]
    sources = {path.stem: path for path in (toy_dir / "sources").iterdir()}
    for sid in test:
        out_dir = tmp_path / "single" / sid
        code = main(
            [
                "run",
                "--system-prompt", str(experiment / "system_prompt.txt"),
                "--source", str(sources[sid]),
                "--mock-gold", str(toy_dir / "gold" / f"{sid}.json"),
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        expected = experiment / "sources" / sid
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(p.name for p in expected.iterdir())
        for name in ("labels.json", "raw_model.json", "final_model.json"):
            assert (out_dir / name).read_bytes() == (expected / name).read_bytes(), (sid, name)
        assert _transcript_without_latency(out_dir / "transcript.jsonl") == _transcript_without_latency(
            expected / "transcript.jsonl"
        )


def test_run_links_an_unchanged_final_model_to_the_raw_model(toy_dir, tmp_path, capout):
    prompt = tmp_path / "system.txt"
    prompt.write_text("system", encoding="utf-8")
    out_dir = tmp_path / "single"
    argv = ["run", "--system-prompt", str(prompt), "--source", str(toy_dir / "sources" / "donations.csv"),
            "--mock-gold", str(toy_dir / "gold" / "donations.json"), "--out", str(out_dir)]
    assert main(argv) == 0
    raw, final = (out_dir / "raw_model.json").stat(), (out_dir / "final_model.json").stat()
    assert raw.st_ino == final.st_ino and raw.st_nlink == 2
    assert all((out_dir / name).stat().st_nlink == 1 for name in ("labels.json", "transcript.jsonl"))


def test_run_into_an_ablation_arm_leaves_the_linked_twin_unchanged(toy_dir, tmp_path, capout):
    # The chaining+prune arm's files are hard links to the chaining arm's.
    assert main(["experiment", "--config", str(_write_config(toy_dir, tmp_path)), "--ablation"]) == 0
    ablation = tmp_path / "out" / "ablation"
    twin = ablation / "chaining"
    before = {p: p.read_bytes() for p in twin.rglob("*") if p.is_file()}
    target = ablation / "chaining+prune" / "sources" / "artists"
    linked = twin / "sources" / "artists" / "transcript.jsonl"
    assert (target / "transcript.jsonl").stat().st_ino == linked.stat().st_ino
    gold = json.loads((toy_dir / "gold" / "artists.json").read_text(encoding="utf-8"))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**gold, "internal_link_triples": gold["internal_link_triples"][:1]}), encoding="utf-8")
    argv = ["run", "--system-prompt", str(twin / "system_prompt.txt"),
            "--source", str(toy_dir / "sources" / "artists.csv"), "--mock-gold", str(other), "--out", str(target)]
    assert main(argv) == 0
    assert len(json.loads((target / "raw_model.json").read_text(encoding="utf-8"))["internal_link_triples"]) == 1
    assert {p: p.read_bytes() for p in twin.rglob("*") if p.is_file()} == before


def test_every_command_parses_with_its_record_cap(monkeypatch, toy_dir, tmp_path, capout):
    from semchain import cli, harness

    caps = []

    def spy(parse):
        def wrapped(raw_bytes, fmt, source_id, record_cap=None):
            caps.append(record_cap)
            return parse(raw_bytes, fmt, source_id, record_cap)

        return wrapped

    monkeypatch.setattr(harness, "parse_source", spy(harness.parse_source))
    monkeypatch.setattr(cli, "parse_source", spy(cli.parse_source))
    source = str(toy_dir / "sources" / "artists.csv")
    gold = str(toy_dir / "gold" / "artists.json")
    prompt_path = tmp_path / "system.txt"
    config = _write_config(toy_dir, tmp_path, shot="one", record_cap=2)

    assert main(["build-prompt", "--config", str(config), "--out", str(prompt_path)]) == 0
    assert set(caps) == {2}
    caps.clear()
    assert main(["ingest", source, "--cap", "2"]) == 0
    assert main(["ingest", source]) == 0
    assert main(["lint-gold", "--model", gold, "--source", source]) == 0
    run = ["run", "--system-prompt", str(prompt_path), "--source", source, "--mock-gold", gold]
    assert main(run + ["--out", str(tmp_path / "run"), "--record-cap", "3"]) == 0
    assert caps == [2, None, 1, 3]


def test_build_prompt_is_the_experiment_system_prompt(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, shot="quarter", record_cap=2)
    prompt_path = tmp_path / "system.txt"
    assert main(["build-prompt", "--config", str(config), "--out", str(prompt_path)]) == 0
    assert main(["experiment", "--config", str(config)]) == 0
    assert prompt_path.read_text(encoding="utf-8").rstrip("\n") == (
        tmp_path / "out" / "system_prompt.txt"
    ).read_text(encoding="utf-8").rstrip("\n")


def test_build_prompt_works_when_a_test_source_fails_to_parse(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, sources_dir=str(_broken_sources(toy_dir, tmp_path)))
    assert main(["experiment", "--config", str(config)]) == 2
    capout()
    assert main(["build-prompt", "--config", str(config)]) == 0
    assert capout().out == (tmp_path / "out" / "system_prompt.txt").read_text(encoding="utf-8") + "\n"


def test_build_prompt_prints_the_same_prompt_when_a_test_source_holds_a_bad_byte(toy_dir, tmp_path, capout):
    assert main(["build-prompt", "--config", str(_write_config(toy_dir, tmp_path))]) == 0
    clean = capout().out
    sources = tmp_path / "sources"
    shutil.copytree(toy_dir / "sources", sources)
    assert "artists" in split_dataset(sorted(p.stem for p in sources.iterdir()), 2023, 0.5, "half").test
    path = sources / "artists.csv"
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert main(["build-prompt", "--config", str(_write_config(toy_dir, tmp_path, sources_dir=str(sources)))]) == 0
    assert capout().out == clean


def test_build_prompt_prints_the_same_prompt_when_a_test_gold_is_malformed(toy_dir, tmp_path, capout):
    assert main(["build-prompt", "--config", str(_write_config(toy_dir, tmp_path))]) == 0
    clean = capout().out
    gold = tmp_path / "gold"
    shutil.copytree(toy_dir / "gold", gold)
    assert "artists" in split_dataset(sorted(p.stem for p in gold.iterdir()), 2023, 0.5, "half").test
    (gold / "artists.json").write_text('{"semantic_triples": [', encoding="utf-8")
    assert main(["build-prompt", "--config", str(_write_config(toy_dir, tmp_path, gold_dir=str(gold)))]) == 0
    assert capout().out == clean


@pytest.mark.parametrize(
    "text", [b'{"semantic_triples": [', DEEPLY_NESTED["arrays.json"]], ids=["malformed", "nested"]
)
@pytest.mark.parametrize("command", ["eval", "serialize-ontology", "build-prompt"])
def test_bad_json_input_prints_one_error_and_exits_one(command, text, toy_dir, tmp_path, capout):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    gold = str(toy_dir / "gold" / "artists.json")
    argv, what = {
        "eval": (["eval", "--gold", str(bad), "--pred", gold], "bad.json: model"),
        "serialize-ontology": (["serialize-ontology", str(bad)], "bad.json: ontology"),
        "build-prompt": (["build-prompt", "--config", str(bad)], "config"),
    }[command]
    assert main(argv) == 1
    err = capout().err
    reason = "not JSON" if text.startswith(b"{") else "nested too deeply to parse"
    assert err.startswith(f"error: {what}: {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "what, extra",
    [
        ("config chain", {"chain": {"prune": False}}),
        ("config chain", {"chain": "on"}),
        ("provider", {"provider": {"kind": "http", "base_url": "x", "model_name": "m", "retries": 1}}),
        ("provider", {"provider": "mock"}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": {"drop": 1}}}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": [["drop_triples", 1]]}}),
        ("config", {"surprise": 1}),
        ("config chain", {"chain": {"pruning_enabled": "no"}}),
        ("config chain", {"chain": {"chaining_enabled": "false"}}),
        ("config", {"max_workers": 2.5}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": {"drop_triples": 2.5}}}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": {"rename_properties": 1.5}}}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": {"stages": "chain1"}}}),
        ("provider", {"provider": {"kind": "http", "base_url": 5, "model_name": "m"}}),
        ("provider", {"provider": {"kind": "http", "base_url": "x", "model_name": "m", "max_retries": 1.5}}),
        ("base_url", {"provider": {"kind": "http", "base_url": "api.example.com/v1", "model_name": "m"}}),
        ("base_url", {"provider": {"kind": "http", "base_url": "ftp://example.com", "model_name": "m"}}),
        ("base_url", {"provider": {"kind": "http", "base_url": "http://", "model_name": "m"}}),
        (
            "base_url must be printable ASCII with no space, got ' '",
            {"provider": {"kind": "http", "base_url": "http://127.0.0.1:9/v 1", "model_name": "m"}},
        ),
        (
            "environment variable 'SEMCHAIN_TEST_UNSET_KEY' is not set",
            {"provider": {"kind": "http", "base_url": "https://api.example.test/v1", "model_name": "m",
                          "api_key_env": "SEMCHAIN_TEST_UNSET_KEY"}},
        ),
        ("max_tokens", {"provider": {"kind": "http", "base_url": "http://x", "model_name": "m", "max_tokens": 0}}),
        ("timeout", {"provider": {"kind": "http", "base_url": "http://x", "model_name": "m", "timeout": math.nan}}),
        (
            "temperature",
            {"provider": {"kind": "http", "base_url": "http://x", "model_name": "m", "temperature": math.inf}},
        ),
        ("provider", {"provider": {"kind": "mock", "corruptoin": {"drop_triples": 1}}}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": []}}),
        ("provider corruption", {"provider": {"kind": "mock", "corruption": 0}}),
        ("shot must be a setting name or a positive integer", {"shot": True}),
        ("explicit shot count must be >= 1", {"shot": 0}),
        ("test_size must be in (0, 1)", {"test_size": 1}),
        ("test_size 0.01 leaves no usable split for 6 sources", {"test_size": 0.01}),
        ("record_cap must be >= 1", {"record_cap": 0}),
        ("max_workers must be >= 1", {"max_workers": 0}),
        ("aggregate_mode must be macro or micro, got 'mean'", {"aggregate_mode": "mean"}),
        (
            "max_retries must be >= 0",
            {"provider": {"kind": "http", "base_url": "http://x", "model_name": "m", "max_retries": -1}},
        ),
        (
            "requests_per_minute must be >= 1",
            {"provider": {"kind": "http", "base_url": "http://x", "model_name": "m", "requests_per_minute": 0}},
        ),
        ("drop_triples must be >= 0", {"provider": {"kind": "mock", "corruption": {"drop_triples": -1}}}),
        ("unknown stages ['chain3']", {"provider": {"kind": "mock", "corruption": {"stages": ["chain3"]}}}),
        # The fixtures directory holds no templates.
        ("template 'system.txt' not found", {"templates_dir": str(Path(__file__).parent / "fixtures")}),
        ("config: sources_dir must be a path, got None", {"sources_dir": None}),
        ("config: ontology_path must be a path, got None", {"ontology_path": None}),
        ("config: gold_dir must be a path, got None", {"gold_dir": None}),
        ("config: out_dir must be a path, got None", {"out_dir": None}),
    ],
    ids=[
        "chain-key", "chain-not-object", "provider-key", "provider-not-object",
        "corruption-key", "corruption-not-object", "config-key",
        "chain-flag-string-no", "chain-flag-string-false", "max-workers-float",
        "corruption-drop-float", "corruption-rename-float", "corruption-stages-string",
        "http-base-url-int", "http-retries-float",
        "http-base-url-no-scheme", "http-base-url-ftp", "http-base-url-no-host", "http-base-url-space",
        "http-key-unset", "http-max-tokens-zero", "http-timeout-nan", "http-temperature-infinity",
        "mock-key", "corruption-empty-list", "corruption-zero",
        "shot-true", "shot-zero", "test-size-one", "test-size-no-split", "record-cap-zero",
        "max-workers-zero", "aggregate-mode-mean", "http-max-retries-negative", "http-rpm-zero",
        "corruption-drop-negative", "corruption-stage-unknown", "templates-no-system",
        "sources-dir-null", "ontology-path-null", "gold-dir-null", "out-dir-null",
    ],
)
def test_bad_config_mappings_exit_one(what, extra, toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, **extra)
    assert main(["experiment", "--config", str(config)]) == 1
    err = capout().err
    assert err.startswith(f"error: {what}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_missing_gold_directory_exits_one(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, gold_dir=str(tmp_path / "no-such-gold"))
    assert main(["experiment", "--config", str(config)]) == 1
    err = capout().err
    assert err.startswith("error: no gold models found in ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _one_input_file(kind: str, toy_dir: Path, tmp_path: Path):
    """A command that reads a file of `kind`, that file, and the name its errors give."""
    gold = toy_dir / "gold" / "artists.json"
    if kind == "model":
        path = Path(shutil.copy(gold, tmp_path))
        return ["eval", "--gold", str(path), "--pred", str(gold)], path, "artists.json: model"
    if kind == "source":
        path = Path(shutil.copy(toy_dir / "sources" / "artists.csv", tmp_path))
        return ["ingest", str(path)], path, "artists"
    if kind == "serialize-ontology":
        path = Path(shutil.copy(toy_dir / "ontology.json", tmp_path))
        return ["serialize-ontology", str(path)], path, "ontology.json: ontology"
    if kind in ("system-prompt", "run-ontology"):
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("Model the table.\n", encoding="utf-8")
        argv = ["run", "--system-prompt", str(prompt), "--source", str(toy_dir / "sources" / "artists.csv"),
                "--mock-gold", str(gold), "--out", str(tmp_path / "single")]
        if kind == "system-prompt":
            return argv, prompt, "prompt.txt"
        path = Path(shutil.copy(toy_dir / "ontology.json", tmp_path))
        return [*argv, "--ontology", str(path), "--strict"], path, "ontology.json: ontology"
    # The experiment set-up reads the rest, from copies the config names.
    shutil.copytree(toy_dir / "gold", tmp_path / "gold")
    shutil.copy(toy_dir / "ontology.json", tmp_path)
    shutil.copytree(Path(semchain.__file__).parent / "templates", tmp_path / "tpl")
    config = _write_config(
        toy_dir, tmp_path, gold_dir="gold", ontology_path="ontology.json", templates_dir="tpl", rules_dir="tpl"
    )
    path, name = {
        "config": (config, "config.json"),
        "ontology": (tmp_path / "ontology.json", "ontology.json: ontology"),
        "gold": (tmp_path / "gold" / "artists.json", "artists.json: model"),
        "template": (tmp_path / "tpl" / "system.txt", "template 'system.txt'"),
        "rules": (tmp_path / "tpl" / "rules_step1.txt", "template 'rules_step1.txt'"),
    }[kind]
    return ["experiment", "--config", str(config)], path, name


INPUT_FILE_KINDS = [
    "config", "ontology", "gold", "model", "template", "rules", "system-prompt", "source",
    "serialize-ontology", "run-ontology",
]


@pytest.mark.parametrize("kind", INPUT_FILE_KINDS)
def test_an_input_file_that_is_not_utf8_is_named_in_its_error(kind, toy_dir, tmp_path, capout):
    argv, path, name = _one_input_file(kind, toy_dir, tmp_path)
    # An é as an editor set to Latin-1 saves it.
    path.write_bytes(path.read_bytes() + "\u00e9\n".encode("latin-1"))
    assert main(argv) == 1
    err = capout().err
    assert err.startswith(f"error: {name}: not UTF-8: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["serialize-ontology", "run-ontology", "ontology"])
def test_an_ontology_file_of_the_wrong_shape_is_named_in_its_error(kind, toy_dir, tmp_path, capout):
    argv, path, _ = _one_input_file(kind, toy_dir, tmp_path)
    path.write_text("[]", encoding="utf-8")
    assert main(argv) == 1
    err = capout().err
    assert err == "error: ontology.json: ontology JSON must be an object\n"


@pytest.mark.parametrize("kind", INPUT_FILE_KINDS)
def test_an_input_file_with_a_byte_order_mark_reads_as_without(kind, toy_dir, tmp_path, capout):
    argv, path, _ = _one_input_file(kind, toy_dir, tmp_path)
    prompt, transcript = tmp_path / "out" / "system_prompt.txt", tmp_path / "single" / "transcript.jsonl"

    def outputs():
        assert main(argv) == 0
        return (
            capout().out,
            prompt.read_text(encoding="utf-8") if prompt.exists() else None,
            _transcript_without_latency(transcript) if transcript.exists() else None,
        )

    plain = outputs()
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert outputs() == plain


@pytest.mark.parametrize("shot", ["", "\u00b2"], ids=["empty", "superscript-two"])
def test_a_shot_that_is_no_setting_or_count_exits_one(shot, toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    assert main(["build-prompt", "--config", str(config), "--shot", shot]) == 1
    err = capout().err
    assert err.startswith("error: shot must be one of ")
    assert err.count("\n") == 1


def _gold_with_a_lone_surrogate(toy_dir: Path, tmp_path: Path, sid: str) -> Path:
    """A copy of the toy golds whose `sid` file escapes a lone surrogate in a
    property name; the mock replays a test source's gold, and a known
    source's gold is an example in the system prompt."""
    gold = tmp_path / "gold"
    shutil.copytree(toy_dir / "gold", gold)
    path = gold / f"{sid}.json"
    text = path.read_text(encoding="utf-8").replace("P131_is_identified_by", "P131\\ud800")
    path.write_text(text, encoding="utf-8")
    return gold


@pytest.mark.parametrize("sid, known", [("artists", False), ("artworks", True)], ids=["artists", "artworks"])
def test_a_reply_holding_a_lone_surrogate_is_written_and_the_run_completes(sid, known, toy_dir, tmp_path, capout):
    gold = _gold_with_a_lone_surrogate(toy_dir, tmp_path, sid)
    split = split_dataset(sorted(p.stem for p in gold.iterdir()), 2023, 0.5, "half")
    assert (sid in split.known, sid in split.test) == (known, not known)
    config = _write_config(toy_dir, tmp_path, gold_dir=str(gold))
    assert main(["experiment", "--config", str(config)]) == 0
    assert "modeling: precision 1.000 recall 1.000" in capout().out
    out = tmp_path / "out"
    assert all((out / name).is_file() for name in ("report.csv", "aggregate.json", "depth_buckets.csv"))
    prompt = (out / "system_prompt.txt").read_bytes()
    assert (b"crm:P131\\ud800" in prompt) == known
    digest = hashlib.sha256(prompt).hexdigest()
    for test_sid in split.test:
        lines = (out / "sources" / test_sid / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(line)["system_sha256"] == digest for line in lines)
    if not known:
        labels = json.loads((out / "sources" / sid / "labels.json").read_text(encoding="utf-8"))
        assert ["crm:E21_Person1", "crm:P131\ud800", "name"] in labels["semantic_triples"]


def test_build_prompt_writes_a_known_gold_holding_a_lone_surrogate(toy_dir, tmp_path, capout):
    gold = _gold_with_a_lone_surrogate(toy_dir, tmp_path, "artworks")
    config = _write_config(toy_dir, tmp_path, gold_dir=str(gold))
    prompt_path = tmp_path / "system.txt"
    assert main(["build-prompt", "--config", str(config), "--out", str(prompt_path)]) == 0
    assert b"crm:P131\\ud800" in prompt_path.read_bytes()
    capout()
    assert main(["build-prompt", "--config", str(config)]) == 0
    assert capout().out == prompt_path.read_text(encoding="utf-8") + "\n"


@pytest.mark.parametrize(
    "provider", [{"kind": "mock"}, {"kind": "mock", "corruption": {"drop_triples": 1, "seed": 3}}],
    ids=["clean", "corrupted"],
)
def test_a_source_whose_file_name_is_not_utf8_runs_through(provider, toy_dir, tmp_path, capout):
    # On Linux a file name is bytes; the byte 0xff decodes to the lone
    # surrogate U+DCFF, which every artifact naming the source, and the
    # corrupting mock's seed, must encode.
    sources, gold = tmp_path / "sources", tmp_path / "gold"
    shutil.copytree(toy_dir / "sources", sources)
    shutil.copytree(toy_dir / "gold", gold)
    sid = os.fsdecode(b"don\xffations")
    try:
        (sources / "donations.csv").rename(sources / f"{sid}.csv")
        (gold / "donations.json").rename(gold / f"{sid}.json")
    except (OSError, UnicodeEncodeError):
        pytest.skip("this filesystem refuses a file name that is not UTF-8")
    assert sid in split_dataset(sorted(p.stem for p in gold.iterdir()), 2023, 0.5, "half").test
    config = _write_config(toy_dir, tmp_path, sources_dir=str(sources), gold_dir=str(gold), provider=provider)
    assert main(["experiment", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert all((out / name).is_file() for name in ("report.csv", "aggregate.json", "depth_buckets.csv"))
    with (out / "report.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert "don\\udcffations" in {row["source_id"] for row in rows}
    assert not any(row["error"] for row in rows)


def test_a_gold_file_with_an_upper_case_suffix_is_found(toy_dir, tmp_path, capout):
    gold = tmp_path / "gold"
    shutil.copytree(toy_dir / "gold", gold)
    (gold / "artists.json").rename(gold / "artists.JSON")
    config = _write_config(toy_dir, tmp_path, gold_dir=str(gold))
    assert main(["experiment", "--config", str(config)]) == 0
    assert "modeling: precision 1.000 recall 1.000" in capout().out


def test_a_deeply_nested_reply_fails_only_its_source(monkeypatch, toy_dir, tmp_path, capout):
    from semchain import harness

    make_provider = harness.make_provider

    class _DeepArtists:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, system, turns, *, tags=None):
            reply = self.inner.complete(system, turns, tags=tags)
            if tags["source_id"] != "artists":
                return reply
            return Completion("<Step1>" + "[" * 100_000 + "]" * 100_000 + "</Step1>", reply.usage)

    monkeypatch.setattr(harness, "make_provider", lambda spec, golds: _DeepArtists(make_provider(spec, golds)))
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config)]) == 2
    out = tmp_path / "out"
    with (out / "report.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["source_id"] for row in rows if row["error"]} == {"artists"}
    assert "nested too deeply" in (out / "sources" / "artists" / "error.txt").read_text()
    assert all(row["precision"] == "1.000000" for row in rows if row["source_id"] != "artists")


def test_an_oversized_instance_index_fails_only_its_source(monkeypatch, toy_dir, tmp_path, capout):
    from semchain import harness

    make_provider = harness.make_provider
    # More digits than Python converts to an int by default (4,300).
    huge = "crm:E21_Person" + "1" * 5000

    class _HugeIndexArtists:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, system, turns, *, tags=None):
            reply = self.inner.complete(system, turns, tags=tags)
            if (tags["source_id"], tags["stage"]) != ("artists", "chain2"):
                return reply
            link = [huge, "crm:P98i_was_born", "crm:E67_Birth1"]
            doc = {"semantic_triples": [], "internal_link_triples": [link]}
            return Completion(f"<Step2>{json.dumps(doc)}</Step2>", reply.usage)

    monkeypatch.setattr(
        harness, "make_provider", lambda spec, golds: _HugeIndexArtists(make_provider(spec, golds))
    )
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config)]) == 2
    out = tmp_path / "out"
    with (out / "report.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["source_id"] for row in rows if row["error"]} == {"artists"}
    assert "InstanceParseError" in (out / "sources" / "artists" / "error.txt").read_text()
    assert all(row["precision"] == "1.000000" for row in rows if row["source_id"] != "artists")


@pytest.mark.parametrize("seeds", [",", "", " , "], ids=["comma", "empty", "blank"])
def test_seeds_that_name_no_random_state_exit_one(seeds, toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config), "--seeds", seeds]) == 1
    err = capout().err
    assert err.startswith("error: --seeds") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds, part", [("2023,x", "x"), ("2023, 2023.5", "2023.5")], ids=["word", "fraction"])
def test_a_seed_that_is_no_integer_is_named_in_its_error(seeds, part, toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config), "--seeds", seeds]) == 1
    assert capout().err == f"error: --seeds {seeds!r}: {part!r} is not an integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", ["2023,2023", "2023,2024, 2023"], ids=["twice", "spaced"])
def test_a_repeated_seed_exits_one_before_anything_is_written(seeds, toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config), "--seeds", seeds]) == 1
    assert capout().err == f"error: --seeds {seeds!r} repeats random state 2023\n"
    assert not (tmp_path / "out").exists()


def test_run_into_a_reused_directory_leaves_only_its_own_files(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, shot="one")
    prompt_path = tmp_path / "system.txt"
    assert main(["build-prompt", "--config", str(config), "--out", str(prompt_path)]) == 0
    out_dir = tmp_path / "single"
    out_dir.mkdir()
    for name in ("error.txt", "notes.txt", "keep.txt"):
        (out_dir / name).write_text("stale\n")
    code = main(
        [
            "run",
            "--system-prompt", str(prompt_path),
            "--source", str(toy_dir / "sources" / "donations.csv"),
            "--mock-gold", str(toy_dir / "gold" / "donations.json"),
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "final_model.json", "keep.txt", "labels.json", "raw_model.json", "transcript.jsonl",
    ]


def test_config_errors_exit_one(tmp_path, capout):
    missing = tmp_path / "nope.json"
    assert main(["experiment", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["experiment", "--config", str(bad)]) == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        main(["eval", "--gold", "only-half-the-args"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["run", "--system-prompt", "p.txt", "--source", "s.csv", "--out", "o"])
    assert err.value.code == 1


def test_unknown_provider_kind_exits_one(toy_dir, tmp_path, capout):
    config = _write_config(toy_dir, tmp_path, provider={"kind": "carrier-pigeon"})
    assert main(["experiment", "--config", str(config)]) == 1


def test_partial_failures_exit_two(monkeypatch, toy_dir, tmp_path, capout):
    from semchain.evaluation import MODELING, EvalReport, ScoreRow

    failed = EvalReport(
        (ScoreRow("x", MODELING, 0.0, 0.0, 1, 0, 0, 1, 0.0, 0, error="boom"),),
        {MODELING: (0.0, 0.0)},
    )
    monkeypatch.setattr("semchain.cli.harness.run_experiment", lambda config: failed)
    config = _write_config(toy_dir, tmp_path)
    assert main(["experiment", "--config", str(config)]) == 2
