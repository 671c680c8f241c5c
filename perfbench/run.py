"""Layered offline benchmark for semchain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run generates a seeded dataset under ``.bench_build/perfbench/``, drives
the public API (``run_experiment`` or ``run_ablation``) in closed loop for
``--seconds`` seconds after one warm-up call, checks every call's artifacts,
and prints one metric per line followed by a JSON summary as the last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics. See NOTES.md for
why each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import datagen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import providers
    import semchain as sc
except ImportError as exc:  # a directory without the program: main() reports it
    sc = None
    IMPORT_ERROR = exc

MIN_CALLS = 3
TEST_SIZE = 0.5

END_TO_END = {
    "sources_per_s": "1/s",
    "setup_s": "s",
    "cpu_ms_per_source": "ms",
    "peak_rss_mb": "MB",
    "provider_calls_per_source": "count",
    "tokens_per_source": "count",
    "modeling_precision": "ratio",
    "modeling_recall": "ratio",
    "ok_share": "ratio",
}
LAYERS = ("ingest", "ontology", "prompting", "llm", "chain", "semantic_model", "evaluation", "harness")
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "ingest.parse_ms": "ms",
    "ingest.bytes_read": "bytes",
    "ingest.records_parsed": "count",
    "ingest.records_used_ratio": "ratio",
    "ontology.parse_ms": "ms",
    "prompting.build_ms": "ms",
    "prompting.system_prompt_chars": "chars",
    "llm.calls": "count",
    "llm.input_tokens": "count",
    "llm.output_tokens": "count",
    "llm.provider_wait_ms": "ms",
    "llm.extract_ms": "ms",
    "semantic_model.parse_ms": "ms",
    "semantic_model.prune_ms": "ms",
    "semantic_model.depth_ms": "ms",
    "semantic_model.triples_pruned": "count",
    "evaluation.match_ms": "ms",
    "evaluation.match_ms_max": "ms",
    "evaluation.match_calls": "count",
    "evaluation.mapping_space_max": "count",
    "evaluation.planted_shortfall": "count",
    "harness.files_written": "count",
    "harness.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    shape: datagen.Shape
    ablation: bool = False
    shot: str = "half"
    # None: the provider replays gold. Otherwise it answers with the planted
    # permutation of gold, minus this share of triples.
    drop_share: float | None = None
    # Instances per class of the test sources, in split order (match-dense).
    test_instances: tuple[tuple[int, ...], ...] = ()
    delay_s: float = 0.0
    per_token_s: float = 0.0


@dataclass
class CallStats:
    wall_s: float
    cpu_s: float
    setups: list[float]
    calls: int
    tokens: int
    precision: float
    recall: float
    check: "checks.CheckResult"
    files: int
    bytes: int


def workloads() -> dict[str, Workload]:
    small = datagen.Shape(sources=200, attributes=5, rows=4, nesting=1, instances_per_class=(2, 1, 1))
    return {
        "ingest-wide": Workload(
            datagen.Shape(sources=4, attributes=16, rows=20_000, nesting=2, instances_per_class=(2, 1, 1))
        ),
        "match-dense": Workload(
            datagen.Shape(sources=16, attributes=18, rows=5, nesting=1, instances_per_class=(2, 2)),
            shot="one",
            drop_share=0.1,
            test_instances=((4, 4, 4), (6, 4), (5, 5), (7,), (5, 4), (4, 4), (6,), (8, 8)),
        ),
        "ablation-small": Workload(small, ablation=True, shot="one"),
        "ablation-live": Workload(
            dataclasses.replace(small, sources=60), ablation=True, shot="one", delay_s=0.01, per_token_s=2e-6
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    error = _program_error()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    table = workloads()
    if args.workload == "all":
        return _run_all(table, args)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)} or all")
    result = run(args.workload, table[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _program_error() -> str | None:
    """Why semchain cannot be measured from this checkout's src/, if it cannot."""
    if sc is None:
        return f"cannot import semchain from {SRC}: {IMPORT_ERROR}"
    if SRC.resolve() not in Path(sc.__file__).resolve().parents:
        return f"semchain was imported from {sc.__file__}, not from {SRC}"
    return None


def _run_all(table: dict[str, Workload], args) -> int:
    status = 0
    for name in table:
        command = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


# --- one run --------------------------------------------------------------------

def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_build" / "perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = work / "data"
        shape = _shape_for(workload, seed)
        datagen.write_dataset(data, shape, seed)
        print(f"# workload {name}, seed {seed}, {shape}")
        provider, bounds, exact = _provider_for(workload, data, seed)
        config = sc.ExperimentConfig(
            sources_dir=data / "sources",
            ontology_path=data / "ontology.json",
            gold_dir=data / "gold",
            out_dir=work / "out",
            random_state=seed,
            test_size=TEST_SIZE,
            shot=workload.shot,
            max_workers=min(2, len(os.sched_getaffinity(0))),
        )
        tracer = spans.Tracer() if trace else None

        def call(index: int, traced: bool) -> CallStats:
            sub = dataclasses.replace(config, out_dir=work / f"out{index}")
            try:
                if not traced:
                    return _timed_call(workload, sub, provider, bounds, exact)
                _install_trace_points(tracer, provider)
                try:
                    root = tracer.root("harness.call", index)
                    return _timed_call(workload, sub, provider, bounds, exact, root)
                finally:
                    tracer.restore()
            finally:
                shutil.rmtree(sub.out_dir, ignore_errors=True)

        warm_up = call(0, False)
        untraced: list[CallStats] = []
        traced: list[tuple[int, CallStats]] = []
        started = time.perf_counter()
        index = 1
        while time.perf_counter() - started < seconds or len(untraced) < MIN_CALLS:
            untraced.append(call(index, False))
            index += 1
            if trace:
                traced.append((index, call(index, True)))
                index += 1
        every = [warm_up, *untraced, *(stats for _, stats in traced)]
        attempted = sum(s.check.attempted for s in every)
        failed = sum(s.check.failed for s in every)
        problems = [p for s in every for p in s.check.problems]
        for problem in problems[:20]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        if trace:
            metrics = _layer_metrics(tracer, untraced, traced)
            tracer.write(ROOT / ".bench_build" / "perfbench" / "traces" / f"{name}-seed{seed}.jsonl")
            units = PER_LAYER
        else:
            metrics = _end_to_end(untraced, attempted, failed)
            units = END_TO_END
        for key, unit in units.items():
            print(f"{key:32s} {metrics[key]:>18.6f} {unit}")
        print(f"{'failed_share':32s} {failed / attempted:>18.6f} ratio ({failed} of {attempted} source runs)")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _shape_for(workload: Workload, seed: int):
    """Give the test sources of the seeded split their own instance counts."""
    if not workload.test_instances:
        return workload.shape
    ids = datagen.source_ids(workload.shape)
    split = sc.split_dataset(ids, seed, TEST_SIZE, workload.shot)
    if len(split.test) != len(workload.test_instances):
        raise ValueError("test_instances needs one entry per test source")
    overrides = {ids.index(sid): spec for sid, spec in zip(split.test, workload.test_instances)}
    return dataclasses.replace(workload.shape, instance_overrides=overrides)


def _provider_for(workload: Workload, data: Path, seed: int):
    """The benchmark provider, plus the planted bounds and which sources the
    program promises to match exactly (None under gold replay)."""
    if workload.drop_share is None:
        models = sc.load_gold_models(data / "gold")
        bounds = exact = None
    else:
        golds = providers.load_gold_docs(data / "gold")
        answers, bounds = providers.planted_answers(golds, seed, workload.drop_share)
        models = {sid: sc.parse_model(json.dumps(answer)) for sid, answer in answers.items()}
        gold_models = {sid: sc.parse_model(json.dumps(gold)) for sid, gold in golds.items()}
        # The matcher's docstring promises exact answers up to this size only.
        limit = getattr(sc.evaluation, "EXACT_SEARCH_LIMIT", math.inf)
        exact = {sid: mapping_space(gold_models[sid], models[sid]) <= limit for sid in models}
    script = sc.MockScript.from_gold(models)
    return providers.BenchProvider(script, workload.delay_s, workload.per_token_s), bounds, exact


def _timed_call(
    workload: Workload, config, provider, bounds, exact, root=contextlib.nullcontext()
) -> CallStats:
    """One call of the public API; ``root`` is the span around it when traced."""
    provider.reset()
    gc.collect()  # outside the timed region: no call pays for the last one's garbage
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with root, _setup_clock(provider):
        if workload.ablation:
            rows = sc.run_ablation(config, provider)
            precision, recall = next(
                (r["precision"], r["recall"]) for r in rows if r["configuration"] == "chaining+prune"
            )
        else:
            report = sc.harness.run_experiment(config, provider)
            precision, recall = report.aggregates.get(sc.MODELING, (0.0, 0.0))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if workload.ablation:
        result = checks.check_ablation(config.out_dir)
    else:
        result = checks.check_experiment(config.out_dir, bounds, exact)
    files = [p for p in config.out_dir.rglob("*") if p.is_file()]
    return CallStats(
        wall_s=wall,
        cpu_s=cpu,
        setups=provider.setups or [wall],
        calls=provider.calls,
        tokens=provider.input_tokens + provider.output_tokens,
        precision=precision,
        recall=recall,
        check=result,
        files=len(files),
        bytes=sum(p.stat().st_size for p in files),
    )


@contextlib.contextmanager
def _setup_clock(provider):
    """Start the provider's set-up clock on every entry to
    ``harness.run_experiment``, which ``run_ablation`` enters once per
    configuration, so an ablation call times three set-ups."""
    inner = sc.harness.run_experiment

    def clocked(*args, **kwargs):
        provider.begin_setup()
        return inner(*args, **kwargs)

    sc.harness.run_experiment = clocked
    try:
        yield
    finally:
        sc.harness.run_experiment = inner


def _end_to_end(calls: list[CallStats], attempted: int, failed: int) -> dict[str, float]:
    runs = [s.check.attempted for s in calls]
    return {
        "sources_per_s": sum(runs) / sum(s.wall_s for s in calls),
        "setup_s": statistics.median(t for s in calls for t in s.setups),
        "cpu_ms_per_source": 1000.0 * sum(s.cpu_s for s in calls) / sum(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provider_calls_per_source": sum(s.calls for s in calls) / sum(runs),
        "tokens_per_source": sum(s.tokens for s in calls) / sum(runs),
        "modeling_precision": statistics.median(s.precision for s in calls),
        "modeling_recall": statistics.median(s.recall for s in calls),
        "ok_share": (attempted - failed) / attempted,
    }


# --- tracing --------------------------------------------------------------------

def mapping_space(gold, predicted) -> int:
    """Product over shared classes of perm(max(p, g), p): the per-class
    assignment count the matcher compares with EXACT_SEARCH_LIMIT."""
    def counts(model):
        out: dict[str, int] = {}
        for instance in model.instances():
            out[instance.class_name] = out.get(instance.class_name, 0) + 1
        return out

    gold_counts, pred_counts = counts(gold), counts(predicted)
    return math.prod(
        math.perm(max(p, gold_counts[cls]), p) for cls, p in pred_counts.items() if cls in gold_counts
    )


def _install_trace_points(tracer, provider) -> None:
    """Wrap each layer's entry points where their callers look them up."""
    from semchain import chain, evaluation, harness, ontology, prompting
    from semchain import semantic_model as sm

    def parsed(args, kwargs, table):
        return {"bytes": len(args[0]), "records": len(table.records)}

    def serialized(args, kwargs, result):
        table = args[0]
        return {"source": table.source_id, "records_used": min(result.record_cap, len(table.records))}

    def pruned(args, kwargs, result):
        return {"pruned": args[0].size() - result.size()}

    def usage(args, kwargs, completion):
        return {
            "input_tokens": completion.usage.input_tokens,
            "output_tokens": completion.usage.output_tokens,
        }

    def prompt_chars(args, kwargs, prompt):
        return {"chars": len(prompt)}

    def space(args, kwargs, result):
        return {"space": mapping_space(args[0], args[1])}

    points = [
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "parse_source", "ingest.parse_source", parsed),
        (harness, "serialize_table", "ingest.serialize_table", serialized),
        (chain, "serialize_table", "ingest.serialize_table", serialized),
        (ontology, "parse_ontology", "ontology.parse_ontology", None),
        (ontology, "serialize_ontology", "ontology.serialize_ontology", None),
        (prompting.PromptTemplate, "load", "prompting.load_templates", None),
        (prompting, "load_rules", "prompting.load_rules", None),
        (prompting, "build_system_prompt", "prompting.build_system_prompt", prompt_chars),
        (prompting, "build_chain1_prompt", "prompting.build_chain1_prompt", None),
        (prompting, "build_chain2_prompt", "prompting.build_chain2_prompt", None),
        (prompting, "build_combined_prompt", "prompting.build_combined_prompt", None),
        (prompting, "parse_labels", "semantic_model.parse_labels", None),
        (harness, "run_chain", "chain.run_chain", None),
        (chain, "extract_tagged_json", "llm.extract_tagged_json", None),
        (provider, "complete", "llm.complete", usage),
        (provider, "wait", "llm.provider_wait", None),
        (sm, "parse_model", "semantic_model.parse_model", None),
        (sm, "parse_labels", "semantic_model.parse_labels", None),
        (sm, "prune", "semantic_model.prune", pruned),
        (sm, "depth", "semantic_model.depth", None),
        (sm, "serialize_model", "semantic_model.serialize_model", None),
        (sm, "serialize_labels", "semantic_model.serialize_labels", None),
        (evaluation, "score_detail", "evaluation.score_detail", None),
        (evaluation, "match_triples", "evaluation.match_triples", space),
        (evaluation, "build_report", "evaluation.build_report", None),
        (evaluation, "bucket_by_depth", "evaluation.bucket_by_depth", None),
    ]
    for owner, attr, name, measure in points:
        tracer.wrap(owner, attr, name, measure)


def _layer_metrics(
    tracer, untraced: list[CallStats], traced: list[tuple[int, CallStats]]
) -> dict[str, float]:
    per_call = []
    for run_id, stats in traced:
        run_spans = [s for s in tracer.spans if s.run == run_id]
        per_call.append(_call_layer_metrics(run_spans, stats))
    metrics = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
    metrics["trace.overhead_s"] = statistics.median(s.wall_s for _, s in traced) - statistics.median(
        s.wall_s for s in untraced
    )
    return metrics


def _call_layer_metrics(run_spans, stats: CallStats) -> dict[str, float]:
    self_ms = spans.self_times(run_spans)

    def named(name):
        return [s for s in run_spans if s.name == name]

    def total_ms(*names):
        return 1000.0 * sum(s.end - s.start for name in names for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    used: dict[str, int] = {}
    for s in named("ingest.serialize_table"):
        used[s.attrs["source"]] = max(used.get(s.attrs["source"], 0), s.attrs["records_used"])
    parsed = attr_sum("ingest.parse_source", "records")
    matches = named("evaluation.match_triples")
    prompts = named("prompting.build_system_prompt")
    out = {
        f"{layer}.self_ms": 1000.0 * sum(self_ms[s.span_id] for s in run_spans if s.layer == layer)
        for layer in LAYERS
    }
    out.update({
        "ingest.parse_ms": total_ms("ingest.parse_source"),
        "ingest.bytes_read": attr_sum("ingest.parse_source", "bytes"),
        "ingest.records_parsed": parsed,
        "ingest.records_used_ratio": sum(used.values()) / parsed if parsed else 0.0,
        "ontology.parse_ms": total_ms("ontology.parse_ontology"),
        "prompting.build_ms": 1000.0 * sum(s.end - s.start for s in run_spans if s.layer == "prompting"),
        "prompting.system_prompt_chars": statistics.mean(s.attrs["chars"] for s in prompts),
        "llm.calls": len(named("llm.complete")),
        "llm.input_tokens": attr_sum("llm.complete", "input_tokens"),
        "llm.output_tokens": attr_sum("llm.complete", "output_tokens"),
        "llm.provider_wait_ms": total_ms("llm.provider_wait"),
        "llm.extract_ms": total_ms("llm.extract_tagged_json"),
        "semantic_model.parse_ms": total_ms("semantic_model.parse_model", "semantic_model.parse_labels"),
        "semantic_model.prune_ms": total_ms("semantic_model.prune"),
        "semantic_model.depth_ms": total_ms("semantic_model.depth"),
        "semantic_model.triples_pruned": attr_sum("semantic_model.prune", "pruned"),
        "evaluation.match_ms": total_ms("evaluation.match_triples"),
        "evaluation.match_ms_max": 1000.0 * max((s.end - s.start for s in matches), default=0.0),
        "evaluation.match_calls": len(matches),
        "evaluation.mapping_space_max": max((s.attrs["space"] for s in matches), default=0),
        "evaluation.planted_shortfall": stats.check.shortfall,
        "harness.files_written": stats.files,
        "harness.bytes_written": stats.bytes,
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
