"""Command-line interface: ingest sources, inspect prompts, run chains and experiments."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import evaluation as ev
from . import harness
from . import ontology as onto_mod
from . import semantic_model as sm
from .chain import ChainConfig, run_chain
from .errors import SemchainError, decode_text, encode_text
from .ingest import DEFAULT_RECORD_CAP, SourceFormat, parse_source, serialize_table, source_bytes
from .llm import MockProvider, MockScript

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_PARTIAL_FAILURES = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration errors: print help, exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a source file into the unified JSON form")
    p.add_argument("source", type=Path)
    p.add_argument("--format", choices=[f.value for f in SourceFormat])
    p.add_argument("--source-id")
    p.add_argument("--cap", type=int, help="keep only the first N records")
    p.add_argument("--out", type=Path)

    p = sub.add_parser("serialize-ontology", help="re-emit an ontology JSON canonically")
    p.add_argument("ontology", type=Path)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("build-prompt", help="assemble and print the system prompt")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--shot")
    p.add_argument("--random-state", type=int)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("run", help="run one source through the chain")
    p.add_argument("--system-prompt", type=Path, required=True)
    p.add_argument("--source", type=Path, required=True)
    p.add_argument("--mock-gold", type=Path, required=True, help="gold model the mock provider replays")
    p.add_argument("--ontology", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--record-cap", type=int, default=DEFAULT_RECORD_CAP)
    p.add_argument("--no-chaining", action="store_true")
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("experiment", help="run the full experiment matrix")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--shot")
    p.add_argument("--seeds", help="comma-separated random states, e.g. 2023,2024")
    p.add_argument("--ablation", action="store_true", help="run the three-row ablation")

    p = sub.add_parser("eval", help="score a prediction file against a gold file")
    p.add_argument("--gold", type=Path, required=True)
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--step", choices=list(ev.STEPS), default=ev.MODELING)

    p = sub.add_parser("lint-gold", help="check a gold model against its source table")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--source", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "ingest": _cmd_ingest,
        "serialize-ontology": _cmd_serialize_ontology,
        "build-prompt": _cmd_build_prompt,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "eval": _cmd_eval,
        "lint-gold": _cmd_lint_gold,
    }[args.command]
    try:
        return handler(args)
    except (SemchainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(encode_text(text + "\n"))
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(encode_text(text + ("" if text.endswith("\n") else "\n")))


def _cmd_ingest(args) -> int:
    source_id = args.source_id or args.source.stem
    fmt = SourceFormat(args.format) if args.format else SourceFormat.from_suffix(args.source.suffix)
    with open(args.source, "rb") as handle:
        table = parse_source(source_bytes(handle), fmt, source_id, args.cap)
    cap = args.cap if args.cap is not None else max(len(table.records), 1)
    _emit(serialize_table(table, cap).text, args.out)
    return EXIT_OK


def _cmd_serialize_ontology(args) -> int:
    _emit(onto_mod.serialize_ontology(harness.read_ontology_file(args.ontology)), args.out)
    return EXIT_OK


def _cmd_build_prompt(args) -> int:
    _emit(harness.prepare_experiment(_load_config(args)).system_prompt, args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    table = harness.read_table(args.source, record_cap=args.record_cap)
    system_prompt = decode_text(args.system_prompt.read_bytes(), args.system_prompt.name)
    ontology = harness.read_ontology_file(args.ontology) if args.ontology else None
    gold = harness.read_model_file(args.mock_gold)
    provider = MockProvider(MockScript.from_gold({table.source_id: gold}))
    config = ChainConfig(
        chaining_enabled=not args.no_chaining,
        pruning_enabled=not args.no_pruning,
        strict_ontology_validation=args.strict,
    )
    result = run_chain(
        system_prompt, table, config, provider, ontology=ontology, record_cap=args.record_cap
    )
    harness.write_source_artifacts(args.out, table.source_id, result)
    print(f"{table.source_id}: {len(result.final_model.semantic_triples)} labels, "
          f"{len(result.final_model.internal_link_triples)} links -> {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    seeds = [config.random_state]
    if args.seeds is not None:
        seeds = []
        for part in filter(str.strip, args.seeds.split(",")):
            try:
                seeds.append(int(part))
            except ValueError:
                raise ValueError(f"--seeds {args.seeds!r}: {part.strip()!r} is not an integer") from None
        if not seeds:
            raise ValueError(f"--seeds {args.seeds!r} names no random state")
        for i, seed in enumerate(seeds):
            if seed in seeds[:i]:
                raise ValueError(f"--seeds {args.seeds!r} repeats random state {seed}")
    failures = False
    for seed in seeds:
        out_dir = Path(config.out_dir)
        if len(seeds) > 1:
            out_dir = out_dir / f"seed-{seed}"
        run_config = dataclasses.replace(config, random_state=seed, out_dir=out_dir)
        if args.ablation:
            rows = harness.run_ablation(run_config)
            for row in rows:
                print(
                    f"seed {seed} {row['configuration']}: "
                    f"precision {row['precision']:.3f} recall {row['recall']:.3f}"
                )
            failures = failures or any(row["has_failures"] for row in rows)
        else:
            report = harness.run_experiment(run_config)
            for step, (precision, recall) in report.aggregates.items():
                print(f"seed {seed} {step}: precision {precision:.3f} recall {recall:.3f}")
            failures = failures or report.has_failures()
    return EXIT_PARTIAL_FAILURES if failures else EXIT_OK


def _cmd_eval(args) -> int:
    # Labels-only files, as the harness writes them, score too.
    gold = harness.read_model_file(args.gold, labels_ok=True)
    pred = harness.read_model_file(args.pred, labels_ok=True)
    precision, recall = ev.score(gold, pred, args.step)
    print(f"precision {precision:.3f}")
    print(f"recall {recall:.3f}")
    return EXIT_OK


def _cmd_lint_gold(args) -> int:
    model = harness.read_model_file(args.model)
    # Linting needs the attributes only.
    table = harness.read_table(args.source, record_cap=1)
    report = sm.lint_gold(model, table)
    if report.ok():
        print("clean")
    for diag in report.diagnostics:
        print(f"{diag.rule} {diag.severity}: {diag.message}")
    return EXIT_OK


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.ExperimentConfig.from_file(args.config)
    if getattr(args, "shot", None) is not None:
        shot = args.shot
        config.shot = int(shot) if shot.isdecimal() else shot
    if getattr(args, "random_state", None) is not None:
        config.random_state = args.random_state
    if getattr(args, "out", None):
        config.out_dir = args.out
    return config


if __name__ == "__main__":
    raise SystemExit(main())
