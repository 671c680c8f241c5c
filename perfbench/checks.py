"""Correctness checks on the artifacts of one timed call.

A source run fails when its report rows carry an error, when it misses an
artifact, or when its scores miss what the workload guarantees: 1.0/1.0 on
both steps under gold replay, or at least the planted intersection where the
matcher promises an exact answer.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

ABLATION_CONFIGURATIONS = ("single-prompt", "chaining", "chaining+prune")
SOURCE_ARTIFACTS = ("labels.json", "raw_model.json", "final_model.json", "transcript.jsonl")
STEPS = ("labeling", "modeling")


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Triples below the planted bound, summed over sources where no exact
    # answer is promised (so they are measured, not failed).
    shortfall: int = 0

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.shortfall += other.shortfall


def check_experiment(
    run_dir: Path,
    bounds: Mapping[str, Mapping[str, int]] | None = None,
    exact: Mapping[str, bool] | None = None,
) -> CheckResult:
    """Check one experiment directory.

    With ``bounds`` unset the answers were gold replays and every score must
    be 1.0. Otherwise each source's intersection must reach its bound, for
    sources that ``exact`` marks as solved exactly; on the others a shortfall
    is only counted.
    """
    result = CheckResult()
    split = json.loads((run_dir / "split.json").read_text(encoding="utf-8"))
    with (run_dir / "report.csv").open(newline="", encoding="utf-8") as handle:
        rows = {(r["source_id"], r["step"]): r for r in csv.DictReader(handle)}
    for sid in split["test"]:
        result.attempted += 1
        problem, shortfall = _source_problem(run_dir, sid, rows, bounds, exact)
        result.shortfall += shortfall
        if problem:
            result.failed += 1
            result.problems.append(f"{run_dir.name}/{sid}: {problem}")
    return result


def check_ablation(out_dir: Path) -> CheckResult:
    """Check the three configurations of an ablation and its ablation.csv."""
    result = CheckResult()
    for name in ABLATION_CONFIGURATIONS:
        result.add(check_experiment(out_dir / "ablation" / name))
    path = out_dir / "ablation.csv"
    configurations = []
    if path.is_file():
        with path.open(newline="", encoding="utf-8") as handle:
            configurations = [row["configuration"] for row in csv.DictReader(handle)]
    if tuple(configurations) != ABLATION_CONFIGURATIONS:
        result.failed = result.attempted
        result.problems.append(f"ablation.csv lists {configurations}, not the three configurations")
    return result


def _source_problem(run_dir, sid, rows, bounds, exact) -> tuple[str, int]:
    missing = [name for name in SOURCE_ARTIFACTS if not (run_dir / "sources" / sid / name).is_file()]
    if missing:
        return f"missing artifacts {missing}", 0
    shortfall = 0
    for step in STEPS:
        row = rows.get((sid, step))
        if row is None:
            return f"no {step} row in report.csv", 0
        if row["error"]:
            return f"error row: {row['error']}", 0
        if bounds is None:
            if float(row["precision"]) != 1.0 or float(row["recall"]) != 1.0:
                return f"{step} scored {row['precision']}/{row['recall']} on a gold replay", 0
            continue
        gap = bounds[sid][step] - int(row["intersection"])
        if gap > 0:
            if exact is None or exact[sid]:
                return f"{step} intersection {row['intersection']} < planted bound {bounds[sid][step]}", 0
            if step == "modeling":
                shortfall += gap
    return "", shortfall
