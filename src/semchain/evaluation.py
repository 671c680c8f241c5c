"""Precision/recall over triple sets, with per-class instance-index alignment.

Gold models number repeated class instances by convention, so a prediction is
scored under the best bijection between its instance indices and the gold
ones, class by class. One depth-first branch and bound finds that bijection
exactly at every size; its worst case is exponential only in the instances
that semantic triples do not pin down, such as interchangeable link-only ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import semantic_model as sm

LABELING = "labeling"
MODELING = "modeling"
STEPS = (LABELING, MODELING)


@dataclass(frozen=True)
class ScoreRow:
    """One (source, step) line of an evaluation report."""

    source_id: str
    step: str
    precision: float
    recall: float
    gold_size: int
    predicted_size: int
    intersection: int
    depth: int
    latency_ms: float
    tokens: int
    error: str = ""


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[ScoreRow, ...]
    aggregates: Mapping[str, tuple[float, float]]
    mode: str = "macro"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "aggregates", dict(self.aggregates))

    def has_failures(self) -> bool:
        return any(row.error for row in self.rows)


def match_triples(
    gold: sm.SemanticModel, predicted: sm.SemanticModel
) -> tuple[int, dict[sm.ClassInstance, sm.ClassInstance | None]]:
    """Best exact-match triple count over per-class instance bijections.

    Returns the intersection size and the instance mapping that achieved it
    (predicted instance -> gold instance, or None when left unmatched).

    The answer is exact at every size, with no size threshold: a depth-first
    branch and bound (Land & Doig 1960) over the predicted instances that can
    match anything, each taking a free gold index of its class or None. The
    bound credits each open instance with the best it can still add: its
    semantic gain, a whole link to an assigned endpoint and half a link to an
    open one. The first descent is a greedy dive; when its score meets the
    root bound, as under gold replay, the search ends there. The worst case is
    exponential only in the instances that semantic triples do not pin to one
    gold index, such as interchangeable link-only instances, whose alignment
    by links alone is a common-subgraph problem.

    Ties keep the first optimum met. The search branches on the open instance
    with the fewest useful gold indices (ties by class, then index) and tries
    them by descending credit, then its own index, then ascending index, with
    None last. Instances that can match nothing map to None.
    """
    gold_sems: dict[tuple, list[int]] = {}
    for t in gold.semantic_triples:
        gold_sems.setdefault((t.subject.class_name, t.property, t.attribute), []).append(t.subject.index)
    gold_links: dict[tuple, list[tuple[int, int]]] = {}
    for link in gold.internal_link_triples:
        key = (link.subject.class_name, link.property, link.object.class_name)
        gold_links.setdefault(key, []).append((link.subject.index, link.object.index))

    # Search state is keyed by position in `instances`; gains[i][g] counts the
    # semantic triples instance i matches when mapped to gold index g.
    instances: list[sm.ClassInstance] = []
    position: dict[sm.ClassInstance, int] = {}
    gains: list[dict[int, int]] = []
    adjacent: list[list[tuple]] = []

    def slot(inst: sm.ClassInstance) -> int:
        if inst not in position:
            position[inst] = len(instances)
            instances.append(inst)
            gains.append({})
            adjacent.append([])
        return position[inst]

    for t in predicted.semantic_triples:
        targets = gold_sems.get((t.subject.class_name, t.property, t.attribute))
        if targets:
            row = gains[slot(t.subject)]
            for g in targets:
                row[g] = row.get(g, 0) + 1
    # adjacent[i] holds, per matchable link, the other endpoint, i's gold
    # indices with an allowed pair, and other's index -> i's partner indices.
    for link in predicted.internal_link_triples:
        pairs = gold_links.get((link.subject.class_name, link.property, link.object.class_name))
        if not pairs:
            continue
        s, o = slot(link.subject), slot(link.object)
        for a, b, oriented in ((s, o, pairs), (o, s, [(y, x) for x, y in pairs])):
            partners: dict[int, list[int]] = {}
            for own, other in oriented:
                partners.setdefault(other, []).append(own)
            adjacent[a].append((b, {own for own, _ in oriented}, partners))

    # Branch ties go to the lowest (class, index).
    order = sorted(range(len(instances)), key=instances.__getitem__)
    # used[i]: the gold indices taken in instance i's class, shared per class.
    taken: dict[str, set[int]] = {}
    used = [taken.setdefault(inst.class_name, set()) for inst in instances]
    value: dict[int, int | None] = {}
    best = -1
    best_value: dict[int, int | None] = {}

    def credits(i: int) -> dict[int, int]:
        # Twice the most instance i can still add per free gold index: its
        # semantic gain, a whole link to an assigned endpoint, half a link to
        # an unassigned one, so no link is counted twice.
        credit = {g: 2 * n for g, n in gains[i].items()}
        for other, own, partners in adjacent[i]:
            if other in value:
                for g in partners.get(value[other], ()):
                    credit[g] = credit.get(g, 0) + 2
            else:
                for g in own:
                    credit[g] = credit.get(g, 0) + 1
        return {g: c for g, c in credit.items() if g not in used[i]}

    def assign(i: int, g: int | None) -> int:
        value[i] = g
        if g is None:
            return 0
        used[i].add(g)
        gained = gains[i].get(g, 0)
        for other, _, partners in adjacent[i]:
            if other in value and g in partners.get(value[other], ()):
                gained += 1
        return gained

    def release(i: int) -> None:
        g = value.pop(i)
        if g is not None:
            used[i].discard(g)

    def search(matched: int) -> None:
        nonlocal best, best_value
        bound = 2 * matched  # doubled, like credits, so half links stay whole
        branch, options = None, None
        dead = []
        for i in order:
            if i in value:
                continue
            credit = credits(i)
            if not credit:
                # Credits only shrink deeper down: i can add nothing more.
                dead.append(i)
                continue
            bound += max(credit.values())
            if options is None or len(credit) < len(options):
                branch, options = i, credit
        for i in dead:
            value[i] = None
        if bound > 2 * best:
            if branch is None:
                best, best_value = matched, dict(value)
            else:
                own = instances[branch].index
                for g in sorted(options, key=lambda g: (-options[g], g != own, g)) + [None]:
                    search(matched + assign(branch, g))
                    release(branch)
                    if bound <= 2 * best:
                        break
        for i in dead:
            del value[i]

    search(0)
    bijection: dict[sm.ClassInstance, sm.ClassInstance | None] = dict.fromkeys(predicted.instances())
    for i, g in best_value.items():
        if g is not None:
            bijection[instances[i]] = sm.ClassInstance(instances[i].class_name, g)
    return best, bijection


def score(
    gold: sm.SemanticModel, predicted: sm.SemanticModel, step: str
) -> tuple[float, float]:
    """Precision and recall of a prediction against its gold model.

    The labeling step restricts both sides to attribute annotations; the
    modeling step counts every triple. Empty sides score 0 by convention so
    failed sources drag aggregates down instead of crashing them.
    """
    precision, recall, _, _, _ = score_detail(gold, predicted, step)
    return precision, recall


def score_detail(
    gold: sm.SemanticModel, predicted: sm.SemanticModel, step: str
) -> tuple[float, float, int, int, int]:
    """Like score(), but also returns (intersection, gold size, predicted size)."""
    if step not in STEPS:
        raise ValueError(f"step must be one of {STEPS}, got {step!r}")
    if step == LABELING:
        gold = _labels_only(gold)
        predicted = _labels_only(predicted)
    intersection, _ = match_triples(gold, predicted)
    predicted_size = predicted.size()
    gold_size = gold.size()
    precision = intersection / predicted_size if predicted_size else 0.0
    recall = intersection / gold_size if gold_size else 0.0
    return precision, recall, intersection, gold_size, predicted_size


def build_report(rows: Iterable[ScoreRow], mode: str = "macro") -> EvalReport:
    """Aggregate per-source rows into one mean precision/recall per step."""
    if mode not in ("macro", "micro"):
        raise ValueError(f"mode must be macro or micro, got {mode!r}")
    rows = tuple(sorted(rows, key=lambda r: (r.source_id, r.step)))
    aggregates: dict[str, tuple[float, float]] = {}
    for step in STEPS:
        step_rows = [r for r in rows if r.step == step]
        if not step_rows:
            continue
        if mode == "macro":
            precision = sum(r.precision for r in step_rows) / len(step_rows)
            recall = sum(r.recall for r in step_rows) / len(step_rows)
        else:
            inter = sum(r.intersection for r in step_rows)
            pred = sum(r.predicted_size for r in step_rows)
            gold = sum(r.gold_size for r in step_rows)
            precision = inter / pred if pred else 0.0
            recall = inter / gold if gold else 0.0
        aggregates[step] = (precision, recall)
    return EvalReport(rows, aggregates, mode)


def bucket_by_depth(rows: Iterable[ScoreRow]) -> dict[int, tuple[float, float]]:
    """Mean precision/recall grouped by the gold-model depth each row carries."""
    grouped: dict[int, list[ScoreRow]] = {}
    for row in rows:
        grouped.setdefault(row.depth, []).append(row)
    return {
        d: (
            sum(r.precision for r in bucket) / len(bucket),
            sum(r.recall for r in bucket) / len(bucket),
        )
        for d, bucket in sorted(grouped.items())
    }


# --- matching internals --------------------------------------------------------

def _labels_only(model: sm.SemanticModel) -> sm.SemanticModel:
    return sm.SemanticModel(model.semantic_triples, frozenset())
