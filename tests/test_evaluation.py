from __future__ import annotations

import random
import sys
import time

import pytest

from semchain import (
    ClassInstance,
    InternalLinkTriple,
    SemanticModel,
    SemanticTriple,
    bucket_by_depth,
    build_report,
    depth,
    match_triples,
    score,
    score_detail,
)
from semchain.evaluation import LABELING, MODELING, ScoreRow
from helpers import (
    CLASS_POOL,
    best_intersection_bruteforce,
    perturbed_copy,
    planted_copy,
    random_model,
    renamed_copy,
    sized_model,
)


def _model(sems=(), links=()):
    return SemanticModel(frozenset(sems), frozenset(links))


def _sem(inst, prop, attr):
    return SemanticTriple(ClassInstance.parse(inst), prop, attr)


def _link(a, prop, b):
    return InternalLinkTriple(ClassInstance.parse(a), prop, ClassInstance.parse(b))


def _chains(k: int) -> SemanticModel:
    """k chains Artifact -> Production -> Person -> Birth -> Span, shaped like
    CIDOC-CRM events: Production and Birth carry no attribute, so only their
    links say which gold instance they are."""
    sems, links = [], []
    for i in range(1, k + 1):
        sems += [_sem(f"Artifact{i}", "has_title", f"title{i}"),
                 _sem(f"Person{i}", "has_name", f"name{i}"),
                 _sem(f"Span{i}", "has_date", f"date{i}")]
        links += [_link(f"Artifact{i}", "produced_by", f"Production{i}"),
                  _link(f"Production{i}", "carried_out_by", f"Person{i}"),
                  _link(f"Person{i}", "brought_into_life", f"Birth{i}"),
                  _link(f"Birth{i}", "has_span", f"Span{i}")]
    return _model(sems, links)


def _noisy_chains(k: int, rng: random.Random) -> tuple[SemanticModel, SemanticModel, int]:
    """The chains, a renumbered copy with a fifth of its links dropped and
    k/2 wrong links of two kinds added, and the triples the copy kept."""
    gold = _chains(k)
    renamed = renamed_copy(gold, rng)
    links = {link for link in sorted(renamed.internal_link_triples) if rng.random() >= 0.2}
    planted = len(renamed.semantic_triples) + len(links)
    for subject, prop, obj in (("Production", "carried_out_by", "Person"), ("Person", "brought_into_life", "Birth")):
        wrong = 0
        while wrong < k // 2:
            link = _link(f"{subject}{rng.randint(1, k)}", prop, f"{obj}{rng.randint(1, k)}")
            if link not in links and link not in renamed.internal_link_triples:
                links.add(link)
                wrong += 1
    return gold, _model(renamed.semantic_triples, links), planted


class TestMatchTriples:
    def test_identical_models_fully_intersect(self, toy_golds):
        for gold in toy_golds.values():
            intersection, _ = match_triples(gold, gold)
            assert intersection == gold.size()

    def test_consistent_index_swap_still_matches(self):
        gold = _model(
            sems=[
                _sem("Span1", "within", "birth"),
                _sem("Span2", "within", "death"),
            ],
            links=[
                _link("Birth1", "has_span", "Span1"),
                _link("Death1", "has_span", "Span2"),
            ],
        )
        swapped = _model(
            sems=[
                _sem("Span2", "within", "birth"),
                _sem("Span1", "within", "death"),
            ],
            links=[
                _link("Birth1", "has_span", "Span2"),
                _link("Death1", "has_span", "Span1"),
            ],
        )
        intersection, bijection = match_triples(gold, swapped)
        assert intersection == gold.size() == best_intersection_bruteforce(gold, swapped)
        assert bijection[ClassInstance("Span", 2)] == ClassInstance("Span", 1)
        assert bijection[ClassInstance("Span", 1)] == ClassInstance("Span", 2)

    def test_bijection_must_stay_consistent_across_triples(self):
        gold = _model(
            sems=[_sem("Person1", "identified_by", "name"), _sem("Person1", "has_note", "note")]
        )
        pred = _model(
            sems=[_sem("Person1", "identified_by", "name"), _sem("Person2", "has_note", "note")]
        )
        intersection, _ = match_triples(gold, pred)
        assert intersection == 1 == best_intersection_bruteforce(gold, pred)

    def test_matches_bruteforce_on_random_pairs(self):
        rng = random.Random(2023)
        for i in range(150):
            gold = random_model(rng, max_instances_per_class=3, max_sem=5, max_links=4)
            pred = perturbed_copy(gold, rng) if i % 2 else random_model(rng, 3, 5, 4)
            intersection, _ = match_triples(gold, pred)
            assert intersection == best_intersection_bruteforce(gold, pred)

    def test_matches_bruteforce_on_link_heavy_random_pairs(self):
        # Two classes and up to ten links, so one instance often has more
        # links of one kind and direction than a gold index has: the case
        # the search's degree cap prunes.
        rng = random.Random(2025)
        for i in range(3000):
            gold = random_model(rng, 3, 6, 10, class_pool=CLASS_POOL[:2])
            pred = perturbed_copy(gold, rng) if i % 2 else random_model(rng, 3, 6, 10, class_pool=CLASS_POOL[:2])
            assert match_triples(gold, pred)[0] == best_intersection_bruteforce(gold, pred), i

    def test_degree_cap_counts_whole_links_before_half_links(self):
        # Found by fuzzing against the brute force. Predicted A1 and B3 each
        # have two outgoing q links, and most gold indices have q out-degree
        # 1. A cap that kept a half link (to an open endpoint) ahead of a
        # whole one (to an assigned endpoint) under-bounds a branch and
        # prunes the optimum.
        gold = _model(
            [_sem("B2", "p", "y"), _sem("B3", "p", "y")],
            [_link("A1", "q", "B2"), _link("B1", "q", "B3"), _link("B2", "q", "B1"),
             _link("B3", "q", "A1"), _link("B3", "q", "B2")],
        )
        pred = _model(
            [_sem("B2", "p", "z")],
            [_link("A1", "q", "B1"), _link("A1", "q", "B3"), _link("B1", "q", "B2"),
             _link("B2", "q", "A1"), _link("B3", "q", "B1"), _link("B3", "q", "B2")],
        )
        assert match_triples(gold, pred)[0] == best_intersection_bruteforce(gold, pred) == 4

    def test_intersection_bounds(self):
        rng = random.Random(4)
        for _ in range(100):
            gold = random_model(rng)
            pred = perturbed_copy(gold, rng)
            intersection, _ = match_triples(gold, pred)
            assert 0 <= intersection <= min(gold.size(), pred.size())

    def test_symmetry_of_the_intersection(self):
        rng = random.Random(8)
        for _ in range(60):
            gold = random_model(rng, 3, 4, 4)
            pred = perturbed_copy(gold, rng)
            assert match_triples(gold, pred)[0] == match_triples(pred, gold)[0]

    def test_invariance_under_consistent_index_renaming(self):
        rng = random.Random(14)
        for _ in range(60):
            gold = random_model(rng, 3, 4, 4)
            pred = perturbed_copy(gold, rng)
            renamed = renamed_copy(pred, rng)
            assert match_triples(gold, pred)[0] == match_triples(gold, renamed)[0]

    def test_exact_search_on_oversized_models(self):
        # 10 instances of two classes on both sides: far past what enumerating
        # bijections could afford. Identity is optimal, so the full score.
        sems = [_sem(f"Person{i}", "identified_by", f"attr{i}") for i in range(1, 11)]
        links = [_link(f"Person{i}", "made_by", f"Artifact{i}") for i in range(1, 11)]
        sems += [_sem(f"Artifact{i}", "has_note", f"note{i}") for i in range(1, 11)]
        model = _model(sems, links)
        intersection, _ = match_triples(model, model)
        assert intersection == model.size()

    def test_exact_search_recovers_a_non_identity_optimum(self):
        # 12 instances of one class, and the prediction swaps indices 1 and 2
        # everywhere; the unique optimum undoes the swap.
        def renumber(i):
            return {1: 2, 2: 1}.get(i, i)

        gold_sems = [_sem(f"Person{i}", "identified_by", f"attr{i}") for i in range(1, 13)]
        gold = _model(gold_sems)
        pred = _model(
            [
                SemanticTriple(
                    ClassInstance("Person", renumber(t.subject.index)), t.property, t.attribute
                )
                for t in gold_sems
            ]
        )
        intersection, bijection = match_triples(gold, pred)
        assert intersection == gold.size()
        assert bijection[ClassInstance("Person", 1)] == ClassInstance("Person", 2)
        assert bijection[ClassInstance("Person", 2)] == ClassInstance("Person", 1)

    # Instances per class where enumerating every bijection (the product of
    # per-class k!) is out of reach: from 5!^3 = 1.7e6 up to 8!^2 = 1.6e9.
    LARGE_SIZES = ((8, 8), (7, 7), (6, 6, 6), (5, 5, 5), (8, 5), (5, 6, 7))

    def test_renamed_copies_score_their_full_size(self):
        rng = random.Random(31)
        for counts in self.LARGE_SIZES * 3:
            gold = sized_model(rng, counts, max_sem=6, max_links=12)
            assert match_triples(gold, renamed_copy(gold, rng))[0] == gold.size()

    def test_perturbed_copies_score_at_least_the_planted_intersection(self):
        rng = random.Random(32)
        for counts in self.LARGE_SIZES * 3:
            gold = sized_model(rng, counts, max_sem=6, max_links=12)
            pred, planted = planted_copy(gold, rng)
            assert planted <= match_triples(gold, pred)[0] <= min(gold.size(), pred.size())

    @pytest.mark.parametrize("counts", [(6,), (5, 4)])
    def test_matches_bruteforce_at_five_or_more_instances(self, counts):
        rng = random.Random(33)
        gold = sized_model(rng, counts, max_links=4)
        pred = sized_model(rng, counts, max_links=4)
        assert match_triples(gold, pred)[0] == best_intersection_bruteforce(gold, pred)

    def test_link_heavy_stress_set(self):
        rng = random.Random(34)
        started = time.perf_counter()
        for _ in range(100):
            gold = random_model(rng, 8, 4, 20, class_pool=CLASS_POOL[:3])
            pred, planted = planted_copy(gold, rng)
            assert match_triples(gold, pred)[0] >= planted
            assert match_triples(gold, gold)[0] == gold.size()
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize("k", [16, 32])
    def test_renumbered_link_only_chains_stay_fast(self, k):
        gold = _chains(k)
        pred = renamed_copy(gold, random.Random(k))
        started = time.perf_counter()
        assert match_triples(gold, pred)[0] == gold.size() == 7 * k
        assert time.perf_counter() - started < 5.0

    def test_noisy_link_only_chains_stay_fast(self):
        # The chains above, renumbered, with a fifth of the links dropped and
        # k/2 wrong Production -> Person and Person -> Birth links added: the
        # wrong links leave an open link-only instance more links of one kind
        # than its gold partner has, which the degree cap stops crediting.
        k = 8
        started = time.perf_counter()
        for seed in range(5):
            gold, pred, planted = _noisy_chains(k, random.Random(seed))
            assert planted <= match_triples(gold, pred)[0] <= gold.size()
        assert time.perf_counter() - started < 10.0

    def test_a_wide_model_matches_under_a_low_stack_limit(self):
        # The search goes one level deeper per instance it assigns, 300 here;
        # the limit set below allows only 100 frames above this test's own.
        gold = _model(sems=[_sem(f"Person{i}", "has_name", f"col{i}") for i in range(1, 301)])
        pred = renamed_copy(gold, random.Random(3))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            detail = score_detail(gold, pred, MODELING)
        finally:
            sys.setrecursionlimit(limit)
        assert detail == (1.0, 1.0, 300, 300, 300)

    def test_reported_bijection_is_deterministic(self):
        rng = random.Random(35)
        for counts in self.LARGE_SIZES:
            gold = sized_model(rng, counts, max_links=12)
            pred = perturbed_copy(gold, rng)
            # The same triples, inserted in the opposite order.
            again = _model(sorted(pred.semantic_triples, reverse=True),
                           sorted(pred.internal_link_triples, reverse=True))
            first = match_triples(gold, pred)
            assert match_triples(gold, pred) == first == match_triples(gold, again)


class TestScore:
    def test_textbook_counts(self):
        gold = _model(sems=[_sem("A1", "p", f"x{i}") for i in range(4)])
        pred = _model(
            sems=[_sem("A1", "p", f"x{i}") for i in range(3)]
            + [_sem("B1", "q", "y1"), _sem("B2", "q", "y2")]
        )
        precision, recall = score(gold, pred, MODELING)
        assert precision == pytest.approx(3 / 5)
        assert recall == pytest.approx(3 / 4)

    def test_identical_is_perfect(self, toy_golds):
        for gold in toy_golds.values():
            assert score(gold, gold, MODELING) == (1.0, 1.0)
            assert score(gold, gold, LABELING) == (1.0, 1.0)

    def test_dropping_one_of_ten(self):
        gold = _model(sems=[_sem("A1", "p", f"x{i}") for i in range(10)])
        kept = sorted(gold.semantic_triples)[1:]
        pred = _model(sems=kept)
        precision, recall = score(gold, pred, MODELING)
        assert precision == 1.0
        assert recall == pytest.approx(0.9)

    def test_labeling_ignores_links(self):
        gold = _model(
            sems=[_sem("A1", "p", "x")],
            links=[_link("B1", "q", "A1")],
        )
        pred = _model(sems=[_sem("A1", "p", "x")])
        assert score(gold, pred, LABELING) == (1.0, 1.0)
        precision, recall = score(gold, pred, MODELING)
        assert (precision, recall) == (1.0, 0.5)

    def test_degenerate_empties(self):
        empty = _model()
        nonempty = _model(sems=[_sem("A1", "p", "x")])
        assert score(nonempty, empty, MODELING) == (0.0, 0.0)
        assert score(empty, nonempty, MODELING) == (0.0, 0.0)

    def test_precision_recall_duality(self):
        rng = random.Random(12)
        for _ in range(50):
            gold = random_model(rng, 3, 4, 4)
            pred = perturbed_copy(gold, rng)
            p_gp, _ = score(gold, pred, MODELING)
            _, r_pg = score(pred, gold, MODELING)
            assert p_gp == pytest.approx(r_pg)

    def test_score_detail_sizes(self):
        gold = _model(sems=[_sem("A1", "p", "x")], links=[_link("B1", "q", "A1")])
        precision, recall, intersection, gold_size, pred_size = score_detail(gold, gold, MODELING)
        assert (intersection, gold_size, pred_size) == (2, 2, 2)
        with pytest.raises(ValueError):
            score(gold, gold, "nope")


class TestReports:
    @staticmethod
    def _row(sid, step, precision, recall, depth_value=1, intersection=1, gold=2, pred=2):
        return ScoreRow(sid, step, precision, recall, gold, pred, intersection, depth_value, 1.0, 10)

    def test_macro_aggregate_is_the_row_mean(self):
        rows = [
            self._row("a", MODELING, 1.0, 0.5),
            self._row("b", MODELING, 0.0, 0.0),
        ]
        report = build_report(rows)
        assert report.aggregates[MODELING] == (0.5, 0.25)

    def test_micro_aggregate_pools_counts(self):
        rows = [
            ScoreRow("a", MODELING, 1.0, 1.0, 10, 5, 5, 1, 0.0, 0),
            ScoreRow("b", MODELING, 0.0, 0.0, 10, 5, 0, 1, 0.0, 0),
        ]
        report = build_report(rows, mode="micro")
        assert report.aggregates[MODELING] == (0.5, 0.25)

    def test_bucket_by_depth_keys_and_means(self, toy_golds):
        rows = []
        expected: dict[int, list[float]] = {}
        for i, (sid, gold) in enumerate(sorted(toy_golds.items())):
            precision = 0.5 + 0.1 * (i % 3)
            rows.append(self._row(sid, MODELING, precision, precision, depth_value=depth(gold)))
            expected.setdefault(depth(gold), []).append(precision)
        buckets = bucket_by_depth(rows)
        assert set(buckets) == set(expected)
        for d, values in expected.items():
            assert buckets[d][0] == pytest.approx(sum(values) / len(values))

    def test_single_bucket_when_depths_agree(self):
        rows = [self._row("a", MODELING, 1.0, 1.0), self._row("b", MODELING, 0.0, 0.0)]
        assert set(bucket_by_depth(rows)) == {1}
