from __future__ import annotations

import random
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
