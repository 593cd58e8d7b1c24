import itertools

import numpy as np
import pytest

from llmize import (
    EvaluatedSolution,
    History,
    KeyedScalars,
    KeyedScalarsSchema,
    ObjectiveDirection,
    Ordering,
    Permutation,
    PermutationSchema,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    compare_scores,
    update_best,
)
from conftest import brute_force_topk, ev

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE


def rv(*values):
    return RealVector(tuple(float(v) for v in values))


class TestCompareScores:
    def test_minimize_smaller_is_better(self):
        assert compare_scores(3.0, 5.0, MIN) is Ordering.BETTER

    def test_maximize_mirrors_minimize(self):
        assert compare_scores(3.0, 5.0, MAX) is Ordering.WORSE

    def test_equal(self):
        assert compare_scores(7.9, 7.9, MIN) is Ordering.EQUAL

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            compare_scores(float("inf"), 1.0, MIN)
        with pytest.raises(ValueError):
            compare_scores(1.0, float("nan"), MAX)


class TestSolutionValues:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 1, 1))
        with pytest.raises(ValueError):
            Permutation((1, 2, 3))

    def test_keyed_scalars_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            KeyedScalars((("u", 1.0), ("u", 2.0)))

    def test_schema_bound_validation(self):
        with pytest.raises(ValueError):
            RealVectorSchema(dim=2, lower=(0.0, 5.0), upper=(5.0, 0.0))
        with pytest.raises(ValueError):
            PermutationSchema(n=1)
        with pytest.raises(ValueError):
            KeyedScalarsSchema(keys=("a", "a"), lower=(0.0, 0.0), upper=(1.0, 1.0))

    def test_evaluated_solution_requires_finite_score(self):
        with pytest.raises(ValueError):
            EvaluatedSolution(rv(1), float("inf"))

    def test_problem_spec_requires_description(self):
        schema = RealVectorSchema(dim=1, lower=(0.0,), upper=(1.0,))
        with pytest.raises(ValueError):
            ProblemSpec(description="  ", direction=MIN, schema=schema)


class TestHistoryInsert:
    def test_keeps_two_smallest_under_minimize(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(rv(1), 10.0))
        h.insert(ev(rv(2), 20.0))
        h.insert(ev(rv(3), 5.0))
        assert [e.score for e in h.entries] == [10.0, 5.0]

    def test_worse_than_all_rejected_when_full(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(rv(1), 5.0))
        h.insert(ev(rv(2), 10.0))
        before = h.entries
        h.insert(ev(rv(3), 50.0))
        assert h.entries == before

    def test_all_insertion_orders_agree_under_maximize(self):
        # Independent check: enumerate every order of three distinct scores.
        items = [ev(rv(1), 41.08), ev(rv(2), 40.0), ev(rv(3), 38.0)]
        for order in itertools.permutations(items):
            h = History(capacity=3, direction=MAX)
            for item in order:
                h.insert(item)
            assert [e.score for e in h.entries] == [38.0, 40.0, 41.08]

    def test_duplicate_payload_replaces_score(self):
        h = History(capacity=4, direction=MIN)
        h.insert(ev(rv(1), 10.0))
        h.insert(ev(rv(1), 7.0))
        assert len(h) == 1
        assert h.entries[0].score == 7.0

    def test_tie_keeps_earlier_insertion(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(rv(1), 5.0))
        h.insert(ev(rv(2), 5.0))
        h.insert(ev(rv(3), 1.0))
        # One of the tied 5.0 entries must go; the earlier one survives.
        kept = [e.solution for e in h.entries]
        assert rv(1) in kept and rv(2) not in kept

    def test_ordering_is_worst_to_best(self):
        for direction in (MIN, MAX):
            h = History(capacity=5, direction=direction)
            for i, score in enumerate([3.0, 1.0, 4.0, 1.5, 2.0]):
                h.insert(ev(rv(i), score))
            scores = [e.score for e in h.entries]
            if direction is MIN:
                assert scores == sorted(scores, reverse=True)
            else:
                assert scores == sorted(scores)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(20240811)
        for _ in range(100):
            capacity = int(rng.integers(1, 17))
            direction = MIN if rng.random() < 0.5 else MAX
            n = int(rng.integers(1, 40))
            # Small integer scores force plenty of ties; payloads unique.
            entries = [ev(rv(i), float(rng.integers(0, 8))) for i in range(n)]
            h = History(capacity=capacity, direction=direction)
            for entry in entries:
                h.insert(entry)
            assert h.entries == brute_force_topk(entries, capacity, direction)


class TestUpdateBest:
    def test_first_candidate_wins(self):
        cand = ev(rv(1), 7.95)
        assert update_best(None, cand, MIN) is cand

    def test_worse_rejected(self):
        incumbent = ev(rv(1), 7.90)
        assert update_best(incumbent, ev(rv(2), 7.95), MIN) is incumbent

    def test_better_replaces_under_maximize(self):
        incumbent = ev(rv(1), 40.0)
        cand = ev(rv(2), 41.08)
        assert update_best(incumbent, cand, MAX) is cand

    def test_tie_keeps_incumbent(self):
        incumbent = ev(rv(1), 5.0)
        assert update_best(incumbent, ev(rv(2), 5.0), MIN) is incumbent

    def test_idempotent(self):
        incumbent = ev(rv(1), 5.0)
        cand = ev(rv(2), 4.0)
        once = update_best(incumbent, cand, MIN)
        twice = update_best(once, cand, MIN)
        assert once is twice
