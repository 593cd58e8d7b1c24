import itertools
import math

import numpy as np
import pytest

from llmize import (
    EvaluatedSolution,
    History,
    KeyedScalars,
    KeyedScalarsSchema,
    ObjectiveDirection,
    Permutation,
    PermutationSchema,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    update_best,
)
from conftest import SortedHistory, brute_force_topk, ev

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE


def rv(*values):
    return RealVector(tuple(float(v) for v in values))


class TestGoodness:
    def test_minimize_smaller_is_better(self):
        assert MIN.goodness(3.0) == -3.0
        assert MIN.goodness(3.0) > MIN.goodness(5.0)

    def test_maximize_mirrors_minimize(self):
        assert MAX.goodness(3.0) == 3.0
        assert MAX.goodness(3.0) < MAX.goodness(5.0)

    def test_equal(self):
        for direction in (MIN, MAX):
            assert direction.goodness(7.9) == direction.goodness(7.9)
            assert direction.goodness(0.0) == direction.goodness(-0.0)

    def test_non_finite_rejected(self):
        # Scores are ranked only once they sit in an entry, which refuses
        # non-finite values, so goodness never ranks inf or nan.
        for score in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                EvaluatedSolution(rv(1), score)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_bounds_rejected(self, bad, side):
        bounds = {"lower": (0.0, 0.0), "upper": (1.0, 1.0)}
        bounds[side] = (0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            RealVectorSchema(dim=2, **bounds)
        with pytest.raises(ValueError, match="finite"):
            KeyedScalarsSchema(keys=("a", "b"), **bounds)

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

    def test_matches_sort_reference_with_repeated_payloads(self):
        # Re-inserts, score ties and evictions together, checked after every
        # insert. 0.0 and -0.0 are one payload; entries compare by identity.
        rng = np.random.default_rng(20261018)
        pool = [rv(0.0), rv(-0.0), rv(1), rv(2), rv(3), rv(4)]
        for _ in range(1000):
            capacity = int(rng.integers(1, 17))
            direction = MIN if rng.random() < 0.5 else MAX
            h = History(capacity=capacity, direction=direction)
            ref = SortedHistory(capacity=capacity, direction=direction)
            for _ in range(int(rng.integers(1, 41))):
                entry = ev(pool[int(rng.integers(len(pool)))], float(rng.integers(0, 4)))
                h.insert(entry)
                ref.insert(entry)
                assert [id(e) for e in h.entries] == [id(e) for e in ref.entries]
                assert len(h) == len(ref)
                assert h.best() is ref.best()


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
