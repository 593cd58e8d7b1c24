import ast
import itertools
import math
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import llmize
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
    core,
    update_best,
)
from llmize.core import MAX_PERMUTATION_N
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
            RealVectorSchema(lower=(0.0, 5.0), upper=(5.0, 0.0))
        with pytest.raises(ValueError):
            PermutationSchema(n=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_bounds_rejected(self, bad, side):
        bounds = {"lower": (0.0, 0.0), "upper": (1.0, 1.0)}
        bounds[side] = (0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            RealVectorSchema(**bounds)
        with pytest.raises(ValueError, match="finite"):
            KeyedScalarsSchema(dict(zip("ab", zip(bounds["lower"], bounds["upper"]))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_real_bound_names_its_side(self, bad, side):
        bounds = {"lower": (0.0, 0.0), "upper": (1.0, 1.0)}
        bounds[side] = (0.0, bad)
        with pytest.raises(ValueError, match=f"^{side} must be finite at position 1"):
            RealVectorSchema(**bounds)

    def test_evaluated_solution_requires_finite_score(self):
        with pytest.raises(ValueError):
            EvaluatedSolution(rv(1), float("inf"))

    def test_problem_spec_requires_description(self):
        schema = RealVectorSchema(lower=(0.0,), upper=(1.0,))
        with pytest.raises(ValueError):
            ProblemSpec(description="  ", schema=schema)


def reference_parse(tokens: list[str], n: int) -> Permutation | None:
    """What ``PermutationSchema.parse`` accepted before it checked once: the
    public constructor's ``int()`` and bijection check on every token."""
    if len(tokens) != n:
        return None
    try:
        return Permutation(tuple(int(t) for t in tokens))
    except ValueError:
        return None


# Token decorations int() accepts or refuses: signs, underscores, leading
# zeros, decimals, letters, whitespace (also newlines, tabs and a non-breaking
# space) and a non-ASCII digit.
_JUNK = "0123456789 +-_.abcxyzE\n\t\u00a0\u0663"


def random_tokens(rng: random.Random, n: int) -> list[str]:
    tokens = [str(c) for c in rng.sample(range(n), n)]
    for i, token in enumerate(tokens):
        roll = rng.random()
        if roll < 0.05:
            tokens[i] = rng.choice(["+", "-", "0", "00", " ", "\n", "\t", "\u00a0"]) + token
        elif roll < 0.08:
            tokens[i] = token + rng.choice([" ", "\n", ".", ".0", "_", "e0", "\u00a0"])
        elif roll < 0.10 and len(token) > 1:
            tokens[i] = token[0] + "_" + token[1:]
        elif roll < 0.12:
            tokens[i] = "".join(rng.choice(_JUNK) for _ in range(rng.randint(0, 3)))
        elif roll < 0.14:
            tokens[i] = str(rng.randint(-2, n + 2))
        elif roll < 0.50 and i:
            tokens[i] = " " + token  # the rendered form: ", " between cities
    roll = rng.random()
    if roll < 0.1:
        tokens[rng.randrange(n)] = rng.choice(tokens)  # a repeat
    elif roll < 0.15:
        tokens.pop(rng.randrange(n))
    elif roll < 0.2:
        tokens.append(rng.choice(tokens))
    return tokens


class TestPermutationFastPaths:
    """Values a schema builds skip the constructor's check; these pin that
    they are exactly the values the checked path gives."""

    def test_parse_agrees_with_checked_constructor(self):
        rng = random.Random(20231019)
        accepted = rejected = 0
        for _ in range(4000):
            n = rng.randint(2, 14)
            tokens = random_tokens(rng, n)
            got = PermutationSchema(n).parse(",".join(tokens))
            want = reference_parse(tokens, n)
            if want is None:
                assert got is None, tokens
                rejected += 1
                continue
            assert got == want and hash(got) == hash(want), tokens
            assert all(type(c) is int for c in got.order)
            assert got.render() == want.render()
            accepted += 1
        # The mix exercises both outcomes heavily.
        assert accepted > 600 and rejected > 600

    def test_parse_reads_tokens_as_int_does(self):
        schema = PermutationSchema(3)
        for text in ("0,1,2", "0, 1, 2", " 2 , 0 ,1 ", "+0,00001,\n2", "0,1_0,2", "0,1,\u0663"):
            want = reference_parse(text.split(","), 3)
            assert schema.parse(text) == want
        assert schema.parse(" 2 , 0 ,1 ") == Permutation((2, 0, 1))
        assert schema.parse("0,1_0,2") is None  # 10 is not a city of 0..2

    def test_render_matches_join(self):
        rng = np.random.default_rng(5)
        for n in range(1, 61):
            order = tuple(int(c) for c in rng.permutation(n))
            assert Permutation(order).render() == ", ".join(map(str, order))
        assert Permutation(()).render() == ""

    def test_sampled_and_perturbed_values_hold_plain_ints(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 17, 50):
            schema = PermutationSchema(n)
            value = schema.sample(rng)
            for _ in range(20):
                for v in (value, schema.perturb(value, rng, 0.1)):
                    assert all(type(c) is int for c in v.order)
                    assert v == Permutation(v.order)
                    assert hash(v) == hash(Permutation(v.order))
                    assert v.render() == ", ".join(map(str, v.order))
                value = schema.perturb(value, rng, 0.1)

    def test_trusted_construction_stays_in_permutation_schema(self):
        """Untrusted text enters only through ``schema.parse`` or the public
        constructor: ``Permutation._trusted`` is named only in ``core``, and
        there only by the three schema methods that have checked the order."""
        callers: set[str] = set()

        class Finder(ast.NodeVisitor):
            def __init__(self):
                self.scope: list[str] = []

            def _enter(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

            def visit_Attribute(self, node):
                if node.attr == "_trusted":
                    callers.add(".".join(self.scope))
                self.generic_visit(node)

        sources = sorted(Path(llmize.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        for path in sources:
            text = path.read_text()
            if path.name != "core.py":
                assert "_trusted" not in text, path.name
        Finder().visit(ast.parse((Path(llmize.__file__).parent / "core.py").read_text()))
        assert callers == {
            "PermutationSchema.parse",
            "PermutationSchema.sample",
            "PermutationSchema.perturb",
        }


def reference_render(order) -> str:
    return str(list(order))[1:-1]


def shuffled(n: int) -> tuple[int, ...]:
    return tuple(random.Random(n).sample(range(n), n))


class TestCityTexts:
    """``Permutation.render`` joins cached city texts; these pin that it
    writes what the list repr of its cities writes, however the table grew."""

    @pytest.mark.parametrize("large_first", [True, False], ids=["large-first", "small-first"])
    def test_render_matches_list_repr_in_either_growth_order(self, large_first, monkeypatch):
        monkeypatch.setattr(core, "_CITY_TEXTS", ())
        sizes = [*range(301), MAX_PERMUTATION_N]
        for n in sorted(sizes, reverse=large_first):
            order = shuffled(n)
            assert Permutation(order).render() == reference_render(order), n
        assert len(core._CITY_TEXTS) == MAX_PERMUTATION_N

    def test_concurrent_renders_from_an_empty_table(self, monkeypatch):
        monkeypatch.setattr(core, "_CITY_TEXTS", ())
        values = [Permutation(shuffled(n)) for n in range(0, 2000, 7)]
        start = threading.Barrier(8)
        mismatches = []

        def render_all(seed):
            mine = random.Random(seed).sample(values, len(values))
            start.wait()
            for value in mine:
                if value.render() != reference_render(value.order):
                    mismatches.append(len(value.order))

        # Threads switch often, so renders interleave with the table's growth.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=render_all, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_constructor_refuses_more_than_the_largest_size(self):
        with pytest.raises(ValueError, match=f"at most {MAX_PERMUTATION_N} cities"):
            Permutation(tuple(range(MAX_PERMUTATION_N + 1)))

    @pytest.mark.parametrize(
        "order, message",
        [
            ((0, 1, 1), "not a permutation of 0..2: city 2 is missing"),
            ((1, 2, 3), "not a permutation of 0..2: city 0 is missing"),
            ((-1, 0), "not a permutation of 0..1: city 1 is missing"),
        ],
    )
    def test_refusal_names_the_first_missing_city(self, order, message):
        with pytest.raises(ValueError) as exc:
            Permutation(order)
        assert str(exc.value) == message

    def test_refusal_of_the_largest_size_is_short(self):
        with pytest.raises(ValueError) as exc:
            Permutation(tuple(range(1, MAX_PERMUTATION_N + 1)))
        assert len(str(exc.value)) < 200


class TestSchemaArguments:
    @pytest.mark.parametrize("n", [4.9, 7.0, "7", True, None, np.int64(7)])
    def test_permutation_size_must_be_int(self, n):
        with pytest.raises(ValueError, match="integer"):
            PermutationSchema(n=n)

    @pytest.mark.parametrize(
        "key",
        ["", "a,b", ",", "x=y", "=", " a", "a ", "a  b", "a\tb", "a\n", "a\nb", "a\u00a0b",
         "a\u2003", "x in [y", "x in [0, 1] y"],
        ids=["empty", "comma", "comma-only", "equals", "equals-only", "leading-space", "trailing-space",
             "double-space", "tab", "newline", "inner-newline", "nbsp", "em-space",
             "bound-marker", "whole-bound"],
    )
    def test_keyed_key_the_encoding_cannot_carry(self, key):
        with pytest.raises(ValueError, match="words joined by single spaces"):
            KeyedScalarsSchema({"ok": (0.0, 1.0), key: (0.0, 1.0)})

    @pytest.mark.parametrize("key", ["learning rate", "a in b", "x[0]", "in", "a [b]"])
    def test_keyed_key_with_spaces_or_brackets_round_trips(self, key):
        schema = KeyedScalarsSchema({key: (0.0, 1.0), "z": (-1.0, 1.0)})
        assert KeyedScalarsSchema.from_description(schema.describe()) == schema
        value = KeyedScalars(((key, 0.25), ("z", -0.5)))
        assert schema.parse(value.render()) == value

    @pytest.mark.parametrize(
        "kind, text",
        [
            (RealVectorSchema, "Bounds per position: none."),
            (KeyedScalarsSchema, "Keys and bounds: none."),
        ],
        ids=["real-vector", "keyed-scalars"],
    )
    def test_bounds_marker_without_pairs_is_refused(self, kind, text):
        with pytest.raises(ValueError, match="^no (keyed )?bounds found in prompt encoding$"):
            kind.from_description(text)

    def test_keyed_block_that_repeats_a_key_is_refused(self):
        schema = KeyedScalarsSchema({"a": (0.0, 1.0), "b": (0.0, 1.0)})
        assert schema.parse("a=1, a=2, b=3") is None
        assert schema.parse("a=2, b=3") == KeyedScalars((("a", 2.0), ("b", 3.0)))

    def test_keyed_value_must_be_a_number(self):
        schema = KeyedScalarsSchema({"a": (0.0, 1.0), "b": (0.0, 1.0)})
        assert schema.parse("a=0.5, b=high") is None
        assert schema.parse("a=0.5, b=0.25") == KeyedScalars((("a", 0.5), ("b", 0.25)))

    @pytest.mark.parametrize("text", ["u=1,,p=2", "u=1, p=2,", "u=1, , p=2", "\n,u=1\np=2"])
    def test_keyed_block_with_a_blank_part_is_read(self, text):
        schema = KeyedScalarsSchema({"u": (0.0, 9.0), "p": (0.0, 9.0)})
        assert schema.parse(text) == KeyedScalars((("u", 1.0), ("p", 2.0)))

    def test_equal_keyed_schemas_hash_equal(self):
        schema = KeyedScalarsSchema({"u": (0, 1), "p": (0.0, 2.0)})
        same = KeyedScalarsSchema({"u": (0.0, 1.0), "p": (0, 2)})
        assert hash(schema) == hash(same)
        assert {schema: "found"}[same] == "found"

    def test_keyed_round_trip_for_accepted_keys(self):
        rng = random.Random(3)
        # Printable ASCII without whitespace, ',', '=', '<' and '>', plus some
        # non-ASCII; a key is one to three such words joined by single spaces.
        alphabet = [chr(c) for c in range(33, 127) if chr(c) not in ",=<>"] + list("éß→λ")
        values_rng = np.random.default_rng(3)

        def word():
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))

        for _ in range(300):
            keys = list(dict.fromkeys(
                " ".join(word() for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            ))
            # Bounds the prompt's 6 significant digits carry exactly.
            lower = [rng.randint(-40, 40) / 4 for _ in keys]
            upper = [lo + rng.randint(0, 20) / 4 for lo in lower]
            schema = KeyedScalarsSchema(dict(zip(keys, zip(lower, upper))))
            assert KeyedScalarsSchema.from_description(schema.describe()) == schema, keys
            value = KeyedScalars(tuple((k, float(values_rng.integers(-999, 999))) for k in keys))
            assert schema.parse(value.render()) == value, keys


class TestHistoryInsert:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_must_be_positive(self, capacity):
        with pytest.raises(ValueError, match="^capacity must be >= 1$"):
            History(capacity, MIN)

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

    def test_reinserted_payload_evicted_later_leaves_no_stale_key(self):
        def in_step(h):
            return h._key_of == dict(zip((e.solution for e in h.entries), h._keys))

        h = History(capacity=2, direction=MIN)
        h.insert(ev(rv(0.0), 5.0))
        h.insert(ev(rv(2), 6.0))
        h.insert(ev(rv(-0.0), 9.0))  # the same payload as rv(0.0), now the worst
        assert [e.score for e in h.entries] == [9.0, 6.0] and in_step(h)
        h.insert(ev(rv(3), 1.0))  # evicts it
        assert [e.solution for e in h.entries] == [rv(2), rv(3)] and in_step(h)
        h.insert(ev(rv(0.0), 0.0))  # back as a new entry, evicting rv(2)
        assert [e.solution for e in h.entries] == [rv(3), rv(0.0)] and in_step(h)
        assert h._keys == sorted(h._keys) and len(h._key_of) == len(h) == 2

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
