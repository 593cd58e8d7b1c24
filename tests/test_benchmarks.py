import math
import re

import numpy as np
import pytest

from llmize import KeyedScalarsSchema, Permutation, PermutationSchema, RealVector, RealVectorSchema
from llmize.benchmarks import (
    BENCHMARK_NAMES,
    BOX_PENALTY,
    INVALID_ROUTE_SCORE,
    InstanceTooLarge,
    SeedStyle,
    TspInstance,
    convex2d,
    convex2d_oracle,
    get_benchmark,
    lp3,
    lp3_feasible,
    lp3_oracle,
    seed_samples,
    tsp_bruteforce,
    tsp_canonical,
    tsp_generate,
    tsp_length,
)

SQUARE = TspInstance(((0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)))


class TestConvex2d:
    def test_hand_computed_value(self):
        # (3-3)^2 + (0+2)^2 + sin(3) + 4
        assert convex2d((3.0, 0.0)) == pytest.approx(8.0 + math.sin(3.0), abs=1e-12)
        assert convex2d((3.0, 0.0)) == pytest.approx(8.1411, abs=1e-4)

    def test_near_optimal_value(self):
        assert convex2d((3.473, 0.0)) == pytest.approx(7.898, abs=1e-3)

    def test_penalty_branch(self):
        raw = (-1.0 - 3.0) ** 2 + 4.0 + math.sin(-1.0) + 4.0
        assert convex2d((-1.0, 0.0)) == pytest.approx(raw + BOX_PENALTY)
        assert convex2d((2.0, 5.1)) > BOX_PENALTY / 2

    def test_dim_check(self):
        with pytest.raises(ValueError):
            convex2d((1.0,))

    def test_oracle_location_and_value(self):
        x, value = convex2d_oracle()
        assert value == pytest.approx(7.898, abs=1e-3)
        assert x[0] == pytest.approx(3.473, abs=0.01)
        assert x[1] == pytest.approx(0.0, abs=0.01)

    def test_oracle_is_pinned(self):
        assert convex2d_oracle() == ((3.4725, 0.0), 7.898354966987269)

    def test_x2_gradient_positive_on_box(self):
        # d/dx2 = 2(x2+2) + cos(x1+x2) >= 4 - 1 > 0, so the minimum sits on x2=0.
        for x1 in np.linspace(0, 5, 11):
            for x2 in np.linspace(0, 5, 11):
                assert 2 * (x2 + 2) + math.cos(x1 + x2) > 0


class TestLp3:
    def test_origin_is_feasible_zero(self):
        assert lp3((0.0, 0.0, 0.0)) == 0.0

    def test_known_vertex(self):
        assert lp3((1.08, 2.8, 4.44)) == pytest.approx(41.08, abs=1e-2)

    def test_penalty_branch(self):
        assert lp3((10.0, 10.0, 10.0)) == pytest.approx(130.0 - 1e6)

    @pytest.mark.parametrize("x", [(), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_wrong_length_is_refused(self, x):
        with pytest.raises(ValueError, match="^lp3 expects exactly 3 values$"):
            lp3(x)

    def test_feasibility_helper(self):
        assert lp3_feasible((1.08, 2.8, 4.44), tol=1e-9)
        assert not lp3_feasible((-0.1, 0.0, 0.0))

    def test_oracle_optimum(self):
        x, z = lp3_oracle()
        assert z == pytest.approx(41.08, abs=1e-2)
        assert x[0] == pytest.approx(1.08, abs=1e-2)
        assert x[1] == pytest.approx(2.8, abs=1e-2)
        assert x[2] == pytest.approx(4.44, abs=1e-2)

    def test_oracle_vertex_is_exact(self):
        # Solved in rational arithmetic, so the floats nearest the true vertex.
        assert lp3_oracle() == ((1.08, 2.8, 4.44), 41.08)

    def test_penalty_never_beats_feasible(self):
        # |Z| <= 130 on the box, so any feasible score dominates any penalized one.
        assert lp3((0.0, 0.0, 0.0)) > lp3((10.0, 10.0, 10.0))


class TestTsp:
    def test_generate_is_deterministic(self):
        assert tsp_generate(10, 5) == tsp_generate(10, 5)
        assert tsp_generate(10, 5) != tsp_generate(10, 6)

    @pytest.mark.parametrize(
        "coordinates, message",
        [
            (((0.0, 0.0),), "need n >= 2 coordinates"),
            (((0.0, 0.0), (100.5, 1.0)), "coordinates must lie in"),
            (((0.0, -0.5), (1.0, 1.0)), "coordinates must lie in"),
        ],
        ids=["one-city", "x-above-100", "y-below-0"],
    )
    def test_instance_is_checked(self, coordinates, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            TspInstance(coordinates)

    def test_two_city_tour(self):
        inst = tsp_generate(2, 3)
        d = math.dist(inst.coordinates[0], inst.coordinates[1])
        assert tsp_length(inst, Permutation((0, 1))) == pytest.approx(2 * d)

    def test_square_perimeter(self):
        assert tsp_length(SQUARE, Permutation((0, 1, 2, 3))) == 40.0

    def test_square_crossing_diagonals(self):
        value = tsp_length(SQUARE, Permutation((0, 2, 1, 3)))
        assert value == pytest.approx(20.0 + 20.0 * math.sqrt(2.0))

    def test_rotation_and_reversal_exact_invariance(self):
        inst = tsp_generate(7, 42)
        rng = np.random.default_rng(1)
        for _ in range(20):
            order = tuple(int(v) for v in rng.permutation(7))
            base = tsp_length(inst, Permutation(order))
            for shift in range(7):
                rotated = order[shift:] + order[:shift]
                assert tsp_length(inst, Permutation(rotated)) == base
            assert tsp_length(inst, Permutation(order[::-1])) == base

    def test_invalid_route_guard(self):
        assert tsp_length(SQUARE, [0, 1, 2, 2]) == INVALID_ROUTE_SCORE
        assert tsp_length(SQUARE, [0, 1, 2]) == INVALID_ROUTE_SCORE

    def test_valid_permutation_of_wrong_size(self):
        # A Permutation is a bijection by construction; its size is still checked.
        assert tsp_length(SQUARE, Permutation((0, 1, 2))) == INVALID_ROUTE_SCORE
        assert tsp_length(SQUARE, Permutation((0, 1, 2, 3, 4))) == INVALID_ROUTE_SCORE
        assert tsp_length(SQUARE, PermutationSchema(5).sample(np.random.default_rng(0))) == (
            INVALID_ROUTE_SCORE
        )

    def test_bit_identical_to_indexed_edge_sum(self):
        def reference(inst, order):  # the formula before the mapped-dist form
            coords = inst.coordinates
            return math.fsum(
                [math.dist(coords[order[k]], coords[order[(k + 1) % inst.n]]) for k in range(inst.n)]
            )

        rng = np.random.default_rng(3)
        for n in (2, 3, 7, 50, 60):
            inst = tsp_generate(n, n)
            for _ in range(40):
                route = PermutationSchema(n).sample(rng)
                want = reference(inst, route.order).hex()
                assert tsp_length(inst, route).hex() == want
                assert tsp_length(inst, list(route.order)).hex() == want

    def test_bruteforce_square(self):
        route, length = tsp_bruteforce(SQUARE)
        assert length == 40.0
        assert tsp_canonical(route) == Permutation((0, 1, 2, 3))

    def test_bruteforce_triangle_single_tour(self):
        inst = tsp_generate(3, 9)
        route, length = tsp_bruteforce(inst)
        # Every 3-city tour is the same cycle up to symmetry.
        for order in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            assert tsp_length(inst, Permutation(order)) == length

    def test_bruteforce_lower_bounds_random_routes(self):
        inst = tsp_generate(7, 42)
        _, best = tsp_bruteforce(inst)
        rng = np.random.default_rng(2)
        for _ in range(50):
            route = Permutation(tuple(int(v) for v in rng.permutation(7)))
            assert tsp_length(inst, route) >= best

    def test_bruteforce_refuses_large_instances(self):
        with pytest.raises(InstanceTooLarge):
            tsp_bruteforce(tsp_generate(11, 0))

    def test_frozen_instance_optimum(self):
        route, length = tsp_bruteforce(tsp_generate(7, 42))
        assert length == pytest.approx(227.2034960165557, abs=1e-9)
        assert tsp_canonical(route) == Permutation((0, 1, 3, 6, 5, 2, 4))


class TestSeedSamples:
    def test_grid_lattice_includes_corners(self):
        schema = RealVectorSchema(lower=(0.0, 0.0), upper=(5.0, 5.0))
        points = seed_samples(schema, 9, 0, SeedStyle.GRID)
        assert len(points) == 9
        tuples = {p.values for p in points}
        assert (0.0, 0.0) in tuples and (5.0, 5.0) in tuples
        assert (2.5, 2.5) in tuples

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, 5.0), (-1.3, 7.1), (0.1, 0.7), (2.0, 2.0), (0.0, 5e-324), (-5e-324, 5e-324)]
    )
    def test_grid_axes_match_numpy_linspace(self, lo, hi):
        # The last two spans underflow to a zero step, numpy's special case.
        schema = RealVectorSchema(lower=(lo, 0.0), upper=(hi, 1.0))
        points = seed_samples(schema, 49, 0, SeedStyle.GRID)
        axes = [np.linspace(lo, hi, 7).tolist(), np.linspace(0.0, 1.0, 7).tolist()]
        want = [(a.hex(), b.hex()) for a in axes[0] for b in axes[1]]
        assert [tuple(v.hex() for v in p.values) for p in points] == want

    def test_grid_rejected_for_permutations(self):
        with pytest.raises(ValueError):
            seed_samples(PermutationSchema(5), 4, 0, SeedStyle.GRID)

    def test_uniform_permutations_valid_and_replayable(self):
        schema = PermutationSchema(10)
        a = seed_samples(schema, 5, 11, SeedStyle.UNIFORM_RANDOM)
        b = seed_samples(schema, 5, 11, SeedStyle.UNIFORM_RANDOM)
        assert a == b
        for p in a:
            assert sorted(p.order) == list(range(10))

    def test_keyed_scalars_within_bounds(self):
        schema = KeyedScalarsSchema(
            {"u": (32, 512), "p": (0, 0.6), "eta": (1e-4, 1e-1)}
        )
        for sample in seed_samples(schema, 20, 4, SeedStyle.UNIFORM_RANDOM):
            values = sample.as_dict()
            assert 32 <= values["u"] <= 512
            assert 0 <= values["p"] <= 0.6
            assert 1e-4 <= values["eta"] <= 1e-1

    def test_real_vectors_within_bounds(self):
        schema = RealVectorSchema(lower=(0.0, 0.0, 0.0), upper=(10.0, 10.0, 10.0))
        for sample in seed_samples(schema, 30, 8, SeedStyle.UNIFORM_RANDOM):
            assert all(0.0 <= v <= 10.0 for v in sample.values)


class TestRegistry:
    def test_names(self):
        assert BENCHMARK_NAMES == ("convex2d", "lp3", "tsp")

    def test_lookup_and_direction(self):
        assert get_benchmark("convex2d").objective.direction.value == "minimize"
        assert get_benchmark("lp3").objective.direction.value == "maximize"
        tsp = get_benchmark("tsp", n=7, instance_seed=42)
        assert tsp.tsp_instance.n == 7

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("nosuch")

    def test_objectives_accept_solution_values(self):
        b = get_benchmark("convex2d")
        assert b.objective.evaluate(RealVector((3.0, 0.0))) == pytest.approx(8.1411, abs=1e-4)
        t = get_benchmark("tsp", n=7, instance_seed=42)
        value = t.objective.evaluate(Permutation((0, 1, 2, 3, 4, 5, 6)))
        assert value > 0
