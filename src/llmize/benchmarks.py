"""Desk-scale benchmark objectives, seed-sample generation, and brute-force
oracles that are independent of the optimizers under test.

All constraint handling is penalty-based: infeasible candidates keep a finite
score that is dominated by any feasible one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .core import (
    ObjectiveDirection,
    Permutation,
    PermutationSchema,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    SolutionSchema,
    SolutionValue,
)
from .evaluation import Objective
from .rng import Rng

if TYPE_CHECKING:
    from fractions import Fraction

BOX_PENALTY = 1e6
LP_PENALTY = 1e6
INVALID_ROUTE_SCORE = 1e9


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``num >= 2`` evenly spaced points from ``lo`` to ``hi``, computed with
    the float operations of ``numpy.linspace``."""
    div = num - 1
    delta = hi - lo
    step = delta / div
    if step == 0:  # the span underflowed: scale each index before multiplying
        points = [i / div * delta + lo for i in range(num)]
    else:
        points = [i * step + lo for i in range(num)]
    points[-1] = hi
    return points


# ---------------------------------------------------------------------------
# Convex benchmark
# ---------------------------------------------------------------------------


def convex2d(x: Sequence[float]) -> float:
    """Smooth 2-d test objective on the box [0,5]^2, minimized.

    Out-of-box points keep the formula value plus a large penalty.
    """
    if len(x) != 2:
        raise ValueError("convex2d expects exactly 2 values")
    x1, x2 = float(x[0]), float(x[1])
    value = (x1 - 3.0) ** 2 + (x2 + 2.0) ** 2 + math.sin(x1 + x2) + 4.0
    if 0.0 <= x1 <= 5.0 and 0.0 <= x2 <= 5.0:
        return value
    return value + BOX_PENALTY


def convex2d_oracle(rounds: int = 3, points_per_axis: int = 21) -> tuple[tuple[float, float], float]:
    """Locate the in-box minimum by nested grid refinement.

    Each round lays a full grid over the current box, then shrinks the box
    tenfold around the incumbent (clipped to the feasible box). Derivative-free
    and independent of any optimizer.
    """
    lo = [0.0, 0.0]
    hi = [5.0, 5.0]
    best_x = (0.0, 0.0)
    best_value = math.inf
    for _ in range(rounds):
        axes = [_linspace(lo[i], hi[i], points_per_axis) for i in range(2)]
        for x1 in axes[0]:
            for x2 in axes[1]:
                value = convex2d((x1, x2))
                if value < best_value:
                    best_value = value
                    best_x = (x1, x2)
        for i in range(2):
            width = (hi[i] - lo[i]) / 10.0
            lo[i] = max(0.0, best_x[i] - width / 2.0)
            hi[i] = min(5.0, best_x[i] + width / 2.0)
    return best_x, best_value


# ---------------------------------------------------------------------------
# Linear programming benchmark
# ---------------------------------------------------------------------------

# Resource constraints a . x <= b for the 3-variable LP.
_LP_ROWS = (
    ((2.0, 3.0, 1.0), 15.0),
    ((1.0, 2.0, 3.0), 20.0),
    ((4.0, 1.0, 2.0), 16.0),
)


def lp3_feasible(x: Sequence[float], tol: float = 0.0) -> bool:
    if any(v < -tol for v in x):
        return False
    for row, limit in _LP_ROWS:
        if sum(a * v for a, v in zip(row, x)) > limit + tol:
            return False
    return True


def lp3(x: Sequence[float]) -> float:
    """3-variable LP objective, maximized: Z = 3a + 4b + 6c under three
    resource constraints and nonnegativity. Infeasible points score Z minus a
    large penalty."""
    if len(x) != 3:
        raise ValueError("lp3 expects exactly 3 values")
    z = 3.0 * x[0] + 4.0 * x[1] + 6.0 * x[2]
    if lp3_feasible(x):
        return z
    return z - LP_PENALTY


def _solve_exact(rows: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """The solution of the square system whose augmented rows are ``rows``,
    by Gauss-Jordan elimination in exact arithmetic; None when singular."""
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def lp3_oracle() -> tuple[tuple[float, float, float], float]:
    """Exact LP optimum by enumerating vertices of the constraint polytope.

    Every choice of three active hyperplanes (resource rows plus coordinate
    planes) yields a candidate vertex, solved in exact rational arithmetic;
    singular systems and infeasible points are discarded and the best
    feasible Z wins. The vertex and Z are the floats nearest the exact ones.
    """
    # Only the oracle does exact arithmetic, so only it loads ``fractions``.
    from fractions import Fraction

    planes = [(*row, limit) for row, limit in _LP_ROWS]
    planes += [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
    planes = [tuple(map(Fraction, plane)) for plane in planes]
    best_x: list[Fraction] | None = None
    best_z = -math.inf
    for triple in itertools.combinations(planes, 3):
        x = _solve_exact(triple)
        if x is None or not lp3_feasible(x, tol=1e-9):
            continue
        z = 3 * x[0] + 4 * x[1] + 6 * x[2]
        if z > best_z:
            best_z, best_x = z, x
    assert best_x is not None
    return (float(best_x[0]), float(best_x[1]), float(best_x[2])), float(best_z)


# ---------------------------------------------------------------------------
# Traveling salesman benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TspInstance:
    coordinates: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2 coordinates")
        for x, y in self.coordinates:
            if not (0.0 <= x <= 100.0 and 0.0 <= y <= 100.0):
                raise ValueError("coordinates must lie in [0, 100]^2")

    @property
    def n(self) -> int:
        return len(self.coordinates)


class InstanceTooLarge(Exception):
    """Exhaustive search refused: too many tours."""


def tsp_generate(n: int, seed: int) -> TspInstance:
    """Random instance with ``n`` cities uniform in [0, 100]^2, reproducible
    from the seed."""
    rng = Rng(seed)
    return TspInstance(
        tuple((rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n))
    )


def tsp_length(instance: TspInstance, route: Permutation | Sequence[int]) -> float:
    """Closed-tour length of ``route``; invalid routes score a large constant.

    Uses an exactly rounded sum, so rotations and reversals of the same tour
    produce bit-identical lengths.
    """
    if isinstance(route, Permutation):
        # A Permutation is a valid ordering by construction; only its size can be wrong.
        order = route.order
        if len(order) != instance.n:
            return INVALID_ROUTE_SCORE
    else:
        order = [int(v) for v in route]
        if sorted(order) != list(range(instance.n)):
            return INVALID_ROUTE_SCORE
    coords = instance.coordinates
    pts = [coords[i] for i in order]
    return math.fsum(map(math.dist, pts, pts[1:] + pts[:1]))


def tsp_canonical(route: Permutation) -> Permutation:
    """Normalize a tour for comparisons: start at city 0, traverse toward the
    smaller neighbor."""
    order = list(route.order)
    start = order.index(0)
    order = order[start:] + order[:start]
    if len(order) > 2 and order[1] > order[-1]:
        order = [order[0]] + order[:0:-1]
    return Permutation(tuple(order))


def tsp_bruteforce(instance: TspInstance) -> tuple[Permutation, float]:
    """Exhaustive global optimum with city 0 fixed and reversals halved.

    Refuses instances above 10 cities; (n-1)!/2 tours grows too fast beyond.
    """
    if instance.n > 10:
        raise InstanceTooLarge(f"{instance.n} cities exceeds the enumeration bound of 10")
    best_route: tuple[int, ...] | None = None
    best_length = math.inf
    for tail in itertools.permutations(range(1, instance.n)):
        if instance.n >= 3 and tail[0] > tail[-1]:
            continue
        route = (0,) + tail
        length = tsp_length(instance, route)
        if length < best_length:
            best_length = length
            best_route = route
    assert best_route is not None
    return Permutation(best_route), best_length


# ---------------------------------------------------------------------------
# Seed samples
# ---------------------------------------------------------------------------


# The most seeds a run starts from, and the most points a grid lays. On a
# 2-vCPU Xeon VM, drawing uniform 2-d seeds took 0.75 s for 10**5 of them and
# 2.5 s for 3 * 10**5.
MAX_SEEDS = 100_000
# The most numbers the seeds hold together: count times each value's dim. On
# that VM, seeding took 0.9-1.8 us per number for every schema kind (1000-dim
# real vectors, 10**4-city permutations, 1000 keyed scalars).
MAX_SEED_NUMBERS = 10**6


class SeedStyle(Enum):
    GRID = "grid"
    UNIFORM_RANDOM = "uniform"


def seed_samples(
    schema: SolutionSchema,
    count: int,
    seed: int,
    style: SeedStyle = SeedStyle.UNIFORM_RANDOM,
) -> list[SolutionValue]:
    """Deterministic starting solutions for a run.

    Grid style lays an axis-aligned lattice of roughly ``count`` points over
    real-vector bounds (corners included); uniform style draws ``count``
    values with ``schema.sample``. Either way at most ``MAX_SEEDS`` values,
    and at most ``MAX_SEED_NUMBERS`` numbers in all: ``count`` times the
    value's ``dim`` is checked first, and a grid's points, at least two per
    axis, times ``dim`` again.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_SEEDS:
        raise ValueError(f"count must be <= {MAX_SEEDS}")
    if count * schema.dim > MAX_SEED_NUMBERS:
        raise ValueError(
            f"count times the {schema.dim} numbers of each value must be "
            f"<= {MAX_SEED_NUMBERS}, got {count * schema.dim}"
        )
    rng = Rng(seed)
    if style is SeedStyle.GRID:
        if not isinstance(schema, RealVectorSchema):
            raise ValueError("grid seeding only applies to real vectors")
        per_axis = max(2, round(count ** (1.0 / schema.dim)))
        points = per_axis**schema.dim
        if points > MAX_SEEDS:
            raise ValueError(
                f"grid seeding lays {per_axis}^{schema.dim} points, more than {MAX_SEEDS}"
            )
        if points * schema.dim > MAX_SEED_NUMBERS:
            raise ValueError(
                f"grid seeding lays {per_axis}^{schema.dim} points of {schema.dim} numbers, "
                f"more than {MAX_SEED_NUMBERS} numbers"
            )
        axes = [_linspace(lo, hi, per_axis) for lo, hi in zip(schema.lower, schema.upper)]
        return [RealVector(point) for point in itertools.product(*axes)]
    return [schema.sample(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Benchmark:
    """A registered problem with its seeding recipe, plus the step budget and
    stop target that ``llmize bench`` runs it with."""

    spec: ProblemSpec
    objective: Objective
    seed_style: SeedStyle
    seed_count: int
    default_steps: int
    default_target: float | None = None
    tsp_instance: TspInstance | None = None


def make_convex_benchmark() -> Benchmark:
    schema = RealVectorSchema(lower=(0.0, 0.0), upper=(5.0, 5.0))
    spec = ProblemSpec(
        description=(
            "Minimize f(x1, x2) = (x1 - 3)^2 + (x2 + 2)^2 + sin(x1 + x2) + 4 "
            "subject to 0 <= x1 <= 5 and 0 <= x2 <= 5."
        ),
        schema=schema,
        domain_knowledge=(
            "Solutions outside the box receive a penalty of 1e6 added to the "
            "objective, so stay inside the bounds."
        ),
    )
    return Benchmark(
        spec=spec,
        objective=Objective(lambda v: convex2d(v.values), ObjectiveDirection.MINIMIZE),
        seed_style=SeedStyle.GRID,
        seed_count=4,
        default_steps=60,
        default_target=7.95,
    )


def make_lp_benchmark() -> Benchmark:
    schema = RealVectorSchema(lower=(0.0, 0.0, 0.0), upper=(10.0, 10.0, 10.0))
    spec = ProblemSpec(
        description=(
            "Maximize Z = 3*x1 + 4*x2 + 6*x3 subject to "
            "2*x1 + 3*x2 + x3 <= 15, x1 + 2*x2 + 3*x3 <= 20, "
            "4*x1 + x2 + 2*x3 <= 16, and x1, x2, x3 >= 0."
        ),
        schema=schema,
        domain_knowledge=(
            "Any violated constraint subtracts a penalty of 1e6 from the "
            "objective value, so feasibility matters more than a large Z."
        ),
    )
    return Benchmark(
        spec=spec,
        objective=Objective(lambda v: lp3(v.values), ObjectiveDirection.MAXIMIZE),
        seed_style=SeedStyle.UNIFORM_RANDOM,
        seed_count=64,
        default_steps=110,
        default_target=40.5,
    )


def make_tsp_benchmark(n: int = 10, instance_seed: int = 0) -> Benchmark:
    if instance_seed < 0:
        raise ValueError("instance_seed must be >= 0")
    schema = PermutationSchema(n=n)  # refuses a size before any city is drawn
    instance = tsp_generate(n, instance_seed)
    coord_lines = "\n".join(
        f"city {i}: ({x:.3f}, {y:.3f})" for i, (x, y) in enumerate(instance.coordinates)
    )
    spec = ProblemSpec(
        description=(
            f"Find the shortest closed tour through {n} cities, visiting each "
            "exactly once and returning to the start. Distances are Euclidean. "
            f"City coordinates:\n{coord_lines}"
        ),
        schema=schema,
        domain_knowledge=(
            "Good tours avoid crossing edges; swapping the order of nearby "
            "cities is often a useful refinement."
        ),
    )
    return Benchmark(
        spec=spec,
        objective=Objective(lambda v: tsp_length(instance, v), ObjectiveDirection.MINIMIZE),
        seed_style=SeedStyle.UNIFORM_RANDOM,
        seed_count=8,
        default_steps=250,
        tsp_instance=instance,
    )


_BENCHMARKS = {
    "convex2d": make_convex_benchmark,
    "lp3": make_lp_benchmark,
    "tsp": make_tsp_benchmark,
}
BENCHMARK_NAMES = tuple(_BENCHMARKS)


def get_benchmark(name: str, **params) -> Benchmark:
    if name not in _BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}")
    return _BENCHMARKS[name](**params)
