import math

import numpy as np
import pytest

from llmize import (
    Objective,
    ObjectiveDirection,
    PerturbBackend,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    RunConfig,
    SaState,
    SamplingParams,
    ScriptedBackend,
    Strategy,
    TerminationKind,
    TransportError,
    accept_candidate,
    adaptive_sampling,
    cool,
    optimize,
    run_hlmea,
    run_hlmsa,
    run_opro,
)
from llmize.benchmarks import convex2d, make_convex_benchmark, seed_samples, SeedStyle
from conftest import ev

MIN = ObjectiveDirection.MINIMIZE
BOX = RealVectorSchema(dim=2, lower=(0.0, 0.0), upper=(5.0, 5.0))
SPEC = ProblemSpec(description="Minimize the box objective.", direction=MIN, schema=BOX)

SUM_OBJECTIVE = Objective(
    evaluate=lambda v: math.fsum(v.values), direction=MIN, name="sum"
)


def config(**kw):
    defaults = dict(max_steps=3, batch=1, history_capacity=8, rng_seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def seeds(*pairs):
    return [ev(RealVector(p), math.fsum(p)) for p in pairs]


class FailingBackend:
    def propose(self, bundle, params):
        raise TransportError("connection refused")


class TestRunOpro:
    def test_scripted_exact_optimum_reaches_target_at_step_one(self):
        bench = make_convex_benchmark()
        block = "<solution>3.4725, 0.0</solution>"
        backend = ScriptedBackend([block] * 3)
        initial = [ev(RealVector((5.0, 5.0)), convex2d((5.0, 5.0)))]
        result = run_opro(bench.spec, bench.objective, backend, config(), [], initial)
        assert result.steps[0].best_so_far == pytest.approx(7.898, abs=1e-3)
        assert result.termination.kind is TerminationKind.MAX_STEPS

    def test_no_improving_candidate_keeps_incumbent(self):
        backend = ScriptedBackend(["<solution>-1.0, -1.0</solution>"])
        initial = seeds((1.0, 1.0), (2.0, 2.0))
        objective = Objective(
            evaluate=lambda v: math.fsum(v.values) + (0.0 if min(v.values) >= 0 else 1e6),
            direction=MIN,
        )
        result = run_opro(SPEC, objective, backend, config(max_steps=1), [], initial)
        assert result.best == initial[0]

    def test_initial_required(self):
        with pytest.raises(ValueError):
            run_opro(SPEC, SUM_OBJECTIVE, ScriptedBackend([]), config(), [], [])

    def test_direction_mismatch_rejected(self):
        objective = Objective(evaluate=lambda v: 0.0, direction=ObjectiveDirection.MAXIMIZE)
        with pytest.raises(ValueError):
            run_opro(SPEC, objective, ScriptedBackend([]), config(), [], seeds((1, 1)))

    def test_zero_candidates_retry_then_recover(self):
        backend = ScriptedBackend(["gibberish", "<solution>1, 1</solution>"])
        result = run_opro(SPEC, SUM_OBJECTIVE, backend, config(max_steps=1), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.MAX_STEPS
        assert result.proposer_calls == 2
        assert result.evaluations_used == 1

    def test_zero_candidates_twice_aborts(self):
        backend = ScriptedBackend(["junk", "more junk"])
        result = run_opro(SPEC, SUM_OBJECTIVE, backend, config(), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.ABORTED
        assert "no valid solution block" in result.termination.message
        assert result.steps == []
        assert result.best == seeds((3, 3))[0]

    def test_script_exhaustion_aborts(self):
        backend = ScriptedBackend(["<solution>1, 1</solution>"])
        result = run_opro(SPEC, SUM_OBJECTIVE, backend, config(max_steps=5), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.ABORTED
        assert len(result.steps) == 1

    def test_transport_error_aborts(self):
        result = run_opro(SPEC, SUM_OBJECTIVE, FailingBackend(), config(), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.ABORTED
        assert "connection refused" in result.termination.message

    def test_evaluation_failure_aborts(self):
        objective = Objective(
            evaluate=lambda v: (_ for _ in ()).throw(RuntimeError("sim crashed")),
            direction=MIN,
        )
        backend = ScriptedBackend(["<solution>1, 1</solution>"])
        result = run_opro(SPEC, objective, backend, config(), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.ABORTED
        assert "sim crashed" in result.termination.message

    def test_evaluation_accounting_with_rejected_blocks(self):
        # Each completion declares 3 blocks, one of which is malformed.
        step = (
            "<solution>1, 1</solution><solution>bad</solution><solution>2, 2</solution>"
        )
        backend = ScriptedBackend([step, step])
        result = run_opro(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2, batch=3), [], seeds((9, 9))
        )
        assert result.evaluations_used == 2 * 3 - 2
        assert result.proposer_calls == 2

    def test_adaptive_sampling_changes_recorded_temperature(self):
        blocks = ["<solution>5, 5</solution>"] * 4
        backend = ScriptedBackend(blocks)
        callbacks = [adaptive_sampling(stagnation_window=2, bump=0.5)]
        cfg = config(max_steps=4, sampling=SamplingParams(model_temperature=0.5))
        result = run_opro(SPEC, SUM_OBJECTIVE, backend, cfg, callbacks, seeds((1, 1)))
        # The bump fires after step 3's stats are recorded, so it shows from step 4.
        temps = [s.sampling_temperature for s in result.steps]
        assert temps == [0.5, 0.5, 0.5, 1.0]

    def test_best_never_worse_than_seed_best_in_any_loop(self):
        bench = make_convex_benchmark()
        for runner in (run_opro, run_hlmea, run_hlmsa):
            for seed in range(5):
                initial = [
                    ev(v, bench.objective.evaluate(v))
                    for v in seed_samples(bench.spec.schema, 4, seed, SeedStyle.GRID)
                ]
                seed_best = min(e.score for e in initial)
                result = runner(
                    bench.spec,
                    bench.objective,
                    PerturbBackend(seed=seed),
                    config(max_steps=10, batch=4),
                    [],
                    initial,
                )
                assert result.best.score <= seed_best

    def test_best_so_far_series_is_monotone(self):
        bench = make_convex_benchmark()
        initial = [
            ev(v, bench.objective.evaluate(v))
            for v in seed_samples(bench.spec.schema, 4, 3, SeedStyle.GRID)
        ]
        result = run_opro(
            bench.spec, bench.objective, PerturbBackend(seed=3),
            config(max_steps=20, batch=4), [], initial,
        )
        series = [s.best_so_far for s in result.steps]
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert result.best.score == series[-1]


class TestStrategyEquivalence:
    def test_identical_transcripts_identical_series(self):
        transcripts = [
            "<solution>4, 4</solution><solution>3, 3</solution>",
            "<solution>2, 2</solution><solution>6, 6</solution>",
            "<solution>1, 1</solution><solution>0.5, 0.5</solution>",
        ]
        results = []
        for runner in (run_opro, run_hlmea):
            backend = ScriptedBackend(list(transcripts))
            results.append(
                runner(SPEC, SUM_OBJECTIVE, backend, config(max_steps=3, batch=2), [], seeds((9, 9)))
            )
        a, b = results
        assert a.best == b.best
        assert [s.best_so_far for s in a.steps] == [s.best_so_far for s in b.steps]
        assert a.evaluations_used == b.evaluations_used

    def test_annealing_state_rejected_for_other_strategies(self):
        for strategy in (Strategy.OPRO, Strategy.HLMEA):
            with pytest.raises(ValueError, match="hlmsa"):
                optimize(
                    strategy, SPEC, SUM_OBJECTIVE, ScriptedBackend([]), config(),
                    initial=seeds((9, 9)), sa=SaState(),
                )

    def test_hlmea_records_rate_tags(self):
        raw = (
            "<solution>1, 1</solution>"
            "<elitism_rate>0.2</elitism_rate>"
            "<mutation_rate>0.3</mutation_rate>"
            "<crossover_rate>0.7</crossover_rate>"
        )
        backend = ScriptedBackend([raw])
        result = run_hlmea(SPEC, SUM_OBJECTIVE, backend, config(max_steps=1), [], seeds((9, 9)))
        assert result.steps[0].hyperparams == {
            "elitism_rate": 0.2,
            "mutation_rate": 0.3,
            "crossover_rate": 0.7,
        }


class TestAcceptCandidate:
    def test_improvement_always_accepted(self):
        rng = np.random.default_rng(0)
        assert accept_candidate(10.0, 9.0, 1e-12, MIN, rng)
        assert accept_candidate(10.0, 11.0, 1e-9, ObjectiveDirection.MAXIMIZE, rng)

    def test_tie_accepted(self):
        rng = np.random.default_rng(0)
        assert accept_candidate(10.0, 10.0, 1e-12, MIN, rng)

    def test_worse_move_frequency_matches_metropolis(self):
        rng = np.random.default_rng(42)
        trials = 20000
        accepted = sum(accept_candidate(10.0, 11.0, 1.0, MIN, rng) for _ in range(trials))
        assert accepted / trials == pytest.approx(math.exp(-1), abs=0.02)

    def test_cold_limit_is_greedy(self):
        rng = np.random.default_rng(7)
        assert not any(
            accept_candidate(10.0, 10.5, 1e-12, MIN, rng) for _ in range(5000)
        )

    def test_contract_checks(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            accept_candidate(1.0, 2.0, 0.0, MIN, rng)
        with pytest.raises(ValueError):
            accept_candidate(float("nan"), 2.0, 1.0, MIN, rng)


class TestCool:
    def test_single_step(self):
        assert cool(1.0, 0.9) == pytest.approx(0.9)

    def test_composition(self):
        assert cool(cool(1.0, 0.9), 0.9) == pytest.approx(0.81)

    def test_bounds(self):
        with pytest.raises(ValueError):
            cool(1.0, 1.0)
        with pytest.raises(ValueError):
            cool(-1.0, 0.9)


def hlmsa_transcript(pairs, cooling=None):
    blocks = "".join(f"<solution>{a}, {b}</solution>" for a, b in pairs)
    if cooling is not None:
        blocks += f"<cooling_rate>{cooling}</cooling_rate>"
    return blocks


class TestRunHlmsa:
    def test_improving_candidates_always_replace_trajectories(self):
        backend = ScriptedBackend([hlmsa_transcript([(1, 1), (2, 2)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)  # effectively greedy
        initial = seeds((5.0, 5.0))
        run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=1, batch=2), [], initial, sa
        )
        assert [t.solution.values for t in sa.trajectories] == [(1.0, 1.0), (2.0, 2.0)]

    def test_worsening_candidates_rejected_when_cold(self):
        backend = ScriptedBackend([hlmsa_transcript([(9, 9), (8, 8)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)
        initial = seeds((5.0, 5.0), (1.0, 1.0))
        run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=1, batch=2), [], initial, sa
        )
        assert [t.solution.values for t in sa.trajectories] == [(5.0, 5.0), (1.0, 1.0)]

    def test_cooling_tag_applied(self):
        backend = ScriptedBackend(
            [
                hlmsa_transcript([(1, 1)], cooling=0.9),
                hlmsa_transcript([(1, 2)], cooling=0.9),
            ]
        )
        sa = SaState(sa_temperature=1.0)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2), [], seeds((5, 5)), sa
        )
        assert [s.sa_temperature for s in result.steps] == [1.0, 0.9]
        assert [s.cooling_rate for s in result.steps] == [0.9, 0.9]
        assert sa.sa_temperature == pytest.approx(0.81)

    def test_missing_tag_uses_default_cooling(self):
        backend = ScriptedBackend([hlmsa_transcript([(1, 1)])])
        sa = SaState(sa_temperature=1.0, default_cooling=0.92)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=1), [], seeds((5, 5)), sa
        )
        assert result.steps[0].cooling_rate == 0.92
        assert sa.sa_temperature == pytest.approx(0.92)

    def test_out_of_bounds_tag_clamped(self):
        backend = ScriptedBackend([hlmsa_transcript([(1, 1)], cooling=1.7)])
        sa = SaState(sa_temperature=1.0)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=1), [], seeds((5, 5)), sa
        )
        assert result.steps[0].cooling_rate == 0.99

    def test_temperature_series_strictly_decreasing(self):
        bench = make_convex_benchmark()
        initial = [
            ev(v, bench.objective.evaluate(v))
            for v in seed_samples(bench.spec.schema, 4, 1, SeedStyle.GRID)
        ]
        result = run_hlmsa(
            bench.spec, bench.objective, PerturbBackend(seed=1),
            config(max_steps=15, batch=4), [], initial,
        )
        temps = [s.sa_temperature for s in result.steps]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_short_batch_aborts_after_retry(self):
        backend = ScriptedBackend(
            [hlmsa_transcript([(1, 1)]), hlmsa_transcript([(2, 2)])]
        )
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=1, batch=3), [], seeds((5, 5))
        )
        assert result.termination.kind is TerminationKind.ABORTED
        assert "need 3" in result.termination.message

    def test_extra_candidates_truncated_positionally(self):
        backend = ScriptedBackend([hlmsa_transcript([(1, 1), (2, 2), (3, 3)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=1, batch=2), [], seeds((5, 5)), sa
        )
        assert result.evaluations_used == 2
        assert [t.solution.values for t in sa.trajectories] == [(1.0, 1.0), (2.0, 2.0)]

    def test_best_tracks_rejected_evaluations(self):
        # Worsening candidate is rejected by every trajectory but still owns
        # best-of-step bookkeeping and history membership.
        objective = Objective(evaluate=lambda v: -math.fsum(v.values), direction=MIN)
        backend = ScriptedBackend([hlmsa_transcript([(9, 9)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)
        initial = [ev(RealVector((5.0, 5.0)), -10.0), ev(RealVector((20.0, 20.0)), -40.0)]
        result = run_hlmsa(
            SPEC, objective, backend, config(max_steps=1, batch=1), [], initial, sa
        )
        # candidate scores -18, beating trajectory 0's -10 is false (-18 < -10 improves MIN)
        assert result.best.score == -40.0
        assert result.steps[0].best_of_step == -18.0
