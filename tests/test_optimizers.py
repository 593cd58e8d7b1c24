import json
import math
import re
import sys
import threading
import time

import numpy as np
import pytest

from llmize import (
    Continue,
    EvalPolicy,
    HttpChatBackend,
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
from llmize import benchmarks, cli, optimizers
from llmize.benchmarks import convex2d, make_convex_benchmark, seed_samples, SeedStyle
from conftest import chat_body, ev

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE
TOP = sys.float_info.max
BOX = RealVectorSchema(lower=(0.0, 0.0), upper=(5.0, 5.0))
SPEC = ProblemSpec(description="Minimize the box objective.", schema=BOX)

SUM_OBJECTIVE = Objective(evaluate=lambda v: math.fsum(v.values), direction=MIN)


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

    def test_a_step_sends_at_most_four_requests(self, stub_chat_server):
        # A reply with no solution block is proposed again once, and each
        # proposal makes two attempts: 500, no block, then 500 twice aborts.
        no_block = (200, chat_body("nothing to parse"))
        server = stub_chat_server(lambda n: no_block if n == 2 else (500, {"error": "boom"}))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        result = run_opro(SPEC, SUM_OBJECTIVE, backend, config(), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.ABORTED
        assert "HTTP 500" in result.termination.message
        assert result.proposer_calls == 2
        assert len(server.requests) == 4

    def test_evaluation_failure_aborts(self):
        objective = Objective(
            evaluate=lambda v: (_ for _ in ()).throw(RuntimeError("sim crashed")),
            direction=MIN,
        )
        backend = ScriptedBackend(["<solution>1, 1</solution>"])
        result = run_opro(SPEC, objective, backend, config(), [], seeds((3, 3)))
        assert result.termination.kind is TerminationKind.ABORTED
        assert "sim crashed" in result.termination.message

    def test_command_timeout_reaches_the_loop(self, process_marker):
        # A hung objective command is killed at its 0.3 s timeout: the step
        # aborts, or records the substitute score when one is set.
        command = [sys.executable, "-c", "import time; time.sleep(30)", process_marker]
        objective = cli.command_objective(command, MIN, timeout=0.3)
        block = "<solution>1, 1</solution>"
        started = time.perf_counter()
        result = optimize(
            Strategy.OPRO, SPEC, objective, ScriptedBackend([block]),
            config(max_steps=1), initial=seeds((3, 3)),
        )
        assert time.perf_counter() - started < 0.3 + 1.0
        assert result.termination.kind is TerminationKind.ABORTED
        assert "timed out" in result.termination.message

        policy = EvalPolicy(workers=2, on_error=1e9)
        result = optimize(
            Strategy.OPRO, SPEC, objective, ScriptedBackend([block]),
            config(max_steps=1, evaluation=policy), initial=seeds((3, 3)),
        )
        assert result.termination.kind is TerminationKind.MAX_STEPS
        assert result.evaluations_used == 1
        assert result.steps[0].best_of_step == 1e9
        assert result.best.score == 6.0

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

    def test_step_mean_adds_left_to_right_on_every_python(self):
        # From 3.12, sum() compensates and would give (1e16 + 1 - 1e16) / 3;
        # the artifacts pinned in test_digests need the plain left-to-right sum.
        blocks = "".join(f"<solution>{x}, 0</solution>" for x in ("1e16", "1", "-1e16"))
        result = run_opro(
            SPEC, SUM_OBJECTIVE, ScriptedBackend([blocks]), config(max_steps=1, batch=3), [],
            seeds((1.0, 1.0)),
        )
        assert result.steps[0].mean_of_step == 0.0

    def test_substituted_scores_at_the_float_limit_keep_a_finite_mean(self):
        # sys.float_info.max is the natural "worse than anything" substitute,
        # and two of them overflow the left-to-right sum.
        def fail(value):
            raise RuntimeError("no score")

        policy = EvalPolicy(on_error=sys.float_info.max)
        blocks = "<solution>1, 1</solution><solution>2, 2</solution>"
        result = run_opro(
            SPEC, Objective(fail, MIN), ScriptedBackend([blocks]),
            config(max_steps=1, batch=2, evaluation=policy), [], seeds((1.0, 1.0)),
        )
        assert result.steps[0].mean_of_step == sys.float_info.max

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        document = json.loads(cli.dumps_result(result), parse_constant=refuse)
        assert document["steps"][0]["mean_of_step"] == sys.float_info.max
        assert "inf" not in cli.dumps_history_csv(result)

    @pytest.mark.parametrize(
        "scores, mean",
        [
            ([sys.float_info.max] * 3, sys.float_info.max),
            ([-sys.float_info.max] * 7, -sys.float_info.max),
            ([sys.float_info.max, sys.float_info.max, -sys.float_info.max],
             sys.float_info.max / 3),
            ([sys.float_info.max, sys.float_info.max / 2], 0.75 * sys.float_info.max),
        ],
        ids=["three-at-max", "seven-at-min", "two-max-one-min", "max-and-half"],
    )
    def test_mean_of_scores_whose_sum_overflows_lies_within_them(self, scores, mean):
        got = optimizers._mean(scores)
        assert math.isfinite(got) and min(scores) <= got <= max(scores)
        if mean is not None:
            assert got == mean


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_temperature_is_refused(bad):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sa_temperature must"):
        SaState(sa_temperature=bad)
    with pytest.raises(ValueError, match="sa_temperature must"):
        accept_candidate(10.0, 11.0, bad, MIN, rng)
    with pytest.raises(ValueError, match="sa_temperature must"):
        cool(bad, 0.9)


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

    def test_bottoms_out_at_the_smallest_positive_float(self):
        coldest = math.ulp(0.0)
        assert cool(coldest, 0.5) == coldest
        assert cool(coldest, 0.01) == coldest


def hlmsa_transcript(pairs, cooling=None):
    blocks = "".join(f"<solution>{a}, {b}</solution>" for a, b in pairs)
    if cooling is not None:
        blocks += f"<cooling_rate>{cooling}</cooling_rate>"
    return blocks


class PromptRecorder(ScriptedBackend):
    """Replays its script and keeps the user text of every prompt it is sent.
    A run given one step more than the script keeps the prompt that step
    would send, then stops: the script has run out."""

    def __init__(self, transcripts):
        super().__init__(transcripts)
        self.prompts = []

    def propose(self, bundle, params):
        self.prompts.append(bundle.user_text)
        return super().propose(bundle, params)


def shown_trajectories(prompt):
    """The points a prompt's `trajectory i:` lines show, in order."""
    return [
        tuple(float(x) for x in point.split(", "))
        for point in re.findall(r"^trajectory \d+: (.*) \| score: ", prompt, re.MULTILINE)
    ]


@pytest.mark.parametrize("strategy", [Strategy.OPRO, Strategy.HLMEA], ids=["opro", "hlmea"])
def test_a_step_scores_only_the_first_batch_of_a_long_reply(strategy):
    # Each reply holds 50 blocks, each better than the one before it; a step
    # scores the first batch of them, and only those reach the history.
    reply = "".join(f"<solution>{5 - j / 10}, {5 - j / 10}</solution>" for j in range(1, 51))
    backend = PromptRecorder([reply] * 3)
    scored = []

    def evaluate(value):
        scored.append(value.values)
        return math.fsum(value.values)

    objective = Objective(evaluate=evaluate, direction=MIN)
    result = optimize(
        strategy, SPEC, objective, backend, config(max_steps=4, batch=2), initial=seeds((5, 5))
    )
    assert len(result.steps) == 3
    assert result.evaluations_used == 3 * 2
    assert scored == [(4.9, 4.9), (4.8, 4.8)] * 3
    assert result.best.score == 9.6
    # The prompt of the fourth step, which the exhausted script then aborts.
    shown = re.findall(r"^solution: (.*) \| score: ", backend.prompts[-1], re.MULTILINE)
    assert shown == ["5, 5", "4.9, 4.9", "4.8, 4.8"]


class TestRunHlmsa:
    def test_improving_candidates_always_replace_trajectories(self):
        backend = PromptRecorder([hlmsa_transcript([(1, 1), (2, 2)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)  # effectively greedy
        initial = seeds((5.0, 5.0))
        run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2, batch=2), [], initial, sa
        )
        assert shown_trajectories(backend.prompts[1]) == [(1.0, 1.0), (2.0, 2.0)]

    def test_worsening_candidates_rejected_when_cold(self):
        backend = PromptRecorder([hlmsa_transcript([(9, 9), (8, 8)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)
        initial = seeds((5.0, 5.0), (1.0, 1.0))
        run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2, batch=2), [], initial, sa
        )
        assert shown_trajectories(backend.prompts[1]) == [(5.0, 5.0), (1.0, 1.0)]

    def test_seeds_of_one_score_leave_score_differences_unscaled(self, monkeypatch):
        # Both seeds score 10, so their range is 0 and the scale falls back to
        # 1.0: the Metropolis test sees raw differences, and at this
        # temperature a worsening of 0.5 is all but certain to be accepted.
        seen = []

        def recording(current, proposed, *args):
            seen.append((current, proposed))
            return accept_candidate(current, proposed, *args)

        monkeypatch.setattr(optimizers, "accept_candidate", recording)
        backend = PromptRecorder([hlmsa_transcript([(5, 5.5), (4, 6.25)], cooling=0.9)])
        initial = seeds((5.0, 5.0), (4.0, 6.0))
        run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2, batch=2), [], initial,
            SaState(sa_temperature=1000.0),
        )
        assert seen == [(0.0, 0.5), (0.0, 0.25)]
        assert shown_trajectories(backend.prompts[1]) == [(5.0, 5.5), (4.0, 6.25)]

    def test_cooling_tag_applied(self):
        backend = ScriptedBackend(
            [
                hlmsa_transcript([(1, 1)], cooling=0.9),
                hlmsa_transcript([(1, 2)], cooling=0.9),
                hlmsa_transcript([(2, 2)], cooling=0.9),
            ]
        )
        sa = SaState(sa_temperature=1.0)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=3), [], seeds((5, 5)), sa
        )
        assert [s.sa_temperature for s in result.steps[:2]] == [1.0, 0.9]
        assert [s.cooling_rate for s in result.steps[:2]] == [0.9, 0.9]
        assert result.steps[2].sa_temperature == pytest.approx(0.81)

    def test_missing_tag_uses_default_cooling(self):
        backend = ScriptedBackend([hlmsa_transcript([(1, 1)]), hlmsa_transcript([(2, 2)])])
        sa = SaState(sa_temperature=1.0, default_cooling=0.92)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2), [], seeds((5, 5)), sa
        )
        assert result.steps[0].cooling_rate == 0.92
        assert result.steps[1].sa_temperature == pytest.approx(0.92)

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

    def test_run_outlasts_temperature_underflow(self):
        # At cooling rate 0.5 a temperature of 1e-300 underflows within ~100
        # steps; the run stays at the coldest temperature, greedy, to its budget.
        class HalvingBackend(PerturbBackend):
            def propose(self, bundle, params):
                return super().propose(bundle, params).replace(
                    "<cooling_rate>0.9<", "<cooling_rate>0.5<"
                )

        bench = make_convex_benchmark()
        initial = [
            ev(v, bench.objective.evaluate(v))
            for v in seed_samples(bench.spec.schema, 4, 1, SeedStyle.GRID)
        ]
        sa = SaState(sa_temperature=1e-300)
        result = run_hlmsa(
            bench.spec, bench.objective, HalvingBackend(seed=1),
            config(max_steps=120, batch=4), [], initial, sa,
        )
        assert result.termination.kind is TerminationKind.MAX_STEPS
        assert len(result.steps) == 120
        assert {s.cooling_rate for s in result.steps} == {0.5}
        assert result.steps[-1].sa_temperature == math.ulp(0.0)

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
        backend = PromptRecorder([hlmsa_transcript([(1, 1), (2, 2), (3, 3)], cooling=0.9)])
        sa = SaState(sa_temperature=1e-12)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2, batch=2), [], seeds((5, 5)), sa
        )
        assert result.evaluations_used == 2
        assert shown_trajectories(backend.prompts[1]) == [(1.0, 1.0), (2.0, 2.0)]

    def test_one_settings_value_starts_equal_runs(self):
        bench = make_convex_benchmark()
        initial = [
            ev(v, bench.objective.evaluate(v))
            for v in seed_samples(bench.spec.schema, 4, 1, SeedStyle.GRID)
        ]
        sa = SaState(sa_temperature=1.0)

        def run(batch):
            return run_hlmsa(
                bench.spec, bench.objective, PerturbBackend(seed=1),
                config(max_steps=15, batch=batch), [], initial, sa,
            )

        first = run(4)
        assert run(4) == first
        assert first.steps[0].sa_temperature == 1.0
        assert len(run(2).steps) == 15
        assert sa == SaState(sa_temperature=1.0)

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

    def test_normalized_scores_past_the_float_range_still_anneal(self):
        # The seeds' range is 5e-324, so every candidate's normalized score
        # overflows. Even this hot, the worsening, too large for a float, is
        # refused, and the improvement is accepted.
        objective = Objective(evaluate=lambda v: v.values[0] - 2.5, direction=MIN)
        backend = PromptRecorder([hlmsa_transcript([(4, 0), (1, 0)], cooling=0.9)])
        initial = [ev(RealVector((2.5, 0.0)), 0.0), ev(RealVector((2.5, 1.0)), 5e-324)]
        result = run_hlmsa(
            SPEC, objective, backend, config(max_steps=2, batch=2), [], initial,
            SaState(sa_temperature=1e300),
        )
        assert shown_trajectories(backend.prompts[1]) == [(2.5, 0.0), (1.0, 0.0)]
        assert result.best.score == -1.5

    @pytest.mark.parametrize(
        "direction, current, proposed, accepted",
        [
            (MIN, TOP, -TOP, True),
            (MIN, -TOP, TOP, False),
            (MAX, -TOP, TOP, True),
            (MAX, TOP, -TOP, False),
            (MIN, -TOP, 0.0, False),
            (MIN, 0.0, 1.0, False),
            (MIN, 1.0, 0.0, True),
        ],
        ids=["min-improves", "min-worsens", "max-improves", "max-worsens",
             "half-the-range-worsens", "tiny-range-worsens", "tiny-range-improves"],
    )
    def test_acceptance_where_normalizing_overflows(self, direction, current, proposed, accepted):
        # Seeds at both float limits give a range past the float range; seeds
        # 5e-324 apart give one that no unit change fits. At a temperature
        # this low a representable worsening is all but certain to be refused.
        seeds_at = (-TOP, TOP) if abs(current) == TOP else (0.0, 5e-324)
        initial = [ev(RealVector((float(i), 0.0)), s) for i, s in enumerate(seeds_at)]
        state = optimizers._Annealing(None, initial, config(batch=1), direction)
        assert state.accepts(current, proposed, 1e-9) is accepted


class TestProbePoints:
    """The step loop and the CLI reach these layers through module globals,
    which is where perfbench's traced mode rebinds them to time each layer.
    A call bound any other way would make that layer's metric read 0."""

    @staticmethod
    def _count(monkeypatch, counts, module, names):
        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in names:
            counts[name] = 0
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    def test_loop_calls_each_layer_through_optimizers(self, monkeypatch):
        counts = {}
        self._count(
            monkeypatch, counts, optimizers,
            ("build_prompt", "parse_proposal", "evaluate_batch", "update_best",
             "accept_candidate", "resolve_actions"),
        )
        backend = ScriptedBackend([hlmsa_transcript([(1, 1), (2, 2)], cooling=0.9)] * 2)
        result = run_hlmsa(
            SPEC, SUM_OBJECTIVE, backend, config(max_steps=2, batch=2), [], seeds((5, 5))
        )
        assert len(result.steps) == 2
        assert counts == {
            "build_prompt": 2,
            "parse_proposal": 2,
            "evaluate_batch": 2,
            "update_best": 5,  # the seed, then two candidates a step
            "accept_candidate": 4,
            "resolve_actions": 2,
        }

    def test_cli_run_calls_each_layer_through_its_module(self, monkeypatch, tmp_path):
        counts = {}
        self._count(
            monkeypatch, counts, cli,
            ("evaluate_batch", "dumps_result", "dumps_history_csv", "command_objective",
             "render_history_chart", "render_tour"),
        )
        self._count(monkeypatch, counts, benchmarks, ("get_benchmark",))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "strategy": "hlmsa",
            "benchmark": "tsp",
            "benchmark_params": {"n": 5},
            "backend": {"kind": "perturb", "seed": 7},
            "max_steps": 2,
            "batch": 2,
            "output_dir": str(tmp_path / "out"),
        }))
        assert cli.main(["run", str(path)]) == 0
        assert counts == {
            "evaluate_batch": 1,  # the seeds
            "dumps_result": 1,
            "dumps_history_csv": 1,
            "command_objective": 0,
            "render_history_chart": 1,
            "render_tour": 1,
            "get_benchmark": 1,
        }

        counts.update(dict.fromkeys(counts, 0))
        path.write_text(json.dumps({
            "strategy": "opro",
            "problem": {
                "description": "Minimize the sum.",
                "direction": "minimize",
                "schema": {"kind": "real_vector", "lower": [0, 0], "upper": [1, 1]},
                "objective_command": [
                    sys.executable, "-c", "print(sum(map(float, input().split(','))))"
                ],
            },
            "backend": {"kind": "perturb", "seed": 7},
            "max_steps": 1,
            "batch": 1,
            "seeding": {"style": "grid", "count": 1},
            "output_dir": str(tmp_path / "custom"),
        }))
        assert cli.main(["run", str(path)]) == 0
        assert counts["command_objective"] == 1
        assert counts["get_benchmark"] == 0


class TestRunPool:
    """A run with more than one worker evaluates every step on one pool of
    threads, which it ends before returning."""

    BLOCK = "".join(f"<solution>{i}, {i}</solution>" for i in range(4))

    def test_steps_share_one_pool_ended_with_the_run(self):
        names = set()

        def named(value):
            names.add(threading.current_thread().name)
            return math.fsum(value.values)

        threads = threading.active_count()
        result = run_opro(
            SPEC, Objective(named, MIN), ScriptedBackend([self.BLOCK] * 4),
            config(max_steps=4, batch=4, evaluation=EvalPolicy(workers=2)), [], seeds((3, 3)),
        )
        assert len(result.steps) == 4 and result.evaluations_used == 16
        assert 1 <= len(names) <= 2
        assert threading.main_thread().name not in names
        assert threading.active_count() == threads

    def test_aborted_step_returns_after_its_running_evaluations_end(self):
        # Each step's candidate 0 waits for candidate 1 to start, so both
        # threads run. At step 1, candidate 0 then fails while candidate 1
        # runs for 0.3 s: candidates 2 and 3 never start, and the run returns
        # after candidate 1 ends.
        calls, lock = {}, threading.Lock()
        running = [threading.Event() for _ in range(3)]
        step = [0]

        def failing_at_step_one(value):
            key = (step[0], int(value.values[0]))
            with lock:
                calls[key] = [time.perf_counter(), None]
            try:
                if key[1] == 0:
                    assert running[key[0]].wait(5)
                if key[1] == 1:
                    running[key[0]].set()
                if key == (1, 0):
                    raise RuntimeError("boom")
                if key == (1, 1):
                    time.sleep(0.3)
                return math.fsum(value.values)
            finally:
                calls[key][1] = time.perf_counter()

        def count_steps(ctx):
            step[0] += 1
            return Continue()

        threads = threading.active_count()
        result = run_opro(
            SPEC, Objective(failing_at_step_one, MIN), ScriptedBackend([self.BLOCK] * 3),
            config(max_steps=3, batch=4, evaluation=EvalPolicy(workers=2)),
            [count_steps], seeds((3, 3)),
        )
        returned = time.perf_counter()
        assert result.termination.kind is TerminationKind.ABORTED
        assert "candidate 0: boom" in result.termination.message
        assert len(result.steps) == 1
        failed_at = calls[(1, 0)][1]
        assert sorted(key for key in calls if key[0] == 1) == [(1, 0), (1, 1)]
        assert all(start <= failed_at for start, _ in calls.values())
        assert all(end is not None and end <= returned for _, end in calls.values())
        assert threading.active_count() == threads

    def test_interrupted_run_leaves_at_once(self):
        # Candidate 0 interrupts once candidate 1 has started, which waits
        # up to 5 s.
        running, release = threading.Event(), threading.Event()

        def interrupted(value):
            if value.values[0] == 0:
                running.wait(5)
                raise KeyboardInterrupt
            running.set()
            release.wait(5)
            return math.fsum(value.values)

        started = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_opro(
                    SPEC, Objective(interrupted, MIN), ScriptedBackend([self.BLOCK]),
                    config(max_steps=1, batch=4, evaluation=EvalPolicy(workers=2)),
                    [], seeds((3, 3)),
                )
            assert time.perf_counter() - started < 2.5
        finally:
            release.set()

    def test_many_workers_under_thread_switching_stress_write_what_one_writes(self):
        # More workers than cores, switching threads every microsecond, and
        # one candidate in five failing into the substitute score.
        def flaky(value):
            time.sleep(0.0002)
            if int(value.values[0] * 1000) % 5 == 0:
                raise RuntimeError("boom")
            return math.fsum(value.values)

        bench = make_convex_benchmark()
        initial = [
            ev(v, bench.objective.evaluate(v))
            for v in seed_samples(bench.spec.schema, 4, 3, SeedStyle.GRID)
        ]

        def result_json(workers):
            policy = EvalPolicy(workers=workers, on_error=1e9)
            result = run_hlmea(
                bench.spec, Objective(flaky, MIN), PerturbBackend(seed=3),
                config(max_steps=12, batch=16, evaluation=policy), [], initial,
            )
            assert result.evaluations_used == 12 * 16
            return cli.dumps_result(result)

        expected = result_json(1)
        assert any(step["mean_of_step"] > 1e7 for step in json.loads(expected)["steps"])
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert result_json(8) == expected
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
