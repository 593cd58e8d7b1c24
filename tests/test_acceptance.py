"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line; run with `pytest tests/test_acceptance.py -v -s`
to see them. Hosted-model output is not reproducible offline, so the runs here
use the deterministic perturbation backend against oracle-anchored targets,
plus property suites for the machinery.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from llmize import (
    Continue,
    EvalPolicy,
    History,
    KeyedScalars,
    KeyedScalarsSchema,
    Objective,
    ObjectiveDirection,
    Permutation,
    PermutationSchema,
    PerturbBackend,
    RealVector,
    RealVectorSchema,
    RunConfig,
    SamplingParams,
    SetSamplingTemperature,
    StepContext,
    StepStats,
    Stop,
    TerminationKind,
    ZeroCandidatesError,
    accept_candidate,
    adaptive_sampling,
    clamp_tag,
    cool,
    early_stopping,
    evaluate_batch,
    parse_proposal,
    render_solution,
    resolve_actions,
    run_hlmsa,
    run_opro,
    target_stop,
)
from llmize.benchmarks import (
    SeedStyle,
    convex2d_oracle,
    lp3_feasible,
    lp3_oracle,
    make_convex_benchmark,
    make_lp_benchmark,
    make_tsp_benchmark,
    seed_samples,
    tsp_bruteforce,
    tsp_canonical,
    tsp_generate,
)
from llmize.cli import HISTORY_CSV_HEADER, main as cli_main
from llmize.proposer import HttpChatBackend
from conftest import brute_force_topk, chat_body, ev

MIN = ObjectiveDirection.MINIMIZE
MAX = ObjectiveDirection.MAXIMIZE

# Frozen on first execution; see the benchmark oracles.
CONVEX_RUN_GOLDEN_BEST = 7.923228661955139
TSP_7_42_OPT_LENGTH = 227.2034960165557
TSP_7_42_OPT_ROUTE = (0, 1, 3, 6, 5, 2, 4)


def evaluated(benchmark, samples):
    return [ev(v, benchmark.objective.evaluate(v)) for v in samples]


def test_criterion_01_convex_benchmark():
    started = time.perf_counter()
    x, value = convex2d_oracle()
    assert value == pytest.approx(7.898, abs=1e-3)
    assert x[0] == pytest.approx(3.473, abs=0.01)
    assert x[1] == pytest.approx(0.0, abs=0.01)

    bench = make_convex_benchmark()
    initial = evaluated(bench, seed_samples(bench.spec.schema, 4, 7, SeedStyle.GRID))
    config = RunConfig(max_steps=60, batch=8, history_capacity=16, rng_seed=7)
    result = run_opro(
        bench.spec, bench.objective, PerturbBackend(seed=7), config,
        [target_stop(7.95)], initial,
    )
    elapsed = time.perf_counter() - started
    assert result.best.score <= 7.95
    assert result.termination.kind is TerminationKind.TARGET_REACHED
    assert result.best.score == pytest.approx(CONVEX_RUN_GOLDEN_BEST, abs=1e-12)
    assert elapsed < 5.0
    print(
        f"\n[criterion 1] PASS: oracle min {value:.6f} at {x}; "
        f"seeded run best {result.best.score:.6f} <= 7.95 via target stop "
        f"in {elapsed:.2f}s"
    )


def test_criterion_02_lp_benchmark():
    started = time.perf_counter()
    x, z = lp3_oracle()
    assert z == pytest.approx(41.08, abs=1e-2)
    for got, want in zip(x, (1.08, 2.8, 4.44)):
        assert got == pytest.approx(want, abs=1e-2)

    bench = make_lp_benchmark()
    samples = seed_samples(bench.spec.schema, 64, 7, SeedStyle.UNIFORM_RANDOM)
    initial = evaluated(bench, samples)
    config = RunConfig(max_steps=110, batch=8, history_capacity=16, rng_seed=7)
    result = run_opro(
        bench.spec, bench.objective, PerturbBackend(seed=7), config,
        [target_stop(40.5)], initial,
    )
    elapsed = time.perf_counter() - started
    total_evaluations = result.evaluations_used + len(initial)
    assert total_evaluations <= 1000
    assert result.best.score >= 40.5
    assert lp3_feasible(result.best.solution.values, tol=1e-9)
    assert elapsed < 5.0
    print(
        f"\n[criterion 2] PASS: oracle optimum {z:.4f} at {x}; seeded run best "
        f"{result.best.score:.4f} >= 40.5, feasible, {total_evaluations} evaluations, "
        f"{elapsed:.2f}s"
    )


def test_criterion_03_tsp_hlmsa_matches_bruteforce():
    started = time.perf_counter()
    instance = tsp_generate(7, 42)
    opt_route, opt_length = tsp_bruteforce(instance)
    assert opt_length == pytest.approx(TSP_7_42_OPT_LENGTH, abs=1e-9)
    assert tsp_canonical(opt_route) == Permutation(TSP_7_42_OPT_ROUTE)

    bench = make_tsp_benchmark(n=7, instance_seed=42)
    initial = evaluated(
        bench, seed_samples(bench.spec.schema, 8, 11, SeedStyle.UNIFORM_RANDOM)
    )
    config = RunConfig(max_steps=250, batch=8, history_capacity=16, rng_seed=11)
    result = run_hlmsa(
        bench.spec, bench.objective, PerturbBackend(seed=11), config, [], initial
    )
    elapsed = time.perf_counter() - started
    assert result.evaluations_used <= 2000
    # Exact: tour lengths are exactly rounded edge sums, so the optimal tour's
    # length is bit-identical in any rotation or direction.
    assert result.best.score == opt_length
    assert tsp_canonical(result.best.solution) == tsp_canonical(opt_route)
    assert elapsed < 10.0
    print(
        f"\n[criterion 3] PASS: HLMSA matched brute-force optimum "
        f"{opt_length:.6f} exactly with {result.evaluations_used} evaluations "
        f"in {elapsed:.2f}s"
    )


def test_criterion_04_metropolis_acceptance_statistics():
    trials = 100_000
    rng = np.random.default_rng(20250810)
    accepted = sum(
        accept_candidate(10.0, 11.0, 1.0, MIN, rng) for _ in range(trials)
    )
    frequency = accepted / trials
    assert frequency == pytest.approx(math.exp(-1), abs=0.01)

    rng = np.random.default_rng(20250811)
    cold_accepts = sum(
        accept_candidate(10.0, 11.0, 1e-12, MIN, rng) for _ in range(trials)
    )
    assert cold_accepts == 0
    print(
        f"\n[criterion 4] PASS: worse-move acceptance {frequency:.4f} vs "
        f"exp(-1)={math.exp(-1):.4f}; zero acceptances at T=1e-12"
    )


def test_criterion_05_cooling_schedule():
    t = 1.0
    for _ in range(50):
        t = cool(t, 0.99)
    expected = 0.99**50
    assert abs(t - expected) / expected <= 1e-9

    assert clamp_tag(0.3, 0.5, 0.99, 0.92) == 0.5
    assert clamp_tag(1.7, 0.5, 0.99, 0.92) == 0.99
    assert clamp_tag(None, 0.5, 0.99, 0.92) == 0.92
    print(
        f"\n[criterion 5] PASS: 50 cools -> {t:.12f} (rel err "
        f"{abs(t - expected) / expected:.2e}); clamp and default verified"
    )


def test_criterion_06_history_property_suite():
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(1000):
        capacity = int(rng.integers(1, 17))
        direction = MIN if rng.random() < 0.5 else MAX
        n = int(rng.integers(1, 41))
        if rng.random() < 0.5:
            scores = [float(rng.integers(0, 6)) for _ in range(n)]  # forced ties
        else:
            scores = [float(rng.normal()) for _ in range(n)]
        entries = [ev(RealVector((float(i),)), s) for i, s in enumerate(scores)]
        h = History(capacity=capacity, direction=direction)
        for entry in entries:
            h.insert(entry)
        assert h.entries == brute_force_topk(entries, capacity, direction)
        checked += 1
    assert checked == 1000
    print("\n[criterion 6] PASS: 1000 randomized insert sequences match brute-force top-K")


def _random_value(rng, schema):
    if isinstance(schema, RealVectorSchema):
        magnitudes = 10.0 ** rng.uniform(-6, 6, size=schema.dim)
        signs = rng.choice([-1.0, 1.0], size=schema.dim)
        return RealVector(tuple(float(m * s) for m, s in zip(magnitudes, signs)))
    if isinstance(schema, PermutationSchema):
        return Permutation(tuple(int(v) for v in rng.permutation(schema.n)))
    return KeyedScalars(
        tuple((k, float(rng.uniform(lo, hi))) for k, lo, hi in zip(schema.keys, schema.lower, schema.upper))
    )


def test_criterion_07_parser_suite():
    rng = np.random.default_rng(7)
    schemas = [
        RealVectorSchema(dim=3, lower=(-1e6,) * 3, upper=(1e6,) * 3),
        PermutationSchema(n=9),
        KeyedScalarsSchema.from_bounds({"u": (32, 512), "p": (0, 0.6), "eta": (1e-4, 1e-1)}),
    ]
    for schema in schemas:
        for _ in range(1000):
            value = _random_value(rng, schema)
            raw = f"noise before <solution>{render_solution(value)}</solution> noise after"
            [candidate] = parse_proposal(raw, schema).candidates
            if isinstance(value, RealVector):
                for a, b in zip(candidate.values, value.values):
                    assert a == pytest.approx(b, rel=1e-5, abs=1e-12)
            elif isinstance(value, KeyedScalars):
                for (ka, va), (kb, vb) in zip(candidate.pairs, value.pairs):
                    assert ka == kb
                    assert va == pytest.approx(vb, rel=1e-5, abs=1e-12)
            else:
                assert candidate == value

    box = RealVectorSchema(dim=2, lower=(0.0, 0.0), upper=(5.0, 5.0))
    adversarial = [
        # (text, valid blocks, total blocks)
        ("Reasoning... <solution>1, 2</solution> done. <solution>3, 4</solution>", 2, 2),
        ("<solution>a<solution>1, 2</solution></solution>", 0, 1),
        ("<solution>1, 2</solution><solution>3, ", 1, 1),
        ("<solution>1, 2, 3</solution><solution>4, 5</solution>", 1, 2),
        ("<solution></solution>", 0, 1),
    ]
    import re

    block_re = re.compile(r"<solution>(.*?)</solution>", re.DOTALL)
    for raw, valid, total in adversarial:
        assert len(block_re.findall(raw)) == total
        if valid == 0:
            with pytest.raises(ZeroCandidatesError) as exc:
                parse_proposal(raw, box)
            assert exc.value.rejected_blocks == total
        else:
            parsed = parse_proposal(raw, box)
            assert len(parsed.candidates) == valid
            assert len(parsed.candidates) + parsed.rejected_blocks == total
    print(
        "\n[criterion 7] PASS: 1000 round-trips per schema variant; adversarial "
        "accounting and ZeroCandidates behavior verified"
    )


def test_criterion_08_evaluation_ordering():
    rng = np.random.default_rng(8)

    def jittery(values):
        time.sleep(rng.uniform(0.0, 0.002))
        return values[0] * 1.5

    objective = Objective(evaluate=lambda v: jittery(v.values), direction=MIN)
    candidates = [RealVector((float(i),)) for i in range(8)]
    expected = [i * 1.5 for i in range(8)]
    trials = 0
    for workers in (1, 2, 8):
        for _ in range(67):
            out = evaluate_batch(objective, candidates, EvalPolicy(workers=workers))
            assert out == expected
            trials += 1
    assert trials >= 200

    plain = Objective(evaluate=lambda v: math.sin(v.values[0]) * 3.0, direction=MIN)
    sequential = [plain.evaluate(c) for c in candidates]
    threaded = evaluate_batch(plain, candidates, EvalPolicy(workers=1))
    assert threaded == sequential
    print(f"\n[criterion 8] PASS: input order preserved over {trials} trials; W=1 bitwise-sequential")


def test_criterion_09_callback_traces():
    def trace(callback, series, direction=MIN, temperature=0.7):
        actions = []
        for i, best in enumerate(series):
            stats = StepStats(
                step_index=i,
                best_of_step=best,
                mean_of_step=best,
                best_so_far=best,
                sampling_temperature=temperature,
            )
            ctx = StepContext(stats=stats, direction=direction)
            actions.append(callback(ctx))
        return actions

    actions = trace(early_stopping(patience=3), [10, 9, 9, 9, 9])
    assert actions == [Continue()] * 4 + [Stop(TerminationKind.EARLY_STOPPED)]
    actions = trace(early_stopping(patience=3), [10, 9, 8, 7, 6])
    assert all(a == Continue() for a in actions)
    actions = trace(early_stopping(patience=3, min_delta=0.5), [10, 9.8, 9.6, 9.4])
    assert actions == [Continue()] * 3 + [Stop(TerminationKind.EARLY_STOPPED)]

    actions = trace(target_stop(7.95), [8.2, 7.898])
    assert actions == [Continue(), Stop(TerminationKind.TARGET_REACHED)]
    actions = trace(target_stop(41.0), [40.8], direction=MAX)
    assert actions == [Continue()]

    actions = trace(adaptive_sampling(stagnation_window=2, bump=0.3), [5, 5, 5])
    assert actions == [Continue(), Continue(), SetSamplingTemperature(1.0)]
    actions = trace(adaptive_sampling(stagnation_window=1, bump=0.3), [5, 5], temperature=1.9)
    assert actions[1] == SetSamplingTemperature(2.0)
    actions = trace(adaptive_sampling(stagnation_window=2, bump=0.3), [5, 4, 3, 2])
    assert all(a == Continue() for a in actions)

    four = [
        Continue(),
        Stop(TerminationKind.EARLY_STOPPED),
        Stop(TerminationKind.TARGET_REACHED),
        SetSamplingTemperature(1.5),
    ]
    for perm in itertools.permutations(four):
        assert resolve_actions(list(perm)) == Stop(TerminationKind.TARGET_REACHED)
    three = [Continue(), Stop(TerminationKind.EARLY_STOPPED), SetSamplingTemperature(1.5)]
    for perm in itertools.permutations(three):
        assert resolve_actions(list(perm)) == Stop(TerminationKind.EARLY_STOPPED)
    print("\n[criterion 9] PASS: callback traces and resolve_actions dominance verified")


def test_criterion_10_cli_golden_files(tmp_path, capsys):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(["bench", "convex2d", "--seed", "7", "--out", str(out1)]) == 0
    assert cli_main(["bench", "convex2d", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    header = (out1 / "history.csv").read_text().splitlines()[0]
    assert header == HISTORY_CSV_HEADER

    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "strategy": "opro",
                "benchmark": "convex2d",
                "backend": {"kind": "perturb", "seed": 7},
                "max_steps": 10,
                "output_dir": str(tmp_path / "goodout"),
            }
        )
    )
    assert cli_main(["run", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "strategy": "opro",
                "benchmark": "convex2d",
                "backend": {"kind": "perturb", "seed": 7},
                "bacth": 8,
            }
        )
    )
    assert cli_main(["run", str(bad)]) == 1
    assert "bacth" in capsys.readouterr().err

    transcript = tmp_path / "short_transcript.json"
    transcript.write_text(json.dumps(["<solution>2.5, 0.1</solution>"]))
    aborting = tmp_path / "aborting.json"
    aborting.write_text(
        json.dumps(
            {
                "strategy": "opro",
                "benchmark": "convex2d",
                "backend": {"kind": "scripted", "transcript": str(transcript)},
                "max_steps": 5,
                "batch": 1,
                "output_dir": str(tmp_path / "abortout"),
            }
        )
    )
    assert cli_main(["run", str(aborting)]) == 2
    print(
        "\n[criterion 10] PASS: byte-identical golden files, exact CSV header, "
        "exit codes 0/1/2 verified"
    )


def test_criterion_11_http_backend_contract(stub_chat_server, monkeypatch):
    monkeypatch.setenv("LLMIZE_API_KEY", "acceptance-token")
    body_text = "chain of thought...\n<solution>2.5, 0.5</solution>"
    server = stub_chat_server(lambda n: (200, chat_body(body_text)))
    backend = HttpChatBackend(base_url=server.url, model="test-model")

    bench = make_convex_benchmark()
    initial = evaluated(bench, seed_samples(bench.spec.schema, 4, 0, SeedStyle.GRID))
    from llmize import build_prompt, History, Strategy

    h = History(4, MIN)
    for e in initial:
        h.insert(e)
    bundle = build_prompt(bench.spec, h, Strategy.OPRO, {}, 2)
    raw = backend.propose(bundle, SamplingParams(model_temperature=0.4, max_output_tokens=256))
    assert raw == body_text  # verbatim passthrough

    [request] = server.requests
    assert request["path"] == "/chat/completions"
    body = request["body"]
    assert set(body) == {"model", "messages", "temperature", "max_tokens"}
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.4
    assert body["max_tokens"] == 256
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert body["messages"][0]["content"] == bundle.system_text
    assert body["messages"][1]["content"] == bundle.user_text
    assert request["headers"]["Authorization"] == "Bearer acceptance-token"

    failing = stub_chat_server(lambda n: (503, {"error": "down"}))
    failing_backend = HttpChatBackend(base_url=failing.url, model="test-model")
    config = RunConfig(max_steps=3, batch=2, history_capacity=8, rng_seed=0)
    result = run_opro(bench.spec, bench.objective, failing_backend, config, [], initial)
    assert result.termination.kind is TerminationKind.ABORTED
    assert len(failing.requests) == 2  # one attempt plus exactly one retry
    print(
        "\n[criterion 11] PASS: exact request fields, bearer auth from env, "
        "verbatim response, abort after one transport retry"
    )
