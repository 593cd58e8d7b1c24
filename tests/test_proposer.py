import gc
import json
import math
import time
import weakref

import pytest

from llmize import (
    EvaluatedSolution,
    History,
    Objective,
    RunConfig,
    KeyedScalars,
    KeyedScalarsSchema,
    ObjectiveDirection,
    OUTPUT_CONTRACT,
    Permutation,
    PermutationSchema,
    PerturbBackend,
    ProblemSpec,
    RealVector,
    RealVectorSchema,
    SaState,
    SamplingParams,
    ScriptExhausted,
    ScriptedBackend,
    Strategy,
    TransportError,
    ZeroCandidatesError,
    build_prompt,
    clamp_tag,
    core,
    optimize,
    optimizers,
    parse_proposal,
    proposer,
    render_solution,
)
from llmize.proposer import HttpChatBackend, render_history_line
from conftest import chat_body, ev

MIN = ObjectiveDirection.MINIMIZE

BOX = RealVectorSchema(dim=2, lower=(0.0, 0.0), upper=(5.0, 5.0))
SPEC = ProblemSpec(description="Minimize the test box objective.", direction=MIN, schema=BOX)


def make_history(scores, direction=MIN, capacity=16, schema_dim=2):
    h = History(capacity=capacity, direction=direction)
    for i, s in enumerate(scores):
        h.insert(ev(RealVector((float(i), float(i))), s))
    return h


class TestBuildPrompt:
    def test_empty_history_opro(self):
        bundle = build_prompt(SPEC, History(4, MIN), Strategy.OPRO, {}, 4)
        assert SPEC.description in bundle.user_text
        assert "Propose 4 new, distinct solutions" in bundle.user_text
        assert "Return exactly 4 solution blocks." in bundle.user_text
        assert "solution: " not in bundle.user_text

    def test_output_contract_appears_exactly_once(self):
        bundle = build_prompt(SPEC, make_history([3.0, 1.0]), Strategy.HLMEA, {}, 2)
        combined = bundle.system_text + bundle.user_text
        assert combined.count(OUTPUT_CONTRACT) == 1

    def test_history_lines_ordered_worst_to_best(self):
        spec = ProblemSpec(
            description="Shortest tour.", direction=MIN, schema=PermutationSchema(n=5)
        )
        h = History(capacity=8, direction=MIN)
        scores = [310.0, 290.5, 305.2, 288.1, 299.9]
        perms = [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (2, 1, 0, 3, 4), (3, 1, 2, 0, 4), (4, 1, 2, 3, 0)]
        for p, s in zip(perms, scores):
            h.insert(ev(Permutation(p), s))
        bundle = build_prompt(spec, h, Strategy.OPRO, {}, 8)
        lines = [l for l in bundle.user_text.splitlines() if l.startswith("solution: ")]
        assert len(lines) == 5
        rendered_scores = [float(l.rsplit("score: ", 1)[1]) for l in lines]
        assert rendered_scores == sorted(scores, reverse=True)

    def test_hlmsa_echoes_temperature(self):
        lp_schema = RealVectorSchema(dim=3, lower=(0.0,) * 3, upper=(10.0,) * 3)
        spec = ProblemSpec(
            description="Maximize the LP.", direction=ObjectiveDirection.MAXIMIZE, schema=lp_schema
        )
        h = History(capacity=4, direction=ObjectiveDirection.MAXIMIZE)
        h.insert(ev(RealVector((1.0, 1.0, 1.0)), 13.0))
        bundle = build_prompt(spec, h, Strategy.HLMSA, {"sa_temperature": 1.0}, 3)
        assert "temperature" in bundle.user_text
        assert "1.0" in bundle.user_text

    def test_hlmsa_requires_temperature_state(self):
        with pytest.raises(ValueError):
            build_prompt(SPEC, make_history([2.0]), Strategy.HLMSA, {}, 2)

    def test_hlmea_requests_rate_tags(self):
        bundle = build_prompt(SPEC, make_history([2.0]), Strategy.HLMEA, {}, 2)
        for tag in ("elitism_rate", "mutation_rate", "crossover_rate"):
            assert f"inside <{tag}> and </{tag}> tags" in bundle.user_text

    def test_domain_knowledge_included_when_present(self):
        spec = ProblemSpec(
            description="d", direction=MIN, schema=BOX, domain_knowledge="stay feasible"
        )
        bundle = build_prompt(spec, History(4, MIN), Strategy.OPRO, {}, 1)
        assert "stay feasible" in bundle.user_text

    def test_trajectory_lines_rendered_for_hlmsa(self):
        trajectories = [ev(RealVector((1.0, 2.0)), 9.0), ev(RealVector((3.0, 4.0)), 8.0)]
        bundle = build_prompt(
            SPEC, make_history([9.0]), Strategy.HLMSA, {"sa_temperature": 0.5}, 2,
            trajectories=trajectories,
        )
        assert "trajectory 0: 1, 2 | score: 9" in bundle.user_text
        assert "trajectory 1: 3, 4 | score: 8" in bundle.user_text


class TestHistoryLineCache:
    """Each entry renders its prompt text once (``EvaluatedSolution.text``),
    however many prompts show it."""

    @staticmethod
    def _record(monkeypatch):
        """Count ``core.render_solution`` calls and keep what every prompt
        showed: history entries, trajectories, the bundle and its arguments."""
        rendered = []
        render = core.render_solution

        def counting_render(value):
            rendered.append(value)
            return render(value)

        prompts = []
        build = optimizers.build_prompt

        def recording_build(spec, history, strategy, state, batch, trajectories=None):
            bundle = build(spec, history, strategy, state, batch, trajectories)
            shown = list(trajectories) if trajectories else []
            prompts.append((history.entries, shown, bundle, (strategy, state, batch)))
            return bundle

        monkeypatch.setattr(core, "render_solution", counting_render)
        monkeypatch.setattr(optimizers, "build_prompt", recording_build)
        return rendered, prompts

    @staticmethod
    def _assert_rendered_once(rendered, prompts):
        # Every payload object belongs to one entry, so counting renders by
        # payload identity counts them by entry.
        shown = {id(e): e for entries, trajectories, _, _ in prompts
                 for e in entries + trajectories}
        assert sorted(id(v) for v in rendered) == sorted(
            id(e.solution) for e in shown.values()
        )

    def test_optimize_reuses_lines_and_matches_uncached_render(self, monkeypatch):
        rendered, prompts = self._record(monkeypatch)
        script = [
            "<solution>0, 1</solution><solution>2, 2</solution><solution>3, 0</solution>",
            # -0 re-inserts the payload of "0, 1" (equal values, same score).
            "<solution>-0, 1</solution><solution>1, 0</solution><solution>4, 4</solution>",
            "<solution>0.5, 0</solution><solution>2, 2</solution><solution>0, 0.5</solution>",
            "<solution>5, 5</solution><solution>0, 0.25</solution>",
            "<solution>1, 0</solution><solution>0.1, 0.1</solution>",
        ]
        objective = Objective(lambda v: math.fsum(v.values), MIN)
        initial = [ev(RealVector((float(i), 3.0)), i + 3.0) for i in range(3)]
        result = optimize(
            Strategy.OPRO, SPEC, objective, ScriptedBackend(script),
            RunConfig(max_steps=len(script), batch=3, history_capacity=4),
            initial=initial,
        )
        assert len(result.steps) == len(prompts) == len(script)
        # One render per distinct entry shown, however many prompts showed
        # it; the history kept some entries across steps.
        self._assert_rendered_once(rendered, prompts)
        assert len(rendered) < sum(len(entries) for entries, _, _, _ in prompts)

        for entries, _, bundle, args in prompts:
            # Copies carry no rendering yet. Inserting best first keeps the
            # order of tied entries.
            copies = [EvaluatedSolution(e.solution, e.score) for e in entries]
            fresh = History(capacity=4, direction=MIN)
            for e in reversed(copies):
                fresh.insert(e)
            assert all(a is b for a, b in zip(fresh.entries, copies))
            assert proposer.build_prompt(SPEC, fresh, *args) == bundle

        assert "solution: 0, 1 | score: 1\n" in prompts[1][2].user_text
        assert "solution: -0, 1 | score: 1\n" in prompts[2][2].user_text
        assert "solution: 0, 1 |" not in prompts[2][2].user_text

    def test_hlmsa_renders_each_shown_entry_once(self, monkeypatch):
        rendered, prompts = self._record(monkeypatch)
        blocks = [
            "<solution>1, 1</solution><solution>2, 0</solution><solution>0, 2</solution>",
            "<solution>0.5, 0.5</solution><solution>3, 3</solution><solution>1, 0</solution>",
            "<solution>0, 0.5</solution><solution>0.25, 0</solution><solution>4, 1</solution>",
            "<solution>0, 0</solution><solution>2, 2</solution><solution>0.1, 0</solution>",
        ]
        script = [b + "<cooling_rate>0.8</cooling_rate>" for b in blocks]
        objective = Objective(lambda v: math.fsum(v.values), MIN)
        initial = [ev(RealVector((float(i), 4.0)), i + 4.0) for i in range(2)]
        result = optimize(
            Strategy.HLMSA, SPEC, objective, ScriptedBackend(script),
            RunConfig(max_steps=len(script), batch=3, history_capacity=4),
            initial=initial, sa=SaState(sa_temperature=0.5),
        )
        assert len(result.steps) == len(prompts) == len(script)
        self._assert_rendered_once(rendered, prompts)
        # Trajectory points stay shown across steps and are also history
        # entries; neither showing renders them again.
        trajectory_ids = {id(e) for _, trajectories, _, _ in prompts for e in trajectories}
        history_ids = {id(e) for entries, _, _, _ in prompts for e in entries}
        assert trajectory_ids & history_ids
        assert sum(len(t) for _, t, _, _ in prompts) > len(trajectory_ids)
        for _, trajectories, bundle, _ in prompts:
            for i, e in enumerate(trajectories):
                assert f"trajectory {i}: {e.text}\n" in bundle.user_text

    def test_equal_payloads_keep_their_own_rendering(self):
        h = History(capacity=4, direction=MIN)
        lines = []
        for value in (0.0, -0.0, 0.0):
            h.insert(ev(RealVector((value,)), 1.0))
            bundle = build_prompt(SPEC, h, Strategy.OPRO, {}, 1)
            lines.append(
                [l for l in bundle.user_text.splitlines() if l.startswith("solution: ")]
            )
        assert lines == [
            ["solution: 0 | score: 1"],
            ["solution: -0 | score: 1"],
            ["solution: 0 | score: 1"],
        ]

    def test_holds_no_dropped_entry_or_history(self):
        h = History(capacity=1, direction=MIN)
        entry = ev(RealVector((5.0, 5.0)), 10.0)
        h.insert(entry)
        build_prompt(SPEC, h, Strategy.OPRO, {}, 1)
        evicted = weakref.ref(entry)
        del entry
        h.insert(ev(RealVector((1.0, 1.0)), 2.0))
        build_prompt(SPEC, h, Strategy.OPRO, {}, 1)
        gc.collect()
        assert evicted() is None

        kept = weakref.ref(h.best())
        history = weakref.ref(h)
        del h
        gc.collect()
        assert history() is None
        assert kept() is None


class TestParseProposal:
    def test_single_well_formed_block(self):
        parsed = parse_proposal("<solution>3.47, 0.0</solution>", BOX)
        assert parsed.candidates == (RealVector((3.47, 0.0)),)
        assert parsed.rejected_blocks == 0

    def test_non_bijection_rejected(self):
        raw = "<solution>0,1,2</solution><solution>0,1,1</solution>"
        parsed = parse_proposal(raw, PermutationSchema(n=3))
        assert parsed.candidates == (Permutation((0, 1, 2)),)
        assert parsed.rejected_blocks == 1

    def test_expected_tag_parsed(self):
        raw = "<solution>1.0, 1.0</solution><cooling_rate>0.9</cooling_rate>"
        parsed = parse_proposal(raw, BOX, expected_tags=["cooling_rate"])
        assert parsed.hyperparams == {"cooling_rate": 0.9}

    def test_unrequested_tags_ignored(self):
        raw = "<solution>1.0, 1.0</solution><cooling_rate>0.9</cooling_rate>"
        parsed = parse_proposal(raw, BOX)
        assert parsed.hyperparams == {}

    def test_junk_tag_treated_as_absent(self):
        raw = "<solution>1.0, 1.0</solution><cooling_rate>fast</cooling_rate>"
        parsed = parse_proposal(raw, BOX, expected_tags=["cooling_rate"])
        assert "cooling_rate" not in parsed.hyperparams

    def test_zero_candidates_raises(self):
        with pytest.raises(ZeroCandidatesError):
            parse_proposal("no blocks here", BOX)
        with pytest.raises(ZeroCandidatesError) as exc:
            parse_proposal("<solution>not numbers</solution>", BOX)
        assert exc.value.rejected_blocks == 1

    def test_prose_wrapped_blocks(self):
        raw = (
            "Let me think about this. The best option seems to be\n"
            "<solution>2.5, 0.5</solution> because of the gradient, "
            "but <solution>2.4, 0.6</solution> is close too."
        )
        parsed = parse_proposal(raw, BOX)
        assert len(parsed.candidates) == 2
        assert parsed.rejected_blocks == 0

    def test_truncated_block_not_fabricated(self):
        raw = "<solution>2.5, 0.5</solution><solution>2.4, "
        parsed = parse_proposal(raw, BOX)
        assert parsed.candidates == (RealVector((2.5, 0.5)),)

    def test_out_of_bounds_values_pass_through(self):
        parsed = parse_proposal("<solution>-3.0, 99.0</solution>", BOX)
        assert parsed.candidates == (RealVector((-3.0, 99.0)),)

    def test_non_finite_values_rejected(self):
        raw = "<solution>inf, 0.0</solution><solution>nan, 1.0</solution>"
        with pytest.raises(ZeroCandidatesError) as exc:
            parse_proposal(raw, BOX)
        assert exc.value.rejected_blocks == 2

    def test_permutation_rejections_counted(self):
        raw = "".join(
            f"<solution>{body}</solution>"
            for body in (
                " 2 , 0 ,1 ",  # valid, whitespace around tokens
                "0, 1, x",  # not an integer
                "0, 1.0, 2",  # not an integer
                "0, 1, 1",  # repeated
                "1, 2, 3",  # out of range
                "0, 1",  # too short
                "0, 1, 2, 3",  # too long
                "",
            )
        )
        parsed = parse_proposal(raw, PermutationSchema(n=3))
        assert parsed.candidates == (Permutation((2, 0, 1)),)
        assert parsed.rejected_blocks == 7

    def test_wrong_arity_rejected(self):
        raw = "<solution>1.0</solution><solution>1.0, 2.0, 3.0</solution>"
        with pytest.raises(ZeroCandidatesError):
            parse_proposal(raw, BOX)

    def test_keyed_scalars_block(self):
        schema = KeyedScalarsSchema.from_bounds(
            {"u": (32, 512), "p": (0, 0.6), "eta": (1e-4, 1e-1)}
        )
        parsed = parse_proposal("<solution>u=256, p=0.3, eta=0.001</solution>", schema)
        assert parsed.candidates[0] == KeyedScalars((("u", 256.0), ("p", 0.3), ("eta", 0.001)))
        # order in text does not matter; canonical key order is restored
        parsed = parse_proposal("<solution>eta=0.001, u=256, p=0.3</solution>", schema)
        assert parsed.candidates[0].pairs[0][0] == "u"
        # missing or unknown keys are malformed
        with pytest.raises(ZeroCandidatesError):
            parse_proposal("<solution>u=256, p=0.3</solution>", schema)
        with pytest.raises(ZeroCandidatesError):
            parse_proposal("<solution>u=256, p=0.3, eta=0.1, x=1</solution>", schema)

    def test_round_trip_spot_checks(self):
        values = [
            RealVector((3.4725, 0.0)),
            RealVector((-1.5e-5, 4.99999)),
            Permutation((3, 0, 2, 1)),
            KeyedScalars((("u", 256.0), ("p", 0.31),)),
        ]
        schemas = [
            BOX,
            BOX,
            PermutationSchema(n=4),
            KeyedScalarsSchema.from_bounds({"u": (32, 512), "p": (0, 0.6)}),
        ]
        for value, schema in zip(values, schemas):
            # Each kind reads back its own encoding sentence and block text.
            assert type(schema).from_description(schema.describe()) == schema
            raw = f"<solution>{render_solution(value)}</solution>"
            [parsed] = parse_proposal(raw, schema).candidates
            for got in (parsed, schema.parse(value.render())):
                if isinstance(value, RealVector):
                    for a, b in zip(got.values, value.values):
                        assert a == pytest.approx(b, rel=1e-5, abs=1e-10)
                else:
                    assert got == value


class TestClampTag:
    def test_in_range_passthrough(self):
        assert clamp_tag(0.9, 0.5, 0.99, 0.92) == 0.9

    def test_upper_clamp(self):
        assert clamp_tag(1.7, 0.5, 0.99, 0.92) == 0.99

    def test_lower_clamp(self):
        assert clamp_tag(0.1, 0.5, 0.99, 0.92) == 0.5

    def test_absent_gives_default(self):
        assert clamp_tag(None, 0.5, 0.99, 0.92) == 0.92

    def test_non_finite_gives_default(self):
        assert clamp_tag(float("nan"), 0.5, 0.99, 0.92) == 0.92

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            clamp_tag(0.9, 0.99, 0.5, 0.92)
        with pytest.raises(ValueError):
            clamp_tag(0.9, 0.5, 0.99, 0.1)


class TestScriptedBackend:
    def test_replay_then_exhaustion(self):
        backend = ScriptedBackend(["<solution>1,2,0</solution>"])
        bundle = build_prompt(
            ProblemSpec(description="t", direction=MIN, schema=PermutationSchema(3)),
            History(2, MIN),
            Strategy.OPRO,
            {},
            1,
        )
        params = SamplingParams()
        assert backend.propose(bundle, params) == "<solution>1,2,0</solution>"
        with pytest.raises(ScriptExhausted):
            backend.propose(bundle, params)


class TestPerturbBackend:
    def _bundle(self, best=(3.0, 0.5), batch=2):
        h = History(capacity=4, direction=MIN)
        h.insert(ev(RealVector((0.0, 0.0)), 100.0))
        h.insert(ev(RealVector(best), 1.0))
        return build_prompt(SPEC, h, Strategy.OPRO, {}, batch)

    def test_noise_bound(self):
        bundle = self._bundle(best=(3.0, 0.5), batch=2)
        raw = PerturbBackend(seed=7, step_scale=0.1).propose(bundle, SamplingParams())
        parsed = parse_proposal(raw, BOX)
        assert len(parsed.candidates) == 2
        for cand in parsed.candidates:
            assert abs(cand.values[0] - 3.0) <= 0.5 + 1e-9
            assert abs(cand.values[1] - 0.5) <= 0.5 + 1e-9

    def test_fresh_instances_are_byte_identical(self):
        bundle = self._bundle()
        params = SamplingParams()
        a = PerturbBackend(seed=123).propose(bundle, params)
        b = PerturbBackend(seed=123).propose(bundle, params)
        assert a == b

    def test_rng_advances_between_calls(self):
        bundle = self._bundle()
        backend = PerturbBackend(seed=123)
        params = SamplingParams()
        assert backend.propose(bundle, params) != backend.propose(bundle, params)

    def test_perturbs_best_not_worst(self):
        bundle = self._bundle(best=(3.0, 0.5), batch=4)
        raw = PerturbBackend(seed=3).propose(bundle, SamplingParams())
        for cand in parse_proposal(raw, BOX).candidates:
            # candidates hug the best entry (3.0, 0.5), not (0, 0)
            assert abs(cand.values[0] - 3.0) <= 0.5 + 1e-9

    def test_permutation_neighbors_stay_valid(self):
        spec = ProblemSpec(
            description="tour", direction=MIN, schema=PermutationSchema(n=6)
        )
        h = History(capacity=2, direction=MIN)
        h.insert(ev(Permutation((0, 1, 2, 3, 4, 5)), 10.0))
        bundle = build_prompt(spec, h, Strategy.OPRO, {}, 5)
        raw = PerturbBackend(seed=1).propose(bundle, SamplingParams())
        parsed = parse_proposal(raw, spec.schema)
        assert len(parsed.candidates) == 5
        for cand in parsed.candidates:
            assert sorted(cand.order) == list(range(6))
            # one or two transpositions move at most 4 positions
            moved = sum(a != b for a, b in zip(cand.order, (0, 1, 2, 3, 4, 5)))
            assert moved <= 4

    def test_keyed_scalars_jitter(self):
        schema = KeyedScalarsSchema.from_bounds({"u": (32, 512), "p": (0.01, 0.6)})
        spec = ProblemSpec(description="hp", direction=MIN, schema=schema)
        h = History(capacity=2, direction=MIN)
        h.insert(ev(KeyedScalars((("u", 100.0), ("p", 0.2))), 5.0))
        bundle = build_prompt(spec, h, Strategy.OPRO, {}, 3)
        raw = PerturbBackend(seed=5, step_scale=0.1).propose(bundle, SamplingParams())
        for cand in parse_proposal(raw, schema).candidates:
            vals = cand.as_dict()
            assert 90.0 <= vals["u"] <= 110.0 * 1.0001
            assert 0.18 <= vals["p"] <= 0.22 * 1.0001

    def test_emits_requested_tags(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(RealVector((1.0, 1.0)), 2.0))
        bundle = build_prompt(SPEC, h, Strategy.HLMSA, {"sa_temperature": 1.0}, 2)
        raw = PerturbBackend(seed=9).propose(bundle, SamplingParams())
        parsed = parse_proposal(raw, BOX, expected_tags=["cooling_rate"])
        assert parsed.hyperparams["cooling_rate"] == 0.9

    def test_requires_history(self):
        bundle = build_prompt(SPEC, History(2, MIN), Strategy.OPRO, {}, 1)
        with pytest.raises(ValueError):
            PerturbBackend(seed=1).propose(bundle, SamplingParams())

    def test_concurrent_calls_stay_valid(self):
        import concurrent.futures

        bundle = self._bundle(batch=3)
        backend = PerturbBackend(seed=42)
        params = SamplingParams()
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            outputs = list(pool.map(lambda _: backend.propose(bundle, params), range(16)))
        for raw in outputs:
            assert len(parse_proposal(raw, BOX).candidates) == 3


class TestHttpChatBackend:
    def test_passthrough(self, stub_chat_server):
        server = stub_chat_server(lambda n: (200, chat_body("<solution>1.0, 2.0</solution>")))
        backend = HttpChatBackend(base_url=server.url, model="test-model")
        raw = backend.propose(self._bundle(), SamplingParams(model_temperature=0.7))
        assert raw == "<solution>1.0, 2.0</solution>"

    def _bundle(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(RealVector((1.0, 1.0)), 2.0))
        return build_prompt(SPEC, h, Strategy.OPRO, {}, 2)

    def test_request_shape_and_auth(self, stub_chat_server, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "sekrit")
        server = stub_chat_server(lambda n: (200, chat_body("ok <solution>1, 1</solution>")))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        bundle = self._bundle()
        backend.propose(bundle, SamplingParams(model_temperature=0.3, max_output_tokens=512))
        [request] = server.requests
        assert request["path"] == "/chat/completions"
        assert request["headers"]["Authorization"] == "Bearer sekrit"
        body = request["body"]
        assert set(body) == {"model", "messages", "temperature", "max_tokens"}
        assert body["model"] == "m1"
        assert body["temperature"] == 0.3
        assert body["max_tokens"] == 512
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert body["messages"][0]["content"] == bundle.system_text
        assert body["messages"][1]["content"] == bundle.user_text

    def test_sampling_seed_sent_only_when_set(self, stub_chat_server):
        server = stub_chat_server(lambda n: (200, chat_body("<solution>1, 1</solution>")))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        backend.propose(self._bundle(), SamplingParams(seed=1234))
        backend.propose(self._bundle(), SamplingParams())
        seeded, unseeded = (r["body"] for r in server.requests)
        assert seeded["seed"] == 1234
        assert "seed" not in unseeded

    def test_one_retry_then_transport_error(self, stub_chat_server):
        server = stub_chat_server(lambda n: (500, {"error": "boom"}))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        with pytest.raises(TransportError) as exc:
            backend.propose(self._bundle(), SamplingParams())
        assert exc.value.status == 500
        assert len(server.requests) == 2

    def test_retry_recovers(self, stub_chat_server):
        def responder(n):
            if n == 1:
                return 500, {"error": "flaky"}
            return 200, chat_body("recovered")

        server = stub_chat_server(responder)
        backend = HttpChatBackend(base_url=server.url, model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "recovered"
        assert len(server.requests) == 2

    def test_env_base_url(self, stub_chat_server, monkeypatch):
        server = stub_chat_server(lambda n: (200, chat_body("x")))
        monkeypatch.setenv("LLMIZE_BASE_URL", server.url)
        backend = HttpChatBackend(model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"

    def test_malformed_body_is_transport_error(self, stub_chat_server):
        server = stub_chat_server(lambda n: (200, {"choices": []}))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        with pytest.raises(TransportError):
            backend.propose(self._bundle(), SamplingParams())

    def _fails(self, server, **kwargs):
        backend = HttpChatBackend(base_url=server.url, model="m1", **kwargs)
        with pytest.raises(TransportError) as exc:
            backend.propose(self._bundle(), SamplingParams())
        return exc.value.status

    def test_client_error_sent_once(self, stub_chat_server):
        server = stub_chat_server(lambda n: (404, {"error": "no such model"}))
        assert self._fails(server) == 404
        assert len(server.requests) == 1

    def test_rate_limit_retried_once(self, stub_chat_server):
        server = stub_chat_server(lambda n: (429, {"error": "slow down"}))
        assert self._fails(server) == 429
        assert len(server.requests) == 2

    def test_only_200_is_success(self, stub_chat_server):
        server = stub_chat_server(lambda n: (201, chat_body("<solution>1, 1</solution>")))
        assert self._fails(server) == 201
        assert len(server.requests) == 2

    def test_refused_connection(self, stub_chat_server):
        server = stub_chat_server(lambda n: (200, chat_body("x")))
        server.close()
        assert self._fails(server) is None
        assert server.requests == []

    def test_timeout_bounds_wall_time(self, stub_chat_server):
        def slow(n):
            time.sleep(2)
            return 200, chat_body("late")

        server = stub_chat_server(slow)
        started = time.perf_counter()
        assert self._fails(server, timeout=0.2) is None
        assert time.perf_counter() - started < 1.5
        assert len(server.requests) == 2

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_not_followed(self, status, stub_chat_server, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "sekrit")
        elsewhere = stub_chat_server(lambda n: (200, chat_body("x")))
        location = {"Location": elsewhere.url + "/chat/completions"}
        server = stub_chat_server(lambda n: (status, {}, location))
        assert self._fails(server) == status
        assert len(server.requests) == 2
        assert elsewhere.requests == []

    def test_non_json_200_not_retried(self, stub_chat_server):
        server = stub_chat_server(lambda n: (200, b"<html>bad gateway</html>"))
        assert self._fails(server) == 200
        assert len(server.requests) == 1

    def test_request_bytes_and_headers(self, stub_chat_server, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "sekrit")
        server = stub_chat_server(lambda n: (200, chat_body("x")))
        backend = HttpChatBackend(base_url=server.url + "/", model="m1")
        bundle = self._bundle()
        backend.propose(bundle, SamplingParams(model_temperature=0.3, seed=5))
        [request] = server.requests
        payload = {
            "model": "m1",
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
            "temperature": 0.3,
            "max_tokens": 2048,
            "seed": 5,
        }
        assert request["raw"] == json.dumps(payload).encode()
        headers = {k.lower(): v for k, v in request["headers"].items()}
        assert headers["content-type"] == "application/json"
        assert headers["authorization"] == "Bearer sekrit"
        assert headers["user-agent"] == "llmize"

    @pytest.mark.parametrize(
        "url", ["localhost:8000/v1", "127.0.0.1:8000/v1", "ftp://host/v1", "http:///v1"]
    )
    def test_base_url_needs_http_scheme(self, url, monkeypatch):
        with pytest.raises(ValueError, match="http"):
            HttpChatBackend(base_url=url, model="m1")
        monkeypatch.setenv("LLMIZE_BASE_URL", url)
        with pytest.raises(ValueError, match="http"):
            HttpChatBackend(model="m1")


class TestSamplingParams:
    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            SamplingParams(model_temperature=2.5)
        with pytest.raises(ValueError):
            SamplingParams(model_temperature=-0.1)

    def test_render_history_line_rounds_scores(self):
        line = render_history_line(ev(RealVector((1.0, 2.0)), 41.079999999))
        assert line == "solution: 1, 2 | score: 41.08"
