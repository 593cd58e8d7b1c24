import base64
import dataclasses
import gc
import json
import math
import random
import re
import socket
import ssl
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
from llmize import transport
from llmize.proposer import HttpChatBackend, render_history_line
from conftest import chat_body, ev

MIN = ObjectiveDirection.MINIMIZE

BOX = RealVectorSchema(lower=(0.0, 0.0), upper=(5.0, 5.0))
SPEC = ProblemSpec(description="Minimize the test box objective.", schema=BOX)


def make_history(scores, direction=MIN, capacity=16, schema_dim=2):
    h = History(capacity=capacity, direction=direction)
    for i, s in enumerate(scores):
        h.insert(ev(RealVector((float(i), float(i))), s))
    return h


class TestBuildPrompt:
    def test_empty_history_opro(self):
        bundle = build_prompt(SPEC, History(4, MIN), Strategy.OPRO, 4)
        assert SPEC.description in bundle.user_text
        assert "Propose 4 new, distinct solutions" in bundle.user_text
        assert "Return exactly 4 solution blocks." in bundle.user_text
        assert "solution: " not in bundle.user_text

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="^batch must be >= 1$"):
            build_prompt(SPEC, make_history([1.0]), Strategy.OPRO, 0)

    def test_output_contract_appears_exactly_once(self):
        bundle = build_prompt(SPEC, make_history([3.0, 1.0]), Strategy.HLMEA, 2)
        combined = bundle.system_text + bundle.user_text
        assert combined.count(OUTPUT_CONTRACT) == 1

    def test_history_lines_ordered_worst_to_best(self):
        spec = ProblemSpec(
            description="Shortest tour.", schema=PermutationSchema(n=5)
        )
        h = History(capacity=8, direction=MIN)
        scores = [310.0, 290.5, 305.2, 288.1, 299.9]
        perms = [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (2, 1, 0, 3, 4), (3, 1, 2, 0, 4), (4, 1, 2, 3, 0)]
        for p, s in zip(perms, scores):
            h.insert(ev(Permutation(p), s))
        bundle = build_prompt(spec, h, Strategy.OPRO, 8)
        lines = [l for l in bundle.user_text.splitlines() if l.startswith("solution: ")]
        assert len(lines) == 5
        rendered_scores = [float(l.rsplit("score: ", 1)[1]) for l in lines]
        assert rendered_scores == sorted(scores, reverse=True)

    def test_hlmsa_echoes_temperature(self):
        lp_schema = RealVectorSchema(lower=(0.0,) * 3, upper=(10.0,) * 3)
        spec = ProblemSpec(
            description="Maximize the LP.", schema=lp_schema
        )
        h = History(capacity=4, direction=ObjectiveDirection.MAXIMIZE)
        h.insert(ev(RealVector((1.0, 1.0, 1.0)), 13.0))
        state = Strategy.HLMSA.state(
            SaState(sa_temperature=1.0), h.entries, RunConfig(batch=3), h.direction
        )
        bundle = build_prompt(spec, h, Strategy.HLMSA, 3, state)
        assert "temperature" in bundle.user_text
        assert "1.0" in bundle.user_text

    def test_hlmsa_requires_temperature_state(self):
        with pytest.raises(ValueError):
            build_prompt(SPEC, make_history([2.0]), Strategy.HLMSA, 2)

    def test_hlmea_requests_rate_tags(self):
        bundle = build_prompt(SPEC, make_history([2.0]), Strategy.HLMEA, 2)
        for tag in ("elitism_rate", "mutation_rate", "crossover_rate"):
            assert f"inside <{tag}> and </{tag}> tags" in bundle.user_text

    def test_domain_knowledge_included_when_present(self):
        spec = ProblemSpec(
            description="d", schema=BOX, domain_knowledge="stay feasible"
        )
        bundle = build_prompt(spec, History(4, MIN), Strategy.OPRO, 1)
        assert "stay feasible" in bundle.user_text

    def test_trajectory_lines_rendered_for_hlmsa(self):
        trajectories = [ev(RealVector((1.0, 2.0)), 9.0), ev(RealVector((3.0, 4.0)), 8.0)]
        state = Strategy.HLMSA.state(
            SaState(sa_temperature=0.5), trajectories, RunConfig(batch=2), MIN
        )
        bundle = build_prompt(SPEC, make_history([9.0]), Strategy.HLMSA, 2, state)
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

        def recording_build(spec, history, strategy, batch, state=None):
            bundle = build(spec, history, strategy, batch, state)
            shown = list(state.points) if strategy is Strategy.HLMSA else []
            prompts.append((history.entries, shown, bundle, (strategy, batch, state)))
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
            bundle = build_prompt(SPEC, h, Strategy.OPRO, 1)
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
        build_prompt(SPEC, h, Strategy.OPRO, 1)
        evicted = weakref.ref(entry)
        del entry
        h.insert(ev(RealVector((1.0, 1.0)), 2.0))
        build_prompt(SPEC, h, Strategy.OPRO, 1)
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
        schema = KeyedScalarsSchema(
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
            KeyedScalarsSchema({"u": (32, 512), "p": (0, 0.6)}),
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


# The block pattern parse_proposal used before its str.find scan.
REFERENCE_BLOCK_RE = re.compile(r"<solution>(.*?)</solution>", re.DOTALL)


class RecordingSchema:
    """Accepts every block and keeps its text, so a test sees exactly the
    blocks ``parse_proposal`` found."""

    def __init__(self):
        self.blocks: list[str] = []

    def parse(self, text):
        self.blocks.append(text)
        return text


def scanned_blocks(raw: str) -> list[str]:
    schema = RecordingSchema()
    try:
        parse_proposal(raw, schema)
    except ZeroCandidatesError:
        pass
    return schema.blocks


class TestBlockScan:
    @pytest.mark.parametrize(
        "raw",
        [
            "",
            "no tags",
            "<solution>0, 1</solution>",
            "<solution></solution><solution></solution>",
            "<solution>unclosed",
            "<solution>a</solution><solution>unclosed",
            "</solution>close first<solution>a</solution></solution>",
            "<solution>outer<solution>inner</solution>tail</solution>",
            "<solution><solution></solution>",
            "<solution>\n0,\n1\n</solution>\n<solution>2</solution>",
            "<solution>a</solution<solution>b</solution>",
            "<solution>a</solution></solution><solution>b</solution>",
            "<Solution>a</Solution><solution >b</solution>",
            "<solution>a</solution>" * 3 + "<solution>",
        ],
    )
    def test_matches_reference_regex(self, raw):
        assert scanned_blocks(raw) == REFERENCE_BLOCK_RE.findall(raw)

    def test_matches_reference_regex_on_random_text(self):
        rng = random.Random(7)
        pieces = ["<solution>", "</solution>", "<solution", "solution>", "</", "<", ">",
                  "\n", "0, 1", "x", "", " ", "</solution", "<sol", "ution>"]
        found = 0
        for _ in range(3000):
            raw = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 20)))
            want = REFERENCE_BLOCK_RE.findall(raw)
            assert scanned_blocks(raw) == want, raw
            found += len(want)
        assert found > 500


def reference_parse(raw, schema, expected_tags=()):
    """``parse_proposal`` as it read spans when blocks had a ``str.find`` loop
    of their own and each tag a regex, its last parseable value winning."""
    candidates, rejected = [], 0
    start = raw.find("<solution>")
    while start >= 0:
        end = raw.find("</solution>", start + len("<solution>"))
        if end < 0:
            break
        value = schema.parse(raw[start + len("<solution>") : end])
        if value is None:
            rejected += 1
        else:
            candidates.append(value)
        start = raw.find("<solution>", end + len("</solution>"))
    if not candidates:
        raise ZeroCandidatesError(rejected)
    hyperparams = {}
    for tag in expected_tags:
        pattern = re.compile(rf"<{re.escape(tag)}>(.*?)</{re.escape(tag)}>", re.DOTALL)
        for match in reversed(pattern.findall(raw)):
            value = core.parse_real(match)
            if value is not None:
                hyperparams[tag] = value
                break
    return proposer.ParsedProposal(tuple(candidates), hyperparams, rejected)


CONTRACT_SCHEMA = RealVectorSchema(lower=(0.0,), upper=(1.0,))
CONTRACT_TAGS = ("cooling_rate", "mutation_rate")


def contract_reading(parse, raw):
    """What ``parse`` makes of ``raw``: the proposal, or the number of
    malformed blocks it counted before finding none it could use."""
    try:
        parsed = parse(raw, CONTRACT_SCHEMA, CONTRACT_TAGS)
    except ZeroCandidatesError as exc:
        return ("no candidates", exc.rejected_blocks)
    return (parsed.candidates, parsed.hyperparams, parsed.rejected_blocks)


class TestSpanContract:
    """``parse_proposal`` keeps the reading of ``reference_parse``: a span runs
    from an open tag to the first close tag after it, blocks are read in
    order, and a scalar tag takes its last parseable value."""

    @pytest.mark.parametrize(
        "raw",
        [
            # An unterminated open tag.
            "<solution>0.5</solution><solution>0.25",
            "<solution>0.5</solution><cooling_rate>0.9",
            "<cooling_rate>0.8</cooling_rate><solution>0.5</solution><cooling_rate>0.9",
            # An open tag inside a span.
            "<solution>0.1<solution>0.2</solution>",
            "<solution>0.5</solution><cooling_rate>0.1<cooling_rate>0.2</cooling_rate>",
            "<solution><solution>0.3</solution></solution>",
            # A tag inside a solution block.
            "<solution><cooling_rate>0.3</cooling_rate></solution><solution>0.5</solution>",
            "<solution>0.5<mutation_rate>0.1</mutation_rate></solution>",
            # Repeated tags whose last one is junk.
            "<solution>0.5</solution><cooling_rate>0.4</cooling_rate>"
            "<cooling_rate>fast</cooling_rate>",
            "<solution>0.5</solution><cooling_rate>0.4</cooling_rate>"
            "<cooling_rate>0.6</cooling_rate><cooling_rate>nan</cooling_rate>",
            # Empty spans.
            "<solution></solution><solution>0.5</solution><cooling_rate></cooling_rate>",
            "<solution></solution>",
            # CRLF inside spans.
            "<solution>\r\n0.5\r\n</solution>\r\n<cooling_rate>\r\n0.7\r\n</cooling_rate>",
            "<solution>0.5\r</solution><mutation_rate>\r\n</mutation_rate>",
            # <solution> mentioned in prose before the blocks.
            "Put each answer in <solution> tags.\n<solution>0.5</solution>",
            "Use <solution> and </solution> tags.\n<solution>0.5</solution>"
            "<solution>0.25</solution>",
            "I will write <cooling_rate> last.\n<solution>0.5</solution>"
            "<cooling_rate>0.95</cooling_rate>",
        ],
    )
    def test_matches_reference_reader(self, raw):
        assert contract_reading(parse_proposal, raw) == contract_reading(reference_parse, raw)

    def test_matches_reference_reader_on_fuzzed_text(self):
        # Spans whole or cut, around numbers, junk, CRLF and stray tags.
        rng = random.Random(17)
        names = ("solution", "cooling_rate", "mutation_rate")
        numbers = ("0.5", "0.25", "1", " 0.75 ")
        bodies = numbers + ("-2e3", "nan", "x", "", "\r\n", "<", "</", "<solution>")
        forms = ("<{0}>{1}</{0}>",) * 5 + ("<{0}>{1}", "{1}</{0}>", "{1}")
        outcomes = set()
        for _ in range(3000):
            raw = "".join(
                rng.choice(forms).format(
                    rng.choice(names), rng.choice(bodies) + rng.choice(numbers * 3 + bodies)
                )
                for _ in range(rng.randint(0, 8))
            )
            want = contract_reading(reference_parse, raw)
            assert contract_reading(parse_proposal, raw) == want, raw
            outcomes.add(
                "none" if want[0] == "no candidates" else (len(want[1]), want[2] > 0)
            )
        # The strings reach every kind of reading: no candidates, and each
        # tag count with and without a rejected block.
        assert len(outcomes) == 7, outcomes


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
            ProblemSpec(description="t", schema=PermutationSchema(3)),
            History(2, MIN),
            Strategy.OPRO,
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
        return build_prompt(SPEC, h, Strategy.OPRO, batch)

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
            description="tour", schema=PermutationSchema(n=6)
        )
        h = History(capacity=2, direction=MIN)
        h.insert(ev(Permutation((0, 1, 2, 3, 4, 5)), 10.0))
        bundle = build_prompt(spec, h, Strategy.OPRO, 5)
        raw = PerturbBackend(seed=1).propose(bundle, SamplingParams())
        parsed = parse_proposal(raw, spec.schema)
        assert len(parsed.candidates) == 5
        for cand in parsed.candidates:
            assert sorted(cand.order) == list(range(6))
            # one or two transpositions move at most 4 positions
            moved = sum(a != b for a, b in zip(cand.order, (0, 1, 2, 3, 4, 5)))
            assert moved <= 4

    def test_keyed_scalars_jitter(self):
        schema = KeyedScalarsSchema({"u": (32, 512), "p": (0.01, 0.6)})
        spec = ProblemSpec(description="hp", schema=schema)
        h = History(capacity=2, direction=MIN)
        h.insert(ev(KeyedScalars((("u", 100.0), ("p", 0.2))), 5.0))
        bundle = build_prompt(spec, h, Strategy.OPRO, 3)
        raw = PerturbBackend(seed=5, step_scale=0.1).propose(bundle, SamplingParams())
        for cand in parse_proposal(raw, schema).candidates:
            vals = cand.as_dict()
            assert 90.0 <= vals["u"] <= 110.0 * 1.0001
            assert 0.18 <= vals["p"] <= 0.22 * 1.0001

    def test_keyed_scalars_keys_with_spaces(self):
        # The stand-in reads the schema back from the prompt; a key with an
        # inner space must come back whole.
        schema = KeyedScalarsSchema({"learning rate": (0.0, 1.0), "u": (32, 512)})
        spec = ProblemSpec(description="hp", schema=schema)
        h = History(capacity=2, direction=MIN)
        h.insert(ev(KeyedScalars((("learning rate", 0.5), ("u", 100.0))), 5.0))
        bundle = build_prompt(spec, h, Strategy.OPRO, 3)
        raw = PerturbBackend(seed=5, step_scale=0.1).propose(bundle, SamplingParams())
        parsed = parse_proposal(raw, schema)
        assert len(parsed.candidates) == 3 and parsed.rejected_blocks == 0
        for cand in parsed.candidates:
            assert 0.45 <= cand.as_dict()["learning rate"] <= 0.55 * 1.0001

    def test_emits_requested_tags(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(RealVector((1.0, 1.0)), 2.0))
        state = Strategy.HLMSA.state(
            SaState(sa_temperature=1.0), h.entries, RunConfig(batch=2), MIN
        )
        bundle = build_prompt(SPEC, h, Strategy.HLMSA, 2, state)
        raw = PerturbBackend(seed=9).propose(bundle, SamplingParams())
        parsed = parse_proposal(raw, BOX, expected_tags=["cooling_rate"])
        assert parsed.hyperparams["cooling_rate"] == 0.9

    def test_requires_history(self):
        bundle = build_prompt(SPEC, History(2, MIN), Strategy.OPRO, 1)
        with pytest.raises(ValueError):
            PerturbBackend(seed=1).propose(bundle, SamplingParams())

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"system_text": "Propose good solutions."}, "recognizable solution encoding"),
            ({"user_text": "solution: 1, 2, 3 | score: 1"}, "unparseable history line: '1, 2, 3'"),
        ],
        ids=["no-encoding", "unparseable-history"],
    )
    def test_unreadable_prompt_is_refused(self, change, message):
        bundle = dataclasses.replace(self._bundle(), **change)
        with pytest.raises(ValueError, match=re.escape(message)):
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

    @pytest.mark.parametrize("step_scale", [math.nan, math.inf, 0.0, -0.1])
    def test_step_scale_must_be_finite_and_positive(self, step_scale):
        with pytest.raises(ValueError, match="step_scale"):
            PerturbBackend(seed=1, step_scale=step_scale)


class TestHttpChatBackend:
    @pytest.mark.parametrize("timeout", [math.nan, math.inf, 0.0, -1.0])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            HttpChatBackend(base_url="http://127.0.0.1:9/v1", model="m1", timeout=timeout)

    def test_passthrough(self, stub_chat_server):
        server = stub_chat_server(lambda n: (200, chat_body("<solution>1.0, 2.0</solution>")))
        backend = HttpChatBackend(base_url=server.url, model="test-model")
        raw = backend.propose(self._bundle(), SamplingParams(model_temperature=0.7))
        assert raw == "<solution>1.0, 2.0</solution>"

    def _bundle(self):
        h = History(capacity=2, direction=MIN)
        h.insert(ev(RealVector((1.0, 1.0)), 2.0))
        return build_prompt(SPEC, h, Strategy.OPRO, 2)

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

    @pytest.mark.parametrize("content", [None, 7, ["<solution>1, 1</solution>"]])
    def test_non_text_content_is_transport_error(self, content, stub_chat_server):
        server = stub_chat_server(lambda n: (200, {"choices": [{"message": {"content": content}}]}))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        with pytest.raises(TransportError, match="^completion content is not text$") as exc:
            backend.propose(self._bundle(), SamplingParams())
        assert exc.value.status == 200
        assert len(server.requests) == 1

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

    @staticmethod
    def _no_proxies_and_no_lookups(monkeypatch):
        """Clear every proxy variable, and refuse to resolve any host but the
        stubs' address, so a request that skips its proxy fails at once."""
        for scheme in ("http", "https", "all", "no"):
            monkeypatch.delenv(f"{scheme}_proxy", raising=False)
            monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
        resolve = socket.getaddrinfo

        def stubs_only(host, *args, **kwargs):
            if host != "127.0.0.1":
                raise OSError(f"the test resolves no name, got {host!r}")
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", stubs_only)

    def test_proxy_read_at_construction(self, stub_chat_server, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        proxy = stub_chat_server(lambda n: (200, chat_body("via proxy")))
        monkeypatch.setenv("http_proxy", proxy.url)
        backend = HttpChatBackend(base_url="http://llmize.invalid/v1", model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "via proxy"
        [request] = proxy.requests
        assert request["path"] == "http://llmize.invalid/v1/chat/completions"

    def test_proxy_set_after_construction_is_not_used(self, stub_chat_server, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        server = stub_chat_server(lambda n: (200, chat_body("direct")))
        proxy = stub_chat_server(lambda n: (200, chat_body("via proxy")))
        backend = HttpChatBackend(base_url=server.url + "/v1", model="m1")
        monkeypatch.setenv("http_proxy", proxy.url)
        assert backend.propose(self._bundle(), SamplingParams()) == "direct"
        assert [r["path"] for r in server.requests] == ["/v1/chat/completions"]
        assert proxy.requests == []

    @staticmethod
    def _reply(body: bytes, head: bytes = b"") -> bytes:
        return (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + head
            + b"Content-Length: %d\r\n\r\n" % len(body) + body
        )

    def test_request_head_line_for_line(self, raw_http_listener, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "sekrit")
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode()))
        backend = HttpChatBackend(base_url=listener.url + "/v1", model="m1")
        bundle = self._bundle()
        assert backend.propose(bundle, SamplingParams(model_temperature=0.3, seed=5)) == "x"
        [request] = listener.requests
        head, _, body = request.partition(b"\r\n\r\n")
        assert json.loads(body)["seed"] == 5
        assert head.decode().split("\r\n") == [
            "POST /v1/chat/completions HTTP/1.1",
            "Accept-Encoding: identity",
            f"Content-Length: {len(body)}",
            "Host: %s:%d" % listener.address,
            "Content-Type: application/json",
            "User-Agent: llmize",
            "Authorization: Bearer sekrit",
            "Connection: close",
        ]

    def test_request_sent_in_one_write(self, raw_http_listener, monkeypatch):
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode()))
        writes = []
        sendall = socket.socket.sendall

        def recorded(sock, data, *args):
            if sock.getpeername() == listener.address:
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recorded)
        backend = HttpChatBackend(base_url=listener.url + "/v1", model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"
        assert writes == listener.requests

    def test_chunked_reply_is_decoded(self, raw_http_listener):
        body = json.dumps(chat_body("<solution>1, 1</solution> in chunks")).encode()
        pieces = [body[:26], body[26:31], body[31:]]
        chunked = b"".join(b"%x;note=1\r\n%s\r\n" % (len(p), p) for p in pieces)
        listener = raw_http_listener(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + chunked + b"0\r\nX-Trailer: 1\r\n\r\n"
        )
        backend = HttpChatBackend(base_url=listener.url, model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == (
            "<solution>1, 1</solution> in chunks"
        )
        assert len(listener.requests) == 1

    def test_headers_up_to_the_limit_are_read(self, raw_http_listener):
        # 97 of them here, plus Content-Type and Content-Length: 99 header lines,
        # and the empty line that ends them makes 100, http.client's limit.
        extra = b"".join(b"X-Filler-%d: %d\r\n" % (i, i) for i in range(97))
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode(), extra))
        backend = HttpChatBackend(base_url=listener.url, model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n" + json.dumps(chat_body("x")).encode(),
            b"garbage\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-Filler-%d: %d\r\n" % (i, i) for i in range(100))
            + b"Content-Length: 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\nContent-Length: 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}",
        ],
        ids=["short-body", "garbage-status-line", "101-headers", "line-over-64-KiB",
             "space-before-colon"],
    )
    def test_broken_reply_fails_both_attempts(self, reply, raw_http_listener):
        listener = raw_http_listener(reply)
        assert self._fails(listener) is None
        assert len(listener.requests) == 2

    def test_timeout_bounds_a_trickled_reply(self, raw_http_listener):
        # The body comes one byte per 50 ms, over 3 s in all: each attempt
        # ends at its 0.5 s timeout however often a byte arrives.
        body = json.dumps(chat_body("x")).encode()
        listener = raw_http_listener(self._reply(body), trickle=0.05)
        started = time.perf_counter()
        assert self._fails(listener, timeout=0.5) is None
        assert time.perf_counter() - started < 1.2
        assert len(listener.requests) == 2

    def test_conflicting_content_lengths_fail_both_attempts(self, raw_http_listener):
        body = json.dumps(chat_body("x")).encode()
        listener = raw_http_listener(self._reply(body, b"Content-Length: %d\r\n" % (len(body) - 1)))
        assert self._fails(listener) is None
        assert len(listener.requests) == 2

    def test_repeated_equal_content_lengths_are_read(self, raw_http_listener):
        body = json.dumps(chat_body("x")).encode()
        listener = raw_http_listener(self._reply(body, b"Content-Length: %d\r\n" % len(body)))
        backend = HttpChatBackend(base_url=listener.url, model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"

    def test_length_over_the_cap_fails_both_attempts_unread(self, raw_http_listener):
        listener = raw_http_listener(
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}" % (transport._MAX_BODY + 1)
        )
        backend = HttpChatBackend(base_url=listener.url, model="m1")
        with pytest.raises(TransportError, match=f"longer than the {transport._MAX_BODY}-byte cap"):
            backend.propose(self._bundle(), SamplingParams())
        assert len(listener.requests) == 2

    @pytest.mark.parametrize(
        "head, endless",
        [
            (b"Transfer-Encoding: chunked\r\n", b"10000\r\n" + b"x" * 65536 + b"\r\n"),
            (b"", b"x" * 65536),
        ],
        ids=["chunked", "to-eof"],
    )
    def test_endless_body_fails_at_the_cap(self, head, endless, raw_http_listener):
        listener = raw_http_listener(b"HTTP/1.1 200 OK\r\n" + head + b"\r\n", endless=endless)
        backend = HttpChatBackend(base_url=listener.url, model="m1", timeout=20.0)
        started = time.perf_counter()
        with pytest.raises(TransportError, match="-byte cap") as exc:
            backend.propose(self._bundle(), SamplingParams())
        assert time.perf_counter() - started < 20.0
        assert exc.value.status is None
        assert len(listener.requests) == 2

    def test_negative_chunk_size_fails_both_attempts(self, raw_http_listener):
        listener = raw_http_listener(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-2\r\n{}\r\n0\r\n\r\n"
        )
        assert self._fails(listener) is None
        assert len(listener.requests) == 2

    def test_https_against_a_plain_server_fails_both_attempts(self, raw_http_listener):
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode()))
        backend = HttpChatBackend(base_url="https://%s:%d/v1" % listener.address, model="m1")
        with pytest.raises(TransportError) as exc:
            backend.propose(self._bundle(), SamplingParams())
        assert exc.value.status is None
        assert len(listener.requests) == 2

    def test_https_proxy_is_asked_for_a_verified_tunnel(self, stub_chat_server, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        proxy = stub_chat_server(lambda n: (200, {}))
        monkeypatch.setenv("https_proxy", proxy.url.replace("//", "//u:p@"))
        handshakes = []

        def refuse(context, sock, *args, server_hostname=None, **kwargs):
            handshakes.append((context.check_hostname, context.verify_mode, server_hostname))
            raise ssl.SSLError("handshake refused by the test")

        monkeypatch.setattr(ssl.SSLContext, "wrap_socket", refuse)
        backend = HttpChatBackend(base_url="https://llmize.invalid/v1", model="m1")
        with pytest.raises(TransportError) as exc:
            backend.propose(self._bundle(), SamplingParams())
        assert exc.value.status is None
        assert [(r["method"], r["path"]) for r in proxy.requests] == [
            ("CONNECT", "llmize.invalid:443")
        ] * 2
        auth = "Basic " + base64.b64encode(b"u:p").decode()
        assert [r["headers"].get("Proxy-Authorization") for r in proxy.requests] == [auth] * 2
        assert handshakes == [(True, ssl.CERT_REQUIRED, "llmize.invalid")] * 2

    @pytest.mark.parametrize(
        "no_proxy, via_proxy",
        [
            ("llmize.invalid", False),
            ("other.example, LLMIZE.invalid", False),
            (".invalid", False),
            ("invalid", False),
            ("*", False),
            ("mize.invalid", True),
            ("llmize.invalid.example", True),
        ],
    )
    def test_no_proxy_entry_bypasses_the_proxy(
        self, no_proxy, via_proxy, stub_chat_server, monkeypatch
    ):
        self._no_proxies_and_no_lookups(monkeypatch)
        proxy = stub_chat_server(lambda n: (200, chat_body("via proxy")))
        monkeypatch.setenv("http_proxy", proxy.url)
        monkeypatch.setenv("no_proxy", no_proxy)
        backend = HttpChatBackend(base_url="http://llmize.invalid/v1", model="m1")
        if via_proxy:
            assert backend.propose(self._bundle(), SamplingParams()) == "via proxy"
        else:
            # Straight to llmize.invalid, whose name the test refuses to resolve.
            with pytest.raises(TransportError) as exc:
                backend.propose(self._bundle(), SamplingParams())
            assert exc.value.status is None
            assert proxy.requests == []

    @pytest.mark.parametrize(
        "env, used",
        [
            ({"HTTP_PROXY": "first"}, "first"),
            ({"http_proxy": "first", "HTTP_PROXY": "second"}, "first"),
            ({"HTTP_PROXY": "first", "REQUEST_METHOD": "GET"}, None),
            ({"http_proxy": "first", "REQUEST_METHOD": "GET"}, "first"),
            ({"HTTP_PROXY": "first", "http_proxy": ""}, None),
        ],
        ids=["upper-case-only", "lower-case-wins", "cgi-ignores-upper-case", "cgi-keeps-lower-case",
             "empty-lower-case-unsets"],
    )
    def test_proxy_variable_names(self, env, used, stub_chat_server, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        monkeypatch.delenv("REQUEST_METHOD", raising=False)
        server = stub_chat_server(lambda n: (200, chat_body("direct")))
        proxies = {
            name: stub_chat_server(lambda n, name=name: (200, chat_body(name)))
            for name in ("first", "second")
        }
        for variable, value in env.items():
            monkeypatch.setenv(variable, proxies[value].url if value in proxies else value)
        backend = HttpChatBackend(base_url=server.url + "/v1", model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == (used or "direct")

    @pytest.mark.parametrize("proxy", ["http://:3128", ":3128", "http://"])
    def test_proxy_variable_without_a_host_is_refused(self, proxy, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        monkeypatch.setenv("http_proxy", proxy)
        with pytest.raises(ValueError, match="^the http_proxy variable must be a proxy URL: "):
            HttpChatBackend(base_url="http://llmize.invalid/v1", model="m1")

    def test_refused_tunnel_fails_both_attempts(self, raw_http_listener, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        proxy = raw_http_listener(b"HTTP/1.1 407 Proxy Authentication Required\r\n\r\n")
        monkeypatch.setenv("https_proxy", proxy.url)
        backend = HttpChatBackend(base_url="https://llmize.invalid/v1", model="m1")
        with pytest.raises(TransportError, match="proxy tunnel refused: HTTP 407") as exc:
            backend.propose(self._bundle(), SamplingParams())
        assert exc.value.status is None
        # Both attempts asked the proxy for a tunnel, and went no further.
        assert proxy.requests == [b"CONNECT llmize.invalid:443 HTTP/1.0\r\n\r\n"] * 2

    def test_proxy_credentials_sent_as_basic_auth(self, stub_chat_server, monkeypatch):
        self._no_proxies_and_no_lookups(monkeypatch)
        proxy = stub_chat_server(lambda n: (200, chat_body("via proxy")))
        monkeypatch.setenv("http_proxy", proxy.url.replace("//", "//us%40r:p%3Aw@"))
        backend = HttpChatBackend(base_url="http://llmize.invalid/v1", model="m1")
        assert backend.propose(self._bundle(), SamplingParams()) == "via proxy"
        [request] = proxy.requests
        expected = "Basic " + base64.b64encode(b"us@r:p:w").decode()
        assert request["headers"]["Proxy-Authorization"] == expected
        assert request["headers"]["Host"] == "llmize.invalid"

    def test_api_key_with_a_line_break_is_never_sent(self, raw_http_listener, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "sekrit\r\nX-Injected: 1")
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode()))
        with pytest.raises(ValueError, match="^api_key from LLMIZE_API_KEY must be one line$"):
            HttpChatBackend(base_url=listener.url, model="m1")
        assert listener.requests == []

    @pytest.mark.parametrize("key", ["sekrit\r\nX-Injected: 1", "sekrit\n", "\rsekrit"])
    def test_api_key_with_a_line_break_is_refused_at_construction(self, key, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "fine")
        with pytest.raises(ValueError, match="^api_key must be one line$"):
            HttpChatBackend(base_url="http://127.0.0.1:9/v1", model="m1", api_key=key)

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x1b", "\x1f", "\x7f"])
    def test_api_key_with_a_control_character_is_refused_naming_the_key(self, char, monkeypatch):
        key = f"sek{char}rit"
        monkeypatch.setenv("LLMIZE_API_KEY", "fine")
        with pytest.raises(ValueError, match="^api_key must hold no control characters$"):
            HttpChatBackend(base_url="http://127.0.0.1:9/v1", model="m1", api_key=key)
        if char != "\x00":  # an environment variable cannot hold a NUL
            monkeypatch.setenv("LLMIZE_API_KEY", key)
            message = "^api_key from LLMIZE_API_KEY must hold no control characters$"
            with pytest.raises(ValueError, match=message):
                HttpChatBackend(base_url="http://127.0.0.1:9/v1", model="m1")

    def test_api_key_with_a_tab_is_sent(self, raw_http_listener):
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode()))
        backend = HttpChatBackend(base_url=listener.url, model="m1", api_key="sek\trit")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"
        [request] = listener.requests
        assert b"\r\nAuthorization: Bearer sek\trit\r\n" in request

    @pytest.mark.parametrize("in_argument", [True, False], ids=["api-key", "env"])
    def test_api_key_outside_latin_1_is_refused_naming_the_key(self, in_argument, monkeypatch):
        key = "ключ-sekrit"
        monkeypatch.setenv("LLMIZE_API_KEY", key)
        source = "" if in_argument else " from LLMIZE_API_KEY"
        with pytest.raises(ValueError, match=f"^api_key{source} must be Latin-1 text$"):
            HttpChatBackend(
                base_url="http://127.0.0.1:9/v1", model="m1", api_key=key if in_argument else None
            )

    @pytest.mark.parametrize("in_argument", [True, False], ids=["base-url", "env"])
    def test_base_url_outside_latin_1_is_refused_naming_the_key(self, in_argument, monkeypatch):
        url = "http://ключ.example/v1"
        monkeypatch.setenv("LLMIZE_BASE_URL", url)
        source = "" if in_argument else " from LLMIZE_BASE_URL"
        with pytest.raises(ValueError, match=f"^base_url{source} must be Latin-1 text: "):
            HttpChatBackend(base_url=url if in_argument else None, model="m1")

    def test_latin_1_key_and_url_path_are_sent_as_latin_1(self, raw_http_listener):
        listener = raw_http_listener(self._reply(json.dumps(chat_body("x")).encode()))
        backend = HttpChatBackend(base_url=listener.url + "/café", model="m1", api_key="clé")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"
        [request] = listener.requests
        assert request.startswith(b"POST /caf\xe9/chat/completions HTTP/1.1\r\n")
        assert b"\r\nAuthorization: Bearer cl\xe9\r\n" in request

    def test_api_key_read_at_construction(self, stub_chat_server, monkeypatch):
        monkeypatch.setenv("LLMIZE_API_KEY", "a")
        server = stub_chat_server(lambda n: (200, chat_body("x")))
        backend = HttpChatBackend(base_url=server.url, model="m1")
        monkeypatch.setenv("LLMIZE_API_KEY", "b")
        backend.propose(self._bundle(), SamplingParams())
        monkeypatch.delenv("LLMIZE_API_KEY")
        backend.propose(self._bundle(), SamplingParams())
        assert [r["headers"]["Authorization"] for r in server.requests] == ["Bearer a"] * 2

    def test_base_url_read_at_construction(self, stub_chat_server, monkeypatch):
        server = stub_chat_server(lambda n: (200, chat_body("x")))
        monkeypatch.setenv("LLMIZE_BASE_URL", server.url)
        backend = HttpChatBackend(model="m1")
        monkeypatch.setenv("LLMIZE_BASE_URL", "http://127.0.0.1:9/v1")
        assert backend.propose(self._bundle(), SamplingParams()) == "x"
        assert len(server.requests) == 1

    def test_model_is_required(self):
        with pytest.raises(TypeError, match="model"):
            HttpChatBackend(base_url="http://127.0.0.1:9/v1")
        with pytest.raises(TypeError):
            HttpChatBackend("http://127.0.0.1:9/v1", "m1")

    @pytest.mark.parametrize(
        "url",
        [
            "http://127.0.0.1:9/v1?api-version=1",
            "http://127.0.0.1:9/v1#frag",
            "http://user:pw@127.0.0.1:9/v1",
            "http://127.0.0.1:port/v1",
        ],
    )
    def test_base_url_with_query_fragment_credentials_or_bad_port_refused(self, url):
        with pytest.raises(ValueError, match="^base_url "):
            HttpChatBackend(base_url=url, model="m1")


class TestSamplingParams:
    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            SamplingParams(model_temperature=2.5)
        with pytest.raises(ValueError):
            SamplingParams(model_temperature=-0.1)

    def test_render_history_line_rounds_scores(self):
        line = render_history_line(ev(RealVector((1.0, 2.0)), 41.079999999))
        assert line == "solution: 1, 2 | score: 41.08"
