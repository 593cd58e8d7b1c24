"""Seeded config fuzzing: valid documents with one to three values replaced or
deleted must each build a run or be refused with a ``ConfigError`` that names
a key path or a block, within a time bound per document."""

import copy
import json
import random
import re

from llmize import cli

from conftest import TimeBoundExceeded, time_bound

# Together the documents hold every schema kind, every backend and every
# optional block and key.
BENCHMARK = {
    "strategy": "hlmsa",
    "benchmark": "tsp",
    "benchmark_params": {"n": 5, "seed": 1},
    "backend": {"kind": "perturb", "seed": 1, "step_scale": 0.1},
    "max_steps": 3,
    "batch": 2,
    "history_capacity": 4,
    "rng_seed": 1,
    "workers": 2,
    "sampling": {"model_temperature": 1.0, "max_output_tokens": 64, "seed": 1},
    "seeding": {"count": 2, "seed": 1},
    "callbacks": {
        "early_stopping": {"patience": 2, "min_delta": 0.0},
        "target_stop": {"target": 1.0},
        "adaptive_sampling": {"stagnation_window": 2, "bump": 0.1, "ceiling": 2.0},
    },
    "sa": {"initial_temperature": 1.0, "cooling_bounds": [0.6, 0.95], "default_cooling": 0.8},
    "output_dir": "out",
}


def problem(schema, style, backend):
    return {
        "strategy": "hlmea",
        "problem": {
            "description": "d",
            "domain_knowledge": "k",
            "direction": "maximize",
            "schema": schema,
            "objective_command": ["score", "--fast"],
        },
        "backend": backend,
        "seeding": {"style": style, "count": 4, "seed": 1},
    }


def documents(transcript):
    return [
        BENCHMARK,
        problem(
            {"kind": "real_vector", "lower": [0, -1.5], "upper": [1, 2]}, "grid",
            {"kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1", "api_key": "k",
             "timeout": 5.0},
        ),
        problem({"kind": "permutation", "n": 6}, "uniform",
                {"kind": "scripted", "transcript": str(transcript)}),
        problem({"kind": "keyed_scalars", "bounds": {"u": [32, 512], "learning rate": [0, 1]}},
                "uniform", {"kind": "perturb", "seed": 3}),
    ]


VALUES = [
    None, True, False, 0, -1, 2**63, 10**400, 0.5, "", " ", "x", "é\n<solution>", "0",
    [], [1, 2], ["a"], [None], {}, {"kind": "x"}, {"a": [0, 1]},
]
DOCUMENTS_EACH = 750
SECONDS_EACH = 1.0


def sites(value, path=()):
    """The path of every value in ``value``, the whole document included."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from sites(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from sites(item, path + (index,))


def mutated(doc, rng):
    """``doc`` with one to three of its values replaced by one of ``VALUES``
    or deleted; a later change is skipped when an earlier one removed its site."""
    doc = copy.deepcopy(doc)
    for site in rng.sample(list(sites(doc)), rng.randint(1, 3)):
        value = copy.deepcopy(rng.choice(VALUES))
        if not site:
            doc = value
            continue
        parent = doc
        try:
            for step in site[:-1]:
                parent = parent[step]
            parent[site[-1]]
        except (LookupError, TypeError):
            continue
        if type(parent) not in (dict, list):  # a string indexes, but cannot change
            continue
        if rng.random() < 0.25:
            del parent[site[-1]]
        else:
            parent[site[-1]] = value
    return doc


def key_paths(value, path=""):
    """Every key path in ``value``, blocks included: ``backend``, ``backend.kind``..."""
    if type(value) is dict:
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            yield where
            yield from key_paths(item, where)


def test_every_mutated_document_builds_or_names_its_key(tmp_path, monkeypatch):
    monkeypatch.delenv("LLMIZE_BASE_URL", raising=False)
    transcript = tmp_path / "replies.json"
    transcript.write_text(json.dumps(["<solution>0, 1, 2, 3, 4, 5</solution>"]))
    bases = documents(transcript)
    names = {"config"}.union(*(key_paths(doc) for doc in bases))
    # A name stands alone: not part of a longer word or of a longer path.
    named = re.compile(
        rf"(?<![\w.])({'|'.join(map(re.escape, sorted(names, key=len, reverse=True)))})(?![\w])"
    )
    rng = random.Random(11)
    outcomes = {"plan": 0, "refused": 0}
    problems = []
    for base in bases:
        assert isinstance(cli.build_plan(copy.deepcopy(base)), cli.RunPlan)
        for _ in range(DOCUMENTS_EACH):
            doc = mutated(base, rng)
            try:
                with time_bound(SECONDS_EACH):
                    plan = cli.build_plan(doc)
            except cli.ConfigError as exc:
                outcomes["refused"] += 1
                if not named.search(str(exc)):
                    problems.append(f"names no key path or block: {exc}")
            except (Exception, TimeBoundExceeded) as exc:
                problems.append(f"{exc!r} from {json.dumps(doc)[:300]}")
            else:
                outcomes["plan"] += 1
                assert isinstance(plan, cli.RunPlan)
    assert problems == []
    # The mutations reach both outcomes.
    assert min(outcomes.values()) >= 20, outcomes
