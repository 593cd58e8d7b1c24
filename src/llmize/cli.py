"""Command-line front end: configured runs, built-in benchmarks, and plots.

One construction path serves ``run`` and ``bench``: ``run`` reads a JSON config
document, ``bench`` translates its flags into the same kind of document, and
``build_plan`` turns either into a ``RunPlan`` that ``_execute`` evaluates the
seeds for, hands to ``optimizers.optimize`` and writes artifacts from.

Each config block declares its keys and their kinds once, in one table:
``_DOCUMENT``, where a nested block's entry is its pair of required and optional
keys; the kind-tagged blocks, ``_BACKENDS`` and ``_SCHEMAS``, hold one table per
kind. ``_block`` walks a block against its table, refusing any key it does not
list, and walks each nested block at its path, so one walk checks the keys and
shapes of every other block before any value is built.

Exit codes: 0 for a completed run, 1 for usage or configuration errors and
for an output that cannot be written, 2 for an aborted run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import Field, dataclass, fields
from functools import partial
from itertools import takewhile
from pathlib import Path
from typing import Sequence

from . import benchmarks as bench_mod
from .benchmarks import Benchmark, SeedStyle, seed_samples
from .control import Callback, adaptive_sampling, early_stopping, target_stop
from .core import (
    EvaluatedSolution,
    KeyedScalarsSchema,
    ObjectiveDirection,
    OptimizationResult,
    PermutationSchema,
    ProblemSpec,
    RealVectorSchema,
    SolutionValue,
    StepStats,
    TerminationKind,
)
from .evaluation import EvalPolicy, EvaluationFailed, Objective, command_objective, evaluate_batch
from .optimizers import RunConfig, SaState, Strategy, optimize
from .proposer import (
    HttpChatBackend,
    PerturbBackend,
    ProposerBackend,
    SamplingParams,
    ScriptedBackend,
)
from .svg import render_history_chart, render_tour

# history.csv's columns: a step's fields but hyperparams, which result.json holds.
_HISTORY_FIELDS = [f for f in fields(StepStats) if f.name != "hyperparams"]
HISTORY_CSV_HEADER = ",".join(f.name for f in _HISTORY_FIELDS)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def dumps_result(result: OptimizationResult) -> str:
    # Steps go out as vars(), not dataclasses.asdict, whose deep copy costs
    # ~30x more per step.
    return json.dumps({
        "best": {
            "solution": result.best.solution.to_json(),
            "score": result.best.score,
        },
        "steps": [vars(s) for s in result.steps],
        "termination": {
            "kind": result.termination.kind.value,
            "message": result.termination.message,
        },
        "evaluations_used": result.evaluations_used,
        "proposer_calls": result.proposer_calls,
    }, sort_keys=True, indent=2) + "\n"


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def dumps_history_csv(result: OptimizationResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in _HISTORY_FIELDS])
    for s in result.steps:
        writer.writerow([_csv_cell(getattr(s, f.name)) for f in _HISTORY_FIELDS])
    return out.getvalue()


def _read_cell(text: str, field: Field) -> float | None:
    # Blank only where a step may leave its field None: hlmsa's two columns.
    if not text and field.default is None:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{field.name} must be finite, got {text!r}")
    return value


def read_history_csv(path: Path) -> list[StepStats]:
    """Parse a history CSV back into the steps it records, strictly: every
    cell a finite number, blank only where a step may leave it unset."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty CSV") from None
        if header != [f.name for f in _HISTORY_FIELDS]:
            raise ConfigError(
                f"header mismatch: expected {HISTORY_CSV_HEADER!r}, got {','.join(header)!r}"
            )
        steps: list[StepStats] = []
        for lineno, raw in enumerate(reader, start=2):
            try:
                if len(raw) != len(_HISTORY_FIELDS):
                    raise ValueError(f"expected {len(_HISTORY_FIELDS)} fields, got {len(raw)}")
                step_index, *cells = raw
                values = map(_read_cell, cells, _HISTORY_FIELDS[1:])
                steps.append(StepStats(int(step_index), *values))
            except ValueError as exc:
                raise ConfigError(f"row {lineno}: {exc}") from None
    if not steps:
        raise ConfigError("no data rows")
    return steps


# ---------------------------------------------------------------------------
# Config file parsing: each block's keys are declared once, in one table
# ---------------------------------------------------------------------------


def _where(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(v) -> bool:
    # An integer too large for a float is no number a setting can hold.
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


def _numbers(v) -> bool:
    return type(v) is list and all(map(_number, v))


def _pair(v) -> bool:
    return _numbers(v) and len(v) == 2


# Config value kinds: a test of the loaded JSON value's shape, and the kind's
# name; a value that passes is converted by calling its kind. true/false load as
# bool, an int subclass, so types are matched exactly. Ranges, finiteness among
# them, are the receiving constructor's to check.
_KINDS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (_number, "a number"),
    str: (lambda v: type(v) is str, "a string"),
    dict: (lambda v: type(v) is dict, "an object"),
    tuple[float, float]: (_pair, "a pair of numbers"),
    list[float]: (_numbers, "an array of numbers"),
    list[str]: (
        lambda v: type(v) is list and v and all(type(s) is str for s in v),
        "a non-empty array of strings",
    ),
    dict[str, tuple[float, float]]: (
        lambda v: type(v) is dict and all(map(_pair, v.values())),
        "an object mapping each key to a [lo, hi] number pair",
    ),
}


def _typed(value, kind, path: str, key: str):
    """``value`` converted by ``kind`` once it passes the kind's test. ``kind`` is
    one of the ``_KINDS``, a dict of choices that yields the entry a string names,
    or a ``(required, optional)`` pair: a nested block, walked at its own path."""
    if type(kind) is tuple:
        return _block(value, _where(path, key), *kind)
    if type(kind) is dict:
        fits, name = type(value) is str and value in kind, f"one of {', '.join(kind)}"
        convert = kind.get
    else:
        (test, name), convert = _KINDS[kind], kind
        fits = test(value)
    if not fits:
        raise ConfigError(f"{_where(path, key)} must be {name}, got {json.dumps(value)}")
    return convert(value)


def _block(obj, path: str, required: dict, optional: dict) -> dict:
    """The keys of the config object ``obj`` at ``path``, each converted by its
    kind. Unknown keys are refused and required ones must be present; absent or
    null optional keys are left out, so the receiving function's defaults apply."""
    if type(obj) is not dict:
        raise ConfigError(f"{path or 'config'} must be an object, got {json.dumps(obj)}")
    kinds = {**required, **optional}
    for key in obj:
        if key not in kinds:
            # In a kind-tagged block, ``_tagged`` has already checked the kind.
            what = f"{path} of kind {obj['kind']}" if "kind" in kinds else path or "the config"
            raise ConfigError(f"unknown key {_where(path, key)}; {what} takes {', '.join(kinds)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required key {_where(path, key)}")
    return {
        k: _typed(v, kinds[k], path, k) for k, v in obj.items() if v is not None or k in required
    }


def _tagged(obj: dict, path: str, table: dict):
    """What the kind-tagged block ``obj`` builds: the factory that ``table``
    holds for its ``kind``, called with the keys that kind reads, and no others."""
    make, required, optional = _typed(obj.get("kind"), table, path, "kind")
    options = _block(obj, path, {"kind": str, **required}, optional)
    del options["kind"]
    return _construct(make, path, options)


def _construct(make, path: str, options: dict, params: dict | None = None):
    """``make`` called with the keys ``options`` of the block at ``path``, each as the
    parameter ``params`` names or as itself. Its ``ValueError`` is refused as a config
    error: one that opens with a parameter ("<parameter> must ...") names that key's
    path instead, and any other, a rule that spans keys, is prefixed with the block's."""
    keys = {(params or {}).get(k, k): k for k in options}
    try:
        return make(**{param: options[key] for param, key in keys.items()})
    except ValueError as exc:
        message = str(exc)
        param = message.split(" ", 1)[0]
        if param in keys:
            message = _where(path, keys[param]) + message[len(param):]
        elif path:
            message = f"{path}: {message}"
        raise ConfigError(message) from None


def _scripted_backend(transcript: str) -> ScriptedBackend:
    try:
        transcripts = json.loads(Path(transcript).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read transcript: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"transcript is not valid JSON: {exc}") from None
    if not isinstance(transcripts, list) or not all(isinstance(t, str) for t in transcripts):
        raise ValueError("transcript must be a JSON array of strings")
    return ScriptedBackend(transcripts)


# Each kind of a kind-tagged block, and each callback block: its factory, then
# its required and optional keys.
_BACKENDS = {
    "perturb": (PerturbBackend, {"seed": int}, {"step_scale": float}),
    "scripted": (_scripted_backend, {"transcript": str}, {}),
    "http": (HttpChatBackend, {"model": str}, {"base_url": str, "api_key": str, "timeout": float}),
}
_SCHEMAS = {
    "real_vector": (RealVectorSchema, {"lower": list[float], "upper": list[float]}, {}),
    "permutation": (PermutationSchema, {"n": int}, {}),
    "keyed_scalars": (KeyedScalarsSchema, {"bounds": dict[str, tuple[float, float]]}, {}),
}
_CALLBACKS = {
    "early_stopping": (early_stopping, {"patience": int}, {"min_delta": float}),
    "target_stop": (target_stop, {"target": float}, {}),
    "adaptive_sampling": (
        adaptive_sampling, {"stagnation_window": int, "bump": float}, {"ceiling": float}
    ),
}

# The RunConfig and EvalPolicy fields a document sets at its top level.
_RUN_SETTINGS = {"max_steps": int, "batch": int, "history_capacity": int, "rng_seed": int}
_EVAL_SETTINGS = {"workers": int}
# The document's required and optional top-level keys.
_DOCUMENT = (
    {"strategy": {s.value: s for s in Strategy}, "backend": dict},
    {
        "benchmark": str,
        "benchmark_params": ({}, {"n": int, "seed": int}),
        "problem": (
            {"description": str, "direction": {d.value: d for d in ObjectiveDirection},
             "schema": dict, "objective_command": list[str]},
            {"domain_knowledge": str},
        ),
        **_RUN_SETTINGS, **_EVAL_SETTINGS,
        "sampling": ({}, {"model_temperature": float, "max_output_tokens": int, "seed": int}),
        "seeding": ({}, {"style": {s.value: s for s in SeedStyle}, "count": int, "seed": int}),
        "callbacks": ({}, {name: (required, optional)
                           for name, (_, required, optional) in _CALLBACKS.items()}),
        "sa": ({}, {"initial_temperature": float, "cooling_bounds": tuple[float, float],
                    "default_cooling": float}),
        "output_dir": str,
    },
)


@dataclass(frozen=True)
class RunPlan:
    """Everything one run needs, built from a config document by ``build_plan``."""

    strategy: Strategy
    spec: ProblemSpec
    objective: Objective
    backend: ProposerBackend
    config: RunConfig
    callbacks: list[Callback]
    seeds: list[SolutionValue]
    sa: SaState | None
    out_dir: Path
    benchmark: Benchmark | None


def _read_run_file(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Text that is not UTF-8, an integer of more digits than Python
        # converts, or nesting deeper than the parser recurses.
        raise ConfigError(f"unreadable JSON: {exc}") from None


def build_plan(doc: dict) -> RunPlan:
    """Validate a config document and build the run it describes. One walk checks
    every block but the kind-tagged ones; then come the rules that span blocks."""
    run = _block(doc, "", *_DOCUMENT)
    strategy = run["strategy"]
    if ("benchmark" in run) == ("problem" in run):
        raise ConfigError("exactly one of 'benchmark' or 'problem' is required")

    sampling = _construct(SamplingParams, "sampling", run.get("sampling", {}))
    # The run's one evaluation policy: the seeds and every step share it.
    evaluation = _construct(EvalPolicy, "", {k: run[k] for k in _EVAL_SETTINGS if k in run})
    settings = {k: run[k] for k in _RUN_SETTINGS if k in run}
    config = _construct(partial(RunConfig, sampling=sampling, evaluation=evaluation), "", settings)

    params = run.get("benchmark_params", {})
    if params and run.get("benchmark") != "tsp":
        raise ConfigError(
            f"benchmark_params ({', '.join(params)}) only applies to the tsp benchmark"
        )
    benchmark: Benchmark | None = None
    if "benchmark" in run:
        if run["benchmark"] == "tsp":
            params.setdefault("seed", config.rng_seed)
        try:
            make = partial(bench_mod.get_benchmark, run["benchmark"])
            benchmark = _construct(make, "benchmark_params", params, {"seed": "instance_seed"})
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
        spec, objective = benchmark.spec, benchmark.objective
    else:
        problem = run["problem"]
        schema = _tagged(problem.pop("schema"), "problem.schema", _SCHEMAS)
        objective = command_objective(problem.pop("objective_command"), problem.pop("direction"))
        spec = _construct(partial(ProblemSpec, schema=schema), "problem", problem)

    backend = _tagged(run["backend"], "backend", _BACKENDS)

    seeding = run.get("seeding", {})
    defaults = {"count": config.batch, "seed": config.rng_seed}
    if benchmark is not None:
        defaults.update(style=benchmark.seed_style, count=benchmark.seed_count)
    elif "style" not in seeding:
        raise ConfigError("seeding.style is required for custom problems")
    seeds = _construct(partial(seed_samples, spec.schema), "seeding", {**defaults, **seeding})

    blocks = run.get("callbacks", {})
    callbacks = [
        _construct(make, f"callbacks.{name}", blocks[name])
        for name, (make, _, _) in _CALLBACKS.items() if name in blocks
    ]

    # An hlmsa run without 'sa' settings starts from the default SaState; the
    # block's initial_temperature is its sa_temperature. Other strategies refuse it.
    options = run.get("sa", {})
    sa = None
    if options:
        rename = {"initial_temperature": "sa_temperature"}
        sa = _construct(strategy.state.settings, "sa", options, rename)

    out_dir = Path(run.get("output_dir", "."))
    return RunPlan(
        strategy, spec, objective, backend, config, callbacks, seeds, sa, out_dir, benchmark
    )


# ---------------------------------------------------------------------------
# Run execution shared by `run` and `bench`
# ---------------------------------------------------------------------------


def _write_files(files: dict[Path, str | None]) -> int:
    """Write each file whole, or remove it when its text is None: 0 when all
    are done, else 1 after printing ``cannot write <path>: <reason>`` for the
    first that cannot be.

    A text goes to a temporary file beside its target, which then replaces the
    target, so a failed or interrupted write leaves the earlier file whole.
    """
    for path, text in files.items():
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            if text is None:
                path.unlink(missing_ok=True)
            else:
                temporary.write_text(text)
                os.replace(temporary, path)
        except OSError as exc:
            with suppress(OSError):
                temporary.unlink()
            print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 1
    return 0


def _remove_empty(directories: list[Path]) -> None:
    """Remove each of ``directories`` in turn, up to the first one that is
    not empty (or cannot be removed)."""
    with suppress(OSError):
        for directory in directories:
            directory.rmdir()


def _execute(plan: RunPlan) -> int:
    out_dir = plan.out_dir
    # The directories this run creates, leaf first: a run that writes
    # nothing removes them again while they are empty.
    created = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir}: {exc.strerror}", file=sys.stderr)
        return 1
    try:
        scores = evaluate_batch(plan.objective, plan.seeds, plan.config.evaluation)
        initial = [EvaluatedSolution(v, s) for v, s in zip(plan.seeds, scores)]
        result = optimize(
            plan.strategy, plan.spec, plan.objective, plan.backend, plan.config,
            plan.callbacks, initial, plan.sa,
        )
    except EvaluationFailed as exc:  # only the seeds' batch: a step's failure aborts the run
        _remove_empty(created)
        print(f"aborted while evaluating initial samples: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        _remove_empty(created)
        print("interrupted: the run stopped and wrote nothing", file=sys.stderr)
        return 130

    instance = plan.benchmark and plan.benchmark.tsp_instance
    # A chart this run does not draw is removed, so none is left from an earlier run.
    if _write_files({
        out_dir / "result.json": dumps_result(result),
        out_dir / "history.csv": dumps_history_csv(result),
        out_dir / "plot.svg": render_history_chart(result.steps) if result.steps else None,
        out_dir / "tour.svg": render_tour(instance, result.best.solution) if instance else None,
    }):
        return 1
    print(
        f"best={result.best.score!r} steps={len(result.steps)} "
        f"termination={result.termination.kind.value}"
    )
    return 2 if result.termination.kind is TerminationKind.ABORTED else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        plan = build_plan(_read_run_file(path))
    except ConfigError as exc:
        print(f"config error in {path}: {exc}", file=sys.stderr)
        return 1
    return _execute(plan)


def cmd_bench(args: argparse.Namespace) -> int:
    """Translate the flags into a config document and run it like ``run``.

    Unset flags are left out of the document, so they take the same defaults
    as a config file; the step budget and stop target come from the benchmark.
    """
    try:
        defaults = bench_mod.get_benchmark(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    if args.http_model:
        backend = {"kind": "http", "model": args.http_model}
    else:
        backend = {"kind": "perturb", "seed": args.seed}
    # A flag the chosen backend does not read is refused as an unknown key.
    flags = {"base_url": args.http_base_url, "step_scale": args.step_scale}
    backend.update((k, v) for k, v in flags.items() if v is not None)
    doc = {
        "strategy": args.strategy,
        "benchmark": args.name,
        "backend": backend,
        "max_steps": defaults.default_steps if args.max_steps is None else args.max_steps,
        "batch": args.batch,
        "history_capacity": args.history_capacity,
        "rng_seed": args.seed,
        "output_dir": args.out,
    }
    if args.n is not None:
        doc["benchmark_params"] = {"n": args.n}
    if defaults.default_target is not None:
        doc["callbacks"] = {"target_stop": {"target": defaults.default_target}}
    try:
        plan = build_plan(doc)
    except ConfigError as exc:
        print(f"invalid benchmark options: {exc}", file=sys.stderr)
        return 1
    return _execute(plan)


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        steps = read_history_csv(Path(args.history_csv))
    except (ConfigError, ValueError, csv.Error) as exc:
        # ValueError: text that is not UTF-8; csv.Error: a field over csv's size limit.
        print(f"bad history CSV {args.history_csv}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read {args.history_csv}: {exc}", file=sys.stderr)
        return 1
    return _write_files({Path(args.out_svg): render_history_chart(steps)})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llmize",
        description="Run model-guided black-box optimizations and plot their progress.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run described by a JSON config file")
    p_run.add_argument("config", help="path to the run config (JSON)")
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser("bench", help="run a built-in benchmark")
    p_bench.add_argument("name", help="benchmark name")
    p_bench.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default="opro"
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--n", type=int, help="tsp city count")
    p_bench.add_argument("--max-steps", type=int)
    p_bench.add_argument("--batch", type=int)
    p_bench.add_argument("--history-capacity", type=int)
    p_bench.add_argument("--step-scale", type=float)
    p_bench.add_argument("--http-model", default=None, help="use the HTTP backend with this model")
    p_bench.add_argument("--http-base-url")
    p_bench.add_argument("--out", help="output directory")
    p_bench.set_defaults(handler=cmd_bench)

    p_plot = sub.add_parser("plot", help="render a history CSV as an SVG chart")
    p_plot.add_argument("history_csv")
    p_plot.add_argument("out_svg")
    p_plot.set_defaults(handler=cmd_plot)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
