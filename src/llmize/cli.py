"""Command-line front end: configured runs, built-in benchmarks, and plots.

One construction path serves ``run`` and ``bench``: ``run`` reads a JSON config
document, ``bench`` translates its flags into the same kind of document, and
``build_plan`` turns either into a ``RunPlan`` that ``_execute`` evaluates the
seeds for, hands to ``optimizers.optimize`` and writes artifacts from.

Exit codes: 0 for a completed run, 1 for usage or configuration errors,
2 for an aborted run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
from dataclasses import dataclass
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
    SolutionSchema,
    SolutionValue,
    TerminationKind,
)
from .evaluation import EvalPolicy, EvaluationFailed, Objective, evaluate_batch
from .optimizers import RunConfig, SaState, optimize
from .proposer import (
    HttpChatBackend,
    PerturbBackend,
    ProposerBackend,
    SamplingParams,
    ScriptedBackend,
    Strategy,
)
from .svg import render_history_chart, render_tour

HISTORY_CSV_HEADER = (
    "step_index,best_of_step,mean_of_step,best_so_far,"
    "sampling_temperature,sa_temperature,cooling_rate"
)

class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def result_to_jsonable(result: OptimizationResult) -> dict:
    # wall_time is intentionally left out: result.json must be byte-identical
    # across reruns with the same seed. Steps are copied with vars(), not
    # dataclasses.asdict, whose deep copy costs ~30x more per step.
    return {
        "best": {
            "solution": result.best.solution.to_json(),
            "score": result.best.score,
        },
        "steps": [dict(vars(s)) for s in result.steps],
        "termination": {
            "kind": result.termination.kind.value,
            "message": result.termination.message,
        },
        "evaluations_used": result.evaluations_used,
        "proposer_calls": result.proposer_calls,
    }


def dumps_result(result: OptimizationResult) -> str:
    return json.dumps(result_to_jsonable(result), sort_keys=True, indent=2) + "\n"


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def dumps_history_csv(result: OptimizationResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = HISTORY_CSV_HEADER.split(",")
    writer.writerow(fields)
    for s in result.steps:
        row = vars(s)
        writer.writerow([_csv_cell(row[f]) for f in fields])
    return out.getvalue()


def read_history_csv(path: Path) -> list[dict[str, float]]:
    """Parse a history CSV back into chart rows, strictly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty CSV") from None
        if header != HISTORY_CSV_HEADER.split(","):
            raise ConfigError(
                f"header mismatch: expected {HISTORY_CSV_HEADER!r}, got {','.join(header)!r}"
            )
        rows: list[dict[str, float]] = []
        for lineno, raw in enumerate(reader, start=2):
            try:
                if len(raw) != 7:
                    raise ValueError(f"expected 7 fields, got {len(raw)}")
                rows.append(
                    {
                        "step_index": int(raw[0]),
                        "best_of_step": float(raw[1]),
                        "mean_of_step": float(raw[2]),
                        "best_so_far": float(raw[3]),
                        "sampling_temperature": float(raw[4]),
                    }
                )
            except ValueError as exc:
                raise ConfigError(f"row {lineno}: {exc}") from None
    if not rows:
        raise ConfigError("no data rows")
    return rows


# ---------------------------------------------------------------------------
# Config file parsing (strict: unknown keys are rejected by name)
# ---------------------------------------------------------------------------


def _line_of(raw: str, key: str) -> str:
    for i, line in enumerate(raw.splitlines(), start=1):
        if f'"{key}"' in line:
            return f" (line {i})"
    return ""


def _check_keys(obj: dict, allowed: set[str], path: str, raw: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in obj:
        if key not in allowed:
            where = f" in {path}" if path else ""
            raise ConfigError(f"unknown key '{key}'{where}{_line_of(raw, key)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        where = f" in {path}" if path else ""
        raise ConfigError(f"missing required key '{key}'{where}")
    return obj[key]


def _parse_direction(value: str) -> ObjectiveDirection:
    try:
        return ObjectiveDirection(value)
    except ValueError:
        raise ConfigError(
            f"direction must be 'minimize' or 'maximize', got {value!r}"
        ) from None


def _parse_schema(obj: dict, raw: str) -> SolutionSchema:
    _check_keys(obj, {"kind", "lower", "upper", "n", "bounds"}, "problem.schema", raw)
    kind = _require(obj, "kind", "problem.schema")
    if kind == "real_vector":
        lower = _require(obj, "lower", "problem.schema")
        upper = _require(obj, "upper", "problem.schema")
        return RealVectorSchema(dim=len(lower), lower=tuple(lower), upper=tuple(upper))
    if kind == "permutation":
        return PermutationSchema(n=int(_require(obj, "n", "problem.schema")))
    if kind == "keyed_scalars":
        bounds = _require(obj, "bounds", "problem.schema")
        if not isinstance(bounds, dict) or not all(
            isinstance(p, list) and len(p) == 2 and {type(v) for v in p} <= {int, float}
            for p in bounds.values()
        ):
            raise ConfigError("problem.schema.bounds must map each key to a [lo, hi] number pair")
        return KeyedScalarsSchema.from_bounds(
            {str(k): (float(lo), float(hi)) for k, (lo, hi) in bounds.items()}
        )
    raise ConfigError(f"unknown schema kind {kind!r}")


def command_objective(command: list[str], direction: ObjectiveDirection) -> Objective:
    """Objective that shells out per candidate: rendered solution on stdin,
    one real number expected on stdout."""

    def evaluate(value: SolutionValue) -> float:
        proc = subprocess.run(
            command,
            input=value.render(),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"objective command exited {proc.returncode}: {proc.stderr.strip()}"
            )
        return float(proc.stdout.strip())

    return Objective(evaluate=evaluate, direction=direction)


def _options(obj: dict, **convert) -> dict:
    """Converted values of the keys set in ``obj``. Keys that are absent or
    null are left out, so the receiving function's own defaults apply."""
    return {k: conv(obj[k]) for k, conv in convert.items() if obj.get(k) is not None}


def _parse_backend(obj: dict, raw: str):
    _check_keys(
        obj,
        {"kind", "seed", "step_scale", "transcript", "base_url", "model", "api_key", "timeout"},
        "backend",
        raw,
    )
    kind = _require(obj, "kind", "backend")
    if kind == "perturb":
        return PerturbBackend(
            seed=int(_require(obj, "seed", "backend")), **_options(obj, step_scale=float)
        )
    if kind == "scripted":
        transcript_path = Path(_require(obj, "transcript", "backend"))
        try:
            transcripts = json.loads(transcript_path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read transcript: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"transcript is not valid JSON: {exc}") from None
        if not isinstance(transcripts, list) or not all(
            isinstance(t, str) for t in transcripts
        ):
            raise ConfigError("transcript must be a JSON array of strings")
        return ScriptedBackend(transcripts)
    if kind == "http":
        return HttpChatBackend(
            model=str(_require(obj, "model", "backend")),
            **_options(obj, base_url=str, api_key=str, timeout=float),
        )
    raise ConfigError(f"unknown backend kind {kind!r}")


def _parse_callbacks(obj: dict, raw: str) -> list[Callback]:
    _check_keys(
        obj, {"early_stopping", "target_stop", "adaptive_sampling"}, "callbacks", raw
    )
    callbacks: list[Callback] = []
    if "early_stopping" in obj:
        block = obj["early_stopping"]
        _check_keys(block, {"patience", "min_delta"}, "callbacks.early_stopping", raw)
        callbacks.append(
            early_stopping(
                patience=int(_require(block, "patience", "callbacks.early_stopping")),
                **_options(block, min_delta=float),
            )
        )
    if "target_stop" in obj:
        block = obj["target_stop"]
        _check_keys(block, {"target"}, "callbacks.target_stop", raw)
        callbacks.append(
            target_stop(float(_require(block, "target", "callbacks.target_stop")))
        )
    if "adaptive_sampling" in obj:
        block = obj["adaptive_sampling"]
        _check_keys(
            block,
            {"stagnation_window", "bump", "ceiling"},
            "callbacks.adaptive_sampling",
            raw,
        )
        callbacks.append(
            adaptive_sampling(
                stagnation_window=int(
                    _require(block, "stagnation_window", "callbacks.adaptive_sampling")
                ),
                bump=float(_require(block, "bump", "callbacks.adaptive_sampling")),
                **_options(block, ceiling=float),
            )
        )
    return callbacks


_TOP_KEYS = {
    "strategy",
    "benchmark",
    "benchmark_params",
    "problem",
    "backend",
    "max_steps",
    "batch",
    "history_capacity",
    "workers",
    "rng_seed",
    "sampling",
    "seeding",
    "callbacks",
    "sa",
    "output_dir",
}


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


def _read_run_file(path: Path) -> tuple[dict, str]:
    """The config document and its raw text (kept for error line numbers)."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None


def build_plan(doc: dict, raw: str = "") -> RunPlan:
    """Validate a config document and build the run it describes."""
    _check_keys(doc, _TOP_KEYS, "", raw)

    try:
        strategy = Strategy(_require(doc, "strategy", ""))
    except ValueError:
        raise ConfigError(
            f"strategy must be one of opro, hlmea, hlmsa; got {doc['strategy']!r}"
        ) from None

    if ("benchmark" in doc) == ("problem" in doc):
        raise ConfigError("exactly one of 'benchmark' or 'problem' is required")

    sampling_doc = doc.get("sampling", {})
    _check_keys(
        sampling_doc, {"model_temperature", "max_output_tokens", "seed"}, "sampling", raw
    )
    sampling = SamplingParams(
        **_options(sampling_doc, model_temperature=float, max_output_tokens=int, seed=int)
    )
    config = RunConfig(
        sampling=sampling,
        **_options(
            doc, max_steps=int, batch=int, history_capacity=int, workers=int, rng_seed=int
        ),
    )

    benchmark: Benchmark | None = None
    if "benchmark" in doc:
        params = doc.get("benchmark_params", {})
        _check_keys(params, {"n", "seed"}, "benchmark_params", raw)
        if params and doc["benchmark"] != "tsp":
            raise ConfigError("benchmark_params only applies to the tsp benchmark")
        if doc["benchmark"] == "tsp":
            params = {
                "instance_seed": int(params.get("seed", config.rng_seed)),
                **_options(params, n=int),
            }
        try:
            benchmark = bench_mod.get_benchmark(doc["benchmark"], **params)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
        spec = benchmark.spec
        objective = benchmark.objective
    else:
        problem = doc["problem"]
        _check_keys(
            problem,
            {"description", "direction", "schema", "domain_knowledge", "objective_command"},
            "problem",
            raw,
        )
        direction = _parse_direction(_require(problem, "direction", "problem"))
        schema = _parse_schema(_require(problem, "schema", "problem"), raw)
        command = _require(problem, "objective_command", "problem")
        if not isinstance(command, list) or not command:
            raise ConfigError("problem.objective_command must be a non-empty array")
        spec = ProblemSpec(
            description=str(_require(problem, "description", "problem")),
            direction=direction,
            schema=schema,
            domain_knowledge=problem.get("domain_knowledge"),
        )
        objective = command_objective([str(c) for c in command], direction)

    backend = _parse_backend(_require(doc, "backend", ""), raw)

    seeding_doc = doc.get("seeding", {})
    _check_keys(seeding_doc, {"style", "count", "seed"}, "seeding", raw)
    if benchmark is not None:
        style = benchmark.seed_style
        count = benchmark.seed_count
    else:
        if "style" not in seeding_doc:
            raise ConfigError("seeding.style is required for custom problems")
        style = None
        count = int(seeding_doc.get("count", config.batch))
    if "style" in seeding_doc:
        styles = {"grid": SeedStyle.GRID, "uniform": SeedStyle.UNIFORM_RANDOM}
        if seeding_doc["style"] not in styles:
            raise ConfigError("seeding.style must be 'grid' or 'uniform'")
        style = styles[seeding_doc["style"]]
    if "count" in seeding_doc:
        count = int(seeding_doc["count"])
    seed_seed = int(seeding_doc.get("seed", config.rng_seed))
    seeds = seed_samples(spec.schema, count, seed_seed, style)

    callbacks = _parse_callbacks(doc.get("callbacks", {}), raw)

    # An hlmsa run without an 'sa' block starts from the default SaState; the
    # block's initial_temperature is the state's starting sa_temperature.
    sa_doc = doc.get("sa", {})
    _check_keys(
        sa_doc, {"initial_temperature", "cooling_bounds", "default_cooling"}, "sa", raw
    )
    sa = None
    if sa_doc:
        if strategy is not Strategy.HLMSA:
            raise ConfigError("'sa' settings only apply to the hlmsa strategy")
        sa_doc = {**sa_doc, "sa_temperature": sa_doc.get("initial_temperature")}
        sa = SaState(
            **_options(sa_doc, sa_temperature=float, cooling_bounds=tuple, default_cooling=float)
        )

    out_dir = Path(doc.get("output_dir", "."))
    return RunPlan(
        strategy, spec, objective, backend, config, callbacks, seeds, sa, out_dir, benchmark
    )


# ---------------------------------------------------------------------------
# Run execution shared by `run` and `bench`
# ---------------------------------------------------------------------------


def _execute(plan: RunPlan) -> int:
    policy = EvalPolicy(workers=plan.config.workers)
    try:
        scores = evaluate_batch(plan.objective, plan.seeds, policy)
    except EvaluationFailed as exc:
        print(f"aborted while evaluating initial samples: {exc}", file=sys.stderr)
        return 2
    initial = [EvaluatedSolution(v, s) for v, s in zip(plan.seeds, scores)]

    result = optimize(
        plan.strategy, plan.spec, plan.objective, plan.backend, plan.config,
        plan.callbacks, initial, plan.sa,
    )

    out_dir = plan.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(dumps_result(result))
    (out_dir / "history.csv").write_text(dumps_history_csv(result))
    if result.steps:
        rows = [vars(s) for s in result.steps]
        (out_dir / "plot.svg").write_text(render_history_chart(rows))
    instance = plan.benchmark and plan.benchmark.tsp_instance
    if instance is not None:
        (out_dir / "tour.svg").write_text(render_tour(instance, result.best.solution))

    print(
        f"best={result.best.score!r} steps={len(result.steps)} "
        f"termination={result.termination.kind.value}"
    )
    return 2 if result.termination.kind is TerminationKind.ABORTED else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(config_path: str) -> int:
    path = Path(config_path)
    try:
        plan = build_plan(*_read_run_file(path))
    except (ConfigError, ValueError, TypeError) as exc:
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
        backend = {"kind": "http", "model": args.http_model, "base_url": args.http_base_url}
    else:
        backend = {"kind": "perturb", "seed": args.seed, "step_scale": args.step_scale}
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
    if args.name == "tsp":
        doc["benchmark_params"] = {"n": args.n}
    if defaults.default_target is not None:
        doc["callbacks"] = {"target_stop": {"target": defaults.default_target}}
    try:
        plan = build_plan(doc)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"invalid benchmark options: {exc}", file=sys.stderr)
        return 1
    return _execute(plan)


def cmd_plot(history_csv: str, out_svg: str) -> int:
    try:
        rows = read_history_csv(Path(history_csv))
    except ConfigError as exc:
        print(f"bad history CSV {history_csv}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read {history_csv}: {exc}", file=sys.stderr)
        return 1
    Path(out_svg).write_text(render_history_chart(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llmize",
        description="Run model-guided black-box optimizations and plot their progress.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run described by a JSON config file")
    p_run.add_argument("config", help="path to the run config (JSON)")

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
    p_bench.add_argument("--out", default=".", help="output directory")

    p_plot = sub.add_parser("plot", help="render a history CSV as an SVG chart")
    p_plot.add_argument("history_csv")
    p_plot.add_argument("out_svg")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "plot":
        return cmd_plot(args.history_csv, args.out_svg)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
