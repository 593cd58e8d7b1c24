"""One workload process: import llmize, run one round of a workload, report.

Usage: python3 worker.py PLAN_JSON SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.perf_counter()`` just before it started
this process, so ``setup_s`` covers interpreter start-up as well. The plan
(written by ``run.py``) names the workload's runs or CLI config; the report
goes to the path the plan names. Everything is measured from the outside, by
wrapping llmize's public functions (see ``recorder.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from time import perf_counter


def _peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``getrusage`` would not do: Linux carries the parent's peak across fork
    and exec into the child's ``ru_maxrss``, so it reports ``run.py``'s size
    whenever that is the larger process. ``VmHWM`` is this program's own.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _solution(value) -> dict:
    if hasattr(value, "order"):
        return {"order": list(value.order)}
    return {"values": list(value.values)}


def _instrument_common(rec) -> None:
    """Probes both modes need: model time and prompt size at every backend."""
    from llmize import proposer

    for cls in (proposer.PerturbBackend, proposer.HttpChatBackend):
        timed = rec.wrap("proposer.propose", cls.propose, busy=True)
        cls.propose = rec.count_prompt(timed)


def _instrument_traced(rec) -> None:
    """Spans around every layer the step loop calls into."""
    from llmize import core, optimizers
    from llmize.proposer import ZeroCandidatesError

    counts = rec.counts
    parse = optimizers.parse_proposal

    def counted_parse(*args, **kwargs):
        try:
            parsed = parse(*args, **kwargs)
        except ZeroCandidatesError as exc:
            counts["blocks_rejected"] += exc.rejected_blocks
            raise
        counts["blocks_rejected"] += parsed.rejected_blocks
        counts["blocks_parsed"] += len(parsed.candidates)
        return parsed

    accept = optimizers.accept_candidate

    def counted_accept(*args, **kwargs):
        accepted = accept(*args, **kwargs)
        counts["sa_tests"] += 1
        counts["sa_accepted"] += bool(accepted)
        return accepted

    optimizers.parse_proposal = rec.wrap("proposer.parse_proposal", counted_parse)
    optimizers.accept_candidate = rec.wrap("optimizers.accept_candidate", counted_accept)
    rec.patch(optimizers, "evaluate_batch", "evaluation.evaluate_batch")
    rec.patch(optimizers, "update_best", "core.update_best")
    rec.patch(optimizers, "resolve_actions", "control.resolve_actions")
    rec.patch(core.History, "insert", "core.history_insert")


def _delimit_steps(rec, optimizers, ends_step: bool) -> None:
    """Mark step starts at the ``build_prompt`` the loop calls."""
    build_prompt = rec.wrap("proposer.build_prompt", optimizers.build_prompt)

    def delimited_build_prompt(*args, **kwargs):
        rec.prompt_started(perf_counter(), ends_step)
        return build_prompt(*args, **kwargs)

    optimizers.build_prompt = delimited_build_prompt


def run_api(plan: dict, rec) -> dict:
    from llmize import (
        EvaluatedSolution,
        PerturbBackend,
        RunConfig,
        adaptive_sampling,
        early_stopping,
        evaluate_batch,
        optimizers,
        run_hlmea,
        run_hlmsa,
        run_opro,
    )
    from llmize.benchmarks import get_benchmark, seed_samples

    _delimit_steps(rec, optimizers, ends_step=False)
    runners = {"opro": run_opro, "hlmea": run_hlmea, "hlmsa": run_hlmsa}
    outcomes = []
    for run in plan["runs"]:
        benchmark = get_benchmark(run["benchmark"], **run["params"])
        count = run.get("seed_count", benchmark.seed_count)
        seeds = seed_samples(benchmark.spec.schema, count, run["seed"], benchmark.seed_style)
        scores = evaluate_batch(benchmark.objective, seeds)
        initial = [EvaluatedSolution(v, s) for v, s in zip(seeds, scores)]
        config = RunConfig(
            max_steps=run["max_steps"],
            batch=run["batch"],
            history_capacity=run["history_capacity"],
            rng_seed=run["seed"],
        )
        # Control-layer work that never stops the run: patience exceeds the
        # step count, and the stand-in model ignores sampling temperature.
        callbacks = [
            rec.wrap("control.callback", early_stopping(patience=run["max_steps"] + 1)),
            rec.wrap(
                "control.callback", adaptive_sampling(stagnation_window=5, bump=0.1)
            ),
            rec.step_callback,
        ]
        objective = rec.objective(benchmark.objective)
        backend = PerturbBackend(seed=run["seed"])
        runner = runners[run["strategy"]]
        start = perf_counter()
        rec.begin_run()
        result = runner(benchmark.spec, objective, backend, config, callbacks, initial)
        rec.end_run()
        end = perf_counter()
        outcomes.append(
            {
                "label": run["label"],
                "steps": len(result.steps),
                "termination": result.termination.kind.value,
                "message": result.termination.message,
                "best_score": result.best.score,
                "best_solution": _solution(result.best.solution),
                "best_so_far": [s.best_so_far for s in result.steps],
                "proposer_calls": result.proposer_calls,
                "wall": [start, end],
            }
        )
    return {"runs": outcomes}


def run_cli(plan: dict, rec) -> dict:
    from llmize import benchmarks, cli, optimizers

    if rec.traced:
        rec.patch(cli, "evaluate_batch", "cli.seed_eval")
        rec.patch(cli, "dumps_history_csv", "cli.dumps_history_csv")
        rec.patch(cli, "render_history_chart", "cli.svg")
        rec.patch(cli, "render_tour", "cli.svg")

    _delimit_steps(rec, optimizers, ends_step=True)
    dumps_result = rec.wrap("cli.dumps_result", cli.dumps_result)

    def delimited_dumps_result(*args, **kwargs):
        rec.close_loop(perf_counter())
        return dumps_result(*args, **kwargs)

    command_objective = cli.command_objective

    def timed_command_objective(*args, **kwargs):
        return rec.objective(command_objective(*args, **kwargs))

    get_benchmark = benchmarks.get_benchmark

    def timed_get_benchmark(*args, **kwargs):
        benchmark = get_benchmark(*args, **kwargs)
        return dataclasses.replace(benchmark, objective=rec.objective(benchmark.objective))

    cli.dumps_result = delimited_dumps_result
    cli.command_objective = timed_command_objective
    benchmarks.get_benchmark = timed_get_benchmark

    rec.begin_run()
    main_start = perf_counter()
    code = cli.main(["run", plan["config"]])
    main_end = perf_counter()
    rec.end_run()
    return {"cli": {"exit_code": code, "main_start": main_start, "main_end": main_end}}


def main() -> int:
    plan_path, spawn = sys.argv[1], float(sys.argv[2])
    with open(plan_path) as fh:
        plan = json.load(fh)
    if plan["cpu"] is not None:
        os.sched_setaffinity(0, {plan["cpu"]})
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, plan["bench_dir"])

    from recorder import Recorder

    start = perf_counter()
    if plan["kind"] == "cli":
        import llmize.cli  # noqa: F401
    else:
        import llmize.benchmarks  # noqa: F401
    import_ms = (perf_counter() - start) * 1e3

    rec = Recorder(traced=plan["traced"])
    _instrument_common(rec)
    if rec.traced:
        _instrument_traced(rec)
    body = run_cli(plan, rec) if plan["kind"] == "cli" else run_api(plan, rec)
    peak_rss_mb = _peak_rss_mb()

    report = {
        "spawn": spawn,
        "import_ms": import_ms,
        "peak_rss_mb": peak_rss_mb,
        "record": rec.dump(),
        **body,
    }
    with open(plan["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
