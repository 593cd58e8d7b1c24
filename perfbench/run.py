"""Layered benchmark of llmize's step loop.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--workload all`` runs the four workloads in
turn. Each workload runs in rounds until ``--seconds`` have passed (at least
three untraced rounds). A round is one fresh workload process
(``worker.py``) that imports llmize from ``src/`` and drives it only through
``run_opro``/``run_hlmea``/``run_hlmsa`` or ``llmize.cli.main(["run", cfg])``.
The load is a closed loop: one caller, each step waits for the previous one.

``run.py`` makes every input from ``--seed``, computes oracles and reference
tours once before the first round (outside every timed region), checks each
run's output, and prints a table of every metric followed by one JSON line.
With ``--trace 1`` every other round is traced and the JSON line carries the
per-layer metrics. The process exits 1 if any correctness check fails, and 2
if llmize's sources are missing. See ``NOTES.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

STRATEGIES = ("opro", "hlmea", "hlmsa")
WORKLOADS = ("desk-mix", "tsp50-wide", "external-objective", "http-stub")
MIN_UNTRACED_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
ROUND_TIMEOUT_S = 150

# (name, unit) of every end-to-end metric, in print order. best_gap_rel and
# abort_rate are printed but kept out of the JSON line: the first is a fixed
# function of the seed that differs widely between seeds, the second is 0 on
# a correct program. Both are checked instead (see NOTES.md).
END_TO_END = (
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("overhead_ms_per_step", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("prompt_kchars_per_step", "kchar"),
    ("calls_per_step", "calls"),
    ("best_gap_rel", "ratio"),
    ("abort_rate", "ratio"),
)
PRINT_ONLY = {"best_gap_rel", "abort_rate"}

PER_LAYER = (
    ("optimizers.self_ms_per_step", "ms"),
    ("optimizers.sa_accept_rate", "ratio"),
    ("core.history_insert_ms_per_step", "ms"),
    ("core.history_inserts_per_step", "count"),
    ("proposer.build_prompt_ms_per_step", "ms"),
    ("proposer.parse_ms_per_step", "ms"),
    ("proposer.backend_ms_per_call", "ms"),
    ("proposer.connections_per_call", "count"),
    ("proposer.request_kbytes_per_call", "kB"),
    ("proposer.rejected_block_rate", "ratio"),
    ("proposer.retry_rate", "ratio"),
    ("evaluation.evaluate_batch_ms_per_step", "ms"),
    ("evaluation.objective_ms_per_eval", "ms"),
    ("evaluation.parallel_efficiency", "ratio"),
    ("control.callbacks_ms_per_step", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.load_config_ms", "ms"),
    ("cli.seed_eval_ms", "ms"),
    ("cli.write_artifacts_ms", "ms"),
    ("optimizers.step_share", "ratio"),
    ("core.step_share", "ratio"),
    ("proposer.build_prompt_step_share", "ratio"),
    ("proposer.parse_step_share", "ratio"),
    ("proposer.backend_step_share", "ratio"),
    ("evaluation.step_share", "ratio"),
    ("control.step_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# Layer of each top-level span inside a step; a layer's step share is its
# spans' time over step wall time. ``optimizers`` gets the rest (self time).
SPAN_LAYER = {
    "core.history_insert": "core",
    "core.update_best": "core",
    "proposer.build_prompt": "proposer.build_prompt",
    "proposer.parse_proposal": "proposer.parse",
    "proposer.propose": "proposer.backend",
    "evaluation.evaluate_batch": "evaluation",
    "control.callback": "control",
    "control.resolve_actions": "control",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a check failure)."""


# ---------------------------------------------------------------------------
# Workloads: inputs made from the seed, plus a reference per run
# ---------------------------------------------------------------------------


@dataclass
class Reference:
    """What a run's best is compared against.

    ``exact_tol`` is how far the best may beat ``value`` before the check
    fails; None for a reference that is not an oracle (the tsp-50 tour).
    """

    value: float
    minimize: bool
    exact_tol: float | None
    recompute: Callable[[dict], float]  # objective on a reported best solution


@dataclass
class Workload:
    name: str
    kind: str  # "api" or "cli"
    workers: int
    max_steps: int
    runs: list[dict] = field(default_factory=list)
    config: dict | None = None
    references: dict[str, Reference] = field(default_factory=dict)
    needs_stub: bool = False


def _solution_value(best: dict):
    from llmize import Permutation, RealVector

    if "order" in best:
        return Permutation(tuple(best["order"]))
    return RealVector(tuple(best["values"]))


def _benchmark_reference(benchmark, oracle: float, minimize: bool, tol) -> Reference:
    evaluate = benchmark.objective.evaluate
    return Reference(oracle, minimize, tol, lambda best: evaluate(_solution_value(best)))


def tsp_two_opt_length(instance) -> float:
    """Nearest-neighbour tour from city 0 improved by 2-opt to a local optimum."""
    from llmize.benchmarks import tsp_length

    coords = instance.coordinates
    n = len(coords)
    d = [[math.dist(a, b) for b in coords] for a in coords]
    tour, left = [0], set(range(1, n))
    while left:
        nearest = min(left, key=lambda j: (d[tour[-1]][j], j))
        tour.append(nearest)
        left.remove(nearest)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for k in range(i + 1, n):
                a, b, c, e = tour[i - 1], tour[i], tour[k], tour[(k + 1) % n]
                if d[a][c] + d[b][e] < d[a][b] + d[c][e] - 1e-12:
                    tour[i : k + 1] = reversed(tour[i : k + 1])
                    improved = True
    return tsp_length(instance, tour)


def _api_run(label, benchmark, params, strategy, seed, steps, batch, capacity, **extra) -> dict:
    return {
        "label": label,
        "benchmark": benchmark,
        "params": params,
        "strategy": strategy,
        "seed": seed,
        "max_steps": steps,
        "batch": batch,
        "history_capacity": capacity,
        **extra,
    }


def make_desk_mix(seed: int) -> Workload:
    """Small problems, batch 8, K 16: fixed per-step costs dominate."""
    from llmize.benchmarks import convex2d_oracle, get_benchmark, lp3_oracle, tsp_bruteforce

    steps = 200
    wl = Workload("desk-mix", "api", workers=1, max_steps=steps)
    tsp = get_benchmark("tsp", n=10, instance_seed=seed)
    refs = {
        "convex2d": _benchmark_reference(
            get_benchmark("convex2d"), convex2d_oracle()[1], True, 1e-3
        ),
        "lp3": _benchmark_reference(get_benchmark("lp3"), lp3_oracle()[1], False, 1e-9),
        "tsp": _benchmark_reference(tsp, tsp_bruteforce(tsp.tsp_instance)[1], True, 1e-9),
    }
    for name, ref in refs.items():
        params = {"n": 10, "instance_seed": seed} if name == "tsp" else {}
        for strategy in STRATEGIES:
            label = f"{name}-10/{strategy}" if name == "tsp" else f"{name}/{strategy}"
            wl.runs.append(_api_run(label, name, params, strategy, seed, steps, 8, 16))
            wl.references[label] = ref
    return wl


def make_tsp50_wide(seed: int) -> Workload:
    """tsp-50 at batch 32, K 256: history upkeep and rendering dominate."""
    from llmize.benchmarks import get_benchmark

    steps = 50
    wl = Workload("tsp50-wide", "api", workers=1, max_steps=steps)
    tsp = get_benchmark("tsp", n=50, instance_seed=seed)
    ref = _benchmark_reference(tsp, tsp_two_opt_length(tsp.tsp_instance), True, None)
    for strategy in STRATEGIES:
        label = f"tsp-50/{strategy}"
        params = {"n": 50, "instance_seed": seed}
        # As many random seed tours as the history holds: every step runs at
        # full history, none on the way there.
        run = _api_run(label, "tsp", params, strategy, seed, steps, 32, 256, seed_count=256)
        wl.runs.append(run)
        wl.references[label] = ref
    return wl


def make_external_objective(seed: int) -> Workload:
    """``llmize run`` with a subprocess objective: evaluation dominates."""
    sys.path.insert(0, str(BENCH_DIR))
    import ext_objective
    from llmize import render_solution

    steps, dim = 15, 4
    rng = random.Random(seed)
    center = [round(rng.uniform(-3.0, 3.0), 3) for _ in range(dim)]
    center_arg = ",".join(repr(c) for c in center)
    wl = Workload("external-objective", "cli", workers=2, max_steps=steps)
    wl.config = {
        "strategy": "opro",
        "problem": {
            "description": (
                f"Minimize a black-box simulator score over {dim} real inputs "
                "in [-5, 5]. Lower is better."
            ),
            "direction": "minimize",
            "schema": {"kind": "real_vector", "lower": [-5.0] * dim, "upper": [5.0] * dim},
            # -S: the script needs no site-packages, and skipping them keeps
            # an evaluation near one bare interpreter start.
            "objective_command": [
                sys.executable,
                "-S",
                str(BENCH_DIR / "ext_objective.py"),
                center_arg,
            ],
        },
        "backend": {"kind": "perturb", "seed": seed},
        "max_steps": steps,
        "batch": 8,
        "history_capacity": 16,
        "workers": 2,
        "rng_seed": seed,
        "seeding": {"style": "uniform", "count": 8},
    }

    def recompute(best: dict) -> float:
        # The command objective sees the solution in its wire encoding.
        text = render_solution(_solution_value(best))
        return ext_objective.score(ext_objective.parse(text), center)

    wl.references["external"] = Reference(ext_objective.OPTIMUM, True, 1e-9, recompute)
    return wl


def make_http_stub(seed: int) -> Workload:
    """``llmize run`` against the stub chat server: HTTP transport and retries."""
    from llmize.benchmarks import get_benchmark, tsp_bruteforce

    steps = 300
    wl = Workload("http-stub", "cli", workers=1, max_steps=steps, needs_stub=True)
    wl.config = {
        "strategy": "hlmea",
        "benchmark": "tsp",
        "benchmark_params": {"n": 10, "seed": seed},
        "backend": {"kind": "http", "model": "stub", "timeout": 10.0},
        "max_steps": steps,
        "batch": 8,
        "history_capacity": 16,
        "rng_seed": seed,
    }
    tsp = get_benchmark("tsp", n=10, instance_seed=seed)
    oracle = tsp_bruteforce(tsp.tsp_instance)[1]
    wl.references["tsp-10/hlmea"] = _benchmark_reference(tsp, oracle, True, 1e-9)
    return wl


MAKERS = {
    "desk-mix": make_desk_mix,
    "tsp50-wide": make_tsp50_wide,
    "external-objective": make_external_objective,
    "http-stub": make_http_stub,
}


# ---------------------------------------------------------------------------
# Stub server process
# ---------------------------------------------------------------------------


def shared_cpu() -> int:
    """The one CPU the http-stub client and stub server both run on.

    Their hand-offs are then wake-ups on a running CPU. On the 2-vCPU VM
    measured, waking the other, idle vCPU instead made step_ms_p90 swing from
    3.7 to 9.8 ms between runs of the same code.
    """
    return min(os.sched_getaffinity(0))


class Stub:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py"), str(SRC), str(shared_cpu())],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise BenchError("stub server did not start")
        self.port = int(line[1])

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def reset(self) -> None:
        """Start a new run: replies to a round repeat those of the last one."""
        self._call("POST", "/reset")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    report: dict
    result_bytes: bytes | None = None  # CLI: result.json
    stub_delta: dict | None = None


def _worker_env() -> dict:
    env = dict(os.environ)
    # The stub is on loopback; never route it through a configured proxy.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_round(wl: Workload, work: Path, traced: bool, stub: Stub | None) -> Round:
    plan = {
        "kind": wl.kind,
        "src": str(SRC),
        "bench_dir": str(BENCH_DIR),
        "traced": traced,
        "report": str(work / "report.json"),
        "runs": wl.runs,
        "cpu": shared_cpu() if stub else None,
    }
    out_dir = work / "out"
    if wl.kind == "cli":
        shutil.rmtree(out_dir, ignore_errors=True)
        config = dict(wl.config, output_dir=str(out_dir))
        if stub is not None:
            config["backend"] = dict(config["backend"], base_url=f"http://127.0.0.1:{stub.port}/v1")
        (work / "config.json").write_text(json.dumps(config, indent=2))
        plan["config"] = str(work / "config.json")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    before = None
    if stub:
        stub.reset()
        before = stub.stats()

    spawn = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), repr(spawn)],
        cwd=ROOT,
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{wl.name} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads((work / "report.json").read_text())
    rnd = Round(traced, report)
    if wl.kind == "cli":
        result = out_dir / "result.json"
        rnd.result_bytes = result.read_bytes() if result.exists() else None
    if stub:
        after = stub.stats()
        rnd.stub_delta = {k: after[k] - before[k] for k in after}
    return rnd


def run_rounds(wl: Workload, seconds: float, trace: bool, stub: Stub | None) -> list[Round]:
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(wl, work, traced, stub))
        plain = sum(not r.traced for r in rounds)
        traced_n = len(rounds) - plain
        enough = plain >= MIN_UNTRACED_ROUNDS and (not trace or traced_n >= MIN_TRACED_ROUNDS)
        if enough and perf_counter() - start >= seconds:
            return rounds


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    steps: int
    termination: str
    best_score: float
    best_solution: dict
    proposer_calls: int
    fingerprint: object  # compared across rounds


def round_outcomes(wl: Workload, rnd: Round) -> list[Outcome]:
    if wl.kind == "api":
        return [
            Outcome(
                r["label"],
                r["steps"],
                r["termination"],
                r["best_score"],
                r["best_solution"],
                r["proposer_calls"],
                (r["best_score"], r["best_so_far"]),
            )
            for r in rnd.report["runs"]
        ]
    (label,) = wl.references
    if rnd.result_bytes is None:
        return [Outcome(label, 0, "missing", math.nan, {}, 0, None)]
    doc = json.loads(rnd.result_bytes)
    best = doc["best"]["solution"]
    solution = {"order": best["order"]} if "order" in best else {"values": best["values"]}
    return [
        Outcome(
            label,
            len(doc["steps"]),
            doc["termination"]["kind"],
            doc["best"]["score"],
            solution,
            doc["proposer_calls"],
            rnd.result_bytes,
        )
    ]


def check_outcome(wl: Workload, out: Outcome, first: Outcome | None, rnd: Round) -> list[str]:
    """Every failed check of one run, as messages."""
    problems = []
    if out.termination != "max_steps" or out.steps != wl.max_steps:
        problems.append(f"ended {out.termination} after {out.steps} steps, not max_steps")
        return problems
    ref = wl.references[out.label]
    recomputed = ref.recompute(out.best_solution)
    if recomputed != out.best_score:
        problems.append(f"best score {out.best_score!r} but objective gives {recomputed!r}")
    if ref.exact_tol is not None:
        beats = ref.value - out.best_score if ref.minimize else out.best_score - ref.value
        if beats > ref.exact_tol:
            problems.append(f"best {out.best_score!r} beats oracle {ref.value!r}")
    if first is not None and out.fingerprint != first.fingerprint:
        problems.append("result differs from the first round with the same seed")
    if rnd.stub_delta is not None and rnd.stub_delta["requests"] != out.proposer_calls:
        problems.append(
            f"stub saw {rnd.stub_delta['requests']} requests, run reports "
            f"{out.proposer_calls} proposer calls"
        )
    return problems


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def merge(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def covered(merged: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by disjoint sorted intervals."""
    total = 0.0
    for a, b in merged:
        if b <= start:
            continue
        if a >= end:
            break
        total += min(b, end) - max(a, start)
    return total


def per_step_covered(steps, merged) -> list[float]:
    """``covered`` for each step in order; steps and intervals are sorted."""
    out, j = [], 0
    for _, start, end in steps:
        while j < len(merged) and merged[j][1] <= start:
            j += 1
        out.append(covered(merged[j:], start, end))
    return out


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1]


def round_wall(wl: Workload, rnd: Round) -> float:
    rep = rnd.report
    if wl.kind == "api":
        return sum(end - start for start, end in (r["wall"] for r in rep["runs"]))
    return rep["cli"]["main_end"] - rep["record"]["first_step_start"]


def round_calls(wl: Workload, rnd: Round) -> int:
    return sum(o.proposer_calls for o in round_outcomes(wl, rnd))


def end_to_end(wl: Workload, rounds: list[Round], outcomes: list[Outcome], failed: int, attempted: int) -> dict:
    plain = [r for r in rounds if not r.traced]
    step_ms, overhead, steps_per_s, setup, rss, kchars, calls = ([] for _ in range(7))
    for rnd in plain:
        rec = rnd.report["record"]
        steps = rec["steps"]
        n = len(steps)
        busy = per_step_covered(steps, merge(rec["busy"]))
        step_ms += [(end - start) * 1e3 for _, start, end in steps]
        overhead += [((end - start) - b) * 1e3 for (_, start, end), b in zip(steps, busy)]
        steps_per_s.append(n / round_wall(wl, rnd))
        setup.append(rec["first_step_start"] - rnd.report["spawn"])
        rss.append(rnd.report["peak_rss_mb"])
        kchars.append(rec["prompt_chars"] / n / 1e3)
        calls.append(round_calls(wl, rnd) / n)
    gaps = []
    for out in outcomes:
        ref = wl.references[out.label]
        gaps.append(abs(out.best_score - ref.value) / abs(ref.value))
    return {
        "steps_per_s": statistics.median(steps_per_s),
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p90": percentile(step_ms, 90),
        "overhead_ms_per_step": statistics.median(overhead),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "prompt_kchars_per_step": statistics.median(kchars),
        "calls_per_step": statistics.median(calls),
        "best_gap_rel": statistics.fmean(gaps),
        "abort_rate": failed / attempted,
        "_step_samples": len(step_ms),
    }


def per_layer(wl: Workload, rounds: list[Round], e2e: dict) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    total = {layer: 0.0 for layer in set(SPAN_LAYER.values())}
    dur: dict[str, float] = {}
    count: dict[str, int] = {}
    counts: dict[str, int] = {}
    wall = self_time = 0.0
    nsteps = calls = 0
    load_config, seed_eval, traced_step_ms = [], [], []
    for rnd in traced:
        rec = rnd.report["record"]
        steps, spans = rec["steps"], rec["spans"]
        nsteps += len(steps)
        calls += round_calls(wl, rnd)
        for key, value in rec["counts"].items():
            counts[key] = counts.get(key, 0) + value
        top: list[list[tuple[float, float]]] = [[] for _ in steps]
        for name, start, end, parent, step, _thread in spans:
            if step is None or step >= len(steps):
                continue
            dur[name] = dur.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
            if parent == -1 and name in SPAN_LAYER:
                total[SPAN_LAYER[name]] += end - start
                top[step].append((start, end))
        for (_, start, end), children in zip(steps, top):
            wall += end - start
            self_time += (end - start) - covered(merge(children), start, end)
        traced_step_ms += [(end - start) * 1e3 for _, start, end in steps]
        if wl.kind == "cli":
            main_start = rnd.report["cli"]["main_start"]
            seed_spans = [s for s in spans if s[0] == "cli.seed_eval"]
            first = seed_spans[0][1] if seed_spans else rec["first_step_start"]
            load_config.append((first - main_start) * 1e3)
            seed_eval.append(sum(s[2] - s[1] for s in seed_spans) * 1e3)

    def per_step(name: str) -> float:
        return dur.get(name, 0.0) * 1e3 / nsteps

    def mean_of(name: str) -> float:
        return dur.get(name, 0.0) * 1e3 / count[name] if count.get(name) else 0.0

    blocks = counts.get("blocks_parsed", 0) + counts.get("blocks_rejected", 0)
    stub_rounds = [r for r in rounds if r.stub_delta is not None]
    stub_calls = sum(round_calls(wl, r) for r in stub_rounds)
    batch_wall = dur.get("evaluation.evaluate_batch", 0.0)
    artifacts = [
        (r.report["cli"]["main_end"] - r.report["record"]["loop_end"]) * 1e3 for r in plain
    ] if wl.kind == "cli" else [0.0]
    return {
        "optimizers.self_ms_per_step": self_time * 1e3 / nsteps,
        "optimizers.sa_accept_rate": (
            counts.get("sa_accepted", 0) / counts["sa_tests"] if counts.get("sa_tests") else 0.0
        ),
        "core.history_insert_ms_per_step": per_step("core.history_insert"),
        "core.history_inserts_per_step": count.get("core.history_insert", 0) / nsteps,
        "proposer.build_prompt_ms_per_step": per_step("proposer.build_prompt"),
        "proposer.parse_ms_per_step": per_step("proposer.parse_proposal"),
        "proposer.backend_ms_per_call": mean_of("proposer.propose"),
        "proposer.connections_per_call": (
            sum(r.stub_delta["connections"] for r in stub_rounds) / stub_calls if stub_calls else 0.0
        ),
        "proposer.request_kbytes_per_call": (
            sum(r.stub_delta["request_bytes"] for r in stub_rounds) / 1e3 / stub_calls
            if stub_calls
            else 0.0
        ),
        "proposer.rejected_block_rate": counts.get("blocks_rejected", 0) / blocks if blocks else 0.0,
        "proposer.retry_rate": (calls - nsteps) / calls,
        "evaluation.evaluate_batch_ms_per_step": per_step("evaluation.evaluate_batch"),
        "evaluation.objective_ms_per_eval": mean_of("evaluation.objective"),
        "evaluation.parallel_efficiency": (
            dur.get("evaluation.objective", 0.0) / (wl.workers * batch_wall) if batch_wall else 0.0
        ),
        "control.callbacks_ms_per_step": (
            (dur.get("control.callback", 0.0) + dur.get("control.resolve_actions", 0.0))
            * 1e3
            / nsteps
        ),
        "cli.import_ms": statistics.median(r.report["import_ms"] for r in plain),
        "cli.load_config_ms": statistics.median(load_config) if load_config else 0.0,
        "cli.seed_eval_ms": statistics.median(seed_eval) if seed_eval else 0.0,
        "cli.write_artifacts_ms": statistics.median(artifacts),
        "optimizers.step_share": self_time / wall,
        "core.step_share": total["core"] / wall,
        "proposer.build_prompt_step_share": total["proposer.build_prompt"] / wall,
        "proposer.parse_step_share": total["proposer.parse"] / wall,
        "proposer.backend_step_share": total["proposer.backend"] / wall,
        "evaluation.step_share": total["evaluation"] / wall,
        "control.step_share": total["control"] / wall,
        "trace.overhead_ratio": percentile(traced_step_ms, 50) / e2e["step_ms_p50"],
        # Self time plus the top-level child spans over step wall time: 1.0
        # when the spans account for every step and never overlap.
        "_accounted": (self_time + sum(total.values())) / wall,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ref_start = perf_counter()
    wl = MAKERS[name](seed)
    reference_s = perf_counter() - ref_start

    stub = Stub() if wl.needs_stub else None
    try:
        rounds = run_rounds(wl, seconds, trace, stub)
    finally:
        if stub:
            stub.close()

    attempted = failed = 0
    problems: list[str] = []
    firsts: dict[str, Outcome] = {}
    for i, rnd in enumerate(rounds):
        if wl.kind == "cli" and rnd.report["cli"]["exit_code"] != 0:
            problems.append(f"round {i}: llmize run exited {rnd.report['cli']['exit_code']}")
        for out in round_outcomes(wl, rnd):
            attempted += 1
            found = check_outcome(wl, out, firsts.get(out.label), rnd)
            firsts.setdefault(out.label, out)
            if found:
                failed += 1
                problems += [f"round {i} {out.label}: {p}" for p in found]
    outcomes = list(firsts.values())
    if len(outcomes) != len(wl.references) or any(o.steps != wl.max_steps for o in outcomes):
        raise BenchError(f"{name}: runs did not complete; cannot compute metrics: {problems}")
    for rnd in rounds:
        if len(rnd.report["record"]["steps"]) != len(wl.references) * wl.max_steps:
            raise BenchError(f"{name}: step probes saw {len(rnd.report['record']['steps'])} steps")

    e2e = end_to_end(wl, rounds, outcomes, failed, attempted)
    layers = per_layer(wl, rounds, e2e) if trace else {}
    return {
        "name": name,
        "seed": seed,
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "reference_s": reference_s,
        "outcomes": outcomes,
        "references": wl.references,
        "e2e": e2e,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def print_report(res: dict) -> None:
    e2e = res["e2e"]
    print(
        f"== {res['name']}  seed {res['seed']}  rounds {res['rounds']} "
        f"(traced {res['traced_rounds']})  runs {res['attempted']}  "
        f"step samples {e2e['_step_samples']}  references {res['reference_s']:.2f} s"
    )
    for metric, unit in END_TO_END:
        print(f"  {metric:<34} {e2e[metric]:>14.6g} {unit}")
    for out in res["outcomes"]:
        ref = res["references"][out.label]
        gap = abs(out.best_score - ref.value) / abs(ref.value)
        print(f"  best {out.label:<28} {out.best_score:>14.6g}  ref {ref.value:.6g}  gap {gap:.4g}")
    if res["layers"]:
        for metric, unit in PER_LAYER:
            print(f"  {metric:<34} {res['layers'][metric]:>14.6g} {unit}")
        print(f"  traced step time accounted for    {res['layers']['_accounted']:>14.6g} ratio")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


def metric_block(values: dict, names) -> dict:
    return {m: {"value": values[m], "unit": u} for m, u in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "llmize" / "__init__.py").is_file():
        print(f"llmize sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(res)
            results.append(res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        names_units = PER_LAYER
        values = [r["layers"] for r in results]
    else:
        names_units = tuple((m, u) for m, u in END_TO_END if m not in PRINT_ONLY)
        values = [r["e2e"] for r in results]
    if len(results) == 1:
        metrics = metric_block(values[0], names_units)
    else:
        metrics = {
            f"{r['name']}.{m}": block
            for r, v in zip(results, values)
            for m, block in metric_block(v, names_units).items()
        }
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
