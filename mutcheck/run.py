"""Mutation gate: does tier-1 catch each of a table of planted defects?

Each row of ``MUTANTS`` names a one-line defect: a file under ``src/llmize``,
an exact text in it, the text that replaces it, and the defect that stands
for. The runner copies the tree (``src``, ``tests``, ``README.md``,
``pyproject.toml``) into a fresh temporary directory per run and never edits
the working tree. It first runs tier-1 on an unmutated copy and refuses to go
on if that fails. Then, one mutant at a time, it applies the mutant to its own
copy and runs tier-1 with ``-x`` there. A mutant is killed when tier-1 fails;
one at a time, because tier-1's timing tests flake under parallel load and a
flaky failure would pass for a kill.

Exit 1 when a mutant survives, or when a row's text is not found exactly once
(the code moved, so the row must move with it). Otherwise exit 0.

    python3 mutcheck/run.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# A mutant that makes tier-1 hang is caught, but only by this bound.
TIMEOUT_S = 600

# name, file under src/llmize, exact text, replacement, the defect it stands for.
MUTANTS = [
    # Annealing: the Metropolis rule, the cooling schedule, HLMSA's run state.
    ("metropolis-tie", "optimizers.py",
     "    if delta <= 0:\n        return True",
     "    if delta < 0:\n        return True",
     "an equal score goes through the random test instead of being accepted"),
    ("metropolis-exponent", "optimizers.py",
     "math.exp(-delta / sa_temperature)", "math.exp(delta / sa_temperature)",
     "a worsening is accepted more often the larger it is"),
    ("cooling-floor", "optimizers.py",
     "return max(sa_temperature * alpha, math.ulp(0.0))", "return sa_temperature * alpha",
     "the temperature underflows to 0 instead of stopping at the smallest float"),
    ("score-scale-fallback", "optimizers.py",
     "self.top - self.offset or 1.0", "self.top - self.offset or 1e-9",
     "seeds of one score scale score differences up a billionfold"),
    ("points-never-move", "optimizers.py",
     "                points[i] = candidate\n", "                pass\n",
     "an accepted neighbor does not replace its trajectory's point"),
    ("arguments-swapped", "optimizers.py",
     "current_n, proposed_n, temperature, self.direction",
     "proposed_n, current_n, temperature, self.direction",
     "the Metropolis test weighs the current point against the neighbor"),
    ("never-cools", "optimizers.py",
     "self.temperature = cool(temperature, cooling)", "self.temperature = temperature",
     "the model's cooling rate never lowers the temperature"),
    ("records-next-temperature", "optimizers.py",
     "        return temperature, cooling\n", "        return self.temperature, cooling\n",
     "a step records the cooled temperature, not the one it ran at"),
    ("model-rate-ignored", "optimizers.py",
     'clamp_tag(hyperparams.get("cooling_rate"), *self.cooling)',
     "clamp_tag(None, *self.cooling)",
     "the default cooling rate replaces the model's"),
    ("first-seed-everywhere", "optimizers.py",
     "[initial[i % len(initial)] for i in range(config.batch)]",
     "[initial[0] for i in range(config.batch)]",
     "every trajectory starts from the first initial solution"),
    ("overflow-worsening-accepted", "optimizers.py",
     "return self.direction.goodness(proposed) > self.direction.goodness(current)",
     "return True",
     "a worsening too large to normalize as a float is accepted"),
    ("overflowing-range-divides", "optimizers.py",
     "        if math.isfinite(self.scale):\n", "        if True:\n",
     "seeds whose score range overflows normalize every score to 0 or nan"),
    ("prompt-shows-start-points", "optimizers.py",
     "enumerate(state.points)]", "enumerate(state.points[:1] * len(state.points))]",
     "the prompt shows trajectory 0's point on every trajectory line"),
    # The step loop.
    ("no-proposal-retry", "optimizers.py",
     "for calls in (1, 2):", "for calls in (1,):",
     "an unusable proposal aborts the run without its one retry"),
    ("short-batch-accepted", "optimizers.py",
     "len(parsed.candidates) < need:", "len(parsed.candidates) < need - 1:",
     "an hlmsa step runs with one candidate fewer than its trajectories"),
    ("extra-candidates-scored", "optimizers.py",
     "parsed.candidates[: config.batch]", "parsed.candidates",
     "a step scores every block a reply holds, however many more than batch"),
    ("abort-reads-as-finished", "optimizers.py",
     "termination = Termination(TerminationKind.ABORTED, failure)",
     "termination = Termination(TerminationKind.MAX_STEPS, failure)",
     "a failed proposal ends the run as if its step budget ran out"),
    ("mean-overflows", "optimizers.py",
     "return min(max(2.0 * half, min(scores)), max(scores))", "return mean",
     "a step mean of finite scores near the float limit is infinite"),
    # History and best-so-far.
    ("best-tie-replaces", "core.py",
     "if direction.goodness(candidate.score) > direction.goodness(current_best.score):",
     "if direction.goodness(candidate.score) >= direction.goodness(current_best.score):",
     "a tied candidate replaces the incumbent best"),
    ("history-tie-break", "core.py",
     "key = (self.direction.goodness(entry.score), -self._next_seq)",
     "key = (self.direction.goodness(entry.score), self._next_seq)",
     "a later insertion wins a score tie in the history"),
    # Parsing.
    ("keyed-duplicate-key", "core.py",
     "if not sep or key not in self.bounds or key in found:",
     "if not sep or key not in self.bounds:",
     "a keyed block that repeats a key is read with the last value"),
    ("permutation-city-check", "core.py",
     "if set(order) != self._cities:", "if len(set(order)) != self.n:",
     "a permutation naming a city outside 0..n-1 is accepted"),
    ("clamp-passes-nan", "proposer.py",
     "if value is None or not math.isfinite(value):", "if value is None:",
     "a NaN or infinite tag value passes through the clamp"),
    ("first-tag-wins", "proposer.py",
     "hyperparams[tag] = values[-1]", "hyperparams[tag] = values[0]",
     "the first of repeated scalar tags wins instead of the last"),
    # HTTP transport.
    ("no-429-retry", "proposer.py",
     "if 400 <= status < 500 and status != 429:", "if 400 <= status < 500:",
     "a rate-limited request is not retried"),
    ("no-http-retry", "proposer.py",
     "        for _ in range(2):\n", "        for _ in range(1):\n",
     "a failed request is not retried once"),
    # Callbacks.
    ("early-stop-tie-improves", "control.py",
     "goodness(best) - goodness(prev) > min_delta",
     "goodness(best) - goodness(prev) >= min_delta",
     "a gain of exactly min_delta counts as an improvement"),
    ("sampling-ceiling", "control.py",
     "min(ctx.stats.sampling_temperature + bump, ceiling)",
     "ctx.stats.sampling_temperature + bump",
     "adaptive sampling raises the temperature past its ceiling"),
    ("first-temperature-wins", "control.py",
     "return changes[-1] if changes else Continue()",
     "return changes[0] if changes else Continue()",
     "the first temperature change wins instead of the last"),
    # Evaluation, its bounds and its penalties.
    ("command-timeout-dropped", "cli.py",
     "            timeout=timeout,\n", "            timeout=None,\n",
     "an objective command runs past its timeout"),
    ("aborted-batch-no-wait", "evaluation.py",
     "        if isinstance(exc, EvaluationFailed):\n            wait(futures)\n",
     "        if False:\n            wait(futures)\n",
     "an aborted batch returns while its evaluations still run"),
    ("interrupted-batch-waits", "evaluation.py",
     "        if isinstance(exc, EvaluationFailed):\n            wait(futures)\n",
     "        if True:\n            wait(futures)\n",
     "an interrupted batch waits for its running evaluations"),
    # The run's evaluation pool.
    ("pool-per-step", "optimizers.py",
     "evaluate_batch(objective, candidates, config.evaluation, pool)",
     "evaluate_batch(objective, candidates, config.evaluation)",
     "each step starts and joins a thread pool of its own"),
    ("pool-never-ended", "evaluation.py",
     "    pool.shutdown(wait=True)\n", "    pass\n",
     "a run or batch returns with its pool's threads still alive"),
    ("interrupted-pool-waits", "evaluation.py",
     "pool.shutdown(wait=isinstance(exc, EvaluationFailed), cancel_futures=True)",
     "pool.shutdown(wait=True, cancel_futures=True)",
     "an interrupted run waits for its running evaluations"),
    ("non-finite-score-kept", "evaluation.py",
     "            if not math.isfinite(value):\n",
     "            if False:\n",
     "an objective's NaN or infinite score is kept"),
    ("substitute-ignored", "evaluation.py",
     "            return policy.on_error\n", "            return 0.0\n",
     "a failed evaluation scores 0 instead of the policy's substitute"),
    ("lp-penalty-dropped", "benchmarks.py",
     "    return z - LP_PENALTY\n", "    return z\n",
     "an infeasible lp3 point keeps its objective unpenalized"),
    # Size caps.
    ("workers-uncapped", "evaluation.py",
     "if self.workers > MAX_WORKERS:", "if self.workers > 10 * MAX_WORKERS:",
     "workers far above the cap are accepted"),
    ("seed-numbers-uncapped", "benchmarks.py",
     "if count * schema.dim > MAX_SEED_NUMBERS:", "if count > MAX_SEED_NUMBERS:",
     "seeds of many numbers each are drawn for hours"),
    ("grid-numbers-uncapped", "benchmarks.py",
     "if points * schema.dim > MAX_SEED_NUMBERS:", "if points > MAX_SEED_NUMBERS:",
     "a grid over many dimensions draws more numbers than the seed cap"),
    # Config documents.
    ("nested-block-unchecked", "cli.py",
     "        return _block(value, _where(path, key), *kind)\n", "        return value\n",
     "a nested config block is taken with unknown keys and values of any kind"),
    # Charts and the history CSV.
    ("chart-overflows", "svg.py",
     "        if math.isfinite(scaled):\n", "        if True:\n",
     "a chart of scores near the float limit gets nan coordinates"),
    ("chart-labels-unbounded", "svg.py",
     'return _fmt(v) if abs(v) < 1e9 else f"{v:.3e}"', "return _fmt(v)",
     "a chart of scores near the float limit gets 300-character axis labels"),
    ("csv-non-finite-read", "cli.py",
     "    if not math.isfinite(value):\n        raise ValueError(f\"{field.name} must be finite",
     "    if False:\n        raise ValueError(f\"{field.name} must be finite",
     "llmize plot charts a nan or infinite cell"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _python(tree: Path, *args: str, timeout: float | None = None):
    """``python args`` run in ``tree``, importing llmize from its ``src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def _tier1(tree: Path) -> tuple[bool, str, float]:
    """Tier-1 with ``-x`` in ``tree``: whether it passed, the first failure
    named, and the seconds it took."""
    started = time.perf_counter()
    try:
        proc = _python(tree, *TIER1, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - started
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    lines = proc.stdout.strip().splitlines()
    first = failed.group(1) if failed else lines[-1] if lines else f"exit {proc.returncode}"
    return proc.returncode == 0, first, time.perf_counter() - started


def _apply(tree: Path, path: str, text: str, replacement: str) -> None:
    target = tree / "src" / "llmize" / path
    target.write_text(target.read_text().replace(text, replacement, 1))


def main() -> int:
    moved = []
    for name, path, text, _, _ in MUTANTS:
        found = (ROOT / "src" / "llmize" / path).read_text().count(text)
        if found != 1:
            moved.append(f"{name}: its text occurs {found} times in src/llmize/{path}")
    if moved:
        print("\n".join(moved), file=sys.stderr)
        return 1

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_tree(baseline)
        # An installed llmize must not shadow the copy's, or no mutant could be killed.
        imported = _python(baseline, "-c", "import llmize; print(llmize.__file__)").stdout
        if not Path(imported.strip()).resolve().is_relative_to(baseline.resolve()):
            print(f"the copy imports llmize from {imported.strip()}", file=sys.stderr)
            return 1
        passed, first, seconds = _tier1(baseline)
        if not passed:
            print(f"tier-1 fails without a mutant ({first}); no mutant was run", file=sys.stderr)
            return 1
        print(f"unmutated: passed in {seconds:.1f} s", flush=True)
        survivors = []
        for i, (name, path, text, replacement, defect) in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy_tree(tree)
            _apply(tree, path, text, replacement)
            passed, first, seconds = _tier1(tree)
            shutil.rmtree(tree)
            verdict = "SURVIVED" if passed else f"killed by {first}"
            print(f"{name:26} {seconds:6.1f} s  {verdict}", flush=True)
            if passed:
                survivors.append(f"{name}: {defect}")
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived, "
          f"{time.perf_counter() - started:.0f} s in all")
    for line in survivors:
        print(f"survived: {line}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
