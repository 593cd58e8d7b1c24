"""Mutation gate: does tier-1 catch each of a table of planted defects?

Each row of ``MUTANTS`` names a one-line defect: a file under ``src/llmize``,
an exact text in it, the text that replaces it, the tier-1 test that kills it
(its named killer), and the defect that stands for. The runner copies the
tree (``src``, ``tests``, ``README.md``, ``pyproject.toml``) into a fresh
temporary directory per run and never edits the working tree. On an
unmutated copy it runs all of tier-1, then each named killer alone, and
refuses to go on if any fails: a test that fails only on its own cannot pass
for a kill. Then, one mutant at a time, it applies the mutant to its own copy
and runs only the named killer there; the killer's failure is the kill. One
at a time, because tier-1's timing tests flake under parallel load and a
flaky failure would pass for a kill.

Exit 1 when a row's text is not found exactly once (the code moved, so the
row must move with it), or when a named killer passes against its mutant.
For such a row, tier-1 runs with ``-x`` against the mutant to report which
test kills it now, if any, so the row can name it. Otherwise exit 0.

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
# No test uses hypothesis; its pytest plugin, when installed, would cost each
# run about 0.6 s of imports, most of a run of one named killer.
PYTEST = (
    "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
)
# A mutant that makes a test hang is caught, but only by this bound.
TIMEOUT_S = 600

# name, file under src/llmize, exact text, replacement, named killer, the defect.
MUTANTS = [
    # Annealing: the Metropolis rule, the cooling schedule, HLMSA's run state.
    ("metropolis-tie", "optimizers.py",
     "    if delta <= 0:\n        return True",
     "    if delta < 0:\n        return True",
     "tests/test_direction.py::test_accept_candidate",
     "an equal score goes through the random test instead of being accepted"),
    ("metropolis-exponent", "optimizers.py",
     "math.exp(-delta / sa_temperature)", "math.exp(delta / sa_temperature)",
     "tests/test_acceptance.py::test_criterion_03_tsp_hlmsa_matches_bruteforce",
     "a worsening is accepted more often the larger it is"),
    ("cooling-floor", "optimizers.py",
     "return max(sa_temperature * alpha, math.ulp(0.0))", "return sa_temperature * alpha",
     "tests/test_optimizers.py::TestCool::test_bottoms_out_at_the_smallest_positive_float",
     "the temperature underflows to 0 instead of stopping at the smallest float"),
    ("score-scale-fallback", "optimizers.py",
     "self.top - self.offset or 1.0", "self.top - self.offset or 1e-9",
     "tests/test_optimizers.py::TestRunHlmsa::test_seeds_of_one_score_leave_score_differences_unscaled",
     "seeds of one score scale score differences up a billionfold"),
    ("points-never-move", "optimizers.py",
     "                points[i] = candidate\n", "                pass\n",
     "tests/test_digests.py::test_hlmsa_prompt_sequence_matches_pinned_digest",
     "an accepted neighbor does not replace its trajectory's point"),
    ("arguments-swapped", "optimizers.py",
     "current_n, proposed_n, temperature, self.direction",
     "proposed_n, current_n, temperature, self.direction",
     "tests/test_digests.py::test_hlmsa_prompt_sequence_matches_pinned_digest",
     "the Metropolis test weighs the current point against the neighbor"),
    ("never-cools", "optimizers.py",
     "self.temperature = cool(temperature, cooling)", "self.temperature = temperature",
     "tests/test_cli.py::TestCmdRun::test_hlmsa_run_with_sa_block",
     "the model's cooling rate never lowers the temperature"),
    ("records-next-temperature", "optimizers.py",
     "        return temperature, cooling\n", "        return self.temperature, cooling\n",
     "tests/test_cli.py::TestCmdRun::test_hlmsa_run_with_sa_block",
     "a step records the cooled temperature, not the one it ran at"),
    ("model-rate-ignored", "optimizers.py",
     'clamp_tag(hyperparams.get("cooling_rate"), *self.cooling)',
     "clamp_tag(None, *self.cooling)",
     "tests/test_cli.py::TestCmdRun::test_hlmsa_run_with_sa_block",
     "the default cooling rate replaces the model's"),
    ("first-seed-everywhere", "optimizers.py",
     "[initial[i % len(initial)] for i in range(config.batch)]",
     "[initial[0] for i in range(config.batch)]",
     "tests/test_digests.py::test_hlmsa_prompt_sequence_matches_pinned_digest",
     "every trajectory starts from the first initial solution"),
    ("overflow-worsening-accepted", "optimizers.py",
     "return self.direction.goodness(proposed) > self.direction.goodness(current)",
     "return True",
     "tests/test_optimizers.py::TestRunHlmsa::test_normalized_scores_past_the_float_range_still_anneal",
     "a worsening too large to normalize as a float is accepted"),
    ("overflowing-range-divides", "optimizers.py",
     "        if math.isfinite(self.scale):\n", "        if True:\n",
     "tests/test_optimizers.py::TestRunHlmsa::test_acceptance_where_normalizing_overflows",
     "seeds whose score range overflows normalize every score to 0 or nan"),
    ("prompt-shows-start-points", "optimizers.py",
     "enumerate(state.points)]", "enumerate(state.points[:1] * len(state.points))]",
     "tests/test_digests.py::test_hlmsa_prompt_sequence_matches_pinned_digest",
     "the prompt shows trajectory 0's point on every trajectory line"),
    # The step loop.
    ("no-proposal-retry", "optimizers.py",
     "for calls in (1, 2):", "for calls in (1,):",
     "tests/test_invariants.py::test_shapes_cover_every_dimension",
     "an unusable proposal aborts the run without its one retry"),
    ("short-batch-accepted", "optimizers.py",
     "len(parsed.candidates) < need:", "len(parsed.candidates) < need - 1:",
     "tests/test_invariants.py::test_shapes_cover_every_dimension",
     "an hlmsa step runs with one candidate fewer than its trajectories"),
    ("extra-candidates-scored", "optimizers.py",
     "parsed.candidates[: config.batch]", "parsed.candidates",
     "tests/test_optimizers.py::test_a_step_scores_only_the_first_batch_of_a_long_reply",
     "a step scores every block a reply holds, however many more than batch"),
    ("abort-reads-as-finished", "optimizers.py",
     "termination = Termination(TerminationKind.ABORTED, failure)",
     "termination = Termination(TerminationKind.MAX_STEPS, failure)",
     "tests/test_acceptance.py::test_criterion_10_cli_golden_files",
     "a failed proposal ends the run as if its step budget ran out"),
    ("mean-overflows", "optimizers.py",
     "return min(max(2.0 * half, min(scores)), max(scores))", "return mean",
     "tests/test_cli.py::TestCmdRun::test_scores_at_the_float_limit_write_valid_artifacts",
     "a step mean of finite scores near the float limit is infinite"),
    # History and best-so-far.
    ("best-tie-replaces", "core.py",
     "if direction.goodness(candidate.score) > direction.goodness(current_best.score):",
     "if direction.goodness(candidate.score) >= direction.goodness(current_best.score):",
     "tests/test_core.py::TestUpdateBest::test_tie_keeps_incumbent",
     "a tied candidate replaces the incumbent best"),
    ("history-tie-break", "core.py",
     "key = (self.direction.goodness(entry.score), -self._next_seq)",
     "key = (self.direction.goodness(entry.score), self._next_seq)",
     "tests/test_acceptance.py::test_criterion_06_history_property_suite",
     "a later insertion wins a score tie in the history"),
    ("history-reinsert-kept", "core.py",
     "        if old is not key:\n", "        if False:\n",
     "tests/test_core.py::TestHistoryInsert::test_duplicate_payload_replaces_score",
     "a re-inserted payload keeps its old entry beside the new one"),
    ("city-texts-short", "core.py",
     "tuple(map(str, range(len(self.order))))", "tuple(map(str, range(len(self.order) - 1)))",
     "tests/test_core.py::TestCityTexts",
     "the table of city texts is grown one city short of a permutation's size"),
    # Parsing.
    ("keyed-duplicate-key", "core.py",
     "if not sep or key not in self.bounds or key in found:",
     "if not sep or key not in self.bounds:",
     "tests/test_core.py::TestSchemaArguments::test_keyed_block_that_repeats_a_key_is_refused",
     "a keyed block that repeats a key is read with the last value"),
    ("keyed-blank-part-refused", "core.py",
     "            if not part.strip():\n                continue\n", "",
     "tests/test_core.py::TestSchemaArguments::test_keyed_block_with_a_blank_part_is_read",
     "a keyed block with an empty part between or after its commas is rejected"),
    ("keyed-hash-by-identity", "core.py",
     "        return hash(tuple(self.bounds.items()))\n", "        return id(self)\n",
     "tests/test_core.py::TestSchemaArguments::test_equal_keyed_schemas_hash_equal",
     "two equal keyed schemas hash apart, so one cannot find the other in a dict"),
    ("permutation-city-check", "core.py",
     "if set(order) != self._cities:", "if len(set(order)) != self.n:",
     "tests/test_core.py::TestPermutationFastPaths::test_parse_agrees_with_checked_constructor",
     "a permutation naming a city outside 0..n-1 is accepted"),
    ("clamp-passes-nan", "proposer.py",
     "if value is None or not math.isfinite(value):", "if value is None:",
     "tests/test_proposer.py::TestClampTag::test_non_finite_gives_default",
     "a NaN or infinite tag value passes through the clamp"),
    ("first-tag-wins", "proposer.py",
     "hyperparams[tag] = values[-1]", "hyperparams[tag] = values[0]",
     "tests/test_proposer.py::TestSpanContract::test_matches_reference_reader",
     "the first of repeated scalar tags wins instead of the last"),
    # HTTP transport.
    ("no-429-retry", "transport.py",
     "400 <= status < 500 and status != 429:", "400 <= status < 500:",
     "tests/test_proposer.py::TestHttpChatBackend::test_rate_limit_retried_once",
     "a rate-limited request is not retried"),
    ("no-http-retry", "transport.py",
     "        if status == 200 or 400 <= status < 500 and status != 429:\n",
     "        if True:\n",
     "tests/test_acceptance.py::test_criterion_11_http_backend_contract",
     "a request answered with a 5xx is not retried once"),
    ("failed-attempt-final", "transport.py",
     "        except (OSError, ValueError):\n            return self._attempt(body)\n",
     "        except (OSError, ValueError):\n            raise\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_broken_reply_fails_both_attempts",
     "a request whose attempt fails is not retried once"),
    ("short-body-accepted", "transport.py",
     "    if len(data) < size:\n", "    if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_broken_reply_fails_both_attempts",
     "a reply body shorter than its length is taken as the whole body"),
    ("chunk-size-decimal", "transport.py",
     'int(_read_line(reply).split(b";", 1)[0], 16)', 'int(_read_line(reply).split(b";", 1)[0])',
     "tests/test_proposer.py::TestHttpChatBackend::test_chunked_reply_is_decoded",
     "chunk sizes of a chunked reply are read as decimal"),
    ("proxy-variables-ignored", "transport.py",
     "        proxies = _env_proxies()\n", "        proxies = {}\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_proxy_read_at_construction",
     "the *_proxy variables are ignored"),
    ("no-proxy-ignored", "transport.py",
     'if proxy and not _bypasses_proxy(parts.netloc, proxies.get("no", "")):', "if proxy:",
     "tests/test_proposer.py::TestHttpChatBackend::test_no_proxy_entry_bypasses_the_proxy",
     "a host that no_proxy names is still sent through the proxy"),
    ("host-name-unchecked", "transport.py",
     "            self._tls = ssl.create_default_context()\n",
     "            self._tls = ssl.create_default_context()\n"
     "            self._tls.check_hostname = False\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_https_proxy_is_asked_for_a_verified_tunnel",
     "an https endpoint's certificate is not checked against its host name"),
    ("scheme-unchecked", "transport.py",
     'if parts.scheme not in ("http", "https") or not parts.hostname:', "if not parts.hostname:",
     "tests/test_proposer.py::TestHttpChatBackend::test_base_url_needs_http_scheme",
     "an ftp:// base_url is accepted"),
    ("deadline-unchecked", "transport.py",
     "        _arm(self._sock, self._deadline)\n", "",
     "tests/test_proposer.py::TestHttpChatBackend::test_timeout_bounds_a_trickled_reply",
     "a reply that trickles in keeps an attempt running past its timeout"),
    ("conflicting-lengths-accepted", "transport.py",
     ' and name == "content-length":', " and False:",
     "tests/test_proposer.py::TestHttpChatBackend::test_conflicting_content_lengths_fail_both_attempts",
     "a reply with two different Content-Length values is read by the first"),
    ("body-cap-ignored", "transport.py",
     "    if size > left:\n", "    if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_length_over_the_cap_fails_both_attempts_unread",
     "a reply body of any length is read whole into memory"),
    ("status-line-any-version", "transport.py",
     'if not line.startswith(b"HTTP/1.") or status < 100:',
     'if not line.startswith(b"HTTP/") or status < 100:',
     "tests/test_transport.py::test_status_line_must_name_http_1",
     "a reply whose status line names HTTP/2 is read as HTTP/1.1"),
    ("colon-less-header-read", "transport.py",
     "            if not colon:\n", "            if False:\n",
     "tests/test_transport.py::test_header_line_without_a_colon_fails_the_reply",
     "a reply head line without a colon is read as a header"),
    ("api-key-line-break-sent", "transport.py",
     '        if token and ("\\r" in token or "\\n" in token):\n', "        if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_api_key_with_a_line_break_is_never_sent",
     "an API key with a line break is written into the request head"),
    ("api-key-control-sent", "transport.py",
     '        if token and re.search(r"[\\x00-\\x08\\x0a-\\x1f\\x7f]", token):\n',
     "        if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend"
     "::test_api_key_with_a_control_character_is_refused_naming_the_key",
     "an API key with a NUL, DEL or other control character is written into the request head"),
    ("tunnel-refusal-ignored", "transport.py",
     "                if status != 200:\n", "                if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_refused_tunnel_fails_both_attempts",
     "a proxy's refusal of a CONNECT tunnel is read as its acceptance"),
    ("proxy-without-host-accepted", "transport.py",
     "            if not via.hostname:\n", "            if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_proxy_variable_without_a_host_is_refused",
     "a proxy variable that names no host is taken as a proxy"),
    ("empty-proxy-variable-kept", "transport.py",
     "                proxies.pop(name[:-6].lower(), None)\n", "                pass\n",
     "tests/test_proposer.py::TestHttpChatBackend::test_proxy_variable_names"
     "[empty-lower-case-unsets]",
     "an empty lower-case *_proxy variable leaves the upper-case one in force"),
    ("spent-deadline-armed", "transport.py",
     "    if left <= 0:\n", "    if False:\n",
     "tests/test_transport.py::test_arm_past_its_deadline_times_out",
     "a socket is armed with no time left instead of timing out"),
    ("api-key-outside-latin-1-unnamed", "transport.py",
     '        if token and max(token) > "\\xff":\n', "        if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend"
     "::test_api_key_outside_latin_1_is_refused_naming_the_key",
     "an API key outside Latin-1 fails with an encoding error that names no key"),
    ("base-url-outside-latin-1-unnamed", "transport.py",
     '        if max(base_url) > "\\xff":\n', "        if False:\n",
     "tests/test_proposer.py::TestHttpChatBackend"
     "::test_base_url_outside_latin_1_is_refused_naming_the_key",
     "a base_url outside Latin-1 fails with an encoding error that names no key"),
    ("fold-read-as-field", "transport.py",
     '            if line[:1] in b" \\t":\n', "            if False:\n",
     "tests/test_transport.py::test_folded_line_goes_on_with_the_field_before_it",
     "a folded header line is read as a field line of its own"),
    ("fold-without-field-skipped", "transport.py",
     "                if not pairs:\n                    raise",
     "                if not pairs:\n                    continue\n                    raise",
     "tests/test_transport.py::test_fold_with_no_field_before_it_fails_the_reply",
     "a folded line with no field line before it is skipped"),
    ("space-before-colon-accepted", "transport.py",
     "            if name != name.rstrip():\n", "            if False:\n",
     "tests/test_transport.py::test_whitespace_before_a_colon_fails_the_reply",
     "a field line with whitespace before its colon is read"),
    # Callbacks.
    ("early-stop-tie-improves", "control.py",
     "goodness(best) - goodness(prev) > min_delta",
     "goodness(best) - goodness(prev) >= min_delta",
     "tests/test_acceptance.py::test_criterion_09_callback_traces",
     "a gain of exactly min_delta counts as an improvement"),
    ("sampling-ceiling", "control.py",
     "min(temperature + bump, ceiling)", "temperature + bump",
     "tests/test_acceptance.py::test_criterion_09_callback_traces",
     "adaptive sampling raises the temperature past its ceiling"),
    ("adaptive-lowers", "control.py",
     " and temperature < ceiling:", ":",
     "tests/test_control.py::TestAdaptiveSampling"
     "::test_never_lowers_a_temperature_at_or_above_its_ceiling",
     "adaptive sampling lowers a temperature above its ceiling to the ceiling"),
    ("first-temperature-wins", "control.py",
     "return changes[-1] if changes else Continue()",
     "return changes[0] if changes else Continue()",
     "tests/test_control.py::TestResolveActions::test_last_temperature_wins",
     "the first temperature change wins instead of the last"),
    # Evaluation, its bounds and its penalties.
    ("command-timeout-dropped", "evaluation.py",
     "            timeout=timeout,\n", "            timeout=None,\n",
     "tests/test_evaluation.py::test_timeout_cuts_short_a_command_that_would_finish",
     "an objective command runs past its timeout"),
    ("aborted-batch-no-wait", "evaluation.py",
     "        if isinstance(exc, EvaluationFailed):\n            wait(futures)\n",
     "        if False:\n            wait(futures)\n",
     "tests/test_evaluation.py::test_aborted_batch_on_a_given_pool_waits_and_leaves_it_open",
     "an aborted batch returns while its evaluations still run"),
    ("interrupted-batch-waits", "evaluation.py",
     "        if isinstance(exc, EvaluationFailed):\n            wait(futures)\n",
     "        if True:\n            wait(futures)\n",
     "tests/test_evaluation.py::test_interrupted_batch_on_a_given_pool_starts_nothing_after_it",
     "an interrupted batch waits for its running evaluations"),
    # The run's evaluation pool.
    ("pool-per-step", "optimizers.py",
     "evaluate_batch(objective, candidates, config.evaluation, pool)",
     "evaluate_batch(objective, candidates, config.evaluation)",
     "tests/test_optimizers.py::TestRunPool::test_steps_share_one_pool_ended_with_the_run",
     "each step starts and joins a thread pool of its own"),
    ("pool-never-ended", "evaluation.py",
     "    pool.shutdown(wait=True)\n", "    pass\n",
     "tests/test_evaluation.py::test_batch_returns_with_its_pool_threads_ended",
     "a run or batch returns with its pool's threads still alive"),
    ("interrupted-pool-waits", "evaluation.py",
     "pool.shutdown(wait=isinstance(exc, EvaluationFailed), cancel_futures=True)",
     "pool.shutdown(wait=True, cancel_futures=True)",
     "tests/test_optimizers.py::TestRunPool::test_interrupted_run_leaves_at_once",
     "an interrupted run waits for its running evaluations"),
    ("non-finite-score-kept", "evaluation.py",
     "            if not math.isfinite(value):\n",
     "            if False:\n",
     "tests/test_evaluation.py::test_non_finite_score_is_a_failure",
     "an objective's NaN or infinite score is kept"),
    ("substitute-ignored", "evaluation.py",
     "            return policy.on_error\n", "            return 0.0\n",
     "tests/test_evaluation.py::test_penalty_substitution_continues",
     "a failed evaluation scores 0 instead of the policy's substitute"),
    ("lp-penalty-dropped", "benchmarks.py",
     "    return z - LP_PENALTY\n", "    return z\n",
     "tests/test_acceptance.py::test_criterion_02_lp_benchmark",
     "an infeasible lp3 point keeps its objective unpenalized"),
    # Size caps.
    ("workers-uncapped", "evaluation.py",
     "if self.workers > MAX_WORKERS:", "if self.workers > 10 * MAX_WORKERS:",
     "tests/test_cli.py::test_non_finite_or_out_of_range_number_names_its_key",
     "workers far above the cap are accepted"),
    ("seed-numbers-uncapped", "benchmarks.py",
     "if count * schema.dim > MAX_SEED_NUMBERS:", "if count > MAX_SEED_NUMBERS:",
     "tests/test_cli.py::test_size_no_run_can_use_is_refused_in_one_line",
     "seeds of many numbers each are drawn for hours"),
    ("grid-numbers-uncapped", "benchmarks.py",
     "if points * schema.dim > MAX_SEED_NUMBERS:", "if points > MAX_SEED_NUMBERS:",
     "tests/test_cli.py::test_size_no_run_can_use_is_refused_in_one_line",
     "a grid over many dimensions draws more numbers than the seed cap"),
    # Config documents.
    ("nested-block-unchecked", "cli.py",
     "        return _block(value, _where(path, key), *kind)\n", "        return value\n",
     "tests/test_cli.py::TestCmdRun::test_mistyped_value_is_config_error",
     "a nested config block is taken with unknown keys and values of any kind"),
    # Charts and the history CSV.
    ("chart-overflows", "svg.py",
     "        if math.isfinite(scaled):\n", "        if True:\n",
     "tests/test_cli.py::TestCmdPlot::test_chart_of_scores_at_the_float_limit_stays_in_its_box",
     "a chart of scores near the float limit gets nan coordinates"),
    ("chart-labels-unbounded", "svg.py",
     'return _fmt(v) if abs(v) < 1e9 else f"{v:.3e}"', "return _fmt(v)",
     "tests/test_cli.py::TestCmdPlot::test_chart_of_scores_at_the_float_limit_stays_in_its_box",
     "a chart of scores near the float limit gets 300-character axis labels"),
    ("csv-non-finite-read", "cli.py",
     "    if not math.isfinite(value):\n        raise ValueError(f\"{field.name} must be finite",
     "    if False:\n        raise ValueError(f\"{field.name} must be finite",
     "tests/test_cli.py::TestCmdPlot::test_bad_csv_named",
     "llmize plot charts a nan or infinite cell"),
    # Output directories.
    ("created-dir-left", "cli.py",
     "            directory.rmdir()\n", "            pass\n",
     "tests/test_cli.py::TestCmdRun::test_seed_abort_removes_the_directories_it_created",
     "an interrupted or seed-aborted run leaves the empty directories it created"),
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


def _pytest(tree: Path, *tests: str) -> tuple[bool, str, float]:
    """``tests`` (all of tier-1 when none is given) with ``-x`` in ``tree``:
    whether they passed, the first failure named, and the seconds they took."""
    started = time.perf_counter()
    try:
        proc = _python(tree, *PYTEST, *tests, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - started
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    lines = proc.stdout.strip().splitlines()
    first = failed.group(1) if failed else lines[-1] if lines else f"exit {proc.returncode}"
    return proc.returncode == 0, first, time.perf_counter() - started


def _apply(tree: Path, path: str, text: str, replacement: str) -> None:
    target = tree / "src" / "llmize" / path
    target.write_text(target.read_text().replace(text, replacement, 1))


def moved_rows() -> list[str]:
    """Each row whose text does not occur exactly once in its file, named."""
    moved = []
    for name, path, text, *_ in MUTANTS:
        found = (ROOT / "src" / "llmize" / path).read_text().count(text)
        if found != 1:
            moved.append(f"{name}: its text occurs {found} times in src/llmize/{path}")
    return moved


def main() -> int:
    moved = moved_rows()
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
        passed, first, seconds = _pytest(baseline)
        if not passed:
            print(f"tier-1 fails without a mutant ({first}); no mutant was run", file=sys.stderr)
            return 1
        print(f"unmutated: passed in {seconds:.1f} s", flush=True)
        alone_started = time.perf_counter()
        for killer in dict.fromkeys(row[4] for row in MUTANTS):
            passed, first, _ = _pytest(baseline, killer)
            if not passed:
                print(f"{killer} fails alone without a mutant ({first}); no mutant was run",
                      file=sys.stderr)
                return 1
        print(f"named killers alone: passed in {time.perf_counter() - alone_started:.1f} s",
              flush=True)
        failures = []
        for i, (name, path, text, replacement, killer, defect) in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy_tree(tree)
            _apply(tree, path, text, replacement)
            passed, first, seconds = _pytest(tree, killer)
            if passed:
                tier1, now, _ = _pytest(tree)
                verdict = "SURVIVED tier-1" if tier1 else f"killed by {now}, not its named killer"
                failures.append(f"{name}: {killer} passes against it ({defect}); {verdict}")
            else:
                verdict = f"killed by {first}"
            shutil.rmtree(tree)
            print(f"{name:28} {seconds:6.1f} s  {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(failures)} not killed by their named killer, "
          f"{time.perf_counter() - started:.0f} s in all")
    for line in failures:
        print(f"not killed: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
