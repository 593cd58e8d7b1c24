import copy
import errno
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from llmize import StepStats, cli, optimizers
from llmize.cli import HISTORY_CSV_HEADER, main
from llmize.evaluation import evaluate_batch
from llmize.svg import render_history_chart

from conftest import live_processes, time_bound


def run_cli(*args):
    return main([str(a) for a in args])


TOP = sys.float_info.max


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def write_config(path: Path, **overrides):
    doc = {
        "strategy": "opro",
        "benchmark": "convex2d",
        "backend": {"kind": "perturb", "seed": 7},
        "max_steps": 15,
        "batch": 8,
        "history_capacity": 16,
        "rng_seed": 7,
        "callbacks": {"target_stop": {"target": 7.95}},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return path


def write_keyed_problem(path: Path, bounds):
    return write_schema_problem(path, {"kind": "keyed_scalars", "bounds": bounds})


def write_schema_problem(path: Path, schema: dict):
    path.write_text(
        json.dumps(
            {
                "strategy": "opro",
                "problem": {
                    "description": "d",
                    "direction": "minimize",
                    "schema": schema,
                    "objective_command": ["/nonexistent/evaluator"],
                },
                "backend": {"kind": "perturb", "seed": 1},
                "seeding": {"style": "uniform", "count": 2},
            }
        )
    )
    return path


class TestCmdRun:
    def test_happy_path_writes_three_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", output_dir=str(tmp_path / "out"))
        assert run_cli("run", config) == 0
        for artifact in ("result.json", "history.csv", "plot.svg"):
            assert (tmp_path / "out" / artifact).exists()
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("best=")
        assert "termination=" in summary

    def test_unknown_key_named_with_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json")
        doc = json.loads(config.read_text())
        doc["bacth"] = 8
        config.write_text(json.dumps(doc, indent=2))
        assert run_cli("run", config) == 1
        assert "bacth" in capsys.readouterr().err

    def test_short_transcript_aborts_with_exit_2(self, tmp_path, capsys):
        transcript = tmp_path / "script.json"
        transcript.write_text(json.dumps(["<solution>2.5, 0.1</solution>"]))
        config = write_config(
            tmp_path / "run.json",
            backend={"kind": "scripted", "transcript": str(transcript)},
            max_steps=5,
            batch=1,
            callbacks={},
            output_dir=str(tmp_path / "out"),
        )
        assert run_cli("run", config) == 2
        assert "termination=aborted" in capsys.readouterr().out

    def test_reused_output_directory_keeps_no_stale_chart(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("bench", "tsp", "--n", 7, "--max-steps", 5, "--out", out) == 0
        assert (out / "plot.svg").exists() and (out / "tour.svg").exists()
        transcript = tmp_path / "script.json"
        transcript.write_text(json.dumps(["junk"]))
        config = write_config(
            tmp_path / "run.json",
            backend={"kind": "scripted", "transcript": str(transcript)},
            callbacks={},
            output_dir=str(out),
        )
        assert run_cli("run", config) == 2
        assert json.loads((out / "result.json").read_text())["steps"] == []
        assert sorted(p.name for p in out.iterdir()) == ["history.csv", "result.json"]

    def test_missing_config_exit_1(self, tmp_path, capsys):
        assert run_cli("run", tmp_path / "absent.json") == 1

    def test_invalid_json_names_line(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{\n  "strategy": "opro",\n  oops\n}\n')
        assert run_cli("run", config) == 1
        assert "line 3" in capsys.readouterr().err

    def test_invalid_value_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", max_steps=0)
        assert run_cli("run", config) == 1
        assert "max_steps" in capsys.readouterr().err

    def test_http_base_url_without_scheme_is_config_error(self, tmp_path, capsys, monkeypatch):
        backend = {"kind": "http", "model": "m1", "base_url": "localhost:8000/v1"}
        config = write_config(tmp_path / "run.json", backend=backend)
        assert run_cli("run", config) == 1
        assert "base_url" in capsys.readouterr().err
        monkeypatch.setenv("LLMIZE_BASE_URL", "localhost:8000/v1")
        config = write_config(tmp_path / "run.json", backend={"kind": "http", "model": "m1"})
        assert run_cli("run", config) == 1
        assert "base_url" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds",
        [None, [[0, 1]], {"u": {"a": 1}}, {"u": [0]}, {"u": [0, 1, 2]}],
        ids=["null", "array", "object-value", "one-number", "three-numbers"],
    )
    def test_keyed_bounds_shape_is_config_error(self, bounds, tmp_path, capsys):
        config = write_keyed_problem(tmp_path / "run.json", bounds)
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "problem.schema.bounds" in err

    @pytest.mark.parametrize("pair", [[0, math.inf], [math.nan, 1], [-math.inf, 0]])
    def test_non_finite_keyed_bound_is_config_error(self, pair, tmp_path, capsys):
        config = write_keyed_problem(tmp_path / "run.json", {"u": pair})
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "finite" in err

    @pytest.mark.parametrize(
        "schema, names",
        [
            ({"kind": "permutation", "n": 4.9}, "integer"),
            ({"kind": "permutation", "n": "7"}, "integer"),
            ({"kind": "permutation", "n": 7.0}, "integer"),
            ({"kind": "permutation", "n": True}, "integer"),
            ({"kind": "real_vector", "lower": True, "upper": [1]}, "problem.schema.lower"),
            ({"kind": "real_vector", "lower": "01", "upper": [1, 1]}, "problem.schema.lower"),
            ({"kind": "real_vector", "lower": [0, "0"], "upper": [1, 1]}, "problem.schema.lower"),
            ({"kind": "real_vector", "lower": {"a": 0}, "upper": [1]}, "problem.schema.lower"),
            ({"kind": "real_vector", "lower": [0], "upper": [True]}, "problem.schema.upper"),
            ({"kind": "real_vector", "lower": [0], "upper": None}, "problem.schema.upper"),
            ({"kind": "real_vector", "lower": [0], "upper": [[1]]}, "problem.schema.upper"),
            ({"kind": "keyed_scalars", "bounds": {"a,b": [0, 1], "c": [0, 1]}}, "'a,b'"),
            ({"kind": "keyed_scalars", "bounds": {"x=y": [0, 1]}}, "'x=y'"),
            ({"kind": "keyed_scalars", "bounds": {"two  spaces": [0, 1]}}, "single spaces"),
            ({"kind": "keyed_scalars", "bounds": {" lead": [0, 1]}}, "single spaces"),
            ({"kind": "keyed_scalars", "bounds": {"tab\there": [0, 1]}}, "single spaces"),
            ({"kind": "keyed_scalars", "bounds": {"x in [y": [0, 1]}}, "' in ['"),
            ({"kind": "keyed_scalars", "bounds": {"a</solution>": [0, 1]}}, "'<', '>'"),
            ({"kind": "permutation", "n": 4, "lower": [0]}, "unknown key problem.schema.lower"),
            ({"kind": "real_vector", "lower": [0], "upper": [1], "n": 1},
             "unknown key problem.schema.n"),
            ({"kind": "keyed_scalars", "bounds": {"u": [0, 1]}, "n": 1},
             "unknown key problem.schema.n"),
        ],
        ids=[
            "n-fraction", "n-string", "n-float", "n-bool",
            "lower-bool", "lower-string", "lower-string-item", "lower-object",
            "upper-bool-item", "upper-null", "upper-nested",
            "key-comma", "key-equals", "key-double-space", "key-leading-space", "key-tab",
            "key-bound-marker", "key-closing-tag",
            "permutation-lower", "real-vector-n", "keyed-scalars-n",
        ],
    )
    def test_bad_schema_shape_is_config_error(self, schema, names, tmp_path, capsys):
        config = write_schema_problem(tmp_path / "run.json", schema)
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and names in err

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"a,b": [0, 1]}, "problem.schema.bounds key 'a,b' must be words"),
            ({"a": [2, 1]}, "problem.schema.bounds key 'a' must have finite bounds"),
            ({}, "problem.schema.bounds keys must not be empty"),
        ],
        ids=["key-comma", "lower-above-upper", "no-keys"],
    )
    def test_keyed_scalars_error_names_bounds_key(self, bounds, message, tmp_path, capsys):
        config = write_keyed_problem(tmp_path / "run.json", bounds)
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"max_steps": 3.7}, "max_steps"),
            ({"batch": "4"}, "batch"),
            ({"history_capacity": True}, "history_capacity"),
            ({"rng_seed": 2.5}, "rng_seed"),
            ({"backend": {"kind": "perturb", "seed": 1.9}}, "backend.seed"),
            ({"seeding": {"count": 2.9}}, "seeding.count"),
            ({"callbacks": {"early_stopping": {"patience": 2.5}}},
             "callbacks.early_stopping.patience"),
            ({"sampling": {"model_temperature": "0.5"}}, "sampling.model_temperature"),
            ({"backend": {"kind": "perturb", "seed": 1, "step_scale": "0.2"}},
             "backend.step_scale"),
            ({"callbacks": {"target_stop": {"target": "7.95"}}}, "callbacks.target_stop.target"),
            ({"strategy": "hlmsa", "sa": {"cooling_bounds": 5}}, "sa.cooling_bounds"),
            ({"strategy": "hlmsa", "sa": {"cooling_bounds": "ab"}}, "sa.cooling_bounds"),
            ({"strategy": "hlmsa", "sa": {"cooling_bounds": [0.6]}}, "sa.cooling_bounds"),
            ({"strategy": "hlmsa", "sa": {"cooling_bounds": [0.6, "0.9"]}}, "sa.cooling_bounds"),
            ({"strategy": "sgd"}, "strategy"),
            ({"seeding": {"style": ["grid"]}}, "seeding.style"),
            ({"output_dir": 5}, "output_dir"),
            ({"backend": {"kind": "perturb", "seed": 1, "step_scale": math.nan}},
             "backend.step_scale"),
            ({"backend": {"kind": "perturb", "seed": 1, "step_scale": math.inf}},
             "backend.step_scale"),
            ({"callbacks": {"early_stopping": {"patience": 2, "min_delta": math.nan}}},
             "callbacks.early_stopping.min_delta"),
            ({"callbacks": {"adaptive_sampling": {"stagnation_window": 2, "bump": math.nan}}},
             "callbacks.adaptive_sampling.bump"),
            ({"backend": {"kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1",
                          "timeout": math.inf}},
             "backend.timeout"),
        ],
        ids=[
            "max-steps-fraction", "batch-string", "history-capacity-bool", "rng-seed-fraction",
            "backend-seed-fraction", "seeding-count-fraction", "patience-fraction",
            "model-temperature-string", "step-scale-string", "target-string",
            "cooling-bounds-number", "cooling-bounds-string", "cooling-bounds-short",
            "cooling-bounds-string-item", "strategy-unknown", "seeding-style-array",
            "output-dir-number", "step-scale-nan", "step-scale-infinity", "min-delta-nan",
            "bump-nan", "timeout-infinity",
        ],
    )
    def test_mistyped_value_is_config_error(self, overrides, where, tmp_path, capsys):
        overrides = {"output_dir": str(tmp_path / "out"), **overrides}
        config = write_config(tmp_path / "run.json", **overrides)
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{where} must be" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"strategy": "hlmsa", "sa": {"initial_temperature": -1}}, "sa.initial_temperature"),
            ({"strategy": "hlmsa", "sa": {"default_cooling": 0.3}}, "sa.default_cooling"),
            ({"seeding": {"count": 0}}, "seeding.count"),
            ({"sampling": {"model_temperature": 3}}, "sampling.model_temperature"),
            ({"backend": {"kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1",
                          "timeout": 0}},
             "backend.timeout"),
            ({"callbacks": {"early_stopping": {"patience": 0}}},
             "callbacks.early_stopping.patience"),
            ({"backend": {"kind": "http", "model": "", "base_url": "http://127.0.0.1:9/v1"}},
             "backend.model"),
            ({"backend": {"kind": "http", "model": "m1", "base_url": "localhost:8000/v1"}},
             "backend.base_url"),
            ({"benchmark": "tsp", "benchmark_params": {"n": 1}}, "benchmark_params.n"),
            ({"benchmark": None, "seeding": {"style": "uniform"},
              "problem": {"description": "d", "direction": "minimize", "objective_command": ["x"],
                          "schema": {"kind": "permutation", "n": 1}}},
             "problem.schema.n"),
            ({"benchmark": None, "seeding": {"style": "uniform"},
              "problem": {"description": " ", "direction": "minimize", "objective_command": ["x"],
                          "schema": {"kind": "permutation", "n": 3}}},
             "problem.description"),
            ({"workers": 0}, "workers"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"backend": {"kind": "perturb", "seed": -1}}, "backend.seed"),
            ({"seeding": {"seed": -1}}, "seeding.seed"),
            ({"benchmark": "tsp", "benchmark_params": {"seed": -1}}, "benchmark_params.seed"),
            ({"benchmark": None, "seeding": {"style": "uniform"},
              "problem": {"description": "d", "direction": "minimize", "objective_command": ["x"],
                          "schema": {"kind": "real_vector", "lower": [3], "upper": [1]}}},
             "problem.schema.lower"),
        ],
        ids=[
            "initial-temperature-negative", "default-cooling-outside-bounds", "seeding-count-zero",
            "model-temperature-too-high", "timeout-zero", "patience-zero", "model-empty",
            "base-url-without-scheme", "tsp-n-one", "permutation-n-one", "description-blank",
            "workers-zero", "rng-seed-negative", "backend-seed-negative", "seeding-seed-negative",
            "tsp-seed-negative", "lower-above-upper",
        ],
    )
    def test_out_of_range_value_names_its_key(self, overrides, where, tmp_path, capsys):
        overrides = {"output_dir": str(tmp_path / "out"), **overrides}
        config = write_config(tmp_path / "run.json", **overrides)
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{where} must" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"backend": {"kind": "perturb", "seed": 1, "model": "m1"}}, "backend.model"),
            ({"backend": {"kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1",
                          "step_scale": 0.2}}, "backend.step_scale"),
            ({"backend": {"kind": "scripted", "transcript": "replies.json", "timeout": 3}},
             "backend.timeout"),
            ({"strategy": "hlmsa", "sa": {"seed": 1}}, "sa.seed"),
        ],
        ids=["perturb-model", "http-step-scale", "scripted-timeout", "sa-seed"],
    )
    def test_key_nothing_reads_is_named_by_path(
        self, overrides, where, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "replies.json").write_text(json.dumps(["<solution>1, 2</solution>"] * 3))
        config = write_config(
            tmp_path / "run.json", max_steps=1, output_dir=str(tmp_path / "out"), **overrides
        )
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"unknown key {where};" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "transcript, message",
        [
            (None, "cannot read transcript: "),
            ('["<solution>1, 2</solution>",', "transcript is not valid JSON: "),
            ('["<solution>1, 2</solution>", 3]', "transcript must be a JSON array of strings"),
        ],
        ids=["unreadable", "invalid-json", "not-strings"],
    )
    def test_bad_transcript_is_config_error(self, transcript, message, tmp_path, capsys):
        path = tmp_path / "replies.json"
        if transcript is not None:
            path.write_text(transcript)
        config = write_config(
            tmp_path / "run.json", backend={"kind": "scripted", "transcript": str(path)},
            output_dir=str(tmp_path / "out"),
        )
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not (tmp_path / "out").exists()

    def test_unknown_benchmark_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", benchmark="nosuch")
        assert run_cli("run", config) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "unknown benchmark 'nosuch'" in err
        for name in ("convex2d", "lp3", "tsp"):
            assert name in err

    def test_output_dir_that_cannot_be_made_fails_before_any_evaluation(
        self, tmp_path, capsys
    ):
        # The objective appends a line to ``calls`` each time it scores a candidate.
        calls = tmp_path / "calls.txt"
        count = "import sys; open(sys.argv[1], 'a').write('x\\n'); print(float(input()))"
        problem = {
            "description": "d",
            "direction": "minimize",
            "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
            "objective_command": ["python3", "-c", count, str(calls)],
        }
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        out = blocker / "out"
        settings = dict(
            benchmark=None, problem=problem, seeding={"style": "uniform", "count": 2},
            max_steps=1, batch=1, callbacks={},
        )
        config = write_config(tmp_path / "run.json", output_dir=str(out), **settings)
        assert run_cli("run", config) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot create output directory {out}: ")
        assert captured.out == ""
        assert not calls.exists()
        # The same run with a directory it can make scores the seeds and the step.
        config = write_config(tmp_path / "run.json", output_dir=str(tmp_path / "out"), **settings)
        assert run_cli("run", config) == 0
        assert calls.read_text() == "x\n" * 3

    def test_a_bug_is_not_reported_as_a_config_error(self, tmp_path, monkeypatch):
        def broken(doc):
            raise ValueError("not a config error")

        monkeypatch.setattr(cli, "build_plan", broken)
        with pytest.raises(ValueError, match="not a config error"):
            run_cli("run", write_config(tmp_path / "run.json"))

    def test_seeds_and_steps_share_one_evaluation_policy(self, tmp_path, monkeypatch):
        seen = {"seeds": [], "steps": []}

        def recorder(phase):
            def recording(objective, candidates, policy, pool=None):
                seen[phase].append(policy)
                return evaluate_batch(objective, candidates, policy, pool)

            return recording

        monkeypatch.setattr(cli, "evaluate_batch", recorder("seeds"))
        monkeypatch.setattr(optimizers, "evaluate_batch", recorder("steps"))
        config = write_config(
            tmp_path / "run.json", workers=2, max_steps=2, callbacks={},
            output_dir=str(tmp_path / "out"),
        )
        assert run_cli("run", config) == 0
        (policy,) = seen["seeds"]
        assert policy.workers == 2
        assert len(seen["steps"]) == 2
        assert all(step is policy for step in seen["steps"])

    def test_broken_objective_command_aborts(self, tmp_path, capsys):
        config_path = tmp_path / "broken_cmd.json"
        config_path.write_text(
            json.dumps(
                {
                    "strategy": "opro",
                    "problem": {
                        "description": "d",
                        "direction": "minimize",
                        "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
                        "objective_command": ["/nonexistent/evaluator"],
                    },
                    "backend": {"kind": "perturb", "seed": 1},
                    "max_steps": 2,
                    "seeding": {"style": "uniform", "count": 2},
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert run_cli("run", config_path) == 2
        assert "initial samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "in_document, message",
        [
            (True, ": backend.api_key must be one line"),
            (False, ": backend: api_key from LLMIZE_API_KEY must be one line"),
        ],
        ids=["api-key", "env"],
    )
    def test_api_key_with_a_line_break_ends_the_run_before_any_evaluation(
        self, in_document, message, tmp_path, capsys, monkeypatch
    ):
        key = "k\r\nX-Injected: 1"
        marker = tmp_path / "evaluated"
        backend = {"kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1"}
        if in_document:
            backend["api_key"] = key
        else:
            monkeypatch.setenv("LLMIZE_API_KEY", key)
        program = f"open({str(marker)!r}, 'w').close(); print(1.0)"
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "strategy": "opro",
            "problem": {
                "description": "d",
                "direction": "minimize",
                "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
                "objective_command": [sys.executable, "-c", program],
            },
            "backend": backend,
            "max_steps": 1,
            "seeding": {"style": "uniform", "count": 2},
            "output_dir": str(tmp_path / "out"),
        }))
        assert run_cli("run", config_path) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error in {config_path}{message}"]
        assert not marker.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, variable, message",
        [
            ("api_key", None, ": backend.api_key must be Latin-1 text"),
            ("api_key", "LLMIZE_API_KEY",
             ": backend: api_key from LLMIZE_API_KEY must be Latin-1 text"),
            ("base_url", None, ": backend.base_url must be Latin-1 text: 'http://ключ.example/v1'"),
            ("base_url", "LLMIZE_BASE_URL",
             ": backend: base_url from LLMIZE_BASE_URL must be Latin-1 text: 'http://ключ.example/v1'"),
        ],
        ids=["api-key", "api-key-env", "base-url", "base-url-env"],
    )
    def test_key_or_url_outside_latin_1_ends_the_run_before_any_evaluation(
        self, key, variable, message, tmp_path, capsys, monkeypatch
    ):
        value = {"api_key": "ключ", "base_url": "http://ключ.example/v1"}[key]
        marker = tmp_path / "evaluated"
        backend = {"kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1"}
        if variable:
            backend.pop(key, None)
            monkeypatch.setenv(variable, value)
        else:
            backend[key] = value
        program = f"open({str(marker)!r}, 'w').close(); print(1.0)"
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "strategy": "opro",
            "problem": {
                "description": "d",
                "direction": "minimize",
                "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
                "objective_command": [sys.executable, "-c", program],
            },
            "backend": backend,
            "max_steps": 1,
            "seeding": {"style": "uniform", "count": 2},
            "output_dir": str(tmp_path / "out"),
        }))
        assert run_cli("run", config_path) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error in {config_path}{message}"]
        assert not marker.exists()
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _abort_while_seeding(tmp_path, out_dir):
        schema = {"kind": "real_vector", "lower": [0.0], "upper": [1.0]}
        config = write_schema_problem(tmp_path / "run.json", schema)
        config.write_text(json.dumps({**json.loads(config.read_text()), "output_dir": str(out_dir)}))
        return run_cli("run", config)

    def test_seed_abort_removes_the_directories_it_created(self, tmp_path, capsys):
        assert self._abort_while_seeding(tmp_path, tmp_path / "out" / "a" / "b") == 2
        assert "initial samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output_dir", ["out", "out/a/b"])
    def test_seed_abort_keeps_an_empty_directory_that_existed(self, tmp_path, output_dir):
        (tmp_path / "out").mkdir()
        assert self._abort_while_seeding(tmp_path, tmp_path / output_dir) == 2
        assert list((tmp_path / "out").iterdir()) == []

    def test_interrupt_ends_the_run_in_one_line(self, tmp_path, process_marker):
        started = tmp_path / "started"
        program = "import pathlib, sys, time; pathlib.Path(sys.argv[1]).touch(); time.sleep(30)"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "strategy": "opro",
            "problem": {
                "description": "d",
                "direction": "minimize",
                "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
                "objective_command": [sys.executable, "-c", program, str(started), process_marker],
            },
            "backend": {"kind": "perturb", "seed": 1},
            "seeding": {"style": "uniform", "count": 2},
            "output_dir": str(tmp_path / "out"),
        }))
        # SIGINT is set to raise KeyboardInterrupt even where the test runner
        # was started with it ignored, as a background job is.
        launch = (
            "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
            "from llmize.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-c", launch, "run", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        ) as proc:
            try:
                deadline = time.monotonic() + 30
                while not started.exists() and proc.poll() is None and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert started.exists()
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=10)
            finally:
                proc.kill()
        assert proc.returncode == 130
        assert "Traceback" not in err
        assert err.splitlines() == ["interrupted: the run stopped and wrote nothing"]
        assert not (tmp_path / "out" / "result.json").exists()
        assert not (tmp_path / "out").exists()
        deadline = time.monotonic() + 1
        while live_processes(process_marker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_processes(process_marker) == []

    def test_custom_problem_with_command_objective(self, tmp_path, capsys):
        score_script = tmp_path / "score.py"
        # Reads "a, b" from stdin, prints (a-1)^2 + (b-2)^2.
        score_script.write_text(
            "import sys\n"
            "vals = [float(t) for t in sys.stdin.read().split(',')]\n"
            "print((vals[0] - 1.0) ** 2 + (vals[1] - 2.0) ** 2)\n"
        )
        config_path = tmp_path / "custom.json"
        config_path.write_text(
            json.dumps(
                {
                    "strategy": "opro",
                    "problem": {
                        "description": "Minimize a shifted paraboloid.",
                        "direction": "minimize",
                        "schema": {
                            "kind": "real_vector",
                            "lower": [0.0, 0.0],
                            "upper": [4.0, 4.0],
                        },
                        "objective_command": ["python3", str(score_script)],
                    },
                    "backend": {"kind": "perturb", "seed": 3},
                    "max_steps": 6,
                    "batch": 4,
                    "seeding": {"style": "grid", "count": 4},
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert run_cli("run", config_path) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["best"]["score"] < 2.5

    def test_scores_at_the_float_limit_write_valid_artifacts(self, tmp_path):
        # Two finite scores whose sum overflows a float, and their mean does not.
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "strategy": "opro",
            "problem": {
                "description": "d",
                "direction": "minimize",
                "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
                "objective_command": ["python3", "-c", f"print({TOP!r})"],
            },
            "backend": {"kind": "perturb", "seed": 1},
            "max_steps": 1,
            "batch": 2,
            "seeding": {"style": "uniform", "count": 2},
            "output_dir": str(tmp_path / "out"),
        }))
        assert run_cli("run", config_path) == 0
        out = tmp_path / "out"
        result = json.loads((out / "result.json").read_text(), parse_constant=refuse_constant)
        assert result["steps"][0]["mean_of_step"] == TOP
        assert "inf" not in (out / "history.csv").read_text()
        assert "nan" not in (out / "plot.svg").read_text()

    def test_hlmsa_run_of_scores_at_both_float_limits(self, tmp_path):
        # The seeds' score range overflows a float, so annealing compares
        # exactly normalized changes instead of dividing by it.
        program = "print(1e308 if float(input()) < 0.5 else -1e308)"
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "strategy": "hlmsa",
            "problem": {
                "description": "d",
                "direction": "minimize",
                "schema": {"kind": "real_vector", "lower": [0.0], "upper": [1.0]},
                "objective_command": [sys.executable, "-c", program],
            },
            "backend": {"kind": "perturb", "seed": 1},
            "max_steps": 3,
            "batch": 2,
            "seeding": {"style": "grid", "count": 2},
            "output_dir": str(tmp_path / "out"),
        }))
        assert run_cli("run", config_path) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["best"]["score"] == -1e308
        assert len(result["steps"]) == 3

    def test_sa_block_rejected_for_non_hlmsa(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", sa={"initial_temperature": 2.0})
        assert run_cli("run", config) == 1
        assert "hlmsa" in capsys.readouterr().err

    def test_benchmark_params_only_for_tsp(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.json", benchmark_params={"n": 7})
        assert run_cli("run", config) == 1
        assert "tsp" in capsys.readouterr().err

    def test_hlmsa_run_with_sa_block(self, tmp_path):
        config = write_config(
            tmp_path / "run.json",
            strategy="hlmsa",
            benchmark="tsp",
            benchmark_params={"n": 6, "seed": 4},
            max_steps=40,
            callbacks={},
            sa={"initial_temperature": 1.5, "cooling_bounds": [0.6, 0.95], "default_cooling": 0.8},
            output_dir=str(tmp_path / "out"),
        )
        assert run_cli("run", config) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["steps"][0]["sa_temperature"] == 1.5
        # perturb's 0.9 tag is inside [0.6, 0.95], so it cools by 0.9 each step
        assert result["steps"][1]["sa_temperature"] == pytest.approx(1.35)
        assert (tmp_path / "out" / "tour.svg").exists()

    def test_keyed_scalars_problem_via_command(self, tmp_path):
        score_script = tmp_path / "score.py"
        # Parses "u=..., p=..., eta=..." and scores distance from a target point.
        score_script.write_text(
            "import sys\n"
            "pairs = dict(part.strip().split('=') for part in sys.stdin.read().split(','))\n"
            "u, p, eta = float(pairs['u']), float(pairs['p']), float(pairs['eta'])\n"
            "print((u - 128) ** 2 / 1e4 + (p - 0.3) ** 2 + (eta - 0.01) ** 2)\n"
        )
        config_path = tmp_path / "hp.json"
        config_path.write_text(
            json.dumps(
                {
                    "strategy": "hlmea",
                    "problem": {
                        "description": "Pick training settings that score well.",
                        "direction": "minimize",
                        "schema": {
                            "kind": "keyed_scalars",
                            "bounds": {"u": [32, 512], "p": [0, 0.6], "eta": [1e-4, 1e-1]},
                        },
                        "objective_command": ["python3", str(score_script)],
                    },
                    "backend": {"kind": "perturb", "seed": 2},
                    "max_steps": 4,
                    "batch": 4,
                    "seeding": {"style": "uniform", "count": 6},
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert run_cli("run", config_path) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        pairs = result["best"]["solution"]["pairs"]
        assert set(pairs) == {"u", "p", "eta"}


class TestCmdBench:
    def test_seeded_convex_bench_hits_target(self, tmp_path, capsys):
        out = tmp_path / "b1"
        assert run_cli("bench", "convex2d", "--strategy", "opro", "--seed", 7, "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["best"]["score"] <= 7.95
        assert result["termination"]["kind"] == "target_reached"

    def test_bench_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("bench", "convex2d", "--seed", 7, "--out", out1)
        run_cli("bench", "convex2d", "--seed", 7, "--out", out2)
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_tsp_bench_writes_valid_tour(self, tmp_path):
        out = tmp_path / "tsp"
        code = run_cli(
            "bench", "tsp", "--n", 7, "--seed", 42, "--strategy", "hlmsa", "--out", out
        )
        assert code == 0
        assert (out / "tour.svg").exists()
        result = json.loads((out / "result.json").read_text())
        order = result["best"]["solution"]["order"]
        assert sorted(order) == list(range(7))

    def test_unknown_benchmark_lists_registry(self, tmp_path, capsys):
        assert run_cli("bench", "nosuch", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        for name in ("convex2d", "lp3", "tsp"):
            assert name in err

    def test_csv_header_and_monotone_best(self, tmp_path):
        out = tmp_path / "b"
        run_cli("bench", "convex2d", "--seed", 3, "--out", out)
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == HISTORY_CSV_HEADER
        best = [float(line.split(",")[3]) for line in lines[1:]]
        assert best == sorted(best, reverse=True)
        result = json.loads((out / "result.json").read_text())
        assert len(lines) - 1 == len(result["steps"])

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["convex2d", "--n", 5], "benchmark_params (n)"),
            (["convex2d", "--http-base-url", "http://127.0.0.1:9/v1"], "backend.base_url"),
            (["tsp", "--http-model", "m1", "--http-base-url", "http://127.0.0.1:9/v1",
              "--step-scale", 0.5], "backend.step_scale"),
        ],
        ids=["n-without-tsp", "base-url-without-model", "step-scale-with-http"],
    )
    def test_flag_nothing_reads_is_usage_error(self, flags, named, tmp_path, capsys):
        assert run_cli("bench", *flags, "--max-steps", 1, "--out", tmp_path / "out") == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_that_cannot_be_made_fails_before_any_evaluation(
        self, tmp_path, capsys, monkeypatch
    ):
        batches = []

        def counting(objective, candidates, policy):
            batches.append(len(candidates))
            return evaluate_batch(objective, candidates, policy)

        monkeypatch.setattr(cli, "evaluate_batch", counting)
        monkeypatch.setattr(optimizers, "evaluate_batch", counting)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        out = blocker / "out"
        assert run_cli("bench", "convex2d", "--max-steps", 1, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot create output directory {out}: ")
        assert captured.out == ""
        assert batches == []

    def test_invalid_option_values_exit_1(self, tmp_path, capsys):
        assert run_cli("bench", "convex2d", "--batch", 0, "--out", tmp_path) == 1
        assert "batch" in capsys.readouterr().err

    def test_a_bug_is_not_reported_as_an_options_error(self, tmp_path, monkeypatch):
        def broken(doc):
            raise TypeError("not a config error")

        monkeypatch.setattr(cli, "build_plan", broken)
        with pytest.raises(TypeError, match="not a config error"):
            run_cli("bench", "convex2d", "--out", tmp_path)

    def test_result_json_round_trips_byte_identical(self, tmp_path):
        out = tmp_path / "b"
        run_cli("bench", "convex2d", "--seed", 3, "--out", out)
        text = (out / "result.json").read_text()
        reserialized = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert reserialized == text


class TestCmdPlot:
    def _history(self, tmp_path, rows):
        path = tmp_path / "history.csv"
        lines = [HISTORY_CSV_HEADER]
        lines += rows
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_valid_csv_renders_three_polylines(self, tmp_path):
        rows = [f"{i},{10 - i},{12 - i},{10 - i},1.0,," for i in range(10)]
        path = self._history(tmp_path, rows)
        out = tmp_path / "chart.svg"
        assert run_cli("plot", path, out) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 3
        for series in ("best_so_far", "best_of_step", "mean_of_step"):
            assert series in svg
        assert "step_index" in svg and "score" in svg

    def test_single_row_is_valid(self, tmp_path):
        path = self._history(tmp_path, ["0,5.0,6.0,5.0,1.0,,"])
        assert run_cli("plot", path, tmp_path / "chart.svg") == 0

    def test_missing_column_rejected(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text(
            "step_index,best_of_step,best_so_far,sampling_temperature,sa_temperature,cooling_rate\n"
            "0,1.0,1.0,1.0,,\n"
        )
        assert run_cli("plot", path, tmp_path / "chart.svg") == 1
        assert "header" in capsys.readouterr().err

    def test_bad_row_named(self, tmp_path, capsys):
        path = self._history(tmp_path, ["0,1.0,1.0,1.0,1.0,,", "1,oops,1.0,1.0,1.0,,"])
        assert run_cli("plot", path, tmp_path / "chart.svg") == 1
        assert "row 3" in capsys.readouterr().err

    def test_chart_needs_a_row(self):
        with pytest.raises(ValueError, match="^at least one row required$"):
            render_history_chart([])

    @pytest.mark.parametrize(
        "scores",
        [
            # A span that overflows, then a finite span whose product does.
            [(TOP, TOP, TOP), (-TOP, 0.0, -TOP), (TOP / 3, -TOP, -TOP)],
            [(TOP, TOP, TOP), (0.0, TOP / 2, 0.0), (TOP / 3, 1.0, 0.0)],
        ],
        ids=["both-signs", "one-sign"],
    )
    def test_chart_of_scores_at_the_float_limit_stays_in_its_box(self, scores):
        steps = [StepStats(i, *triple, 1.0) for i, triple in enumerate(scores)]
        svg = render_history_chart(steps)
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
        assert len(polylines) == 3
        for points in polylines:
            for point in points.split():
                x, y = map(float, point.split(","))
                # The plot box: 60..490 across, 20..350 down.
                assert 60.0 <= x <= 490.0 and 20.0 <= y <= 350.0
        # Each label fits beside the axis, the score labels in exponent notation.
        labels = re.findall(r"<text [^>]*>([^<]*)</text>", svg)
        assert len(labels) == 9
        assert all(len(label) <= 14 for label in labels)
        assert "1.798e+308" in labels

    @pytest.mark.parametrize(
        "low, high, labels",
        [
            (-999999999.99, 999999999.99, ("-999999999.99", "999999999.99")),
            (-1e9, 1e9, ("-1.000e+09", "1.000e+09")),
            (0.0, 123456789012.0, ("0.00", "1.235e+11")),
        ],
        ids=["decimals-below-1e9", "exponent-from-1e9", "one-of-each"],
    )
    def test_score_labels_switch_to_exponent_notation_at_1e9(self, low, high, labels):
        steps = [StepStats(0, low, low, low, 1.0), StepStats(1, high, high, high, 1.0)]
        svg = render_history_chart(steps)
        shown = re.findall(r'text-anchor="end" font-size="11">([^<]*)</text>', svg)
        assert tuple(shown) == labels

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty CSV"),
            (HISTORY_CSV_HEADER + "\n", "no data rows"),
            (HISTORY_CSV_HEADER + "\n0,1.0,1.0\n", "row 2: expected 7 fields, got 3"),
            (
                HISTORY_CSV_HEADER + "\n0,1.0,1.0,1.0,1.0,abc,0.9\n",
                "row 2: could not convert string to float: 'abc'",
            ),
            (
                HISTORY_CSV_HEADER + "\n0,1.0,1.0,1.0,1.0,,xyz\n",
                "row 2: could not convert string to float: 'xyz'",
            ),
            (
                f"{HISTORY_CSV_HEADER}\n0,{'9' * 200_000},1.0,1.0,1.0,,\n",
                "field larger than field limit (131072)",
            ),
            (HISTORY_CSV_HEADER + "\n0,nan,1.0,1.0,1.0,,\n",
             "row 2: best_of_step must be finite, got 'nan'"),
            (HISTORY_CSV_HEADER + "\n0,1.0,inf,1.0,1.0,,\n",
             "row 2: mean_of_step must be finite, got 'inf'"),
            (HISTORY_CSV_HEADER + "\n0,1.0,1.0,1.0,1.0,-inf,0.9\n",
             "row 2: sa_temperature must be finite, got '-inf'"),
            (HISTORY_CSV_HEADER + "\n0,1.0,1.0,1e309,1.0,,\n",
             "row 2: best_so_far must be finite, got '1e309'"),
        ],
        ids=["empty", "header-only", "short-row", "junk-sa-temperature", "junk-cooling-rate",
             "field-too-long", "nan-score", "inf-score", "minus-inf-sa-temperature",
             "overflowing-score"],
    )
    def test_bad_csv_named(self, text, message, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text(text)
        assert run_cli("plot", path, tmp_path / "chart.svg") == 1
        assert capsys.readouterr().err == f"bad history CSV {path}: {message}\n"
        assert not (tmp_path / "chart.svg").exists()

    def test_replotting_a_runs_history_redraws_its_chart(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("bench", "tsp", "--n", 7, "--strategy", "hlmsa", "--out", out) == 0
        assert run_cli("plot", out / "history.csv", tmp_path / "chart.svg") == 0
        assert (tmp_path / "chart.svg").read_bytes() == (out / "plot.svg").read_bytes()

    def test_missing_csv_is_error(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert run_cli("plot", path, tmp_path / "chart.svg") == 1
        assert capsys.readouterr().err.startswith(f"cannot read {path}: ")
        assert not (tmp_path / "chart.svg").exists()

    def test_unwritable_chart_is_error(self, tmp_path, capsys):
        path = self._history(tmp_path, ["0,5.0,6.0,5.0,1.0,,"])
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        out = blocker / "chart.svg"
        assert run_cli("plot", path, out) == 1
        assert capsys.readouterr().err.startswith(f"cannot write {out}: ")
        assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize("table", ["_BACKENDS", "_SCHEMAS", "_CALLBACKS"])
def test_declared_keys_bind_to_their_factory(table):
    for make, required, optional in getattr(cli, table).values():
        inspect.signature(make).bind_partial(**dict.fromkeys({**required, **optional}))


def test_readme_configs_build(monkeypatch):
    monkeypatch.setenv("LLMIZE_BASE_URL", "http://127.0.0.1:9/v1")
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        cli.build_plan(json.loads(block))


def test_readme_library_snippet_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert namespace["result"].steps
    assert capsys.readouterr().out


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_non_finite_real_bound_names_its_key(side):
    # The schema refuses Infinity, and the config error names the key that
    # held it, however the block's options were built.
    options = {"lower": [0.0], "upper": [1.0]}
    options[side] = [math.inf if side == "upper" else -math.inf]
    with pytest.raises(cli.ConfigError, match=f"^problem.schema.{side} must be finite"):
        cli._construct(cli.RealVectorSchema, "problem.schema", options)


# Valid documents that the config-contract tests below alter. BENCH_DOC sets
# every key of a benchmark run that is not problem- or backend-kind specific.
BENCH_DOC = {
    "strategy": "hlmsa",
    "benchmark": "tsp",
    "benchmark_params": {"n": 5, "seed": 1},
    "backend": {"kind": "perturb", "seed": 1, "step_scale": 0.1},
    "max_steps": 3,
    "batch": 2,
    "history_capacity": 4,
    "rng_seed": 1,
    "workers": 1,
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
HTTP_DOC = {
    **BENCH_DOC,
    "backend": {
        "kind": "http", "model": "m1", "base_url": "http://127.0.0.1:9/v1", "api_key": "k",
        "timeout": 5.0,
    },
}


def problem_doc(schema, style="uniform"):
    return {
        "strategy": "opro",
        "problem": {
            "description": "d",
            "domain_knowledge": "k",
            "direction": "minimize",
            "schema": schema,
            "objective_command": ["score", "--fast"],
        },
        "backend": {"kind": "perturb", "seed": 1},
        "seeding": {"style": style, "count": 4, "seed": 1},
    }


REAL_DOC = problem_doc({"kind": "real_vector", "lower": [0, 0], "upper": [1, 1]}, "grid")
PERMUTATION_DOC = problem_doc({"kind": "permutation", "n": 4})
KEYED_DOC = problem_doc({"kind": "keyed_scalars", "bounds": {"u": [0, 1], "v": [2, 3]}})


def replaced(doc, site, value):
    """A copy of ``doc`` with the value at ``site``, a tuple of keys and list
    indices (empty for the whole document), replaced by ``value``."""
    if not site:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    target = doc
    for step in site[:-1]:
        target = target[step]
    target[site[-1]] = copy.deepcopy(value)
    return doc


def altered(doc, path, value):
    return replaced(doc, tuple(path.split(".")), value)


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


def same(x):
    return x


# Every numeric config key: the document it is set in, the value that carries
# one number (the number itself, or a list holding it), and the nearest numbers
# out of the key's range. A key that takes any finite number has none.
NUMERIC_KEYS = [
    ("max_steps", BENCH_DOC, same, [0]),
    ("batch", BENCH_DOC, same, [0, 10_001]),
    ("history_capacity", BENCH_DOC, same, [0]),
    ("rng_seed", BENCH_DOC, same, [-1]),
    ("workers", BENCH_DOC, same, [0, 257]),
    ("benchmark_params.n", BENCH_DOC, same, [1, 100_001]),
    ("benchmark_params.seed", BENCH_DOC, same, [-1]),
    ("sampling.model_temperature", BENCH_DOC, same, [below(0.0), above(2.0)]),
    ("sampling.max_output_tokens", BENCH_DOC, same, [0]),
    ("sampling.seed", BENCH_DOC, same, []),  # sent to the model as it is
    ("seeding.count", BENCH_DOC, same, [0, 100_001]),
    ("seeding.seed", BENCH_DOC, same, [-1]),
    ("sa.initial_temperature", BENCH_DOC, same, [0.0]),
    ("sa.cooling_bounds", BENCH_DOC, lambda x: [x, 0.95], [0.0]),
    ("sa.cooling_bounds", BENCH_DOC, lambda x: [0.6, x], [1.0]),
    ("sa.default_cooling", BENCH_DOC, same, [below(0.6), above(0.95)]),
    ("backend.seed", BENCH_DOC, same, [-1]),
    ("backend.step_scale", BENCH_DOC, same, [0.0]),
    ("backend.timeout", HTTP_DOC, same, [0.0]),
    ("problem.schema.n", PERMUTATION_DOC, same, [1, 100_001]),
    ("problem.schema.lower", REAL_DOC, lambda x: [x, 0], [above(1.0)]),
    # Only the bound order limits upper: test_bound_order_spans_both_real_vector_keys.
    ("problem.schema.upper", REAL_DOC, lambda x: [1, x], []),
    ("problem.schema.bounds", KEYED_DOC, lambda x: {"u": [x, 1], "v": [2, 3]}, [above(1.0)]),
    ("problem.schema.bounds", KEYED_DOC, lambda x: {"u": [0, 1], "v": [2, x]}, [below(2.0)]),
    ("callbacks.early_stopping.patience", BENCH_DOC, same, [0]),
    ("callbacks.early_stopping.min_delta", BENCH_DOC, same, [below(0.0)]),
    ("callbacks.target_stop.target", BENCH_DOC, same, []),
    ("callbacks.adaptive_sampling.stagnation_window", BENCH_DOC, same, [0]),
    ("callbacks.adaptive_sampling.bump", BENCH_DOC, same, [0.0]),
    ("callbacks.adaptive_sampling.ceiling", BENCH_DOC, same, [0.0, above(2.0)]),
]
NUMERIC_KINDS = (int, float, tuple[float, float], list[float], dict[str, tuple[float, float]])


def numeric_keys(block, prefix=""):
    """The path of every numeric key that a ``(required, optional)`` pair
    declares, its nested blocks' keys included."""
    required, optional = block
    for key, kind in {**required, **optional}.items():
        if isinstance(kind, tuple):
            yield from numeric_keys(kind, f"{prefix}{key}.")
        elif kind in NUMERIC_KINDS:
            yield prefix + key


def test_numeric_key_table_covers_every_numeric_key():
    declared = set(numeric_keys(cli._DOCUMENT))
    # The kind-tagged blocks, whose keys depend on their kind.
    for block, table in [("backend", cli._BACKENDS), ("problem.schema", cli._SCHEMAS)]:
        for _, required, optional in table.values():
            declared |= set(numeric_keys((required, optional), f"{block}."))
    assert {path for path, *_ in NUMERIC_KEYS} == declared


@pytest.mark.parametrize(
    "path, doc, value",
    [
        pytest.param(path, doc, carry(x), id=f"{path}={carry(x)!r}")
        for path, doc, carry, out_of_range in NUMERIC_KEYS
        for x in [math.nan, math.inf, -math.inf, *out_of_range]
    ],
)
def test_non_finite_or_out_of_range_number_names_its_key(path, doc, value):
    with pytest.raises(cli.ConfigError, match=f"^{re.escape(path)} "):
        cli.build_plan(altered(doc, path, value))


def test_bound_order_spans_both_real_vector_keys():
    # An upper bound below its lower one breaks one rule over both keys, and
    # the error names the key that the rule's message opens with.
    doc = altered(REAL_DOC, "problem.schema.upper", [1, below(0.0)])
    message = r"^problem\.schema\.lower must be <= upper at position 1 "
    with pytest.raises(cli.ConfigError, match=message):
        cli.build_plan(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        ("backend.step_scale", 10**400),
        ("sa.initial_temperature", 10**400),
        ("problem.schema.upper", [1, 10**400]),
    ],
    ids=["step-scale", "initial-temperature", "upper"],
)
def test_integer_too_large_for_a_float_names_its_key(path, value):
    doc = REAL_DOC if path.startswith("problem") else BENCH_DOC
    with pytest.raises(cli.ConfigError, match=f"^{re.escape(path)} must be"):
        cli.build_plan(altered(doc, path, value))


@pytest.mark.parametrize(
    "doc, message",
    [
        (problem_doc({"kind": "permutation", "n": 4}, "grid"),
         "seeding: grid seeding only applies to real vectors"),
        (altered(REAL_DOC, "problem.schema.upper", [1]),
         "problem.schema.upper must have 2 bounds, one per lower bound"),
        (altered(altered(REAL_DOC, "problem.schema.lower", []), "problem.schema.upper", []),
         "problem.schema.lower must not be empty"),
        ({"strategy": "hlmsa", "benchmark": "convex2d", "backend": {"kind": "perturb", "seed": 1},
          "sa": {"cooling_bounds": [0.5, 0.6]}},
         "sa: default_cooling must lie within cooling_bounds"),
        ({"strategy": "opro", "benchmark": "convex2d", "backend": {"kind": "http", "model": "m1"}},
         "backend: base_url must be an http(s) URL"),
    ],
    ids=["grid-permutation", "bounds-lengths-differ", "bounds-empty", "default-cooling-outside",
         "http-without-base-url"],
)
def test_rule_over_several_keys_names_its_block(doc, message, monkeypatch):
    monkeypatch.delenv("LLMIZE_BASE_URL", raising=False)
    with pytest.raises(cli.ConfigError) as exc:
        cli.build_plan(doc)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "url",
    [
        "http://127.0.0.1:9/v1?api-version=1",
        "http://127.0.0.1:9/v1#frag",
        "http://user:pw@127.0.0.1:9/v1",
    ],
    ids=["query", "fragment", "credentials"],
)
def test_base_url_with_query_fragment_or_credentials_names_its_key(url):
    doc = altered(HTTP_DOC, "backend.base_url", url)
    with pytest.raises(cli.ConfigError, match=r"^backend\.base_url must not carry"):
        cli.build_plan(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**BENCH_DOC, "batch": 0, "seeding": {"foo": 1}},
         "unknown key seeding.foo; seeding takes style, count, seed"),
        ({**BENCH_DOC, "problem": {**PERMUTATION_DOC["problem"], "foo": 1}},
         "unknown key problem.foo; problem takes description, direction, schema, "
         "objective_command, domain_knowledge"),
    ],
    ids=["range-fault", "cross-block-fault"],
)
def test_nested_shape_fault_is_named_before_later_faults(doc, message):
    # One walk checks every nested block's keys and shapes before any value is
    # built, so a shape fault wins over a range fault or a rule across blocks.
    with pytest.raises(cli.ConfigError) as exc:
        cli.build_plan(doc)
    assert str(exc.value) == message


# Each leaf and each block of a valid document is replaced in turn with each
# of these. The integers stay small: batch, seeding.count and
# benchmark_params.n size allocations while the plan is built.
SWEEP_VALUES = [
    0, -1, 1.5, math.nan, math.inf, -math.inf, "x", True, None, [], {}, [0.5], [1, 2, 3],
]


def sites(value, path=()):
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from sites(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from sites(item, path + (index,))


@pytest.mark.parametrize(
    "doc", [HTTP_DOC, REAL_DOC, PERMUTATION_DOC, KEYED_DOC],
    ids=["benchmark-http", "real-vector", "permutation", "keyed-scalars"],
)
def test_every_bad_document_is_a_config_error(doc, monkeypatch):
    monkeypatch.delenv("LLMIZE_BASE_URL", raising=False)
    assert isinstance(cli.build_plan(doc), cli.RunPlan)
    escaped = []
    for site in sites(doc):
        for value in SWEEP_VALUES:
            try:
                assert isinstance(cli.build_plan(replaced(doc, site, value)), cli.RunPlan)
            except cli.ConfigError:
                pass
            except Exception as exc:
                escaped.append(f"{'.'.join(map(str, site))}={value!r}: {exc!r}")
    assert escaped == []


class TestUnwritableOutput:
    """An output file that cannot be written ends a finished run in one line,
    exit 1, and leaves no temporary file behind."""

    @pytest.mark.parametrize(
        "name, file",
        [("tsp", "result.json"), ("tsp", "history.csv"), ("tsp", "plot.svg"),
         ("tsp", "tour.svg"), ("convex2d", "tour.svg")],
        ids=["result", "history", "plot", "tour", "stale-tour"],
    )
    def test_directory_in_place_of_an_output(self, name, file, tmp_path, capsys):
        # convex2d draws no tour, so its run removes the stale tour.svg instead.
        out = tmp_path / "out"
        (out / file).mkdir(parents=True)
        assert run_cli("bench", name, "--max-steps", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out / file}: ") and err.count("\n") == 1
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []

    def test_failed_write_leaves_the_earlier_file_whole(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert run_cli("bench", "convex2d", "--max-steps", 2, "--out", out) == 0
        earlier = (out / "result.json").read_bytes()

        def disk_full(path, text):
            with open(path, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", disk_full)
        capsys.readouterr()
        assert run_cli("bench", "convex2d", "--max-steps", 3, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"cannot write {out / 'result.json'}: {os.strerror(errno.ENOSPC)}\n"
        )
        assert (out / "result.json").read_bytes() == earlier
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "tsp", "--n", 2**63],
         "invalid benchmark options: benchmark_params.n must be <= 100000"),
        (["bench", "convex2d", "--batch", 2**63],
         "invalid benchmark options: batch must be <= 10000"),
        ({**BENCH_DOC, "benchmark_params": {"n": 10**400}},
         "benchmark_params.n must be <= 100000"),
        (altered(PERMUTATION_DOC, "problem.schema.n", 2**63), "problem.schema.n must be <= 100000"),
        (altered(BENCH_DOC, "seeding.count", 2**63), "seeding.count must be <= 100000"),
        (altered(BENCH_DOC, "seeding.count", 10**400), "seeding.count must be <= 100000"),
        (altered(REAL_DOC, "seeding.count", 10**11), "seeding.count must be <= 100000"),
        (altered(altered(REAL_DOC, "problem.schema.lower", [0] * 40), "problem.schema.upper",
                 [1] * 40),
         "seeding: grid seeding lays 2^40 points, more than 100000"),
        (altered(altered(REAL_DOC, "problem.schema.lower", [0] * 16), "problem.schema.upper",
                 [1] * 16),
         "seeding: grid seeding lays 2^16 points of 16 numbers, more than 1000000 numbers"),
        (altered(altered(PERMUTATION_DOC, "problem.schema.n", 100_000), "seeding.count", 100_000),
         "seeding.count times the 100000 numbers of each value must be <= 1000000, "
         "got 10000000000"),
        (altered(altered(altered(altered(
            REAL_DOC, "problem.schema.lower", [0] * 10_000), "problem.schema.upper",
            [1] * 10_000), "seeding.style", "uniform"), "seeding.count", 100_000),
         "seeding.count times the 10000 numbers of each value must be <= 1000000, "
         "got 1000000000"),
        (altered(altered(KEYED_DOC, "problem.schema.bounds",
                         {f"k{i}": [0, 1] for i in range(1000)}), "seeding.count", 1001),
         "seeding.count times the 1000 numbers of each value must be <= 1000000, got 1001000"),
    ],
    ids=["bench-tsp-n", "bench-batch", "tsp-n", "permutation-n", "count-2**63",
         "count-10**400", "grid-count", "grid-40-dims", "grid-16-dims", "permutation-seed-numbers",
         "real-vector-seed-numbers", "keyed-seed-numbers"],
)
def test_size_no_run_can_use_is_refused_in_one_line(argv, message, tmp_path, capsys):
    if isinstance(argv, dict):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**argv, "output_dir": str(tmp_path / "out")}))
        argv, message = ["run", path], f"config error in {path}: {message}"
    else:
        argv = [*argv, "--out", tmp_path / "out"]
    with time_bound(5):
        assert run_cli(*argv) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content",
    [
        b'\xff\xfe{"strategy": "opro"}',
        b"[" * 100_000 + b"]" * 100_000,
        pytest.param(
            b'{"rng_seed": 1' + b"0" * 5000 + b"}",
            marks=pytest.mark.skipif(
                not hasattr(sys, "set_int_max_str_digits"),
                reason="this Python converts integers of any length",
            ),
        ),
    ],
    ids=["not-utf-8", "nested-too-deep", "integer-too-long"],
)
def test_unreadable_config_is_one_line(content, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    assert run_cli("run", path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error in {path}: unreadable JSON: ")
    assert err.count("\n") == 1


def test_history_csv_that_is_not_utf_8_is_one_line(tmp_path, capsys):
    path = tmp_path / "history.csv"
    path.write_bytes(b"\xff\xfe")
    assert run_cli("plot", path, tmp_path / "chart.svg") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bad history CSV {path}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert not (tmp_path / "chart.svg").exists()
