import json
import math
from pathlib import Path

import pytest

from llmize.cli import HISTORY_CSV_HEADER, main


def run_cli(*args):
    return main([str(a) for a in args])


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
    path.write_text(
        json.dumps(
            {
                "strategy": "opro",
                "problem": {
                    "description": "d",
                    "direction": "minimize",
                    "schema": {"kind": "keyed_scalars", "bounds": bounds},
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

    def test_invalid_option_values_exit_1(self, tmp_path, capsys):
        assert run_cli("bench", "convex2d", "--batch", 0, "--out", tmp_path) == 1
        assert "batch" in capsys.readouterr().err

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
