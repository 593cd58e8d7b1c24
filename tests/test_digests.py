"""Pinned sha256 digests of the CLI's deterministic artifacts.

``result.json`` and ``history.csv`` are byte-identical across reruns of one
build (criterion 10). These digests also pin them across changes to the code:
a refactor that alters any score, step record or termination shows up here.
A deliberate behaviour change must update the digests and say why.
"""

import hashlib
import json

import pytest

from llmize.cli import main

BENCH_DIGESTS = {
    # (benchmark, strategy, seed): (sha256 of result.json, sha256 of history.csv)
    ("convex2d", "opro", 7): (
        "615af255030ac0901665eaea423a687ea606c91bfa3e128c82e13babc321f673",
        "a4ce2898f22beca22e0d12a8769a5e2b78d1b6109a88980bae30631a08a8d866",
    ),
    ("convex2d", "opro", 42): (
        "12ee0f08278546f40d8357f18b9c457ef09be9193985a4e77dc358909796f2e0",
        "0b0f98de5316443cff68dec00c67326fe99fbcc9f9aefdf7a8615cbdeeb4c297",
    ),
    ("convex2d", "hlmea", 7): (
        "b8d14a91c12e197c7d21f78552d9838bc600309bbf0f14cf57f1f81f5ef12d91",
        "a4ce2898f22beca22e0d12a8769a5e2b78d1b6109a88980bae30631a08a8d866",
    ),
    ("convex2d", "hlmea", 42): (
        "3020b60ea232cb8a2bd75df752b5e4c1e536847d92dc3aa8ce680aa395783bbb",
        "0b0f98de5316443cff68dec00c67326fe99fbcc9f9aefdf7a8615cbdeeb4c297",
    ),
    ("convex2d", "hlmsa", 7): (
        "339d47406e179ee7e3d5dcce7a0139f1eab4cbb2dfd1901d4c665d0741990d49",
        "2297ef4888528473312a22320985da68269db79d63010caabdba02a89d99cb89",
    ),
    ("convex2d", "hlmsa", 42): (
        "4ad258a7697fd819f937543584f2ac277121cca6cdec3c4f56c4434ea590676a",
        "ff8cd8c68ec075722b8f68f8faf4d349a14e682bb1a115cba098e0d063b874c5",
    ),
    ("lp3", "opro", 7): (
        "ea8034f8504ab561f74d4a0823a0be80fd7a7df347ccd25301b2c1b1270c0cba",
        "66792a6fdc8ffe20ca4cc2a5848b07d85a10c0a4262863cf91d0250e15c09bbe",
    ),
    ("lp3", "opro", 42): (
        "06445c259effcea3f024bdc61fcb2c098e4062ba268f8f9747fcb373540f401d",
        "4178ed1bba204f45cc44f8751dc1d8329a132f4579a123617b52243305f8425c",
    ),
    ("lp3", "hlmea", 7): (
        "b7722401a186f3e1912c949eeb3e30f974a8525809719c8677dede05a8fe03e8",
        "66792a6fdc8ffe20ca4cc2a5848b07d85a10c0a4262863cf91d0250e15c09bbe",
    ),
    ("lp3", "hlmea", 42): (
        "b2165824e37c3475bea9667e7011b1e12e4dcdc9a6510f537d4bde7b23fae5ac",
        "4178ed1bba204f45cc44f8751dc1d8329a132f4579a123617b52243305f8425c",
    ),
    ("lp3", "hlmsa", 7): (
        "f1428d49ab1acf811ce59f04d359cfccd73c9f3f2947a297b99f149456d92b7e",
        "87e5285616fa4e894b641ba877137d7de8957abd2f8a14cd5093e6224b53e628",
    ),
    ("lp3", "hlmsa", 42): (
        "0195c8f1a757038e0256327eb777ad13cb7ee2fc6fca937c914714ab2a4f58ef",
        "1da2c1a5ba454dfef5d626e6d7b0fd1daeecca5cc7967f8a3f5f7afa77518b9b",
    ),
    ("tsp", "opro", 7): (
        "372e924156ee2d99bd9e8f2a5f4c6f763e3b1b96ba59a08a2f507095f566384a",
        "a759895fb50dd4feca4e515a4c78ba0bc7f7e4ae918882349be1f53bcaa9e7ab",
    ),
    ("tsp", "opro", 42): (
        "477345cf041efd8cb09a5a1bb4a2991c46368df115b353c2157462d835e419b6",
        "5d33f00e0e6515fc9dbf15dba1833468d8caf5db8a3aa5040f82b24357aac28b",
    ),
    ("tsp", "hlmea", 7): (
        "5d13d6dd968329ac9de31dad531b0801c489d8928444a00eb11ce1f7aa0e990c",
        "a759895fb50dd4feca4e515a4c78ba0bc7f7e4ae918882349be1f53bcaa9e7ab",
    ),
    ("tsp", "hlmea", 42): (
        "f0578f8f6c838095989aea0ee713b504efbb1fe84ffb5c4bf9300c135013e66e",
        "5d33f00e0e6515fc9dbf15dba1833468d8caf5db8a3aa5040f82b24357aac28b",
    ),
    ("tsp", "hlmsa", 7): (
        "12ed1c72df09d78df4bdb78dcc9c1511a35dce53d09f0be76b9fcbf32253b4f9",
        "8e36e32c17a21d71bea3484d04aab5b4ee6b31d723efec3950337a4d041cb726",
    ),
    ("tsp", "hlmsa", 42): (
        "e9e04d2a624fe8edbd4a2fc92a01cf825ca9c5894dbd5a56c4b4490f48efefc7",
        "af65403851900d6b3e2da5815be3163c5dc35d363247bc5855fe2f096aa59e4c",
    ),
}

RUN_DIGESTS = (
    "9555685a19d14ff9a3f759b604b139bb805d76caafa2897c8649356e41e0edf3",
    "e9509eb19f7a6166d8f6b911b14a2c58373bbea2dcf75449913f613450d3f6d1",
)


def artifact_digests(out_dir):
    return tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("result.json", "history.csv")
    )


@pytest.mark.parametrize(
    "name,strategy,seed",
    [
        (name, strategy, seed)
        for name in ("convex2d", "lp3", "tsp")
        for strategy in ("opro", "hlmea", "hlmsa")
        for seed in (7, 42)
    ],
)
def test_bench_artifacts_match_pinned_digests(tmp_path, name, strategy, seed):
    out = tmp_path / "out"
    code = main(["bench", name, "--strategy", strategy, "--seed", str(seed), "--out", str(out)])
    assert code == 0
    assert artifact_digests(out) == BENCH_DIGESTS[(name, strategy, seed)]


def test_hlmsa_run_config_matches_pinned_digests(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "strategy": "hlmsa",
                "benchmark": "tsp",
                "benchmark_params": {"n": 8, "seed": 3},
                "backend": {"kind": "perturb", "seed": 11, "step_scale": 0.2},
                "max_steps": 40,
                "batch": 6,
                "history_capacity": 12,
                "rng_seed": 5,
                "sampling": {"model_temperature": 0.7, "max_output_tokens": 512},
                "sa": {
                    "initial_temperature": 0.5,
                    "cooling_bounds": [0.6, 0.95],
                    "default_cooling": 0.9,
                },
                "callbacks": {
                    "adaptive_sampling": {"stagnation_window": 3, "bump": 0.2, "ceiling": 1.5}
                },
                "output_dir": str(out),
            }
        )
    )
    assert main(["run", str(config)]) == 0
    assert artifact_digests(out) == RUN_DIGESTS
