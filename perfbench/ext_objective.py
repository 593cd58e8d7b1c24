"""External objective for the ``external-objective`` workload.

Usage: python3 -S ext_objective.py C1,C2,...  < "x1, x2, ..."

Reads one real vector in llmize's wire encoding on stdin and prints
``f(x) = OPTIMUM + sum((x_i - c_i)^2)``. The analytic minimum is ``OPTIMUM``,
at ``x = c``. A call costs one bare interpreter start (about 10 ms of CPU)
plus a ``WAIT_S`` wait standing for a simulator the script would drive. The
wait also keeps two evaluation workers from holding both cores of a 2-vCPU
machine busy, which on the machine measured raised steal time and slowed the
next workload run for up to a minute.
"""

import sys
import time

OPTIMUM = 1.0
WAIT_S = 0.015


def parse(text: str) -> list[float]:
    return [float(token) for token in text.split(",")]


def score(x: list[float], center: list[float]) -> float:
    if len(x) != len(center):
        raise ValueError(f"expected {len(center)} values, got {len(x)}")
    return OPTIMUM + sum((a - c) ** 2 for a, c in zip(x, center))


if __name__ == "__main__":
    time.sleep(WAIT_S)
    print(repr(score(parse(sys.stdin.read()), parse(sys.argv[1]))))
