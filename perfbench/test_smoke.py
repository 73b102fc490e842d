"""The benchmark's own tests: the smoke size of the one command.

    python3 -m pytest perfbench -q

Each workload runs one small round with every output check; the last
stdout line must be a well-formed, correct result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", ["serve-mix", "serve-hard", "lib-typed-m"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload: str, trace: str) -> None:
    out = run("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_refuses_without_program(tmp_path) -> None:
    out = subprocess.run([sys.executable, RUN, "--workload", "serve-mix", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
