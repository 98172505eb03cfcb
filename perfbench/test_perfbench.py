"""Self-test of the benchmark's tracing and checks.

Run from the repository root (it takes about two minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads
from worker import PHASES


def worker(name: str, mode: str, **kw) -> dict:
    return run.run_worker(name, 0, mode, time.monotonic() + 300, rounds=2, digest_at=(2,), **kw)


def test_self_time_subtracts_children() -> None:
    tracer = spans.Tracer()

    def leaf() -> None:
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer() -> None:
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_outer = tracer.wrap("outer", outer)
    tracer.round_id = 7
    span = tracer.begin("round")
    traced_outer()
    tracer.end(span)

    calls, inclusive, self_s = tracer.stats["outer"]
    leaf_calls, leaf_inclusive, _ = tracer.stats["leaf"]
    assert (calls, leaf_calls) == (1, 2)
    assert self_s == pytest.approx(inclusive - leaf_inclusive)
    assert tracer.stats["round"][2] < 0.005
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["leaf"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == by_name["round"][0]
    assert {s[5] for s in tracer.spans} == {7}


def test_detail_spans_are_capped_but_counted() -> None:
    tracer = spans.Tracer(detail_cap=3)
    fn = tracer.wrap("msg", lambda: None, detail=True)
    for _ in range(5):
        fn()
    assert tracer.stats["msg"][0] == 5
    assert len(tracer.spans) == 3
    assert tracer.detail_dropped == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_binding_complete_and_faithful(name: str, tmp_path: Path) -> None:
    """Wrapper counts match the fabric's own counters, no ``repro`` module
    keeps an unwrapped ``H`` or ``attempt_recovery``, the invariant checker
    and the workload's fidelity rules pass, and tracing leaves the ledger
    digest unchanged."""
    out = tmp_path / "trace.json"
    traced = worker(name, "traced", trace_out=out)
    untraced = worker(name, "untraced")
    assert traced["run_problems"] == []
    for row in traced["rows"]:
        assert row["problems"] == []
        layers = row["layers"]
        assert layers["net.send"][0] == row["messages"] + row["dropped"]
        assert layers["core.handler"][0] == row["delivered"]
        assert layers["crypto.hash"][0] > 0
        phases = sum(layers[f"core.phase.{p}"][1] for p in PHASES)
        wall = row["wall"] - layers["check.invariants"][1]
        assert phases <= wall
    assert traced["digests"] == untraced["digests"]
    events = json.loads(out.read_text())["traceEvents"]
    assert {"core.round", "core.phase.inter", "net.send", "crypto.hash"} <= {
        e["name"] for e in events
    }


def test_run_pools_repetitions_that_agree() -> None:
    """A short end-to-end run: every repetition and the traced replay end
    on the same digest, and timings pool the repetitions' timed rounds."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "txheavy-n64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = workloads.WORKLOADS["txheavy-n64"].warmup_rounds + workloads.MIN_ROUNDS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.REPEATS * rounds + run.REPLAY_ROUNDS
    assert f"{workloads.REPEATS * workloads.MIN_ROUNDS} rounds of {workloads.REPEATS}" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "txheavy-n64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_a_run_longer_than_the_time_limit_allows() -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "txheavy-n64",
         "--seed", "0", "--seconds", str(run.MAX_SECONDS + 1), "--trace", "1"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
