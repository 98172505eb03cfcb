"""CycLedger benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload txheavy-n64 --seed 0 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs as a closed loop of
``run_round()`` calls from one process and one thread: the next round starts
when the previous one returns.  Every round is one operation; it fails if it
raises or if a check on it fails.  The program runs in child processes
(``worker.py``), one at a time, so every measurement starts from a fresh
interpreter.

``--trace 0`` reports the end-to-end metrics.  ``workloads.REPEATS``
untraced children run the same seeded rounds one after another, each
checking ``chain.verify()`` and the workload's fidelity rules after every
round, outside the timed call; they must end on the same ledger digest.
Timings pool the timed rounds of every repetition.  A traced child then
replays the first rounds with the ``InvariantChecker`` installed, and its
ledger digest must equal the untraced one.  Further children only import
the program and build the deployment, for the median ``setup_s``.

``--trace 1`` reports the per-layer metrics: after the same untraced
repetitions, a traced child runs the same rounds; it wraps each layer's
entry points in spans (``spans.py``), runs the checker, writes its spans as
Chrome trace-event JSON under ``.perfbench/``, and must end on the same
digest.

Every metric is printed by name with its unit, or with the reason it is
absent; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# sibling modules: the script's directory is on sys.path
import workloads
from worker import PHASES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every child must finish within this many seconds of the start.
TIME_LIMIT_S = 170.0

#: Longest ``--seconds`` a run accepts.  Run length is a number of rounds,
#: and ``--trace 1`` adds a traced run of them (at up to 1.5x the cost) to
#: the untraced repetitions, so a longer run would not end within
#: ``TIME_LIMIT_S``.  The slowest run, honest-n256 with ``--trace 1``, took
#: 88 s at 40 s on a two-core x86 host; this limit leaves room for a host
#: up to 1.9x slower.
MAX_SECONDS = 40

#: Fresh processes timed for ``setup_s`` (the untraced repetitions are
#: among them).
SETUP_SAMPLES = 7

#: Rounds the traced replay of a ``--trace 0`` run covers.
REPLAY_ROUNDS = 2

#: The tail is the highest percentile with at least this many rounds beyond.
TAIL_BEYOND = 10

#: Metrics printed but left out of the JSON result.  The result must carry
#: every listed metric on every workload, end-to-end ones never 0.  Per-layer
#: counts may be 0 where a fidelity rule forces it (``core.recovery.calls``
#: and ``net.dropped`` on the honest workloads), but a time that is 0.0 on
#: every run is not a measurement.  These two are times of leader recovery,
#: which only byzantine-n128 runs; ``sim_round_s`` there includes the
#: re-selections, so a change to ``recovery_sim_s`` still moves a gated
#: metric.
NOT_EMITTED = ("recovery_sim_s", "core.recovery.wall_s")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(
    workload: str,
    seed: int,
    mode: str,
    deadline: float,
    rounds: int = 0,
    digest_at: tuple[int, ...] = (),
    trace_out: Path | None = None,
) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--rounds", str(rounds),
    ]  # fmt: skip
    if digest_at:
        cmd += ["--digest-at", *map(str, digest_at)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # A fixed hash seed keeps set iteration order, and so timing, the same
    # from run to run; results are hash-seed independent either way.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- statistics ---------------------------------------------------------------
def timed(record: dict) -> list[dict]:
    """The rounds after warm-up (all of them ran to completion)."""
    return record["rows"][record["warmup"] :]


def pooled(repeats: list[dict]) -> list[dict]:
    """The timed rounds of every repetition."""
    return [row for record in repeats for row in timed(record)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(values: list[float]) -> tuple[float, int]:
    """``(value, percentile)``: the highest whole percentile with at least
    ``TAIL_BEYOND`` samples beyond it, never below the median."""
    n = len(values)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    if pct == 50:
        return statistics.median(values), 50
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


def failures(*records: dict) -> tuple[int, int]:
    """``(attempted, failed)`` rounds over the given worker records."""
    rows = [row for record in records for row in record["rows"]]
    return len(rows), sum(1 for row in rows if row["problems"])


# -- metrics ------------------------------------------------------------------
class Report:
    """Metric lines for people, plus the JSON metrics for the last line."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())
        if name not in NOT_EMITTED:
            self.metrics[name] = {"value": value, "unit": unit}

    def absent(self, name: str, unit: str, reason: str) -> None:
        self.lines.append(f"  {name:<34} {'absent':>14} {unit:<6} {reason}")


def end_to_end(report: Report, untraced: list[dict], setups: list[float]) -> None:
    rows = pooled(untraced)
    walls = [r["wall"] for r in rows]
    body_s = sum(walls)
    tail_value, tail_pct = tail(walls)
    report.add("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh processes")
    report.add(
        "round_wall_p50_s",
        statistics.median(walls),
        "s",
        f"{len(walls)} rounds of {len(untraced)} repetitions",
    )
    report.add(
        "round_wall_tail_s", tail_value, "s", f"p{tail_pct} of {len(walls)} rounds"
    )
    report.add("msgs_per_s", ratio(sum(r["delivered"] for r in rows), body_s), "1/s")
    report.add("committed_tx_per_s", ratio(sum(r["committed"] for r in rows), body_s), "1/s")
    report.add(
        "peak_rss_mb",
        statistics.median(r["peak_rss_mb"] for r in untraced),
        "MB",
        "median over the untraced worker processes",
    )
    report.add("sim_round_s", statistics.median(r["sim_time"] for r in rows), "s", "simulated")
    report.add(
        "msgs_per_committed_tx",
        ratio(sum(r["messages"] for r in rows), sum(r["committed"] for r in rows)),
        "count",
    )
    recoveries = [t for r in rows for t in r["recovery_times"]]
    if recoveries:
        report.add(
            "recovery_sim_s",
            statistics.median(recoveries),
            "s",
            f"simulated, {len(recoveries)} re-selections (printed only)",
        )
    else:
        report.absent("recovery_sim_s", "s", "no leader re-selection ran on this workload")


def per_layer(report: Report, untraced: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer metrics (means per timed round unless noted); returns the
    phase and layer shares of the traced round wall.

    The end-to-end metric each should move, and on which workload:

    * ``core.phase.inter.*``, ``core.handler.*`` and ``net.*``: ``msgs_per_s``
      and ``round_wall_p50_s`` on byzantine-n128 and honest-n256, barely on
      txheavy-n64;
    * ``core.phase.intra.*``, ``core.phase.semicommit.*`` and
      ``core.recovery.*``: ``round_wall_p50_s`` on byzantine-n128, while
      ``recovery_sim_s`` stays exactly the same (both printed, not emitted:
      see ``NOT_EMITTED``);
    * ``core.round.other_s``, ``ledger.*`` and ``crypto.*``:
      ``round_wall_p50_s``, ``committed_tx_per_s`` and ``round_wall_growth``
      on txheavy-n64.
    """
    rows = timed(traced)
    count = len(rows)

    def total(name: str, index: int) -> float:
        return sum(r["layers"].get(name, (0, 0.0, 0.0))[index] for r in rows)

    def mean(name: str, index: int) -> float:
        return total(name, index) / count

    # Round wall without the invariant checker, which the untraced run lacks.
    walls = [r["wall"] - r["layers"]["check.invariants"][1] for r in rows]
    round_s = sum(walls) / count
    phase_s = {}
    for p in PHASES:
        phase_s[p] = mean(f"core.phase.{p}", 1)
        msgs = sum(r["phase_msgs"][p] for r in rows)
        report.add(f"core.phase.{p}.wall_s", phase_s[p], "s")
        report.add(f"core.phase.{p}.msgs", msgs / count, "count")
        report.add(f"core.phase.{p}.us_per_msg", 1e6 * ratio(phase_s[p] * count, msgs), "us")
    other_s = round_s - sum(phase_s.values())
    report.add("core.round.other_s", other_s, "s", f"phases + other = traced round wall {round_s:.6g} s")
    report.add("core.handler.self_s", mean("core.handler", 2), "s")
    report.add(
        "core.handler.us_per_msg",
        1e6 * ratio(total("core.handler", 2), total("core.handler", 0)),
        "us",
    )
    report.add("core.recovery.calls", mean("core.recovery", 0), "count")
    if total("core.recovery", 0):
        report.add("core.recovery.wall_s", mean("core.recovery", 1), "s", "printed only")
    else:
        report.absent("core.recovery.wall_s", "s", "no recovery ran on this workload")
    delivered = sum(r["delivered"] for r in rows)
    messages = sum(r["messages"] for r in rows)
    report.add("net.send.calls", mean("net.send", 0), "count")
    report.add("net.send.self_s", mean("net.send", 2), "s")
    report.add("net.send.us_per_msg", 1e6 * ratio(total("net.send", 2), total("net.send", 0)), "us")
    report.add("net.dispatch.self_s", mean("net.dispatch", 2), "s", "Network.run minus its children")
    report.add("net.dispatch.us_per_msg", 1e6 * ratio(total("net.dispatch", 2), delivered), "us")
    report.add("net.dropped", sum(r["dropped"] for r in rows) / count, "count")
    report.add("net.bytes_per_msg", ratio(sum(r["bytes"] for r in rows), messages), "B")
    report.add("crypto.hash.calls", mean("crypto.hash", 0), "count")
    report.add("crypto.hash.self_s", mean("crypto.hash", 2), "s")
    hits = [r["hash_hits"] for r in rows]
    if None in hits:
        report.absent("crypto.hash.memo_hit_ratio", "ratio", "H has no memo")
    else:
        report.add(
            "crypto.hash.memo_hit_ratio", ratio(sum(hits), total("crypto.hash", 0)), "ratio"
        )
    report.add("crypto.mac.calls", mean("crypto.mac", 0), "count")
    report.add("crypto.mac.self_s", mean("crypto.mac", 2), "s")
    settle = [r["layers"]["ledger.mempool.settle"][1] for r in rows]
    quarter = max(1, count // 4)
    report.add("ledger.mempool.admit_s", mean("ledger.mempool.admit", 1), "s")
    report.add(
        "ledger.mempool.settle_s.first_quarter",
        statistics.median(settle[:quarter]),
        "s",
        f"median of first {quarter} rounds",
    )
    report.add(
        "ledger.mempool.settle_s.last_quarter",
        statistics.median(settle[-quarter:]),
        "s",
        f"median of last {quarter} rounds",
    )
    report.add("ledger.workload.generate_s", mean("ledger.workload.generate", 1), "s")
    report.add("ledger.mempool.depth", sum(r["offered"] for r in rows) / count, "count", "after admit")
    untraced_s = sum(r["wall"] for r in pooled(untraced)) / len(untraced)
    report.add(
        "trace.overhead_ratio",
        ratio(sum(walls), untraced_s),
        "ratio",
        "same seed and rounds, untraced: mean of the repetitions",
    )
    # The soak concern in a short run.  It is a ratio of two medians of wall
    # times, so host noise moves it by more than any bound the end-to-end
    # gate allows; it is reported here, ungated.
    quarter = max(1, count // 4)
    first = [r["wall"] for rec in untraced for r in timed(rec)[:quarter]]
    last = [r["wall"] for rec in untraced for r in timed(rec)[-quarter:]]
    report.add(
        "round_wall_growth",
        ratio(statistics.median(last), statistics.median(first)),
        "ratio",
        f"untraced runs: last {quarter} over first {quarter} rounds",
    )

    shares = {f"phase.{p}": phase_s[p] / round_s for p in PHASES}
    shares["round.other"] = other_s / round_s
    shares["net"] = (mean("net.send", 2) + mean("net.dispatch", 2)) / round_s
    shares["core.handler"] = mean("core.handler", 2) / round_s
    shares["crypto"] = (mean("crypto.hash", 2) + mean("crypto.mac", 2)) / round_s
    shares["ledger"] = (
        mean("ledger.mempool.admit", 1) + mean("ledger.mempool.settle", 1)
    ) / round_s
    return shares


# -- entry point --------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= MAX_SECONDS:
        print(
            f"error: --seconds {args.seconds:g} is outside (0, {MAX_SECONDS}]: "
            f"the run would not end within {TIME_LIMIT_S:g} s",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.warmup_rounds + workload.timed_rounds(args.seconds)
    print(
        f"workload {workload.name} seed {args.seed}: {rounds} rounds "
        f"({workload.warmup_rounds} warm-up) x {workloads.REPEATS} repetitions, "
        "closed loop, 1 process, 1 thread"
    )
    print(f"  why: {workload.why}")

    def worker(mode: str, **kw) -> dict:
        return run_worker(workload.name, args.seed, mode, deadline, **kw)

    report = Report()
    problems: list[str] = []
    compare_at = min(REPLAY_ROUNDS, rounds) if args.trace == 0 else rounds
    untraced = [
        worker("untraced", rounds=rounds, digest_at=(compare_at, rounds))
        for _ in range(workloads.REPEATS)
    ]
    setups = [u["setup_s"] for u in untraced]
    if args.trace == 0:
        traced = worker("traced", rounds=compare_at, digest_at=(compare_at,))
        setups += [worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    else:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_out = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        traced = worker("traced", rounds=rounds, digest_at=(rounds,), trace_out=trace_out)
    records = [*untraced, traced]
    attempted, failed = failures(*records)
    for record in records:
        problems += record["run_problems"]
        for row in record["rows"]:
            problems += [f"round {row['round']}: {p}" for p in row["problems"]]
    # A worker stops at the first round that raises; that row has no counts.
    complete = all(
        len(r["rows"]) == n and "messages" in r["rows"][-1]
        for r, n in [(u, rounds) for u in untraced] + [(traced, compare_at)]
    )
    if not complete:
        problems.append("a worker stopped before its last round")
    else:
        problems += workloads.run_problems(
            workload, [r["committed"] for r in timed(untraced[0])]
        )
        for at, runs in ((compare_at, records), (rounds, untraced)):
            digests = [r["digests"].get(str(at)) for r in runs]
            if None in digests or len(set(digests)) != 1:
                problems.append(f"digests after round {at} differ: {digests}")

    if complete:
        print("end-to-end metrics (untraced repetitions):")
        end_to_end(report, untraced, setups)
        e2e = dict(report.metrics)
        for line in report.lines:
            print(line)
        if args.trace == 1:
            report = Report()
            shares = per_layer(report, untraced, traced)
            print("per-layer metrics (traced run; per timed round unless noted):")
            for line in report.lines:
                print(line)
            print("  traced shares of round wall: " + ", ".join(
                f"{k} {100 * v:.1f}%" for k, v in shares.items()
            ))
            print(f"  spans written to {trace_out.relative_to(ROOT)}")
        metrics = e2e if args.trace == 0 else report.metrics
    else:
        metrics = {}
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
