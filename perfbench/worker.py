"""Run one benchmark workload in a fresh process and print its raw record.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload honest-n256 --seed 0 \\
        --mode untraced --rounds 16 --digest-at 2 16

Modes:

* ``setup``: import ``repro.backends`` and build the deployment, nothing
  else; the record holds ``setup_s``;
* ``untraced``: run ``--rounds`` rounds as a closed loop, timing each
  ``run_round()`` call, and check ``chain.verify()`` and the workload's
  fidelity rules after every round, outside the timed call;
* ``traced``: the same rounds with every layer entry point wrapped in a
  span (see ``spans.py``) and the ``InvariantChecker`` installed as a round
  hook; it also checks the wrappers against the fabric's own counters.

Both run modes record a digest of the ledger state (chain head hash, total
messages, total simulated time and the reputation table) after each round
named by ``--digest-at``; ``run.py`` compares the digests of the two modes.
The record is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

PHASES = ("config", "semicommit", "intra", "inter", "reputation", "selection", "block")


def ledger_digest(ledger) -> str:
    """Chain head hash, total messages, total sim time, reputation table."""
    h = hashlib.sha256()
    h.update(ledger.chain.head.hash if len(ledger.chain) else b"")
    h.update(b"|%d|" % ledger.metrics.total_messages())
    h.update(repr(ledger.net.global_now).encode())
    for pk, value in sorted(ledger.reputation.items()):
        h.update(f"|{pk}={value!r}".encode())
    return h.hexdigest()


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--digest-at", type=int, nargs="*", default=())
    parser.add_argument("--trace-out", default=None)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    clock = time.perf_counter

    # setup_s: importing the program and building the deployment, in a
    # fresh process; the benchmark's own imports come after.
    start = clock()
    import repro.backends

    import_s = clock() - start
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    params, adversary, policy = workloads.deployment(workload, args.seed)
    tracer = rebinder = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        rebinder = spans.instrument(tracer)
    start = clock()
    ledger = repro.backends.create_backend(
        "cycledger", params, adversary=adversary, policy=policy
    )
    record: dict = {"setup_s": import_s + clock() - start}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    from repro.metrics.counters import Roles

    checker = None
    if tracer is not None:
        from repro.analysis.invariants import InvariantChecker

        checker = InvariantChecker(raise_on_violation=False)
        spans.traced_round_hooks(
            tracer, ledger.pipeline, lambda: checker.install(ledger)
        )
        spans.trace_phases(tracer, ledger.pipeline)
        rebinder.rebind()

    rows: list[dict] = []
    digests: dict[int, str] = {}
    depth = 0
    for round_id in range(1, args.rounds + 1):
        row: dict = {"round": round_id}
        rows.append(row)
        if tracer is not None:
            tracer.round_id = round_id
            before = tracer.snapshot()
            hits_before = spans.hash_memo_hits()
            violations_before = len(checker.violations)
        try:
            if tracer is None:
                start = clock()
                report = ledger.run_round()
                row["wall"] = clock() - start
            else:
                span = tracer.begin("core.round")
                try:
                    report = ledger.run_round()
                finally:
                    row["wall"] = tracer.end(span)
        except Exception as exc:  # a raising round is a failed operation
            row["problems"] = [f"run_round raised {exc!r}"]
            break
        net = ledger.net
        census = net.metrics  # the round's own collector
        row.update(
            messages=report.messages,
            delivered=net.delivered_messages,
            bytes=report.bytes_sent,
            committed=report.packed,
            recoveries=report.recoveries,
            recovery_times=list(report.recovery_times),
            dropped=report.dropped,
            sim_time=report.sim_time,
            offered=depth + report.submitted,
            phase_msgs={
                p: sum(census.messages_in(p, role) for role in Roles.ALL)
                for p in PHASES
            },
        )
        depth = report.queue_depth
        problems = workloads.round_problems(workload, report)
        if not ledger.chain.verify():
            problems.append("chain.verify() failed")
        if tracer is not None:
            after = tracer.snapshot()
            row["layers"] = {
                name: [a - b for a, b in zip(stat, before.get(name, (0, 0, 0)))]
                for name, stat in after.items()
            }
            hits = spans.hash_memo_hits()
            row["hash_hits"] = None if hits is None else hits - hits_before
            problems += [str(v) for v in checker.violations[violations_before:]]
            sends = row["layers"]["net.send"][0]
            if sends != report.messages + report.dropped:
                problems.append(
                    f"net.send calls {sends} != recorded {report.messages} "
                    f"+ dropped {report.dropped}"
                )
            handled = row["layers"]["core.handler"][0]
            if handled != net.delivered_messages:
                problems.append(
                    f"handler calls {handled} != delivered {net.delivered_messages}"
                )
            rebinder.rebind()
        row["problems"] = problems
        if round_id in args.digest_at:
            digests[round_id] = ledger_digest(ledger)

    run_problems = []
    if rebinder is not None:
        run_problems = [f"unwrapped binding {b}" for b in rebinder.unwrapped()]
    if tracer is not None and args.trace_out:
        tracer.write_chrome_trace(
            args.trace_out,
            {"workload": workload.name, "seed": args.seed, "rounds": args.rounds},
        )
    record.update(
        warmup=workload.warmup_rounds,
        rows=rows,
        digests=digests,
        run_problems=run_problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
