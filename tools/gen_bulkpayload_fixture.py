"""Regenerate ``tests/fixtures/pre_bulkpayload_rounds.json``.

Run this at a known-good revision to pin the byte-exact behaviour of a
transaction-heavy CycLedger deployment (the fixture committed with the
walk-once bulk-payload path was generated at the revision before it):

    PYTHONPATH=src python tools/gen_bulkpayload_fixture.py

The other pinned fixtures use at most 6 transactions per committee, so
they never reach rollback-heavy legacy settlement or 150-wide vote
vectors.  This one runs 150 transactions per committee for 8 rounds and
records, per round, the message count, bytes sent, packed transactions,
simulated time and recoveries, then the final chain head and reputation.
``tests/test_bulk_payload.py`` replays it.
"""

from __future__ import annotations

import json
import os

from repro.backends import create_backend
from repro.core.config import ProtocolParams

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "fixtures",
    "pre_bulkpayload_rounds.json",
)

PARAMS = dict(
    n=64, m=4, lam=2, referee_size=8, seed=0, users_per_shard=24,
    tx_per_committee=150, cross_shard_ratio=0.3, invalid_ratio=0.1,
)

ROUNDS = 8


def round_view(report) -> dict[str, object]:
    """The per-round fields the fixture pins."""
    return {
        "messages": report.messages,
        "bytes_sent": report.bytes_sent,
        "packed": report.packed,
        "sim_time": report.sim_time,
        "recoveries": report.recoveries,
    }


def main() -> None:
    """Run the pinned deployment and write the fixture."""
    ledger = create_backend("cycledger", ProtocolParams(**PARAMS))
    reports = ledger.run(ROUNDS)
    fixture = {
        "backend": "cycledger",
        "params": PARAMS,
        "rounds": ROUNDS,
        "rows": [round_view(r) for r in reports],
        "final": {
            "chain_head": ledger.chain.head.hash.hex(),
            "reputation": dict(sorted(ledger.reputation.items())),
        },
    }
    with open(FIXTURE_PATH, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(FIXTURE_PATH)} ({ROUNDS} rounds)")


if __name__ == "__main__":
    main()
