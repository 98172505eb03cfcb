"""The benchmark's CycLedger workloads.

Each workload is one seeded CycLedger deployment built through the public
API (``create_backend``, ``ProtocolParams``, ``AdversaryConfig`` and, on
the Byzantine workload, ``LeaderboardCorruption``).  The workload seed is
passed to the program only as ``ProtocolParams.seed``.

The workloads stress different layers, so that a change aimed at one
layer shows on one workload and is predicted not to move another:

* ``txheavy-n64`` packs many transactions into few messages: the ledger
  (mempool settlement) and hashing carry the round, the fabric barely;
* ``byzantine-n128`` impeaches every committee leader every round, so it
  is the only workload that runs ``core.recovery`` and the semi-commitment
  checks; the inter-committee phase and the message fabric carry its round;
* ``honest-n256`` is the paper-sized per-message path, where the
  inter-committee phase and the fabric carry the round.  ``BENCHMARK.json``
  does not list it: its 2-second rounds leave too few per run for a steady
  median in the time the benchmark's runs have.

Run length is a fixed number of rounds derived from ``--seconds``, not a
wall-clock deadline: ``txheavy-n64`` rounds get slower as the run goes on,
so a deadline would let a faster program run more (and slower) rounds and
read as a regression.  A run repeats the same seeded deployment
``REPEATS`` times, each in a fresh process, and rounds are sized so the
repetitions together take about ``--seconds`` on a two-core x86 host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Shared by every workload: the paper's minimum partial-set size, an
#: 8-node referee committee and a transaction mix with cross-shard and
#: invalid transactions.
COMMON = dict(
    lam=2, referee_size=8, users_per_shard=24, cross_shard_ratio=0.3, invalid_ratio=0.1
)

#: Untimed rounds at the start of every run unless a workload needs more:
#: the first round imports lazily loaded modules and fills the hash and MAC
#: memos.
WARMUP_ROUNDS = 1

#: Fewest timed rounds a repetition makes, whatever ``--seconds`` says.
MIN_ROUNDS = 2

#: Same-seed repetitions of the untraced run; timings pool their rounds.
#: ``txheavy-n64`` rounds slow down as the run goes on, so a run measures
#: the same stretch of rounds several times rather than one longer stretch.
REPEATS = 4

#: Byzantine corruption share, both static and adaptive.
BYZANTINE_FRACTION = 0.25

#: Last round of the adaptive corruption policy: past any run.
POLICY_END_ROUND = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: deployment shape plus run sizing."""

    name: str
    why: str
    n: int
    m: int
    tx_per_committee: int
    byzantine: bool
    #: timed rounds per second of ``--seconds``, over all repetitions
    rounds_per_second: float
    #: least median committed transactions per timed round (0: unchecked)
    min_committed: int = 0
    #: untimed rounds at the start of every repetition
    warmup_rounds: int = WARMUP_ROUNDS

    def timed_rounds(self, seconds: float) -> int:
        """Timed rounds of one repetition."""
        return max(MIN_ROUNDS, math.ceil(seconds * self.rounds_per_second / REPEATS))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="honest-n256",
            why="paper-sized per-message path: inter phase and fabric dominate",
            n=256,
            m=8,
            tx_per_committee=12,
            byzantine=False,
            rounds_per_second=0.45,
        ),
        Workload(
            name="txheavy-n64",
            why="many transactions per message: ledger settlement and hashing dominate",
            n=64,
            m=4,
            tx_per_committee=150,
            byzantine=False,
            rounds_per_second=1.45,
            min_committed=200,
            # The first rounds commit 96, 192, 384 and then ~750 tx while
            # the generator's spendable pool fills; time the rounds after.
            warmup_rounds=4,
        ),
        Workload(
            name="byzantine-n128",
            why="every leader impeached every round: recovery and semi-commitment",
            n=128,
            m=4,
            tx_per_committee=12,
            byzantine=True,
            rounds_per_second=1.33,
        ),
    )
}


def deployment(workload: Workload, seed: int):
    """``(params, adversary, policy)`` for ``create_backend("cycledger", ...)``."""
    from repro.core.config import ProtocolParams
    from repro.nodes.adversary import AdversaryConfig
    from repro.scenarios.policies import LeaderboardCorruption

    params = ProtocolParams(
        n=workload.n,
        m=workload.m,
        tx_per_committee=workload.tx_per_committee,
        seed=seed,
        **COMMON,
    )
    if not workload.byzantine:
        return params, None, None
    adversary = AdversaryConfig(
        fraction=BYZANTINE_FRACTION,
        leader_strategy="equivocating_leader",
        voter_strategy="honest",
    )
    policy = LeaderboardCorruption(
        start_round=1,
        end_round=POLICY_END_ROUND,
        budget_fraction=BYZANTINE_FRACTION,
    )
    return params, adversary, policy


def round_problems(workload: Workload, report) -> list[str]:
    """Fidelity checks on one round: the workload still exercises the layer
    it exists for."""
    problems = []
    if workload.byzantine:
        if report.recoveries < 1:
            problems.append("byzantine round ran no leader recovery")
    else:
        if report.recoveries:
            problems.append(f"honest round ran {report.recoveries} recoveries")
        if report.dropped:
            problems.append(f"honest round dropped {report.dropped} messages")
    return problems


def run_problems(workload: Workload, committed: list[int]) -> list[str]:
    """Fidelity checks on a whole run's committed transactions per round."""
    if not workload.min_committed or not committed:
        return []
    median = sorted(committed)[len(committed) // 2]
    if median < workload.min_committed:
        return [
            f"{workload.name} commits a median {median} tx per round "
            f"(< {workload.min_committed})"
        ]
    return []
