"""Bulk payloads are walked once, and every byte stays the same.

The round sizes, encodes and settles the same immutable bulk values many
times.  These tests pin the single-walk paths to the generic ones:

1. a transaction-heavy deployment replays the fixture recorded before the
   single-walk paths existed (``tests/fixtures/pre_bulkpayload_rounds.json``,
   regenerated by ``tools/gen_bulkpayload_fixture.py``);
2. the int-run fast paths of ``canonical_bytes`` and ``payload_size`` equal
   the element-wise encoding and the frozen ``naive_payload_size`` oracle,
   on both sides of the length cutoff and for every element type that must
   fall through (``bool``, numpy scalars, ints outside the table);
3. ``Transaction.wire_size`` equals ``naive_payload_size``;
4. the batched legacy settlement leaves the generator's spendable and spent
   lists exactly as a per-transaction rollback does;
5. ``VoteRound.vlist_tuple`` is the matrix as nested int tuples.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.crypto.hashing import _INT_RUN_MIN, _SMALL_INT_ENC, canonical_bytes
from repro.ledger.transaction import Transaction, TxInput, TxOutput
from repro.ledger.workload import WorkloadGenerator, _without_first
from repro.net.message import payload_size
from repro.perf.baselines import naive_payload_size

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "pre_bulkpayload_rounds.json"
)


# -- 1. the transaction-heavy fixture ------------------------------------------
def test_txheavy_rounds_match_pre_bulkpayload_fixture():
    with open(FIXTURE_PATH) as fh:
        fx = json.load(fh)
    ledger = create_backend(fx["backend"], ProtocolParams(**fx["params"]))
    reports = ledger.run(fx["rounds"])
    assert len(reports) == len(fx["rows"])
    for index, (report, want) in enumerate(zip(reports, fx["rows"])):
        got = {
            "messages": report.messages,
            "bytes_sent": report.bytes_sent,
            "packed": report.packed,
            "sim_time": report.sim_time,
            "recoveries": report.recoveries,
        }
        assert got == want, f"round {index} diverged from the fixture"
    assert ledger.chain.head.hash.hex() == fx["final"]["chain_head"]
    assert dict(sorted(ledger.reputation.items())) == fx["final"]["reputation"]


# -- 2. int-run fast paths -------------------------------------------------------
def reference_encoding(obj) -> bytes:
    """The canonical encoding spelled out element by element."""
    if isinstance(obj, (bool, np.bool_)):
        return b"o1:1" if obj else b"o1:0"
    if isinstance(obj, (int, np.integer)):
        text = str(int(obj)).encode("ascii")
        return b"i%d:%s" % (len(text), text)
    if isinstance(obj, (tuple, list)):
        body = b"\x1f".join(reference_encoding(x) for x in obj)
        return b"t%d:%s" % (len(body), body)
    raise TypeError(type(obj).__name__)


small_ints = st.integers(min_value=-300, max_value=300)
int_like = st.one_of(
    small_ints,
    st.integers(),
    st.sampled_from([256, 257, -257, 10**20, -(10**100)]),
    st.booleans(),
    st.integers(min_value=-128, max_value=127).map(np.int8),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)
lengths = dict(min_size=0, max_size=3 * _INT_RUN_MIN)
int_runs = st.one_of(
    st.lists(small_ints, **lengths).map(tuple),
    st.lists(small_ints, **lengths),
    st.lists(int_like, **lengths).map(tuple),
)
nested = st.recursive(
    int_runs, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=6
)


@settings(max_examples=300, deadline=None)
@given(nested)
def test_canonical_bytes_int_runs_match_elementwise_encoding(seq):
    assert canonical_bytes(seq) == reference_encoding(seq)


@settings(max_examples=300, deadline=None)
@given(nested)
def test_payload_size_int_runs_match_naive_oracle(seq):
    assert payload_size(seq) == naive_payload_size(seq)


@pytest.mark.parametrize(
    "length", [0, 1, _INT_RUN_MIN - 1, _INT_RUN_MIN, _INT_RUN_MIN + 1, 150]
)
@pytest.mark.parametrize(
    "fill",
    [
        lambda i: i % 3 - 1,  # vote values
        lambda i: 250 + i,  # crosses the table's upper edge
        lambda i: -(10**30) * i,  # huge ints
        lambda i: bool(i % 2),  # bools must not encode as ints
        lambda i: np.int8(i % 3 - 1),  # numpy scalars take the generic path
        lambda i: i if i % 2 else np.int64(i),  # mixed
        lambda i: i if i % 2 else True,  # mixed int/bool
    ],
)
def test_int_run_cutoff_both_sides(length, fill):
    as_list = [fill(i) for i in range(length)]
    for seq in (as_list, tuple(as_list)):
        assert canonical_bytes(seq) == reference_encoding(seq)
        assert payload_size(seq) == naive_payload_size(seq)
        nested_seq = (seq, (seq, "tag"), 7)
        assert payload_size(nested_seq) == naive_payload_size(nested_seq)


def test_small_int_table_holds_the_generic_encoding():
    for value, enc in _SMALL_INT_ENC.items():
        assert type(value) is int
        assert enc == reference_encoding(value)


def test_int_subclass_keeps_its_own_text():
    class Loud(int):
        def __str__(self) -> str:
            return "loud"

    assert canonical_bytes(Loud(1)) == b"i4:loud"
    body = b"\x1f".join([b"i4:loud"] * _INT_RUN_MIN)
    assert canonical_bytes((Loud(1),) * _INT_RUN_MIN) == b"t%d:%s" % (len(body), body)


# -- 3. cached transaction wire size ------------------------------------------------
tx_inputs = st.builds(
    TxInput, st.binary(max_size=40), st.integers(min_value=0, max_value=2**40)
)
tx_outputs = st.builds(TxOutput, st.text(max_size=24), st.integers())
transactions = st.builds(
    Transaction,
    st.lists(tx_inputs, max_size=3).map(tuple),
    st.lists(tx_outputs, max_size=3).map(tuple),
    st.integers(),
)


@settings(max_examples=200, deadline=None)
@given(transactions)
def test_transaction_wire_size_matches_naive_oracle(tx):
    assert tx.wire_size == naive_payload_size(tx)
    assert payload_size(tx) == tx.wire_size
    assert payload_size(([tx, tx], "sig")) == naive_payload_size(([tx, tx], "sig"))


# -- 4. batched legacy settlement ---------------------------------------------------
def reference_confirm(generator: WorkloadGenerator, packed: set[bytes]):
    """The per-transaction rollback: one ``list.remove`` scan per effect."""
    spendable = [list(bucket) for bucket in generator._spendable]
    spent = list(generator._spent)
    for txid, (home, consumed, created) in generator._effects.items():
        if txid in packed:
            continue
        for shard, entry in created:
            try:
                spendable[shard].remove(entry)
            except ValueError:
                pass
        spendable[home].append(consumed)
        try:
            spent.remove(consumed)
        except ValueError:
            pass
    return spendable, spent


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=5), max_size=20),
    st.lists(st.integers(min_value=0, max_value=7), max_size=10),
)
def test_without_first_is_repeated_list_remove(items, removals):
    want = list(items)
    for value in removals:
        try:
            want.remove(value)
        except ValueError:
            pass
    assert _without_first(items, Counter(removals)) == want


@pytest.mark.parametrize("spent_retention", [0, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_confirm_round_matches_per_tx_rollback(seed, spent_retention):
    generator = WorkloadGenerator(
        m=3,
        users_per_shard=10,
        rng=np.random.default_rng(seed),
        spent_retention=spent_retention,
    )
    pick = np.random.default_rng(100 + seed)
    defects: set[str] = set()
    rolled_total = 0
    for _round in range(8):
        batch = generator.generate_batch(40, cross_shard_ratio=0.3, invalid_ratio=0.3)
        defects |= {t.defect for t in batch if t.defect}
        packed = {t.tx.txid for t in batch if pick.random() < 0.5}
        want_spendable, want_spent = reference_confirm(generator, packed)
        want_rolled = sum(1 for txid in generator._effects if txid not in packed)
        assert generator.confirm_round(packed) == want_rolled
        assert generator._spendable == want_spendable
        assert generator._spent == want_spent
        assert generator._effects == {}
        rolled_total += want_rolled
    assert defects == {"double_spend", "overspend", "phantom_input"}
    assert rolled_total > 0


# -- 5. the VList tuple ---------------------------------------------------------------
def test_vlist_tuple_is_the_matrix_as_int_tuples():
    ledger = create_backend(
        "cycledger",
        ProtocolParams(
            n=24, m=2, lam=2, referee_size=6, seed=3, users_per_shard=8,
            tx_per_committee=12, invalid_ratio=0.2,
        ),
    )
    report = ledger.run_round()
    rounds = list(report.intra.rounds.values())
    assert rounds
    for vote_round in rounds:
        want = tuple(tuple(int(v) for v in row) for row in vote_round.matrix)
        assert vote_round.vlist_tuple == want
        assert all(type(v) is int for row in vote_round.vlist_tuple for v in row)
