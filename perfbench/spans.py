"""Span tracing around the calls into each layer, from outside the program.

The traced run wraps the public entry points of every layer it reports on
(span name: wrapped callable):

* ``core.round``: ``ledger.run_round`` (opened by the worker);
* ``core.phase.<p>``: the ``PhasePipeline`` pre/post hooks of phase ``p``;
* ``core.handler``: ``ProtocolNode.receive``;
* ``core.recovery``: ``core.recovery.attempt_recovery``;
* ``net.send``: ``Network.send``;
* ``net.dispatch``: ``Network.run``;
* ``crypto.hash``: ``crypto.hashing.H``;
* ``crypto.mac``: ``PKI.mac`` and ``PKI.mac_many``;
* ``ledger.mempool.admit`` / ``ledger.mempool.settle``: ``TxMempool.admit``
  / ``TxMempool.settle``;
* ``ledger.workload.generate``: ``WorkloadGenerator.generate_batch``;
* ``check.invariants``: the ``InvariantChecker`` round hook.

Methods are wrapped on their class.  Functions that modules import by name
(``H``, ``attempt_recovery``) are rebound in every ``repro.*`` module that
holds them, because each ``from ... import H`` is its own binding; a missed
one would undercount its layer.

Every span has a name, start, end, parent and the round it belongs to.  A
span's self time is its duration minus the durations of its child spans;
self and inclusive times are accumulated per name as spans close, and the
spans themselves are kept in memory and written at exit as Chrome
trace-event JSON, which Perfetto and ``chrome://tracing`` load.  Per-message
spans (``detail=True``) are kept only up to a cap so the file stays small;
their statistics always count.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from typing import Any, Callable

#: Per-message spans kept for the trace file; later ones are only counted.
DETAIL_SPAN_CAP = 100_000


class Tracer:
    """Span stack plus per-name ``[calls, inclusive_s, self_s]`` totals."""

    def __init__(self, detail_cap: int = DETAIL_SPAN_CAP) -> None:
        self.stats: dict[str, list] = {}
        #: ``(span_id, parent_id, name, start, end, round_id)``
        self.spans: list[tuple] = []
        self.round_id = 0
        self.detail_cap = detail_cap
        self.detail_dropped = 0
        # Open spans, innermost last: [span_id, time covered by children].
        self._stack: list[list] = []
        # name and start of the spans opened by begin(), by span id
        self._explicit: dict[int, tuple[str, float]] = {}
        self._ids = itertools.count(1)

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def snapshot(self) -> dict[str, tuple]:
        return {name: tuple(s) for name, s in self.stats.items()}

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        dur = end - start
        stat = self.stat(name)
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[1]
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            parent_id = parent[0]
        self.spans.append((frame[0], parent_id, name, start, end, self.round_id))

    # -- explicit spans (round, phase) ----------------------------------------
    def begin(self, name: str) -> int:
        span_id = next(self._ids)
        self._stack.append([span_id, 0.0])
        self._explicit[span_id] = (name, time.perf_counter())
        return span_id

    def end(self, span_id: int) -> float:
        """Close ``span_id`` and any explicit span an exception left open
        inside it; returns its duration."""
        now = time.perf_counter()
        while self._stack:
            frame = self._stack.pop()
            name, start = self._explicit.pop(frame[0])
            self._close(frame, name, start, now)
            if frame[0] == span_id:
                return now - start
        raise ValueError(f"span {span_id} is not open")

    # -- wrapped callables ---------------------------------------------------
    def wrap(self, name: str, fn: Callable, detail: bool = False) -> Callable:
        """``fn`` inside a span named ``name``; ``detail`` marks a
        per-message span whose record is capped."""
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        stat = self.stat(name)
        cap = self.detail_cap if detail else float("inf")
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                parent_id = 0
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_id = parent[0]
                if len(spans) < cap:
                    spans.append(
                        (frame[0], parent_id, name, start, end, tracer.round_id)
                    )
                else:
                    tracer.detail_dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output --------------------------------------------------------------
    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """All kept spans as Chrome trace-event JSON (microsecond clock)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "round": round_id},
            }
            for sid, parent, name, start, end, round_id in sorted(
                self.spans, key=lambda s: (s[3], s[0])
            )
        ]
        meta = dict(metadata, detail_spans_not_kept=self.detail_dropped)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)


class Rebinder:
    """Replaces module-level bindings of wrapped functions in ``repro.*``."""

    def __init__(self) -> None:
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    def add(self, original: Callable, wrapper: Callable) -> None:
        self._wrappers[id(original)] = (original, wrapper)

    def _stale(self) -> list[tuple[Any, str, Callable]]:
        """``(module, attr, wrapper)`` for each ``repro.*`` module attribute
        still bound to an original."""
        stale = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in vars(module).items():
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    stale.append((module, attr, entry[1]))
        return stale

    def rebind(self) -> None:
        """Rebind every stale binding.  Cheap enough to call once per round,
        which catches modules imported lazily."""
        for module, attr, wrapper in self._stale():
            setattr(module, attr, wrapper)

    def unwrapped(self) -> list[str]:
        """``module.attr`` names in ``repro.*`` still bound to an original."""
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._stale()]


def instrument(tracer: Tracer) -> Rebinder:
    """Wrap every layer entry point listed in the module docstring.

    Call before building the ledger, so instances never hold a bound
    original; call :meth:`Rebinder.rebind` again after lazy imports.
    """
    from repro.core import recovery
    from repro.crypto import hashing
    from repro.crypto.pki import PKI
    from repro.ledger.workload import TxMempool, WorkloadGenerator
    from repro.net.node import ProtocolNode
    from repro.net.simulator import Network

    Network.send = tracer.wrap("net.send", Network.send, detail=True)
    Network.run = tracer.wrap("net.dispatch", Network.run)
    ProtocolNode.receive = tracer.wrap(
        "core.handler", ProtocolNode.receive, detail=True
    )
    PKI.mac = tracer.wrap("crypto.mac", PKI.mac, detail=True)
    PKI.mac_many = tracer.wrap("crypto.mac", PKI.mac_many, detail=True)
    TxMempool.admit = tracer.wrap("ledger.mempool.admit", TxMempool.admit)
    TxMempool.settle = tracer.wrap("ledger.mempool.settle", TxMempool.settle)
    WorkloadGenerator.generate_batch = tracer.wrap(
        "ledger.workload.generate", WorkloadGenerator.generate_batch
    )

    rebinder = Rebinder()
    rebinder.add(hashing.H, tracer.wrap("crypto.hash", hashing.H, detail=True))
    rebinder.add(
        recovery.attempt_recovery,
        tracer.wrap("core.recovery", recovery.attempt_recovery),
    )
    rebinder.rebind()
    return rebinder


def hash_memo_hits() -> int | None:
    """Hits of the flat-argument memo under ``H``, or None without one."""
    from repro.crypto import hashing

    memo = getattr(hashing, "_H_flat", None)
    info = getattr(memo, "cache_info", None)
    return info().hits if info is not None else None


def trace_phases(tracer: Tracer, pipeline) -> None:
    """Open a ``core.phase.<p>`` span in each phase's pre hook and close it
    in its post hook."""
    open_spans: dict[str, int] = {}

    def pre(ctx, phase: str) -> None:
        open_spans[phase] = tracer.begin(f"core.phase.{phase}")

    def post(ctx, phase: str) -> None:
        tracer.end(open_spans.pop(phase))

    for phase in pipeline.names:
        pipeline.add_phase_hook(phase, "pre", pre)
        pipeline.add_phase_hook(phase, "post", post)


def traced_round_hooks(tracer: Tracer, pipeline, install: Callable[[], None]) -> None:
    """Run ``install()`` (which adds round hooks to ``pipeline``) so that
    every round hook it adds runs inside a ``check.invariants`` span."""
    add = pipeline.add_round_hook

    def add_traced(when: str, hook: Callable) -> None:
        add(when, tracer.wrap("check.invariants", hook))

    pipeline.add_round_hook = add_traced
    try:
        install()
    finally:
        del pipeline.add_round_hook
