"""Message envelopes and wire-size estimation."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

from repro.ledger.transaction import Transaction

_SIG_SIZE = 64  # public key reference + MAC tag, like an Ed25519 signature
_HASH_SIZE = 32
_INT_SIZE = 8

#: dataclass type -> field-name tuple, resolved once per type instead of
#: re-running ``dataclasses.fields`` introspection on every sized payload
#: (the profile showed that introspection dominating ``payload_size`` for
#: transaction-heavy payloads).
_FIELDS_BY_TYPE: dict[type, tuple[str, ...]] = {}

_NP_SCALAR_TYPES: tuple[type, ...] | None = None


def _np_scalar_types() -> tuple[type, ...]:
    global _NP_SCALAR_TYPES
    if _NP_SCALAR_TYPES is None:
        import numpy as np

        _NP_SCALAR_TYPES = (np.integer, np.floating)
    return _NP_SCALAR_TYPES


#: Shortest container worth the exact-type scan of the int-run fast path.
_INT_RUN_MIN = 8

_JUST_INT = {int}


def _size_container(obj: Any) -> int:
    # Int runs (vote vectors, VList rows): every element exactly ``int``
    # sizes to _INT_SIZE without a per-element dispatch.
    if len(obj) >= _INT_RUN_MIN and set(map(type, obj)) == _JUST_INT:
        return 2 + _INT_SIZE * len(obj)
    return 2 + sum(map(payload_size, obj))


def _size_dict(obj: dict) -> int:
    return 2 + sum(payload_size(k) + payload_size(v) for k, v in obj.items())


def size_fields(obj: Any) -> int:
    """The wire size of a dataclass instance: framing plus its fields."""
    cls = type(obj)
    names = _FIELDS_BY_TYPE.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(obj))
        _FIELDS_BY_TYPE[cls] = names
    return 2 + sum(payload_size(getattr(obj, name)) for name in names)


def _size_slow(obj: Any) -> int:
    """Uncommon payload types: named crypto objects, dataclasses, numpy
    scalars, and subclasses of the fast-dispatched builtins."""
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return _INT_SIZE
    if isinstance(obj, (bytes, str)):
        return len(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return _size_container(obj)
    if isinstance(obj, dict):
        return _size_dict(obj)
    # Signatures and VRF outputs get their conventional fixed sizes.
    cls = type(obj)
    type_name = cls.__name__
    if type_name == "Signature":
        return _SIG_SIZE
    if type_name == "VRFOutput":
        return _SIG_SIZE + _HASH_SIZE
    if dataclasses.is_dataclass(obj):
        return size_fields(obj)
    if isinstance(obj, _np_scalar_types()):
        return _INT_SIZE
    raise TypeError(f"payload_size cannot size {type_name}")


#: Exact-type fast dispatch for the builtins that dominate real payloads.
#: ``bool``/``int`` must be distinct entries (bool is an int subclass, but
#: ``type(obj)`` lookups never confuse them), and subclasses fall through
#: to :func:`_size_slow`, preserving the old isinstance semantics.
#: Transactions are immutable and sized many times per round, so they carry
#: their :func:`size_fields` value as the cached ``wire_size``.
_SIZERS: dict[type, Callable[[Any], int]] = {
    Transaction: attrgetter("wire_size"),
    bool: lambda obj: 1,
    int: lambda obj: _INT_SIZE,
    float: lambda obj: _INT_SIZE,
    bytes: len,
    str: len,
    tuple: _size_container,
    list: _size_container,
    set: _size_container,
    frozenset: _size_container,
    dict: _size_dict,
    type(None): lambda obj: 1,
}


def payload_size(obj: Any) -> int:
    """Estimate the wire size of a payload in bytes.

    This drives the byte counters behind Table II; it is a *model* of
    serialized size (ints 8 B, hashes 32 B, signatures 64 B, strings/bytes
    their length, containers the sum of elements plus small framing), not an
    actual codec.  Consistency across protocols is what matters for the
    complexity comparison.

    The implementation dispatches on exact type first (one dict probe for
    the builtins that make up virtually every real payload) and falls back
    to the isinstance chain for subclasses, dataclasses and numpy scalars —
    ``payload_size`` runs once per simulated send, so it is one of the
    hottest functions in the repository (perf case ``micro:message_pump``).
    """
    sizer = _SIZERS.get(type(obj))
    if sizer is not None:
        return sizer(obj)
    return _size_slow(obj)


def np_integer_types() -> tuple[type, ...]:
    """Numpy scalar types sized like fixed-width ints (kept for backward
    compatibility; resolved lazily so importing this module never pulls in
    numpy)."""
    return _np_scalar_types()


@dataclass(slots=True)
class Message:
    """One in-flight message.

    ``tag`` selects the handler on the receiving node (the paper's message
    tags: PROPOSE, ECHO, CONFIRM, CONFIG, MEM_LIST, SEMI_COM, TX_LIST, VOTE,
    INTRA, NEW, …).  ``channel`` is the latency class the topology assigned
    to the (sender, recipient) pair.

    Envelopes are pooled by :class:`~repro.net.simulator.Network`: after a
    delivery callback returns, the envelope may be reused for a later send.
    Handlers must therefore never retain the envelope itself beyond the
    callback — retaining the *payload* is fine (payloads are never pooled).
    """

    sender: int
    recipient: int
    tag: str
    payload: Any
    size: int
    channel: str
    send_time: float
    deliver_time: float

    def __repr__(self) -> str:
        return (
            f"Message({self.sender}->{self.recipient} {self.tag} "
            f"{self.size}B @{self.deliver_time:.2f})"
        )
