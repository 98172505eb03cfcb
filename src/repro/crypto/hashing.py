"""Collision-resistant hash function wrapper.

The paper assumes access to an external random oracle ``H`` which is
collision resistant.  We use SHA-256 with a canonical, injective encoding of
structured inputs so that ``H(a, b) != H(ab)``-style ambiguities cannot
produce accidental collisions.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any

_SEP = b"\x1f"


def _frame(tag: bytes, payload: bytes) -> bytes:
    # b"%d" formats in C; measurably faster than str(len).encode() + concat
    # on this sub-microsecond path.
    return tag + b"%d:" % len(payload) + payload


def _enc_bytes(obj: bytes) -> bytes:
    return _frame(b"b", obj)


def _enc_str(obj: str) -> bytes:
    return _frame(b"s", obj.encode("utf-8"))


def _enc_bool(obj: bool) -> bytes:
    return b"o1:1" if obj else b"o1:0"


def _enc_int_text(obj: int) -> bytes:
    return _frame(b"i", str(obj).encode("ascii"))


#: Pre-framed encodings of the small ints that dominate hashed structures
#: (vote values, indices, round and sequence numbers).  Keys are exact
#: ``int``s: callers holding an int subclass use :func:`_enc_int_text`.
_SMALL_INT_ENC = {v: _enc_int_text(v) for v in range(-256, 257)}


def _enc_int(obj: int) -> bytes:
    """Exact ``int``s only: an int subclass may render differently."""
    enc = _SMALL_INT_ENC.get(obj)
    return enc if enc is not None else _enc_int_text(obj)


def _enc_float(obj: float) -> bytes:
    return _frame(b"f", repr(obj).encode("ascii"))


#: Shortest sequence worth the exact-type scan of the int-run fast path.
_INT_RUN_MIN = 8

_JUST_INT = {int}


def _enc_seq(obj: "tuple | list") -> bytes:
    # Int runs (vote vectors, VList rows): when every element is exactly
    # ``int`` the per-element dispatch is skipped; the bytes are the same.
    if len(obj) >= _INT_RUN_MIN and set(map(type, obj)) == _JUST_INT:
        try:
            body = _SEP.join(map(_SMALL_INT_ENC.__getitem__, obj))
        except KeyError:
            body = _SEP.join([_enc_int(x) for x in obj])
        return _frame(b"t", body)
    return _frame(b"t", _SEP.join([canonical_bytes(x) for x in obj]))


def _enc_set(obj: "set | frozenset") -> bytes:
    return _frame(b"e", _SEP.join(sorted([canonical_bytes(x) for x in obj])))


def _enc_dict(obj: dict) -> bytes:
    items = sorted(
        (canonical_bytes(k), canonical_bytes(v)) for k, v in obj.items()
    )
    return _frame(b"d", _SEP.join(k + b"=" + v for k, v in items))


#: Exact-type fast dispatch: one dict probe replaces the isinstance chain
#: for the builtins that make up virtually every hashed structure.  The
#: encoding (and therefore every digest, txid and signature) is unchanged;
#: subclasses and numpy scalars fall through to :func:`_canonical_slow`,
#: which preserves the original isinstance semantics exactly.
_ENCODERS = {
    bytes: _enc_bytes,
    str: _enc_str,
    bool: _enc_bool,  # must shadow int (bool is an int subclass)
    int: _enc_int,
    float: _enc_float,
    tuple: _enc_seq,
    list: _enc_seq,
    set: _enc_set,
    frozenset: _enc_set,
    dict: _enc_dict,
    type(None): lambda obj: b"n0:",
}


def _canonical_slow(obj: Any) -> bytes:
    """Subclasses of the fast-dispatched builtins plus numpy scalars."""
    if isinstance(obj, bytes):
        return _enc_bytes(obj)
    if isinstance(obj, str):
        return _enc_str(obj)
    if isinstance(obj, bool):  # must precede int check
        return _enc_bool(obj)
    if isinstance(obj, int):
        return _enc_int_text(obj)
    if obj is None:
        return b"n0:"
    if isinstance(obj, float):
        return _enc_float(obj)
    if isinstance(obj, (tuple, list)):
        return _enc_seq(obj)
    if isinstance(obj, (set, frozenset)):
        return _enc_set(obj)
    if isinstance(obj, dict):
        return _enc_dict(obj)
    # NumPy scalars appear wherever protocol code hashes vote vectors;
    # encode them exactly as their Python equivalents.
    import numpy as np

    if isinstance(obj, np.integer):
        return _enc_int(int(obj))
    if isinstance(obj, np.floating):
        return _enc_float(float(obj))
    if isinstance(obj, np.bool_):
        return _enc_bool(bool(obj))
    raise TypeError(f"canonical_bytes cannot encode {type(obj).__name__}")


def canonical_bytes(obj: Any) -> bytes:
    """Injectively encode ``obj`` (nested tuples/lists/ints/str/bytes/None/bool)
    into bytes.

    The encoding is prefix-free per element: each element is rendered as
    ``<typetag><length>:<payload>`` so distinct structures never collide.
    This function sits under every digest, txid and signature in the
    repository, so it dispatches on exact type first (see ``_ENCODERS``).
    """
    enc = _ENCODERS.get(type(obj))
    if enc is not None:
        return enc(obj)
    return _canonical_slow(obj)


# The hot protocol paths (sortition rank hashes, beacon mixing, txids)
# call H with small flat tuples of primitives, and many nodes hash the
# same inputs within one round.  Those calls are memoised.  The cache key
# carries an explicit per-element type tag so values that compare equal
# across types (True == 1) — which canonical_bytes encodes differently —
# can never alias a cache slot.  Floats stay on the uncached path: 0.0
# and -0.0 compare (and hash) equal yet encode differently via repr, so
# they would alias a slot within one type tag.
_FLAT_TYPES = {bytes: "b", str: "s", bool: "o", int: "i"}


def _flat_key(parts: tuple) -> tuple | None:
    key = []
    for part in parts:
        tag = _FLAT_TYPES.get(type(part))
        if tag is None:
            if part is None:
                tag = "n"
            else:
                return None  # nested / numpy / unhashable: uncached path
        key.append((tag, part))
    return tuple(key)


@lru_cache(maxsize=1 << 16)
def _H_flat(key: tuple) -> bytes:
    h = hashlib.sha256()
    for _, part in key:
        h.update(canonical_bytes(part))
    return h.digest()


def H(*parts: Any) -> bytes:
    """The protocol's collision-resistant hash function.

    Accepts any number of canonically-encodable parts and returns a 32-byte
    digest.  ``H(a, b)`` is the paper's ``H(a || b)`` with an injective
    pairing.
    """
    key = _flat_key(parts)
    if key is not None:
        return _H_flat(key)
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical_bytes(part))
    return h.digest()


def H_int(*parts: Any) -> int:
    """``H`` interpreted as a 256-bit unsigned integer (for mod-m sortition
    and difficulty comparisons)."""
    return int.from_bytes(H(*parts), "big")


def hexdigest(*parts: Any) -> str:
    """Hex rendering of :func:`H`, convenient for logs and block ids."""
    return H(*parts).hex()
