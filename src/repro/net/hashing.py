"""Process-stable hashing.

Python randomizes ``hash()`` for strings per interpreter process
(PYTHONHASHSEED), so anything that hashes a flow 5-tuple containing the
protocol *name* — ECMP path selection, flowlet-table slots — would differ
from run to run.  Real switches hash packed header bits, which is what this
module emulates: protocols become their IP protocol numbers and the fields
are mixed with a fixed 64-bit integer mix (splitmix64 finalizer), giving
identical results in every process.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

#: IP protocol numbers for the transports the simulator models.
PROTOCOL_NUMBERS = {"tcp": 6, "udp": 17}

#: Memo of computed hashes.  ECMP and the flowlet table hash the same flow
#: 5-tuples on every packet, so the per-packet cost collapses to one dict
#: probe; the distinct (tuple, salt) population of one run is bounded by
#: flows times switches (a 400-flow point adds ~3 k keys).  The memo is
#: process-global, so an inline sweep or a forked worker serving hundreds
#: of differently-seeded points keeps adding to it: it is cleared
#: wholesale at a cap of 32 Ki entries (~9 MiB at a measured 276 B per
#: entry).  Purely a cache: results are unaffected, also by a clear in the
#: middle of a run.
_memo: dict = {}
_MEMO_CAP = 1 << 15


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a fast, well-distributed 64-bit mix."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def stable_hash(values: tuple, salt: int = 0) -> int:
    """Deterministically hash a tuple of ints/strings, independent of process.

    Strings are mapped through :data:`PROTOCOL_NUMBERS` when possible and
    otherwise through a byte-wise fold, so arbitrary labels still hash
    stably.
    """
    key = (values, salt)
    state = _memo.get(key)
    if state is not None:
        return state
    state = _mix64(salt & _MASK)
    for value in values:
        if isinstance(value, str):
            number = PROTOCOL_NUMBERS.get(value)
            if number is None:
                number = 0
                for byte in value.encode():
                    number = (number * 131 + byte) & _MASK
            value = number
        state = _mix64(state ^ (value & _MASK))
    if len(_memo) >= _MEMO_CAP:
        _memo.clear()
    _memo[key] = state
    return state


def stable_string_seed(text: str) -> int:
    """A stable 32-bit seed derived from a string (for RNG stream names)."""
    return stable_hash((text,)) & 0xFFFFFFFF


__all__ = ["PROTOCOL_NUMBERS", "stable_hash", "stable_string_seed"]
