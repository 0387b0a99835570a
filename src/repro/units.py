"""Unit helpers and clock conventions.

All simulation time is kept in **integer nanoseconds** so that event ordering
is exact and runs are bit-for-bit reproducible.  All link rates are kept in
**bits per second**, and all data sizes in **bytes**.  The helpers below are
the only places where human-friendly units (Gbps, MB, microseconds, ...) are
converted to the internal representation; use them everywhere instead of raw
multipliers.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time: integer nanoseconds.
# ---------------------------------------------------------------------------

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000


def nanoseconds(value: float) -> int:
    """Convert a value in nanoseconds to clock ticks (identity, rounded)."""
    return round(value)


def microseconds(value: float) -> int:
    """Convert microseconds to integer-nanosecond clock ticks."""
    return round(value * MICROSECOND)


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer-nanosecond clock ticks."""
    return round(value * MILLISECOND)


def seconds(value: float) -> int:
    """Convert seconds to integer-nanosecond clock ticks."""
    return round(value * SECOND)


def to_seconds(ticks: int) -> float:
    """Convert integer-nanosecond clock ticks to float seconds."""
    return ticks / SECOND


def to_microseconds(ticks: int) -> float:
    """Convert integer-nanosecond clock ticks to float microseconds."""
    return ticks / MICROSECOND


def to_milliseconds(ticks: int) -> float:
    """Convert integer-nanosecond clock ticks to float milliseconds."""
    return ticks / MILLISECOND


#: Ticks per duration suffix, two-letter suffixes first so "ms" is not read
#: as a number ending in "m" followed by "s".
_DURATION_SUFFIXES = (
    ("ns", NANOSECOND),
    ("us", MICROSECOND),
    ("µs", MICROSECOND),
    ("ms", MILLISECOND),
    ("s", SECOND),
)


def _parse_duration(value: int | str) -> int:
    """A duration in clock ticks: integer ns, or ``"200ms"`` / ``"0.1s"`` text.

    The one parser behind scenario files, CLI flags and the fault grammar
    (``repro.scenarios.loader`` and ``repro.faults.events`` import it).
    The amount is read exactly, as a decimal, and must scale to a whole
    number of nanoseconds: ``"1.005us"`` is 1005, ``"1.5ns"`` is refused,
    never rounded.  Anything else — a negative, non-finite, sub-nanosecond
    or unit-less fractional amount, one beyond float range, a non-string —
    raises :class:`ValueError`.
    """
    ticks: int | None = None
    if isinstance(value, int) and not isinstance(value, bool):
        ticks = value
    elif isinstance(value, str):
        # Imported here: a process that parses no duration text (a worker,
        # a run) loads no decimal.
        import decimal

        # Wide enough that no amount × suffix product rounds.
        exact = decimal.Context(
            prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
        )
        text = value.strip()
        try:
            for suffix, scale in _DURATION_SUFFIXES:
                if text.endswith(suffix):
                    amount = exact.multiply(decimal.Decimal(text[: -len(suffix)]), scale)
                    # Not "nans" or "infs"; "1e400s" overflowed the float parser.
                    whole = amount.is_finite() and amount.adjusted() <= 308
                    if whole and amount == amount.to_integral_value():
                        ticks = int(amount)
                    break
            else:
                ticks = int(text)
        # "oops", "1.5"; "1e999999999999999999s" overflows even this context.
        except (ValueError, decimal.DecimalException):
            pass
    if ticks is None or ticks < 0:
        raise ValueError(
            "expected a non-negative duration (integer ns or e.g. '200ms', "
            f"'0.1s'), got {value!r}"
        )
    return ticks


# ---------------------------------------------------------------------------
# Rates: bits per second.
# ---------------------------------------------------------------------------

BPS = 1
KBPS = 1_000
MBPS = 1_000_000
GBPS = 1_000_000_000


def gbps(value: float) -> int:
    """Convert gigabits per second to bits per second."""
    return round(value * GBPS)


def mbps(value: float) -> int:
    """Convert megabits per second to bits per second."""
    return round(value * MBPS)


# ---------------------------------------------------------------------------
# Sizes: bytes.
# ---------------------------------------------------------------------------

BYTE = 1
KILOBYTE = 1_000
MEGABYTE = 1_000_000
GIGABYTE = 1_000_000_000
KIBIBYTE = 1_024
MEBIBYTE = 1_048_576


def kilobytes(value: float) -> int:
    """Convert kilobytes (10^3 bytes) to bytes."""
    return round(value * KILOBYTE)


def megabytes(value: float) -> int:
    """Convert megabytes (10^6 bytes) to bytes."""
    return round(value * MEGABYTE)


def gigabytes(value: float) -> int:
    """Convert gigabytes (10^9 bytes) to bytes."""
    return round(value * GIGABYTE)


def transmission_time(size_bytes: int, rate_bps: int) -> int:
    """Serialization delay, in integer nanoseconds, of ``size_bytes`` at ``rate_bps``.

    Rounds up so that a byte is never transmitted in zero time on a finite
    link; this keeps event ordering sane for tiny packets on fast links.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    bits = size_bytes * 8
    return -(-bits * SECOND // rate_bps)  # ceiling division
