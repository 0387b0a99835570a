"""Sweep health telemetry: a structured NDJSON progress stream.

The per-point ``progress`` lines of :mod:`repro.runner.dispatch` are for
humans; this module is the machine-readable counterpart.  A
:class:`TelemetrySink` receives one small JSON event per sweep lifecycle
transition — ``sweep_started``, ``cache_hit``, ``point_completed``,
``point_failed``, ``worker_restart``, ``sweep_finished`` — and appends it
as one NDJSON line to a file (or hands it to a callable, for tests and
live consumers).  Lines are written line-buffered, so ``tail -f`` on the
sink path follows a long sweep in real time.

Telemetry is reporting-only and advisory: events carry wall-clock
durations (sweeps are wall-clock creatures; simulations are not), a
monotonic ``seq``, and spec identity (index, label, content hash), but
nothing here feeds back into execution and a sink failure never fails a
sweep.  The companion aggregates land in the sweep's
:class:`~repro.obs.metrics.MetricsReport` (``sweep.point_wall_seconds``
histogram, ``sweep.worker_restarts`` counter), ``SweepResult.metrics``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, IO


class TelemetrySink:
    """Thread-safe NDJSON event sink for sweep health telemetry.

    Construct with a path (file is truncated and line-buffered) or a
    callable receiving each event dict.  ``emit`` never raises: a broken
    pipe or full disk degrades telemetry, not the sweep.
    """

    __slots__ = ("emitted", "_emit_fn", "_stream", "_lock", "_seq", "_closed")

    def __init__(
        self, target: str | os.PathLike | Callable[[dict[str, Any]], None]
    ) -> None:
        self.emitted = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        self._stream: IO[str] | None = None
        self._emit_fn: Callable[[dict[str, Any]], None] | None = None
        if callable(target):
            self._emit_fn = target
        else:
            self._stream = Path(target).open("w", buffering=1)

    def emit(self, event: str, /, **fields: Any) -> None:
        """Record one event; silently drops on sink errors or after close."""
        with self._lock:
            if self._closed:
                return
            payload: dict[str, Any] = {"event": event, "seq": self._seq}
            payload.update(fields)
            self._seq += 1
            try:
                if self._emit_fn is not None:
                    self._emit_fn(payload)
                else:
                    assert self._stream is not None
                    self._stream.write(
                        json.dumps(payload, sort_keys=True, separators=(",", ":"))
                        + "\n"
                    )
            except Exception:
                return
            self.emitted += 1

    def close(self) -> None:
        """Flush and close the underlying stream (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._stream is not None:
                try:
                    self._stream.close()
                except Exception:
                    pass


def as_sink(
    telemetry: TelemetrySink
    | str
    | os.PathLike
    | Callable[[dict[str, Any]], None]
    | None,
) -> TelemetrySink | None:
    """Coerce the user-facing ``telemetry=`` argument into a sink (or None)."""
    if telemetry is None or isinstance(telemetry, TelemetrySink):
        return telemetry
    return TelemetrySink(telemetry)


__all__ = ["TelemetrySink", "as_sink"]
