"""Sweep health telemetry: a structured NDJSON progress stream.

The per-point ``progress`` lines of :mod:`repro.runner.dispatch` are for
humans; this module is the machine-readable counterpart, and both are
rendered from the same event payloads.  A :class:`TelemetrySink` receives
one small JSON event per sweep transition — ``sweep_started``,
``cache_hit``, ``attempt_failed``, ``worker_restart``, ``point_completed``,
``point_failed``, ``sweep_finished`` — and appends it as one NDJSON line to
a file (or hands it to a callable, for tests and live consumers).  Lines
are written line-buffered, so ``tail -f`` on the sink path follows a long
sweep in real time.

Telemetry is reporting-only and advisory: events carry wall-clock
durations (sweeps are wall-clock creatures; simulations are not), a
monotonic ``seq``, and spec identity (index, label, content hash), but
nothing here feeds back into execution and a sink failure never fails a
sweep.  The ``sweep.*`` counters and the ``sweep.point_wall_seconds``
histogram of ``SweepResult.metrics`` are a fold of the same events.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, IO


class TelemetrySink:
    """NDJSON event sink for sweep health telemetry.

    Construct with a path (file is truncated and line-buffered) or a
    callable receiving each event dict.  ``emit`` never raises: a broken
    pipe or full disk degrades telemetry, not the sweep.
    """

    __slots__ = ("emitted", "_emit_fn", "_stream", "_seq", "_closed")

    def __init__(
        self, target: str | os.PathLike | Callable[[dict[str, Any]], None]
    ) -> None:
        self.emitted = 0
        self._seq = 0
        self._closed = False
        self._stream: IO[str] | None = None
        self._emit_fn: Callable[[dict[str, Any]], None] | None = None
        if callable(target):
            self._emit_fn = target
        else:
            self._stream = Path(target).open("w", buffering=1)

    def emit(self, event: str, /, **fields: Any) -> None:
        """Record one event; silently drops on sink errors or after close."""
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
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            try:
                self._stream.close()
            except Exception:
                pass


__all__ = ["TelemetrySink"]
