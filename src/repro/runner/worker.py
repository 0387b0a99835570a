"""Sweep worker: the far end of every parallel backend's pipe pair.

:func:`serve` speaks a line-oriented JSON protocol over two text streams —
the forked children of ``LocalBackend`` call it on their pipe ends, and
``python -m repro.runner.worker`` calls it on stdin/stdout, the shape an
SSH-launched remote worker would speak, which is why the transport is
pipes and text rather than something richer:

* ``{"op": "init", "workloads": [{"name": ..., "points": [[size, cdf], ...]}]}``
  registers runtime-defined workload CDFs (scenario-inline workloads are
  not importable in a fresh process) → ``{"ok": true, "op": "init"}``.
* ``{"op": "run", "id": N, "spec": "<base64 pickle>"}`` executes one
  :class:`~repro.apps.ExperimentSpec` → ``{"id": N, "ok": true,
  "result": "<base64 pickle>"}`` on success, or ``{"id": N, "ok": false,
  "kind": "exception", "error": "..."}`` when the point raises.
* ``{"op": "ping"}`` → ``{"ok": true, "op": "pong"}`` (liveness probe).
* ``{"op": "exit"}`` acknowledges and terminates.

One request is in flight at a time per worker; parallelism comes from the
backend running several workers.  Results are bit-identical to inline
execution — a point run is a pure function of its spec — so the backend
choice can never change what a sweep computes.
"""

from __future__ import annotations

import base64
import json
import pickle
import sys
from typing import IO, Any

from repro.runner.failures import _describe
from repro.workloads import FlowSizeDistribution, register_workload


def _reply(out: IO[str], payload: dict[str, Any]) -> None:
    out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    out.flush()


def _handle_init(message: dict[str, Any], out: IO[str]) -> None:
    try:
        workloads = message.get("workloads", [])
        if not isinstance(workloads, list):
            raise TypeError(f"workloads must be a list, got {workloads!r}")
        for item in workloads:
            register_workload(
                FlowSizeDistribution(
                    str(item["name"]),
                    tuple(
                        (float(size), float(cdf))
                        for size, cdf in item["points"]
                    ),
                )
            )
    except Exception as exc:
        _reply(
            out,
            {"ok": False, "op": "init", "kind": "exception",
             "error": _describe(exc)},
        )
        return
    _reply(out, {"ok": True, "op": "init"})


def _handle_run(message: dict[str, Any], out: IO[str]) -> None:
    ident = message.get("id")
    try:
        spec = pickle.loads(base64.b64decode(message["spec"]))
        result = spec.run()
        blob = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    except Exception as exc:
        _reply(
            out,
            {"id": ident, "ok": False, "kind": "exception",
             "error": _describe(exc)},
        )
        return
    _reply(out, {"id": ident, "ok": True, "result": blob})


def serve(stdin: IO[str] | None = None, stdout: IO[str] | None = None) -> int:
    """Process protocol messages until ``exit`` or EOF; returns exit code.

    Every non-blank line gets exactly one reply.  A line that is not a JSON
    object (nested too deep to parse included) or names no known ``op``
    gets a ``kind: "protocol"`` error reply, and an ``init`` or ``run`` that
    cannot be decoded or fails gets ``kind: "exception"``, rather than
    killing the worker — the backend decides whether to keep using it.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError(f"expected an object, got {message!r}")
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            _reply(
                stdout,
                {"ok": False, "kind": "protocol",
                 "error": f"bad message: {_describe(exc)}"},
            )
            continue
        op = message.get("op")
        if op == "exit":
            _reply(stdout, {"ok": True, "op": "exit"})
            return 0
        if op == "ping":
            _reply(stdout, {"ok": True, "op": "pong"})
        elif op == "init":
            _handle_init(message, stdout)
        elif op == "run":
            _handle_run(message, stdout)
        else:
            _reply(
                stdout,
                {"ok": False, "kind": "protocol",
                 "error": f"unknown op {op!r}"},
            )
    return 0


def main() -> int:
    """Entry point for ``python -m repro.runner.worker``.

    The protocol keeps the original stdout to itself: while serving,
    ``sys.stdout`` is stderr, so a point that ``print``s cannot interleave
    text with the reply stream.
    """
    protocol = sys.stdout
    sys.stdout = sys.stderr
    try:
        return serve(sys.stdin, protocol)
    finally:
        sys.stdout = protocol


if __name__ == "__main__":
    sys.exit(main())
