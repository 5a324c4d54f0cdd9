"""Client for the always-on prediction service.

:class:`PredictClient` wraps one persistent connection to a
:class:`~repro.serving.server.PredictionServer`: handshake, then any
number of concurrently open sessions multiplexed over the socket (the
server answers strictly in request order, so a client that serializes
its requests — as this one does via a lock — can interleave sessions
freely).  Events travel as parallel ``pcs``/``outcomes`` lists with
outcomes down-converted to wire ints; predictions come back the same
way and are lifted to bools here so callers never see wire encoding.

``stream_trace`` is the whole-trace convenience used by tests and the
load generator: open, stream in batches, close, return the summary —
whose ``state_hash`` must equal the offline simulator's over the same
events.
"""

from __future__ import annotations

import socket
import threading

from repro.orchestration.remote import (
    PROTOCOL_VERSION,
    ProtocolError,
    connect,
    greet,
    recv_message,
    send_message,
)
from repro.trace.records import Trace

#: Default events per ``events`` batch when streaming a whole trace.
DEFAULT_BATCH = 4_096


class ServeError(RuntimeError):
    """The server answered a request with an ``error`` message."""


class PredictClient:
    """One authenticated connection to a prediction server."""

    def __init__(
        self,
        address: tuple[str, int],
        client_id: str | None = None,
        auth_token: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.client_id = client_id or f"client-{id(self) & 0xFFFF:04x}"
        self._lock = threading.Lock()
        self._sock: socket.socket | None = connect(address, timeout=timeout)
        hello = {
            "type": "serve_hello",
            "client": self.client_id,
            "protocol": PROTOCOL_VERSION,
        }
        try:
            welcome = greet(self._request, hello, auth_token, "serve_welcome", ServeError)
        except (ServeError, ProtocolError, OSError):
            self.close()
            raise
        self.server_id = str(welcome.get("server_id"))
        self.pool_stats = welcome.get("pool")

    # ------------------------------------------------------------ plumbing

    def _request(self, message: dict) -> dict:
        with self._lock:
            if self._sock is None:
                raise ServeError("client is closed")
            send_message(self._sock, message)
            return recv_message(self._sock)

    def _expect(self, message: dict, kind: str) -> dict:
        reply = self._request(message)
        if reply.get("type") == "error":
            raise ServeError(str(reply.get("error")))
        if reply.get("type") != kind:
            raise ServeError(f"expected {kind!r} reply, got {reply.get('type')!r}")
        return reply

    def close(self) -> None:
        """Say goodbye (best-effort) and drop the connection."""
        with self._lock:
            sock = self._sock
            self._sock = None
        if sock is None:
            return
        try:
            send_message(sock, {"type": "serve_bye", "client": self.client_id})
            recv_message(sock)
        except (OSError, ConnectionError, RuntimeError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PredictClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ sessions

    def open_session(
        self,
        config: str,
        workload: str,
        warm: bool = False,
        branches: int | None = None,
        warmup: int | None = None,
    ) -> dict:
        """Open a predictor session; returns the server's session reply.

        With ``warm=True`` the server hydrates from its snapshot pool
        and the reply's ``position`` tells this client where to start
        streaming (events before it are already trained in).
        """
        message = {
            "type": "session_open",
            "client": self.client_id,
            "config": config,
            "workload": workload,
        }
        if warm:
            message["warm"] = True
        if branches is not None:
            message["branches"] = branches
        if warmup is not None:
            message["warmup"] = warmup
        return self._expect(message, "session")

    def send_events(
        self, session: str, pcs: list[int], outcomes: list[bool]
    ) -> tuple[list[bool], int]:
        """Stream one batch; returns (predictions, running mispredictions)."""
        reply = self._expect(
            {
                "type": "events",
                "session": session,
                "pcs": list(pcs),
                "outcomes": [1 if taken else 0 for taken in outcomes],
            },
            "predictions",
        )
        return [bool(p) for p in reply["predictions"]], int(reply["mispredictions"])

    def close_session(self, session: str) -> dict:
        """Close a session; returns the summary (events, mpki inputs, hash)."""
        return self._expect(
            {"type": "session_close", "session": session}, "session_summary"
        )

    # ------------------------------------------------------- whole traces

    def stream_trace(
        self,
        config: str,
        workload: str,
        trace: Trace,
        batch: int = DEFAULT_BATCH,
        warm: bool = False,
        branches: int | None = None,
        warmup: int | None = None,
    ) -> dict:
        """Open a session, stream ``trace``'s events in batches, close.

        For warm sessions only the suffix past the server's reported
        warm position is streamed — the summary is still bit-identical
        to an offline run over the whole trace because the warm
        checkpoint already accounts for the prefix.
        """
        opened = self.open_session(
            config, workload, warm=warm, branches=branches, warmup=warmup
        )
        session = str(opened["session"])
        start = int(opened.get("position", 0))
        pcs = trace.pcs
        outcomes = trace.outcomes
        for lo in range(start, len(pcs), batch):
            hi = min(lo + batch, len(pcs))
            self.send_events(session, pcs[lo:hi], outcomes[lo:hi])
        summary = self.close_session(session)
        summary["started_at"] = start
        return summary
