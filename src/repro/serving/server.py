"""Always-on prediction service over the length-prefixed JSON protocol.

``repro serve-predict`` runs a :class:`PredictionServer`: clients open
*sessions* (one predictor instance bound to a named workload) and
stream branch events; every event is answered with the predictor's
direction before it is trained on the resolved outcome.  Each batch
runs through :func:`predict_batch`: a batch of at least
:data:`KERNEL_MIN_EVENTS` events replays on the session's batch kernel
(:mod:`repro.sim.batchkernel`, resolved once when the session opens),
a shorter one, or one whose predictor has no kernel, on the simulation
engine's own per-event loop (:func:`repro.sim.simulator.run_events`).
Both leave the predictor bit-identical to the offline simulator, so an
online session over a trace's events yields the final ``state_hash``
and misprediction count of the offline simulator over the same stream —
the service's correctness contract, which ``tests/test_serving.py``
enforces for every registered predictor, on both sides of the
threshold.  Malformed events (a pc that is not an unsigned 64-bit int,
an outcome other than 0, 1, true or false) are refused with an
``error`` reply before the predictor is touched.

Sessions may open **warm**: the server hydrates the predictor from the
:class:`~repro.serving.pool.WarmSnapshotPool` (PR 3's ``warm_share``
snapshots, shared with campaigns through the StateStore) and tells the
client the absolute position to stream from, so new replicas skip the
warmup prefix entirely.  Because the warm checkpoint carries the warmup
prefix's misprediction count, a warm session's summary is still
bit-identical to a *straight* offline run over the whole trace.

Sessions are connection-scoped: dropping the socket discards their
state (clients that need durability close sessions explicitly and keep
the returned ``state_hash``).  The wire vocabulary rides the campaign
protocol's message registry (``MESSAGE_TYPES`` in
:mod:`repro.orchestration.remote`) and the same shared-secret auth
handshake guards untrusted networks.  See ``docs/serving.md``.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np

from repro.orchestration.registry import standard_registry
from repro.orchestration.remote import (
    PROTOCOL_VERSION,
    Endpoint,
    SessionFsm,
    recv_message,
    send_message,
)
from repro.orchestration.tasks import PredictorFactory
from repro.orchestration.telemetry import Telemetry, monotonic
from repro.serving.pool import PoolError, WarmSnapshotPool
from repro.sim.batchkernel import kernel_for
from repro.sim.simulator import run_events

#: Upper bound on one ``events`` batch; larger batches are refused so a
#: misbehaving client cannot park the handler thread for minutes.
MAX_BATCH_EVENTS = 65_536

#: Batches of at least this many events replay on the session's batch
#: kernel; shorter ones on the per-event loop.  The measured crossover
#: (``docs/serving.md``) is set by bimodal's kernel, the last to win:
#: it wins from 4,096 events and ties ``run_events`` at 2,048, where the
#: constant may move once a workload sends batches that size.
KERNEL_MIN_EVENTS = 4_096

#: Branch PCs are unsigned 64-bit addresses.
PC_LIMIT = 1 << 64


class _Session:
    """One live predictor bound to a client's event stream."""

    __slots__ = (
        "session_id",
        "client",
        "config",
        "workload",
        "predictor",
        "kernel",
        "position",
        "mispredictions",
        "events",
        "started",
    )

    def __init__(
        self,
        session_id: str,
        client: str,
        config: str,
        workload: str,
        predictor,
        position: int,
        mispredictions: int,
        started: float,
    ) -> None:
        self.session_id = session_id
        self.client = client
        self.config = config
        self.workload = workload
        self.predictor = predictor
        self.kernel = kernel_for(predictor)
        self.position = position
        self.mispredictions = mispredictions
        self.events = 0
        self.started = started


def predict_batch(predictor, kernel, pcs, outcomes, predictions, mispredictions: int) -> int:
    """Replay one ``events`` batch: predict, compare, train per event.

    ``kernel`` is the predictor's batch kernel, or None; it runs batches
    of at least :data:`KERNEL_MIN_EVENTS` events, ``run_events`` the
    rest.  ``predictions`` is a preallocated buffer of ``len(pcs)``
    slots, filled in place; returns ``mispredictions`` plus this batch's
    misses.  Either way the predictor ends bit-identical to the offline
    per-event loop over the same events.
    """
    n = len(pcs)
    if kernel is None or n < KERNEL_MIN_EVENTS:
        return run_events(
            predictor.predict, predictor.train, pcs, outcomes, predictions, mispredictions
        )
    taken = np.array(outcomes, dtype=np.uint8)
    replayed, _ = kernel.run(predictor, np.array(pcs, dtype=np.uint64), taken, 0, n)
    predictions[:] = replayed.tolist()
    return mispredictions + int(np.count_nonzero(replayed != taken))


class _ConnectionFsm(SessionFsm):
    """The serving machine, held at ``open`` while the connection has
    sessions: the declared machine models one session, and a connection
    may multiplex several."""

    def __init__(self, sessions: dict[str, _Session]) -> None:
        super().__init__("serving")
        self.sessions = sessions

    def advance(self, kind: str) -> None:
        super().advance(kind)
        if self.sessions and self.state == "greeted":
            self.state = "open"


def default_server_id() -> str:
    return f"{socket.gethostname()}-serve-{os.getpid()}"


class PredictionServer(Endpoint):
    """Serve prediction sessions to many concurrent clients.

    The listener, hello check and connection loop are the shared
    :class:`~repro.orchestration.remote.Endpoint`'s, as for the
    campaign :class:`~repro.orchestration.distserver.Coordinator`: one
    daemon thread per connection, and a 0.2 s accept timeout so
    ``stop()`` is prompt.  Shared counters are guarded by
    ``self._lock``; per-session state lives on the handler thread and
    needs no lock.
    """

    def __init__(
        self,
        registry: dict[str, PredictorFactory] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        pool: WarmSnapshotPool | None = None,
        auth_token: str | None = None,
        telemetry: Telemetry | None = None,
        server_id: str | None = None,
    ) -> None:
        super().__init__(host, port, 128, auth_token, telemetry)
        self.registry = registry if registry is not None else standard_registry()
        self.pool = pool
        self.server_id = server_id or default_server_id()
        self._lock = threading.Lock()
        self._session_seq = 0
        self._open_sessions = 0
        self._closed_sessions = 0
        self.telemetry.emit(
            "serve_start",
            host=self.address[0],
            port=self.address[1],
            server_id=self.server_id,
        )

    # -------------------------------------------------------------- serve

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` is called."""
        try:
            while not self._stop.is_set():
                self._accept_one()
        finally:
            self._listener.close()

    def start(self) -> threading.Thread:
        """Run :meth:`serve_forever` in a daemon thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop accepting; connected handlers drain on their next recv."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._listener.close()
        with self._lock:
            closed = self._closed_sessions
        self.telemetry.emit("serve_stop", sessions=closed, server_id=self.server_id)

    # --------------------------------------------------------- per-client

    def _serve_client(self, sock: socket.socket) -> None:
        sessions: dict[str, _Session] = {}
        client = "?"

        def welcome(message: dict) -> dict:
            nonlocal client
            client = str(message.get("client"))
            return {
                "type": "serve_welcome",
                "protocol": PROTOCOL_VERSION,
                "server_id": self.server_id,
                "pool": self.pool.stats() if self.pool is not None else None,
            }

        handlers = {
            "serve_hello": welcome,
            "session_open": lambda message: self._open_session(message, sessions, client),
            "events": lambda message: self._on_events(message, sessions),
            "session_close": lambda message: self._close_session(message, sessions),
        }
        # Frames go through this module's names, looked up per connection,
        # so a wrapper installed on them sees every frame.
        try:
            self._converse(
                sock, _ConnectionFsm(sessions), handlers, send_message, recv_message
            )
        finally:
            if sessions:
                with self._lock:
                    self._open_sessions -= len(sessions)

    # ----------------------------------------------------------- sessions

    def _open_session(
        self, message: dict, sessions: dict[str, _Session], client: str
    ) -> dict:
        config = str(message.get("config"))
        workload = str(message.get("workload"))
        factory = self.registry.get(config)
        if factory is None:
            return {
                "type": "error",
                "error": f"unknown predictor config {config!r}",
            }
        predictor = factory()
        position = 0
        mispredictions = 0
        warmed_from = None
        if message.get("warm"):
            if self.pool is None:
                return {"type": "error", "error": "server has no warm pool"}
            for field in ("warmup", "branches"):
                value = message.get(field)
                if value is not None and (type(value) is not int or value <= 0):
                    return {
                        "type": "error",
                        "error": f"{field} = {value!r:.40} is not a positive int",
                    }
            try:
                shard = self.pool.acquire(
                    config,
                    workload,
                    branches=message.get("branches"),
                    warmup=message.get("warmup"),
                )
            except PoolError as exc:
                return {"type": "error", "error": str(exc)}
            predictor.restore(shard.checkpoint.predictor_state)
            position = shard.checkpoint.position
            mispredictions = shard.checkpoint.mispredictions
            warmed_from = shard.key.label()
        with self._lock:
            self._session_seq += 1
            session_id = f"S{self._session_seq}"
            self._open_sessions += 1
        sessions[session_id] = _Session(
            session_id=session_id,
            client=client,
            config=config,
            workload=workload,
            predictor=predictor,
            position=position,
            mispredictions=mispredictions,
            started=monotonic(),
        )
        self.telemetry.emit(
            "session_open",
            session=session_id,
            client=client,
            config=config,
            workload=workload,
            warm=warmed_from,
            position=position,
        )
        return {
            "type": "session",
            "session": session_id,
            "config": config,
            "workload": workload,
            "position": position,
            "mispredictions": mispredictions,
            "warmed_from": warmed_from,
        }

    def _on_events(self, message: dict, sessions: dict[str, _Session]) -> dict:
        session = sessions.get(str(message.get("session")))
        if session is None:
            return {"type": "error", "error": "unknown session"}
        pcs = message.get("pcs")
        raw_outcomes = message.get("outcomes")
        if not isinstance(pcs, list) or not isinstance(raw_outcomes, list):
            return {"type": "error", "error": "events wants pcs/outcomes lists"}
        if len(pcs) != len(raw_outcomes):
            return {
                "type": "error",
                "error": f"pcs ({len(pcs)}) and outcomes ({len(raw_outcomes)}) "
                "differ in length",
            }
        if len(pcs) > MAX_BATCH_EVENTS:
            return {
                "type": "error",
                "error": f"batch of {len(pcs)} events exceeds {MAX_BATCH_EVENTS}",
            }
        # Validate before the predictor is touched: a bad pc would raise
        # inside predict() mid-batch, and a bad outcome would train as
        # taken.  ``type(x) is int`` keeps bools out of the pcs.
        for index, pc in enumerate(pcs):
            if type(pc) is not int or not 0 <= pc < PC_LIMIT:
                return {
                    "type": "error",
                    "error": f"pcs[{index}] = {pc!r:.40} is not an unsigned 64-bit int",
                }
        for index, value in enumerate(raw_outcomes):
            if type(value) not in (int, bool) or value not in (0, 1):
                return {
                    "type": "error",
                    "error": f"outcomes[{index}] = {value!r:.40} is not 0, 1, true or false",
                }
        # Normalize wire ints to real bools before the hot loop: the
        # predictors' state payloads must end up bit-identical to an
        # offline run that trained on the trace's bool outcomes.
        outcomes = [bool(value) for value in raw_outcomes]
        predictions = [False] * len(pcs)
        session.mispredictions = predict_batch(
            session.predictor,
            session.kernel,
            pcs,
            outcomes,
            predictions,
            session.mispredictions,
        )
        session.position += len(pcs)
        session.events += len(pcs)
        return {
            "type": "predictions",
            "session": session.session_id,
            "predictions": [1 if prediction else 0 for prediction in predictions],
            "mispredictions": session.mispredictions,
            "position": session.position,
        }

    def _close_session(self, message: dict, sessions: dict[str, _Session]) -> dict:
        session = sessions.pop(str(message.get("session")), None)
        if session is None:
            return {"type": "error", "error": "unknown session"}
        state_hash = session.predictor.state_hash()
        with self._lock:
            self._open_sessions -= 1
            self._closed_sessions += 1
        self.telemetry.emit(
            "session_close",
            session=session.session_id,
            client=session.client,
            events=session.events,
            mispredictions=session.mispredictions,
            elapsed_s=round(monotonic() - session.started, 6),
        )
        return {
            "type": "session_summary",
            "session": session.session_id,
            "events": session.events,
            "mispredictions": session.mispredictions,
            "state_hash": state_hash,
            "position": session.position,
        }
