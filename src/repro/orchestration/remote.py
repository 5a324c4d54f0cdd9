"""The wire and endpoint layer shared by campaign distribution and serving.

A *coordinator* (:mod:`repro.orchestration.distserver`) serves
lease-based task claims from a campaign manifest, and a prediction
server (:mod:`repro.serving.server`) serves predictor sessions, both
over one length-prefixed JSON socket protocol.  This module holds the
wire format, the declared session machines, the :class:`Endpoint` both
servers run on, the :func:`greet` both clients open with, and the
executor loop that drains a coordinator: connect, introduce itself,
then claim a lease, run the task through the existing scheduler
(checkpoints stream into the shared :class:`~repro.orchestration.
statestore.StateStore` exactly as in a local campaign), publish the
result, repeat until the coordinator reports the campaign drained.

Wire format
-----------

Every message is one JSON object encoded UTF-8 and prefixed with a
4-byte big-endian length.  A logical message whose encoded body exceeds
:data:`MAX_MESSAGE_BYTES` is transparently split into ``chunk``
continuation frames (base64 slices of the original body) and
re-assembled by :func:`recv_message`, so payload size is bounded by
:data:`MAX_CHUNKS` × the frame limit rather than one frame.  Tasks
travel as *recipes* — a registry config name plus a
:class:`~repro.orchestration.tasks.TraceSpec` wire dict — never as
pickled callables, so the protocol is language-agnostic and an
executor can refuse a task whose locally recomputed fingerprint
disagrees with the coordinator's (version skew between hosts).

The full protocol, lease semantics and failure matrix are documented in
``docs/distribution.md``; the serving additions in ``docs/serving.md``.
"""

from __future__ import annotations

import base64
import hmac
import importlib
import os
import socket
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.orchestration import scheduler
from repro.orchestration import store as result_store
from repro.orchestration.fingerprint import predictor_fingerprint, task_fingerprint
from repro.orchestration.store import ResultStore
from repro.orchestration.tasks import PredictorFactory, Task, TaskOutcome, TraceSpec
from repro.orchestration.telemetry import Telemetry, monotonic, sleep

#: Bumped on incompatible wire-format changes; coordinator and executor
#: refuse to pair across versions.
PROTOCOL_VERSION = 1

#: The closed protocol v1 vocabulary: every message ``type`` either side
#: may construct, mapped to its required fields (extra fields are always
#: allowed).  The REPRO3xx schema-drift lint cross-checks every message
#: literal in this module and :mod:`~repro.orchestration.distserver`
#: against this table, so adding a message without declaring it here
#: fails lint; :func:`validate_message` offers the same check at
#: runtime for tooling that builds frames dynamically.
MESSAGE_TYPES: dict[str, tuple[str, ...]] = {
    # executor -> coordinator
    "hello": ("executor", "protocol"),
    "claim": ("executor",),
    "renew": ("executor", "lease_id"),
    "result": ("executor", "lease_id", "index", "ok"),
    "bye": ("executor",),
    # coordinator -> executor
    "welcome": ("protocol", "campaign_id", "total_tasks", "registry", "lease_ttl"),
    "lease": ("lease_id", "lease_ttl", "task"),
    "empty": ("retry_after_s",),
    "drained": (),
    "ok": (),
    "gone": (),
    "stale": (),
    "error": ("error",),
    # either direction: continuation frame of an oversized message
    "chunk": ("seq", "last", "data"),
    # serving client -> server (repro.serving.server / .client)
    "serve_hello": ("client", "protocol"),
    "session_open": ("client", "config", "workload"),
    "events": ("session", "pcs", "outcomes"),
    "session_close": ("session",),
    "serve_bye": ("client",),
    # serving server -> client
    "serve_welcome": ("protocol", "server_id"),
    "session": ("session", "config", "workload", "position", "mispredictions"),
    "predictions": ("session", "predictions", "mispredictions"),
    "session_summary": ("session", "events", "mispredictions", "state_hash"),
}

#: Declared session state machines, one per conversation the protocol
#: carries: ``{fsm: {state: {message_type: next_state}}}``.  Only the
#: *initiating* message types appear in a machine's alphabet — replies
#: (``welcome``, ``lease``, ``ok``, ...) are paired to their requests
#: and carry no ordering of their own.  The table is shared by two
#: enforcement layers: the REPRO506 static check extracts the literal
#: send sequences from every protocol module and simulates them against
#: these machines, and :class:`SessionFsm` applies the same transitions
#: at runtime in :class:`Endpoint`'s connection loop, which both servers
#: run (and through :func:`validate_message` for tooling).  Keep the literal
#: parseable — nested string-keyed dicts only.
PROTOCOL_FSMS: dict[str, dict[str, dict[str, str]]] = {
    # serving: serve_hello -> session_open -> events* -> session_close
    # (sessions may interleave on one connection) -> serve_bye
    "serving": {
        "start": {"serve_hello": "greeted"},
        "greeted": {"session_open": "open", "serve_bye": "end"},
        "open": {
            "session_open": "open",
            "events": "open",
            "session_close": "greeted",
            "serve_bye": "end",
        },
        "end": {},
    },
    # campaign: hello -> (claim | renew | result)* -> bye
    "campaign": {
        "start": {"hello": "joined"},
        "joined": {
            "claim": "joined",
            "renew": "joined",
            "result": "joined",
            "bye": "end",
        },
        "end": {},
    },
}


class SessionFsm:
    """Runtime instance of one :data:`PROTOCOL_FSMS` machine.

    :meth:`Endpoint._converse` advances it as messages are handled, so
    the order a peer may send things in is enforced by the same declaration
    the REPRO506 static check reads.  Message types outside the
    machine's alphabet (replies, ``chunk`` frames) are ignored.
    """

    def __init__(self, name: str) -> None:
        if name not in PROTOCOL_FSMS:
            raise KeyError(f"unknown protocol FSM {name!r}")
        self.name = name
        self.machine = PROTOCOL_FSMS[name]
        self.state = "start"
        self.alphabet = frozenset(
            message
            for transitions in self.machine.values()
            for message in transitions
        )

    def allows(self, kind: str) -> bool:
        """Whether ``kind`` may be sent from the current state."""
        if kind not in self.alphabet:
            return True
        return kind in self.machine.get(self.state, {})

    def advance(self, kind: str) -> None:
        """Apply one handled message; raise on an out-of-order send."""
        if kind not in self.alphabet:
            return
        transitions = self.machine.get(self.state, {})
        if kind not in transitions:
            expected = ", ".join(sorted(transitions)) or "nothing"
            raise ProtocolError(
                f"protocol message {kind!r} out of order for FSM "
                f"{self.name!r} in state {self.state!r} (expected "
                f"{expected})"
            )
        self.state = transitions[kind]


#: Upper bound on one frame; anything larger is a corrupt length prefix.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

#: Continuation frames one logical message may span.  Bounds assembly
#: memory: the largest deliverable message is MAX_CHUNKS × ~half the
#: frame limit.
MAX_CHUNKS = 4096

_LENGTH = struct.Struct(">I")

#: The default registry executors resolve config names against.
DEFAULT_REGISTRY = "repro.orchestration.registry:standard_registry"


class ProtocolError(RuntimeError):
    """Malformed frame, unknown message, or protocol version mismatch."""


def validate_message(message: dict, fsm: SessionFsm | None = None) -> None:
    """Raise :class:`ProtocolError` if ``message`` is outside protocol v1.

    Not wired into :func:`send_message`/:func:`recv_message` — the
    coordinator answers unknown kinds with an ``error`` reply so version
    skew degrades gracefully — but exposed for tests and tooling that
    construct frames dynamically.  With ``fsm``, the message is also
    checked against (and advances) the declared session state machine,
    so a well-formed message sent out of order raises too.
    """
    kind = message.get("type")
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown protocol message type {kind!r}")
    missing = [name for name in MESSAGE_TYPES[kind] if name not in message]
    if missing:
        raise ProtocolError(f"message {kind!r} missing required fields {missing}")
    if fsm is not None:
        fsm.advance(kind)


class VersionSkewError(ProtocolError):
    """A leased task's fingerprint does not match this host's code."""


class AuthError(ProtocolError):
    """The peer's shared-secret token did not match."""


def token_matches(expected: str | None, provided: object) -> bool:
    """Constant-time shared-secret comparison.

    ``expected is None`` means authentication is disabled, so anything
    (including an absent token) passes.  The comparison runs through
    :func:`hmac.compare_digest` so a byte-by-byte timing side channel
    cannot leak the secret's prefix.
    """
    if expected is None:
        return True
    return hmac.compare_digest(
        expected.encode("utf-8"), str(provided or "").encode("utf-8")
    )


#: Bytes of JSON envelope around a chunk's base64 payload
#: (``{"type": "chunk", "seq": NNNN, "last": false, "data": "..."}``).
_CHUNK_OVERHEAD = 72


def _chunk_step() -> int:
    """Raw body bytes carried per continuation frame.

    Sized so the chunk frame — base64 inflates the slice 4/3, plus the
    JSON envelope — stays under MAX_MESSAGE_BYTES even when tests
    shrink the limit to double digits.
    """
    return max(1, (MAX_MESSAGE_BYTES - _CHUNK_OVERHEAD) * 3 // 4)


def send_message(sock: socket.socket, message: dict) -> None:
    """Write one logical message, chunking when it exceeds one frame."""
    import json

    body = json.dumps(message).encode("utf-8")
    if len(body) <= MAX_MESSAGE_BYTES:
        sock.sendall(_LENGTH.pack(len(body)) + body)
        return
    step = _chunk_step()
    total = (len(body) + step - 1) // step
    if total > MAX_CHUNKS:
        raise ProtocolError(
            f"message of {len(body)} bytes needs {total} chunks "
            f"(limit {MAX_CHUNKS})"
        )
    for seq in range(total):
        frame = json.dumps(
            {
                "type": "chunk",
                "seq": seq,
                "last": seq == total - 1,
                "data": base64.b64encode(body[seq * step : (seq + 1) * step]).decode(
                    "ascii"
                ),
            }
        ).encode("utf-8")
        if len(frame) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"frame limit {MAX_MESSAGE_BYTES} too small to carry a chunk"
            )
        sock.sendall(_LENGTH.pack(len(frame)) + frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> dict:
    """Read one length-prefixed JSON frame; raises on EOF/corruption."""
    import json

    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame length {length} exceeds limit")
    try:
        message = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed message: {message!r}")
    return message


def recv_message(sock: socket.socket) -> dict:
    """Read one logical message, re-assembling chunked continuations."""
    import json

    message = _recv_frame(sock)
    if message.get("type") != "chunk":
        return message
    parts: list[bytes] = []
    seq = 0
    while True:
        if message.get("seq") != seq:
            raise ProtocolError(
                f"chunk sequence broken: expected {seq}, got {message.get('seq')!r}"
            )
        try:
            parts.append(base64.b64decode(str(message.get("data", "")), validate=True))
        except ValueError as exc:
            raise ProtocolError(f"undecodable chunk data: {exc}") from exc
        if message.get("last"):
            break
        seq += 1
        if seq >= MAX_CHUNKS:
            raise ProtocolError(f"chunked message exceeds {MAX_CHUNKS} frames")
        message = _recv_frame(sock)
        if message.get("type") != "chunk":
            raise ProtocolError(
                f"non-chunk frame {message.get('type')!r} inside a chunked message"
            )
    try:
        assembled = json.loads(b"".join(parts).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable assembled message: {exc}") from exc
    if not isinstance(assembled, dict) or "type" not in assembled:
        raise ProtocolError(f"assembled frame is not a typed message: {assembled!r}")
    if assembled.get("type") == "chunk":
        raise ProtocolError("chunked messages cannot nest")
    return assembled


class Endpoint:
    """Listener, hello check and connection loop of both protocol servers.

    The campaign :class:`~repro.orchestration.distserver.Coordinator`
    and the :class:`~repro.serving.server.PredictionServer` keep only
    their own handler table, welcome and per-connection accounting, in
    a ``_serve_client(sock)`` that runs :meth:`_converse`.  Each
    accepted connection gets its own daemon thread; the 0.2 s accept
    timeout keeps shutdown prompt.  ``role`` names this side in a
    version-skew refusal; setting ``_stop`` ends every connection after
    its next reply.
    """

    role = "server"

    def __init__(
        self,
        host: str,
        port: int,
        backlog: int,
        auth_token: str | None,
        telemetry: Telemetry | None,
    ) -> None:
        self.auth_token = auth_token
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    def _accept_one(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError:  # the 0.2 s timeout, or the listener was closed
            return
        threading.Thread(target=self._serve_client, args=(conn,), daemon=True).start()

    def _refuse_hello(self, message: dict, peer: str) -> dict | None:
        """The ``error`` reply a hello earns by its token or protocol, if any."""
        if not token_matches(self.auth_token, message.get("token")):
            self.telemetry.emit(
                "auth_reject", peer=str(message.get(peer)), host=message.get("host")
            )
            return {"type": "error", "error": "authentication failed"}
        if message.get("protocol") != PROTOCOL_VERSION:
            return {
                "type": "error",
                "error": f"protocol version skew: {self.role} {PROTOCOL_VERSION} "
                f"vs {peer} {message.get('protocol')}",
            }
        return None

    def _converse(
        self,
        sock: socket.socket,
        fsm: SessionFsm,
        handlers: dict,
        send=send_message,
        recv=recv_message,
    ) -> bool:
        """Serve one connection to its end; True if the peer said goodbye.

        ``handlers`` maps message kinds to reply builders; the hello's
        builds the welcome once :meth:`_refuse_hello` passes.  A refused
        hello ends the connection after its reply, a non-``error`` reply
        advances ``fsm``, and reaching ``end`` replies ``ok`` and ends
        it.  ``send``/``recv`` let a server move frames through names of
        its own module.
        """
        hello = next(iter(fsm.machine["start"]))
        try:
            while not self._stop.is_set():
                message = recv(sock)
                kind = str(message.get("type"))  # a JSON list cannot key the tables
                if kind == hello and fsm.state != "start":
                    reply = {"type": "error", "error": f"duplicate {hello}"}
                elif kind == hello:
                    peer = MESSAGE_TYPES[hello][0]
                    reply = self._refuse_hello(message, peer) or handlers[hello](message)
                    if reply["type"] == "error":
                        send(sock, reply)
                        return False
                    fsm.advance(hello)
                elif fsm.state == "start":
                    reply = {"type": "error", "error": f"say {hello} first (got {kind!r})"}
                elif fsm.machine[fsm.state].get(kind) == "end":
                    fsm.advance(kind)
                    send(sock, {"type": "ok"})
                    return True
                elif kind in handlers:
                    reply = handlers[kind](message)
                    if reply["type"] != "error":
                        fsm.advance(kind)
                else:
                    reply = {"type": "error", "error": f"unknown message {kind!r}"}
                send(sock, reply)
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass
        return False


def resolve_registry(ref: str) -> dict[str, PredictorFactory]:
    """Import a ``module:callable`` registry reference and call it."""
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValueError(f"registry ref {ref!r} is not 'module:callable'")
    module = importlib.import_module(module_name)
    factory = getattr(module, attr)
    registry = factory()
    if not isinstance(registry, dict):
        raise ValueError(f"registry ref {ref!r} did not return a dict")
    return registry


def encode_task(task: Task) -> dict:
    """Task → wire dict (config name + trace recipe, never callables)."""
    if task.warm_key is not None:
        raise ValueError("warm_share tasks cannot be distributed")
    return {
        "index": task.index,
        "config": task.config_name,
        "trace": task.trace.to_wire(),
        "track_providers": task.track_providers,
        "fingerprint": task.fingerprint,
        "warmup_branches": task.warmup_branches,
        "checkpoint_every": task.checkpoint_every,
        "state_dir": task.state_dir,
        "kernel": task.kernel,
    }


def decode_task(
    data: dict, registry: dict[str, PredictorFactory], verify: bool = True
) -> Task:
    """Wire dict → Task, resolving the factory from ``registry``.

    With ``verify`` (the default for executors) the fingerprint is
    recomputed from this host's code and config; a mismatch means the
    executor's checkout diverges from the coordinator's and the task is
    refused rather than silently producing different bits.
    """
    config = data["config"]
    factory = registry.get(config)
    if factory is None:
        raise VersionSkewError(
            f"config {config!r} not in this executor's registry"
        )
    spec = TraceSpec.from_wire(data["trace"])
    task = Task(
        index=data["index"],
        config_name=config,
        factory=factory,
        trace=spec,
        track_providers=data.get("track_providers", False),
        fingerprint=data["fingerprint"],
        warmup_branches=data.get("warmup_branches", 0),
        checkpoint_every=data.get("checkpoint_every"),
        state_dir=data.get("state_dir"),
        kernel=data.get("kernel", "scalar"),
    )
    if verify:
        local = task_fingerprint(
            predictor_fingerprint(factory(), task.kernel),
            spec.identity(),
            task.track_providers,
            warmup_branches=task.warmup_branches,
            kernel=task.kernel,
        )
        if local != task.fingerprint:
            raise VersionSkewError(
                f"fingerprint mismatch for {config} × {spec.name}: "
                f"coordinator {task.fingerprint[:12]} vs local {local[:12]} "
                "(code or config differs between hosts)"
            )
    return task


class Connection:
    """One coordinator connection, safe for the renewal thread to share."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._lock = threading.Lock()

    def request(self, message: dict) -> dict:
        with self._lock:
            send_message(self.sock, message)
            return recv_message(self.sock)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect(
    address: tuple[str, int], timeout: float = 10.0
) -> socket.socket:
    """Dial the coordinator, retrying briefly while it binds its port."""
    deadline = monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection(address, timeout=timeout)
            sock.settimeout(None)
            return sock
        except OSError:
            if monotonic() >= deadline:
                raise
            sleep(0.1)


def greet(
    request, hello: dict, token: str | None, welcome: str, refused: type[Exception]
) -> dict:
    """Send ``hello`` through ``request`` and return its ``welcome`` reply.

    ``token`` rides on the hello when given.  A refusal naming
    authentication raises :class:`AuthError`, any other ``refused``.
    """
    if token is not None:
        hello = {**hello, "token": token}
    reply = request(hello)
    if reply.get("type") != welcome:
        error = str(reply.get("error", reply))
        if "authentication" in error:
            raise AuthError(error)
        raise refused(f"{hello['type']} refused: {error}")
    return reply


def default_executor_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class ExecutorStats:
    """What one executor session accomplished."""

    executor_id: str
    completed: int = 0
    failed: int = 0
    refused: int = 0


class _Renewer:
    """Background lease heartbeat while a claimed task is running."""

    def __init__(self, conn: Connection, executor_id: str, interval: float) -> None:
        self._conn = conn
        self._executor_id = executor_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self, lease_id: str) -> None:
        self._stop.clear()

        def beat() -> None:
            while not self._stop.wait(self._interval):
                try:
                    reply = self._conn.request(
                        {
                            "type": "renew",
                            "executor": self._executor_id,
                            "lease_id": lease_id,
                        }
                    )
                except (OSError, ConnectionError, ProtocolError):
                    return
                if reply.get("type") != "ok":
                    return  # lease gone; keep computing, result may still land

        self._thread = threading.Thread(target=beat, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


def run_executor(
    address: tuple[str, int],
    registry_ref: str = DEFAULT_REGISTRY,
    executor_id: str | None = None,
    telemetry: Telemetry | None = None,
    poll_interval: float = 0.25,
    renew: bool = True,
    connect_timeout: float = 10.0,
    max_tasks: int | None = None,
    auth_token: str | None = None,
) -> ExecutorStats:
    """Drain leases from a coordinator until the campaign is drained.

    Each claimed task runs through :func:`scheduler.execute_tasks` with
    ``jobs=1`` — the exact serial substrate of a local campaign — so a
    distributed cell's result is bit-identical to the serial run.  The
    result payload travels back to the coordinator (which owns the
    manifest and shared telemetry); when the shared result store is
    reachable from this host the executor also publishes directly into
    it, same atomic write, same bytes.

    ``renew=False`` disables the lease heartbeat (used by fault-injection
    tests to force expiry); ``max_tasks`` bounds how many leases this
    session will run before disconnecting.  ``auth_token`` rides on the
    ``hello`` when the coordinator requires a shared secret.
    """
    executor_id = executor_id or default_executor_id()
    telemetry = telemetry if telemetry is not None else Telemetry()
    registry = resolve_registry(registry_ref)
    stats = ExecutorStats(executor_id=executor_id)

    conn = Connection(connect(address, timeout=connect_timeout))
    try:
        hello = {
            "type": "hello",
            "executor": executor_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "protocol": PROTOCOL_VERSION,
        }
        welcome = greet(conn.request, hello, auth_token, "welcome", ProtocolError)
        lease_ttl = float(welcome.get("lease_ttl", 30.0))
        store_dir = welcome.get("store_dir")
        store = ResultStore(Path(store_dir)) if store_dir else None
        renewer = _Renewer(conn, executor_id, max(0.05, lease_ttl / 3.0))

        while True:
            if max_tasks is not None and stats.completed + stats.failed >= max_tasks:
                break
            reply = conn.request({"type": "claim", "executor": executor_id})
            kind = reply.get("type")
            if kind == "drained":
                break
            if kind == "empty":
                sleep(float(reply.get("retry_after_s", poll_interval)))
                continue
            if kind != "lease":
                raise ProtocolError(f"unexpected claim reply: {reply}")

            lease_id = reply["lease_id"]
            try:
                task = decode_task(reply["task"], registry)
            except VersionSkewError as exc:
                stats.refused += 1
                conn.request(
                    {
                        "type": "result",
                        "executor": executor_id,
                        "lease_id": lease_id,
                        "index": reply["task"].get("index"),
                        "ok": False,
                        "error": str(exc),
                        "refused": True,
                    }
                )
                continue

            if renew:
                renewer.start(lease_id)
            try:
                outcome = scheduler.execute_tasks(
                    [task], jobs=1, telemetry=telemetry, max_retries=0
                )[0]
            finally:
                if renew:
                    renewer.stop()

            message = {
                "type": "result",
                "executor": executor_id,
                "lease_id": lease_id,
                "index": task.index,
                "ok": outcome.ok,
                "elapsed_s": outcome.elapsed_s,
                "meta": {
                    "resumed_from": outcome.resumed_from,
                    "checkpoints": outcome.checkpoints,
                    "corrupt": list(outcome.corrupt_purged),
                },
            }
            if outcome.ok:
                message["payload"] = result_store.encode_result(outcome.result)
                stats.completed += 1
                if store is not None:
                    _publish(store, task, outcome)
            else:
                message["error"] = outcome.error or "unknown"
                stats.failed += 1
            conn.request(message)

        try:
            conn.request({"type": "bye", "executor": executor_id})
        except (OSError, ConnectionError, ProtocolError):
            pass
    finally:
        conn.close()
    return stats


def _publish(store: ResultStore, task: Task, outcome: TaskOutcome) -> None:
    """Best-effort direct publish into the shared result store."""
    try:
        store.store(task.fingerprint, outcome.result)
    except OSError:
        pass  # store not reachable from this host; coordinator persists
