"""Lease-based campaign coordinator: one manifest, many executors.

The :class:`Coordinator` turns a :class:`~repro.orchestration.engine.
CampaignPlan` into a work-stealing queue served over the length-prefixed
JSON protocol of :mod:`repro.orchestration.remote`.  Executors (same
host or SSH-reachable peers sharing the store filesystem) claim
*leases* on tasks; a lease expires if the executor neither renews nor
completes it within ``lease_ttl`` seconds, returning the task to the
queue so a killed executor's work is re-claimed — and, because tasks
carry their ``state_dir``, resumed from the last checkpoint the dead
executor streamed into the shared StateStore rather than from branch
zero.

The coordinator is the single writer of the manifest and the shared
telemetry stream (schema v3: ``executor_join``/``executor_dead``/
``lease_grant``/``lease_expire``), records per-task executor
attribution, and serves cache hits itself before anything is leased
out.  Attempts settle through the scheduler's
:func:`~repro.orchestration.scheduler.settle_success` /
:func:`~repro.orchestration.scheduler.settle_failure` and the campaign's
store, manifest and result assembly live in one
:class:`~repro.orchestration.engine.CampaignBooks`, exactly as for local
campaigns, so a 2-executor drain of a grid is bit-identical to the
serial ``jobs=1`` run.

See ``docs/distribution.md`` for the protocol, lease semantics and the
failure matrix.
"""

from __future__ import annotations

import math
import socket
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial

from repro.orchestration.engine import (
    CampaignBooks,
    CampaignError,
    CampaignPlan,
    build_tasks,
    settle_from_cache,
)
from repro.orchestration.manifest import campaign_id_of
from repro.orchestration.remote import (
    DEFAULT_REGISTRY,
    PROTOCOL_VERSION,
    Endpoint,
    ProtocolError,
    SessionFsm,
    encode_task,
)
from repro.orchestration.scheduler import settle_failure, settle_success
from repro.orchestration.store import decode_result
from repro.orchestration.tasks import Task, TaskOutcome
from repro.orchestration.telemetry import Telemetry, monotonic


@dataclass
class Lease:
    """One outstanding claim: which executor holds which task until when."""

    lease_id: str
    task: Task
    executor: str
    deadline: float


class Coordinator(Endpoint):
    """Serve lease-based task claims from one campaign plan.

    The plan must be *distributable*: factories resolvable by name on
    every host through ``registry_ref`` (a ``module:callable`` returning
    the name → factory dict), suite or file traces only, and no
    ``warm_share`` (warm transplants need cross-task ordering the
    work-stealing queue does not promise).  The listener, hello check
    and connection loop are the shared
    :class:`~repro.orchestration.remote.Endpoint`'s.
    """

    role = "coordinator"

    def __init__(
        self,
        plan: CampaignPlan,
        registry_ref: str = DEFAULT_REGISTRY,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 30.0,
        telemetry: Telemetry | None = None,
        linger_s: float = 10.0,
        poll_hint_s: float = 0.25,
        auth_token: str | None = None,
    ) -> None:
        if plan.warm_share:
            raise ValueError("warm_share campaigns cannot be distributed")
        for spec in plan.trace_specs:
            if spec.kind == "inline":
                raise ValueError(
                    f"inline trace {spec.name!r} cannot be distributed"
                )
        super().__init__(host, port, 32, auth_token, telemetry)
        self.plan = plan
        self.registry_ref = registry_ref
        self.lease_ttl = lease_ttl
        self.linger_s = linger_s
        self.poll_hint_s = poll_hint_s
        self.results: dict | None = None

        self.tasks = build_tasks(plan)
        self.campaign_id = campaign_id_of(self.tasks)
        self._by_index = {task.index: task for task in self.tasks}
        self.telemetry.emit(
            "campaign_start",
            campaign_id=self.campaign_id,
            total_tasks=len(self.tasks),
            jobs=0,
            mode="distributed",
        )
        self.books = CampaignBooks(plan, self.tasks, self.telemetry)
        settled, to_run = settle_from_cache(
            self.tasks, self.books.store, self.books.manifest, self.telemetry
        )
        self._settled: dict[int, TaskOutcome] = settled
        self._pending: deque[Task] = deque(to_run)
        self._attempts: dict[int, int] = {task.index: 0 for task in self.tasks}
        self._leases: dict[str, Lease] = {}
        self._lease_seq = 0
        self._lock = threading.RLock()
        # Store/manifest writes happen *outside* `_lock` (settling only
        # queues them; see "settling" below) and are serialized by this
        # dedicated I/O lock so two executor threads never interleave
        # manifest appends.
        self._io_lock = threading.Lock()
        self._drained = threading.Event()
        self._active_clients = 0
        if not self._pending:
            self._drained.set()

    # ------------------------------------------------------------------ serve

    def serve(self) -> dict:
        """Block until every task settles; return the results grid.

        After the last task settles the coordinator lingers briefly so
        connected executors hear ``drained`` and disconnect cleanly,
        then closes the socket, emits ``campaign_finish`` and assembles
        results exactly like :func:`run_plan`.
        """
        try:
            while not self._drained.is_set():
                self._expire_leases()
                self._accept_one()
            linger_deadline = monotonic() + self.linger_s
            while monotonic() < linger_deadline:
                with self._lock:
                    if self._active_clients == 0:
                        break
                self._accept_one()
        finally:
            self._listener.close()

        # Settled is complete once drained, but late result/expiry threads
        # may still be in flight — snapshot it under the lock.
        with self._lock:
            settled = dict(self._settled)
        self.results = self.books.finish(settled)
        return self.results

    def serve_background(self) -> threading.Thread:
        """Run :meth:`serve` in a daemon thread (results land on self)."""

        def run() -> None:
            try:
                self.serve()
            except CampaignError:
                pass  # failures are visible via the manifest/telemetry

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    # ----------------------------------------------------------- per-client

    def _serve_client(self, sock: socket.socket) -> None:
        joined: list[str] = []

        def welcome(message: dict) -> dict:
            joined.append(str(message.get("executor")))
            self.telemetry.emit(
                "executor_join",
                executor=joined[0],
                pid=message.get("pid"),
                host=message.get("host"),
            )
            return {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "campaign_id": self.campaign_id,
                "total_tasks": len(self.tasks),
                "registry": self.registry_ref,
                "store_dir": str(self.plan.store_dir)
                if self.plan.store_dir is not None
                else None,
                "lease_ttl": self.lease_ttl,
            }

        handlers = {
            "hello": welcome,
            "claim": self._on_claim,
            "renew": self._on_renew,
            "result": self._on_result,
        }
        clean_exit = False
        with self._lock:
            self._active_clients += 1
        try:
            clean_exit = self._converse(sock, SessionFsm("campaign"), handlers)
        finally:
            with self._lock:
                self._active_clients -= 1
            if joined and not clean_exit and not self._drained.is_set():
                self._on_executor_lost(joined[0], "connection lost")

    def _on_claim(self, message: dict) -> dict:
        executor = str(message.get("executor"))
        with self._lock:
            if len(self._settled) == len(self.tasks):
                return {"type": "drained"}
            if not self._pending:
                return {"type": "empty", "retry_after_s": self.poll_hint_s}
            task = self._pending.popleft()
            self._attempts[task.index] += 1
            attempt = self._attempts[task.index]
            self._lease_seq += 1
            lease_id = f"L{self._lease_seq}"
            self._leases[lease_id] = Lease(
                lease_id=lease_id,
                task=task,
                executor=executor,
                deadline=monotonic() + self.lease_ttl,
            )
        self.telemetry.emit(
            "lease_grant",
            index=task.index,
            config=task.config_name,
            trace=task.trace.name,
            executor=executor,
            lease_id=lease_id,
            attempt=attempt,
        )
        return {
            "type": "lease",
            "lease_id": lease_id,
            "lease_ttl": self.lease_ttl,
            "task": encode_task(task),
        }

    def _on_renew(self, message: dict) -> dict:
        with self._lock:
            lease = self._leases.get(str(message.get("lease_id")))
            if lease is None:
                return {"type": "gone"}
            lease.deadline = monotonic() + self.lease_ttl
            return {"type": "ok"}

    def _on_result(self, message: dict) -> dict:
        """Settle a reported attempt.

        A malformed frame, or one that names a different task or
        executor than its live lease, is refused with an ``error`` reply
        and changes nothing: the lease stays, expires and the task is
        re-leased.  A result without a live lease (late, after expiry)
        settles by index, or is ``stale`` once the task has settled.
        """
        executor = str(message.get("executor"))
        lease_id = str(message.get("lease_id"))
        try:
            index, elapsed, meta = _result_fields(message, self._by_index)
        except ProtocolError as exc:
            return {"type": "error", "error": f"malformed result: {exc}"}
        after: list = []
        deferred = _Deferred(self.telemetry, executor, after)
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is not None and (
                lease.task.index != index or lease.executor != executor
            ):
                return {
                    "type": "error",
                    "error": f"result for task {index} from {executor!r} does not "
                    f"match lease {lease_id} (task {lease.task.index}, "
                    f"{lease.executor!r})",
                }
            self._leases.pop(lease_id, None)
            if index in self._settled:
                return {"type": "stale"}
            task = self._by_index[index]
            attempts = self._attempts[index]
            error = None
            if not message.get("ok"):
                error = str(message.get("error") or "unknown")
            else:
                try:
                    result = decode_result(message["payload"])
                except (KeyError, ValueError, TypeError) as exc:
                    error = f"undecodable result payload: {exc}"
            if error is None:
                outcome = settle_success(deferred, task, attempts, result, elapsed, meta)
            else:
                outcome = settle_failure(
                    deferred, task, attempts, self.plan.max_retries, error
                )
            if outcome is None:
                self._pending.append(task)
            else:
                self._settle(outcome, executor, after)
        for action in after:
            action()
        return {"type": "ok"}

    # ------------------------------------------------------------- settling
    #
    # The settle path runs with `_lock` held, so it never emits or
    # persists directly: it settles through a `_Deferred` telemetry
    # stand-in that queues each event on the caller's `after` list, and
    # queues the persist and progress steps there too.  The caller runs
    # `after` once the lock is released, so telemetry file appends and
    # store/manifest writes — the blocking operations — never happen
    # inside the critical section.

    def _settle(self, outcome: TaskOutcome, executor: str, after: list) -> None:
        self._settled[outcome.task.index] = outcome
        after.append(partial(self._persist, outcome, executor))
        after.append(self.books.progress)
        if len(self._settled) == len(self.tasks):
            self._drained.set()

    def _persist(self, outcome: TaskOutcome, executor: str) -> None:
        """Write one settled outcome to the store and manifest.

        Runs outside ``_lock``; ``_io_lock`` keeps concurrent settling
        threads from interleaving manifest appends.  The store/manifest
        writes here are this coordinator's whole job, so the REPRO502
        on this symbol is baselined.
        """
        with self._io_lock:
            self.books.persist(outcome, executor)

    # --------------------------------------------------------------- leases

    def _expire_leases(self) -> None:
        now = monotonic()
        after: list = []
        with self._lock:
            expired = [
                lease for lease in self._leases.values() if now >= lease.deadline
            ]
            for lease in expired:
                self._expire(lease, "lease ttl elapsed", after)
        for action in after:
            action()

    def _on_executor_lost(self, executor: str, reason: str) -> None:
        self.telemetry.emit("executor_dead", executor=executor, reason=reason)
        after: list = []
        with self._lock:
            held = [
                lease
                for lease in self._leases.values()
                if lease.executor == executor
            ]
            for lease in held:
                self._expire(lease, f"executor dead: {reason}", after)
        for action in after:
            action()

    def _expire(self, lease: Lease, reason: str, after: list) -> None:
        """Drop one lease (lock held) and requeue or fail its task."""
        del self._leases[lease.lease_id]
        task = lease.task
        deferred = _Deferred(self.telemetry, lease.executor, after)
        deferred.emit(
            "lease_expire",
            index=task.index,
            executor=lease.executor,
            lease_id=lease.lease_id,
            reason=reason,
        )
        if task.index in self._settled:
            return
        outcome = settle_failure(
            deferred,
            task,
            self._attempts[task.index],
            self.plan.max_retries,
            f"lease expired ({reason})",
        )
        if outcome is None:
            # Front of the queue: the task already has checkpoints to
            # resume from, so the next claimant finishes it soonest.
            self._pending.appendleft(task)
        else:
            self._settle(outcome, lease.executor, after)


class _Deferred:
    """Telemetry stand-in for settling under the coordinator's ``_lock``.

    ``emit`` tags the event with the settling executor and queues it on
    ``after`` instead of emitting; the caller runs ``after`` once the
    lock is released.
    """

    def __init__(self, telemetry: Telemetry, executor: str, after: list) -> None:
        self.telemetry = telemetry
        self.executor = executor
        self.after = after

    def emit(self, kind: str, **fields: object) -> None:
        fields.setdefault("executor", self.executor)
        self.after.append(partial(self.telemetry.emit, kind, **fields))


def _result_fields(message: dict, by_index: dict[int, Task]) -> tuple[int, float, dict]:
    """Check a ``result`` frame's shape; raise :class:`ProtocolError`.

    Returns the task index, the reported run time and the run's
    bookkeeping reduced to the ``meta`` keys the settle path reads.
    """
    index = message.get("index")
    if type(index) is not int or index not in by_index:
        raise ProtocolError(f"unknown task index {index!r}")
    elapsed = message.get("elapsed_s")
    elapsed = 0.0 if elapsed is None else elapsed
    if type(elapsed) not in (int, float) or not math.isfinite(elapsed) or elapsed < 0:
        raise ProtocolError(f"elapsed_s must be a non-negative number, got {elapsed!r}")
    meta = message.get("meta")
    meta = {} if meta is None else meta
    if not isinstance(meta, dict):
        raise ProtocolError(f"meta must be an object, got {meta!r}")
    resumed_from = meta.get("resumed_from")
    checkpoints = meta.get("checkpoints", 0)
    corrupt = meta.get("corrupt", [])
    if resumed_from is not None and (type(resumed_from) is not int or resumed_from < 0):
        raise ProtocolError(f"meta.resumed_from must be a position, got {resumed_from!r}")
    if type(checkpoints) is not int or checkpoints < 0:
        raise ProtocolError(f"meta.checkpoints must be a count, got {checkpoints!r}")
    if not isinstance(corrupt, list) or not all(
        isinstance(item, list)
        and len(item) == 2
        and all(isinstance(part, str) for part in item)
        for item in corrupt
    ):
        raise ProtocolError(f"meta.corrupt must be [path, reason] pairs, got {corrupt!r}")
    return (
        index,
        float(elapsed),
        {"resumed_from": resumed_from, "checkpoints": checkpoints, "corrupt": corrupt},
    )


def serve_campaign(
    plan: CampaignPlan,
    registry_ref: str = DEFAULT_REGISTRY,
    **coordinator_kwargs,
) -> dict:
    """Construct a coordinator and serve until the campaign drains."""
    return Coordinator(plan, registry_ref, **coordinator_kwargs).serve()
