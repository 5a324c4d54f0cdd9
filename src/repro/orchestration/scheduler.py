"""Task execution: serial loop or a fault-tolerant process pool.

The parallel scheduler manages its own worker processes over duplex
pipes instead of ``multiprocessing.Pool`` because fault tolerance needs
to know *which* worker holds *which* task: a task that exceeds its
timeout gets its worker terminated and respawned, a worker that crashes
(OOM-killed, segfault in an extension, ``os._exit``) is detected by the
broken pipe, and in both cases the task is retried up to
``max_retries`` times before being recorded as failed.  Results are
returned in task-index order regardless of completion order, so
``jobs=N`` is bit-identical to the serial path.

Workers receive :class:`TraceSpec` recipes, not traces: suite traces are
rebuilt in-worker (deterministic by construction) and memoized per
worker, so an F-factory × T-trace grid ships F×T small payloads rather
than F copies of every trace.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait
from typing import Callable

from repro.orchestration.statestore import StateStore
from repro.orchestration.tasks import Task, TaskOutcome, error_summary
from repro.orchestration.telemetry import Telemetry, monotonic
from repro.orchestration import store as result_store
from repro.sim.metrics import SimCheckpoint, SimulationResult
from repro.sim.simulator import simulate

OutcomeCallback = Callable[[TaskOutcome], None]

#: Start method: fork shares the already-imported interpreter state and
#: is available everywhere this repo targets; spawn is the fallback.
def _pool_context():
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return get_context()


def _run_one(task: Task, trace_cache: dict) -> tuple[dict, float, dict]:
    """Resolve, simulate, encode — shared by serial path and workers.

    Returns ``(payload, elapsed, meta)``; ``meta`` reports the
    checkpoint/resume bookkeeping (``resumed_from``, ``checkpoints``,
    ``warmed``) so the scheduler can surface it through telemetry and
    :class:`TaskOutcome` without the result payload growing fields.
    """
    key = task.trace.cache_key()
    trace = trace_cache.get(key)
    if trace is None:
        trace = task.trace.resolve()
        trace_cache[key] = trace
    predictor = task.factory()
    meta: dict = {
        "resumed_from": None,
        "checkpoints": 0,
        "warmed": [],
        "corrupt": [],
    }
    state_store = (
        StateStore(
            task.state_dir,
            on_corrupt=lambda path, reason: meta["corrupt"].append((path, reason)),
        )
        if task.state_dir
        else None
    )
    started = monotonic()

    resume_from = None
    if state_store is not None:
        resume_from = state_store.latest(task.fingerprint, max_position=len(trace))
        if resume_from is not None:
            meta["resumed_from"] = resume_from.position

    if resume_from is None and task.warm_key is not None and task.warmup_branches:
        # Warm-share: seed shared components from the source predictor's
        # warmed-up state, then enter the trace *at* the warmup position
        # — the variant never replays the prefix.  The checkpoint is
        # deterministic, so a cold store (compute + save) and a hit
        # (load) install identical state and the result does not depend
        # on cache contents.
        warm_position = min(task.warmup_branches, len(trace))
        warm = (
            state_store.load(task.warm_key, warm_position)
            if state_store is not None
            else None
        )
        if warm is None:
            source = task.warm_factory()
            warm = simulate(
                source, trace, stop_after=warm_position, kernel=task.kernel
            ).checkpoint
            if state_store is not None:
                state_store.save(task.warm_key, warm)
        components = (
            task.warm_components
            if task.warm_components is not None
            else tuple(warm.predictor_state.payload)
        )
        meta["warmed"] = predictor.restore_components(
            warm.predictor_state, components
        )
        resume_from = SimCheckpoint(
            position=warm_position,
            mispredictions=0,
            provider_hits={},
            predictor_state=predictor.snapshot(),
            trace_name=trace.name,
        )

    on_checkpoint = None
    if state_store is not None and task.checkpoint_every is not None:

        def on_checkpoint(checkpoint) -> None:
            state_store.save(task.fingerprint, checkpoint)
            meta["checkpoints"] += 1

    result = simulate(
        predictor,
        trace,
        track_providers=task.track_providers,
        warmup_branches=task.warmup_branches,
        resume_from=resume_from,
        checkpoint_every=task.checkpoint_every,
        on_checkpoint=on_checkpoint,
        kernel=task.kernel,
    )
    return result_store.encode_result(result), monotonic() - started, meta


def _worker_main(conn: Connection) -> None:
    """Worker loop: receive tasks, simulate, reply; exit on "stop"."""
    trace_cache: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if message[0] == "stop":
            return
        task: Task = message[1]
        try:
            payload, elapsed, meta = _run_one(task, trace_cache)
            conn.send(("done", task.index, payload, elapsed, meta))
        except KeyboardInterrupt:  # pragma: no cover - interactive abort
            return
        except BaseException:
            conn.send(("error", task.index, traceback.format_exc(limit=8)))


@dataclass
class _Worker:
    """One live worker process and the task it currently holds."""

    process: object
    conn: Connection
    wid: int
    current: Task | None = None
    deadline: float | None = None


def _spawn_worker(ctx, wid: int) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
    process.start()
    child_conn.close()
    return _Worker(process=process, conn=parent_conn, wid=wid)


def _shutdown(workers: list[_Worker]) -> None:
    for worker in workers:
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for worker in workers:
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
        worker.conn.close()


def execute_tasks(
    tasks: list[Task],
    jobs: int,
    telemetry: Telemetry,
    task_timeout: float | None = None,
    max_retries: int = 1,
    on_outcome: OutcomeCallback | None = None,
) -> list[TaskOutcome]:
    """Run every task; outcomes come back ordered by task index.

    ``on_outcome`` fires as each task settles (success or final
    failure) so the engine can checkpoint the manifest incrementally.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return _execute_serial(tasks, telemetry, max_retries, on_outcome)
    return _execute_parallel(
        tasks, jobs, telemetry, task_timeout, max_retries, on_outcome
    )


def _settle(
    outcome: TaskOutcome,
    outcomes: dict[int, TaskOutcome],
    on_outcome: OutcomeCallback | None,
) -> None:
    outcomes[outcome.task.index] = outcome
    if on_outcome is not None:
        on_outcome(outcome)


def settle_success(
    telemetry: Telemetry,
    task: Task,
    attempts: int,
    result: SimulationResult,
    elapsed: float,
    meta: dict,
) -> TaskOutcome:
    """Finish a successful attempt: emit its events, build its outcome.

    ``meta`` is the run's checkpoint/warm bookkeeping (see
    :func:`_run_one`).  The serial loop, the process pool and the
    distributed coordinator all settle through here, so every path
    emits the same events with the same fields.
    """
    corrupt = tuple(tuple(item) for item in meta.get("corrupt", ()))
    for path, reason in corrupt:
        telemetry.emit("cache_corrupt", path=path, reason=reason)
    resumed_from = meta.get("resumed_from")
    if resumed_from is not None:
        telemetry.emit(
            "task_resume",
            index=task.index,
            config=task.config_name,
            trace=task.trace.name,
            position=resumed_from,
        )
    warmed = tuple(meta.get("warmed", ()))
    if warmed:
        telemetry.emit(
            "warm_restore",
            index=task.index,
            config=task.config_name,
            trace=task.trace.name,
            components=list(warmed),
        )
    checkpoints = meta.get("checkpoints", 0)
    telemetry.emit(
        "task_finish",
        index=task.index,
        config=task.config_name,
        trace=task.trace.name,
        elapsed_s=round(elapsed, 6),
        mpki=result.mpki,
        checkpoints=checkpoints,
    )
    return TaskOutcome(
        task=task,
        result=result,
        attempts=attempts,
        elapsed_s=elapsed,
        resumed_from=resumed_from,
        checkpoints=checkpoints,
        warmed=warmed,
        corrupt_purged=corrupt,
    )


def settle_failure(
    telemetry: Telemetry, task: Task, attempts: int, max_retries: int, error: str
) -> TaskOutcome | None:
    """Finish a failed attempt: the final outcome, or ``None`` to retry."""
    final = attempts > max_retries
    telemetry.emit(
        "task_failed",
        index=task.index,
        config=task.config_name,
        trace=task.trace.name,
        attempt=attempts,
        error=error_summary(error),
        final=final,
    )
    if final:
        return TaskOutcome(task=task, error=error, attempts=attempts)
    telemetry.emit("task_retry", index=task.index, attempt=attempts + 1)
    return None


def _execute_serial(
    tasks: list[Task],
    telemetry: Telemetry,
    max_retries: int,
    on_outcome: OutcomeCallback | None,
) -> list[TaskOutcome]:
    outcomes: dict[int, TaskOutcome] = {}
    trace_cache: dict = {}
    for task in tasks:
        attempts = 0
        outcome = None
        while outcome is None:
            attempts += 1
            telemetry.emit(
                "task_start",
                index=task.index,
                config=task.config_name,
                trace=task.trace.name,
                attempt=attempts,
            )
            try:
                payload, elapsed, meta = _run_one(task, trace_cache)
            except Exception:
                outcome = settle_failure(
                    telemetry, task, attempts, max_retries, traceback.format_exc(limit=8)
                )
            else:
                outcome = settle_success(
                    telemetry,
                    task,
                    attempts,
                    result_store.decode_result(payload),
                    elapsed,
                    meta,
                )
        _settle(outcome, outcomes, on_outcome)
    return [outcomes[task.index] for task in tasks]


def _execute_parallel(
    tasks: list[Task],
    jobs: int,
    telemetry: Telemetry,
    task_timeout: float | None,
    max_retries: int,
    on_outcome: OutcomeCallback | None,
) -> list[TaskOutcome]:
    ctx = _pool_context()
    pending = list(tasks)
    attempts: dict[int, int] = {task.index: 0 for task in tasks}
    by_index = {task.index: task for task in tasks}
    outcomes: dict[int, TaskOutcome] = {}
    workers = [_spawn_worker(ctx, wid) for wid in range(min(jobs, len(tasks)))]

    def assign(worker: _Worker) -> None:
        if not pending:
            return
        task = pending.pop(0)
        try:
            worker.conn.send(("task", task))
        except (BrokenPipeError, OSError):
            # Worker died while idle: respawn and retry the dispatch
            # without charging the task an attempt.
            pending.insert(0, task)
            replace(worker, reason="crash")
            return
        attempts[task.index] += 1
        worker.current = task
        worker.deadline = (
            monotonic() + task_timeout if task_timeout else None
        )
        telemetry.emit(
            "task_start",
            index=task.index,
            config=task.config_name,
            trace=task.trace.name,
            attempt=attempts[task.index],
            worker=worker.wid,
        )

    def task_errored(task: Task, error: str, *, retry_front: bool = False) -> None:
        """Record one failed attempt; re-enqueue or settle."""
        outcome = settle_failure(
            telemetry, task, attempts[task.index], max_retries, error
        )
        if outcome is not None:
            _settle(outcome, outcomes, on_outcome)
        elif retry_front:
            pending.insert(0, task)
        else:
            pending.append(task)

    def replace(worker: _Worker, reason: str) -> _Worker:
        """Kill a wedged/dead worker and spawn its successor."""
        telemetry.emit(
            "worker_restart",
            worker=worker.wid,
            reason=reason,
            index=worker.current.index if worker.current else None,
        )
        worker.process.terminate()
        worker.process.join(timeout=2.0)
        worker.conn.close()
        fresh = _spawn_worker(ctx, worker.wid)
        workers[workers.index(worker)] = fresh
        return fresh

    try:
        while len(outcomes) < len(tasks):
            for worker in workers:
                if worker.current is None:
                    assign(worker)
            busy = [worker for worker in workers if worker.current is not None]
            if not busy:
                break  # every remaining task already settled as failed
            wait_timeout = None
            now = monotonic()
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - now)
            ready = wait([worker.conn for worker in busy], timeout=wait_timeout)
            for worker in busy:
                if worker.conn not in ready:
                    continue
                task = worker.current
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task: broken pipe on our end.
                    worker.current = None
                    replace(worker, reason="crash")
                    if task is not None:
                        task_errored(task, "worker process died", retry_front=True)
                    continue
                worker.current = None
                worker.deadline = None
                if message[0] == "done":
                    _, index, payload, elapsed, meta = message
                    outcome = settle_success(
                        telemetry,
                        by_index[index],
                        attempts[index],
                        result_store.decode_result(payload),
                        elapsed,
                        meta,
                    )
                    _settle(outcome, outcomes, on_outcome)
                else:
                    _, index, error = message
                    task_errored(by_index[index], error)
            # Timed-out workers: anyone past deadline and still busy.
            now = monotonic()
            for worker in list(workers):
                if (
                    worker.current is not None
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    task = worker.current
                    worker.current = None
                    worker.deadline = None
                    replace(worker, reason="timeout")
                    task_errored(
                        task,
                        f"task exceeded timeout of {task_timeout}s",
                    )
    finally:
        _shutdown(workers)
    return [outcomes[task.index] for task in tasks]
