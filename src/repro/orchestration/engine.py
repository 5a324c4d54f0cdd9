"""The campaign engine: plan a grid, serve caches, schedule the rest.

``run_plan`` is the single execution substrate every campaign goes
through — the legacy ``repro.sim.runner.run_campaign`` shim, the figure
scripts, ``repro simulate --jobs N`` and ``repro campaign`` all build a
:class:`CampaignPlan` and call it.  The flow:

1. fingerprint every (factory × trace) cell (one throwaway predictor
   instantiation per factory),
2. open the campaign's :class:`CampaignBooks`: the result store and the
   manifest (if configured) — resuming an interrupted sweep of the
   *same* grid, discarding a stale one,
3. serve cache hits from the content-addressed result store,
4. fan the misses out over the scheduler (serial for ``jobs=1``),
   persisting each settled task to the store and manifest,
5. assemble ``{config_name: [result per trace, in trace order]}`` —
   bit-identical whatever ``jobs`` was.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.orchestration import scheduler
from repro.orchestration.fingerprint import predictor_fingerprint, task_fingerprint
from repro.orchestration.manifest import STATUS_DONE, CampaignManifest, campaign_id_of
from repro.orchestration.statestore import warm_context_key
from repro.orchestration.store import ResultStore
from repro.orchestration.tasks import (
    PredictorFactory,
    Task,
    TaskOutcome,
    TraceSpec,
    error_summary,
)
from repro.orchestration.telemetry import Telemetry
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import KERNEL_MODES
from repro.trace.records import Trace


class CampaignError(RuntimeError):
    """Raised when tasks fail and the plan does not allow failures."""

    def __init__(self, failures: list[TaskOutcome]) -> None:
        self.failures = failures
        first = failures[0]
        super().__init__(
            f"{len(failures)} campaign task(s) failed; first: "
            f"{first.task.config_name} × {first.task.trace.name}: "
            f"{error_summary(first.error)}"
        )


@dataclass
class CampaignPlan:
    """Everything needed to execute one predictor × trace grid.

    The checkpoint/warm-state knobs (``state_dir``, ``checkpoint_every``,
    ``warmup_branches``, ``warm_share``) are documented in
    ``docs/state.md``: with a state store configured, tasks stream
    periodic mid-trace checkpoints and a re-run of a killed campaign
    resumes each task from its last cut; ``warm_share`` maps ablation
    variant config names to the source config whose warmed-up state
    seeds their shared components.
    """

    factories: dict[str, PredictorFactory]
    traces: list[Trace | TraceSpec]
    track_providers: bool = False
    store_dir: Path | None = None
    jobs: int = 1
    task_timeout: float | None = None
    max_retries: int = 1
    manifest_path: Path | None = None
    allow_failures: bool = False
    verbose: bool = False
    state_dir: Path | None = None
    checkpoint_every: int | None = None
    warmup_branches: int = 0
    warm_share: dict[str, str] = field(default_factory=dict)
    #: Simulation kernel for every task: "scalar" | "vectorized" | "auto"
    #: (see ``repro.sim.batchkernel``).  ``auto``, the default, runs each
    #: predictor on its batch kernel where one supports it and on the
    #: scalar loop otherwise.  Non-scalar kernels join the task
    #: fingerprints, so scalar and vectorized results never share a
    #: cache entry.
    kernel: str = "auto"
    trace_specs: list[TraceSpec] = field(init=False)

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_MODES:
            raise ValueError(
                f"kernel must be one of {KERNEL_MODES}, got {self.kernel!r}"
            )
        for name, floor in (("jobs", 1), ("max_retries", 0), ("warmup_branches", 0)):
            value = getattr(self, name)
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        for name in ("task_timeout", "checkpoint_every"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        self.trace_specs = [TraceSpec.of(trace) for trace in self.traces]
        for variant, source in self.warm_share.items():
            if variant not in self.factories:
                raise ValueError(f"warm_share variant {variant!r} not in factories")
            if source not in self.factories:
                raise ValueError(f"warm_share source {source!r} not in factories")
            if variant == source:
                raise ValueError(f"warm_share variant {variant!r} is its own source")
        if self.warm_share and self.warmup_branches <= 0:
            raise ValueError("warm_share requires warmup_branches > 0")


def build_tasks(plan: CampaignPlan) -> list[Task]:
    """Fingerprint the grid into scheduler tasks, row-major by factory."""
    tasks: list[Task] = []
    index = 0
    trace_identities = [spec.identity() for spec in plan.trace_specs]
    predictor_fps = {
        config_name: predictor_fingerprint(factory(), plan.kernel)
        for config_name, factory in plan.factories.items()
    }
    state_dir = str(plan.state_dir) if plan.state_dir is not None else None
    for config_name, factory in plan.factories.items():
        predictor_fp = predictor_fps[config_name]
        warm_source = plan.warm_share.get(config_name)
        warm_source_fp = predictor_fps[warm_source] if warm_source else ""
        for spec, trace_identity in zip(plan.trace_specs, trace_identities):
            tasks.append(
                Task(
                    index=index,
                    config_name=config_name,
                    factory=factory,
                    trace=spec,
                    track_providers=plan.track_providers,
                    fingerprint=task_fingerprint(
                        predictor_fp,
                        trace_identity,
                        plan.track_providers,
                        warmup_branches=plan.warmup_branches,
                        warm_source=warm_source_fp,
                        kernel=plan.kernel,
                    ),
                    warmup_branches=plan.warmup_branches,
                    checkpoint_every=plan.checkpoint_every,
                    state_dir=state_dir,
                    kernel=plan.kernel,
                    warm_key=warm_context_key(
                        warm_source_fp, trace_identity, plan.warmup_branches
                    )
                    if warm_source
                    else None,
                    warm_factory=plan.factories[warm_source] if warm_source else None,
                )
            )
            index += 1
    return tasks


def _picklable(tasks: list[Task]) -> bool:
    try:
        pickle.dumps([(task.factory, task.trace) for task in tasks])
        return True
    except Exception:
        return False


def settle_from_cache(
    tasks: list[Task],
    store: ResultStore | None,
    manifest: CampaignManifest | None,
    telemetry: Telemetry,
) -> tuple[dict[int, TaskOutcome], list[Task]]:
    """Settle every task the store already answers; return the rest.

    Shared by the in-process engine and the distributed coordinator so
    both serve cache hits identically before any simulation is
    scheduled or leased out.
    """
    settled: dict[int, TaskOutcome] = {}
    to_run: list[Task] = []
    for task in tasks:
        cached = (
            store.load(task.fingerprint, require_providers=task.track_providers)
            if store is not None
            else None
        )
        if cached is not None:
            telemetry.emit(
                "cache_hit",
                index=task.index,
                config=task.config_name,
                trace=task.trace.name,
                fingerprint=task.fingerprint,
            )
            settled[task.index] = TaskOutcome(
                task=task, result=cached, attempts=0, from_cache=True
            )
            if manifest is not None and manifest.status_of(task.fingerprint) != STATUS_DONE:
                manifest.mark_done(task, attempts=0)
            continue
        if store is not None:
            telemetry.emit(
                "cache_miss",
                index=task.index,
                config=task.config_name,
                trace=task.trace.name,
                fingerprint=task.fingerprint,
            )
        to_run.append(task)
    return settled, to_run


class CampaignBooks:
    """One campaign's books: the result store, the manifest and the
    ``progress``/``campaign_finish`` events.

    ``run_plan`` and the distributed coordinator each hold one, so an
    outcome is persisted, counted and assembled the same way whichever
    path settled it.  Constructing the books opens (or resumes) the
    manifest, announcing a resume with ``manifest_resume``.
    """

    def __init__(
        self, plan: CampaignPlan, tasks: list[Task], telemetry: Telemetry
    ) -> None:
        self.plan = plan
        self.total = len(tasks)
        self.telemetry = telemetry
        self.store = (
            ResultStore(plan.store_dir, telemetry) if plan.store_dir is not None else None
        )
        self.manifest = None
        if plan.manifest_path is not None:
            self.manifest = CampaignManifest.begin(plan.manifest_path, tasks)
            counts = self.manifest.counts()
            if counts[STATUS_DONE] or counts["failed"]:
                telemetry.emit(
                    "manifest_resume",
                    done=counts[STATUS_DONE],
                    failed=counts["failed"],
                    pending=counts["pending"],
                )

    def persist(self, outcome: TaskOutcome, executor: str | None = None) -> None:
        """Write one settled outcome to the store and the manifest."""
        task = outcome.task
        if outcome.ok:
            if self.store is not None:
                self.store.store(task.fingerprint, outcome.result)
            if self.manifest is not None:
                self.manifest.mark_done(
                    task,
                    attempts=outcome.attempts,
                    resumed_from=outcome.resumed_from,
                    checkpoints=outcome.checkpoints,
                    executor=executor,
                )
        elif self.manifest is not None:
            self.manifest.mark_failed(
                task,
                attempts=outcome.attempts,
                error=error_summary(outcome.error),
                executor=executor,
            )

    def progress(self) -> None:
        """Emit a ``progress`` event from the telemetry's live counters."""
        eta = self.telemetry.eta_s(self.total)
        self.telemetry.emit(
            "progress",
            done=self.telemetry.done,
            total=self.total,
            tasks_per_s=round(self.telemetry.tasks_per_s(), 3),
            eta_s=round(eta, 1) if eta != float("inf") else None,
        )

    def finish(
        self, settled: dict[int, TaskOutcome]
    ) -> dict[str, list[SimulationResult]]:
        """Close the campaign: emit ``campaign_finish``, then raise
        :class:`CampaignError` or return ``{config_name: [result per
        trace, in trace order]}`` — bit-identical whichever path
        (serial, process pool, distributed) settled the tasks."""
        failures = sorted(
            (outcome for outcome in settled.values() if not outcome.ok),
            key=lambda outcome: outcome.task.index,
        )
        self.telemetry.emit(
            "campaign_finish",
            done=len(settled) - len(failures),
            failed=len(failures),
            cache_hits=self.telemetry.cache_hits,
            elapsed_s=round(self.telemetry.elapsed_s(), 6),
        )
        if failures and not self.plan.allow_failures:
            raise CampaignError(failures)
        width = len(self.plan.trace_specs)
        return {
            config_name: [settled[row * width + column].result for column in range(width)]
            for row, config_name in enumerate(self.plan.factories)
        }


def _verbose_printer(event: dict) -> None:
    if event["event"] == "task_finish":
        print(
            f"  {event['config']:28s} {event['trace']:8s} "
            f"mpki={event['mpki']:6.3f} ({event['elapsed_s']:.2f}s)",
            flush=True,
        )
    elif event["event"] in ("task_failed", "worker_restart", "cache_corrupt"):
        print(f"  [{event['event']}] {event}", flush=True)


def run_plan(
    plan: CampaignPlan, telemetry: Telemetry | None = None
) -> dict[str, list[SimulationResult]]:
    """Execute a plan; see the module docstring for the flow."""
    telemetry = telemetry if telemetry is not None else Telemetry()
    if plan.verbose:
        telemetry.subscribe(_verbose_printer)

    tasks = build_tasks(plan)
    jobs = plan.jobs
    if jobs > 1 and not _picklable(tasks):
        telemetry.emit(
            "serial_fallback",
            reason="factory or trace not picklable; use module-level "
            "functions/functools.partial for parallel campaigns",
        )
        jobs = 1

    telemetry.emit(
        "campaign_start",
        campaign_id=campaign_id_of(tasks),
        total_tasks=len(tasks),
        jobs=jobs,
    )

    books = CampaignBooks(plan, tasks, telemetry)
    settled, to_run = settle_from_cache(tasks, books.store, books.manifest, telemetry)

    def on_outcome(outcome: TaskOutcome) -> None:
        books.persist(outcome)
        books.progress()

    if to_run:
        for outcome in scheduler.execute_tasks(
            to_run,
            jobs=jobs,
            telemetry=telemetry,
            task_timeout=plan.task_timeout,
            max_retries=plan.max_retries,
            on_outcome=on_outcome,
        ):
            settled[outcome.task.index] = outcome
    return books.finish(settled)
