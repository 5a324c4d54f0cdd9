"""Task and trace descriptions the scheduler fans out to workers.

A :class:`TraceSpec` is a *recipe* for a trace rather than the trace
itself, so a worker process can rebuild suite traces locally (cheap,
deterministic) instead of receiving megabytes over the pipe; traces that
only exist in memory ride along inline.  A :class:`Task` is one cell of
the (predictor factory × trace) grid with its content-addressed
fingerprint precomputed by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.orchestration.fingerprint import trace_content_fingerprint
from repro.predictors.base import BranchPredictor
from repro.sim.metrics import SimulationResult
from repro.trace.records import Trace

PredictorFactory = Callable[[], BranchPredictor]


@dataclass(frozen=True)
class TraceSpec:
    """How to obtain one trace: suite name, manifest entry, file, or inline."""

    kind: str  # "suite" | "manifest" | "file" | "inline"
    name: str
    branches: int | None = None
    path: str | None = None
    payload: Trace | None = field(default=None, compare=False)

    @classmethod
    def suite(cls, name: str, branches: int | None = None) -> "TraceSpec":
        return cls(kind="suite", name=name, branches=branches)

    @classmethod
    def from_manifest(
        cls, path: str | Path, entry: str, branches: int | None = None
    ) -> "TraceSpec":
        """One entry of a suite manifest (``repro.workloads.manifest``),
        cut to its first ``branches`` events when given."""
        return cls(kind="manifest", name=entry, branches=branches, path=str(path))

    @classmethod
    def from_file(cls, path: str | Path, branches: int | None = None) -> "TraceSpec":
        return cls(kind="file", name=Path(path).stem, branches=branches, path=str(path))

    @classmethod
    def inline(cls, trace: Trace) -> "TraceSpec":
        return cls(kind="inline", name=trace.name, branches=len(trace), payload=trace)

    @classmethod
    def of(cls, trace: "Trace | TraceSpec") -> "TraceSpec":
        return trace if isinstance(trace, TraceSpec) else cls.inline(trace)

    def resolve(self) -> Trace:
        """Materialize the trace (called worker-side for suite/file)."""
        if self.kind == "inline":
            assert self.payload is not None
            return self.payload
        if self.kind == "suite":
            from repro.workloads import build_trace

            return build_trace(self.name, self.branches)
        if self.kind == "manifest":
            if self.payload is not None:
                return self.payload
            from repro.workloads.manifest import load_manifest, resolve_entry

            trace = resolve_entry(load_manifest(self.path), self.name)
            if self.branches:
                trace = trace.truncated(self.branches)
            # Memoized through the non-compared payload slot: manifest
            # resolution re-reads (and may re-generate) the suite, so
            # identity() and repeated resolve() calls share one trace.
            object.__setattr__(self, "payload", trace)
            return trace
        if self.kind == "file":
            from repro.workloads.interchange import read_any

            trace = read_any(self.path)
            return trace.truncated(self.branches) if self.branches else trace
        raise ValueError(f"unknown trace spec kind {self.kind!r}")

    def identity(self) -> str:
        """Stable identity string feeding the task fingerprint.

        Suite traces are pure functions of (name, branch budget); files
        and inline traces are identified by content digest so regenerated
        or edited traces cannot alias a stale cache entry.
        """
        if self.kind == "suite":
            return f"suite:{self.name}:{self.branches}"
        if self.kind == "manifest":
            from repro.workloads.manifest import load_manifest

            manifest = load_manifest(self.path)
            content = trace_content_fingerprint(self.resolve())
            # Suite digest *and* resolved content: the first pins which
            # declared suite the task meant, the second catches file/
            # generator drift underneath an unchanged manifest.
            return f"manifest:{manifest.fingerprint()}:{self.name}:{content}"
        if self.kind == "file":
            import hashlib

            digest = hashlib.sha256(Path(self.path).read_bytes()).hexdigest()
            return f"file:{digest}:{self.branches}"
        return f"inline:{trace_content_fingerprint(self.payload)}"

    def cache_key(self) -> tuple:
        """Key for worker-local trace memoization (inline never shared)."""
        if self.kind == "inline":
            return ("inline", id(self.payload))
        return (self.kind, self.name, self.branches, self.path)

    def to_wire(self) -> dict:
        """JSON-safe encoding for the distribution protocol.

        Inline traces are refused: they exist only in the coordinator's
        memory, so a remote executor could never rebuild them — the
        distribution layer requires suite, manifest or file traces
        (whose recipes are host-portable) exactly like the process-pool
        scheduler prefers them for payload size.  Manifest specs travel
        as (path, entry); the executor resolves its own copy of the
        manifest, and the content-addressed task fingerprint rejects the
        task if that copy drifted from the coordinator's.
        """
        if self.kind == "inline":
            raise ValueError(
                f"inline trace {self.name!r} cannot be distributed; "
                "use a suite name, a manifest entry or a trace file"
            )
        return {
            "kind": self.kind,
            "name": self.name,
            "branches": self.branches,
            "path": self.path,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "TraceSpec":
        """Inverse of :meth:`to_wire`."""
        kind = data.get("kind")
        if kind not in ("suite", "manifest", "file"):
            raise ValueError(f"undistributable trace spec kind {kind!r}")
        return cls(
            kind=kind,
            name=data["name"],
            branches=data.get("branches"),
            path=data.get("path"),
        )


@dataclass(frozen=True)
class Task:
    """One (predictor, trace) cell of the campaign grid.

    The checkpoint/resume fields ride on the task (rather than plan
    state) because workers only ever see tasks: ``state_dir`` tells the
    worker where the campaign's :class:`~repro.orchestration.statestore.
    StateStore` lives, ``checkpoint_every`` how often to cut, and the
    ``warm_*`` triple how to seed shared warm state from an ablation
    source before simulating (see ``docs/state.md``).
    """

    index: int
    config_name: str
    factory: PredictorFactory = field(compare=False)
    trace: TraceSpec = field(compare=False)
    track_providers: bool = False
    fingerprint: str = ""
    warmup_branches: int = 0
    checkpoint_every: int | None = None
    state_dir: str | None = None
    #: Simulation kernel: "scalar" (the reference loop), "vectorized"
    #: (require a registered batch kernel) or "auto" (the default:
    #: vectorized when one supports the predictor, scalar otherwise).
    #: Part of the task fingerprint whenever non-scalar — see
    #: ``task_fingerprint``.
    kernel: str = "auto"
    #: Warm-share source: the context key its warmed state is stored
    #: under, the factory that computes it on a cold store, and which
    #: top-level payload components to transplant (None = all shared).
    warm_key: str | None = None
    warm_factory: PredictorFactory | None = field(default=None, compare=False)
    warm_components: tuple[str, ...] | None = None


@dataclass
class TaskOutcome:
    """What happened to one task: a result, or a final error."""

    task: Task
    result: SimulationResult | None = None
    error: str | None = None
    attempts: int = 1
    elapsed_s: float = 0.0
    from_cache: bool = False
    #: Absolute branch position a mid-trace checkpoint resumed from
    #: (None when the task ran from the top of the trace).
    resumed_from: int | None = None
    #: Number of periodic checkpoints the run saved to the state store.
    checkpoints: int = 0
    #: Payload components transplanted from a warm-share source.
    warmed: tuple[str, ...] = ()
    #: ``(path, reason)`` pairs for corrupt state-store entries the run
    #: purged while looking for a resume cut (surfaced as
    #: ``cache_corrupt`` telemetry by whoever settles the outcome).
    corrupt_purged: tuple = ()

    @property
    def ok(self) -> bool:
        return self.result is not None


def error_summary(error: str | None) -> str:
    """The last non-blank line of an error (a traceback's exception line),
    or ``"unknown"`` when there is none."""
    text = (error or "").strip()
    return text.splitlines()[-1] if text else "unknown"
