"""Load-generation harness for the prediction service.

Drives many concurrent client sessions against one
:class:`~repro.serving.server.PredictionServer` — each session on its
own thread with its own persistent connection, streaming a
deterministic trace in batches — and reports aggregate throughput and
per-batch round-trip latency percentiles (p50/p95/p99).

Profiles pick the client mix: ``steady`` replays calibrated suite
traces (the predictable fleet), ``wild`` replays the adversarial
wild-branch traces from :mod:`repro.workloads.wild` (every prediction
expensive), ``mixed`` interleaves both.  Traces are built once per
(workload, length) and shared read-only across sessions, so the harness
itself stays cheap relative to the server's predict/train work.

The report is emitted as a ``loadgen_report`` telemetry event; the
100-session floors live in ``benchmarks/test_contracts.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.orchestration.registry import trace_spec_for
from repro.orchestration.telemetry import Telemetry, monotonic
from repro.serving.client import PredictClient
from repro.trace.records import Trace

#: Default events streamed per session.
DEFAULT_SESSION_EVENTS = 2_000

#: Default events per round trip.
DEFAULT_BATCH = 256


@dataclass(frozen=True)
class LoadProfile:
    """One client mix: which workloads and predictor configs to drive."""

    name: str
    workloads: tuple[str, ...]
    configs: tuple[str, ...]
    description: str

    def pick(self, index: int) -> tuple[str, str]:
        """Deterministic (config, workload) assignment for session #index."""
        return (
            self.configs[index % len(self.configs)],
            self.workloads[index % len(self.workloads)],
        )


def suite_profile(
    manifest_path: str,
    configs: tuple[str, ...] = ("bf-tage10", "gshare", "bf-neural"),
) -> LoadProfile:
    """A load profile driving every entry of a declarative suite manifest.

    Workloads are ``@manifest#entry`` references, resolved client-side
    through :mod:`repro.workloads.manifest` (pins checked).  The server
    only sees the reference as a session label, so suite sessions always
    run *cold* — the warm snapshot pool can only hydrate workloads it
    can regenerate by registry name.
    """
    from repro.workloads import load_manifest

    manifest = load_manifest(manifest_path)
    return LoadProfile(
        name=f"suite:{manifest.name}",
        workloads=tuple(
            f"@{manifest_path}#{entry}" for entry in manifest.entry_names()
        ),
        configs=tuple(configs),
        description=f"entries of suite manifest {manifest_path}",
    )


#: Built-in client mixes, keyed by name for the CLI.
PROFILES: dict[str, LoadProfile] = {
    "steady": LoadProfile(
        name="steady",
        workloads=("SERV1", "INT1", "FP2", "MM3"),
        configs=("bf-tage10", "gshare", "bimodal"),
        description="calibrated suite traces; the predictable fleet",
    ),
    "wild": LoadProfile(
        name="wild",
        workloads=("WILD1", "WILD2", "WILD3", "WILD4"),
        configs=("bf-tage10", "bf-neural", "tage10"),
        description="adversarial hard-to-predict branch storms",
    ),
    "mixed": LoadProfile(
        name="mixed",
        workloads=("SERV1", "WILD1", "INT2", "WILD2", "FP1", "WILD3"),
        configs=("bf-tage10", "gshare", "bf-neural", "bimodal"),
        description="interleaved steady and wild sessions",
    ),
}


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    profile: str
    sessions: int
    events: int
    errors: int
    elapsed_s: float
    throughput_eps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    error_messages: list[str] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "sessions": self.sessions,
            "events": self.events,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_eps": round(self.throughput_eps, 3),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
        }


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 100])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def _run_session(
    address: tuple[str, int],
    index: int,
    trace: Trace,
    config: str,
    workload: str,
    batch: int,
    warm: bool,
    warmup: int | None,
    auth_token: str | None,
    latencies: list[float],
    summaries: list[dict],
    errors: list[str],
    lock: threading.Lock,
    barrier: threading.Barrier,
) -> None:
    """One session's worth of load; appends results under ``lock``."""
    local_latencies: list[float] = []
    try:
        with PredictClient(
            address, client_id=f"loadgen-{index}", auth_token=auth_token
        ) as client:
            # Line up all sessions so "concurrent" means concurrent.  A
            # broken barrier (some other session died before lining up)
            # is not fatal to this one — it just starts immediately.
            try:
                barrier.wait(timeout=60.0)
            except threading.BrokenBarrierError:
                pass
            opened = client.open_session(
                config, workload, warm=warm, branches=len(trace), warmup=warmup
            )
            session = str(opened["session"])
            start = int(opened.get("position", 0))
            pcs = trace.pcs
            outcomes = trace.outcomes
            for lo in range(start, len(pcs), batch):
                hi = min(lo + batch, len(pcs))
                began = monotonic()
                client.send_events(session, pcs[lo:hi], outcomes[lo:hi])
                local_latencies.append((monotonic() - began) * 1000.0)
            summary = client.close_session(session)
    except Exception as exc:  # noqa: BLE001 - every failure is a report line
        barrier.abort()  # release peers still lining up; they run anyway
        with lock:
            errors.append(f"session {index} ({config} x {workload}): {exc}")
        return
    with lock:
        latencies.extend(local_latencies)
        summaries.append(
            {
                "session": index,
                "config": config,
                "workload": workload,
                "events": summary["events"],
                "mispredictions": summary["mispredictions"],
                "state_hash": summary["state_hash"],
            }
        )


def run_load(
    address: tuple[str, int],
    profile: LoadProfile | str = "mixed",
    sessions: int = 100,
    session_events: int = DEFAULT_SESSION_EVENTS,
    batch: int = DEFAULT_BATCH,
    warm: bool = False,
    warmup: int | None = None,
    auth_token: str | None = None,
    telemetry: Telemetry | None = None,
) -> LoadReport:
    """Drive ``sessions`` concurrent sessions and aggregate the outcome.

    Every session runs on its own thread with its own connection; a
    barrier releases them together once all are connected.  Latency
    samples are per-batch round trips (client clock), throughput is
    total served events over wall time from barrier release to last
    session close.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown load profile {profile!r}; "
                f"available: {', '.join(sorted(PROFILES))}"
            ) from None
    if sessions <= 0:
        raise ValueError(f"sessions must be positive, got {sessions}")
    telemetry = telemetry if telemetry is not None else Telemetry()

    # Build each distinct trace once; sessions share them read-only.
    assignments = [profile.pick(index) for index in range(sessions)]
    if warm and any(workload.startswith("@") for _c, workload in assignments):
        raise ValueError(
            "manifest-suite sessions must run cold: the server's warm "
            "pool can only regenerate registry-named workloads"
        )
    traces: dict[str, Trace] = {}
    for _config, workload in assignments:
        if workload not in traces:
            traces[workload] = trace_spec_for(workload, session_events).resolve()

    latencies: list[float] = []
    summaries: list[dict] = []
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(sessions + 1)
    threads = []
    for index, (config, workload) in enumerate(assignments):
        thread = threading.Thread(
            target=_run_session,
            args=(
                address,
                index,
                traces[workload],
                config,
                workload,
                batch,
                warm,
                warmup,
                auth_token,
                latencies,
                summaries,
                errors,
                lock,
                barrier,
            ),
            daemon=True,
        )
        thread.start()
        threads.append(thread)

    try:
        barrier.wait(timeout=60.0)
    except threading.BrokenBarrierError:
        pass  # a session died pre-barrier; its error line explains
    began = monotonic()
    for thread in threads:
        thread.join()
    elapsed = max(monotonic() - began, 1e-9)

    events = sum(summary["events"] for summary in summaries)
    report = LoadReport(
        profile=profile.name,
        sessions=len(summaries),
        events=events,
        errors=len(errors),
        elapsed_s=elapsed,
        throughput_eps=events / elapsed,
        p50_ms=percentile(latencies, 50),
        p95_ms=percentile(latencies, 95),
        p99_ms=percentile(latencies, 99),
        error_messages=errors,
        summaries=summaries,
    )
    telemetry.emit(
        "loadgen_report",
        sessions=report.sessions,
        events=report.events,
        errors=report.errors,
        throughput_eps=round(report.throughput_eps, 3),
        p50_ms=round(report.p50_ms, 4),
        p95_ms=round(report.p95_ms, 4),
        p99_ms=round(report.p99_ms, 4),
        profile=profile.name,
    )
    return report
