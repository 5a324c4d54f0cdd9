"""Serving benches: concurrent-session throughput and latency tails.

Drives the load-generation harness against an in-process
:class:`~repro.serving.server.PredictionServer` at the ISSUE's
acceptance scale — at least 100 concurrent sessions, zero protocol
errors — and records throughput plus p50/p95/p99 round-trip latency.
Each run appends its numbers to ``BENCH_serving.json`` at the repo
root, keyed by commit and tagged with the host
(``benchmarks/conftest.py``), so the serving-performance trajectory
across the commit history stays inspectable.
"""

from benchmarks.conftest import REPO_ROOT
from repro.orchestration.registry import standard_registry
from repro.serving import PredictionServer, WarmSnapshotPool, run_load

SESSIONS = 100
SESSION_EVENTS = 300
BATCH = 64

TRAJECTORY_PATH = REPO_ROOT / "BENCH_serving.json"
RESULTS: list[dict] = []


def _drive(server, benchmark, label, **load_kwargs):
    report = benchmark.pedantic(
        lambda: run_load(
            server.address,
            sessions=SESSIONS,
            session_events=SESSION_EVENTS,
            batch=BATCH,
            **load_kwargs,
        ),
        rounds=1,
        iterations=1,
    )
    assert report.errors == 0, report.error_messages
    assert report.sessions == SESSIONS
    benchmark.extra_info["throughput_eps"] = round(report.throughput_eps, 1)
    benchmark.extra_info["p99_ms"] = round(report.p99_ms, 3)
    RESULTS.append(
        {
            "bench": label,
            "sessions": report.sessions,
            "events": report.events,
            "errors": report.errors,
            "throughput_eps": round(report.throughput_eps, 1),
            "p50_ms": round(report.p50_ms, 3),
            "p95_ms": round(report.p95_ms, 3),
            "p99_ms": round(report.p99_ms, 3),
        }
    )
    return report


def test_serving_cold_sessions(benchmark):
    server = PredictionServer(registry=standard_registry())
    server.start()
    try:
        _drive(server, benchmark, "cold-mixed", profile="mixed")
    finally:
        server.stop()


def test_serving_warm_sessions(benchmark, tmp_path):
    registry = standard_registry()
    pool = WarmSnapshotPool(
        registry,
        state_dir=str(tmp_path / "state"),
        warmup_branches=100,
        max_shards=32,
        branches=SESSION_EVENTS,
    )
    server = PredictionServer(registry=registry, pool=pool)
    server.start()
    try:
        report = _drive(
            server, benchmark, "warm-wild", profile="wild", warm=True, warmup=100
        )
        # Every distinct (config, workload) shard hydrates exactly once;
        # the other 90+ sessions reuse the resident snapshot.
        assert pool.stats()["hydrations"] <= 12
        # Warm sessions skip the 100-event warmup prefix (wild traces
        # may overshoot the requested budget by a scene, hence >=).
        assert report.events >= SESSIONS * (SESSION_EVENTS - 100)
    finally:
        server.stop()
