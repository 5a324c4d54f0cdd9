"""Shared fixtures for the benchmark suite.

Benchmarks regenerate each paper table/figure at reduced scale (two
short traces, a few thousand branches) so the full suite runs in
minutes; the committed full-scale numbers live in EXPERIMENTS.md and
are produced by ``python -m repro.experiments.<name>``.
"""

import json
import platform
import subprocess
from pathlib import Path

import pytest

BENCH_TRACES = ["FP1", "INT1"]
BENCH_BRANCHES = 2_000

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_args(extra=None):
    """The tiny-scale CLI namespace every figure bench runs with."""
    from repro.experiments import common

    parser = common.make_parser("bench")
    argv = [
        "--branches", str(BENCH_BRANCHES),
        "--traces", *BENCH_TRACES,
        "--cache-dir", "",
    ]
    if extra:
        argv += extra
    return parser.parse_args(argv)


@pytest.fixture(scope="session")
def small_trace():
    """One 6000-branch trace shared by predictor/ablation benches."""
    from repro.workloads import build_trace

    return build_trace("SPEC03", 6_000)


@pytest.fixture(scope="session")
def tiny_args():
    return bench_args()


def current_commit() -> str:
    """Short hash of the checked-out commit, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def host_fingerprint() -> dict:
    """The CPU model and Python and numpy versions a row was measured with.

    Throughput rows are only comparable between runs on the same host.
    """
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__}


@pytest.fixture(scope="module", autouse=True)
def _persist_trajectory(request):
    """Replace this commit's rows in the module's trajectory file at teardown.

    A bench module opts in by defining ``TRAJECTORY_PATH`` and a
    ``RESULTS`` list of rows; each row is stored with the commit and the
    host fingerprint.
    """
    yield
    path = getattr(request.module, "TRAJECTORY_PATH", None)
    rows = getattr(request.module, "RESULTS", None)
    if path is None or not rows:
        return
    commit = current_commit()
    host = host_fingerprint()
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError):
        history = []
    if not isinstance(history, list):
        history = []
    history = [row for row in history if row.get("commit") != commit]
    history.extend({"commit": commit, "host": host, **row} for row in rows)
    path.write_text(json.dumps(history, indent=2) + "\n")
