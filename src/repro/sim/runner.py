"""Campaign runner: evaluate predictor configurations over trace suites.

A :class:`Campaign` pairs named predictor *factories* (fresh predictor
per trace — state never leaks across traces) with a list of traces.
Execution is delegated to :mod:`repro.orchestration`: results are cached
content-addressed (predictor config + code + trace identity) under
``cache_dir``, and ``jobs > 1`` fans the grid out over worker processes
with results bit-identical to the serial path.

This module is the compatibility surface for pre-orchestration callers;
new code should build a :class:`repro.orchestration.CampaignPlan`
directly for manifests, timeouts and telemetry sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.sim.metrics import SimulationResult
from repro.sim.simulator import simulate
from repro.trace.records import Trace

if TYPE_CHECKING:  # typing only: loading the orchestration package here is slow
    from repro.orchestration.tasks import PredictorFactory


@dataclass
class Campaign:
    """A set of predictor factories to evaluate over a set of traces."""

    factories: dict[str, PredictorFactory]
    traces: list[Trace]
    track_providers: bool = False
    cache_dir: Path | None = None
    verbose: bool = False
    jobs: int = 1


def run_campaign(campaign: Campaign) -> dict[str, list[SimulationResult]]:
    """Evaluate every factory over every trace.

    Returns ``{config_name: [result per trace, in trace order]}``.
    """
    from repro.orchestration import CampaignPlan, run_plan

    plan = CampaignPlan(
        factories=campaign.factories,
        traces=list(campaign.traces),
        track_providers=campaign.track_providers,
        store_dir=campaign.cache_dir,
        jobs=campaign.jobs,
        verbose=campaign.verbose,
    )
    return run_plan(plan)


def evaluate_one(
    factory: PredictorFactory, traces: Iterable[Trace]
) -> list[SimulationResult]:
    """Convenience: evaluate a single factory over traces, no caching."""
    return [simulate(factory(), trace) for trace in traces]
