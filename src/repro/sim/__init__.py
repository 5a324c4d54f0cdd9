"""Evaluation substrate: the trace-driven simulator and result handling.

``simulate`` is the one simulation engine: it drives one predictor over
one trace in commit order — segmented for warmup, resume and streamed
checkpoints, each segment on the scalar loop or a vectorized kernel —
and returns a :class:`SimulationResult` (MPKI, misprediction rate,
provider hit attribution).  ``runner`` evaluates predictor factories over whole
suites by delegating to :mod:`repro.orchestration` — parallel workers,
content-addressed result caching and checkpoint/resume — which keeps
the per-figure experiment scripts fast to iterate on.
"""

from repro.sim.attribution import AttributionResult, attribute, format_attribution
from repro.sim.metrics import SimulationResult, aggregate_mpki
from repro.sim.simulator import simulate
from repro.sim.runner import Campaign, evaluate_one, run_campaign

__all__ = [
    "AttributionResult",
    "Campaign",
    "SimulationResult",
    "aggregate_mpki",
    "attribute",
    "evaluate_one",
    "format_attribution",
    "run_campaign",
    "simulate",
]
