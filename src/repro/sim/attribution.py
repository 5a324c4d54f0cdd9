"""Misprediction attribution: which branches cost a predictor accuracy.

Replays a trace once through the simulation engine's segment runner
(the vectorized kernel when one supports the predictor, else the scalar
loop; bit-identical either way), derives per-static-branch execution and
misprediction counts (optionally per provider component) from the
per-event predictions, then ranks the offenders.  This is the first
tool to reach for when a predictor underperforms on a trace: it
distinguishes irreducible noise (branches near 50% that nobody can
learn) from learnable-but-missed correlation (branches a better-reaching
predictor gets right).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.sim.simulator import segment_runner
from repro.trace.records import Trace
from repro.trace.stats import count_by_key


@dataclass(frozen=True)
class BranchAttribution:
    """Per-static-branch accuracy record."""

    pc: int
    executions: int
    mispredictions: int

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.executions if self.executions else 0.0


@dataclass
class AttributionResult:
    """Outcome of an attribution run."""

    trace_name: str
    predictor_name: str
    branches: dict[int, BranchAttribution] = field(default_factory=dict)
    provider_misses: dict[str, int] = field(default_factory=dict)

    @property
    def total_mispredictions(self) -> int:
        return sum(b.mispredictions for b in self.branches.values())

    def top_offenders(self, count: int = 10) -> list[BranchAttribution]:
        """The ``count`` static branches with the most mispredictions."""
        ranked = sorted(self.branches.values(), key=lambda b: -b.mispredictions)
        return ranked[:count]

    def concentration(self, count: int = 10) -> float:
        """Share of all mispredictions caused by the top ``count`` branches.

        High concentration means a few pathological branches dominate —
        the situation side predictors (loop, statistical corrector) or
        profile-assisted classification can fix; low concentration means
        diffuse noise.
        """
        total = self.total_mispredictions
        if total == 0:
            return 0.0
        return sum(b.mispredictions for b in self.top_offenders(count)) / total


def attribute(
    predictor: BranchPredictor,
    trace: Trace,
    track_providers: bool = False,
    warmup_branches: int = 0,
) -> AttributionResult:
    """Replay ``trace`` once and attribute every misprediction to its
    static branch; ``branches`` and ``provider_misses`` keep first-
    appearance order, so ranked ties read as in the trace.

    The first ``warmup_branches`` events train the predictor but are
    left out of every count, as in :func:`~repro.sim.simulate`.
    """
    run_segment = segment_runner(predictor, "auto")
    if warmup_branches < 0:
        raise ValueError(f"warmup_branches must be non-negative, got {warmup_branches}")
    warmup = min(warmup_branches, len(trace))
    if warmup:
        run_segment(predictor, trace, 0, warmup, False)
    predictions, providers = run_segment(predictor, trace, warmup, len(trace), track_providers)
    pcs, outcomes = trace.arrays()
    pcs = pcs[warmup:]
    missed = predictions != (outcomes[warmup:] == 1)
    static_pcs, executions, misses = count_by_key(pcs, missed)
    branches = {
        pc: BranchAttribution(pc, count, missed_count)
        for pc, count, missed_count in zip(static_pcs, executions, misses)
    }
    provider_misses: dict[str, int] = {}
    if track_providers and providers is None:
        total = int(np.count_nonzero(missed))
        provider_misses = {predictor.name: total} if total else {}
    elif track_providers:
        codes, names = providers
        missed_codes, counts = count_by_key(codes[missed])
        provider_misses = {names[code]: count for code, count in zip(missed_codes, counts)}
    return AttributionResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        branches=branches,
        provider_misses=provider_misses,
    )


def format_attribution(result: AttributionResult, count: int = 10) -> str:
    """Human-readable offender table for one attribution run."""
    lines = [
        f"misprediction attribution — {result.predictor_name} on "
        f"{result.trace_name}: {result.total_mispredictions} total, "
        f"top-{count} concentration {result.concentration(count):.0%}",
        f"{'pc':>12s} {'misses':>8s} {'execs':>8s} {'rate':>7s}",
    ]
    for branch in result.top_offenders(count):
        lines.append(
            f"{branch.pc:#12x} {branch.mispredictions:8d} "
            f"{branch.executions:8d} {branch.misprediction_rate:6.1%}"
        )
    return "\n".join(lines)
