"""Trace statistics: the analysis behind Figure 2 and workload calibration.

``compute_stats`` classifies every static branch the way the paper's
oracle view would: a branch is *completely biased* when every one of its
dynamic instances resolved the same way.  Figure 2 plots the fraction of
dynamic branch instances belonging to biased static branches, per trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.records import Trace


@dataclass(frozen=True)
class BranchProfile:
    """Per-static-branch dynamic behaviour summary."""

    pc: int
    executions: int
    taken_count: int

    @property
    def not_taken_count(self) -> int:
        """Executions that resolved not-taken."""
        return self.executions - self.taken_count

    @property
    def is_biased(self) -> bool:
        """True when the branch resolved the same way every time."""
        return self.taken_count in (0, self.executions)

    @property
    def bias_ratio(self) -> float:
        """Fraction of executions agreeing with the majority direction."""
        majority = max(self.taken_count, self.not_taken_count)
        return majority / self.executions


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics for one trace."""

    name: str
    dynamic_branches: int
    static_branches: int
    biased_static_branches: int
    biased_dynamic_fraction: float
    taken_fraction: float
    profiles: dict[int, BranchProfile]

    @property
    def biased_static_fraction(self) -> float:
        """Fraction of *static* branches that are completely biased."""
        if self.static_branches == 0:
            return 0.0
        return self.biased_static_branches / self.static_branches


def count_by_key(keys, *masks) -> tuple[list, ...]:
    """Occurrences per distinct key, keys in first-appearance order.

    Returns the distinct ``keys``, their occurrence counts and, for each
    boolean ``mask`` aligned with ``keys``, the masked occurrences per
    key — all as python lists.  First-appearance order is the order a
    dict filled event by event would have, so ranked reports keep their
    tie order.
    """
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    groups = rank[inverse]
    counts = [np.bincount(groups, minlength=len(order))]
    counts += [np.bincount(groups[mask], minlength=len(order)) for mask in masks]
    return (distinct[order].tolist(), *(count.tolist() for count in counts))


def compute_stats(trace: Trace) -> TraceStats:
    """Profile every static branch and summarize bias for the trace.

    The "biased dynamic fraction" — the share of dynamic branch instances
    whose static branch is completely biased — is the quantity Figure 2
    reports as "% of Total Branches".
    """
    pcs, outcomes = trace.arrays()
    static_pcs, executions, takens = count_by_key(pcs, outcomes == 1)
    profiles = {
        pc: BranchProfile(pc, count, taken)
        for pc, count, taken in zip(static_pcs, executions, takens)
    }
    biased_static = sum(1 for p in profiles.values() if p.is_biased)
    biased_dynamic = sum(p.executions for p in profiles.values() if p.is_biased)
    total_dynamic = len(trace)
    total_taken = sum(takens)

    return TraceStats(
        name=trace.name,
        dynamic_branches=total_dynamic,
        static_branches=len(profiles),
        biased_static_branches=biased_static,
        biased_dynamic_fraction=(biased_dynamic / total_dynamic) if total_dynamic else 0.0,
        taken_fraction=(total_taken / total_dynamic) if total_dynamic else 0.0,
        profiles=profiles,
    )


def recurrence_distances(trace: Trace, pc: int, limit: int = 1 << 20) -> list[int]:
    """Distances (in branches) between consecutive occurrences of ``pc``.

    Used to characterize how far apart correlated branches sit — the
    phenomenon the recency stack exploits.
    """
    distances: list[int] = []
    last_seen: int | None = None
    for index, trace_pc in enumerate(trace.pcs[:limit]):
        if trace_pc == pc:
            if last_seen is not None:
                distances.append(index - last_seen)
            last_seen = index
    return distances
