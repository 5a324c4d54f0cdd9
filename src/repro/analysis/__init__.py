"""Hardware-faithfulness static analysis for the repro sources.

The paper's headline numbers (2.49 MPKI BF-Neural at 64 KB, the
51 100-byte BF-TAGE of Table I) are only meaningful while the Python
model stays hardware-realizable: fixed-width saturating counters,
power-of-two tables, integer-only arithmetic on the predict/train
paths, deterministic state, and honest ``storage_bits`` accounting.
This package enforces those invariants with five rule families plus an
audit pass:

* ``hw`` (:mod:`repro.analysis.rules`, REPRO0xx) — hardware
  faithfulness: saturating counters, power-of-two tables, integer-only
  predict/train paths, snapshot coverage;
* ``det`` (:mod:`repro.analysis.determinism`, REPRO1xx) — a taint pass
  that tracks nondeterminism sources (clocks, unseeded randomness,
  iteration order) into fingerprint/state/store sinks;
* ``schema`` (:mod:`repro.analysis.schema`, REPRO3xx) — drift between
  emitted telemetry events / socket messages and their declared
  ``EVENT_FIELDS`` / ``MESSAGE_TYPES`` registries;
* ``perf`` (:mod:`repro.analysis.perf`, REPRO4xx) — per-event cost
  rules over the transitive call closure of the hot-path roots,
  resolved by the interprocedural engine in
  :mod:`repro.analysis.callgraph` (module index, ``self``-method and
  registry-ref binding, import re-export chasing);
* ``concurrency`` (:mod:`repro.analysis.concurrency`, REPRO5xx) —
  lock-discipline inference (lock-guarded attributes touched without
  the lock), whole-program lock-order graph with deadlock-cycle
  reporting, blocking-call/callback-under-lock detection across the
  call graph, thread-escape analysis, and protocol-FSM conformance
  against the machines declared in ``PROTOCOL_FSMS``; and
* a storage-budget auditor (:mod:`repro.analysis.storage_audit`) that
  instantiates the preset configurations, walks every component's
  ``storage_bits()`` and cross-checks the totals against the declared
  budgets (64 KB / 32 KB BF-Neural, Table I BF-TAGE).

Run it as ``python -m repro.analysis src/`` (or the ``repro-lint``
entry point, optionally ``--family det``); pre-existing, justified
violations live in ``analysis/baseline.json`` and are burned down
incrementally — new violations fail the run.  ``tests/test_analysis.py``
and ``tests/test_analysis_families.py`` wire every pass into tier-1.
"""

from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.callgraph import CallGraph
from repro.analysis.families import (
    ALL_RULES,
    DEFAULT_FAMILIES,
    FAMILIES,
    family_of,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.analysis.findings import Finding, canonical_file
from repro.analysis.rules import RULES
from repro.analysis.storage_audit import (
    AuditResult,
    audit_bf_neural,
    audit_table1,
    format_audits,
    run_audits,
)

__all__ = [
    "ALL_RULES",
    "AuditResult",
    "Baseline",
    "CallGraph",
    "DEFAULT_FAMILIES",
    "FAMILIES",
    "Finding",
    "RULES",
    "audit_bf_neural",
    "audit_table1",
    "canonical_file",
    "family_of",
    "format_audits",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "run_audits",
]
