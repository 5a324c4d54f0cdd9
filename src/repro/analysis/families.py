"""Rule-family registry and the combined lint entry points.

The analyzer runs five *families*, selectable via ``repro-lint
--family``:

===========  =========  =============================================
hw           REPRO0xx   hardware-faithfulness rules (:mod:`.rules`)
det          REPRO1xx   determinism taint pass (:mod:`.determinism`)
schema       REPRO3xx   telemetry/protocol schema drift
                        (:mod:`.schema`)
perf         REPRO4xx   hot-path cost rules over the interprocedural
                        call closure (:mod:`.perf`, :mod:`.callgraph`)
concurrency  REPRO5xx   lock discipline, whole-program lock order/
                        deadlock, blocking-under-lock and protocol-FSM
                        conformance (:mod:`.concurrency`)
===========  =========  =============================================

Every family checker takes ``(sources, graph)``: the parsed
:class:`~repro.analysis.rules.ModuleSource` list and the one module
index and interprocedural :class:`~repro.analysis.callgraph.CallGraph`
that :func:`lint_sources` builds per run.  Imports, classes, base
resolution and call edges are therefore resolved once, the same way,
for every family: ``hw`` reads the predictor hierarchy from the graph,
``det`` its import maps and call sites, ``perf`` and ``concurrency``
its call closure.  Each family produces :class:`~repro.analysis.
findings.Finding` records, so baselining, JSON output and CI wiring
are shared.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import concurrency, determinism, perf, rules, schema
from repro.analysis.callgraph import CallGraph
from repro.analysis.findings import Finding, canonical_file
from repro.analysis.rules import ModuleSource, collect_sources, module_name_for

#: family name -> (checker over sources and graph, rule-id -> short title).
FAMILIES = {
    "hw": (rules.check_sources, {k: v[0] for k, v in rules.RULES.items()}),
    "det": (determinism.check_sources, determinism.RULES),
    "schema": (schema.check_sources, schema.RULES),
    "perf": (perf.check_sources, perf.RULES),
    "concurrency": (concurrency.check_sources, concurrency.RULES),
}

#: Every rule id across all families -> short title.
ALL_RULES = {
    rule: title
    for _, titles in FAMILIES.values()
    for rule, title in titles.items()
}

#: Every rule id -> the family that reports it.
_RULE_FAMILY = {
    rule: name for name, (_, titles) in FAMILIES.items() for rule in titles
}

DEFAULT_FAMILIES = tuple(FAMILIES)


def family_of(rule: str) -> str:
    """Family name for a rule id (``REPRO507`` → ``concurrency``).

    Raises ``ValueError`` for an id no family reports.
    """
    try:
        return _RULE_FAMILY[rule]
    except KeyError:
        raise ValueError(f"unknown rule id {rule!r}") from None


def _resolve(families: tuple[str, ...] | list[str] | None) -> tuple[str, ...]:
    if not families:
        return DEFAULT_FAMILIES
    unknown = [name for name in families if name not in FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown analysis family {unknown[0]!r} "
            f"(choose from {', '.join(FAMILIES)})"
        )
    # Preserve registry order, drop duplicates.
    return tuple(name for name in FAMILIES if name in set(families))


def lint_sources(
    sources: list[ModuleSource], families: tuple[str, ...] | None = None
) -> list[Finding]:
    """Run the selected families (default: all) over parsed sources."""
    selected = _resolve(families)
    graph = CallGraph(sources)
    findings: list[Finding] = []
    for name in selected:
        checker, _ = FAMILIES[name]
        findings.extend(checker(sources, graph))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def lint_paths(
    paths: list[Path | str], families: tuple[str, ...] | None = None
) -> list[Finding]:
    """Lint every python file under ``paths`` with the selected families."""
    return lint_sources(collect_sources(paths), families)


def lint_source(
    text: str,
    filename: str = "<memory>",
    families: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Lint a single in-memory module (used by the rule unit tests)."""
    source = ModuleSource(
        path=Path(filename),
        module=module_name_for(Path(filename)),
        relpath=canonical_file(filename),
        tree=ast.parse(text, filename=filename),
        text=text,
    )
    return lint_sources([source], families)
