"""REPRO3xx — telemetry/protocol schema-drift checks.

The telemetry event vocabulary (``EVENT_FIELDS`` in
``repro.orchestration.telemetry``, schema v3) and the distribution wire
protocol (``MESSAGE_TYPES`` in ``repro.orchestration.remote``, protocol
v1) are *closed*: every event and message a reader can encounter is
declared, with its required fields, so logs can be replayed and
executors can refuse frames they do not understand.  Runtime validation
(``validate_event``) only catches drift on the code paths a test
happens to exercise; this pass closes the gap statically.

It extracts, from the linted sources themselves:

* every ``<anything>.emit("kind", field=...)`` / ``make_event("kind",
  ...)`` call with a literal event kind,
* every dict literal carrying a literal ``"type"`` entry in a
  *protocol module* (one that defines or imports ``send_message`` /
  ``recv_message``), and
* every dict literal carrying a literal ``"kind"`` entry in a
  *manifest module* (one that defines or imports ``parse_manifest`` /
  ``load_manifest``) — suite-manifest entry templates,

and cross-checks them against the ``EVENT_FIELDS`` / ``MESSAGE_TYPES``
/ ``MANIFEST_TYPES`` declarations found in the same source set:

========  ============================================================
REPRO301  emitted event kind is not declared in ``EVENT_FIELDS``
REPRO302  emit call statically misses a required field of its kind
          (skipped when the call forwards ``**kwargs``)
REPRO303  protocol message ``type`` is not declared in
          ``MESSAGE_TYPES``
REPRO304  protocol message literal misses a required field of its type
          (skipped when the dict contains ``**``-merged parts)
REPRO305  suite-manifest entry ``kind`` is not declared in
          ``MANIFEST_TYPES``
REPRO306  manifest entry literal misses a required key of its kind
          (skipped when the dict contains ``**``-merged parts)
========  ============================================================

Extra fields are always allowed — the schemas name required fields, not
exhaustive ones.  When the source set contains no declaration the
corresponding checks are skipped (there is nothing to drift from).
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource

#: Short titles for ``--list-rules``.
RULES = {
    "REPRO301": "undeclared telemetry event kind",
    "REPRO302": "telemetry emit missing required fields",
    "REPRO303": "undeclared protocol message type",
    "REPRO304": "protocol message missing required fields",
    "REPRO305": "undeclared suite-manifest entry kind",
    "REPRO306": "manifest entry missing required keys",
}

#: Names whose presence (definition or import) marks a protocol module.
_PROTOCOL_MARKERS = {"send_message", "recv_message"}

#: Names whose presence (definition or import) marks a manifest module.
_MANIFEST_MARKERS = {"parse_manifest", "load_manifest"}

_EVENT_DECL = "EVENT_FIELDS"
_MESSAGE_DECL = "MESSAGE_TYPES"
_MANIFEST_DECL = "MANIFEST_TYPES"


def _literal_schema(node: ast.expr) -> dict[str, tuple[str, ...]] | None:
    """Parse ``{"kind": ("field", ...)}`` literals; None if not one."""
    if not isinstance(node, ast.Dict):
        return None
    schema: dict[str, tuple[str, ...]] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        fields: list[str] = []
        if isinstance(value, (ast.Tuple, ast.List)):
            for elt in value.elts:
                if not (
                    isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ):
                    return None
                fields.append(elt.value)
        else:
            return None
        schema[key.value] = tuple(fields)
    return schema


def _declared(sources: list[ModuleSource], name: str) -> dict[str, tuple[str, ...]]:
    """Merge every literal ``name = {...}`` declaration in the source set."""
    merged: dict[str, tuple[str, ...]] = {}
    for source in sources:
        for node in source.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    schema = _literal_schema(value)
                    if schema is not None:
                        merged.update(schema)
    return merged


def _has_markers(source: ModuleSource, markers: set[str]) -> bool:
    """True when the module defines or imports any of ``markers``."""
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in markers:
                return True
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in markers for alias in node.names):
                return True
    return False


def _emit_calls(source: ModuleSource):
    """Yield (node, kind, field names, forwards_kwargs) for emit calls."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_emit = isinstance(func, ast.Attribute) and func.attr == "emit"
        is_make = (
            isinstance(func, ast.Name) and func.id == "make_event"
        ) or (isinstance(func, ast.Attribute) and func.attr == "make_event")
        if not (is_emit or is_make):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue  # dynamic kind: runtime validate_event covers it
        fields = {kw.arg for kw in node.keywords if kw.arg is not None}
        forwards = any(kw.arg is None for kw in node.keywords)
        yield node, first.value, fields, forwards


def _tagged_dicts(source: ModuleSource, tag: str):
    """Yield (node, tag value, literal keys, has_splat) for dict
    literals carrying a literal string ``tag`` entry (``"type"`` for
    protocol messages, ``"kind"`` for manifest entries)."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Dict):
            continue
        tag_value: str | None = None
        keys: set[str] = set()
        has_splat = False
        for key, value in zip(node.keys, node.values):
            if key is None:
                has_splat = True  # {**other} merge
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
                if (
                    key.value == tag
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    tag_value = value.value
        if tag_value is not None:
            yield node, tag_value, keys, has_splat


def _qualname_at(source: ModuleSource, node: ast.AST) -> str:
    """Innermost Class.function context containing ``node`` (by position)."""
    best = "<module>"
    best_span = None
    target_line = node.lineno

    def descend(body, prefix: str) -> None:
        nonlocal best, best_span
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{stmt.name}"
                end = getattr(stmt, "end_lineno", stmt.lineno)
                if stmt.lineno <= target_line <= end:
                    span = end - stmt.lineno
                    if best_span is None or span <= best_span:
                        best, best_span = qual, span
                    descend(stmt.body, f"{qual}.")
            else:
                for attr in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, attr, None)
                    if block:
                        descend(block, prefix)
                for handler in getattr(stmt, "handlers", []) or []:
                    descend(handler.body, prefix)

    descend(source.tree.body, "")
    return best


def check_sources(sources: list[ModuleSource], graph: CallGraph) -> list[Finding]:
    """Run the REPRO3xx schema-drift pass over parsed sources (the call
    graph is unused: schema drift is a per-declaration check)."""
    sources = [s for s in sources if not s.module.startswith("repro.analysis")]
    events = _declared(sources, _EVENT_DECL)
    messages = _declared(sources, _MESSAGE_DECL)
    manifests = _declared(sources, _MANIFEST_DECL)
    findings: list[Finding] = []

    if events:
        for source in sources:
            for node, kind, fields, forwards in _emit_calls(source):
                symbol = _qualname_at(source, node)
                if kind not in events:
                    findings.append(
                        Finding(
                            rule="REPRO301",
                            file=source.relpath,
                            line=node.lineno,
                            symbol=symbol,
                            message=f"telemetry event {kind!r} is not declared "
                            "in EVENT_FIELDS",
                            hint="register the kind (and its required fields) "
                            "in EVENT_FIELDS and bump SCHEMA_VERSION",
                        )
                    )
                    continue
                if forwards:
                    continue  # **kwargs may supply the rest
                missing = sorted(set(events[kind]) - fields)
                if missing:
                    findings.append(
                        Finding(
                            rule="REPRO302",
                            file=source.relpath,
                            line=node.lineno,
                            symbol=symbol,
                            message=f"emit({kind!r}) misses required "
                            f"field(s) {', '.join(missing)}",
                            hint="pass every field EVENT_FIELDS declares for "
                            "this kind (validate_event raises at runtime)",
                        )
                    )

    if messages:
        for source in sources:
            if not _has_markers(source, _PROTOCOL_MARKERS):
                continue
            for node, msg_type, keys, has_splat in _tagged_dicts(source, "type"):
                symbol = _qualname_at(source, node)
                if msg_type not in messages:
                    findings.append(
                        Finding(
                            rule="REPRO303",
                            file=source.relpath,
                            line=node.lineno,
                            symbol=symbol,
                            message=f"protocol message type {msg_type!r} is "
                            "not declared in MESSAGE_TYPES",
                            hint="register the type (and its required fields) "
                            "in MESSAGE_TYPES; bump PROTOCOL_VERSION on "
                            "incompatible changes",
                        )
                    )
                    continue
                if has_splat:
                    continue
                missing = sorted(set(messages[msg_type]) - keys)
                if missing:
                    findings.append(
                        Finding(
                            rule="REPRO304",
                            file=source.relpath,
                            line=node.lineno,
                            symbol=symbol,
                            message=f"message {msg_type!r} misses required "
                            f"field(s) {', '.join(missing)}",
                            hint="include every field MESSAGE_TYPES declares "
                            "for this type",
                        )
                    )

    if manifests:
        for source in sources:
            if not _has_markers(source, _MANIFEST_MARKERS):
                continue
            for node, kind, keys, has_splat in _tagged_dicts(source, "kind"):
                symbol = _qualname_at(source, node)
                if kind not in manifests:
                    findings.append(
                        Finding(
                            rule="REPRO305",
                            file=source.relpath,
                            line=node.lineno,
                            symbol=symbol,
                            message=f"suite-manifest entry kind {kind!r} is "
                            "not declared in MANIFEST_TYPES",
                            hint="register the kind (and its required keys) "
                            "in MANIFEST_TYPES; bump MANIFEST_VERSION on "
                            "incompatible changes",
                        )
                    )
                    continue
                if has_splat:
                    continue
                missing = sorted(set(manifests[kind]) - keys)
                if missing:
                    findings.append(
                        Finding(
                            rule="REPRO306",
                            file=source.relpath,
                            line=node.lineno,
                            symbol=symbol,
                            message=f"manifest entry {kind!r} misses required "
                            f"key(s) {', '.join(missing)}",
                            hint="include every key MANIFEST_TYPES declares "
                            "for this kind (parse_manifest raises at runtime)",
                        )
                    )

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
