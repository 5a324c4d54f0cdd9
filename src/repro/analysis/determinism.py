"""REPRO1xx — determinism taint analysis for the orchestration layer.

The campaign stack's correctness claim is that a simulation result is a
pure function of (predictor config, trace): the content-addressed result
store, the state store and the distributed coordinator all key on
fingerprints, so any nondeterministic value that leaks into a
fingerprint input, a ``PredictorState``/``SimCheckpoint`` payload or a
store key silently breaks cache identity and the ``--jobs N`` ==
``--jobs 1`` bit-identity guarantee.

This pass is an intraprocedural forward dataflow walk.  Per function
(and per module body) it tracks which local names and ``self.*``
attributes hold *tainted* values and reports when one reaches a sink:

========  ============================================================
REPRO101  A nondeterminism source (``time.*``, the telemetry clock
          functions, unseeded ``random``/``os.urandom``/``secrets``,
          ``uuid``, ``id()``, ``os.environ``/``os.getenv``,
          ``os.getpid``) flows into a hashing or fingerprint sink or
          a content-addressed store key.
REPRO102  A nondeterminism source flows into predictor-state payload
          construction (``_state_payload``/``snapshot`` returns,
          ``PredictorState(...)``, ``SimCheckpoint(...)``).
REPRO103  An iteration-order-dependent value (a ``set`` used as a
          sequence, or iteration over a ``dict``/``set``) reaches a
          hashing sink without an intervening ``sorted()`` /
          ``json.dumps(..., sort_keys=True)``.
========  ============================================================

Telemetry is the sanctioned sink for wall-clock values: calls to
``emit``/``make_event``/``validate_event`` (and plain logging/printing)
are allowlisted, so event timestamps never fire.

The walk itself is intraprocedural, but taint now crosses **one level
of helper calls**: before the per-scope passes run, every indexed
function gets a *return-taint summary* (the taint its ``return``
expressions would carry, computed intraprocedurally), and call sites
resolved through the shared interprocedural engine
(:mod:`repro.analysis.callgraph` — ``self`` methods, imported helpers,
module functions) pick up their callee's summary.  So
``key = helper()`` where ``helper`` returns ``time.time()`` now taints
``key`` even though the clock read is a function away.  Deeper chains
remain out of scope (caught dynamically by the bit-identity tests).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from repro.analysis.callgraph import CallGraph
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource, _call_tail

#: Short titles for ``--list-rules``.
RULES = {
    "REPRO101": "nondeterminism reaches fingerprint/store key",
    "REPRO102": "nondeterminism reaches predictor-state payload",
    "REPRO103": "container iteration order reaches hashing",
}

#: Dotted-call prefixes that produce nondeterministic values.
_SOURCE_PREFIXES = {
    "time.": "wall clock",
    "random.": "unseeded randomness",
    "secrets.": "cryptographic entropy",
    "uuid.uuid": "uuid entropy",
}

#: Exact dotted calls that produce nondeterministic values.
_SOURCE_CALLS = {
    "os.urandom": "os.urandom entropy",
    "os.getpid": "process id",
    "os.getenv": "environment variable",
    "id": "id() memory address",
    "repro.orchestration.telemetry.monotonic": "monotonic clock",
    "repro.orchestration.telemetry.wall_clock": "wall clock",
}

#: Non-call attribute sources (reading them is already nondeterministic).
_SOURCE_ATTRS = {"os.environ": "os.environ"}

#: Functions whose arguments become fingerprint / cache-key inputs.
_FINGERPRINT_FUNCS = {
    "task_fingerprint",
    "predictor_fingerprint",
    "code_fingerprint",
    "trace_content_fingerprint",
    "warm_context_key",
    "campaign_id_of",
}

#: hashlib constructors (``hashlib.sha256(...)`` or a bare imported name).
_HASH_FUNCS = {"sha256", "sha1", "sha512", "md5", "blake2b", "blake2s"}

#: Method names that key/write a content-addressed store when the
#: receiver's name mentions a store (``store.store``, ``state_store.save``).
_STORE_METHODS = {"store", "save", "path_for"}

#: Constructors whose arguments become persisted predictor state.
_STATE_CTORS = {"PredictorState", "SimCheckpoint"}

#: Functions whose return value is a persisted predictor-state payload.
_STATE_FUNCS = {"_state_payload", "snapshot"}

#: Calls whose arguments may legitimately carry nondeterminism (the
#: telemetry path) or that plainly never feed hashing.
_ALLOWED_CALLS = {
    "emit",
    "make_event",
    "validate_event",
    "print",
    "format",
    "log",
    "debug",
    "info",
    "warning",
    "exception",
}

_SOURCE_KIND = "source"
_ORDER_KIND = "order"


@dataclass(frozen=True)
class _Taint:
    kind: str  # _SOURCE_KIND or _ORDER_KIND
    reason: str


def _dotted(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve ``Name`` / ``Name.attr`` chains through the import map."""
    if isinstance(node, ast.Name):
        return imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, imports)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _source_reason(dotted: str | None) -> str | None:
    if dotted is None:
        return None
    exact = _SOURCE_CALLS.get(dotted)
    if exact is not None:
        return exact
    for prefix, reason in _SOURCE_PREFIXES.items():
        if dotted.startswith(prefix):
            return reason
    return None


def _receiver_base(node: ast.expr) -> str | None:
    """Leftmost name of an attribute chain (``self.store.save`` → ``store``).

    For ``self.<x>`` chains the attribute below ``self`` is the
    interesting name; for plain chains it is the root name.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    if not parts:
        return None
    base = parts[-1]
    if base == "self" and len(parts) >= 2:
        return parts[-2]
    return base


def _has_sort_keys(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if (
            keyword.arg == "sort_keys"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
        ):
            return True
    return False


class _ScopeWalk:
    """Taint propagation over one function (or module) body."""

    def __init__(
        self,
        source: ModuleSource,
        imports: dict[str, str],
        qualname: str,
        findings: list[Finding],
        helper_taints: Callable[[ast.Call], frozenset[_Taint]] | None = None,
    ) -> None:
        self.source = source
        self.imports = imports
        self.qualname = qualname
        self.findings = findings
        #: Resolves a call site to its callee's return-taint summary
        #: (the one-level interprocedural hop); None = purely local.
        self.helper_taints = helper_taints
        self.env: dict[str, frozenset[_Taint]] = {}
        self.set_names: set[str] = set()
        self.dict_names: set[str] = set()
        self.digest_names: set[str] = set()
        #: Taint carried by this scope's own ``return`` expressions —
        #: read back as the scope's summary.
        self.return_taint: frozenset[_Taint] = frozenset()
        self.reporting = False
        self._reported: set[tuple[str, int]] = set()

    # ------------------------------------------------------------ naming

    def _target_key(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        if isinstance(node, ast.Subscript):
            return self._target_key(node.value)
        if isinstance(node, ast.Starred):
            return self._target_key(node.value)
        return None

    # ----------------------------------------------------------- tainting

    def taint_of(self, node: ast.expr | None) -> frozenset[_Taint]:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Name):
            taints = set(self.env.get(node.id, frozenset()))
            if node.id in self.set_names:
                taints.add(_Taint(_ORDER_KIND, "set iteration order"))
            return frozenset(taints)
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node, self.imports)
            reason = _SOURCE_ATTRS.get(dotted) if dotted is not None else None
            if reason is not None:
                return frozenset({_Taint(_SOURCE_KIND, reason)})
            key = self._target_key(node)
            if key is not None:
                return self.env.get(key, frozenset())
            return self.taint_of(node.value)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            taints: set[_Taint] = set()
            for comp in node.generators:
                taints |= self.taint_of(comp.iter)
                taints |= self._iteration_order_taint(comp.iter)
            if isinstance(node, ast.DictComp):
                taints |= self.taint_of(node.key) | self.taint_of(node.value)
            else:
                taints |= self.taint_of(node.elt)
            if isinstance(node, ast.SetComp):
                taints.add(_Taint(_ORDER_KIND, "set iteration order"))
            return frozenset(taints)
        taints = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taints |= self.taint_of(child)
            elif isinstance(child, ast.keyword):
                taints |= self.taint_of(child.value)
        return frozenset(taints)

    def _call_taint(self, node: ast.Call) -> frozenset[_Taint]:
        dotted = _dotted(node.func, self.imports)
        reason = _source_reason(dotted)
        if reason is not None:
            return frozenset({_Taint(_SOURCE_KIND, reason)})
        tail = _call_tail(node)
        if tail in _ALLOWED_CALLS:
            return frozenset()
        arg_taints: set[_Taint] = set()
        if isinstance(node.func, ast.Attribute):
            arg_taints |= self.taint_of(node.func.value)
        for arg in node.args:
            arg_taints |= self.taint_of(arg)
        for keyword in node.keywords:
            arg_taints |= self.taint_of(keyword.value)
        # sorted()/json.dumps(sort_keys=True) launder iteration order.
        if tail == "sorted" or (tail == "dumps" and _has_sort_keys(node)):
            arg_taints = {t for t in arg_taints if t.kind != _ORDER_KIND}
        if tail in ("set", "frozenset"):
            arg_taints.add(_Taint(_ORDER_KIND, "set iteration order"))
        # One-level interprocedural hop: a resolved helper contributes
        # its return-taint summary to the call's value.
        if self.helper_taints is not None:
            arg_taints |= self.helper_taints(node)
        return frozenset(arg_taints)

    def _iteration_order_taint(self, iter_node: ast.expr) -> frozenset[_Taint]:
        """Order taint incurred by iterating ``iter_node``."""
        node = iter_node
        # Peel enumerate()/list()/tuple() wrappers: they preserve order.
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("enumerate", "list", "tuple", "reversed")
            and node.args
        ):
            node = node.args[0]
        if isinstance(node, (ast.Set, ast.SetComp)):
            return frozenset({_Taint(_ORDER_KIND, "set iteration order")})
        if isinstance(node, ast.Call):
            tail = _call_tail(node)
            if tail in ("set", "frozenset"):
                return frozenset({_Taint(_ORDER_KIND, "set iteration order")})
            if tail in ("keys", "values", "items") and isinstance(
                node.func, ast.Attribute
            ):
                receiver = node.func.value
                if isinstance(receiver, (ast.Dict, ast.DictComp)) or (
                    isinstance(receiver, ast.Name)
                    and receiver.id in self.dict_names
                ):
                    return frozenset(
                        {_Taint(_ORDER_KIND, "dict iteration order")}
                    )
        if isinstance(node, ast.Name):
            if node.id in self.set_names:
                return frozenset({_Taint(_ORDER_KIND, "set iteration order")})
            if node.id in self.dict_names:
                return frozenset({_Taint(_ORDER_KIND, "dict iteration order")})
        return frozenset()

    # ------------------------------------------------------------- sinks

    def _flag(self, node: ast.AST, rule: str, message: str, hint: str) -> None:
        if not self.reporting:
            return
        key = (rule, node.lineno)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                file=self.source.relpath,
                line=node.lineno,
                symbol=self.qualname,
                message=message,
                hint=hint,
            )
        )

    def _check_sink_call(self, node: ast.Call) -> None:
        tail = _call_tail(node)
        if tail in _ALLOWED_CALLS:
            return
        sink: str | None = None
        state_sink = False
        if tail in _FINGERPRINT_FUNCS:
            sink = f"fingerprint input `{tail}()`"
        elif tail in _HASH_FUNCS:
            dotted = _dotted(node.func, self.imports)
            if dotted is not None and (
                dotted.startswith("hashlib.")
                or self.imports.get(tail, "").startswith("hashlib.")
                or dotted in _HASH_FUNCS
            ):
                sink = f"hash `{tail}()`"
        elif (
            tail == "update"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.digest_names
        ):
            sink = f"hash `{node.func.value.id}.update()`"
        elif tail in _STORE_METHODS and isinstance(node.func, ast.Attribute):
            receiver = _receiver_base(node.func.value)
            if receiver is not None and "store" in receiver.lower():
                sink = f"content-addressed store `{receiver}.{tail}()`"
        elif tail in _STATE_CTORS:
            sink = f"state payload `{tail}(...)`"
            state_sink = True
        if sink is None:
            return
        taints: set[_Taint] = set()
        for arg in node.args:
            taints |= self.taint_of(arg)
        for keyword in node.keywords:
            taints |= self.taint_of(keyword.value)
        self._report_sink(node, sink, taints, state_sink)

    def _report_sink(
        self, node: ast.AST, sink: str, taints: set[_Taint], state_sink: bool
    ) -> None:
        sources = sorted({t.reason for t in taints if t.kind == _SOURCE_KIND})
        orders = sorted({t.reason for t in taints if t.kind == _ORDER_KIND})
        if sources:
            rule = "REPRO102" if state_sink else "REPRO101"
            self._flag(
                node,
                rule,
                f"{', '.join(sources)} flows into {sink}",
                "results must be a pure function of (config, trace); route "
                "timestamps through telemetry events, draw randomness from "
                "repro.common.rng.XorShift64",
            )
        if orders:
            self._flag(
                node,
                "REPRO103",
                f"{', '.join(orders)} reaches {sink}",
                "sort before hashing: sorted(...) or "
                "json.dumps(..., sort_keys=True)",
            )

    # -------------------------------------------------------- statements

    def run(self, body: list[ast.stmt], in_state_func: bool = False) -> None:
        # Pass 1 propagates loop-carried taint, pass 2 reports.
        self.reporting = False
        self._walk(body, in_state_func)
        self.reporting = True
        self._walk(body, in_state_func)

    def _walk(self, body: list[ast.stmt], in_state_func: bool) -> None:
        for stmt in body:
            self._visit(stmt, in_state_func)

    def _scan_calls(self, stmt: ast.stmt) -> None:
        """Check every call in the statement's expressions for sinks."""
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                self._check_sink_call(node)

    def _assign(self, target: ast.expr, taints: frozenset[_Taint], value: ast.expr | None) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taints, None)
            return
        key = self._target_key(target)
        if key is None:
            return
        self.env[key] = self.env.get(key, frozenset()) | taints
        if value is not None and isinstance(target, ast.Name):
            self._track_type(target.id, value)

    def _track_type(self, name: str, value: ast.expr) -> None:
        if isinstance(value, (ast.Set, ast.SetComp)):
            self.set_names.add(name)
        elif isinstance(value, (ast.Dict, ast.DictComp)):
            self.dict_names.add(name)
        elif isinstance(value, ast.Call):
            tail = _call_tail(value)
            if tail in ("set", "frozenset"):
                self.set_names.add(name)
            elif tail == "dict":
                self.dict_names.add(name)
            elif tail in _HASH_FUNCS:
                dotted = _dotted(value.func, self.imports)
                if dotted is not None and (
                    dotted.startswith("hashlib.")
                    or self.imports.get(tail, "").startswith("hashlib.")
                ):
                    self.digest_names.add(name)

    def _visit(self, stmt: ast.stmt, in_state_func: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate scopes, analyzed on their own
        self._scan_calls(stmt)
        if isinstance(stmt, ast.Assign):
            taints = self.taint_of(stmt.value)
            for target in stmt.targets:
                self._assign(target, taints, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self.taint_of(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._assign(
                stmt.target,
                self.taint_of(stmt.value) | self.taint_of(stmt.target),
                None,
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self.taint_of(stmt.iter) | self._iteration_order_taint(stmt.iter)
            self._assign(stmt.target, taints, None)
            self._walk(stmt.body, in_state_func)
            self._walk(stmt.orelse, in_state_func)
            return
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taint = self.return_taint | self.taint_of(stmt.value)
            if in_state_func and stmt.value is not None:
                taints = set(self.taint_of(stmt.value))
                if taints:
                    self._report_sink(
                        stmt,
                        f"`{self.qualname.rsplit('.', 1)[-1]}()` return payload",
                        taints,
                        state_sink=True,
                    )
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._assign(
                        item.optional_vars,
                        self.taint_of(item.context_expr),
                        item.context_expr,
                    )
        # Recurse into nested blocks (loops handled above).
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if block and not isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._walk(block, in_state_func)
        for handler in getattr(stmt, "handlers", []) or []:
            self._walk(handler.body, in_state_func)


def _scopes(source: ModuleSource):
    """Yield (qualname, body, is_state_func) for the module and functions."""
    yield "<module>", source.tree.body, False

    def descend(body: list[ast.stmt], prefix: str):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                yield qual, stmt.body, stmt.name in _STATE_FUNCS
                yield from descend(stmt.body, f"{qual}.")
            elif isinstance(stmt, ast.ClassDef):
                yield from descend(stmt.body, f"{prefix}{stmt.name}.")
            else:
                for child_body in (
                    getattr(stmt, "body", None),
                    getattr(stmt, "orelse", None),
                    getattr(stmt, "finalbody", None),
                ):
                    if child_body:
                        yield from descend(child_body, prefix)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from descend(handler.body, prefix)

    yield from descend(source.tree.body, "")


def _return_summaries(graph: CallGraph) -> dict[str, frozenset[_Taint]]:
    """Intraprocedural return-taint summary for every indexed function."""
    summaries: dict[str, frozenset[_Taint]] = {}
    for qualname, fn in graph.functions.items():
        source = graph.sources[fn.module]
        walk = _ScopeWalk(source, graph.imports[fn.module], qualname, findings=[])
        # Two reporting-off passes: the first carries loop taint forward,
        # the second reads stable return taint.  Findings stay empty —
        # summaries must not double-report the callee's own sinks.
        walk._walk(fn.node.body, in_state_func=False)
        walk._walk(fn.node.body, in_state_func=False)
        summaries[qualname] = walk.return_taint
    return summaries


def _helper_taint_resolver(graph, summaries, fn_qualname: str):
    """Callable mapping a call site to its callee's summary taint."""
    fn = graph.functions.get(fn_qualname)
    if fn is None:
        return None
    env = graph._local_types(fn)

    def resolve(call: ast.Call) -> frozenset[_Taint]:
        taints: set[_Taint] = set()
        for callee in graph._resolve_call(fn, call, env):
            if callee != fn_qualname:
                taints |= summaries.get(callee, frozenset())
        return frozenset(taints)

    return resolve


def check_sources(sources: list[ModuleSource], graph: CallGraph) -> list[Finding]:
    """Run the REPRO1xx determinism taint pass over parsed sources."""
    summaries = _return_summaries(graph)
    findings: list[Finding] = []
    for source in sources:
        if source.module.startswith("repro.analysis"):
            continue
        imports = graph.imports[source.module]
        for qualname, body, is_state_func in _scopes(source):
            resolver = _helper_taint_resolver(
                graph, summaries, f"{source.module}.{qualname}"
            )
            walk = _ScopeWalk(
                source, imports, qualname, findings, helper_taints=resolver
            )
            walk.run(body, in_state_func=is_state_func)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
