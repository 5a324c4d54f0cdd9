"""The ``perf`` family: hot-path cost rules over the call closure.

The simulator executes ``predict``/``train`` once per branch event —
hundreds of thousands of times per figure — so a single per-event
allocation dominates wall clock the way an unaccounted SRAM bank would
dominate a Table I storage audit.  These rules apply that discipline to
software cost: the interprocedural engine (:mod:`.callgraph`) computes
the transitive call closure of the declared hot-path roots, and every
function in that closure is checked for per-event costs:

=========  ===========================================================
REPRO401   Container/str allocation: list/dict/set displays and
           constructors, comprehensions and generator expressions,
           ``Load``-context slices, f-strings, str concat/%-format,
           ``.format()`` calls.
REPRO402   Attribute chains looked up inside a per-event loop — each
           iteration pays the lookup; hoist to a local before the loop
           (the idiom ``SegmentedRecencyStacks.commit`` uses).
REPRO403   ``try``/``except`` as control flow — zero-cost entry is a
           CPython 3.11 myth the exception path repays with interest.
REPRO404   ``lambda``/nested ``def`` — builds a function object (and a
           cell closure) per event.
REPRO405   Argument packing: ``*args``/``**kwargs`` parameters or call
           unpacking — packs a fresh tuple/dict per call.
REPRO406   Telemetry/logging calls from the hot closure — event
           emission belongs on the cold rims (campaign/engine layers).
REPRO407   Python-level ``for`` loop over a numpy array — each
           iteration boxes an element into a fresh scalar object and
           pays the interpreter dispatch the array was meant to avoid;
           vectorize the loop, or ``tolist()`` once and iterate the
           list.  Deliberately sequential loops (a recurrence each
           step depends on) are waived by pragma or baselined.
=========  ===========================================================

Findings can be waived per line or per function with a justified
pragma::

    # perf: allow(REPRO401): runs only on mispredictions

on the offending line, the line above it, or the function's ``def``
line (waives the rule for the whole function).  The reason after the
colon is mandatory — an unexplained waiver does not suppress.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph, FunctionNode
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource

RULES = {
    "REPRO401": "container/str allocation on the hot path",
    "REPRO402": "attribute chain looked up inside a hot loop",
    "REPRO403": "try/except on the hot path",
    "REPRO404": "lambda/closure built on the hot path",
    "REPRO405": "argument packing on the hot path",
    "REPRO406": "telemetry/logging call on the hot path",
    "REPRO407": "python-level loop over a numpy array on the hot path",
}

#: Call tails that mean telemetry/logging (REPRO406).
_TELEMETRY_TAILS = {
    "emit",
    "make_event",
    "validate_event",
    "log",
    "debug",
    "info",
    "warning",
    "error",
    "exception",
    "critical",
    "print",
}

#: Builtin constructors whose call allocates a container (REPRO401).
_CONTAINER_CTORS = {"list", "dict", "set", "bytearray"}

#: Method tails whose return value leaves numpy-land: iterating the
#: result is a plain python loop over python objects, not REPRO407.
_NP_ESCAPES = {"tolist", "item"}

#: Builtins that forward their iterable: ``zip(a, b)``/``enumerate(a)``
#: over an array still iterate the array element by element.
_ITER_FORWARDERS = {"zip", "enumerate", "reversed", "iter", "map", "filter"}


def _numpy_aliases(source: ModuleSource) -> set[str]:
    """Module-level names bound to the numpy package (``np``, ``numpy``)."""
    aliases: set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def _numpy_class_attrs(source: ModuleSource, aliases: set[str]) -> dict[str, set[str]]:
    """Class name -> ``self.<attr>`` names assigned from numpy expressions."""
    attrs: dict[str, set[str]] = {}
    if not aliases:
        return attrs
    for stmt in source.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        names = attrs.setdefault(stmt.name, set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not _np_valued(value, aliases, set(), frozenset()):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    names.add(target.attr)
    return attrs


def _np_valued(
    expr: ast.expr, aliases: set[str], np_locals: set[str], self_attrs: frozenset[str]
) -> bool:
    """Conservative: does this expression evaluate to a numpy array?

    Tracks chains rooted at a numpy alias (``np.flatnonzero(x)``), a
    local already inferred as numpy, or a ``self.<attr>`` the class
    assigns from numpy; ``.tolist()``/``.item()`` escape numpy-land.
    """
    if isinstance(expr, ast.Name):
        return expr.id in np_locals or expr.id in aliases
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return expr.attr in self_attrs
        return _np_valued(expr.value, aliases, np_locals, self_attrs)
    if isinstance(expr, ast.Subscript):
        return _np_valued(expr.value, aliases, np_locals, self_attrs)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            if func.attr in _NP_ESCAPES:
                return False
            return _np_valued(func.value, aliases, np_locals, self_attrs)
        return False
    if isinstance(expr, ast.BinOp):
        return _np_valued(
            expr.left, aliases, np_locals, self_attrs
        ) or _np_valued(expr.right, aliases, np_locals, self_attrs)
    if isinstance(expr, ast.UnaryOp):
        return _np_valued(expr.operand, aliases, np_locals, self_attrs)
    if isinstance(expr, ast.IfExp):
        return _np_valued(
            expr.body, aliases, np_locals, self_attrs
        ) or _np_valued(expr.orelse, aliases, np_locals, self_attrs)
    if isinstance(expr, ast.Compare):
        return _np_valued(expr.left, aliases, np_locals, self_attrs) or any(
            _np_valued(comp, aliases, np_locals, self_attrs)
            for comp in expr.comparators
        )
    return False


def check_sources(sources: list[ModuleSource], graph: CallGraph) -> list[Finding]:
    """Run the REPRO4xx hot-path pass over the closure of ``graph``'s roots."""
    roots = graph.hot_roots()
    chains = graph.transitive_closure(set(roots))
    findings: list[Finding] = []
    np_context: dict[str, tuple[set[str], dict[str, set[str]]]] = {}
    for qualname, chain in chains.items():
        fn = graph.functions[qualname]
        if fn.module.startswith("repro.analysis"):
            continue
        source = graph.sources.get(fn.module)
        if source is None:
            continue
        context = np_context.get(fn.module)
        if context is None:
            aliases = _numpy_aliases(source)
            context = (aliases, _numpy_class_attrs(source, aliases))
            np_context[fn.module] = context
        np_aliases, class_attrs = context
        self_attrs = frozenset()
        if fn.class_qualname is not None:
            class_name = fn.class_qualname.rsplit(".", 1)[-1]
            self_attrs = frozenset(class_attrs.get(class_name, ()))
        via = " -> ".join(graph.functions[q].symbol for q in chain)
        checker = _HotFunctionCheck(fn, source, via, np_aliases, self_attrs)
        for finding in checker.run():
            if not source.waived("perf", finding.rule, finding.line, fn.line):
                findings.append(finding)
    return findings


class _HotFunctionCheck:
    """All seven rules over one hot-closure function body."""

    def __init__(
        self,
        fn: FunctionNode,
        source: ModuleSource,
        via: str,
        np_aliases: set[str] | None = None,
        self_np_attrs: frozenset[str] = frozenset(),
    ) -> None:
        self.fn = fn
        self.source = source
        self.via = via
        self.np_aliases = np_aliases or set()
        self.self_np_attrs = self_np_attrs
        self.np_locals: set[str] = set()
        self.findings: list[Finding] = []
        self._chains_reported: set[str] = set()

    def run(self) -> list[Finding]:
        # Guard clauses (`raise ValueError(f"...")`) and asserts never
        # execute on the per-event path — exempt their expressions.
        # Annotations are def-time (or never, under `from __future__
        # import annotations`) — exempt them too.
        self._error_path_ids = {
            id(sub)
            for node in ast.walk(self.fn.node)
            if isinstance(node, (ast.Raise, ast.Assert))
            for sub in ast.walk(node)
        }
        fn_args = self.fn.node.args
        annotations = [
            arg.annotation
            for arg in (
                *fn_args.posonlyargs,
                *fn_args.args,
                *fn_args.kwonlyargs,
                fn_args.vararg,
                fn_args.kwarg,
            )
            if arg is not None and arg.annotation is not None
        ]
        if self.fn.node.returns is not None:
            annotations.append(self.fn.node.returns)
        annotations.extend(
            node.annotation
            for node in ast.walk(self.fn.node)
            if isinstance(node, ast.AnnAssign)
        )
        for annotation in annotations:
            self._error_path_ids.update(id(sub) for sub in ast.walk(annotation))
        self._infer_np_locals()
        self._check_signature()
        for node in ast.walk(self.fn.node):
            if id(node) not in self._error_path_ids:
                self._visit(node)
        self._check_loops()
        return self.findings

    def _infer_np_locals(self) -> None:
        """Local names bound from numpy expressions (REPRO407 roots).

        Two fixed-point passes: the second catches ``b = a[...]`` chains
        where ``a`` only becomes known-numpy during the first.
        """
        if not self.np_aliases and not self.self_np_attrs:
            return
        for _ in range(2):
            before = len(self.np_locals)
            for node in ast.walk(self.fn.node):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not _np_valued(
                    value, self.np_aliases, self.np_locals, self.self_np_attrs
                ):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.np_locals.add(target.id)
            if len(self.np_locals) == before:
                break

    def _report(self, rule: str, line: int, message: str, hint: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                file=self.source.relpath,
                line=line,
                symbol=self.fn.symbol,
                message=f"{message} [hot via {self.via}]",
                hint=hint,
            )
        )

    # -- REPRO405: signature-side packing ------------------------------

    def _check_signature(self) -> None:
        args = self.fn.node.args
        if args.vararg is not None or args.kwarg is not None:
            packed = args.kwarg.arg if args.kwarg is not None else args.vararg.arg
            star = "**" if args.kwarg is not None else "*"
            self._report(
                "REPRO405",
                self.fn.node.lineno,
                f"hot function packs arguments through `{star}{packed}`",
                "give per-event entry points explicit positional parameters",
            )

    # -- Expression/statement rules ------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)) and not isinstance(
            getattr(node, "ctx", ast.Load()), (ast.Store, ast.Del)
        ):
            kind = type(node).__name__.lower()
            self._report(
                "REPRO401",
                node.lineno,
                f"{kind} display allocates per event",
                "preallocate in __init__ and reuse (clear/append), or hoist "
                "to a module constant",
            )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            self._report(
                "REPRO401",
                node.lineno,
                f"{type(node).__name__} allocates per event",
                "rewrite as a loop over a reused buffer, or justify with "
                "`# perf: allow(REPRO401): <why>` if the branch is cold",
            )
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Slice)
            and isinstance(node.ctx, ast.Load)
        ):
            self._report(
                "REPRO401",
                node.lineno,
                "Load-context slice copies the sequence per event",
                "index explicitly or shift in place (insert/pop); numpy "
                "views are exempt via a pragma",
            )
        elif isinstance(node, ast.JoinedStr):
            self._report(
                "REPRO401",
                node.lineno,
                "f-string builds a str per event",
                "precompute the strings (module-level tuple) outside the "
                "hot path",
            )
        elif isinstance(node, ast.BinOp) and self._is_str_build(node):
            self._report(
                "REPRO401",
                node.lineno,
                "string concatenation/format builds a str per event",
                "precompute outside the hot path",
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            target = self._np_iter_source(node.iter)
            if target is not None:
                self._report(
                    "REPRO407",
                    node.lineno,
                    f"python-level for loop iterates numpy array `{target}` "
                    "element by element",
                    "vectorize the loop, or `.tolist()` once and iterate the "
                    "list; a genuinely sequential recurrence is waived with "
                    "`# perf: allow(REPRO407): <why>`",
                )
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Try):
            if not all(
                len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise)
                for handler in node.handlers
            ):
                self._report(
                    "REPRO403",
                    node.lineno,
                    "try/except used as control flow on the hot path",
                    "test the condition explicitly (dict.get, bounds check); "
                    "keep exceptions for actual errors",
                )
        elif isinstance(node, ast.Lambda):
            self._report(
                "REPRO404",
                node.lineno,
                "lambda builds a function object per event",
                "replace with an explicit loop or a module-level function",
            )
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not self.fn.node
        ):
            self._report(
                "REPRO404",
                node.lineno,
                f"nested def `{node.name}` builds a closure per event",
                "hoist to module level and pass state explicitly",
            )

    def _np_iter_source(self, iterable: ast.expr) -> str | None:
        """The numpy array a ``for`` loop would iterate, as source text.

        Looks through the iterable itself, ``zip``/``enumerate``/
        ``reversed``/``iter``/``map``/``filter`` arguments and
        ``range(len(arr))`` — all of which still pull one boxed element
        per iteration out of the array (or index it per event).
        """
        def is_np(expr: ast.expr) -> bool:
            return _np_valued(
                expr, self.np_aliases, self.np_locals, self.self_np_attrs
            )

        if is_np(iterable):
            return ast.unparse(iterable)
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name):
            if iterable.func.id in _ITER_FORWARDERS:
                for arg in iterable.args:
                    if is_np(arg):
                        return ast.unparse(arg)
            elif iterable.func.id == "range":
                for arg in iterable.args:
                    if (
                        isinstance(arg, ast.Call)
                        and isinstance(arg.func, ast.Name)
                        and arg.func.id == "len"
                        and arg.args
                        and is_np(arg.args[0])
                    ):
                        return ast.unparse(arg.args[0])
        return None

    @staticmethod
    def _is_str_build(node: ast.BinOp) -> bool:
        def stringy(expr: ast.expr) -> bool:
            return (
                isinstance(expr, ast.Constant) and isinstance(expr.value, str)
            ) or isinstance(expr, ast.JoinedStr)

        if isinstance(node.op, ast.Mod):
            return stringy(node.left)
        if isinstance(node.op, ast.Add):
            return stringy(node.left) or stringy(node.right)
        return False

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        tail = None
        if isinstance(func, ast.Name):
            tail = func.id
            if func.id in _CONTAINER_CTORS:
                self._report(
                    "REPRO401",
                    node.lineno,
                    f"`{func.id}(...)` allocates a container per event",
                    "reuse a preallocated buffer",
                )
        elif isinstance(func, ast.Attribute):
            tail = func.attr
            if func.attr == "format" and isinstance(func.value, (ast.Constant, ast.JoinedStr)):
                self._report(
                    "REPRO401",
                    node.lineno,
                    "str.format builds a str per event",
                    "precompute outside the hot path",
                )
        if tail in _TELEMETRY_TAILS:
            self._report(
                "REPRO406",
                node.lineno,
                f"telemetry/logging call `{tail}(...)` on the hot path",
                "emit events from the cold rim (campaign/engine layer), "
                "not per branch",
            )
        if any(kw.arg is None for kw in node.keywords):
            self._report(
                "REPRO405",
                node.lineno,
                "`**` unpacking packs a dict per call",
                "pass explicit keyword arguments",
            )

    # -- REPRO402: repeated attribute chains in loops ------------------

    def _check_loops(self) -> None:
        self._scan_body(self.fn.node.body, loops=[])

    def _scan_body(self, body: list[ast.stmt], loops: list[dict]) -> None:
        for stmt in body:
            self._scan_stmt(stmt, loops)

    def _scan_stmt(self, stmt: ast.stmt, loops: list[dict]) -> None:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            frame = self._loop_frame(stmt)
            inner = loops + [frame]
            # Header (target/iter) is evaluated once — scan outside the
            # new loop; body/orelse pay per iteration.
            self._collect_stores(stmt, frame)
            self._scan_body(stmt.body, inner)
            self._scan_body(stmt.orelse, inner)
            self._flush_loop(frame)
        elif isinstance(stmt, ast.While):
            frame = {"bound": set(), "stored": set(), "chains": {}}
            inner = loops + [frame]
            self._collect_stores(stmt, frame)
            self._scan_expr(stmt.test, inner)
            self._scan_body(stmt.body, inner)
            self._scan_body(stmt.orelse, inner)
            self._flush_loop(frame)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            return  # error paths are cold
        else:
            for expr in self._stmt_exprs(stmt):
                self._scan_expr(expr, loops)
            for body in self._stmt_bodies(stmt):
                self._scan_body(body, loops)

    def _loop_frame(self, stmt: ast.For | ast.AsyncFor) -> dict:
        bound = {
            name.id
            for name in ast.walk(stmt.target)
            if isinstance(name, ast.Name)
        }
        return {"bound": bound, "stored": set(), "chains": {}}

    def _collect_stores(self, stmt: ast.stmt, frame: dict) -> None:
        """Names and attribute chains rebound inside the loop.

        Hoisting a chain that is re-assigned each iteration changes
        semantics, so those are excluded; mutation *through* the chain
        (``self._tags[i] = x``) is fine — the list load itself is still
        hoistable.
        """
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                frame["bound"].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                chain = self._pure_chain(node)
                if chain:
                    frame["stored"].add(chain)

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt):
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield item

    @staticmethod
    def _stmt_bodies(stmt: ast.stmt):
        for field_name in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                yield value
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    def _scan_expr(self, expr: ast.expr, loops: list[dict]) -> None:
        if isinstance(expr, ast.Attribute) and isinstance(expr.ctx, ast.Load):
            chain = self._pure_chain(expr)
            if chain is not None:
                if loops:
                    self._record_chain(chain, expr.lineno, loops)
                return
        comps = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        if isinstance(expr, comps):
            return  # REPRO401/404 already cover these wholesale
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, loops)

    @staticmethod
    def _pure_chain(expr: ast.Attribute) -> str | None:
        parts = [expr.attr]
        node = expr.value
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def _record_chain(self, chain: str, lineno: int, loops: list[dict]) -> None:
        root = chain.split(".", 1)[0]
        innermost = loops[-1]
        for frame in loops:
            if root in frame["bound"]:
                return
        for frame in loops:
            for stored in frame["stored"]:
                if chain == stored or chain.startswith(stored + "."):
                    return
        entry = innermost["chains"].setdefault(chain, [0, lineno])
        entry[0] += 1
        entry[1] = min(entry[1], lineno)

    def _flush_loop(self, frame: dict) -> None:
        for chain, (count, lineno) in sorted(frame["chains"].items()):
            if chain in self._chains_reported:
                continue
            self._chains_reported.add(chain)
            sites = f"{count} lookup{'s' if count != 1 else ''}/iteration"
            self._report(
                "REPRO402",
                lineno,
                f"attribute chain `{chain}` resolved inside a per-event "
                f"loop ({sites})",
                f"hoist to a local before the loop: `{chain.split('.')[-1]} "
                f"= {chain}`",
            )
