"""REPRO5xx — whole-program concurrency analysis.

The serving/distribution substrate (`WarmSnapshotPool`,
`PredictionServer`, the lease coordinator, `Telemetry`) is threaded:
dozens of lock acquisition sites keep served predictions bit-identical
to offline ``simulate()``.  This family infers that discipline once —
which locks exist, which ``self.<attr>`` state each class writes under
them — and checks it per function, across functions (two classes
acquiring each other's locks in opposite orders, a helper called under
a lock that blocks on a socket), across threads, and on the wire (a
connection handler sending protocol messages in an order no peer state
machine admits), riding the interprocedural engine in :mod:`.callgraph`:

=========  ===========================================================
REPRO501   Lock-order cycle: the whole-program lock-order graph (an
           edge ``A -> B`` wherever ``B`` is acquired, directly or
           through calls, while ``A`` is held) contains a cycle over
           distinct locks — two threads taking the locks in opposite
           orders deadlock.  The report names every edge with its
           acquisition site and via-chain.
REPRO502   Blocking call while holding a lock: socket ``recv``/
           ``send``/``accept``, ``subprocess``, ``sleep``, file I/O,
           argument-less ``join()`` — reached directly or through the
           call graph — serializes every other thread behind one
           peer's I/O.
REPRO503   Lock-guarded state escaping to an unsynchronized thread:
           a guarded ``self.<attr>`` passed in ``threading.Thread``
           arguments or captured by a thread-target closure runs
           outside the discipline the lock establishes.
REPRO504   Nested acquisition of the same non-reentrant
           ``threading.Lock`` (directly or through a callee) —
           self-deadlock; use ``RLock`` or restructure.
REPRO505   User-supplied callback invoked inside a critical section
           (``on_checkpoint``/``on_corrupt``-style constructor
           parameters, ``subscribe``-style registries): arbitrary user
           code runs under the lock and may block or re-enter.
REPRO506   Message sequence violates the declared protocol FSM:
           the literal message ``type`` sends extracted from each
           function in a protocol module (one defining or importing
           ``send_message``/``recv_message``) are simulated against
           every machine declared in ``PROTOCOL_FSMS``; a send no
           reachable state admits is protocol drift.
REPRO507   Lock-guarded attribute touched without the lock: an
           attribute is *guarded* when some method of its class writes
           it (assignment, ``del``, or a mutating call such as
           ``append``/``pop``/``write``) while holding a lock; reading
           or writing it outside any lock is reported in a public
           method (external callers cannot hold the lock) or in a
           method that takes a lock itself.  Private helpers that never
           lock are presumed "caller holds the lock" internals, and
           ``__init__`` is exempt (no concurrency before construction
           completes).
REPRO508   The same, in a method used as a ``threading.Thread(target=
           self.<method>)`` — it runs concurrently by construction.
=========  ===========================================================

The lock model is syntactic and conservative: class-attribute locks
(``self._lock = threading.Lock()``, resolved through the MRO),
module-level locks, and function-local locks are tracked; locks passed
as parameters are not (the call sites that create them are).  Call
chains stop at functions that acquire locks of their own — their
critical sections are analyzed in their own right, and the boundary
becomes a lock-order edge instead.

Findings can be waived per line or per function with a justified
pragma::

    # concurrency: allow(REPRO502): single-threaded startup path

on the offending line, the line above it, or the function's ``def``
line (:meth:`~repro.analysis.rules.ModuleSource.waived`).  The reason
after the colon is mandatory.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, ClassNode, FunctionNode
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource, _call_tail, _stmt_bodies
from repro.analysis.schema import _PROTOCOL_MARKERS, _has_markers, _qualname_at

#: Short titles for ``--list-rules``.
RULES = {
    "REPRO501": "lock-order cycle can deadlock",
    "REPRO502": "blocking call while holding a lock",
    "REPRO503": "lock-guarded state escapes to an unsynchronized thread",
    "REPRO504": "nested acquisition of a non-reentrant lock",
    "REPRO505": "user callback invoked inside a critical section",
    "REPRO506": "message sequence violates the declared protocol FSM",
    "REPRO507": "lock-guarded attribute accessed without the lock",
    "REPRO508": "guarded attribute accessed from a thread target without the lock",
}

#: Lock constructors -> reentrant?
_LOCK_FACTORIES = {"Lock": False, "RLock": True}

#: Method tails that mutate their receiver: ``self.x.append(...)`` is a
#: write to ``self.x`` (under a lock it makes ``x`` guarded).
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "remove",
    "discard",
    "pop",
    "popleft",
    "popitem",
    "clear",
    "update",
    "extend",
    "insert",
    "setdefault",
    "sort",
    "write",
    "flush",
}

#: Attribute tails that block the calling thread (I/O, sleeps, waits).
_BLOCKING_TAILS = {
    "accept",
    "connect",
    "flush",
    "fsync",
    "makefile",
    "read",
    "read_bytes",
    "read_text",
    "readline",
    "readlines",
    "recv",
    "recv_into",
    "recvfrom",
    "send",
    "sendall",
    "sendto",
    "sleep",
    "wait",
    "write",
    "write_bytes",
    "write_text",
    "writelines",
}

#: Bare-name calls that block.
_BLOCKING_NAMES = {"open", "input"}

#: ``subprocess.<tail>`` calls that spawn and wait on a child process.
_SUBPROCESS_TAILS = {"run", "Popen", "call", "check_call", "check_output"}

#: Declared protocol state machines: ``{fsm: {state: {msg: next}}}``.
_FSM_DECL = "PROTOCOL_FSMS"

#: Cap on enumerated send paths per function (branches multiply).
_PATH_CAP = 160

#: Cap on interprocedural chain length (call-site -> blocking op).
_CHAIN_CAP = 6


def _self_attr(node: ast.expr, self_name: str) -> str | None:
    """``self.x`` (or ``self.x[...]``) → ``"x"``; otherwise None."""
    if isinstance(node, ast.Subscript):
        return _self_attr(node.value, self_name)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _self_name(func: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    if func.args.args:
        return func.args.args[0].arg
    return "self"


def _lock_factory(value: ast.expr) -> bool | None:
    """Reentrancy flag for ``threading.Lock()``/``RLock()`` RHS, else None."""
    if not isinstance(value, ast.Call):
        return None
    tail = _call_tail(value)
    if tail in _LOCK_FACTORIES:
        return _LOCK_FACTORIES[tail]
    return None


def _blocking_desc(call: ast.Call) -> str | None:
    """Short source text when the call blocks the thread, else None."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in _BLOCKING_NAMES:
            return f"{func.id}(...)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    tail = func.attr
    if tail == "join":
        # thread.join() / join(timeout=...) blocks; ", ".join(parts)
        # (a positional iterable) is string building.
        if call.args:
            return None
        return f"{ast.unparse(func)}()"
    if tail in _SUBPROCESS_TAILS:
        root = func.value
        if isinstance(root, ast.Name) and root.id == "subprocess":
            return f"subprocess.{tail}(...)"
        return None
    if tail in _BLOCKING_TAILS:
        return f"{ast.unparse(func)}(...)"
    return None


@dataclass
class _CallSite:
    """One resolved-later call made while locks were held."""

    held: tuple[str, ...]
    call: ast.Call


@dataclass
class _FnScan:
    """One function's lock behaviour, collected in a single pass."""

    fn: FunctionNode
    #: Direct acquisitions (lock id, line).
    acquires: list[tuple[str, int]] = field(default_factory=list)
    #: Direct nested acquisitions of *distinct* locks (held, taken, line).
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    #: Direct re-acquisitions of a held non-reentrant lock (lock, line).
    self_edges: list[tuple[str, int]] = field(default_factory=list)
    #: Calls made while holding at least one lock.
    calls_under: list[_CallSite] = field(default_factory=list)
    #: Every blocking operation in the body (desc, line).
    blocking_all: list[tuple[str, int]] = field(default_factory=list)
    #: Blocking operations inside a critical section (desc, lock, line).
    blocking_under: list[tuple[str, str, int]] = field(default_factory=list)
    #: ``self.<attr>`` names written under a lock (the class guard set).
    guarded_writes: set[str] = field(default_factory=set)
    #: ``self.<attr>`` accesses outside any held lock (attr, line, write?).
    unguarded: list[tuple[str, int, bool]] = field(default_factory=list)
    #: ``threading.Thread(...)`` construction sites.
    spawns: list[ast.Call] = field(default_factory=list)
    #: Nested ``def``/``lambda`` bodies (run later, not under the lock).
    nested_defs: dict[str, ast.AST] = field(default_factory=dict)
    #: Callback invocations inside a critical section (label, lock, line).
    callback_calls: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class _Summary:
    """What a callee does with locks, seen from a calling critical section."""

    #: (blocking-op description, call chain of qualnames).
    blocking: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: (acquired lock id, call chain of qualnames).
    acquired: tuple[tuple[str, tuple[str, ...]], ...] = ()


_EMPTY_SUMMARY = _Summary()


class _Analyzer:
    """One run of REPRO501–508 over a parsed source set."""

    def __init__(self, sources: list[ModuleSource], graph: CallGraph) -> None:
        self.sources = sources
        self.modules = {source.module for source in sources}
        self.graph = graph
        #: lock id -> reentrant?
        self.reentrant: dict[str, bool] = {}
        #: class qualname -> {attr: lock id} (locks the class creates).
        self.class_locks: dict[str, dict[str, str]] = {}
        #: module -> {name: lock id} for module-level locks.
        self.module_locks: dict[str, dict[str, str]] = {}
        #: class qualname -> attrs holding user-supplied callables.
        self.callback_attrs: dict[str, set[str]] = {}
        self.scans: dict[str, _FnScan] = {}
        #: (held, taken) -> (source, line, symbol, via chain, def line).
        self.lock_edges: dict[
            tuple[str, str], tuple[ModuleSource, int, str, tuple[str, ...], int]
        ] = {}
        self.findings: list[Finding] = []
        self._summaries: dict[str, _Summary] = {}
        self._seen: set[tuple[str, int, str, str]] = set()

    # ------------------------------------------------------------------
    # Reporting (pragma waivers + dedupe)
    # ------------------------------------------------------------------

    def _emit(
        self,
        rule: str,
        source: ModuleSource,
        line: int,
        symbol: str,
        message: str,
        hint: str,
        def_line: int,
    ) -> None:
        if source.waived("concurrency", rule, line, def_line):
            return
        key = (source.relpath, line, rule, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                file=source.relpath,
                line=line,
                symbol=symbol,
                message=message,
                hint=hint,
            )
        )

    def _source_of(self, fn: FunctionNode) -> ModuleSource | None:
        return self.graph.sources.get(fn.module)

    def _symbol_chain(self, qualnames: tuple[str, ...]) -> str:
        parts = []
        for qualname in qualnames:
            fn = self.graph.functions.get(qualname)
            parts.append(fn.symbol if fn is not None else qualname)
        return " -> ".join(parts)

    # ------------------------------------------------------------------
    # Phase 1: lock + callback discovery
    # ------------------------------------------------------------------

    def _classes(self) -> Iterator[ClassNode]:
        """Indexed classes of the analyzed modules."""
        for info in self.graph.classes.values():
            if info.module in self.modules:
                yield info

    def _discover_locks(self) -> None:
        for info in self._classes():
            attrs: dict[str, str] = {}
            for method_qual in info.methods.values():
                fn = self.graph.functions[method_qual]
                self_name = _self_name(fn.node)
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    factory = _lock_factory(node.value)
                    if factory is None:
                        continue
                    for target in node.targets:
                        attr = _self_attr(target, self_name)
                        if attr is not None:
                            lock_id = f"{info.qualname}.{attr}"
                            attrs[attr] = lock_id
                            self.reentrant[lock_id] = factory
            if attrs:
                self.class_locks[info.qualname] = attrs
        for source in self.sources:
            module: dict[str, str] = {}
            for stmt in source.tree.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                factory = _lock_factory(stmt.value)
                if factory is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        lock_id = f"{source.module}.{target.id}"
                        module[target.id] = lock_id
                        self.reentrant[lock_id] = factory
            if module:
                self.module_locks[source.module] = module

    def _discover_callbacks(self) -> None:
        """Attrs holding user code: ctor params and subscribe registries."""
        for info in self._classes():
            attrs: set[str] = set()
            init_qual = info.methods.get("__init__")
            if init_qual is not None:
                fn = self.graph.functions[init_qual]
                params = {a.arg for a in fn.node.args.args[1:]}
                params |= {a.arg for a in fn.node.args.kwonlyargs}
                self_name = _self_name(fn.node)
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    value = node.value
                    source_name = None
                    if isinstance(value, ast.Name):
                        source_name = value.id
                    elif (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in ("list", "tuple")
                        and value.args
                        and isinstance(value.args[0], ast.Name)
                    ):
                        source_name = value.args[0].id
                    if source_name not in params:
                        continue
                    for target in node.targets:
                        attr = _self_attr(target, self_name)
                        if attr is not None:
                            attrs.add(attr)
            for method_qual in info.methods.values():
                fn = self.graph.functions[method_qual]
                if fn.name == "__init__":
                    continue
                params = {a.arg for a in fn.node.args.args[1:]}
                params |= {a.arg for a in fn.node.args.kwonlyargs}
                self_name = _self_name(fn.node)
                for node in ast.walk(fn.node):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in params
                    ):
                        attr = _self_attr(node.func.value, self_name)
                        if attr is not None:
                            attrs.add(attr)
            if attrs:
                self.callback_attrs[info.qualname] = attrs

    # ------------------------------------------------------------------
    # Phase 2: per-function scan
    # ------------------------------------------------------------------

    def _resolve_lock(
        self,
        expr: ast.expr,
        fn: FunctionNode,
        self_name: str | None,
        local_locks: dict[str, str],
    ) -> str | None:
        if self_name is not None and fn.class_qualname is not None:
            attr = _self_attr(expr, self_name)
            if attr is not None:
                for info in self.graph.mro(fn.class_qualname):
                    table = self.class_locks.get(info.qualname)
                    if table and attr in table:
                        return table[attr]
                return None
        if isinstance(expr, ast.Name):
            if expr.id in local_locks:
                return local_locks[expr.id]
            return self.module_locks.get(fn.module, {}).get(expr.id)
        return None

    def _scan_one(self, fn: FunctionNode) -> _FnScan:
        scan = _FnScan(fn=fn)
        self_name = _self_name(fn.node) if fn.class_qualname else None
        params = {a.arg for a in fn.node.args.args}
        params |= {a.arg for a in fn.node.args.kwonlyargs}
        if self_name is not None:
            params.discard(self_name)
        callback_attrs = self.callback_attrs.get(fn.class_qualname or "", set())
        loop_callbacks: dict[str, str] = {}

        local_locks: dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                factory = _lock_factory(node.value)
                if factory is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lock_id = f"{fn.qualname}.{target.id}"
                        local_locks[target.id] = lock_id
                        self.reentrant[lock_id] = factory

        def handle_call(call: ast.Call, held: tuple[str, ...]) -> None:
            if _call_tail(call) == "Thread":
                scan.spawns.append(call)
            desc = _blocking_desc(call)
            if desc is not None:
                scan.blocking_all.append((desc, call.lineno))
                if held:
                    scan.blocking_under.append((desc, held[-1], call.lineno))
            if not held:
                return
            func = call.func
            label = None
            if (
                self_name is not None
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == self_name
                and func.attr in callback_attrs
            ):
                label = f"self.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in params:
                label = f"parameter `{func.id}`"
            elif isinstance(func, ast.Name) and func.id in loop_callbacks:
                label = f"`{func.id}` (from self.{loop_callbacks[func.id]})"
            if label is not None:
                scan.callback_calls.append((label, held[-1], call.lineno))
            scan.calls_under.append(_CallSite(held=held, call=call))

        def scan_expr(expr: ast.expr, held: tuple[str, ...]) -> None:
            stack: list[ast.AST] = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Lambda):
                    scan.nested_defs.setdefault(f"<lambda:{node.lineno}>", node)
                    continue
                if isinstance(node, ast.Call):
                    handle_call(node, held)
                stack.extend(ast.iter_child_nodes(node))

        def visit(stmt: ast.stmt, held: tuple[str, ...]) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan.nested_defs[stmt.name] = stmt
                return
            if isinstance(stmt, ast.ClassDef):
                return
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                new_held = list(held)
                for item in stmt.items:
                    scan_expr(item.context_expr, tuple(new_held))
                    lock = self._resolve_lock(
                        item.context_expr, fn, self_name, local_locks
                    )
                    if lock is None:
                        continue
                    line = item.context_expr.lineno
                    scan.acquires.append((lock, line))
                    for outer in new_held:
                        if outer == lock:
                            if not self.reentrant.get(lock, False):
                                scan.self_edges.append((lock, line))
                        else:
                            scan.edges.append((outer, lock, line))
                    new_held.append(lock)
                for child in stmt.body:
                    visit(child, tuple(new_held))
                return
            if (
                isinstance(stmt, (ast.For, ast.AsyncFor))
                and self_name is not None
                and isinstance(stmt.target, ast.Name)
            ):
                attr = _self_attr(stmt.iter, self_name)
                if attr in callback_attrs:
                    loop_callbacks[stmt.target.id] = attr
            for node in ast.iter_child_nodes(stmt):
                if isinstance(node, ast.expr):
                    scan_expr(node, held)
                elif isinstance(node, ast.keyword):
                    scan_expr(node.value, held)
            for name in ("body", "orelse", "finalbody"):
                for child in getattr(stmt, name, []) or []:
                    visit(child, held)
            for handler in getattr(stmt, "handlers", []) or []:
                for child in handler.body:
                    visit(child, held)

        for stmt in fn.node.body:
            visit(stmt, ())
        if self_name is not None:
            self._track_attrs(scan, self_name, local_locks)
        return scan

    def _track_attrs(
        self, scan: _FnScan, self_name: str, local_locks: dict[str, str]
    ) -> None:
        """Record ``self.<attr>`` writes under a lock and accesses outside one.

        Lambdas count where they are written (key functions run inline);
        a nested ``def`` runs later, outside the locks held around it.
        """

        def access(attr: str, line: int, locked: bool, write: bool) -> None:
            if not locked:
                scan.unguarded.append((attr, line, write))
            elif write:
                scan.guarded_writes.add(attr)

        def record(expr: ast.expr, locked: bool, write: bool) -> None:
            for node in ast.walk(expr):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                ):
                    attr = _self_attr(node.func.value, self_name)
                    if attr is not None:
                        access(attr, node.lineno, locked, True)
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == self_name
                ):
                    access(node.attr, node.lineno, locked, write)

        def walk(stmts: list[ast.stmt], locked: bool) -> None:
            for stmt in stmts:
                targets: list[ast.expr] = []
                if isinstance(stmt, (ast.Assign, ast.Delete)):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets = [stmt.target]
                for target in targets:
                    record(target, locked, write=True)
                for node in ast.iter_child_nodes(stmt):
                    if isinstance(node, ast.expr):
                        record(node, locked, write=False)
                    elif isinstance(node, ast.keyword):
                        record(node.value, locked, write=False)
                    elif isinstance(node, ast.withitem):
                        record(node.context_expr, locked, write=False)
                inner = locked
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = False
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = locked or any(
                        self._resolve_lock(
                            item.context_expr, scan.fn, self_name, local_locks
                        )
                        is not None
                        for item in stmt.items
                    )
                for block in _stmt_bodies(stmt):
                    walk(block, inner)

        walk(scan.fn.node.body, False)

    # ------------------------------------------------------------------
    # Phase 3: interprocedural closure of critical sections
    # ------------------------------------------------------------------

    def _summary(self, qualname: str, visiting: frozenset[str]) -> _Summary:
        cached = self._summaries.get(qualname)
        if cached is not None:
            return cached
        scan = self.scans.get(qualname)
        if scan is None:
            return _EMPTY_SUMMARY
        if scan.acquires:
            # A lock-acquiring callee is a lock-order boundary: record
            # its acquisitions, do not attribute its internals to the
            # caller's critical section.
            locks = sorted({lock for lock, _ in scan.acquires})
            result = _Summary(
                acquired=tuple((lock, (qualname,)) for lock in locks)
            )
            self._summaries[qualname] = result
            return result
        blocking: dict[str, tuple[str, ...]] = {}
        acquired: dict[str, tuple[str, ...]] = {}
        for desc, _line in scan.blocking_all:
            blocking.setdefault(desc, (qualname,))
        for callee in sorted(self.graph.callees(qualname)):
            if callee in visiting:
                continue
            sub = self._summary(callee, visiting | {qualname})
            for desc, chain in sub.blocking:
                if len(chain) < _CHAIN_CAP and desc not in blocking:
                    blocking[desc] = (qualname,) + chain
            for lock, chain in sub.acquired:
                if len(chain) < _CHAIN_CAP and lock not in acquired:
                    acquired[lock] = (qualname,) + chain
        result = _Summary(
            blocking=tuple(sorted(blocking.items()))[:8],
            acquired=tuple(sorted(acquired.items()))[:8],
        )
        self._summaries[qualname] = result
        return result

    def _record_edge(
        self,
        held: str,
        taken: str,
        source: ModuleSource,
        line: int,
        symbol: str,
        chain: tuple[str, ...],
        def_line: int,
    ) -> None:
        self.lock_edges.setdefault(
            (held, taken), (source, line, symbol, chain, def_line)
        )

    def _interprocedural(self) -> None:
        for qualname, scan in self.scans.items():
            fn = scan.fn
            source = self._source_of(fn)
            if source is None:
                continue
            def_line = fn.node.lineno
            for desc, lock, line in scan.blocking_under:
                self._emit(
                    "REPRO502",
                    source,
                    line,
                    fn.symbol,
                    f"blocking call `{desc}` while holding `{lock}`",
                    "hoist the I/O out of the critical section (snapshot "
                    "state under the lock, perform the I/O after release)",
                    def_line,
                )
            for label, lock, line in scan.callback_calls:
                self._emit(
                    "REPRO505",
                    source,
                    line,
                    fn.symbol,
                    f"user callback {label} invoked while holding `{lock}`",
                    "snapshot the callbacks under the lock and invoke them "
                    "after release — user code may block or re-enter",
                    def_line,
                )
            for lock, line in scan.self_edges:
                self._emit(
                    "REPRO504",
                    source,
                    line,
                    fn.symbol,
                    f"nested acquisition of non-reentrant lock `{lock}`",
                    "use threading.RLock, or restructure so the inner "
                    "section runs without re-acquiring",
                    def_line,
                )
            for held, taken, line in scan.edges:
                self._record_edge(
                    held, taken, source, line, fn.symbol, (), def_line
                )
            if not scan.calls_under:
                continue
            env = self.graph._local_types(fn)
            for site in scan.calls_under:
                targets = self.graph._resolve_call(fn, site.call, env)
                line = site.call.lineno
                for target in sorted(targets):
                    if target == qualname:
                        continue
                    summary = self._summary(target, frozenset({qualname}))
                    for desc, chain in summary.blocking:
                        via = self._symbol_chain(chain)
                        self._emit(
                            "REPRO502",
                            source,
                            line,
                            fn.symbol,
                            f"blocking call `{desc}` reachable while "
                            f"holding `{site.held[-1]}` [via {via}]",
                            "hoist the call out of the critical section or "
                            "split the callee's I/O from its bookkeeping",
                            def_line,
                        )
                    for lock, chain in summary.acquired:
                        via = self._symbol_chain(chain)
                        for held in site.held:
                            if held == lock:
                                if not self.reentrant.get(lock, False):
                                    self._emit(
                                        "REPRO504",
                                        source,
                                        line,
                                        fn.symbol,
                                        "nested acquisition of non-reentrant "
                                        f"lock `{lock}` [via {via}]",
                                        "the callee re-acquires a lock the "
                                        "caller already holds — deadlock; "
                                        "use RLock or a caller-holds-lock "
                                        "helper",
                                        def_line,
                                    )
                            else:
                                self._record_edge(
                                    held,
                                    lock,
                                    source,
                                    line,
                                    fn.symbol,
                                    chain,
                                    def_line,
                                )

    # ------------------------------------------------------------------
    # Phase 4: REPRO501 lock-order cycles
    # ------------------------------------------------------------------

    def _report_cycles(self) -> None:
        adjacency: dict[str, list[str]] = {}
        for held, taken in self.lock_edges:
            adjacency.setdefault(held, []).append(taken)
            adjacency.setdefault(taken, [])
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        stack: list[str] = []
        on_stack: set[str] = set()
        sccs: list[list[str]] = []
        counter = [0]

        def strong(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in adjacency.get(node, ()):
                if succ not in index:
                    strong(succ)
                    low[node] = min(low[node], low[succ])
                elif succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                sccs.append(component)

        for node in sorted(adjacency):
            if node not in index:
                strong(node)

        for component in sccs:
            if len(component) < 2:
                continue
            members = set(component)
            cycle_edges = sorted(
                (held, taken)
                for held, taken in self.lock_edges
                if held in members and taken in members
            )
            described = []
            for held, taken in cycle_edges:
                source, line, symbol, chain, _ = self.lock_edges[(held, taken)]
                where = f"{source.relpath}:{line} in `{symbol}`"
                if chain:
                    where += f" [via {self._symbol_chain(chain)}]"
                described.append(f"{held} -> {taken} at {where}")
            anchor = min(
                cycle_edges,
                key=lambda edge: (
                    self.lock_edges[edge][0].relpath,
                    self.lock_edges[edge][1],
                ),
            )
            source, line, symbol, _chain, def_line = self.lock_edges[anchor]
            locks = ", ".join(f"`{lock}`" for lock in sorted(members))
            self._emit(
                "REPRO501",
                source,
                line,
                symbol,
                f"lock-order cycle between {locks}: "
                + "; ".join(described),
                "establish one global acquisition order (or merge the "
                "locks) — threads taking these in opposite orders deadlock",
                def_line,
            )

    # ------------------------------------------------------------------
    # Phase 5: REPRO503/507/508 guarded state
    # ------------------------------------------------------------------

    def _check_guarded_state(self) -> None:
        guarded_by_class: dict[str, set[str]] = {}
        targets_by_class: dict[str, set[str]] = {}
        for scan in self.scans.values():
            cls = scan.fn.class_qualname
            if cls is None:
                continue
            guarded_by_class.setdefault(cls, set()).update(scan.guarded_writes)
            targets = targets_by_class.setdefault(cls, set())
            self_name = _self_name(scan.fn.node)
            for call in scan.spawns:
                for keyword in call.keywords:
                    if keyword.arg == "target":
                        attr = _self_attr(keyword.value, self_name)
                        if attr is not None:
                            targets.add(attr)
        for scan in self.scans.values():
            cls = scan.fn.class_qualname
            if cls is None or not guarded_by_class[cls]:
                continue
            guarded = guarded_by_class[cls]
            source = self._source_of(scan.fn)
            if source is None:
                continue
            self._check_discipline(scan, guarded, targets_by_class[cls], source)
            self._check_escapes(scan, guarded, source)

    def _check_discipline(
        self,
        scan: _FnScan,
        guarded: set[str],
        thread_targets: set[str],
        source: ModuleSource,
    ) -> None:
        """REPRO507/508: guarded attributes touched outside any lock."""
        fn = scan.fn
        if fn.name == "__init__":
            return
        is_target = fn.name in thread_targets
        is_public = not fn.name.startswith("_")
        if not (is_target or is_public or scan.acquires):
            return  # presumed caller-holds-the-lock helper
        where = (
            "thread-target method"
            if is_target
            else ("public method" if is_public else "lock-taking method")
        )
        reported: set[str] = set()
        for attr, line, write in scan.unguarded:
            if attr not in guarded or attr in reported:
                continue
            reported.add(attr)
            how = "written" if write else "read"
            self._emit(
                "REPRO508" if is_target else "REPRO507",
                source,
                line,
                fn.symbol,
                f"`self.{attr}` is lock-guarded but {how} without the lock "
                f"in {where} `{fn.name}`",
                "wrap the access in `with self._lock:` (use RLock if "
                "reentrancy is needed) or baseline it with a justification",
                fn.node.lineno,
            )

    def _check_escapes(
        self, scan: _FnScan, guarded: set[str], source: ModuleSource
    ) -> None:
        """REPRO503: guarded state handed to a new thread."""
        fn = scan.fn
        self_name = _self_name(fn.node)
        for call in scan.spawns:
            target_def: ast.AST | None = None
            arg_exprs: list[ast.expr] = list(call.args)
            for keyword in call.keywords:
                if keyword.arg == "target":
                    value = keyword.value
                    if (
                        isinstance(value, ast.Name)
                        and value.id in scan.nested_defs
                    ):
                        target_def = scan.nested_defs[value.id]
                    elif isinstance(value, ast.Lambda):
                        target_def = value
                    else:
                        arg_exprs.append(value)
                else:
                    arg_exprs.append(keyword.value)
            escaping: set[str] = set()
            for expr in arg_exprs:
                for node in ast.walk(expr):
                    attr = _self_attr(node, self_name) if isinstance(
                        node, ast.Attribute
                    ) else None
                    if attr in guarded:
                        escaping.add(attr)
            for attr in sorted(escaping):
                self._emit(
                    "REPRO503",
                    source,
                    call.lineno,
                    fn.symbol,
                    f"lock-guarded `self.{attr}` passed to "
                    "threading.Thread — the thread mutates it outside "
                    "the lock discipline",
                    "pass an immutable snapshot, or make the thread "
                    "body take the lock",
                    fn.node.lineno,
                )
            if target_def is not None:
                captured: set[str] = set()
                for node in ast.walk(target_def):
                    if isinstance(node, ast.Attribute):
                        attr = _self_attr(node, self_name)
                        if attr in guarded:
                            captured.add(attr)
                for attr in sorted(captured):
                    self._emit(
                        "REPRO503",
                        source,
                        call.lineno,
                        fn.symbol,
                        f"thread target closure captures lock-guarded "
                        f"`self.{attr}` — the thread touches it outside "
                        "the lock discipline",
                        "take the lock inside the thread body, or pass "
                        "a snapshot instead of capturing `self`",
                        fn.node.lineno,
                    )

    # ------------------------------------------------------------------
    # Phase 6: REPRO506 protocol FSM conformance
    # ------------------------------------------------------------------

    def _check_fsms(self) -> None:
        fsms = _declared_fsms(self.sources)
        if not fsms:
            return
        alphabet_all: set[str] = set()
        for machine in fsms.values():
            for transitions in machine.values():
                alphabet_all.update(transitions)
        for source in self.sources:
            if not _has_markers(source, _PROTOCOL_MARKERS):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._check_fn_paths(source, node, fsms, alphabet_all)

    def _check_fn_paths(
        self,
        source: ModuleSource,
        def_node: ast.FunctionDef | ast.AsyncFunctionDef,
        fsms: dict[str, dict[str, dict[str, str]]],
        alphabet_all: set[str],
    ) -> None:
        paths = _seq(def_node.body, alphabet_all)
        symbol = _qualname_at(source, def_node)
        reported: set[tuple[int, str, str]] = set()
        for name, machine in sorted(fsms.items()):
            states = set(machine)
            alphabet: set[str] = set()
            for transitions in machine.values():
                states.update(transitions.values())
                alphabet.update(transitions)
            for path in paths:
                messages = [
                    (msg, line) for msg, line in path if msg in alphabet
                ]
                if not messages:
                    continue
                # A function may run at any point of a session: start
                # from every state and narrow as messages are sent.
                possible = set(states)
                for msg, line in messages:
                    step = {
                        machine[state][msg]
                        for state in possible
                        if msg in machine.get(state, {})
                    }
                    if not step:
                        key = (line, msg, name)
                        if key not in reported:
                            reported.add(key)
                            self._emit(
                                "REPRO506",
                                source,
                                line,
                                symbol,
                                f"protocol message {msg!r} cannot follow the "
                                f"preceding sends in FSM {name!r} (no "
                                "declared state admits it at this point)",
                                "reorder the sends to match PROTOCOL_FSMS, "
                                "or extend the declared machine",
                                def_node.lineno,
                            )
                        break
                    possible = step

    # ------------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._discover_locks()
        self._discover_callbacks()
        for qualname, fn in self.graph.functions.items():
            if fn.module in self.modules:
                self.scans[qualname] = self._scan_one(fn)
        self._interprocedural()
        self._report_cycles()
        self._check_guarded_state()
        self._check_fsms()
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings


# ----------------------------------------------------------------------
# REPRO506 path enumeration
# ----------------------------------------------------------------------


def _messages_in_expr(
    expr: ast.AST, alphabet: set[str], out: list[tuple[str, int]]
) -> None:
    if isinstance(expr, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    if isinstance(expr, ast.Dict):
        for key, value in zip(expr.keys, expr.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "type"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value in alphabet
            ):
                out.append((value.value, expr.lineno))
    for child in ast.iter_child_nodes(expr):
        _messages_in_expr(child, alphabet, out)


def _own_messages(stmt: ast.stmt, alphabet: set[str]) -> tuple:
    """Messages in the statement's own expressions (headers for compounds)."""
    out: list[tuple[str, int]] = []
    for node in ast.iter_child_nodes(stmt):
        if isinstance(node, ast.expr):
            _messages_in_expr(node, alphabet, out)
        elif isinstance(node, ast.keyword):
            _messages_in_expr(node.value, alphabet, out)
        elif isinstance(node, ast.withitem):
            _messages_in_expr(node.context_expr, alphabet, out)
    return tuple(out)


def _stmt_alternatives(stmt: ast.stmt, alphabet: set[str]) -> list[tuple]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [()]
    own = _own_messages(stmt, alphabet)
    if isinstance(stmt, ast.If):
        alternatives = _seq(stmt.body, alphabet) + _seq(stmt.orelse, alphabet)
        return [own + path for path in alternatives][:_PATH_CAP]
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        body = _seq(stmt.body, alphabet)
        twice = [a + b for a in body for b in body][:_PATH_CAP]
        alternatives = [()] + body + twice
        if stmt.orelse:
            tails = _seq(stmt.orelse, alphabet)
            alternatives = [a + t for a in alternatives for t in tails]
        return [own + path for path in alternatives][:_PATH_CAP]
    if isinstance(stmt, ast.Try):
        alternatives = list(_seq(stmt.body, alphabet))
        if stmt.orelse:
            alternatives = alternatives + [
                b + o
                for b in _seq(stmt.body, alphabet)
                for o in _seq(stmt.orelse, alphabet)
            ]
        for handler in stmt.handlers:
            alternatives.extend(_seq(handler.body, alphabet))
        if stmt.finalbody:
            tails = _seq(stmt.finalbody, alphabet)
            alternatives = [a + t for a in alternatives for t in tails]
        return [own + path for path in alternatives][:_PATH_CAP] or [own]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [own + path for path in _seq(stmt.body, alphabet)][:_PATH_CAP]
    return [own]


def _seq(stmts: list[ast.stmt], alphabet: set[str]) -> list[tuple]:
    paths: list[tuple] = [()]
    for stmt in stmts:
        alternatives = _stmt_alternatives(stmt, alphabet)
        paths = [p + a for p in paths for a in alternatives][:_PATH_CAP]
    return paths


# ----------------------------------------------------------------------
# PROTOCOL_FSMS declaration parsing
# ----------------------------------------------------------------------


def _literal_fsms(node: ast.expr) -> dict[str, dict[str, dict[str, str]]] | None:
    """Parse ``{fsm: {state: {msg: next_state}}}`` literals; else None."""
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, dict[str, dict[str, str]]] = {}
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Dict)
        ):
            return None
        machine: dict[str, dict[str, str]] = {}
        for state_key, state_value in zip(value.keys, value.values):
            if not (
                isinstance(state_key, ast.Constant)
                and isinstance(state_key.value, str)
                and isinstance(state_value, ast.Dict)
            ):
                return None
            transitions: dict[str, str] = {}
            for msg_key, msg_value in zip(state_value.keys, state_value.values):
                if not (
                    isinstance(msg_key, ast.Constant)
                    and isinstance(msg_key.value, str)
                    and isinstance(msg_value, ast.Constant)
                    and isinstance(msg_value.value, str)
                ):
                    return None
                transitions[msg_key.value] = msg_value.value
            machine[state_key.value] = transitions
        out[key.value] = machine
    return out


def _declared_fsms(
    sources: list[ModuleSource],
) -> dict[str, dict[str, dict[str, str]]]:
    """Merge every literal ``PROTOCOL_FSMS = {...}`` in the source set."""
    merged: dict[str, dict[str, dict[str, str]]] = {}
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
                if isinstance(target, ast.Name) and target.id == _FSM_DECL:
                    parsed = _literal_fsms(value)
                    if parsed is not None:
                        merged.update(parsed)
    return merged


def check_sources(sources: list[ModuleSource], graph: CallGraph) -> list[Finding]:
    """Run the REPRO5xx concurrency pass over parsed sources."""
    sources = [s for s in sources if not s.module.startswith("repro.analysis")]
    if not sources:
        return []
    return _Analyzer(sources, graph).run()
