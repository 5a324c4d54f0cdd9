"""Project-wide module index and interprocedural call-graph resolver.

A rule that sees one function body at a time cannot tell that a
cheap-looking helper called from ``BranchPredictor.predict()``
allocates a dict per branch event.  This module builds the one index
every analysis family reads, once per lint run (``hw`` takes the
predictor hierarchy from it, ``det`` its import maps and call sites,
``perf`` and ``concurrency`` its call closure):

* a **module index** over the parsed :class:`ModuleSource` list —
  top-level functions, classes, their methods and resolved base classes;
* **import resolution** through package ``__init__`` re-exports
  (``repro.predictors.Tage`` → ``repro.predictors.tage.tage.Tage``);
* **class/method binding through ``self``** — ``self.bst.observe(...)``
  resolves via the attribute types recorded from ``__init__``
  constructor assignments, including element types of container
  attributes (``self.tables[i].predict_at`` → ``TaggedTable``); a
  method read as a value (``step = self._step``) is an edge as well;
* **registry-ref indirection** — ``orchestration/registry.py`` maps
  names to factory functions (possibly through :func:`functools.
  partial`); factories are chased through their ``return`` expressions
  to the predictor class they construct;
* a **transitive call closure** over declared roots, used to decide
  which functions run once per branch event.

Resolution is deliberately conservative and purely syntactic (stdlib
``ast`` only): an unresolvable call simply contributes no edge.  Virtual
dispatch is over-approximated — a resolved method call also includes
every subclass override, so ``Tage.predict → self._compute_indices``
reaches both ``Tage._compute_indices`` and ``BFTage._compute_indices``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.rules import ModuleSource

#: Decorator name marking an explicitly-declared hot function.
HOT_PATH_DECORATOR = "hot_path"

#: Root of the predictor hierarchy; its per-event entry points below.
PREDICTOR_ROOT = "BranchPredictor"

#: Methods on predictor classes invoked once per branch event by the
#: simulator (``provider`` is read per event under ``track_providers``).
HOT_ROOT_METHODS = ("predict", "train", "update", "provider")

#: Dotted name of the predictor registry factory table.
REGISTRY_FUNCTION = "repro.orchestration.registry.standard_registry"


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted target for every import in a module."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name != "*":
                    mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


@dataclass
class FunctionNode:
    """One indexed function or method."""

    qualname: str  #: ``module.Class.method`` or ``module.function``
    module: str
    relpath: str
    name: str
    line: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None
    decorators: tuple[str, ...] = ()

    @property
    def symbol(self) -> str:
        """Qualname relative to the module (``Class.method``)."""
        prefix = f"{self.module}."
        return self.qualname[len(prefix):] if self.qualname.startswith(prefix) else self.qualname


@dataclass
class ClassNode:
    """One indexed class with resolved naming context."""

    qualname: str
    module: str
    relpath: str
    name: str
    line: int
    node: ast.ClassDef
    #: Base-class references, resolved to index qualnames where possible
    #: (unresolved bases keep their dotted source text).
    bases: list[str] = field(default_factory=list)
    #: method name -> function qualname (own methods only).
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qualname, from constructor assignments.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> element class qualname for list-of-X attrs.
    attr_elem_types: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Module index + call-site resolver over a parsed source set."""

    def __init__(self, sources: list[ModuleSource]) -> None:
        self.sources = {source.module: source for source in sources}
        self.imports: dict[str, dict[str, str]] = {
            source.module: _import_map(source.tree) for source in sources
        }
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        self._callee_cache: dict[str, frozenset[str]] = {}
        self._return_cache: dict[str, frozenset[str]] = {}
        for source in sources:
            self._index_module(source)
        self._resolve_bases()
        self._infer_attr_types()

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------

    def _index_module(self, source: ModuleSource) -> None:
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(source, stmt, class_qualname=None)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{source.module}.{stmt.name}"
                info = ClassNode(
                    qualname=qualname,
                    module=source.module,
                    relpath=source.relpath,
                    name=stmt.name,
                    line=stmt.lineno,
                    node=stmt,
                )
                self.classes[qualname] = info
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(source, member, class_qualname=qualname)
                        info.methods[member.name] = fn.qualname

    def _add_function(
        self,
        source: ModuleSource,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_qualname: str | None,
    ) -> FunctionNode:
        if class_qualname:
            scope = f"{class_qualname}.{node.name}"
        else:
            scope = f"{source.module}.{node.name}"
        fn = FunctionNode(
            qualname=scope,
            module=source.module,
            relpath=source.relpath,
            name=node.name,
            line=node.lineno,
            node=node,
            class_qualname=class_qualname,
            decorators=tuple(ast.unparse(d) for d in node.decorator_list),
        )
        self.functions[fn.qualname] = fn
        return fn

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            imports = self.imports.get(info.module, {})
            for base in info.node.bases:
                text = ast.unparse(base).split("[")[0]
                if text in ("ABC", "abc.ABC", "object", "Protocol"):
                    continue
                head = text.split(".")[0]
                if "." not in text and f"{info.module}.{text}" in self.classes:
                    resolved = f"{info.module}.{text}"
                elif head in imports:
                    dotted = imports[head] + text[len(head):]
                    resolved = self.resolve_symbol(dotted) or dotted
                else:
                    resolved = text
                info.bases.append(resolved)

    def _infer_attr_types(self) -> None:
        """Record ``self.attr`` class types from constructor-style assigns.

        Scans every method body (``__init__`` sets most, but overlays
        like ``reset`` re-assign the same components) for
        ``self.x = ClassName(...)`` and ``self.x = [ClassName(...), ...]``
        shapes, including conditional ``X(...) if c else None``.
        """
        for info in self.classes.values():
            for method_qual in info.methods.values():
                fn = self.functions[method_qual]
                for node in ast.walk(fn.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    value = node.value
                    if value is None:
                        continue
                    for target in targets:
                        attr = self._self_attr_name(target)
                        if attr is None:
                            continue
                        direct = self._constructed_class(value, info.module)
                        if direct is not None:
                            info.attr_types.setdefault(attr, direct)
                        elem = self._constructed_elem_class(value, info.module)
                        if elem is not None:
                            info.attr_elem_types.setdefault(attr, elem)

    @staticmethod
    def _self_attr_name(target: ast.expr) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    # ------------------------------------------------------------------
    # Symbol and type resolution
    # ------------------------------------------------------------------

    def resolve_symbol(self, dotted: str, _seen: set[str] | None = None) -> str | None:
        """Resolve a dotted name through package re-export chains.

        ``repro.predictors.Tage`` resolves through the package
        ``__init__``'s ``from ... import Tage`` to the defining module's
        qualname.  Returns ``None`` if the name never lands on an
        indexed function or class.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        if dotted in self.functions or dotted in self.classes:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if head and tail and head in self.imports:
            target = self.imports[head].get(tail)
            if target:
                return self.resolve_symbol(target, seen)
        return None

    def mro(self, class_qualname: str) -> list[ClassNode]:
        """Depth-first linearisation over resolvable bases."""
        order: list[ClassNode] = []
        seen: set[str] = set()

        def visit(qualname: str) -> None:
            if qualname in seen:
                return
            seen.add(qualname)
            info = self.classes.get(qualname)
            if info is None:
                return
            order.append(info)
            for base in info.bases:
                visit(base)

        visit(class_qualname)
        return order

    def method(self, class_qualname: str, name: str) -> FunctionNode | None:
        """Resolve ``name`` on the class or its nearest base."""
        for info in self.mro(class_qualname):
            if name in info.methods:
                return self.functions[info.methods[name]]
        return None

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        for info in self.mro(class_qualname):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def attr_elem_type(self, class_qualname: str, attr: str) -> str | None:
        for info in self.mro(class_qualname):
            if attr in info.attr_elem_types:
                return info.attr_elem_types[attr]
        return None

    def descends_from(self, info: ClassNode, root_name: str) -> bool:
        """Whether the class transitively subclasses ``root_name``.

        Matching is by trailing component so fixture files linted
        without the ``repro`` tree in the source set still resolve
        (their base stays the unresolved dotted import target).
        """
        queue = list(info.bases)
        seen: set[str] = set()
        while queue:
            base = queue.pop()
            if base in seen:
                continue
            seen.add(base)
            if base == root_name or base.rsplit(".", 1)[-1] == root_name:
                return True
            parent = self.classes.get(base)
            if parent is not None:
                queue.extend(parent.bases)
        return False

    def subclasses_of(self, root_name: str) -> list[ClassNode]:
        return [
            info
            for info in self.classes.values()
            if self.descends_from(info, root_name)
        ]

    def _descendants(self, class_qualname: str) -> list[ClassNode]:
        out = []
        for info in self.classes.values():
            if info.qualname == class_qualname:
                continue
            queue = list(info.bases)
            seen: set[str] = set()
            while queue:
                base = queue.pop()
                if base in seen:
                    continue
                seen.add(base)
                if base == class_qualname:
                    out.append(info)
                    queue = []
                    break
                parent = self.classes.get(base)
                if parent is not None:
                    queue.extend(parent.bases)
        return out

    def _callable_target(self, func: ast.expr, module: str) -> str | None:
        """Dotted index target for a Name/Attribute callee, or None."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = parts[0]
        imports = self.imports.get(module, {})
        local = f"{module}.{root}"
        if local in self.functions or local in self.classes:
            dotted = ".".join([local] + parts[1:])
        elif root in imports:
            dotted = ".".join([imports[root]] + parts[1:])
        else:
            return None
        return self.resolve_symbol(dotted)

    def _constructed_class(self, value: ast.expr, module: str) -> str | None:
        """Class qualname a RHS expression constructs, if any."""
        if isinstance(value, ast.IfExp):
            return self._constructed_class(value.body, module) or self._constructed_class(
                value.orelse, module
            )
        if not isinstance(value, ast.Call):
            return None
        target = self._callable_target(value.func, module)
        if target is None:
            return None
        if target in self.classes:
            return target
        if target in self.functions:
            returned = self.return_classes(target)
            if len(returned) == 1:
                return next(iter(returned))
        return None

    def _constructed_elem_class(self, value: ast.expr, module: str) -> str | None:
        """Element class for ``[X(...), ...]`` / ``[X(...) for ...]`` RHS."""
        if isinstance(value, ast.List):
            for elt in value.elts:
                found = self._constructed_class(elt, module)
                if found is not None:
                    return found
            return None
        if isinstance(value, ast.ListComp):
            return self._constructed_class(value.elt, module)
        return None

    def return_classes(self, qualname: str, _depth: int = 0) -> frozenset[str]:
        """Classes a function's ``return`` expressions construct.

        Chases factory indirection (``_tage`` → ``Tage(...)``, or a
        wrapper returning another factory's result) a few levels deep —
        this is what resolves the registry's ``partial`` entries.
        """
        cached = self._return_cache.get(qualname)
        if cached is not None:
            return cached
        fn = self.functions.get(qualname)
        if fn is None or _depth > 4:
            return frozenset()
        self._return_cache[qualname] = frozenset()  # cycle guard
        found: set[str] = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            direct = self._constructed_class(node.value, fn.module)
            if direct is not None:
                found.add(direct)
                continue
            if isinstance(node.value, ast.Call):
                target = self._callable_target(node.value.func, fn.module)
                if target in self.functions:
                    found.update(self.return_classes(target, _depth + 1))
        result = frozenset(found)
        self._return_cache[qualname] = result
        return result

    # ------------------------------------------------------------------
    # Registry indirection
    # ------------------------------------------------------------------

    def registered_predictors(self) -> dict[str, str]:
        """Registry name -> predictor class qualname.

        Follows ``standard_registry()``'s dict literal: plain function
        references and ``functools.partial(factory, ...)`` wrappers both
        resolve through the factory's return expressions.
        """
        qualname = self.resolve_symbol(REGISTRY_FUNCTION)
        fn = self.functions.get(qualname) if qualname else None
        if fn is None:
            return {}
        registry: dict[str, str] = {}
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Return) or not isinstance(node.value, ast.Dict):
                continue
            for key, value in zip(node.value.keys, node.value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    continue
                factory = self._registry_factory(value, fn.module)
                if factory is None:
                    continue
                classes = (
                    {factory} if factory in self.classes else set(self.return_classes(factory))
                )
                if len(classes) == 1:
                    registry[key.value] = next(iter(classes))
        return registry

    def _registry_factory(self, value: ast.expr, module: str) -> str | None:
        if isinstance(value, ast.Call):
            target = self._callable_target(value.func, module)
            if target is None and isinstance(value.func, ast.Name):
                target = value.func.id
            if target and target.rsplit(".", 1)[-1] == "partial" and value.args:
                return self._callable_target(value.args[0], module)
            return None
        return self._callable_target(value, module)

    # ------------------------------------------------------------------
    # Call-site resolution
    # ------------------------------------------------------------------

    def callees(self, qualname: str) -> frozenset[str]:
        """Resolved callee qualnames for one function."""
        cached = self._callee_cache.get(qualname)
        if cached is not None:
            return cached
        fn = self.functions.get(qualname)
        if fn is None:
            return frozenset()
        env = self._local_types(fn)
        edges: set[str] = set()
        call_funcs: set[int] = set()
        values: list[ast.Attribute] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                edges.update(self._resolve_call(fn, node, env))
                call_funcs.add(id(node.func))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                values.append(node)
        # A method read as a value (``step = self._step``, ``callback=
        # self._on_x``) is called wherever the value goes: an edge too.
        for node in values:
            if id(node) not in call_funcs:
                owner = self._expr_type(node.value, fn, env)
                if owner is not None:
                    edges.update(self._method_targets(owner, node.attr))
        edges.discard(qualname)
        result = frozenset(edges)
        self._callee_cache[qualname] = result
        return result

    def _local_types(self, fn: FunctionNode) -> dict[str, str]:
        """Cheap forward type inference for local names.

        Covers the shapes the hot paths actually use: construction
        assignments, ``x = self.attr``, ``x = self.attr[i]``, iteration
        over typed container attributes (including ``enumerate`` and
        ``zip``).
        """
        env: dict[str, str] = {}
        cls = fn.class_qualname
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._expr_type(node.value, fn, env)
                    if inferred is not None:
                        env.setdefault(target.id, inferred)
            elif isinstance(node, ast.For):
                self._bind_loop_target(node.target, node.iter, fn, env)
        if cls is not None:
            env.setdefault("self", cls)
        return env

    def _bind_loop_target(
        self, target: ast.expr, iterable: ast.expr, fn: FunctionNode, env: dict[str, str]
    ) -> None:
        sources: list[ast.expr]
        names: list[ast.expr]
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "enumerate"
            and iterable.args
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
        ):
            sources, names = [iterable.args[0]], [target.elts[1]]
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "zip"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == len(iterable.args)
        ):
            sources, names = list(iterable.args), list(target.elts)
        else:
            sources, names = [iterable], [target]
        for src, name in zip(sources, names):
            if not isinstance(name, ast.Name):
                continue
            elem = self._elem_type_of(src, fn, env)
            if elem is not None:
                env.setdefault(name.id, elem)

    def _elem_type_of(
        self, expr: ast.expr, fn: FunctionNode, env: dict[str, str]
    ) -> str | None:
        attr = self._typed_attr(expr, fn, env)
        if attr is not None:
            owner, name = attr
            return self.attr_elem_type(owner, name)
        return None

    def _typed_attr(
        self, expr: ast.expr, fn: FunctionNode, env: dict[str, str]
    ) -> tuple[str, str] | None:
        """(owner class, attr name) for an attribute whose owner types."""
        if not isinstance(expr, ast.Attribute):
            return None
        owner = self._expr_type(expr.value, fn, env)
        if owner is None:
            return None
        return owner, expr.attr

    def _expr_type(
        self, expr: ast.expr, fn: FunctionNode, env: dict[str, str]
    ) -> str | None:
        """Class qualname an expression evaluates to, where inferable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and fn.class_qualname is not None:
                return fn.class_qualname
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._expr_type(expr.value, fn, env)
            if owner is not None:
                return self.attr_type(owner, expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            attr = self._typed_attr(expr.value, fn, env)
            if attr is not None:
                owner, name = attr
                return self.attr_elem_type(owner, name)
            return None
        if isinstance(expr, (ast.Call, ast.IfExp)):
            return self._constructed_class(expr, fn.module)
        return None

    def _resolve_call(
        self, fn: FunctionNode, call: ast.Call, env: dict[str, str]
    ) -> set[str]:
        func = call.func
        # super().method(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and fn.class_qualname is not None
        ):
            info = self.classes.get(fn.class_qualname)
            if info is not None:
                for base in info.bases:
                    resolved = self.method(base, func.attr)
                    if resolved is not None:
                        return {resolved.qualname}
            return set()
        if isinstance(func, ast.Attribute):
            owner = self._expr_type(func.value, fn, env)
            if owner is not None:
                return self._method_targets(owner, func.attr)
        target = self._callable_target(func, fn.module)
        if target is None:
            return set()
        if target in self.classes:
            ctor = self.method(target, "__init__")
            return {ctor.qualname} if ctor is not None else set()
        if target in self.functions:
            return {target}
        return set()

    def _method_targets(self, class_qualname: str, name: str) -> set[str]:
        """A method call's implementations, including subclass overrides."""
        targets: set[str] = set()
        resolved = self.method(class_qualname, name)
        if resolved is not None:
            targets.add(resolved.qualname)
        for sub in self._descendants(class_qualname):
            if name in sub.methods:
                targets.add(sub.methods[name])
        return targets

    # ------------------------------------------------------------------
    # Hot-path roots and closure
    # ------------------------------------------------------------------

    def hot_roots(self) -> dict[str, str]:
        """Function qualname -> why it is a root.

        Roots are the per-event entry points: ``predict``/``train``/
        ``update``/``provider`` on every class descending from
        ``BranchPredictor``, plus any function carrying the
        ``@hot_path`` marker decorator.
        """
        roots: dict[str, str] = {}
        for info in self.subclasses_of(PREDICTOR_ROOT):
            for name in HOT_ROOT_METHODS:
                resolved = self.method(info.qualname, name)
                if resolved is not None:
                    roots.setdefault(resolved.qualname, f"{info.name}.{name}")
        for fn in self.functions.values():
            if any(HOT_PATH_DECORATOR in deco for deco in fn.decorators):
                roots.setdefault(fn.qualname, f"@{HOT_PATH_DECORATOR} {fn.symbol}")
        return roots

    def transitive_closure(
        self, roots: list[str] | set[str], stop: frozenset[str] = frozenset()
    ) -> dict[str, list[str]]:
        """BFS closure over call edges.

        Returns reached qualname -> shortest call chain from a root
        (root first, the function itself last); ``stop`` names method
        basenames that are never descended into.
        """
        chains: dict[str, list[str]] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = [root]
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.callees(current)):
                if callee in chains:
                    continue
                fn = self.functions.get(callee)
                if fn is None or fn.name in stop:
                    continue
                chains[callee] = chains[current] + [callee]
                queue.append(callee)
        return chains
