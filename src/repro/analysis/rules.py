"""The REPRO AST lint rules.

Each rule guards one hardware invariant (see ``docs/static_analysis.md``
for the paper sections they trace to):

========  ============================================================
REPRO001  Saturation: no bare ``+= 1`` / ``-= 1`` on predictor state
          outside the saturating-counter primitives or a visible bound
          check — hardware counters have a fixed width (§IV-B1).
REPRO002  Indexing: table sizes in ``*Config`` dataclasses must be
          powers of two — hardware indexes with bit masks, not modulo.
REPRO003  Integer math: no float constants, true division or
          ``float()`` calls on the ``predict``/``train`` paths of
          ``repro.core`` / ``repro.predictors`` — adders and saturating
          integer ALUs only.
REPRO004  Determinism: no ``random`` / ``time`` imports or
          ``os.urandom`` — every stochastic update must draw from
          ``repro.common.rng.XorShift64`` so runs are seed-pure.
REPRO005  Interface: every concrete ``BranchPredictor`` subclass must
          define ``name``, ``storage_bits`` and ``reset`` — unaccounted
          storage invalidates Table I-style comparisons.
REPRO006  Snapshot coverage: mutable state assigned in a predictor's
          ``__init__`` must be captured by its ``snapshot()`` /
          ``_state_payload()`` — uncovered state silently breaks the
          checkpoint/resume bit-identity guarantee (``docs/state.md``).
========  ============================================================

The linter is stdlib-``ast`` only.  Scope notes: REPRO001/003 apply to
the hardware-modelling packages (``core``, ``predictors``, ``common``);
the saturating-counter primitives in ``repro.common.counters`` and this
analysis package are exempt.  Files outside the ``repro`` package (the
violation fixtures) are always in scope for every rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import PREDICTOR_ROOT, CallGraph, ClassNode
from repro.analysis.findings import Finding, canonical_file

#: Modules that implement the sanctioned saturation/randomness
#: primitives and are exempt from the rules they implement.
_EXEMPT_MODULES = {"repro.common.counters", "repro.common.rng"}

#: Hardware-modelling subpackages in scope for REPRO001.
_STATE_PACKAGES = ("repro.core", "repro.predictors", "repro.common")

#: Subpackages whose predict/train paths must be integer-only (REPRO003).
_INTEGER_PACKAGES = ("repro.core", "repro.predictors")

#: Members every concrete predictor must define below the root.
_REQUIRED_MEMBERS = ("name", "storage_bits", "reset")

#: Modules whose import is nondeterministic or wall-clock dependent.
_FORBIDDEN_IMPORTS = {"random", "time"}


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name for a source file."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or parts
    return ".".join(parts)


@dataclass
class ModuleSource:
    """A parsed source file plus the naming context rules need."""

    path: Path
    module: str
    relpath: str
    tree: ast.Module
    text: str | None = None
    #: pragma tag -> {line: rule ids waived there}, filled on first use.
    _waivers: dict[str, dict[int, set[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def parse(cls, path: Path) -> "ModuleSource":
        text = path.read_text()
        return cls(
            path=path,
            module=module_name_for(path),
            relpath=canonical_file(path),
            tree=ast.parse(text, filename=str(path)),
            text=text,
        )

    @property
    def in_repro(self) -> bool:
        return self.module == "repro" or self.module.startswith("repro.")

    @property
    def lines(self) -> list[str]:
        """Source lines (1-indexed via ``lines[lineno - 1]``), best effort."""
        if self.text is None:
            try:
                self.text = self.path.read_text()
            except OSError:
                self.text = ""
        return self.text.splitlines()

    def waived(self, tag: str, rule: str, line: int, def_line: int) -> bool:
        """Whether a ``# <tag>: allow(RULES): reason`` pragma waives ``rule``.

        The pragma counts on the finding line, the line above it, the
        enclosing ``def`` line or the line above that (a decorator or a
        comment over the function).  The reason after the colon is
        mandatory: an unexplained waiver does not suppress.
        """
        waivers = self._waivers.get(tag)
        if waivers is None:
            pattern = re.compile(
                rf"#\s*{re.escape(tag)}:\s*allow\(\s*([A-Z0-9,\s]+?)\s*\)"
                r"\s*:\s*(\S.*)$"
            )
            waivers = {}
            for lineno, text in enumerate(self.lines, start=1):
                match = pattern.search(text)
                if match:
                    waivers[lineno] = {r.strip() for r in match.group(1).split(",")}
            self._waivers[tag] = waivers
        return any(
            rule in waivers.get(lineno, ())
            for lineno in (line, line - 1, def_line, def_line - 1)
        )


def collect_sources(paths: list[Path | str]) -> list[ModuleSource]:
    """Parse every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    seen: set[Path] = set()
    sources = []
    for file in files:
        resolved = file.resolve()
        if resolved in seen or "egg-info" in str(file):
            continue
        seen.add(resolved)
        sources.append(ModuleSource.parse(file))
    _distinct_module_names(sources)
    return sources


def _distinct_module_names(sources: list[ModuleSource]) -> None:
    """Give files outside the package that share a basename distinct
    module keys and file names: each takes on parent directories until
    the names differ (``a/pred.py`` and ``b/pred.py`` become modules
    ``a.pred`` and ``b.pred``, reported as ``a/pred.py`` and
    ``b/pred.py``), so the call graph indexes every one of them and
    their findings keep distinct baseline keys."""
    clashes: dict[str, list[ModuleSource]] = {}
    for source in sources:
        if not source.in_repro:
            clashes.setdefault(source.module, []).append(source)
    for group in clashes.values():
        depth = 1
        while len({source.module for source in group}) < len(group):
            depth += 1
            for source in group:
                path = source.path.resolve()
                source.module = ".".join(path.with_suffix("").parts[-depth:])
                source.relpath = canonical_file(path, keep=depth)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _qualname(ancestors: list) -> str:
    """Dotted Class.function context for the innermost scopes."""
    names = [
        frame.stmt.name
        for frame in ancestors
        if isinstance(frame.stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return ".".join(names) if names else "<module>"


@dataclass
class _Frame:
    """One level of statement nesting: the statement and where it sits."""

    stmt: ast.stmt
    body: list
    index: int


def _walk_statements(body, ancestors, visit) -> None:
    """DFS over statements calling ``visit(stmt, ancestors, body, index)``.

    ``ancestors`` is the list of enclosing :class:`_Frame` records,
    outermost first, so rules can inspect both the ancestor statements
    and their sibling statements.
    """
    for index, stmt in enumerate(body):
        visit(stmt, ancestors, body, index)
        frame = _Frame(stmt=stmt, body=body, index=index)
        for child_body in _stmt_bodies(stmt):
            _walk_statements(child_body, ancestors + [frame], visit)


def _call_tail(node: ast.Call) -> str | None:
    """The terminal name of a call target (``x.y.emit`` → ``emit``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if block:
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def _test_mentions(node: ast.AST, target_src: str) -> bool:
    """Whether a guard expression references the counter being stepped."""
    try:
        return target_src in ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our input
        return False


# ----------------------------------------------------------------------
# REPRO001 — unbounded counters
# ----------------------------------------------------------------------


def _check_unbounded_counters(source: ModuleSource) -> list[Finding]:
    if source.in_repro:
        if source.module in _EXEMPT_MODULES:
            return []
        if not source.module.startswith(_STATE_PACKAGES):
            return []
    findings: list[Finding] = []

    def visit(stmt, ancestors, body, index):
        if not isinstance(stmt, ast.AugAssign):
            return
        if not isinstance(stmt.op, (ast.Add, ast.Sub)):
            return
        if not (isinstance(stmt.value, ast.Constant) and stmt.value.value == 1):
            return
        target = stmt.target
        is_state = isinstance(target, ast.Attribute) or (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
        )
        if not is_state:
            return  # local loop variables are not architectural state
        target_src = ast.unparse(target)
        # Bounded when a guard on the same target is visible: an
        # enclosing if/while/elif condition, or a statement adjacent to
        # the increment — or to any enclosing if/try level — performing
        # the clamp/retire check (the post-increment idiom).
        for frame in reversed(ancestors):
            if isinstance(frame.stmt, (ast.If, ast.While)) and _test_mentions(
                frame.stmt.test, target_src
            ):
                return
        levels = [(body, index)]
        for frame in reversed(ancestors):
            if isinstance(
                frame.stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                break  # a guard outside the enclosing function proves nothing
            levels.append((frame.body, frame.index))
        for level_body, level_index in levels:
            for sibling_index in (level_index - 1, level_index + 1):
                if 0 <= sibling_index < len(level_body):
                    sibling = level_body[sibling_index]
                    if isinstance(sibling, ast.If) and _test_mentions(
                        sibling.test, target_src
                    ):
                        return
        findings.append(
            Finding(
                rule="REPRO001",
                file=source.relpath,
                line=stmt.lineno,
                symbol=_qualname(ancestors),
                message="unbounded `{} {} 1` on predictor state".format(
                    target_src, "+=" if isinstance(stmt.op, ast.Add) else "-="
                ),
                hint="use SaturatingCounter/SignedSaturatingCounter or guard "
                "with an explicit width bound",
            )
        )

    _walk_statements(source.tree.body, [], visit)
    return findings


# ----------------------------------------------------------------------
# REPRO002 — power-of-two table sizes in *Config dataclasses
# ----------------------------------------------------------------------

_SIZE_SUFFIXES = ("entries", "rows")


def _is_dataclass_config(node: ast.ClassDef) -> bool:
    if not node.name.endswith("Config"):
        return False
    for decorator in node.decorator_list:
        if "dataclass" in ast.unparse(decorator):
            return True
    return False


def _check_table_sizes(source: ModuleSource) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.ClassDef) and _is_dataclass_config(node)):
            continue
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
                and not isinstance(stmt.value.value, bool)
            ):
                continue
            name = stmt.target.id
            value = stmt.value.value
            if not name.endswith(_SIZE_SUFFIXES) or "log2" in name:
                continue  # log2_* fields store exponents, not sizes
            if value > 0 and value & (value - 1) == 0:
                continue
            findings.append(
                Finding(
                    rule="REPRO002",
                    file=source.relpath,
                    line=stmt.lineno,
                    symbol=f"{node.name}.{name}",
                    message=f"table size {name}={value} is not a power of two",
                    hint="hardware tables index with bit masks; round to the "
                    "nearest power of two or store log2",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REPRO003 — float arithmetic on predict/train paths
# ----------------------------------------------------------------------


def _check_float_paths(source: ModuleSource) -> list[Finding]:
    if source.in_repro and not source.module.startswith(_INTEGER_PACKAGES):
        return []
    findings: list[Finding] = []

    def flag(node: ast.AST, context: str, what: str) -> None:
        findings.append(
            Finding(
                rule="REPRO003",
                file=source.relpath,
                line=getattr(node, "lineno", 0),
                symbol=context,
                message=f"{what} on the {context.rsplit('.', 1)[-1]} path",
                hint="predict/train must be integer-only (shifts, masks, "
                "saturating adds); precompute float constants in __init__",
            )
        )

    def visit(stmt, ancestors, body, index):
        if not (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in ("predict", "train")
        ):
            return
        context = _qualname(ancestors + [_Frame(stmt=stmt, body=body, index=index)])
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                flag(node, context, f"float constant {node.value!r}")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                flag(node, context, "true division `/`")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                flag(node, context, "float() conversion")

    _walk_statements(source.tree.body, [], visit)
    return findings


# ----------------------------------------------------------------------
# REPRO004 — nondeterminism
# ----------------------------------------------------------------------


def _check_determinism(source: ModuleSource) -> list[Finding]:
    if source.module in _EXEMPT_MODULES:
        return []
    findings: list[Finding] = []

    def flag(node: ast.AST, ancestors, what: str) -> None:
        findings.append(
            Finding(
                rule="REPRO004",
                file=source.relpath,
                line=node.lineno,
                symbol=_qualname(ancestors),
                message=what,
                hint="draw randomness from repro.common.rng.XorShift64 so "
                "every run is a pure function of its seed",
            )
        )

    def _expressions_of(stmt: ast.stmt):
        """Expression children only — nested statements get their own visit."""
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield item

    def visit(stmt, ancestors, body, index):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name.split(".")[0] in _FORBIDDEN_IMPORTS:
                    flag(stmt, ancestors, f"nondeterministic import `{alias.name}`")
            return
        if isinstance(stmt, ast.ImportFrom):
            if (stmt.module or "").split(".")[0] in _FORBIDDEN_IMPORTS:
                flag(stmt, ancestors, f"nondeterministic import `from {stmt.module}`")
            return
        for expression in _expressions_of(stmt):
            for node in ast.walk(expression):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "urandom"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ):
                    flag(node, ancestors, "os.urandom is nondeterministic")

    _walk_statements(source.tree.body, [], visit)
    return findings


# ----------------------------------------------------------------------
# REPRO005 — predictor interface completeness
# ----------------------------------------------------------------------


def _is_abstract(node: ast.ClassDef) -> bool:
    """An ``ABC`` subclass, or a class declaring an ``@abstractmethod``."""
    return any(ast.unparse(base) in ("ABC", "abc.ABC") for base in node.bases) or any(
        "abstractmethod" in ast.unparse(decorator)
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in stmt.decorator_list
    )


def _class_members(node: ast.ClassDef) -> set[str]:
    """Names a class body defines: methods and class-level assignments."""
    members: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(stmt.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            members.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return members


def _concrete_predictors(
    graph: CallGraph,
) -> list[tuple[ClassNode, list[ClassNode]]]:
    """Each concrete predictor outside the analyzer, with the class chain
    *below* ``BranchPredictor`` (the class itself first)."""
    found = []
    for info in graph.subclasses_of(PREDICTOR_ROOT):
        if (
            info.name == PREDICTOR_ROOT
            or info.module.startswith("repro.analysis")
            or _is_abstract(info.node)
        ):
            continue
        chain = [cls for cls in graph.mro(info.qualname) if cls.name != PREDICTOR_ROOT]
        found.append((info, chain))
    return found


def _check_predictor_interface(
    predictors: list[tuple[ClassNode, list[ClassNode]]],
) -> list[Finding]:
    findings: list[Finding] = []
    for info, chain in predictors:
        defined = set().union(*(_class_members(cls.node) for cls in chain))
        missing = [member for member in _REQUIRED_MEMBERS if member not in defined]
        if missing:
            findings.append(
                Finding(
                    rule="REPRO005",
                    file=info.relpath,
                    line=info.line,
                    symbol=info.name,
                    message=f"BranchPredictor subclass missing {', '.join(missing)}",
                    hint="declare a display `name`, account storage in "
                    "`storage_bits()` and restore power-on state in `reset()`",
                )
            )
    return findings


# ----------------------------------------------------------------------
# REPRO006 — snapshot coverage of mutable predictor state
# ----------------------------------------------------------------------

#: Methods that define the state-snapshot protocol for a class.
_STATE_METHODS = ("snapshot", "_state_payload")

#: Builtin/stdlib constructors whose results are mutable containers.
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "array",
}

#: Array-constructor method names (``np.zeros`` and friends).
_MUTABLE_ARRAY_METHODS = {"zeros", "ones", "full", "empty", "arange", "array"}


def _rhs_is_mutable(node: ast.AST) -> bool:
    """Whether an ``__init__`` right-hand side builds mutable state.

    Containers (displays, comprehensions, ``[0] * n``), container
    constructors, numpy array builders and component constructions
    (calls to Capitalized names) all count; ``*Config`` constructions do
    not — configuration is immutable by repo convention.
    """
    for sub in ast.walk(node):
        if isinstance(
            sub, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            else:
                continue
            if callee in _MUTABLE_FACTORIES or callee in _MUTABLE_ARRAY_METHODS:
                return True
            if callee[:1].isupper() and not callee.endswith("Config"):
                return True
    return False


def _collect_init_mutable(init: ast.FunctionDef) -> dict[str, int]:
    """``self.<attr>`` -> line for each mutable ``__init__`` assignment."""
    mutable: dict[str, int] = {}
    for node in ast.walk(init):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _rhs_is_mutable(value)
            ):
                mutable.setdefault(target.attr, node.lineno)
    return mutable


def _self_attr_refs(func: ast.FunctionDef) -> set[str]:
    return {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _check_snapshot_coverage(
    graph: CallGraph, predictors: list[tuple[ClassNode, list[ClassNode]]]
) -> list[Finding]:
    findings: list[Finding] = []
    flagged: set[tuple[str, str]] = set()

    def method_node(cls: ClassNode, name: str) -> ast.FunctionDef | None:
        qualname = cls.methods.get(name)
        return graph.functions[qualname].node if qualname else None

    for info, chain in predictors:
        init_mutable = []
        for cls in chain:
            init = method_node(cls, "__init__")
            init_mutable.append((cls, _collect_init_mutable(init) if init else {}))
        if not any(mutable for _, mutable in init_mutable):
            continue
        state_methods = [
            node
            for cls in chain
            for name in _STATE_METHODS
            if (node := method_node(cls, name)) is not None
        ]
        if not state_methods:
            findings.append(
                Finding(
                    rule="REPRO006",
                    file=info.relpath,
                    line=info.line,
                    symbol=info.name,
                    message="predictor holds mutable state but defines no "
                    "snapshot (`_state_payload`)",
                    hint="implement _state_payload/_restore_payload so "
                    "campaigns can checkpoint and resume this predictor",
                )
            )
            continue
        refs = set().union(*(_self_attr_refs(node) for node in state_methods))
        for cls, mutable in init_mutable:
            for attr, line in sorted(mutable.items()):
                if attr in refs:
                    continue
                key = (cls.relpath, f"{cls.name}.{attr}")
                if key in flagged:
                    continue
                flagged.add(key)
                findings.append(
                    Finding(
                        rule="REPRO006",
                        file=cls.relpath,
                        line=line,
                        symbol=f"{cls.name}.{attr}",
                        message=f"__init__ assigns mutable `self.{attr}` "
                        "not covered by snapshot",
                        hint="serialize it in _state_payload, or baseline it "
                        "with a justification if it is a derived constant",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

#: rule id -> (short title, per-module checker or None for project-wide)
RULES = {
    "REPRO001": ("unbounded counter", _check_unbounded_counters),
    "REPRO002": ("non-power-of-two table size", _check_table_sizes),
    "REPRO003": ("float arithmetic in predict/train", _check_float_paths),
    "REPRO004": ("nondeterminism", _check_determinism),
    "REPRO005": ("incomplete predictor interface", None),
    "REPRO006": ("mutable state outside snapshot", None),
}


def check_sources(sources: list[ModuleSource], graph: CallGraph) -> list[Finding]:
    """Run the REPRO0xx hardware-faithfulness family over parsed sources."""
    findings: list[Finding] = []
    for source in sources:
        if source.module.startswith("repro.analysis"):
            continue  # the analyzer does not model hardware
        for rule_id, (_, checker) in RULES.items():
            if checker is not None:
                findings.extend(checker(source))
    predictors = _concrete_predictors(graph)
    findings.extend(_check_predictor_interface(predictors))
    findings.extend(_check_snapshot_coverage(graph, predictors))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def lint_paths(paths: list[Path | str], families=None) -> list[Finding]:
    """Lint every python file under ``paths`` with all (or the selected)
    rule families — delegates to :mod:`repro.analysis.families`."""
    from repro.analysis.families import lint_paths as _lint_paths

    return _lint_paths(paths, families)


def lint_source(text: str, filename: str = "<memory>", families=None) -> list[Finding]:
    """Lint a single in-memory module (used by the rule unit tests)."""
    from repro.analysis.families import lint_source as _lint_source

    return _lint_source(text, filename, families)
